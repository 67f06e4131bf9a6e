"""Decision criteria and thresholds: the earliness/false-positive trade.

Sweeps the three decision criteria against thresholds {0.25, 0.5, 0.75}
on one synthetic test set and prints the ordering this induces: the
upper bound fires earliest (most false positives), the lower bound
latest (fewest), and raising the threshold delays everything while
trading false positives for false negatives.
"""

import numpy as np

from safemon import (
    AbstractionTable,
    Criterion,
    FeatureMode,
    MonitorModel,
    run_trace,
    sweep,
    train_forest,
)
from safemon.abstraction import episode_feature_matrix
from safemon.dataset import Episode, EpisodeSet, Label
from safemon.envs import Cause

rng = np.random.default_rng(7)


def wander(unsafe, steps):
    qs = np.empty((steps, 2))
    level = 10.0
    for t in range(steps):
        level += rng.uniform(-0.4, 0.4) - (0.3 if unsafe and t > steps // 4 else 0.0)
        qs[t] = level + rng.uniform(0, 0.8, size=2)
    return Episode(
        states=np.zeros((steps, 2)),
        actions=np.zeros(steps, dtype=np.int64),
        qs=qs,
        rewards=-np.ones(steps),
        label=Label.UNSAFE if unsafe else Label.SAFE,
        cause=Cause.VIOLATION if unsafe else Cause.STEP_LIMIT,
    )


episodes = [wander(i % 5 == 0, steps=int(rng.integers(20, 30))) for i in range(300)]
train_set = EpisodeSet(episodes=episodes[:200])
test_set = EpisodeSet(episodes=episodes[200:])

table = AbstractionTable.build(train_set, d=2.0)
x = episode_feature_matrix(train_set.episodes, table, FeatureMode.BINARY)
y = np.array([e.label is Label.UNSAFE for e in train_set.episodes], dtype=np.int64)
forest = train_forest(x, y, n_trees=80, seed=1)
model = MonitorModel(table=table, forest=forest)

# Replay each test episode once; the sweep re-reads the same probability series.
traces = [run_trace(model, e.qs) for e in test_set.episodes]
labels = [e.label for e in test_set.episodes]
report = sweep(traces, labels, list(Criterion), [0.25, 0.5, 0.75])
print(f"{'criterion':<20} {'theta':>5} {'macroF1':>8} {'avg step':>9} {'FP':>4} {'FN':>4}")
for row in report.rows:
    step = f"{row.stats.decision_step_avg:,.1f}" if row.stats.decision_step_avg is not None else "-"
    print(
        f"{row.criterion.value:<20} {row.theta:>5} {row.metrics.f1_macro:>8.3f} "
        f"{step:>9} {row.stats.fp_count:>4} {row.fn_count:>4}"
    )

print(
    "\nreading guide: within a criterion, larger theta means later decisions,"
    "\nfewer false positives, more false negatives; for a fixed theta the"
    "\nupper bound fires no later than the probability, which fires no later"
    "\nthan the lower bound."
)
