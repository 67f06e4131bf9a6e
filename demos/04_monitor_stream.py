"""The monitor as a stream consumer: incremental features, latching.

Builds a miniature monitor from a synthetic corpus (two families of
Q-value trajectories, one of which ends in violations) and feeds it one
Q-vector at a time, printing the confidence interval and the latched
decision after every step. Demonstrates exactly what the `safemon watch`
subcommand does over NDJSON pipes.
"""

import numpy as np

from safemon import (
    AbstractionTable,
    Criterion,
    FeatureMode,
    MonitorModel,
    RunningState,
    observe,
    run_trace,
    train_forest,
)
from safemon.abstraction import episode_feature_matrix
from safemon.dataset import Episode, EpisodeSet, Label
from safemon.envs import Cause

rng = np.random.default_rng(0)


def synthetic_episode(unsafe, steps=12):
    # Safe runs hover around a Q plateau; unsafe runs decay toward a
    # characteristic low-Q regime a few steps in.
    qs = np.empty((steps, 2))
    for t in range(steps):
        base = 8.0 - (0.9 * t if unsafe and t > 3 else 0.1 * t)
        qs[t] = base + rng.uniform(0, 0.2, size=2)
    return Episode(
        states=np.zeros((steps, 2)),
        actions=np.zeros(steps, dtype=np.int64),
        qs=qs,
        rewards=-np.ones(steps),
        cause=Cause.VIOLATION if unsafe else Cause.STEP_LIMIT,
    )


corpus = EpisodeSet(episodes=[synthetic_episode(i % 4 == 0) for i in range(120)])
table = AbstractionTable.build(corpus, d=1.0)
x = episode_feature_matrix(table.corpus_ids, table.n, FeatureMode.BINARY)
y = np.array([e.label is Label.UNSAFE for e in corpus.episodes], dtype=np.int64)
forest = train_forest(x, y, n_trees=60, seed=5)
model = MonitorModel(table=table, forest=forest, criterion=Criterion.UPPER_BOUND, theta=0.5)
print(f"monitor: {table.n} abstract states, {forest.n_trees} trees, "
      f"criterion {model.criterion.value} at theta={model.theta}")

episode = synthetic_episode(unsafe=True)
print("\nstreaming an unsafe episode step by step:")
running = RunningState.fresh(model)
for q in episode.qs:
    a = observe(model, running, q)
    bar = "FIRED" if a.fired else ""
    print(
        f"  t={a.t:2d} q={np.round(q, 2)} p={a.summary.mean:.3f} "
        f"ci=[{a.summary.low:.3f}, {a.summary.up:.3f}] {bar}"
    )

trace = run_trace(model, episode.qs)
print(f"\nbatch re-evaluation agrees: first_fire_step = {trace.first_fire_step}")

safe = synthetic_episode(unsafe=False)
print(f"safe episode fires: {run_trace(model, safe.qs).first_fire_step}")
