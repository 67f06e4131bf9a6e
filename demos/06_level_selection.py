"""Coarse-to-fine abstraction-level selection.

Runs the two-phase search on a synthetic corpus whose separability
degrades at coarse levels: phase 1 ranks candidate levels by held-out
macro F1 after training, phase 2 re-runs the latched monitor and prefers
the level that stays accurate while firing earliest. Also prints the
per-level report that `safemon select-d` writes as JSON.
"""

import numpy as np

from safemon import FeatureMode, select_level
from safemon.dataset import Episode, EpisodeSet
from safemon.envs import Cause

rng = np.random.default_rng(21)


def episode(unsafe, steps=15):
    # Two Q bands 3 units apart, drifting slightly within an episode:
    # levels below ~3 keep the bands apart, coarser ones merge them.
    base = 6.0 if unsafe else 3.0
    qs = base + np.cumsum(rng.uniform(-0.1, 0.15, size=(steps, 1)), axis=0)
    qs = np.repeat(qs, 2, axis=1) + rng.uniform(0, 0.05, size=(steps, 2))
    return Episode(
        states=np.zeros((steps, 2)),
        actions=np.zeros(steps, dtype=np.int64),
        qs=qs,
        rewards=-np.ones(steps),
        cause=Cause.VIOLATION if unsafe else Cause.STEP_LIMIT,
    )


corpus = EpisodeSet(episodes=[episode(i % 4 == 0) for i in range(240)])
selection = select_level(
    corpus,
    candidate_ds=[0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
    inner_split_seed=99,
    mode=FeatureMode.BINARY,
    n_trees=40,
)

print(f"{'d':>6} {'states':>7} {'trainF1':>8} {'opF1':>6} {'fire':>6}  flags")
for row in selection.rows:
    op = f"{row.operation_f1:.3f}" if row.operation_f1 is not None else "-"
    fire = f"{row.mean_fire_step:.1f}" if row.mean_fire_step is not None else "-"
    flags = []
    if row.in_optimal_range:
        flags.append("in-range")
    if row.excluded:
        flags.append("excluded")
    print(f"{row.d:>6} {row.n_states:>7} {row.f1_macro:>8.3f} {op:>6} {fire:>6}  {' '.join(flags)}")

lo, hi = selection.optimal_range
print(f"\noptimal range [{lo}, {hi}], selected d* = {selection.d_star}")
print("phase 1 keeps levels within 2 F1 points of the best; phase 2 then")
print("prefers early firing among levels whose in-operation F1 stays close")
print("to the best, breaking exact ties toward the coarser table.")
