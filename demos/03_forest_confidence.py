"""Per-tree probabilities and the 95% confidence interval.

Trains a small forest on a toy problem and shows how the interval
mean +/- 1.96 * sigma / sqrt(m) narrows as trees agree, and how the
three decision criteria (upper bound, output probability, lower bound)
order their firing thresholds from eager to conservative.
"""

import numpy as np

from safemon import Criterion, criterion_holds, predict, train_forest

rng = np.random.default_rng(3)
n = 400
x = rng.uniform(0, 1, size=(n, 6))
y = ((x[:, 0] > 0.6) & (x[:, 1] > 0.4)).astype(int)
flip = rng.random(n) < 0.08  # label noise makes trees disagree near the edge
y = np.where(flip, 1 - y, y)
forest = train_forest(x, y, n_trees=100, seed=11)

print("input                     mean and sigma           interval")
for probe in (
    np.array([0.9, 0.9, 0.5, 0.5, 0.5, 0.5]),  # deep in the unsafe region
    np.array([0.1, 0.1, 0.5, 0.5, 0.5, 0.5]),  # deep in the safe region
    np.array([0.645, 0.39, 0.5, 0.5, 0.5, 0.5]),  # right on the boundary
):
    s = predict(forest, probe)
    print(
        f"x[:2]={probe[:2]}   mean={s.mean:.3f} sigma={s.std:.3f}   "
        f"[{s.low:.3f}, {s.up:.3f}]"
    )

probe = np.array([0.645, 0.39, 0.5, 0.5, 0.5, 0.5])
s = predict(forest, probe)
print(f"\nboundary input at theta=0.5: mean={s.mean:.3f}, CI [{s.low:.3f}, {s.up:.3f}]")
for criterion in Criterion:
    print(f"  {criterion.value:<20} fires: {criterion_holds(s, criterion, 0.5)}")
print("the upper bound is the eager criterion, the lower bound the conservative one")

print("\ninterval width vs ensemble size (same data, more trees):")
for m in (25, 100, 400):
    f = train_forest(x, y, n_trees=m, seed=11)
    s = predict(f, probe)
    print(f"  m={m:<4} width={s.up - s.low:.4f}")
