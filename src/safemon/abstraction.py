"""Q-value state abstraction: ceiling buckets, tables, episode features.

Two concrete states are considered equivalent when every per-action
Q-value lands in the same width-``d`` ceiling bucket. Episodes are then
encoded over the resulting abstract-state vocabulary, either as presence
bits or as visit counts, and those vectors are what the violation
predictor consumes.

One function counts visits into feature rows: prefix_feature_matrix uses
it for every prefix of one episode (batch replay), episode_feature_matrix
for the end of each training episode. A prefix matrix is compact: it has
one column per abstract state the episode visits, plus the global ids of
those columns, and every other state's count is 0. Features are monotone
visit counts, so each step changes at most one column, which is what the
forest's change-driven walk feeds on. The monitor's running counts in
observe are the same encoding, kept one step at a time over the whole
table. A Q-vector whose width differs from the table's is rejected where
it is looked up.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .seeding import derive_seed

BucketKey = tuple[int, ...]

# Relative slack under which a quotient is treated as the integer it is
# visually equal to, so float drift cannot split a boundary bucket.
_SNAP_RTOL = 1e-12


class FeatureMode(str, enum.Enum):
    BINARY = "binary"
    FREQUENCY = "frequency"


class UnseenPolicy(str, enum.Enum):
    """What to do with abstract states missing from the training table."""

    IGNORE = "ignore"
    STOP = "stop"


def _bucket_array(q: np.ndarray, d: float) -> np.ndarray:
    if d <= 0:
        raise ValueError(f"abstraction level must be positive, got {d}")
    q = np.asarray(q, dtype=np.float64)
    if not np.all(np.isfinite(q)):
        raise ValueError("Q-values must be finite")
    ratio = q / d
    nearest = np.rint(ratio)
    snap = np.abs(ratio - nearest) <= _SNAP_RTOL * np.maximum(1.0, np.abs(ratio))
    return np.where(snap, nearest, np.ceil(ratio)).astype(np.int64)


def bucketize(q: Sequence[float], d: float) -> BucketKey:
    """Per-action ceiling bucket of q/d, with boundary values snapped."""
    return tuple(int(b) for b in _bucket_array(np.asarray(q), d))


def bucketize_batch(qs: np.ndarray, d: float) -> np.ndarray:
    """Bucket a (steps, actions) Q-matrix in one shot."""
    return _bucket_array(qs, d)


@dataclass
class AbstractionTable:
    """Dense ids for the bucket keys discovered in a training corpus.

    Ids are assigned in first-discovery order over the corpus, so a table
    is fully reproducible from (corpus order, d).
    """

    d: float
    index: dict[BucketKey, int] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.index)

    @property
    def key_width(self) -> int:
        """Number of actions the table was built over."""
        return len(next(iter(self.index)))

    @classmethod
    def build(cls, episode_set, d: float) -> "AbstractionTable":
        if not episode_set.episodes:
            raise ValueError("cannot build an abstraction table from an empty corpus")
        table = cls(d=d)
        index = table.index
        for episode in episode_set.episodes:
            for row in bucketize_batch(episode.qs, d):
                key = tuple(row.tolist())
                if key not in index:
                    index[key] = len(index)
        return table

    def _require_width(self, q: np.ndarray, ndim: int) -> None:
        """Reject Q-values whose shape is not ([steps,] actions)."""
        if q.ndim != ndim or q.shape[-1] != self.key_width:
            raise ValueError(
                f"expected {self.key_width} Q-values per step, got an array of shape {q.shape}"
            )

    def lookup(self, q: Sequence[float]) -> Optional[int]:
        """Abstract id of a Q-vector, or None when its key was never seen."""
        q = np.asarray(q)
        self._require_width(q, 1)
        return self.index.get(bucketize(q, self.d))

    def lookup_batch(self, qs: np.ndarray) -> np.ndarray:
        """Ids for a (steps, actions) Q-matrix; unseen keys become -1."""
        qs = np.asarray(qs)
        self._require_width(qs, 2)
        get = self.index.get
        return np.fromiter(
            (get(tuple(row.tolist()), -1) for row in bucketize_batch(qs, self.d)),
            dtype=np.int64,
            count=len(qs),
        )

    def to_json_dict(self) -> dict:
        keys = sorted(self.index, key=self.index.get)
        return {
            "d": self.d,
            "keys": [list(k) for k in keys],
            "ids": [self.index[k] for k in keys],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "AbstractionTable":
        keys, ids = np.asarray(doc["keys"]), np.asarray(doc["ids"])
        if keys.ndim != 2 or keys.dtype.kind not in "iu":
            raise ValueError("table keys must be lists of integers of one length")
        if ids.shape != (len(keys),) or ids.dtype.kind not in "iu":
            raise ValueError("table ids must be one integer per key")
        index = dict(zip(map(tuple, keys.tolist()), ids.tolist()))
        return cls(d=float(doc["d"]), index=index)


def _visit_counts(n_rows: int, n: int, rows: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """(n_rows, n) float32 matrix with one visit of abstract id ids[i]
    counted into row rows[i]; unseen ids (-1) are dropped."""
    counts = np.zeros((n_rows, n), dtype=np.float32)
    seen = ids >= 0
    np.add.at(counts, (rows[seen], ids[seen]), 1.0)
    return counts


def prefix_feature_matrix(
    ids: np.ndarray, n: int, mode: FeatureMode
) -> tuple[np.ndarray, np.ndarray]:
    """Feature rows of every prefix of one episode (unseen ids = -1), over
    the abstract states it visits.

    Returns (counts, columns): row t of the (steps, len(columns)) matrix
    encodes the visits of steps 0..t to the states `columns` (ascending
    global ids); every other of the n states reads 0.
    """
    ids = np.asarray(ids)
    seen = np.nonzero(ids >= 0)[0]
    columns, local = np.unique(ids[seen], return_inverse=True)
    if columns.size and columns[-1] >= n:
        raise IndexError(f"abstract id {columns[-1]} is past the table's {n} states")
    counts = _visit_counts(len(ids), len(columns), seen, local)
    np.cumsum(counts, axis=0, out=counts)
    if mode is FeatureMode.BINARY:
        np.minimum(counts, 1.0, out=counts)
    return counts, columns


def episode_feature_matrix(episodes, table: AbstractionTable, mode: FeatureMode) -> np.ndarray:
    """End-of-episode feature rows for a list of episodes."""
    ids = [table.lookup_batch(episode.qs) for episode in episodes]
    rows = np.repeat(np.arange(len(ids)), [len(i) for i in ids])
    flat = np.concatenate(ids) if ids else rows  # no episodes, no visits
    counts = _visit_counts(len(ids), table.n, rows, flat)
    if mode is FeatureMode.BINARY:
        np.minimum(counts, 1.0, out=counts)
    return counts


def distinct_q_count(episode_set) -> int:
    """Number of distinct per-step Q-vectors in a corpus."""
    seen = set()
    for episode in episode_set.episodes:
        seen.update(map(tuple, episode.qs.tolist()))
    return len(seen)


# Candidates whose end-of-episode macro F1 is within this many points of
# the best candidate count as part of the optimal range.
OPTIMAL_RANGE_SLACK = 0.02


@dataclass
class LevelRow:
    d: float
    n_states: int
    f1_macro: float
    operation_f1: Optional[float]
    mean_fire_step: Optional[float]
    in_optimal_range: bool
    excluded: bool


@dataclass
class LevelSelection:
    optimal_range: tuple[float, float]
    d_star: float
    rows: list[LevelRow]


def select_level(
    train,
    candidate_ds: Sequence[float],
    inner_split_seed: int,
    mode: FeatureMode = FeatureMode.BINARY,
    theta: float = 0.5,
    criterion=None,
    forest_config=None,
) -> LevelSelection:
    """Two-phase, coarse-to-fine style pick of the abstraction level.

    Phase 1 scores each candidate by end-of-episode macro F1 on an inner
    70/30 split; candidates within 2 points of the best form the optimal
    range. Phase 2 reruns the latched monitor over the inner test
    episodes for every in-range candidate: among those whose in-operation
    horizon F1 is within the same slack of the best, it keeps the one
    that fires earliest on true positives, ties toward the larger
    (coarser) level. Judging phase 2 on operation F1 as well as earliness
    is what keeps trigger-happy levels (fire at step 0 on everything)
    from winning on earliness alone. Frequency-mode candidates whose
    empty-prefix violation probability already clears the threshold are
    excluded outright: such a monitor would fire before seeing anything.
    A corpus or inner training split without both classes raises
    DatasetError.
    """
    from . import forest as forest_mod
    from . import monitor as monitor_mod
    from .dataset import require_both_classes, split
    from .evaluation import macro_f1, metrics_over_time

    if len(candidate_ds) < 2:
        raise ValueError("need at least two candidate abstraction levels")
    crit = criterion if criterion is not None else monitor_mod.Criterion.UPPER_BOUND
    config = forest_config if forest_config is not None else forest_mod.ForestConfig()

    require_both_classes(train, "the corpus")
    inner_train, inner_test = split(train, 0.7, inner_split_seed)
    require_both_classes(inner_train, "the 70% inner training split")
    y_train = np.array([e.label.value == "unsafe" for e in inner_train.episodes], dtype=np.int64)
    y_test = np.array([e.label.value == "unsafe" for e in inner_test.episodes], dtype=np.int64)

    scored = []
    for d in candidate_ds:
        table = AbstractionTable.build(inner_train, d)
        x_train = episode_feature_matrix(inner_train.episodes, table, mode)
        model = forest_mod.train_forest(
            x_train, y_train, config, derive_seed(inner_split_seed, f"level-forest:{d!r}")
        )
        x_test = episode_feature_matrix(inner_test.episodes, table, mode)
        means = forest_mod.predict_batch(model, x_test).mean
        f1 = macro_f1(y_test, means >= 0.5)
        scored.append((d, table, model, f1))

    best_f1 = max(item[3] for item in scored)
    in_range = [item for item in scored if item[3] >= best_f1 - OPTIMAL_RANGE_SLACK]
    range_lo = min(item[0] for item in in_range)
    range_hi = max(item[0] for item in in_range)

    labels = [e.label for e in inner_test.episodes]
    unsafe_mask = y_test.astype(bool)
    horizon = max(e.length for e in inner_test.episodes)
    rows = []
    candidates = []
    for d, table, model, f1 in scored:
        selected = f1 >= best_f1 - OPTIMAL_RANGE_SLACK
        excluded = False
        mean_fire: Optional[float] = None
        operation_f1: Optional[float] = None
        if selected:
            if mode is FeatureMode.FREQUENCY:
                empty = forest_mod.predict(model, np.zeros(table.n))
                excluded = empty.mean >= theta
            if not excluded:
                monitor = monitor_mod.MonitorModel(
                    table=table, forest=model, mode=mode, criterion=crit, theta=theta
                )
                traces = [monitor_mod.run_trace(monitor, e.qs) for e in inner_test.episodes]
                operation_f1 = metrics_over_time(traces, labels, horizon)[-1].f1_macro
                fires = [
                    t.first_fire_step
                    for t, unsafe in zip(traces, unsafe_mask)
                    if unsafe and t.first_fire_step is not None
                ]
                if fires:
                    mean_fire = float(np.mean(fires))
                candidates.append((d, operation_f1, mean_fire))
        rows.append(LevelRow(d, table.n, f1, operation_f1, mean_fire, selected, excluded))

    if not candidates:
        raise ValueError("every in-range candidate was excluded; widen the grid")
    best_operation = max(c[1] for c in candidates)
    ranked = sorted(
        (
            (fire if fire is not None else math.inf, -d, d)
            for d, op_f1, fire in candidates
            if op_f1 >= best_operation - OPTIMAL_RANGE_SLACK
        )
    )
    return LevelSelection(optimal_range=(range_lo, range_hi), d_star=ranked[0][2], rows=rows)
