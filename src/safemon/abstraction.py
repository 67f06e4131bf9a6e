"""Q-value state abstraction: ceiling buckets, tables, episode features.

Two concrete states are considered equivalent when every per-action
Q-value lands in the same width-``d`` ceiling bucket. Episodes are then
encoded over the resulting abstract-state vocabulary, either as presence
bits or as visit counts, and those vectors are what the violation
predictor consumes.

One function counts visits into feature rows: episode_feature_matrix
uses it for the end of each training episode in frequency mode, and
prefix_feature_matrix for every prefix of one episode; binary
end-of-episode rows are presence bits, one byte each. A prefix matrix is
compact: it has one column per abstract state the episode visits, plus
the global ids of those columns, and every other state's count is 0.
Features are monotone visit counts, so each step changes at most one
column. Batch replay does not build prefix matrices: monitor.run_traces
hands a chunk's visit ids to the forest's change-driven walk, which
builds the same prefixes over the states a tree tests and walks a tree
at a step only when that step changes one of them. The monitor's running
counts in observe are the same encoding, kept one step at a time over
the whole table, and each step walks every tree. A Q-vector whose width
differs from the table's is rejected where it is looked up.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .seeding import derive_seed

BucketKey = tuple[int, ...]

# Relative slack under which a quotient is treated as the integer it is
# visually equal to, so float drift cannot split a boundary bucket.
_SNAP_RTOL = 1e-12

# |q / d| must stay below 2**63 for its bucket index to fit an int64.
_INDEX_LIMIT = 2.0**63


class FeatureMode(str, enum.Enum):
    BINARY = "binary"
    FREQUENCY = "frequency"


class UnseenPolicy(str, enum.Enum):
    """What to do with abstract states missing from the training table."""

    IGNORE = "ignore"
    STOP = "stop"


def bucketize_batch(qs: np.ndarray, d: float) -> np.ndarray:
    """Per-action ceiling bucket of q/d for an array of Q-values, such as
    a (steps, actions) Q-matrix, with boundary values snapped."""
    if not 0 < d < math.inf:
        raise ValueError(f"abstraction level must be positive and finite, got {d}")
    q = np.asarray(qs, dtype=np.float64)
    if d < 1.0:  # only then can a finite q overflow; the refusal below names it
        with np.errstate(over="ignore"):
            ratio = q / d
    else:
        ratio = q / d
    size = np.abs(ratio)
    # One test refuses NaN, infinities and quotients no int64 holds.
    if not (size < _INDEX_LIMIT).all():
        if not np.isfinite(q).all():
            raise ValueError("Q-values must be finite")
        value = q.flat[int(np.argmin(size < _INDEX_LIMIT))].item()
        raise ValueError(f"Q-value {value!r} at abstraction level {d!r} has a bucket index beyond int64")
    nearest = np.rint(ratio)
    snap = np.abs(ratio - nearest) <= _SNAP_RTOL * np.maximum(1.0, size)
    return np.where(snap, nearest, np.ceil(ratio)).astype(np.int64)


def bucketize(q: Sequence[float], d: float) -> BucketKey:
    """Per-action ceiling bucket of q/d, with boundary values snapped."""
    return tuple(bucketize_batch(q, d).tolist())


@dataclass
class AbstractionTable:
    """Dense ids for the bucket keys discovered in a training corpus.

    Ids are assigned in first-discovery order over the corpus, so a table
    is fully reproducible from (corpus order, d). A table made by `build`
    also keeps the per-step ids of each corpus episode it found on the
    way (`corpus_ids`), so that encoding that corpus needs no second
    bucketing pass; the ids are not part of the table's value or file.
    """

    d: float
    index: dict[BucketKey, int] = field(default_factory=dict)
    corpus_ids: list[np.ndarray] = field(default_factory=list, compare=False, repr=False)

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
            keys = map(tuple, bucketize_batch(episode.qs, d).tolist())
            # setdefault reads len(index) before it inserts: a new key gets the next id.
            ids = [index.setdefault(key, len(index)) for key in keys]
            table.corpus_ids.append(np.array(ids, dtype=np.int64))
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
        keys = map(tuple, bucketize_batch(qs, self.d).tolist())
        ids = map(self.index.get, keys, repeat(-1))
        return np.fromiter(ids, dtype=np.int64, count=len(qs))

    def to_json_dict(self) -> dict:
        keys = sorted(self.index, key=self.index.get)
        return {
            "d": self.d,
            "keys": [list(k) for k in keys],
            "ids": [self.index[k] for k in keys],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "AbstractionTable":
        """The table of to_json_dict's form, whose fields load_model checks
        (monitor.MODEL_FIELDS), refused unless its ids are 0 .. n-1, one
        per key, and its keys are distinct."""
        keys, ids = doc["keys"], doc["ids"]
        n = len(keys)
        # to_json_dict writes the ids in order.
        if ids != list(range(n)) and set(ids) != set(range(n)):
            outside = [i for i in ids if not 0 <= i < n]
            if outside:
                raise ValueError(f"table id {outside[0]} is outside [0, {n})")
            raise ValueError(f"table id {_first_repeat(ids)} is given to more than one key")
        index = dict(zip(map(tuple, keys), ids))
        if len(index) < n:
            raise ValueError(f"table key {list(_first_repeat(map(tuple, keys)))} is given more than once")
        return cls(d=float(doc["d"]), index=index)


def _first_repeat(items):
    """The first of `items` equal to an earlier one."""
    seen = set()
    return next(item for item in items if item in seen or seen.add(item))


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


def episode_feature_matrix(
    episodes, table: AbstractionTable, mode: FeatureMode, ids=None
) -> np.ndarray:
    """End-of-episode feature rows for a list of episodes: uint8 presence
    bits in binary mode, float32 visit counts in frequency mode.

    `ids`, when given, holds each episode's per-step abstract ids, as
    `table.corpus_ids` does for the corpus the table was built from, and
    the episodes are not looked up again.
    """
    if ids is None:
        ids = [table.lookup_batch(episode.qs) for episode in episodes]
    rows = np.repeat(np.arange(len(ids)), [len(i) for i in ids])
    flat = np.concatenate(ids) if ids else rows  # no episodes, no visits
    if mode is FeatureMode.BINARY:
        # Presence bits in bytes: a quarter of the memory of float32 counts,
        # for the matrix that build and select-d hold while they fit.
        present = np.zeros((len(ids), table.n), dtype=np.uint8)
        seen = flat >= 0
        present[rows[seen], flat[seen]] = 1
        return present
    return _visit_counts(len(ids), table.n, rows, flat)


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
    n_trees: int = 100,
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
    empty-prefix summary already meets the criterion are excluded
    outright: such a monitor would fire before seeing anything.
    A corpus or inner training split without both classes raises
    DatasetError.
    """
    from . import forest as forest_mod
    from . import monitor as monitor_mod
    from .dataset import require_both_classes, split
    from .evaluation import macro_f1, sweep

    if len(candidate_ds) < 2:
        raise ValueError("need at least two candidate abstraction levels")
    crit = criterion if criterion is not None else monitor_mod.Criterion.UPPER_BOUND

    require_both_classes(train, "the corpus")
    inner_train, inner_test = split(train, 0.7, inner_split_seed)
    require_both_classes(inner_train, "the 70% inner training split")
    y_train = np.array([e.label.value == "unsafe" for e in inner_train.episodes], dtype=np.int64)
    y_test = np.array([e.label.value == "unsafe" for e in inner_test.episodes], dtype=np.int64)

    scored = []
    for d in candidate_ds:
        table = AbstractionTable.build(inner_train, d)
        x_train = episode_feature_matrix(inner_train.episodes, table, mode, table.corpus_ids)
        model = forest_mod.train_forest(
            x_train, y_train, n_trees, derive_seed(inner_split_seed, f"level-forest:{d!r}")
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
                excluded = monitor_mod.criterion_holds(empty, crit, theta)
            if not excluded:
                monitor = monitor_mod.MonitorModel(
                    table=table, forest=model, mode=mode, criterion=crit, theta=theta
                )
                traces = monitor_mod.run_traces(monitor, [e.qs for e in inner_test.episodes])
                (row,) = sweep(traces, labels, [crit], [theta]).rows
                operation_f1, mean_fire = row.metrics.f1_macro, row.stats.decision_step_avg
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
