"""Q-value state abstraction: ceiling buckets, tables, episode features.

Two concrete states are considered equivalent when every per-action
Q-value lands in the same width-``d`` ceiling bucket. Episodes are then
encoded over the resulting abstract-state vocabulary, either as presence
bits or as visit counts, and those vectors are what the violation
predictor consumes.

The bucket rule has two forms. bucketize_batch applies it to arrays, as
corpora are bucketed (AbstractionTable.build, lookup_batch). bucketize
applies it to one Q-vector, element by element in Python floats, as a
monitored step is looked up (AbstractionTable.lookup): on a 2- or 3-wide
vector numpy's fixed cost is most of the work. A Q-value or level that
bucketize cannot bucket goes to bucketize_batch, so every refusal has one
source.

episode_feature_matrix builds the end-of-episode rows from the episodes'
per-step ids, with no lookup of its own: visit counts in frequency mode,
presence bits, one byte each, in binary mode. The ids of a table's own
corpus come from building it (AbstractionTable.corpus_ids), those of any
other episodes from lookup_batch. Features are monotone visit counts, so
each step changes at most one column.
prefix_feature_matrix, which builds every prefix of one episode as a
compact matrix (one column per state the episode visits, plus the global
ids of those columns), has no caller in the package: it stays only
because the benchmark's tracer (perfbench/layers.py) spans it. Batch
replay does not build prefix matrices: monitor.run_traces hands a
chunk's visit ids to the forest's change-driven walk, which builds the
same prefixes over the states a tree tests and walks a tree at a step
only when that step changes one of them. The monitor's running
counts in observe are the same encoding, kept one step at a time over
the whole table, and each step walks every tree. A Q-vector whose width
differs from the table's is rejected where it is looked up.

The bottom layer: it imports no other safemon module, and picking a
level (evaluation.select_level) sits above it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

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
    """Per-action ceiling bucket of q/d, with boundary values snapped: the
    rule of bucketize_batch, applied to one Q-vector element by element in
    Python floats, without numpy's fixed cost on a 2- or 3-wide vector."""
    d = float(d)
    if 0 < d < math.inf:
        key = []
        for v in q:
            ratio = float(v) / d  # read as numpy reads it; a numpy scalar would warn on overflow
            size = abs(ratio)
            if not size < _INDEX_LIMIT:  # NaN fails it too
                break
            nearest = round(ratio)  # half to even, as np.rint
            snap = abs(ratio - nearest) <= _SNAP_RTOL * max(1.0, size)
            key.append(nearest if snap else math.ceil(ratio))
        else:
            return tuple(key)
    # d or a Q-value breaks a rule: the batch rule refuses it, in its words.
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
        """Abstract id of a Q-vector, or None when its key was never seen.

        A list of numbers of the table's width is bucketed as it is. Any
        other input is made a float64 array first, so that its shape can
        be checked.
        """
        if type(q) is not list or len(q) != self.key_width:
            q = np.asarray(q, dtype=np.float64)
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


def episode_feature_matrix(ids, n: int, mode: FeatureMode) -> np.ndarray:
    """End-of-episode feature rows over a table of n abstract states, one
    per episode: uint8 presence bits in binary mode, float32 visit counts
    in frequency mode.

    `ids` holds each episode's per-step abstract ids (unseen = -1): the
    table's `corpus_ids` for the corpus it was built from, `lookup_batch`
    of each episode's Q-matrix for any other.
    """
    rows = np.repeat(np.arange(len(ids)), [len(i) for i in ids])
    flat = np.concatenate(ids) if ids else rows  # no episodes, no visits
    if mode is FeatureMode.BINARY:
        # Presence bits in bytes: a quarter of the memory of float32 counts,
        # for the matrix that build and select-d hold while they fit.
        present = np.zeros((len(ids), n), dtype=np.uint8)
        seen = flat >= 0
        present[rows[seen], flat[seen]] = 1
        return present
    return _visit_counts(len(ids), n, rows, flat)
