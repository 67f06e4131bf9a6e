"""Random forest classifier built from scratch on numpy.

Each tree is grown on a bootstrap resample with Gini-impurity splits over
a random feature subset per node, by one fixed rule (`GROWTH`): the
number of trees is the only setting. A prediction summarises the tree
probabilities (`PackedTrees.leaf_values`) by their mean, sigma and the
monitor's confidence interval: the mean plus or minus Z * sigma / sqrt(m)
with Z = 1.96 (the 95% normal critical value), clamped to [0, 1].
A forest from `train_forest` keeps how often each tree's bootstrap drew
each training row (`Forest.in_bag`), which `out_of_bag_mean` reads to
score every training row by the trees that left it out; a loaded forest
has no such counts.

The loader (`forest_from_json_list`) checks a model file's nodes column
by column, all nodes together; a node it refuses is named by its tree and
index, and a string, bool or float where an integer belongs is refused,
not parsed or truncated by numpy.

A node's split is the candidate boundary of lowest weighted Gini. All
trees grow in lockstep (`_grow_forest`): each keeps its own depth-first
walk and random stream, and each round one batched search
(`_best_splits`) scores the boundaries of every tree's next node at once.
The search is sparse. A column store built once per forest
(`_ColumnStore`) lists each feature's non-zero cells in ascending order
of value, with one entry standing for all of its zeros; a node is its
bag, the distinct rows it holds and how often the bootstrap drew each, so
a candidate's boundaries come from running totals of those
multiplicities over the column's entries, with no per-node sort or dense
copy. 0/1 and count features take the same path, and the trees are those
of a per-node sorting search, bit for bit.

Inference runs on a packed form of the whole ensemble (`PackedTrees`,
built once per `Forest`): the node arrays of all trees concatenated, one
root offset per tree, children as global node indices in one flat branch
array (the child of node i on side s, 1 for left, at branch[2i + s]), and
every leaf turned into a node that branches to itself on feature 0 with
threshold +inf. It also indexes the split nodes by the feature they test,
with the tree each belongs to.

One descent loop serves every walk: the (tree, row) pairs it is given go
down their trees one level per step, all at once, until no pair moves. A
level is the feature read, the threshold read, one comparison, one index
add (node + node + goes_left) and one take from the branch array; the loop
stops when the bytes of the nodes a level reaches equal those it started
from, so it reads one level more than the longest path.
Which pairs go down it depends on the traffic.
- Independent rows (`predict`, `predict_batch`, `out_of_bag_mean`):
  every pair is walked from its root, with no change detection. On the
  `stream` benchmark's monitor (100 trees, 27 nodes per tree, 12 levels
  per one-row walk on average) the median in-process `predict` took
  57-61 us, against 77-83 us with `2 * nodes` and a numpy stop test, in
  four of six alternating runs (2-vCPU Intel Xeon VM, numpy 2.4; in the
  other two the host ran up to 1.7x slower).
- The prefixes of episodes (`predict_prefixes`, which
  `monitor.run_traces` calls with a chunk's visit ids): tree k is walked
  at row t of an episode only when t = 0 or step t changes a feature
  tree k tests (a seen state in frequency mode, a first visit in binary
  mode), and every other pair keeps the leaf of (k, t-1). That is the
  feature-driven traversal of QuickScorer (Lucchese et al., SIGIR 2015).
  A chunk's inputs are built at once from its ids. One stable sort of
  (episode, state) keys finds each episode's visited states that some
  split tests; their prefix counts are the only columns of its rows
  (every other feature reads 0, and no walk reads a state no split
  tests). The events come straight from the ids, and the walked pairs
  are their distinct ids, sorted. Each step changes at most one feature,
  so few pairs are walked, and leaf values are gathered and summarised
  only at the rows where some changed: 1% of the pairs and 2% of the
  rows on the replay benchmark.

Both give the leaves of walking each tree alone, and the single-input
`predict` shares the summary code, so stream and batch agree bit for bit
by construction. (A prefix walk keeps a tree's leaf of the row before
where the new one is equal as a float, so a zero leaf may keep the sign
it had there; numpy's sums start from +0.0, so no summary sees it.) The tests hold every walk and summary to a plain-Python
reference over the model file's node lists (tests/reference.py).
`Tree.probability` has no caller in the package: it stays only because
the benchmark's tracer (perfbench/layers.py) spans it.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

from .abstraction import FeatureMode
from .seeding import derive_seed

Z_CRITICAL = 1.96


# Breiman's (2001) growth, that of every forest here: a node splits iff it
# is impure, drawing min(n, ceil(sqrt(n))) of the n features as candidates.
GROWTH = {"max_depth": None, "min_split": 2, "features_per_split": "sqrt"}

# The types a JSON number decodes to, with json and with orjson; a bool,
# which is an int to isinstance, is neither.
_NUMBER = {int, float}


@dataclass
class Tree:
    """Flat node arrays; feature == -1 marks a leaf. Root is node 0."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray  # unsafe fraction of the training samples in the node
    count: np.ndarray

    def probability(self, x: np.ndarray) -> float:
        node = 0
        while self.feature[node] >= 0:
            if x[self.feature[node]] <= self.threshold[node]:
                node = self.left[node]
            else:
                node = self.right[node]
        return float(self.value[node])


@dataclass(frozen=True)
class PackedTrees:
    """The node arrays of every tree of a forest, concatenated.

    Node ids are global. The children are one flat array: `branch[2i + 1]`
    is the child taken when x[feature[i]] <= threshold[i] (left) and
    `branch[2i]` the other one (right), so one level of a walk is
    branch[2 * node + (x <= threshold)]. A leaf tests feature 0 against
    +inf and both its branches point to itself. `split_feature` lists the
    feature of every split node in ascending order and `split_tree` the
    tree of each of those nodes: the trees that test feature f are
    split_tree[split_feature == f].
    """

    feature: np.ndarray  # (n_nodes,) intp
    threshold: np.ndarray  # (n_nodes,) float64
    branch: np.ndarray  # (2 * n_nodes,) intp: right, left child of node 0, then of node 1, ...
    value: np.ndarray  # (n_nodes,) float64
    roots: np.ndarray  # (n_trees,) intp: node id of each tree's root
    split_feature: np.ndarray  # (n_splits,) intp, ascending
    split_tree: np.ndarray  # (n_splits,) intp

    @classmethod
    def from_trees(cls, trees: list[Tree]) -> "PackedTrees":
        sizes = [len(t.feature) for t in trees]
        roots = np.concatenate([[0], np.cumsum(sizes[:-1])]).astype(np.intp)
        feature = np.concatenate([t.feature for t in trees]).astype(np.intp)
        threshold = np.concatenate([t.threshold for t in trees])
        leaf = feature < 0
        tree = np.repeat(np.arange(len(trees), dtype=np.intp), sizes)
        # The split nodes by ascending feature, ties in node order: one sort
        # of unique keys, several times faster than a stable argsort.
        splits = np.sort(feature[~leaf] * len(feature) + np.flatnonzero(~leaf)) % len(feature)
        feature[leaf] = 0
        threshold[leaf] = np.inf
        own = np.arange(len(feature), dtype=np.intp)
        offset = roots[tree]
        right = np.concatenate([t.right for t in trees]) + offset
        left = np.concatenate([t.left for t in trees]) + offset
        branch = np.stack([np.where(leaf, own, right), np.where(leaf, own, left)], axis=1).ravel()
        value = np.concatenate([t.value for t in trees])
        return cls(feature, threshold, branch, value, roots, feature[splits], tree[splits])

    def _descend(self, nodes: np.ndarray, read) -> np.ndarray:
        """The leaf values that (tree, row) pairs reach from `nodes`.

        read(nodes) gives each pair's value of the feature its node tests.
        All pairs go down one level per step, until none moves. A level is
        that read, a threshold read, one comparison, one index add and one
        take. The stop test compares the bytes of the nodes before and
        after: for the 100 pairs of a one-row walk that takes about 0.3 us,
        against 2.8 us for `(moved == nodes).all()`.
        """
        while True:
            goes_left = read(nodes) <= self.threshold.take(nodes)
            moved = self.branch.take(nodes + nodes + goes_left)  # branch[2 * node + side]
            if moved.tobytes() == nodes.tobytes():
                return self.value.take(nodes)
            nodes = moved

    def leaf_values(self, x_rows: np.ndarray) -> np.ndarray:
        """(n_trees, n_rows) values of the leaves the rows reach; ties at a
        split go left. Every (tree, row) pair is walked from its root."""
        n_rows, width = x_rows.shape
        flat = x_rows.ravel()
        if n_rows == 1:  # a pair reads its node's feature straight from the row
            values = self._descend(self.roots, lambda nodes: flat.take(self.feature.take(nodes)))
            return values[:, None]
        row_start = np.tile(np.arange(0, n_rows * width, width), len(self.roots))
        values = self._descend(
            np.repeat(self.roots, n_rows),
            lambda nodes: flat.take(row_start + self.feature.take(nodes)),
        )
        return values.reshape(len(self.roots), n_rows)

    def prefix_leaf_values(self, ids: list, mode: FeatureMode) -> tuple[np.ndarray, np.ndarray]:
        """Leaf values of every prefix of a chunk of episodes at the rows
        where some leaf value changed.

        Episode i is ids[i], its per-step abstract ids (-1 unseen), with at
        least one step. Its row t is the feature vector of steps 0..t in
        `mode`: the visits to each state, or 1 at each state visited. The
        rows of all episodes are stacked. Tree k is walked at row t of an
        episode only when t = 0 or step t changes a feature tree k tests
        (a seen id in frequency mode, a first visit in binary mode); every
        other pair keeps the leaf of (k, t-1). Returns the (n_trees,
        n_changed) values at row 0 and every row where some tree's value
        differs from the row before (in an episode or across two), and the
        index of each row's last such row: row r has changed[:, last[r]].
        """
        n_trees = len(self.roots)
        sizes = np.array([len(episode_ids) for episode_ids in ids])
        n_rows = int(sizes.sum())
        first_row = np.cumsum(sizes) - sizes
        steps = np.concatenate(ids)
        episode = np.repeat(np.arange(len(ids)), sizes)

        # The steps that visit a state some split tests: no walk reads any
        # other state, so each episode's columns are those states only. An
        # unseen id (-1) and one past every tested feature read False.
        n_features = int(self.feature.max()) + 1
        tested = np.zeros(n_features + 1, dtype=bool)
        tested[self.split_feature] = True
        visit = np.flatnonzero(tested[np.minimum(steps, n_features)])
        keys = episode[visit] * n_features + steps[visit]
        order = np.argsort(keys, kind="stable")  # by (episode, id), then by step
        sorted_keys = keys[order]
        new = np.ones(len(keys), dtype=bool)  # the first visit of each (episode, id)
        new[1:] = sorted_keys[1:] != sorted_keys[:-1]
        distinct = sorted_keys[new]
        n_columns = np.bincount(distinct // n_features, minlength=len(ids))
        # The column of each distinct key in its episode's rows, and of each visit.
        local = np.arange(len(distinct)) - np.repeat(np.cumsum(n_columns) - n_columns, n_columns)
        rank = np.empty(len(keys), dtype=np.intp)
        rank[order] = np.cumsum(new) - 1
        column = local[rank]

        # The episodes' rows, each with a zero column appended, one after
        # the other in `flat`; row r of episode e starts at row_base[r].
        # One visit (or first visit) per cell, summed down each episode.
        widths = n_columns + 1
        cells = sizes * widths
        block_start = np.cumsum(cells) - cells
        row_base = (block_start - first_row * widths)[episode] + np.arange(n_rows) * widths[episode]
        counted = visit
        if mode is FeatureMode.BINARY:
            first_visit = np.zeros(len(keys), dtype=bool)
            first_visit[order[new]] = True
            counted, column = visit[first_visit], column[first_visit]
        flat = np.zeros(int(cells.sum()), dtype=np.float32)
        flat[row_base[counted] + column] = 1.0
        for e in np.flatnonzero(n_columns).tolist():
            block = flat[block_start[e]:block_start[e] + cells[e]].reshape(sizes[e], widths[e])
            np.cumsum(block, axis=0, out=block)

        # The (episode, feature) table: the column of each feature in its
        # episode's rows, the zero column for a feature the episode lacks.
        table = np.repeat(n_columns, n_features)
        table[distinct] = local

        # Events, as pair ids k * n_rows + r: every tree at an episode's
        # first row, and each tree testing the feature that step r changed.
        changes = counted[counted != first_row[episode[counted]]]
        features = steps[changes]
        lo = np.searchsorted(self.split_feature, features, side="left")
        count = np.searchsorted(self.split_feature, features, side="right") - lo
        first = np.cumsum(count) - count  # the split-node ranges, concatenated
        splits = np.arange(count.sum()) + np.repeat(lo - first, count)
        pairs = np.sort(np.concatenate([
            (np.arange(0, n_trees * n_rows, n_rows)[:, None] + first_row).ravel(),
            self.split_tree[splits] * n_rows + np.repeat(changes, count),
        ]))
        # A tree that tests a feature at several nodes gets one event per
        # node: keep one of each. Sorting and comparing neighbours is many
        # times faster than np.unique, which hashes before it sorts.
        once = np.ones(len(pairs), dtype=bool)
        once[1:] = pairs[1:] != pairs[:-1]
        pairs = pairs[once]
        rows = pairs % n_rows
        read_at = row_base.take(rows)
        table_at = episode.take(rows) * n_features
        values = self._descend(
            self.roots.take(pairs // n_rows),
            lambda nodes: flat.take(read_at + table.take(table_at + self.feature.take(nodes))),
        )
        moved = np.zeros(n_rows, dtype=bool)
        moved[0] = True
        moved[rows[1:][values[1:] != values[:-1]]] = True
        # Pair ids are sorted and every tree has an event at row 0, so pair
        # k * n_rows + r holds the value of the last event at or before it.
        at = np.arange(0, n_trees * n_rows, n_rows)[:, None] + np.flatnonzero(moved)
        return values.take(np.searchsorted(pairs, at, side="right") - 1), np.cumsum(moved) - 1


@dataclass
class Forest:
    trees: list[Tree]
    feature_count: int
    seed: int
    # (n_trees, n_samples): how often tree i's bootstrap drew training row j.
    # Kept by train_forest for out_of_bag_mean; not part of the model file.
    in_bag: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    packed: PackedTrees = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.packed = PackedTrees.from_trees(self.trees)

    @property
    def n_trees(self) -> int:
        return len(self.trees)


@dataclass(frozen=True)
class ProbabilitySummary:
    """Mean and sigma of the tree probabilities, and the 95% interval."""

    mean: float
    std: float
    low: float
    up: float


@dataclass(frozen=True)
class BatchSummary:
    """Column-wise ProbabilitySummary fields for a batch of inputs."""

    mean: np.ndarray
    std: np.ndarray
    low: np.ndarray
    up: np.ndarray

    def column(self, t: int) -> ProbabilitySummary:
        """The ProbabilitySummary of input t."""
        return ProbabilitySummary(
            float(self.mean[t]), float(self.std[t]), float(self.low[t]), float(self.up[t])
        )


# The split search takes the nodes of a round in chunks of at most about
# this many entries (gathered non-zeros, zero entries and multiplicity
# cells), which bounds its memory whatever the number of trees and rows.
CHUNK_ENTRIES = 1 << 13


@dataclass(frozen=True)
class _ColumnStore:
    """The non-zeros of a feature matrix, column by column.

    Column f holds entries start[f] .. start[f] + length[f] - 1: its
    non-zero cells in ascending order of value, plus one entry standing
    for all of its zero cells, placed after its zero[f] negative values.
    `rows` holds each entry's row, n_rows for a zero entry, and `values`
    its value as float64.
    """

    rows: np.ndarray
    values: np.ndarray
    start: np.ndarray
    length: np.ndarray
    zero: np.ndarray
    n_rows: int

    @classmethod
    def from_matrix(cls, x: np.ndarray) -> "_ColumnStore":
        n_rows, n_features = x.shape
        columns, rows = np.nonzero(x.T)  # -0.0 counts as a zero cell
        values = x[rows, columns].astype(np.float64)
        order = np.lexsort((values, columns))
        length = np.bincount(columns, minlength=n_features) + 1
        start = np.cumsum(length) - length
        zero = np.bincount(columns[values < 0], minlength=n_features)
        cells = np.ones(int(length.sum()), dtype=bool)
        cells[start + zero] = False
        store_rows = np.full(len(cells), n_rows, dtype=np.intp)
        store_values = np.zeros(len(cells))
        store_rows[cells] = rows[order]
        store_values[cells] = values[order]
        return cls(store_rows, store_values, start, length, zero, n_rows)


def _best_splits(store: _ColumnStore, y: np.ndarray, bags: list, candidates: np.ndarray) -> list:
    """The lowest weighted-Gini split of each node, as (feature, threshold),
    or None where every candidate feature is constant on the node.

    Node j is its bag, a (2, m) array: distinct rows bags[j][0], row
    bags[j][0][i] drawn bags[j][1][i] times. Its candidate features are
    candidates[j]. A boundary lies between two consecutive distinct values
    of a candidate among the node's rows; its score is the weighted Gini of
    the two sides, rows counted with their multiplicities, and its
    threshold the float64 midpoint of the two values. Ties keep the first
    boundary in (candidate, ascending value) order. The nodes are searched
    in chunks of about CHUNK_ENTRIES entries.
    """
    entries = store.n_rows + 1 + store.length[candidates].sum(axis=1)
    splits, chunk, size = [], [], 0
    for j, e in enumerate(entries.tolist()):
        if chunk and size + e > CHUNK_ENTRIES:
            splits += _search_chunk(store, y, [bags[i] for i in chunk], candidates[chunk])
            chunk, size = [], 0
        chunk.append(j)
        size += e
    return splits + _search_chunk(store, y, [bags[i] for i in chunk], candidates[chunk])


def _search_chunk(store: _ColumnStore, y: np.ndarray, bags: list, candidates: np.ndarray) -> list:
    """_best_splits over one chunk, every (node, candidate) pair at once."""
    n_nodes, k = candidates.shape
    width = store.n_rows + 1
    sizes = np.array([bag.shape[1] for bag in bags])
    rows, mult = np.concatenate(bags, axis=1)
    starts = np.cumsum(sizes) - sizes
    mult_unsafe = mult * y[rows]
    n = np.add.reduceat(mult, starts)
    pos = np.add.reduceat(mult_unsafe, starts)
    # Cell j * width + r: how often node j drew row r, and how often if the
    # row is unsafe; column n_rows, that of the zero entries, reads 0.
    offset = np.arange(0, n_nodes * width, width)
    cell = np.repeat(offset, sizes) + rows
    held = np.zeros(n_nodes * width, dtype=np.int64)
    held_unsafe = np.zeros(n_nodes * width, dtype=np.int64)
    held[cell] = mult
    held_unsafe[cell] = mult_unsafe

    # Pair p tests feature features[p] on node p // k. It gathers that
    # column's entries, in ascending order of value, and their cells.
    features = candidates.ravel()
    length = store.length[features]
    first = np.cumsum(length) - length
    entry = np.repeat(store.start[features] - first, length)
    entry += np.arange(len(entry))
    cell = np.repeat(np.repeat(offset, k), length)
    cell += store.rows[entry]
    weight = held[cell]
    weight_unsafe = held_unsafe[cell]
    del cell
    # A zero entry weighs the node's rows not counted at a non-zero.
    n_pair, pos_pair = np.repeat(n, k), np.repeat(pos, k)
    zero = first + store.zero[features]
    weight[zero] = n_pair - np.add.reduceat(weight, first)
    weight_unsafe[zero] = pos_pair - np.add.reduceat(weight_unsafe, first)

    # A boundary lies between two consecutive entries of a pair that the
    # node holds and that differ in value. Running totals, less those of
    # the earlier pairs, count the rows (and the unsafe rows) up to it.
    held_entry = np.flatnonzero(weight)
    values = store.values[entry[held_entry]]
    del entry
    pair = np.searchsorted(first, held_entry, side="right") - 1
    boundary = np.flatnonzero((pair[:-1] == pair[1:]) & (values[:-1] != values[1:]))
    splits = [None] * n_nodes
    if boundary.size == 0:
        return splits
    pair = pair[boundary]
    node = pair // k
    last = held_entry[boundary]  # the last held entry left of the boundary
    earlier_n = (np.cumsum(n_pair) - n_pair)[pair]
    earlier_pos = (np.cumsum(pos_pair) - pos_pair)[pair]
    left_n = np.cumsum(weight, out=weight)[last] - earlier_n
    left_pos = np.cumsum(weight_unsafe, out=weight_unsafe)[last] - earlier_pos
    del weight, weight_unsafe, held_entry, last  # scoring needs only the boundaries
    n, total_pos = n[node], pos[node]
    left_n = left_n.astype(np.float64)
    right_n = n - left_n
    right_pos = total_pos - left_pos
    p_left = left_pos / left_n
    p_right = right_pos / right_n
    weighted = (
        left_n * 2.0 * p_left * (1.0 - p_left)
        + right_n * 2.0 * p_right * (1.0 - p_right)
    ) / n

    # Each node's first boundary that reaches the node's lowest score.
    new_node = np.flatnonzero(np.concatenate(([True], node[1:] != node[:-1])))
    lowest = np.zeros(n_nodes)
    lowest[node[new_node]] = np.minimum.reduceat(weighted, new_node)
    hits = np.flatnonzero(weighted == lowest[node])
    best = hits[np.concatenate(([True], node[hits[1:]] != node[hits[:-1]]))]
    below = values[boundary[best]]
    above = values[boundary[best] + 1]
    thresholds = ((below + above) / 2.0).tolist()
    for j, f, threshold in zip(node[best].tolist(), features[pair[best]].tolist(), thresholds):
        splits[j] = (f, threshold)
    return splits


def _grow_forest(x: np.ndarray, y: np.ndarray, n_trees: int, seed: int):
    """The n_trees trees of the forest seeded `seed`, grown in lockstep, and
    the (n_trees, n_samples) counts of each tree's bootstrap draws.

    Tree i is grown depth-first, left child before right, from the random
    stream derived from (seed, i), whose first draw is its bootstrap:
    n_samples row indices, with replacement. In each round every tree pops nodes
    until it reaches an impure one, where it draws the candidate features
    (GROWTH), and one _best_splits call searches the nodes of all trees.
    A pending node is its bag (distinct rows and their multiplicities), so
    a tree holds at most n_samples rows across its pending nodes.
    """
    n_samples, n_features = x.shape
    k = min(n_features, math.ceil(math.sqrt(n_features)))
    store = _ColumnStore.from_matrix(x)

    rngs, stacks, trees = [], [], []
    in_bag = np.empty((n_trees, n_samples), dtype=np.intp)
    for i in range(n_trees):
        rng = np.random.default_rng(derive_seed(seed, f"tree:{i}"))
        boot = rng.integers(0, n_samples, size=n_samples)
        mult = in_bag[i] = np.bincount(boot, minlength=n_samples)
        rows = np.flatnonzero(mult)
        rngs.append(rng)
        # A pending node: (bag, n, pos, parent, is_left). Bags hold row ids
        # and counts below n_samples: int32 halves what waits.
        bag = np.stack([rows, mult[rows]]).astype(np.int32)
        root = (bag, n_samples, int(y[boot].sum()), None, True)
        stacks.append([root])
        trees.append([])  # one [feature, threshold, left, right, value, count] per node

    live = list(range(n_trees))
    while live:
        searched, drawn = [], []
        for t in live:
            stack, nodes = stacks[t], trees[t]
            while stack:
                bag, n_node, pos, parent, is_left = stack.pop()
                if parent is not None:
                    nodes[parent][2 if is_left else 3] = len(nodes)
                nodes.append([-1, 0.0, -1, -1, pos / n_node, n_node])
                if 0 < pos < n_node:
                    drawn.append(rngs[t].choice(n_features, size=k, replace=False))
                    searched.append((t, len(nodes) - 1, bag, pos))
                    break
        if searched:
            found = _best_splits(store, y, [s[2] for s in searched], np.array(drawn))
            _split_nodes(x, y, searched, found, trees, stacks)
        live = [t for t in live if stacks[t]]

    return [
        Tree(
            feature=np.array(feature, dtype=np.int32),
            threshold=np.array(threshold, dtype=np.float64),
            left=np.array(left, dtype=np.int32),
            right=np.array(right, dtype=np.int32),
            value=np.array(value, dtype=np.float64),
            count=np.array(count, dtype=np.int64),
        )
        for feature, threshold, left, right, value, count in (zip(*nodes) for nodes in trees)
    ], in_bag


def _split_nodes(x, y, searched, found, trees, stacks) -> None:
    """Turn each searched node with a split into a split node and push its
    two children, right first, so that the left one is popped first."""
    split = [(s, f) for s, f in zip(searched, found) if f is not None]
    if not split:
        return
    sizes = [s[2].shape[1] for s, _ in split]
    bag = np.concatenate([s[2] for s, _ in split], axis=1)
    rows, mult = bag
    feature, threshold = (np.array(column) for column in zip(*(f for _, f in split)))
    goes_left = x[rows, np.repeat(feature, sizes)] <= np.repeat(threshold, sizes)
    starts = np.cumsum(sizes) - sizes
    drawn_left = mult * goes_left
    n_left = np.add.reduceat(drawn_left, starts).tolist()
    pos_left = np.add.reduceat(drawn_left * y[rows], starts).tolist()
    left_size = np.add.reduceat(goes_left.astype(np.intp), starts).tolist()
    lefts, rights = bag[:, goes_left], bag[:, ~goes_left]
    l0 = r0 = 0
    for ((t, node, _, pos), f), n_l, p_l, size, l_size in zip(
        split, n_left, pos_left, sizes, left_size
    ):
        parent = trees[t][node]
        parent[0:2] = f
        r_size = size - l_size
        # Copies, so that a child waiting on the stack holds only its own rows.
        right = rights[:, r0:r0 + r_size].copy()
        left = lefts[:, l0:l0 + l_size].copy()
        stacks[t].append((right, parent[5] - n_l, pos - p_l, node, False))
        stacks[t].append((left, n_l, p_l, node, True))
        l0 += l_size
        r0 += r_size


def train_forest(features, labels, n_trees: int, seed: int) -> Forest:
    """Grow n_trees trees by GROWTH; deterministic given (data, n_trees, seed).

    All trees are grown at once, in this process (see _grow_forest); tree
    i always uses the random stream derived from (seed, i).
    """
    if isinstance(n_trees, bool) or not isinstance(n_trees, numbers.Integral) or n_trees < 1:
        raise ValueError(f"n_trees must be an integer >= 1, got {n_trees!r}")
    x = np.asarray(features)
    labels = np.asarray(labels)
    if x.ndim != 2 or len(x) == 0:
        raise ValueError("need a non-empty 2-D feature matrix")
    if len(labels) != len(x):
        raise ValueError("features and labels disagree on sample count")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError(
            f"labels must be 0 or 1, got values {np.unique(labels).tolist()}"
        )
    if not np.isfinite(x).all():
        raise ValueError("features must be finite, got NaN or infinite values")
    y = labels.astype(np.int64)
    if len(np.unique(y)) < 2:
        raise ValueError("training data must contain both classes")
    trees, in_bag = _grow_forest(x, y, n_trees, seed)
    return Forest(trees=trees, feature_count=x.shape[1], seed=seed, in_bag=in_bag)


def _summarize(per_tree: np.ndarray):
    """Mean, population sigma, and clamped CI bounds of each input column
    of a (trees, inputs) matrix.

    The columns are reduced via a contiguous transpose, so each one goes
    through the same reduction however many inputs share the batch. The
    ufunc calls are those `ndarray.mean` and `ndarray.std` make, without
    their Python wrappers, so the bits are theirs. The bounds are clamped
    with np.maximum and np.minimum, which give np.clip's bits on every
    bound they meet: the two differ only at -0.0, and no bound is -0.0,
    since the sum over the trees starts from +0.0 (leaves of -0.0 give a
    mean of 0.0).
    """
    m = per_tree.shape[0]
    rows = np.ascontiguousarray(per_tree.T)
    mean = np.add.reduce(rows, axis=1) / m
    dev = rows - mean[:, None]
    np.multiply(dev, dev, out=dev)
    std = np.sqrt(np.add.reduce(dev, axis=1) / m)  # population sigma: the m trees ARE the ensemble
    half = Z_CRITICAL * std / math.sqrt(m)
    low = np.minimum(np.maximum(mean - half, 0.0), 1.0)
    up = np.minimum(np.maximum(mean + half, 0.0), 1.0)
    return mean, std, low, up


def predict(forest: Forest, x) -> ProbabilitySummary:
    """Mean unsafe probability across trees plus its confidence interval."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (forest.feature_count,):
        raise ValueError(
            f"expected a feature vector of length {forest.feature_count}, got shape {x.shape}"
        )
    mean, std, low, up = _summarize(forest.packed.leaf_values(x[None, :]))
    return ProbabilitySummary(float(mean[0]), float(std[0]), float(low[0]), float(up[0]))


def _rows(forest: Forest, x_rows) -> np.ndarray:
    """x_rows as an array, checked to hold rows of the forest's width."""
    x_rows = np.asarray(x_rows)
    if x_rows.ndim != 2 or x_rows.shape[1] != forest.feature_count:
        raise ValueError(f"expected rows of length {forest.feature_count}, got shape {x_rows.shape}")
    return x_rows


def predict_batch(forest: Forest, x_rows: np.ndarray) -> BatchSummary:
    """predict() over the rows of a feature matrix, all trees at once."""
    return BatchSummary(*_summarize(forest.packed.leaf_values(_rows(forest, x_rows))))


def predict_prefixes(forest: Forest, ids: list, mode: FeatureMode) -> BatchSummary:
    """predict() over every prefix of each episode's ids, stacked.

    `ids` and `mode` are as PackedTrees.prefix_leaf_values takes them. The
    summary is computed only at the rows where some leaf value changed and
    copied to the rows after them, which hold the same per-tree values and
    so the same summary, bit for bit.
    """
    changed, last = forest.packed.prefix_leaf_values(ids, mode)
    return BatchSummary(*(field.take(last) for field in _summarize(changed)))


def out_of_bag_mean(forest: Forest, x) -> np.ndarray:
    """Out-of-bag mean unsafe probability of each training row (Breiman 2001).

    `x` must be the feature matrix the forest was trained on, row for row,
    and the forest one that train_forest returned, which keeps its in-bag
    counts. Row j is scored by the mean leaf value of the trees whose
    bootstrap did not draw it; a row that every tree drew is NaN.
    """
    x = _rows(forest, x)
    if forest.in_bag is None:
        raise ValueError("out-of-bag scores need the in-bag counts of train_forest; this forest has none")
    if forest.in_bag.shape[1] != len(x):
        raise ValueError(f"the forest was trained on {forest.in_bag.shape[1]} rows, got {len(x)}")
    per_tree = forest.packed.leaf_values(x)
    out_of_bag = forest.in_bag == 0
    votes = out_of_bag.sum(axis=0)
    total = np.where(out_of_bag, per_tree, 0.0).sum(axis=0)
    return np.divide(total, votes, out=np.full(len(votes), np.nan), where=votes > 0)


def forest_to_json_list(forest: Forest) -> list:
    """Nested-list form of the ensemble: one flat node array per tree."""
    trees = []
    for t in forest.trees:
        columns = (t.feature, t.threshold, t.left, t.right, t.value, t.count)
        nodes = zip(*(column.tolist() for column in columns))
        trees.append([
            {"leaf": [value, count]} if feature < 0
            else {"split": [feature, threshold, left, right]}
            for feature, threshold, left, right, value, count in nodes
        ])
    return trees


def forest_from_json_list(trees_doc: list, feature_count: int, seed: int) -> Forest:
    """The forest of forest_to_json_list's form, every node checked. One
    pass over all nodes collects the split and leaf entries; each of the six
    whole-forest columns is filled by one numpy assignment after one scan of
    its values' types, and each Tree is a slice of those columns."""
    sizes = [len(nodes) for nodes in trees_doc]
    if not sizes or not all(sizes):
        raise ValueError("a forest needs one tree or more, each of one node or more")
    is_split, splits, leaves = bytearray(), [], []
    try:
        for node in chain.from_iterable(trees_doc):
            if "leaf" in node:
                leaves.append(node["leaf"])
                is_split.append(0)
            else:
                splits.append(node["split"])
                is_split.append(1)
        shaped = set(map(len, splits)) <= {4} and set(map(len, leaves)) <= {2}
    except (TypeError, KeyError):  # a node that is no split or leaf object; an entry that is no list
        shaped = False
    if not shaped:
        raise _entry_error(trees_doc)
    split_values, leaf_values = [], []
    for entry in splits:
        split_values += entry  # a string or object entry adds characters or keys
    for entry in leaves:
        leaf_values += entry
    split = np.frombuffer(is_split, dtype=bool)
    leaf, n = ~split, len(split)
    feature, left, right = (np.full(n, -1, dtype=np.int32) for _ in range(3))
    threshold, value, count = np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int64)
    # A JSON integer decodes as an int and any other number as a float. An
    # int32 column would truncate a float or bool without a word, and a
    # float one parse a string. Field k of the entries of a kind is every
    # width-th value from k; each is scanned and then converted while its
    # values are in the cache.
    for column, nodes, values, k, width, types in (
        (feature, split, split_values, 0, 4, {int}),
        (threshold, split, split_values, 1, 4, _NUMBER),
        (left, split, split_values, 2, 4, {int}),
        (right, split, split_values, 3, 4, {int}),
        (value, leaf, leaf_values, 0, 2, _NUMBER),
        (count, leaf, leaf_values, 1, 2, {int}),
    ):
        field = values[k::width]
        if not set(map(type, field)) <= types:
            raise _entry_error(trees_doc)
        column[nodes] = field
    if not (count[leaf] >= 1).all():
        raise _entry_error(trees_doc)
    _check_trees(feature, threshold, left, right, value, split, sizes, feature_count)
    columns = (feature, threshold, left, right, value, count)
    bounds = np.cumsum([0] + sizes).tolist()
    trees = [Tree(*(column[a:b] for column in columns)) for a, b in zip(bounds, bounds[1:])]
    return Forest(trees=trees, feature_count=feature_count, seed=seed)


def _entry_error(trees_doc: list) -> ValueError:
    """The error naming the first node that is not an object holding a
    split or a leaf entry, or whose entry is not a list of its kind's
    values: a split's feature, threshold, left and right child, a leaf's
    value and count."""
    for t, nodes in enumerate(trees_doc):
        for i, node in enumerate(nodes):
            if type(node) is not dict or not {"leaf", "split"} & node.keys():
                return ValueError(f"tree {t} node {i}: {reprlib.repr(node)} is no split or leaf object")
            kind, width = ("leaf", 2) if "leaf" in node else ("split", 4)
            entry = node[kind]
            if type(entry) is not list or len(entry) != width:
                cause = f"is not a list of {width} values"
            elif kind == "split" and not type(entry[0]) is type(entry[2]) is type(entry[3]) is int:
                cause = "has a non-integer feature or child"
            elif kind == "split" and type(entry[1]) not in _NUMBER:
                cause = "has a threshold that is not a JSON number"
            elif kind == "leaf" and type(entry[0]) not in _NUMBER:
                cause = "has a value that is not a JSON number"
            elif kind == "leaf" and (type(entry[1]) is not int or entry[1] < 1):
                cause = "has a count that is not an integer >= 1"
            else:
                continue
            return ValueError(f"tree {t} node {i}: {kind} {reprlib.repr(entry)} {cause}")
    raise AssertionError("every entry is well formed")


def _check_trees(feature, threshold, left, right, value, split, sizes: list, feature_count: int) -> None:
    """Raise ValueError naming a tree and node that breaks the form
    _grow_forest writes, given the whole-forest node columns (`split`
    marks the split nodes, tree t holds sizes[t] nodes): a split tests a
    feature in [0, feature_count) against a finite threshold, and its
    children come after it in its own tree, so every walk ends at a leaf;
    every node but a root is the child of exactly one split, so each is
    reached by one walk; a leaf value lies in [0, 1]. All nodes are
    checked at once."""
    ends = np.cumsum(sizes)
    start = np.repeat(ends - sizes, sizes)
    node = np.arange(len(split)) - start
    size = np.repeat(sizes, sizes)

    def refuse(bad, cause):
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"tree {np.searchsorted(ends, i, side='right')} node {node[i]}: {cause(i)}")

    refuse(split & ((feature < 0) | (feature >= feature_count)),
           lambda i: f"split feature {feature[i]} outside [0, {feature_count})")
    refuse(split & ~np.isfinite(threshold), lambda i: f"threshold {threshold[i]} is not finite")
    refuse(split & ((np.minimum(left, right) <= node) | (np.maximum(left, right) >= size)),
           lambda i: f"children {left[i]} and {right[i]} are not both after it in its tree")
    # The children now lie inside their trees, so they index the columns.
    children = np.concatenate([(start + left)[split], (start + right)[split]])
    parents = np.bincount(children, minlength=len(split))
    refuse((node > 0) & (parents != 1),
           lambda i: f"has {parents[i]} parents; every node but the root has one")
    refuse(~split & ~((value >= 0.0) & (value <= 1.0)),
           lambda i: f"leaf value {value[i]} outside [0, 1]")
