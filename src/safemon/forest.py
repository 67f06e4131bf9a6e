"""Random forest classifier built from scratch on numpy.

Each tree is grown on a bootstrap resample with Gini-impurity splits over
a random feature subset per node. The forest exposes the individual tree
probabilities, not just their average: the monitor's confidence interval
is the mean per-tree unsafe probability plus or minus Z * sigma / sqrt(m)
with Z = 1.96 (the 95% normal critical value), clamped to [0, 1].
`out_of_bag_mean` re-draws each tree's bootstrap to score every training
row by the trees that left it out.

A node's split is the candidate boundary of lowest weighted Gini. One
scoring body (`_lowest_gini`) scores the boundaries, masks the
non-boundaries, breaks ties and places the midpoint threshold; two
searches list the boundaries for it. `_best_split` sorts each candidate
column and takes the boundaries between consecutive distinct values; it
serves any finite features. `_best_binary_split` serves 0/1 data, which
`train_forest` detects once per forest (binary features, or counts that
never exceed 1): a 0/1 column has one boundary, at 0.5, with the rows
reading 0 on its left, so two integer counts score it, the rows reading
1 and the unsafe rows among them, and nothing needs sorting. The two
searches pick the same boundary with the same score, bit for bit, so
they grow the same trees.

Batch inference runs on a packed form of the whole ensemble (`PackedTrees`,
built once per `Forest`): the node arrays of all trees concatenated, one
root offset per tree, children as global node indices, and every leaf
turned into a node that branches to itself on feature 0 with threshold
+inf. It also indexes the split nodes by the feature they test, with the
tree each belongs to.

`predict_batch` is change-driven. Tree k is walked at row t only when
t = 0 or row t differs from row t-1 in a feature tree k tests; every
other (tree, row) pair reaches the same leaf as at row t-1, so its value
is carried forward. The pairs that are walked go down their trees one
level per step, all at once, until no pair moves. Over the prefixes of
one episode, where each step changes at most one feature, few pairs are
walked (about 1% on the replay benchmark's corpus); over independent rows
nearly all are. The output is
bit-identical to walking each tree alone. Rows may also come in the
compact form of `abstraction.prefix_feature_matrix`: only the columns of
the features an episode touches, with every other feature reading 0.

The single-input `predict` is the same walk over a one-row batch, with the
same summary code, so stream and batch agree bit for bit by construction.
It is also the quicker walk for one row. With 100 trees, one row took
0.53 ms against 0.88 ms for walking each tree alone in Python at 25
nodes/tree (2,822 states), and 0.96 ms against 1.93 ms at 180 nodes/tree
(5,046 states), both on one core of an Intel Xeon with numpy 2.4.
`Tree.probability` stays as the reference walk the tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .seeding import derive_seed

Z_CRITICAL = 1.96


@dataclass(frozen=True)
class ForestConfig:
    """Training knobs; defaults follow common random-forest practice."""

    n_trees: int = 100
    max_depth: Optional[int] = None
    min_split: int = 2
    features_per_split: Union[int, str] = "sqrt"  # "sqrt", "all", or a count

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.min_split < 2:
            raise ValueError("min_split must be >= 2")

    def resolve_feature_count(self, n_features: int) -> int:
        if self.features_per_split == "sqrt":
            return min(n_features, math.ceil(math.sqrt(n_features)))
        if self.features_per_split == "all":
            return n_features
        k = int(self.features_per_split)
        if k < 1:
            raise ValueError("features_per_split must be >= 1")
        return min(n_features, k)


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

    Node ids are global. `branch[i, 1]` is the child taken when
    x[feature[i]] <= threshold[i] (left) and `branch[i, 0]` the other one
    (right), so one step of a walk is branch[node, x <= threshold]. A leaf
    tests feature 0 against +inf and both its branches point to itself.
    `split_feature` lists the feature of every split node in ascending
    order and `split_tree` the tree of each of those nodes: the trees that
    test feature f are split_tree[split_feature == f].
    """

    feature: np.ndarray  # (n_nodes,) intp
    threshold: np.ndarray  # (n_nodes,) float64
    branch: np.ndarray  # (n_nodes, 2) intp: [right, left]
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
        splits = np.nonzero(~leaf)[0]
        splits = splits[np.argsort(feature[splits], kind="stable")]
        feature[leaf] = 0
        threshold[leaf] = np.inf
        own = np.arange(len(feature), dtype=np.intp)
        offset = roots[tree]
        right = np.concatenate([t.right for t in trees]) + offset
        left = np.concatenate([t.left for t in trees]) + offset
        branch = np.stack([np.where(leaf, own, right), np.where(leaf, own, left)], axis=1)
        value = np.concatenate([t.value for t in trees])
        return cls(feature, threshold, branch, value, roots, feature[splits], tree[splits])

    def leaf_values(self, x_rows: np.ndarray, columns: Optional[np.ndarray] = None) -> np.ndarray:
        """(n_trees, n_rows) values of the leaves the rows reach; ties at a
        split go left.

        Column j of x_rows holds feature columns[j], and a feature not in
        `columns` reads 0; with columns=None column j is feature j. Tree k
        is walked at row t only when t = 0 or row t differs from row t-1
        in a feature tree k tests; every other pair keeps the leaf value of
        (k, t-1).
        """
        n_rows, width = x_rows.shape
        n_trees = len(self.roots)
        if n_rows == 0:
            return np.empty((n_trees, 0))
        features = np.arange(width) if columns is None else columns
        # The split nodes testing column j are lo[j] .. lo[j] + n_testing[j]
        # in feature order; only the columns some tree tests can cause an event.
        lo = np.searchsorted(self.split_feature, features, side="left")
        n_testing = np.searchsorted(self.split_feature, features, side="right") - lo
        tested = np.nonzero(n_testing)[0]
        steps, which = np.nonzero(x_rows[1:, tested] != x_rows[:-1, tested])
        changed = tested[which]

        # Events: row 0 of every tree, and (tree, t) for each tree testing a
        # feature that changed between rows t-1 and t.
        count = n_testing[changed]
        first = np.cumsum(count) - count  # the split-node ranges, concatenated
        splits = np.arange(count.sum()) + np.repeat(lo[changed] - first, count)
        event = np.zeros((n_trees, n_rows), dtype=bool)
        event[:, 0] = True
        event[self.split_tree[splits], np.repeat(steps + 1, count)] = True

        if columns is None:
            node_column = self.feature
        else:
            size = max(int(self.feature.max()), int(columns.max(initial=0))) + 1
            lookup = np.full(size, width, dtype=np.intp)
            lookup[columns] = np.arange(width)
            node_column = lookup[self.feature]
            # Column `width`, all zeros, is read by every feature not in columns.
            x_rows = np.hstack([x_rows, np.zeros((n_rows, 1), dtype=x_rows.dtype)])

        trees, rows = np.nonzero(event)
        flat = x_rows.ravel()
        row_start = rows * x_rows.shape[1]
        nodes = self.roots.take(trees)
        while True:
            x = flat.take(row_start + node_column.take(nodes))
            goes_left = x <= self.threshold.take(nodes)
            moved = self.branch.take(2 * nodes + goes_left)  # branch[nodes, goes_left]
            if np.array_equal(moved, nodes):
                break
            nodes = moved

        leaf = np.empty((n_trees, n_rows))
        leaf[event] = self.value.take(nodes)
        last_event = np.maximum.accumulate(np.where(event, np.arange(n_rows), 0), axis=1)
        return np.take_along_axis(leaf, last_event, axis=1)


@dataclass
class Forest:
    trees: list[Tree]
    feature_count: int
    config: ForestConfig
    seed: int
    packed: PackedTrees = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.packed = PackedTrees.from_trees(self.trees)

    @property
    def n_trees(self) -> int:
        return len(self.trees)


@dataclass(frozen=True)
class ProbabilitySummary:
    """Per-tree unsafe probabilities and their 95% confidence interval."""

    per_tree: np.ndarray
    mean: float
    std: float
    low: float
    up: float


@dataclass(frozen=True)
class BatchSummary:
    """Column-wise ProbabilitySummary fields for a batch of inputs."""

    per_tree: np.ndarray  # (n_trees, n_inputs)
    mean: np.ndarray
    std: np.ndarray
    low: np.ndarray
    up: np.ndarray

    def column(self, t: int) -> ProbabilitySummary:
        """The ProbabilitySummary of input t."""
        return ProbabilitySummary(
            self.per_tree[:, t], float(self.mean[t]), float(self.std[t]),
            float(self.low[t]), float(self.up[t]),
        )


def _lowest_gini(n, total_pos, left_n, left_pos, tied, below, above):
    """The scoring body of both split searches: the lowest weighted-Gini
    boundary, as (column, threshold), or None when there is none.

    Entry (i, c) of the arrays is boundary i of candidate column c: of the
    node's n rows (total_pos of them unsafe), left_n[i, c] go left and
    left_pos[i, c] of those are unsafe; the left rows read at most
    below[i, c], the others at least above[i, c], and the threshold is the
    midpoint. An entry where `tied` is True is no boundary. Ties keep the
    first boundary within a column and then the earliest column.
    """
    right_n = n - left_n
    right_pos = total_pos - left_pos
    p_left = left_pos / left_n
    p_right = right_pos / right_n
    weighted = (
        left_n * 2.0 * p_left * (1.0 - p_left)
        + right_n * 2.0 * p_right * (1.0 - p_right)
    ) / n
    weighted[tied] = np.inf
    rows = np.argmin(weighted, axis=0)
    cols = np.arange(weighted.shape[1])
    c = int(np.argmin(weighted[rows, cols]))
    j = rows[c]
    if weighted[j, c] == np.inf:
        return None  # every column is constant on this node
    return c, (below[j, c] + above[j, c]) / 2.0


def _best_split(block: np.ndarray, y: np.ndarray):
    """Lowest weighted-Gini (column, threshold) over the columns of an
    (n, k) block, or None when every column is constant.

    All columns are scored in one pass. Each column is sorted, and its
    boundaries lie between consecutive distinct sorted values; ties keep
    the first boundary within a column and then the earliest column, so
    results are order-deterministic.
    """
    n = len(y)
    block = block.astype(np.float64, copy=False)
    order = np.argsort(block, axis=0, kind="stable")
    vs = np.take_along_axis(block, order, axis=0)
    cum_pos = np.cumsum(y[order], axis=0)
    left_n = np.arange(1.0, n)[:, None]
    return _lowest_gini(n, cum_pos[-1], left_n, cum_pos[:-1], vs[:-1] == vs[1:], vs[:-1], vs[1:])


def _best_binary_split(block: np.ndarray, y: np.ndarray):
    """_best_split for columns that hold only 0s and 1s, without a sort.

    A 0/1 column has one boundary, at 0.5, with the rows reading 0 on its
    left, so two counts per column score it: the rows reading 1 and the
    unsafe rows among them. A column of one value has no boundary (one
    side would be empty, its Gini 0/0) and is left out before the Gini is
    computed. The scores, tie-breaks and thresholds are those of
    _best_split, bit for bit.
    """
    n = len(y)
    ones = np.count_nonzero(block, axis=0)
    live = np.nonzero((ones > 0) & (ones < n))[0]
    if live.size == 0:
        return None
    ones_pos = np.count_nonzero(block[y == 1][:, live], axis=0)
    total_pos = int(np.count_nonzero(y))
    left_n = (n - ones[live]).astype(np.float64)[None, :]
    left_pos = (total_pos - ones_pos)[None, :]
    split = _lowest_gini(
        n, total_pos, left_n, left_pos, np.zeros(left_n.shape, dtype=bool),
        np.zeros(left_n.shape), np.ones(left_n.shape),
    )
    c, threshold = split
    return int(live[c]), threshold


def _bootstrap(seed: int, tree: int, n_samples: int):
    """Tree `tree`'s random stream and the sample indices its bootstrap
    draws, with replacement, from n_samples rows."""
    rng = np.random.default_rng(derive_seed(seed, f"tree:{tree}"))
    return rng, rng.integers(0, n_samples, size=n_samples)


def _build_tree(
    x: np.ndarray, y: np.ndarray, config: ForestConfig, seed: int, tree: int, search
) -> Tree:
    """Tree `tree` of the forest seeded `seed`; `search` is the split
    search (_best_split, or _best_binary_split when x holds only 0s and 1s)."""
    n_samples, n_features = x.shape
    rng, boot = _bootstrap(seed, tree, n_samples)
    k = config.resolve_feature_count(n_features)

    feature, threshold, left, right = [], [], [], []
    value, count = [], []

    # Depth-first, left child before right, via an explicit stack so deep
    # trees cannot hit the recursion limit. parent_slot = (node, is_left).
    stack = [(boot, 0, None)]
    while stack:
        idx, depth, parent_slot = stack.pop()
        node_id = len(feature)
        if parent_slot is not None:
            parent, is_left = parent_slot
            (left if is_left else right)[parent] = node_id

        y_node = y[idx]
        pos = int(y_node.sum())
        n_node = len(idx)
        split = None
        if (
            0 < pos < n_node
            and n_node >= config.min_split
            and (config.max_depth is None or depth < config.max_depth)
        ):
            # Gather the node's k candidate columns only, not all of x[idx].
            candidates = rng.choice(n_features, size=k, replace=False)
            split = search(x[np.ix_(idx, candidates)], y_node)

        if split is None:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(pos / n_node)
            count.append(n_node)
            continue

        f, thr = int(candidates[split[0]]), split[1]
        go_left = x[idx, f] <= thr
        feature.append(f)
        threshold.append(thr)
        left.append(-1)
        right.append(-1)
        value.append(pos / n_node)
        count.append(n_node)
        # Push right first so the left child is processed (and numbered) first.
        stack.append((idx[~go_left], depth + 1, (node_id, False)))
        stack.append((idx[go_left], depth + 1, (node_id, True)))

    return Tree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
        count=np.array(count, dtype=np.int64),
    )


def train_forest(features, labels, config: ForestConfig, seed: int) -> Forest:
    """Grow the ensemble; deterministic given (data, config, seed).

    Trees are grown one after another in this process; tree i always uses
    the random stream derived from (seed, i). When every cell of the
    features is 0 or 1, splits are found by counting instead of sorting;
    both searches grow the same trees.
    """
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

    # 0/1 data (binary features, or counts that never exceed 1) take the
    # counting search, on a boolean copy: one byte per cell to gather.
    nonzero = x != 0
    if (x[nonzero] == 1).all():
        x, search = nonzero, _best_binary_split
    else:
        search = _best_split
    trees = [_build_tree(x, y, config, seed, i, search) for i in range(config.n_trees)]
    return Forest(trees=trees, feature_count=x.shape[1], config=config, seed=seed)


def _summarize(per_tree: np.ndarray):
    """Mean, population sigma, and clamped CI bounds of each input column
    of a (trees, inputs) matrix.

    The columns are reduced via a contiguous transpose, so each one goes
    through the same reduction however many inputs share the batch.
    """
    m = per_tree.shape[0]
    rows = np.ascontiguousarray(per_tree.T)
    mean = rows.mean(axis=1)
    std = rows.std(axis=1)  # population sigma: the m trees ARE the ensemble
    half = Z_CRITICAL * std / math.sqrt(m)
    low = np.clip(mean - half, 0.0, 1.0)
    up = np.clip(mean + half, 0.0, 1.0)
    return mean, std, low, up


def predict(forest: Forest, x) -> ProbabilitySummary:
    """Mean unsafe probability across trees plus its confidence interval."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (forest.feature_count,):
        raise ValueError(
            f"expected a feature vector of length {forest.feature_count}, got shape {x.shape}"
        )
    per_tree = forest.packed.leaf_values(x[None, :])
    return BatchSummary(per_tree, *_summarize(per_tree)).column(0)


def predict_batch(
    forest: Forest, x_rows: np.ndarray, columns: Optional[np.ndarray] = None
) -> BatchSummary:
    """predict() over the rows of a feature matrix, all trees at once.

    With `columns` (global feature ids), column j of x_rows holds feature
    columns[j] and every other feature is 0: the compact rows that
    abstraction.prefix_feature_matrix returns.
    """
    x_rows = np.asarray(x_rows)
    if columns is not None:
        columns = np.asarray(columns, dtype=np.intp)
        if columns.size and not 0 <= columns.min() <= columns.max() < forest.feature_count:
            raise ValueError(
                f"feature columns must lie in [0, {forest.feature_count}), "
                f"got {columns.min()}..{columns.max()}"
            )
    width = forest.feature_count if columns is None else len(columns)
    if x_rows.ndim != 2 or x_rows.shape[1] != width:
        raise ValueError(f"expected rows of length {width}, got shape {x_rows.shape}")
    per_tree = forest.packed.leaf_values(x_rows, columns)
    mean, std, low, up = _summarize(per_tree)
    return BatchSummary(per_tree, mean, std, low, up)


def out_of_bag_mean(forest: Forest, x) -> np.ndarray:
    """Out-of-bag mean unsafe probability of each training row (Breiman 2001).

    `x` must be the feature matrix the forest was trained on, row for row.
    Row j is scored by the mean leaf value of the trees whose bootstrap did
    not draw it; a row that every tree drew is NaN.
    """
    per_tree = predict_batch(forest, x).per_tree
    out_of_bag = np.ones(per_tree.shape, dtype=bool)
    for i in range(forest.n_trees):
        _, boot = _bootstrap(forest.seed, i, per_tree.shape[1])
        out_of_bag[i, boot] = False
    votes = out_of_bag.sum(axis=0)
    total = np.where(out_of_bag, per_tree, 0.0).sum(axis=0)
    return np.divide(total, votes, out=np.full(len(votes), np.nan), where=votes > 0)


def forest_to_json_list(forest: Forest) -> list:
    """Nested-list form of the ensemble: one flat node array per tree."""
    trees = []
    for t in forest.trees:
        nodes = []
        for i in range(len(t.feature)):
            if t.feature[i] < 0:
                nodes.append({"leaf": [float(t.value[i]), int(t.count[i])]})
            else:
                nodes.append(
                    {
                        "split": [
                            int(t.feature[i]),
                            float(t.threshold[i]),
                            int(t.left[i]),
                            int(t.right[i]),
                        ]
                    }
                )
        trees.append(nodes)
    return trees


def forest_from_json_list(trees_doc: list, feature_count: int, config: ForestConfig, seed: int) -> Forest:
    trees = []
    for nodes in trees_doc:
        n = len(nodes)
        feature = np.full(n, -1, dtype=np.int32)
        threshold = np.zeros(n, dtype=np.float64)
        left = np.full(n, -1, dtype=np.int32)
        right = np.full(n, -1, dtype=np.int32)
        value = np.zeros(n, dtype=np.float64)
        count = np.zeros(n, dtype=np.int64)
        for i, node in enumerate(nodes):
            if "leaf" in node:
                value[i], count[i] = node["leaf"][0], node["leaf"][1]
            else:
                feature[i], threshold[i], left[i], right[i] = node["split"]
        trees.append(Tree(feature, threshold, left, right, value, count))
    return Forest(trees=trees, feature_count=feature_count, config=config, seed=seed)
