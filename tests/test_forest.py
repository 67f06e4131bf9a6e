import hashlib
import json
import math
import re
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import safemon.forest as forest_module
import safemon.monitor as monitor_module
from conftest import id_table, leaf_tree, replay_with_leaf_values
from safemon.abstraction import FeatureMode
from safemon.forest import (
    Forest,
    PackedTrees,
    Tree,
    Z_CRITICAL,
    _best_splits,
    _ColumnStore,
    _summarize,
    forest_from_json_list,
    forest_to_json_list,
    out_of_bag_mean,
    predict,
    predict_batch,
    train_forest,
)
from safemon.monitor import MonitorModel
from safemon.seeding import derive_seed


def leaf_forest(fractions, feature_count=3):
    return Forest(
        trees=[leaf_tree(f) for f in fractions],
        feature_count=feature_count,
        seed=0,
    )


def brute_force_gini_split(x, y):
    """Independent oracle: scan every (feature, midpoint) candidate."""
    n = len(y)
    best = None
    best_gini = np.inf
    for f in range(x.shape[1]):
        values = np.unique(x[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            thr = (lo + hi) / 2.0
            left = y[x[:, f] <= thr]
            right = y[x[:, f] > thr]

            def gini(group):
                if len(group) == 0:
                    return 0.0
                p = group.mean()
                return 2.0 * p * (1.0 - p)

            weighted = (len(left) * gini(left) + len(right) * gini(right)) / n
            if weighted < best_gini - 1e-15:
                best_gini = weighted
                best = (f, thr)
    return best, best_gini


SIX_SAMPLES = np.array(
    [[0.0, 3.1], [1.0, 0.2], [2.0, 2.7], [5.0, 0.9], [6.0, 2.2], [7.0, 1.4]]
)
SIX_LABELS = np.array([0, 0, 0, 1, 1, 1])


def best_split(x, y, candidates, mult=None):
    """_best_splits on one node: the rows of x, row i drawn mult[i] times
    (once each by default), searching the candidate columns."""
    mult = np.ones(len(x), dtype=np.int64) if mult is None else np.asarray(mult)
    rows = np.flatnonzero(mult)
    bag = np.stack([rows, mult[rows]])
    return _best_splits(_ColumnStore.from_matrix(x), y, [bag], np.array([candidates]))[0]


def test_best_split_matches_brute_force_on_six_samples():
    oracle, oracle_gini = brute_force_gini_split(SIX_SAMPLES, SIX_LABELS)
    got = best_split(SIX_SAMPLES, SIX_LABELS, [0, 1])
    assert got == oracle
    assert oracle == (0, 3.5)
    assert oracle_gini == 0.0


def reference_best_split(x_columns, y, candidates):
    """The original per-candidate split search, kept as the reference."""
    n = len(y)
    best = None
    best_gini = np.inf
    for f in candidates:
        v = x_columns[:, f].astype(np.float64)
        order = np.argsort(v, kind="stable")
        vs = v[order]
        boundaries = np.nonzero(vs[:-1] != vs[1:])[0]
        if boundaries.size == 0:
            continue
        cum_pos = np.cumsum(y[order])
        total_pos = cum_pos[-1]
        left_n = boundaries + 1.0
        left_pos = cum_pos[boundaries]
        right_n = n - left_n
        right_pos = total_pos - left_pos
        p_left = left_pos / left_n
        p_right = right_pos / right_n
        weighted = (
            left_n * 2.0 * p_left * (1.0 - p_left)
            + right_n * 2.0 * p_right * (1.0 - p_right)
        ) / n
        j = int(np.argmin(weighted))
        if weighted[j] < best_gini:
            best_gini = weighted[j]
            best = (int(f), (vs[boundaries[j]] + vs[boundaries[j] + 1]) / 2.0)
    return best


def assert_same_split(got, want):
    assert got == want
    if got is not None:
        assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()


def reference_split_of_bag(x, y, candidates, mult):
    """reference_best_split on the node's rows, each repeated mult times."""
    drawn = np.repeat(np.arange(len(x)), mult)
    return reference_best_split(x[drawn], y[drawn], candidates)


def multiplicities(draw, n):
    """How often a node drew each of n rows: 0 (absent) to 4 times, with at
    least one row drawn."""
    mult = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    mult[draw(st.integers(0, n - 1))] += 1
    return np.array(mult, dtype=np.int64)


# Cells of the general nodes: negative, fractional, and both zeros.
CELLS = [-2.5, -1.0, -0.5, -0.0, 0.0, 0.25, 1.0, 2.0, 3.75]


@st.composite
def split_nodes(draw):
    """Node matrices with ties, constant and duplicated columns, negative,
    fractional and signed-zero cells, and rows drawn 0 to 4 times."""
    n = draw(st.integers(1, 12))
    width = draw(st.integers(1, 8))
    cells = st.sampled_from(CELLS[: draw(st.integers(2, len(CELLS)))])
    columns = [draw(st.lists(cells, min_size=n, max_size=n)) for _ in range(width)]
    for j in range(width):
        kind = draw(st.sampled_from(["drawn", "constant", "duplicate"]))
        if kind == "constant":
            columns[j] = [columns[j][0]] * n
        elif kind == "duplicate":
            columns[j] = list(columns[draw(st.integers(0, width - 1))])
    x = np.array(columns, dtype=draw(st.sampled_from([np.float32, np.float64]))).T
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    k = draw(st.integers(1, width))
    candidates = np.array(draw(st.permutations(range(width)))[:k])
    return x, y, candidates, multiplicities(draw, n)


@settings(max_examples=300, deadline=None)
@given(split_nodes())
def test_best_split_matches_reference_loop(node):
    x, y, candidates, mult = node
    want = reference_split_of_bag(x, y, candidates, mult)
    assert_same_split(best_split(x, y, candidates, mult), want)


@st.composite
def binary_nodes(draw):
    """0/1 node matrices of 2-80 rows with constant and duplicated columns,
    now and then with every column constant or with one class only; rows
    are drawn 0 to 4 times."""
    n = draw(st.integers(2, 80))
    width = draw(st.integers(1, 9))
    # A column is the bits of one drawn integer: much quicker to draw than n bits.
    masks = [draw(st.integers(0, 2**n - 1)) for _ in range(width)]
    columns = [[(mask >> i) & 1 for i in range(n)] for mask in masks]
    for j in range(width):
        kind = draw(st.sampled_from(["drawn", "constant", "duplicate"]))
        if kind == "constant":
            columns[j] = [columns[j][0]] * n
        elif kind == "duplicate":
            columns[j] = list(columns[draw(st.integers(0, width - 1))])
    if draw(st.integers(0, 5)) == 0:
        columns = [[column[0]] * n for column in columns]
    x = np.array(columns, dtype=np.float32).T
    labels = draw(st.sampled_from(["drawn", "safe", "unsafe"]))
    if labels == "drawn":
        mask = draw(st.integers(0, 2**n - 1))
        y = np.array([(mask >> i) & 1 for i in range(n)], dtype=np.int64)
    else:
        y = np.full(n, int(labels == "unsafe"), dtype=np.int64)
    k = draw(st.integers(1, width))
    candidates = np.array(draw(st.permutations(range(width)))[:k])
    mult = np.ones(n, dtype=np.int64) if draw(st.booleans()) else multiplicities(draw, n)
    return x, y, candidates, mult


@settings(max_examples=300, deadline=None)
@given(binary_nodes())
def test_binary_split_matches_reference_loop(node):
    x, y, candidates, mult = node
    want = reference_split_of_bag(x, y, candidates, mult)
    assert_same_split(best_split(x, y, candidates, mult), want)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), chunk=st.sampled_from([1, 40, forest_module.CHUNK_ENTRIES]))
def test_best_splits_searches_many_nodes_in_any_chunks(data, chunk):
    """One call over several nodes of one matrix, split into chunks of any
    size, finds each node's split as if it were searched alone."""
    x, y, _, _ = data.draw(split_nodes())
    n, width = x.shape
    k = data.draw(st.integers(1, width))
    nodes = data.draw(st.integers(1, 6))
    mults = [multiplicities(data.draw, n) for _ in range(nodes)]
    candidates = np.array(
        [data.draw(st.permutations(range(width)))[:k] for _ in range(nodes)]
    ).reshape(nodes, k)
    bags = [np.stack([np.flatnonzero(m), m[m > 0]]) for m in mults]
    with mock.patch.object(forest_module, "CHUNK_ENTRIES", chunk):
        got = _best_splits(_ColumnStore.from_matrix(x), y, bags, candidates)
    for split, m, c in zip(got, mults, candidates):
        assert_same_split(split, reference_split_of_bag(x, y, c, m))


def reference_forest(x, y, n_trees, seed):
    """The forest train_forest must grow: each tree grown alone,
    depth-first with the left child first, ceil(sqrt(n)) of its n features
    (at most n) drawn as candidates from its own stream at every impure
    node, and every split found by reference_best_split on the node's
    rows."""
    n_samples, n_features = x.shape
    k = min(n_features, int(np.ceil(np.sqrt(n_features))))
    trees = []
    for i in range(n_trees):
        rng = np.random.default_rng(derive_seed(seed, f"tree:{i}"))
        idx = rng.integers(0, n_samples, size=n_samples)
        nodes = []  # [feature, threshold, left, right, value, count]
        stack = [(idx, None, True)]
        while stack:
            idx, parent, is_left = stack.pop()
            if parent is not None:
                nodes[parent][2 if is_left else 3] = len(nodes)
            pos, n_node = int(y[idx].sum()), len(idx)
            nodes.append([-1, 0.0, -1, -1, pos / n_node, n_node])
            if not 0 < pos < n_node:
                continue
            candidates = rng.choice(n_features, size=k, replace=False)
            split = reference_best_split(x[idx], y[idx], candidates)
            if split is None:
                continue
            nodes[-1][0:2] = split
            go_left = x[idx, split[0]] <= split[1]
            node = len(nodes) - 1
            stack.append((idx[~go_left], node, False))
            stack.append((idx[go_left], node, True))
        columns = list(zip(*nodes))
        dtypes = (np.int32, np.float64, np.int32, np.int32, np.float64, np.int64)
        trees.append(Tree(*(np.array(c, dtype=t) for c, t in zip(columns, dtypes))))
    return Forest(trees=trees, feature_count=n_features, seed=seed)


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    cells=st.sampled_from([[0.0, 1.0], [0.0, 1.0, 2.0, 3.0], CELLS]),
    chunk=st.sampled_from([1, 300, forest_module.CHUNK_ENTRIES]),
)
def test_train_forest_matches_reference_forest(data, cells, chunk):
    n = data.draw(st.integers(2, 40))
    width = data.draw(st.integers(1, 12))
    row = st.lists(st.sampled_from(cells), min_size=width, max_size=width)
    x = np.array(data.draw(st.lists(row, min_size=n, max_size=n)), dtype=np.float32)
    labels = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    y = np.array(data.draw(labels.filter(lambda v: 0 < sum(v) < len(v))), dtype=np.int64)
    n_trees = data.draw(st.integers(1, 4))
    seed = data.draw(st.integers(0, 2**31))
    with mock.patch.object(forest_module, "CHUNK_ENTRIES", chunk):
        grown = json.dumps(forest_to_json_list(train_forest(x, y, n_trees, seed)))
    assert grown == json.dumps(forest_to_json_list(reference_forest(x, y, n_trees, seed)))


def golden_data(kind):
    """Seeded 0/1 or small-count matrix whose labels depend on three columns."""
    rng = np.random.default_rng(20231)
    if kind == "binary":
        x = (rng.random((90, 60)) < 0.3).astype(np.float32)
    else:
        x = rng.integers(0, 6, size=(90, 60)).astype(np.float32)
    score = x[:, 3] + x[:, 17] - x[:, 42] + rng.normal(0, 0.8, size=90)
    y = (score > np.median(score)).astype(np.int64)
    return x, y


# sha256 of json.dumps(forest_to_json_list(...)); recorded with the original
# per-candidate split search, so any change to the trees grown shows here.
# The ids name the candidate count the hashes were recorded with.
GOLDEN_FOREST_SHA256 = {
    "binary": "db9fc8068c6b6de3ddc9eb6bd58bf69dc18a4412a7ff87cf529a9046035d9b0a",
    "frequency": "e5cdcf66473e4340f9c716e76fef994fedd6380e58120305eaa14441f48d1e6c",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_FOREST_SHA256), ids=lambda kind: f"{kind}-sqrt")
def test_trained_forest_matches_golden_hash(kind):
    x, y = golden_data(kind)
    doc = json.dumps(forest_to_json_list(train_forest(x, y, 12, seed=77)))
    digest = hashlib.sha256(doc.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_FOREST_SHA256[kind]


def summary_bytes(batch):
    return b"".join(a.tobytes() for a in (batch.mean, batch.std, batch.low, batch.up))


def batch_bytes(forest, x):
    """The per-tree leaf value bytes of the rows of x, then the mean, std,
    low and up bytes of predict_batch."""
    return forest.packed.leaf_values(x).tobytes() + summary_bytes(predict_batch(forest, x))


# sha256 of batch_bytes: the per-tree values, mean, std, low and up bytes;
# recorded with the tree-at-a-time evaluator the packed walk replaced.
GOLDEN_BATCH_SHA256 = {
    "binary": "0c402f5e1d29cd91e53042d292054cf893ca1986ba13f872c5d324bac772083c",
    "frequency": "3ba2460eda244f45a74202c3386df1ccea73aeac32d228b623d9b55a51ef4c4f",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_BATCH_SHA256))
def test_predict_batch_matches_golden_hash(kind):
    x, y = golden_data(kind)
    forest = train_forest(x, y, 30, seed=77)
    rng = np.random.default_rng(5)
    if kind == "binary":
        extra = (rng.random((40, 60)) < 0.5).astype(np.float32)
    else:
        extra = rng.integers(0, 7, size=(40, 60)).astype(np.float32)
    digest = hashlib.sha256(batch_bytes(forest, np.vstack([x, extra]))).hexdigest()
    assert digest == GOLDEN_BATCH_SHA256[kind]


def test_binary_rows_as_bytes_grow_and_score_like_floats():
    """build and select-d hand the forest binary rows as uint8 presence
    bits: the same trees, walks and out-of-bag scores as float32 rows."""
    x, y = golden_data("binary")
    packed = x.astype(np.uint8)
    as_float, as_bytes = train_forest(x, y, 12, seed=77), train_forest(packed, y, 12, seed=77)
    assert json.dumps(forest_to_json_list(as_bytes)) == json.dumps(forest_to_json_list(as_float))
    assert batch_bytes(as_bytes, packed) == batch_bytes(as_float, x)
    assert out_of_bag_mean(as_bytes, packed).tobytes() == out_of_bag_mean(as_float, x).tobytes()


# Split thresholds and input values share a grid, so inputs often sit
# exactly on a threshold (ties go left).
GRID = [0.0, 0.5, 1.0, 1.5, 2.0]


@st.composite
def random_trees(draw, width):
    """A tree of depth at most 4, nodes numbered depth-first."""
    feature, threshold, left, right, value = [], [], [], [], []

    def grow(depth):
        node = len(feature)
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(draw(st.floats(0.0, 1.0)))
        if depth < 4 and draw(st.booleans()):
            feature[node] = draw(st.integers(0, width - 1))
            threshold[node] = draw(st.sampled_from(GRID))
            left[node] = grow(depth + 1)
            right[node] = grow(depth + 1)
        return node

    grow(0)
    n = len(feature)
    return Tree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value),
        count=np.ones(n, dtype=np.int64),
    )


def chain_tree(depth, width, threshold=2.0):
    """A chain of `depth` splits, split k testing feature k % width at
    `threshold`: its left child goes on down the chain and its right one
    is a leaf. A row at or below the threshold walks all `depth` levels,
    so beside a root that is a leaf the walks of one forest end at very
    different depths."""
    n = 2 * depth + 1
    feature, left, right = (np.full(n, -1, dtype=np.int32) for _ in range(3))
    thresholds = np.zeros(n)
    for k in range(depth):
        feature[k], thresholds[k], left[k], right[k] = k % width, threshold, k + 1, depth + 1 + k
    return Tree(feature=feature, threshold=thresholds, left=left, right=right,
                value=np.arange(n) / (n - 1), count=np.ones(n, dtype=np.int64))


def path_length(tree, row):
    """The number of splits the walk of `row` down `tree` passes."""
    node, length = 0, 0
    while tree.feature[node] >= 0:
        go_left = row[tree.feature[node]] <= tree.threshold[node]
        node, length = (tree.left if go_left else tree.right)[node], length + 1
    return length


@contextmanager
def descent_levels():
    """The levels, read calls, of each PackedTrees._descend call made
    inside the block. A walk whose longest path passes n splits reads n
    levels to reach its leaves and one more to see that no pair moves."""
    levels = []
    descend = PackedTrees._descend

    def counting(packed, nodes, read):
        def counted(at):
            levels[-1] += 1
            return read(at)

        levels.append(0)
        return descend(packed, nodes, counted)

    with mock.patch.object(PackedTrees, "_descend", counting):
        yield levels


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_predict_batch_matches_per_tree_walks(data):
    width = data.draw(st.integers(1, 4))
    trees = data.draw(st.lists(random_trees(width), min_size=1, max_size=6))
    trees.append(leaf_tree(data.draw(st.floats(0.0, 1.0))))
    if data.draw(st.booleans()):  # walks that end at very different depths
        trees.insert(data.draw(st.integers(0, len(trees))), chain_tree(33, width))
    row = st.lists(st.sampled_from(GRID + [2.5]), min_size=width, max_size=width)
    rows = data.draw(st.lists(row, max_size=8))
    rows += rows[: data.draw(st.integers(0, len(rows)))]  # duplicated rows
    x = np.array(rows, dtype=np.float64).reshape(len(rows), width)
    forest = Forest(trees=trees, feature_count=width, seed=0)

    batch = predict_batch(forest, x)
    with descent_levels() as levels:
        per_tree = forest.packed.leaf_values(x)
    assert per_tree.shape == (len(trees), len(x))
    if len(x):
        assert levels == [max(path_length(t, row) for t in trees for row in x) + 1]
    for i, row in enumerate(x):
        walked = np.array([t.probability(row) for t in trees])
        assert per_tree[:, i].tobytes() == walked.tobytes()
        with descent_levels() as levels:
            assert forest.packed.leaf_values(row[None, :])[:, 0].tobytes() == walked.tobytes()
        assert levels == [max(path_length(t, row) for t in trees) + 1]
        single = predict(forest, row)
        fields = (single.mean, single.std, single.low, single.up)
        columns = (batch.mean[i], batch.std[i], batch.low[i], batch.up[i])
        assert np.array(fields).tobytes() == np.array(columns).tobytes()
    assert forest.packed.leaf_values(x[:0]).shape == (len(trees), 0)
    assert predict_batch(forest, x[:0]).mean.shape == (0,)


@pytest.mark.parametrize("kind", sorted(GOLDEN_BATCH_SHA256))
def test_one_row_predict_matches_tree_walks(kind):
    """predict walks every tree from its root for one row: the golden
    forest's trees, alone, must reach the same leaves, also beside a root
    that is a leaf and a chain of 33 splits, and the walk must stop one
    level after its longest path."""
    x, y = golden_data(kind)
    golden = train_forest(x, y, 30, seed=77)
    uneven = Forest(trees=[leaf_tree(0.25), chain_tree(33, 60), *golden.trees], feature_count=60, seed=0)
    rows = np.vstack([x[:20], np.zeros((1, 60)), np.full((1, 60), 7.0)])
    for forest in (golden, uneven):
        for row in rows:
            walked = np.array([tree.probability(row) for tree in forest.trees])
            with descent_levels() as levels:
                assert forest.packed.leaf_values(row[None, :])[:, 0].tobytes() == walked.tobytes()
            assert levels == [max(path_length(tree, row) for tree in forest.trees) + 1]
            single = predict(forest, row)
            assert single.mean == walked.mean() and single.std == walked.std()


def dense_prefixes(ids, n, mode):
    """Every prefix of an episode's ids (-1 unseen) as visit counts over
    all n states, built step by step."""
    visits = np.zeros((len(ids), n), dtype=np.float32)
    for t, i in enumerate(ids):
        if i >= 0:
            visits[t, i] = 1.0
    counts = np.cumsum(visits, axis=0)
    return np.minimum(counts, 1.0) if mode is FeatureMode.BINARY else counts


def walked_longest(trees, ids, n, mode):
    """The longest path of the (tree, row) pairs the change-driven walk
    goes down over an episode's prefixes: every tree at row 0, and at row
    t each tree testing a feature that differs from row t-1."""
    tested = [set(tree.feature[tree.feature >= 0].tolist()) for tree in trees]
    dense = dense_prefixes(ids, n, mode)
    longest = 0
    for t, row in enumerate(dense):
        changed = set(np.flatnonzero(row != dense[t - 1]).tolist()) if t else None
        for tree, features in zip(trees, tested):
            if t == 0 or changed & features:
                longest = max(longest, path_length(tree, row))
    return longest


@settings(max_examples=200, deadline=None)
@given(data=st.data(), mode=st.sampled_from(FeatureMode))
def test_change_driven_walk_matches_per_tree_walks_on_prefixes(data, mode):
    """run_traces hands each chunk's visit ids to the forest, which builds
    every prefix over only the states the episode visits that some split
    tests (every other feature reads 0) and walks a tree at a step only
    when a feature it tests changed: none at an unseen id or a binary
    revisit. Every tree at every step must still read the leaf its own
    walk reaches, and every summary must equal the plain walk's, over
    episodes stacked into chunks of any size. Each chunk's walk stops one
    level after the longest path of the pairs it walks."""
    n = data.draw(st.integers(1, 6))
    trees = data.draw(st.lists(random_trees(n), min_size=1, max_size=6))
    trees.append(leaf_tree(data.draw(st.floats(0.0, 1.0))))
    if data.draw(st.booleans()):  # walks that end at very different depths
        trees.insert(data.draw(st.integers(0, len(trees))), chain_tree(33, n))
    forest = Forest(trees=trees, feature_count=n, seed=0)
    model = MonitorModel(table=id_table(n), forest=forest, mode=mode)
    ids = st.lists(st.integers(-1, n - 1), min_size=1, max_size=30)
    episodes = data.draw(st.lists(ids, min_size=1, max_size=4))
    budget = data.draw(st.sampled_from([1, 8, 40, monitor_module.ROW_BUDGET]))

    chunks = []  # the ids of each prefix_leaf_values call and its levels
    prefix_leaf_values = PackedTrees.prefix_leaf_values

    def recording(packed, chunk_ids, chunk_mode):
        with descent_levels() as levels:
            result = prefix_leaf_values(packed, chunk_ids, chunk_mode)
        chunks.append((chunk_ids, levels))
        return result

    with mock.patch.object(monitor_module, "ROW_BUDGET", budget), \
            mock.patch.object(PackedTrees, "prefix_leaf_values", recording):
        corpus = [[[i + 0.5] if i >= 0 else [-0.5] for i in e] for e in episodes]
        traces, replayed = replay_with_leaf_values(model, corpus)
    assert [ids.tolist() for chunk_ids, _ in chunks for ids in chunk_ids] == episodes
    for chunk_ids, levels in chunks:
        longest = max(walked_longest(trees, ids, n, mode) for ids in chunk_ids)
        assert levels == [longest + 1]
    for episode, trace, per_tree in zip(episodes, traces, replayed):
        dense = dense_prefixes(episode, n, mode)
        for t, row in enumerate(dense):
            walked = np.array([tree.probability(row) for tree in trees])
            assert per_tree[:, t].tobytes() == walked.tobytes()
        assert summary_bytes(trace.series) == summary_bytes(predict_batch(forest, dense))


def in_bag(seed, tree, n):
    """The rows tree `tree` of a forest seeded `seed` drew into its bootstrap."""
    rng = np.random.default_rng(derive_seed(seed, f"tree:{tree}"))
    return set(rng.integers(0, n, size=n).tolist())


@settings(max_examples=150, deadline=None)
@given(data=st.data(), high=st.sampled_from([1, 4]))
def test_out_of_bag_mean_matches_per_row_loop(data, high):
    """0/1 (high=1) or small-count matrices; each row's value is the mean
    over the trees that did not draw it, NaN when every tree did."""
    n = data.draw(st.integers(2, 10))
    width = data.draw(st.integers(1, 4))
    row = st.lists(st.integers(0, high), min_size=width, max_size=width)
    x = np.array(data.draw(st.lists(row, min_size=n, max_size=n)), dtype=np.float32)
    labels = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    y = np.array(data.draw(labels.filter(lambda v: 0 < sum(v) < len(v))))
    seed = data.draw(st.integers(0, 2**31))
    forest = train_forest(x, y, data.draw(st.integers(1, 5)), seed)

    got = out_of_bag_mean(forest, x)
    assert got.shape == (n,)
    bags = [in_bag(seed, i, n) for i in range(forest.n_trees)]
    assert [set(np.flatnonzero(counts).tolist()) for counts in forest.in_bag] == bags
    for j in range(n):
        votes = [t.probability(x[j]) for t, bag in zip(forest.trees, bags) if j not in bag]
        if votes:
            assert got[j] == pytest.approx(sum(votes) / len(votes), rel=1e-12, abs=0.0)
        else:
            assert np.isnan(got[j])


def test_out_of_bag_mean_is_nan_for_rows_every_tree_drew():
    x, y = np.array([[0.0], [1.0]]), np.array([0, 1])
    # Seed 5: tree 0 draws both rows, tree 1 draws row 1 twice.
    assert (in_bag(5, 0, 2), in_bag(5, 1, 2)) == ({0, 1}, {1})
    forest = train_forest(x, y, 2, seed=5)
    got = out_of_bag_mean(forest, x)
    assert got[0] == 1.0  # tree 1 saw only the unsafe row: a leaf of 1.0
    assert np.isnan(got[1])
    # Seed 2: both trees draw both rows, so no row is scored.
    assert in_bag(2, 0, 2) == in_bag(2, 1, 2) == {0, 1}
    forest = train_forest(x, y, 2, seed=2)
    assert np.isnan(out_of_bag_mean(forest, x)).all()


def test_out_of_bag_mean_needs_the_in_bag_counts_of_its_training():
    x, y = golden_data("binary")
    trained = train_forest(x, y, 3, seed=4)
    assert trained.in_bag.shape == (3, len(x))
    loaded = forest_from_json_list(forest_to_json_list(trained), trained.feature_count, trained.seed)
    assert loaded.in_bag is None
    with pytest.raises(ValueError, match="need the in-bag counts of train_forest; this forest has none"):
        out_of_bag_mean(loaded, x)
    with pytest.raises(ValueError, match=f"the forest was trained on {len(x)} rows, got {len(x) - 1}"):
        out_of_bag_mean(trained, x[1:])


def old_summarize(per_tree):
    """The summary as ndarray.mean, ndarray.std and np.clip give it."""
    m = per_tree.shape[0]
    rows = np.ascontiguousarray(per_tree.T)
    mean = rows.mean(axis=1)
    std = rows.std(axis=1)
    half = Z_CRITICAL * std / math.sqrt(m)
    return mean, std, np.clip(mean - half, 0.0, 1.0), np.clip(mean + half, 0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(
    trees=st.integers(1, 300),
    columns=st.integers(1, 50),
    kinds=st.sets(st.sampled_from(["zero", "one", "uniform", "ratio"]), min_size=1),
    constant=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_summarize_is_mean_std_and_clip_bit_for_bit(trees, columns, kinds, constant, seed):
    """Leaf values as trees hold them (pure leaves, any fraction, a count
    ratio pos / n), some columns constant: the same bytes as the numpy
    wrappers give."""
    rng = np.random.default_rng(seed)
    n = rng.integers(1, 10**6, size=(trees, columns))
    choices = {
        "zero": np.zeros((trees, columns)),
        "one": np.ones((trees, columns)),
        "uniform": rng.random((trees, columns)),
        "ratio": rng.integers(0, n + 1) / n,
    }
    kinds = sorted(kinds)
    per_tree = np.choose(rng.integers(len(kinds), size=(trees, columns)), [choices[k] for k in kinds])
    per_tree[:, rng.random(columns) < 0.2] = constant
    got, want = _summarize(per_tree), old_summarize(per_tree)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_confidence_interval_hand_computed():
    # 50 trees at 0.5 and 50 at 0.7: mean 0.6, population sigma 0.1,
    # CI = 0.6 +/- 1.96 * 0.1 / 10 = [0.5804, 0.6196].
    forest = leaf_forest([0.5] * 50 + [0.7] * 50)
    s = predict(forest, np.zeros(3))
    assert s.mean == pytest.approx(0.6, abs=1e-9)
    assert s.std == pytest.approx(0.1, abs=1e-9)
    assert s.low == pytest.approx(0.5804, abs=1e-9)
    assert s.up == pytest.approx(0.6196, abs=1e-9)


def test_confidence_interval_degenerate_cases():
    s = predict(leaf_forest([1.0] * 10), np.zeros(3))
    assert (s.mean, s.std, s.low, s.up) == (1.0, 0.0, 1.0, 1.0)
    s = predict(leaf_forest([0.3]), np.zeros(3))
    assert (s.mean, s.low, s.up) == (0.3, 0.3, 0.3)
    assert s.std == 0.0


def test_ci_width_halves_when_m_quadruples():
    base = [0.5, 0.7] * 50  # m=100, sigma fixed at 0.1
    quad = [0.5, 0.7] * 200  # m=400, same sigma
    s1 = predict(leaf_forest(base), np.zeros(3))
    s2 = predict(leaf_forest(quad), np.zeros(3))
    assert (s2.up - s2.low) == pytest.approx((s1.up - s1.low) / 2.0, abs=1e-12)
    assert (s1.up - s1.low) == pytest.approx(2 * Z_CRITICAL * 0.1 / 10.0, abs=1e-12)


def test_bounds_ordering_and_clamping():
    rng = np.random.default_rng(2)
    for _ in range(200):
        fractions = rng.uniform(0, 1, size=int(rng.integers(1, 30)))
        s = predict(leaf_forest(list(fractions)), np.zeros(3))
        assert 0.0 <= s.low <= s.mean <= s.up <= 1.0


def test_ensemble_identity_on_random_inputs():
    rng = np.random.default_rng(31)
    x = rng.uniform(0, 1, size=(60, 5))
    y = (x[:, 0] + 0.3 * rng.standard_normal(60) > 0.5).astype(int)
    forest = train_forest(x, y, 15, seed=4)
    probes = rng.uniform(-0.5, 1.5, size=(1000, 5))
    batch = predict_batch(forest, probes)
    manual = np.array([[t.probability(p) for p in probes] for t in forest.trees]).mean(axis=0)
    assert np.max(np.abs(batch.mean - manual)) <= 1e-12
    s = predict(forest, probes[0])
    assert abs(s.mean - np.mean(forest.packed.leaf_values(probes[:1]))) <= 1e-12


def test_permutation_invariance():
    rng = np.random.default_rng(8)
    fractions = list(rng.uniform(0, 1, size=25))
    s1 = predict(leaf_forest(fractions), np.zeros(3))
    rng.shuffle(fractions)
    s2 = predict(leaf_forest(fractions), np.zeros(3))
    assert s1.mean == pytest.approx(s2.mean, abs=1e-12)
    assert s1.std == pytest.approx(s2.std, abs=1e-12)
    assert s1.low == pytest.approx(s2.low, abs=1e-12)
    assert s1.up == pytest.approx(s2.up, abs=1e-12)


def test_single_tree_forest_mean_equals_tree_output():
    rng = np.random.default_rng(13)
    x = rng.uniform(0, 1, size=(30, 4))
    y = (x[:, 1] > 0.5).astype(int)
    forest = train_forest(x, y, 1, seed=21)
    for probe in rng.uniform(0, 1, size=(50, 4)):
        assert predict(forest, probe).mean == forest.trees[0].probability(probe)


def test_linearly_separable_toy_set_training_accuracy():
    # 20 samples, feature 0 is a clean 0/1 separator, feature 1 is noise.
    rng = np.random.default_rng(17)
    y = np.array([0] * 10 + [1] * 10)
    x = np.column_stack([y.astype(float), rng.uniform(0, 1, size=20)])
    forest = train_forest(x, y, 50, seed=3)
    predictions = predict_batch(forest, x).mean >= 0.5
    assert np.array_equal(predictions, y.astype(bool))


def test_training_determinism():
    rng = np.random.default_rng(41)
    x = rng.uniform(0, 1, size=(40, 6))
    y = (x[:, 2] > 0.4).astype(int)
    f1 = train_forest(x, y, 12, seed=7)
    f2 = train_forest(x, y, 12, seed=7)
    assert json.dumps(forest_to_json_list(f1)) == json.dumps(forest_to_json_list(f2))
    f3 = train_forest(x, y, 12, seed=8)
    assert json.dumps(forest_to_json_list(f1)) != json.dumps(forest_to_json_list(f3))


def test_serialization_round_trip_preserves_predictions():
    rng = np.random.default_rng(43)
    x = rng.uniform(0, 1, size=(50, 4))
    y = (x[:, 0] * x[:, 1] > 0.25).astype(int)
    forest = train_forest(x, y, 10, seed=5)
    doc = json.loads(json.dumps(forest_to_json_list(forest)))
    restored = forest_from_json_list(doc, forest.feature_count, forest.seed)
    probes = rng.uniform(0, 1, size=(100, 4))
    a = predict_batch(forest, probes)
    b = predict_batch(restored, probes)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.low, b.low)
    assert np.array_equal(a.up, b.up)
    # The packed arrays every walk reads come back byte for byte. The file
    # keeps a value for leaves only, and a walk reads no other node's.
    packed, back = forest.packed, restored.packed
    leaf = np.isinf(packed.threshold)
    for before, after in (
        *((getattr(packed, name), getattr(back, name)) for name in
          ("feature", "threshold", "branch", "roots", "split_feature", "split_tree")),
        (packed.value[leaf], back.value[leaf]),
    ):
        assert (after.dtype, after.shape, after.tobytes()) == (before.dtype, before.shape, before.tobytes())


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_loaded_forest_holds_the_columns_it_was_saved_with(data):
    """forest_from_json_list(forest_to_json_list(f)) gives every tree's
    columns and every packed array back, dtype and bytes, over grown trees
    (some a single leaf, where a bootstrap drew one class), inserted
    single-leaf trees and forests of leaves alone. The file keeps a value
    and count for leaves only, and the loader writes 0 at a split."""
    n, width = data.draw(st.integers(2, 10)), data.draw(st.integers(1, 4))
    cells = st.lists(st.integers(0, 3), min_size=width, max_size=width)
    x = np.array(data.draw(st.lists(cells, min_size=n, max_size=n)), dtype=np.float64)
    y = np.array(data.draw(st.permutations(np.arange(n) % 2)))
    grown = train_forest(x, y, data.draw(st.integers(1, 6)), seed=data.draw(st.integers(0, 2**32 - 1)))
    trees = list(grown.trees)
    for _ in range(data.draw(st.integers(0, 3))):
        leaf = leaf_tree(data.draw(st.floats(0.0, 1.0)), data.draw(st.integers(1, 50)))
        trees.insert(data.draw(st.integers(0, len(trees))), leaf)
    if data.draw(st.booleans()):
        trees = [t for t in trees if len(t.feature) == 1] or [leaf_tree(0.5)]
    forest = Forest(trees=trees, feature_count=width, seed=grown.seed)
    doc = json.loads(json.dumps(forest_to_json_list(forest)))
    loaded = forest_from_json_list(doc, width, forest.seed)
    assert forest_to_json_list(loaded) == doc
    assert (loaded.n_trees, loaded.feature_count, loaded.seed) == (forest.n_trees, width, forest.seed)
    same = lambda a, b: (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    for before, after in zip(forest.trees, loaded.trees):
        split = before.feature >= 0
        for name in ("feature", "threshold", "left", "right", "value", "count"):
            want = getattr(before, name)
            if name in ("value", "count"):
                want = np.where(split, 0, want).astype(want.dtype)
            assert same(getattr(after, name), want), name
    packed, back = forest.packed, loaded.packed
    for name in ("feature", "threshold", "branch", "roots", "split_feature", "split_tree"):
        assert same(getattr(back, name), getattr(packed, name)), name
    leaf = np.isinf(packed.threshold)
    assert same(back.value[leaf], packed.value[leaf])


def split_tree():
    """A root that tests feature 0 at 0.5, over leaves of 0.1 (left) and 0.9."""
    return Tree(
        feature=np.array([0, -1, -1], dtype=np.int32),
        threshold=np.array([0.5, 0.0, 0.0]),
        left=np.array([1, -1, -1], dtype=np.int32),
        right=np.array([2, -1, -1], dtype=np.int32),
        value=np.array([0.5, 0.1, 0.9]),
        count=np.array([2, 1, 1], dtype=np.int64),
    )


def test_exact_threshold_routes_left():
    tree = split_tree()
    assert tree.probability(np.array([0.5])) == 0.1
    assert tree.probability(np.array([0.5000001])) == 0.9
    rows = np.array([[0.5], [0.6]])
    assert [tree.probability(row) for row in rows] == [0.1, 0.9]
    forest = Forest(trees=[tree], feature_count=1, seed=0)
    assert forest.packed.leaf_values(rows)[0].tolist() == [0.1, 0.9]
    assert predict_batch(forest, rows).mean.tolist() == [0.1, 0.9]


def test_leaf_only_tree_constant_output():
    tree = leaf_tree(0.25)
    for x in ([0.0, 0.0, 0.0], [9.9, -3.0, 1.0]):
        assert tree.probability(np.array(x)) == 0.25
    assert leaf_tree(1.0).probability(np.array([0.0])) == 1.0


def test_training_input_validation():
    with pytest.raises(ValueError):
        train_forest(np.zeros((0, 2)), np.zeros(0), 100, seed=0)
    with pytest.raises(ValueError):
        train_forest(np.zeros((4, 2)), np.zeros(4, dtype=int), 100, seed=0)
    with pytest.raises(ValueError):
        train_forest(np.zeros((4, 2)), np.array([0, 1, 0]), 100, seed=0)


def test_training_rejects_bad_labels_and_features():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError, match=r"labels must be 0 or 1, got values \[0, 1, 2\]"):
        train_forest(x, np.array([0, 2, 1, 0]), 100, seed=0)
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        train_forest(x, np.array([0.0, 0.5, 1.0, 0.0]), 100, seed=0)
    for bad in (np.nan, np.inf):
        x_bad = np.array([[0.0, 1.0], [bad, 0.0], [1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="features must be finite"):
            train_forest(x_bad, np.array([0, 1, 1, 0]), 100, seed=0)


@pytest.mark.parametrize(
    "field, value",
    [("n_trees", 0), ("n_trees", 2.5), ("n_trees", -1), ("n_trees", True), ("n_trees", None),
     ("n_trees", "3")],
)
def test_forest_config_rejects_bad_values_naming_the_field(field, value):
    """The number of trees, the one setting of a forest, is checked where
    the forest is trained."""
    x, y = np.array([[0.0], [1.0]]), np.array([0, 1])
    with pytest.raises(ValueError, match=rf"^{field} must be an integer >= 1, got {re.escape(repr(value))}$"):
        train_forest(x, y, **{field: value}, seed=0)


# Damage to the second tree of a saved two-tree forest over 3 features,
# and the cause the loader names (tree 1 holds a root split and two leaves).
DAMAGED_TREES = {
    "cycle": (lambda t: t[0]["split"].__setitem__(2, 0), "node 0: children 0 and 2 are not both after it"),
    "feature-too-large": (lambda t: t[0]["split"].__setitem__(0, 10**6), "split feature 1000000 outside [0, 3)"),
    "negative-feature": (lambda t: t[0]["split"].__setitem__(0, -1), "split feature -1 outside [0, 3)"),
    "child-outside-tree": (lambda t: t[0]["split"].__setitem__(3, 10**6), "children 1 and 1000000"),
    "nan-threshold": (lambda t: t[0]["split"].__setitem__(1, float("nan")), "threshold nan is not finite"),
    "infinite-threshold": (lambda t: t[0]["split"].__setitem__(1, float("inf")), "threshold inf is not finite"),
    "leaf-above-one": (lambda t: t[2]["leaf"].__setitem__(0, 1.5), "node 2: leaf value 1.5 outside [0, 1]"),
    "nan-leaf": (lambda t: t[1]["leaf"].__setitem__(0, float("nan")), "node 1: leaf value nan outside"),
    # int32 node arrays would truncate these to a feature or child in range.
    "float-feature": (lambda t: t[0]["split"].__setitem__(0, 2.7), "split [2.7, 0.5, 1, 2] has a non-integer"),
    "integral-float-child": (lambda t: t[0]["split"].__setitem__(3, 2.0), "split [0, 0.5, 1, 2.0] has a non"),
    "bool-child": (lambda t: t[0]["split"].__setitem__(2, True), "split [0, 0.5, True, 2] has a non-integer"),
    # The int64 count array would truncate these, and save_model rewrite them.
    "float-count": (lambda t: t[1]["leaf"].__setitem__(1, 164.7), "node 1: leaf [0.1, 164.7] has a count that"),
    "bool-count": (lambda t: t[2]["leaf"].__setitem__(1, True), "node 2: leaf [0.9, True] has a count that"),
    "zero-count": (lambda t: t[2]["leaf"].__setitem__(1, 0), "node 2: leaf [0.9, 0] has a count that is not"),
    # numpy would read a string as the number it spells and a bool as 0 or 1.
    "string-threshold": (lambda t: t[0]["split"].__setitem__(1, "1.5"),
                         "node 0: split [0, '1.5', 1, 2] has a threshold that is not a JSON number"),
    "bool-threshold": (lambda t: t[0]["split"].__setitem__(1, False),
                       "node 0: split [0, False, 1, 2] has a threshold that is not a JSON number"),
    "string-leaf-value": (lambda t: t[1]["leaf"].__setitem__(0, "0.5"),
                          "node 1: leaf ['0.5', 1] has a value that is not a JSON number"),
    "bool-leaf-value": (lambda t: t[2]["leaf"].__setitem__(0, True),
                        "node 2: leaf [True, 1] has a value that is not a JSON number"),
    "null-leaf-value": (lambda t: t[2]["leaf"].__setitem__(0, None),
                        "node 2: leaf [None, 1] has a value that is not a JSON number"),
    "long-split": (lambda t: t[0]["split"].append(3),
                   "node 0: split [0, 0.5, 1, 2, 3] is not a list of 4 values"),
    "short-leaf": (lambda t: t[1]["leaf"].pop(), "node 1: leaf [0.1] is not a list of 2 values"),
    "scalar-leaf": (lambda t: t[2].__setitem__("leaf", 0.9), "node 2: leaf 0.9 is not a list of 2 values"),
}


@pytest.mark.parametrize("damage", sorted(DAMAGED_TREES))
def test_loader_refuses_a_tree_a_walk_could_not_finish(damage):
    forest = Forest(trees=[leaf_tree(0.5), split_tree()], feature_count=3, seed=0)
    doc = forest_to_json_list(forest)
    assert forest_from_json_list(doc, 3, 0).packed.roots.tolist() == [0, 1]
    corrupt, cause = DAMAGED_TREES[damage]
    corrupt(doc[1])
    with pytest.raises(ValueError, match=r"^tree 1 node \d+: ") as raised:
        forest_from_json_list(doc, 3, 0)
    assert cause in str(raised.value)


def test_loader_refuses_an_empty_forest_or_tree():
    for doc in ([], [[{"leaf": [0.5, 1]}], []]):
        with pytest.raises(ValueError, match="^a forest needs one tree or more, each of one node or more$"):
            forest_from_json_list(doc, 3, 0)


def test_predict_dimension_mismatch():
    forest = leaf_forest([0.5], feature_count=3)
    with pytest.raises(ValueError):
        predict(forest, np.zeros(2))
    with pytest.raises(ValueError):
        predict_batch(forest, np.zeros((5, 4)))
