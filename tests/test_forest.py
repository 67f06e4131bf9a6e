import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safemon.abstraction import FeatureMode, prefix_feature_matrix
from safemon.forest import (
    Forest,
    ForestConfig,
    Tree,
    Z_CRITICAL,
    _best_split,
    forest_from_json_list,
    forest_to_json_list,
    out_of_bag_mean,
    predict,
    predict_batch,
    train_forest,
)
from safemon.seeding import derive_seed


def leaf_tree(fraction, count=1):
    return Tree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.zeros(1),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        value=np.array([float(fraction)]),
        count=np.array([count], dtype=np.int64),
    )


def leaf_forest(fractions, feature_count=3):
    return Forest(
        trees=[leaf_tree(f) for f in fractions],
        feature_count=feature_count,
        config=ForestConfig(n_trees=len(fractions)),
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


def test_best_split_matches_brute_force_on_six_samples():
    oracle, oracle_gini = brute_force_gini_split(SIX_SAMPLES, SIX_LABELS)
    got = _best_split(SIX_SAMPLES, SIX_LABELS, np.array([0, 1]))
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


@st.composite
def split_nodes(draw):
    """Small-integer node matrices with ties, constant and duplicated columns."""
    n = draw(st.integers(2, 12))
    width = draw(st.integers(1, 8))
    top = draw(st.integers(1, 4))
    cells = st.integers(0, top)
    columns = [draw(st.lists(cells, min_size=n, max_size=n)) for _ in range(width)]
    for j in range(width):
        kind = draw(st.sampled_from(["drawn", "constant", "duplicate"]))
        if kind == "constant":
            columns[j] = [columns[j][0]] * n
        elif kind == "duplicate":
            columns[j] = list(columns[draw(st.integers(0, width - 1))])
    x = np.array(columns, dtype=np.float32).T
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    k = draw(st.integers(1, width))
    candidates = np.array(draw(st.permutations(range(width)))[:k])
    return x, y, candidates


@settings(max_examples=300, deadline=None)
@given(split_nodes())
def test_best_split_matches_reference_loop(node):
    x, y, candidates = node
    assert _best_split(x, y, candidates) == reference_best_split(x, y, candidates)


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
GOLDEN_FOREST_SHA256 = {
    ("binary", "sqrt"): "db9fc8068c6b6de3ddc9eb6bd58bf69dc18a4412a7ff87cf529a9046035d9b0a",
    ("binary", "all"): "0bd2701d703549a17d362fbd45654cd8cd976cfc78867e6cd75935043ca634d5",
    ("frequency", "sqrt"): "e5cdcf66473e4340f9c716e76fef994fedd6380e58120305eaa14441f48d1e6c",
    ("frequency", "all"): "a3e725b4d7dcf5e4e7fb671e9280f717ff0e30579b149dacc3a70cb32eb16070",
}


@pytest.mark.parametrize("kind, features_per_split", sorted(GOLDEN_FOREST_SHA256))
def test_trained_forest_matches_golden_hash(kind, features_per_split):
    x, y = golden_data(kind)
    config = ForestConfig(n_trees=12, features_per_split=features_per_split)
    doc = json.dumps(forest_to_json_list(train_forest(x, y, config, seed=77)))
    digest = hashlib.sha256(doc.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_FOREST_SHA256[(kind, features_per_split)]


def batch_bytes(batch):
    fields = (batch.per_tree, batch.mean, batch.std, batch.low, batch.up)
    return b"".join(a.tobytes() for a in fields)


# sha256 of the per_tree, mean, std, low and up bytes of predict_batch;
# recorded with the tree-at-a-time evaluator the packed walk replaced.
GOLDEN_BATCH_SHA256 = {
    "binary": "0c402f5e1d29cd91e53042d292054cf893ca1986ba13f872c5d324bac772083c",
    "frequency": "3ba2460eda244f45a74202c3386df1ccea73aeac32d228b623d9b55a51ef4c4f",
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_BATCH_SHA256))
def test_predict_batch_matches_golden_hash(kind):
    x, y = golden_data(kind)
    forest = train_forest(x, y, ForestConfig(n_trees=30), seed=77)
    rng = np.random.default_rng(5)
    if kind == "binary":
        extra = (rng.random((40, 60)) < 0.5).astype(np.float32)
    else:
        extra = rng.integers(0, 7, size=(40, 60)).astype(np.float32)
    batch = predict_batch(forest, np.vstack([x, extra]))
    digest = hashlib.sha256(batch_bytes(batch)).hexdigest()
    assert digest == GOLDEN_BATCH_SHA256[kind]


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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_predict_batch_matches_per_tree_walks(data):
    width = data.draw(st.integers(1, 4))
    trees = data.draw(st.lists(random_trees(width), min_size=1, max_size=6))
    trees.append(leaf_tree(data.draw(st.floats(0.0, 1.0))))
    row = st.lists(st.sampled_from(GRID + [2.5]), min_size=width, max_size=width)
    rows = data.draw(st.lists(row, max_size=8))
    rows += rows[: data.draw(st.integers(0, len(rows)))]  # duplicated rows
    x = np.array(rows, dtype=np.float64).reshape(len(rows), width)
    config = ForestConfig(n_trees=len(trees))
    forest = Forest(trees=trees, feature_count=width, config=config, seed=0)

    batch = predict_batch(forest, x)
    assert batch.per_tree.shape == (len(trees), len(x))
    for i, row in enumerate(x):
        walked = np.array([t.probability(row) for t in trees])
        assert batch.per_tree[:, i].tobytes() == walked.tobytes()
        single = predict(forest, row)
        assert (single.mean, single.std, single.low, single.up) == (
            batch.mean[i], batch.std[i], batch.low[i], batch.up[i]
        )
    empty = predict_batch(forest, x[:0])
    assert empty.per_tree.shape == (len(trees), 0) and empty.mean.shape == (0,)

    # The same rows in compact form: some columns, in any order; the
    # features left out read 0.
    columns = data.draw(st.permutations(range(width)))[: data.draw(st.integers(0, width))]
    zeroed = np.zeros_like(x)
    zeroed[:, columns] = x[:, columns]
    compact = predict_batch(forest, x[:, columns], np.array(columns, dtype=np.intp))
    assert compact.per_tree.tobytes() == predict_batch(forest, zeroed).per_tree.tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), mode=st.sampled_from(FeatureMode))
def test_change_driven_walk_matches_per_tree_walks_on_prefixes(data, mode):
    """Prefix rows change one feature per step at most (none at an unseen
    id or a binary revisit); every tree at every step must still read the
    leaf its own walk reaches."""
    n = data.draw(st.integers(1, 6))
    trees = data.draw(st.lists(random_trees(n), min_size=1, max_size=6))
    trees.append(leaf_tree(data.draw(st.floats(0.0, 1.0))))
    config = ForestConfig(n_trees=len(trees))
    forest = Forest(trees=trees, feature_count=n, config=config, seed=0)
    ids = np.array(data.draw(st.lists(st.integers(-1, n - 1), min_size=1, max_size=30)))

    counts, columns = prefix_feature_matrix(ids, n, mode)
    batch = predict_batch(forest, counts, columns)
    dense = np.zeros((len(ids), n), dtype=counts.dtype)
    dense[:, columns] = counts
    for t, row in enumerate(dense):
        walked = np.array([tree.probability(row) for tree in trees])
        assert batch.per_tree[:, t].tobytes() == walked.tobytes()
    assert batch_bytes(batch) == batch_bytes(predict_batch(forest, dense))


def test_predict_batch_rejects_bad_columns():
    forest = leaf_forest([0.5], feature_count=3)
    with pytest.raises(ValueError, match="expected rows of length 2"):
        predict_batch(forest, np.zeros((4, 3)), np.array([0, 2]))
    with pytest.raises(ValueError, match="must lie in"):
        predict_batch(forest, np.zeros((4, 2)), np.array([0, 3]))


def test_depth_one_tree_split_matches_brute_force_on_its_bootstrap():
    config = ForestConfig(n_trees=1, max_depth=1, features_per_split="all")
    seed = 99
    forest = train_forest(SIX_SAMPLES, SIX_LABELS, config, seed)
    tree = forest.trees[0]
    rng = np.random.default_rng(derive_seed(seed, "tree:0"))
    boot = rng.integers(0, len(SIX_SAMPLES), size=len(SIX_SAMPLES))
    assert len(np.unique(SIX_LABELS[boot])) == 2  # chosen seed keeps both classes
    oracle, _ = brute_force_gini_split(SIX_SAMPLES[boot], SIX_LABELS[boot])
    assert (int(tree.feature[0]), float(tree.threshold[0])) == oracle


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
    forest = train_forest(x, y, ForestConfig(n_trees=data.draw(st.integers(1, 5))), seed)

    got = out_of_bag_mean(forest, x)
    assert got.shape == (n,)
    bags = [in_bag(seed, i, n) for i in range(forest.n_trees)]
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
    forest = train_forest(x, y, ForestConfig(n_trees=2), seed=5)
    got = out_of_bag_mean(forest, x)
    assert got[0] == 1.0  # tree 1 saw only the unsafe row: a leaf of 1.0
    assert np.isnan(got[1])
    # Seed 2: both trees draw both rows, so no row is scored.
    assert in_bag(2, 0, 2) == in_bag(2, 1, 2) == {0, 1}
    forest = train_forest(x, y, ForestConfig(n_trees=2), seed=2)
    assert np.isnan(out_of_bag_mean(forest, x)).all()


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
    forest = train_forest(x, y, ForestConfig(n_trees=15), seed=4)
    probes = rng.uniform(-0.5, 1.5, size=(1000, 5))
    batch = predict_batch(forest, probes)
    manual = np.array([[t.probability(p) for p in probes] for t in forest.trees]).mean(axis=0)
    assert np.max(np.abs(batch.mean - manual)) <= 1e-12
    s = predict(forest, probes[0])
    assert abs(s.mean - np.mean(s.per_tree)) <= 1e-12


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
    forest = train_forest(x, y, ForestConfig(n_trees=1), seed=21)
    for probe in rng.uniform(0, 1, size=(50, 4)):
        assert predict(forest, probe).mean == forest.trees[0].probability(probe)


def test_linearly_separable_toy_set_training_accuracy():
    # 20 samples, feature 0 is a clean 0/1 separator, feature 1 is noise.
    rng = np.random.default_rng(17)
    y = np.array([0] * 10 + [1] * 10)
    x = np.column_stack([y.astype(float), rng.uniform(0, 1, size=20)])
    forest = train_forest(x, y, ForestConfig(n_trees=50), seed=3)
    predictions = predict_batch(forest, x).mean >= 0.5
    assert np.array_equal(predictions, y.astype(bool))


def test_training_determinism():
    rng = np.random.default_rng(41)
    x = rng.uniform(0, 1, size=(40, 6))
    y = (x[:, 2] > 0.4).astype(int)
    f1 = train_forest(x, y, ForestConfig(n_trees=12), seed=7)
    f2 = train_forest(x, y, ForestConfig(n_trees=12), seed=7)
    assert json.dumps(forest_to_json_list(f1)) == json.dumps(forest_to_json_list(f2))
    f3 = train_forest(x, y, ForestConfig(n_trees=12), seed=8)
    assert json.dumps(forest_to_json_list(f1)) != json.dumps(forest_to_json_list(f3))


def test_serialization_round_trip_preserves_predictions():
    rng = np.random.default_rng(43)
    x = rng.uniform(0, 1, size=(50, 4))
    y = (x[:, 0] * x[:, 1] > 0.25).astype(int)
    forest = train_forest(x, y, ForestConfig(n_trees=10), seed=5)
    doc = json.loads(json.dumps(forest_to_json_list(forest)))
    restored = forest_from_json_list(doc, forest.feature_count, forest.config, forest.seed)
    probes = rng.uniform(0, 1, size=(100, 4))
    a = predict_batch(forest, probes)
    b = predict_batch(restored, probes)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.low, b.low)
    assert np.array_equal(a.up, b.up)


def test_exact_threshold_routes_left():
    tree = Tree(
        feature=np.array([0, -1, -1], dtype=np.int32),
        threshold=np.array([0.5, 0.0, 0.0]),
        left=np.array([1, -1, -1], dtype=np.int32),
        right=np.array([2, -1, -1], dtype=np.int32),
        value=np.array([0.5, 0.1, 0.9]),
        count=np.array([2, 1, 1], dtype=np.int64),
    )
    assert tree.probability(np.array([0.5])) == 0.1
    assert tree.probability(np.array([0.5000001])) == 0.9
    rows = np.array([[0.5], [0.6]])
    assert [tree.probability(row) for row in rows] == [0.1, 0.9]
    forest = Forest(trees=[tree], feature_count=1, config=ForestConfig(n_trees=1), seed=0)
    assert predict_batch(forest, rows).per_tree[0].tolist() == [0.1, 0.9]


def test_leaf_only_tree_constant_output():
    tree = leaf_tree(0.25)
    for x in ([0.0, 0.0, 0.0], [9.9, -3.0, 1.0]):
        assert tree.probability(np.array(x)) == 0.25
    assert leaf_tree(1.0).probability(np.array([0.0])) == 1.0


def test_training_input_validation():
    with pytest.raises(ValueError):
        train_forest(np.zeros((0, 2)), np.zeros(0), ForestConfig(), seed=0)
    with pytest.raises(ValueError):
        train_forest(np.zeros((4, 2)), np.zeros(4, dtype=int), ForestConfig(), seed=0)
    with pytest.raises(ValueError):
        train_forest(np.zeros((4, 2)), np.array([0, 1, 0]), ForestConfig(), seed=0)


def test_training_rejects_bad_labels_and_features():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError, match=r"labels must be 0 or 1, got values \[0, 1, 2\]"):
        train_forest(x, np.array([0, 2, 1, 0]), ForestConfig(), seed=0)
    with pytest.raises(ValueError, match="labels must be 0 or 1"):
        train_forest(x, np.array([0.0, 0.5, 1.0, 0.0]), ForestConfig(), seed=0)
    for bad in (np.nan, np.inf):
        x_bad = np.array([[0.0, 1.0], [bad, 0.0], [1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="features must be finite"):
            train_forest(x_bad, np.array([0, 1, 1, 0]), ForestConfig(), seed=0)


def test_predict_dimension_mismatch():
    forest = leaf_forest([0.5], feature_count=3)
    with pytest.raises(ValueError):
        predict(forest, np.zeros(2))
    with pytest.raises(ValueError):
        predict_batch(forest, np.zeros((5, 4)))


def test_min_split_and_depth_limits():
    rng = np.random.default_rng(51)
    x = rng.uniform(0, 1, size=(64, 3))
    y = (x[:, 0] > 0.5).astype(int)
    stump = train_forest(x, y, ForestConfig(n_trees=5, max_depth=1), seed=1)
    for tree in stump.trees:
        assert len(tree.feature) <= 3
    blocky = train_forest(x, y, ForestConfig(n_trees=5, min_split=65), seed=1)
    for tree in blocky.trees:
        assert len(tree.feature) == 1  # root below the split size stays a leaf
