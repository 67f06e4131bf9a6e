import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import SNAP_OFFSETS, id_table, make_episode, make_set, near_multiple, two_band_corpus
from safemon import forest
from safemon.abstraction import (
    AbstractionTable,
    FeatureMode,
    bucketize,
    bucketize_batch,
    distinct_q_count,
    episode_feature_matrix,
    prefix_feature_matrix,
    select_level,
)
from safemon.forest import ProbabilitySummary
from safemon.monitor import Criterion


def encode(ids, n, mode):
    """The reference's feature row after each id; unseen ids (None or -1)
    change nothing."""
    return np.array(list(reference.prefix_rows(ids, n, mode is FeatureMode.BINARY))).reshape(len(ids), n)


def id_episode(ids):
    return make_episode([[i + 0.5] if i >= 0 else [-0.5] for i in ids])


def dense_prefix(ids, n, mode):
    """prefix_feature_matrix rescattered to (steps, n): the states outside
    its columns read 0. Also checks the columns are the distinct visited
    ids in ascending order."""
    ids = np.asarray(ids, dtype=np.int64)
    counts, columns = prefix_feature_matrix(ids, n, mode)
    assert counts.dtype == np.float32
    assert np.array_equal(columns, np.unique(ids[ids >= 0]))
    assert counts.shape == (len(ids), len(columns))
    dense = np.zeros((len(ids), n), dtype=np.float32)
    dense[:, columns] = counts
    return dense


def test_bucketize_hand_evaluated():
    # 0.25/0.11 = 2.27 -> 3; 0.70/0.11 = 6.36 -> 7
    assert bucketize([0.25, 0.70], 0.11) == (3, 7)
    # exact boundary: 0.22/0.11 == 2.0 exactly
    assert bucketize([0.22], 0.11) == (2,)
    # signed ceiling: -0.30/0.11 = -2.72 -> -2
    assert bucketize([-0.30], 0.11) == (-2,)


@settings(max_examples=500, deadline=None)
@given(
    d=st.floats(1e-6, 1e6),
    k=st.integers(-10**9, 10**9),
)
def test_bucket_boundaries_snap_at_exact_multiples(d, k):
    """k*d is the top of bucket k despite float drift in k*d/d; half a
    level above it lies inside bucket k + 1."""
    assert bucketize([k * d], d) == (k,)
    assert bucketize([(k + 0.5) * d], d) == (k + 1,)
    batch = bucketize_batch(np.array([[k * d, (k + 0.5) * d]]), d)
    assert batch.tolist() == [[k, k + 1]]


def test_bucketize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        bucketize([1.0], 0.0)
    with pytest.raises(ValueError):
        bucketize([1.0], -0.5)
    with pytest.raises(ValueError):
        bucketize([math.nan], 0.5)
    with pytest.raises(ValueError):
        bucketize([math.inf], 0.5)
    # Non-finite is named before a quotient too large for a bucket index.
    with pytest.raises(ValueError, match="^Q-values must be finite$"):
        bucketize([1e300, math.nan], 1.0)
    # Neither gives a usable table: q / inf is 0 for every Q-value and
    # q / nan is nan.
    for d in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="abstraction level must be positive and finite"):
            AbstractionTable.build(two_band_corpus(), d)


@pytest.mark.parametrize("q, d", [([1e300, 0.0], 1.0), ([-1e300, 0.0], 1.0), ([0.0, 5.0], 1e-300),
                                  ([2.0**63, 0.0], 1.0), ([0.0, -(2.0**63)], 1.0)])
def test_bucketize_refuses_an_index_beyond_int64(q, d):
    # Each used to wrap to the same key, (-2**63, 0), under a RuntimeWarning.
    value = next(v for v in q if v != 0.0)
    message = f"Q-value {value!r} at abstraction level {d!r} has a bucket index beyond int64"
    with pytest.raises(ValueError, match=re.escape(message)):
        bucketize(q, d)
    with pytest.raises(ValueError, match=re.escape(message)):
        bucketize_batch(np.array([q, [0.0] * len(q)]), d)


def test_bucketize_refuses_a_quotient_that_overflows():
    # A finite q over a tiny d overflows to inf; the refusal names it, and
    # numpy's overflow warning does not come first, whether q is a list,
    # an array or a list of numpy scalars.
    message = "Q-value 1e+300 at abstraction level 1e-300 has a bucket index beyond int64"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for q in ([1e300], np.array([1e300]), [np.float64(1e300)]):
            with pytest.raises(ValueError, match=re.escape(message)):
                bucketize(q, 1e-300)


# The largest float below 2**63: a Q-value of TOP * d has the last bucket
# index an int64 holds, or near it.
TOP = 2.0**63 - 1024


@settings(max_examples=300, deadline=None)
@given(
    d=st.floats(1e-6, 1e6),
    k=st.one_of(st.integers(-10**9, 10**9), st.sampled_from([-(2**63), 2**63])),
    shift=st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
    ulps=st.integers(-3, 3),
    width=st.integers(1, 3),
)
def test_bucketize_is_the_batch_rule_on_one_row(d, k, shift, ulps, width):
    """At bucket boundaries, and near +-2**63 d where refusal begins, one
    Q-vector gets the key its row gets in a batch, or the same refusal."""
    value = (k + shift) * d
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    q = np.array([value, TOP * d, -TOP * d][:width])

    def outcome(bucket):
        try:
            return bucket()
        except ValueError as exc:
            return str(exc)

    one = outcome(lambda: bucketize(q, d))
    batch = outcome(lambda: tuple(bucketize_batch(q[None], d)[0].tolist()))
    assert one == batch
    if isinstance(one, tuple):
        assert all(type(b) is int for b in one)
        assert all(abs(b) < 2**63 for b in one)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), d=st.one_of(st.floats(1e-6, 1e6), st.floats(1e-12, 1.0)))
def test_bucketize_is_the_reference_rule(data, d):
    """bucketize and bucketize_batch give reference.bucket's key, the
    snapped ceiling of q/d, for finite Q-values with |q/d| below 2**63: at
    multiples of d nudged across the snap tolerance and by a few ulps,
    next to 2**63 * d, and anywhere, at levels above and below 1."""
    q_value = st.one_of(
        st.builds(near_multiple, st.integers(-10**9, 10**9), st.just(d), st.sampled_from(SNAP_OFFSETS),
                  st.integers(-3, 3)),
        st.builds(near_multiple, st.sampled_from([TOP, -TOP, 2.0**62]), st.just(d), st.just(0.0),
                  st.integers(-3, 0)),
        st.floats(-(2.0**62) * d, 2.0**62 * d),
    )
    q = data.draw(st.lists(q_value.filter(lambda v: abs(v / d) < 2.0**63), min_size=1, max_size=3))
    want = tuple(reference.bucket(v, d) for v in q)
    assert bucketize(q, d) == want
    assert bucketize_batch(np.array([q]), d).tolist() == [list(want)]


@pytest.mark.parametrize("q", [2.0**51 + 0.5, 2.0**51 + 1.5, -(2.0**51 + 0.5), 2.0**52 + 1, 2.0**52 + 3])
def test_bucketize_rounds_a_snapped_half_to_even(q):
    """From 2**51 up the snap tolerance passes half a level, so a
    quotient halfway between two integers snaps to one of them: the even
    one, as np.rint rounds, and not the one above."""
    assert bucketize([q], 1.0) == (reference.bucket(q, 1.0),) == (int(np.rint(q)),)
    assert bucketize_batch(np.array([[q]]), 1.0).tolist() == [[int(np.rint(q))]]


def test_bucketize_matches_ceiling_oracle():
    # Equality of keys must agree with direct evaluation of the defining
    # per-action ceiling comparison, over 1000 random pairs and 10 levels.
    rng = np.random.default_rng(42)
    for _ in range(10):
        d = float(rng.uniform(0.01, 10.0))
        q1 = rng.uniform(-50, 50, size=(1000, 3))
        # Half the pairs nearby (often equal), half independent.
        q2 = np.where(
            rng.random((1000, 1)) < 0.5,
            q1 + rng.uniform(-d, d, size=(1000, 3)),
            rng.uniform(-50, 50, size=(1000, 3)),
        )
        for a, b in zip(q1, q2):
            oracle = all(
                math.ceil(x / d) == math.ceil(y / d) for x, y in zip(a, b)
            )
            assert (bucketize(a, d) == bucketize(b, d)) == oracle


def test_refinement_under_integer_multiples():
    # Same bucket at level d implies same bucket at level k*d: construct
    # pairs that share the fine bucket, then check every coarser level.
    rng = np.random.default_rng(7)
    for _ in range(1000):
        d = float(rng.uniform(0.05, 5.0))
        k = int(rng.integers(1, 9))
        q1 = rng.uniform(-30, 30, size=2)
        buckets = bucketize(q1, d)
        # Sample q2 inside the same ((b-1)d, bd] intervals.
        u = rng.uniform(1e-9, 1.0, size=2)
        q2 = (np.array(buckets) - 1.0 + u) * d
        assert bucketize(q2, d) == buckets
        assert bucketize(q1, k * d) == bucketize(q2, k * d)


def test_monotone_coarsening():
    rng = np.random.default_rng(3)
    episodes = [make_episode(rng.uniform(-5, 5, size=(10, 2))) for _ in range(30)]
    corpus = make_set(episodes)
    for d in (0.1, 0.37, 1.0):
        n_fine = AbstractionTable.build(corpus, d).n
        for k in (1, 2, 3, 5):
            assert AbstractionTable.build(corpus, k * d).n <= n_fine


def test_table_single_bucket_when_qs_identical():
    corpus = make_set([make_episode(np.full((4, 2), 1.23)) for _ in range(5)])
    assert AbstractionTable.build(corpus, 0.5).n == 1


def test_table_first_discovery_order_and_lookup():
    corpus = make_set(
        [make_episode([[0.1], [1.1], [0.1]]), make_episode([[2.1], [1.1]])]
    )
    table = AbstractionTable.build(corpus, 1.0)
    assert table.n == 3
    assert table.lookup([0.1]) == 0
    assert table.lookup([1.1]) == 1
    assert table.lookup([2.1]) == 2
    assert table.lookup([9.9]) is None
    # pure function of the bucket key
    assert table.lookup([0.05]) == table.lookup([0.9])


def test_table_deterministic_and_serializable():
    rng = np.random.default_rng(11)
    corpus = make_set([make_episode(rng.uniform(-3, 3, size=(8, 2))) for _ in range(10)])
    t1 = AbstractionTable.build(corpus, 0.25)
    t2 = AbstractionTable.build(corpus, 0.25)
    assert t1.index == t2.index
    doc = t1.to_json_dict()
    assert doc["ids"] == list(range(t1.n))
    restored = AbstractionTable.from_json_dict(doc)
    assert restored.index == t1.index
    assert restored.d == t1.d


def test_lookup_batch_matches_scalar():
    rng = np.random.default_rng(5)
    corpus = make_set([make_episode(rng.uniform(-3, 3, size=(8, 2))) for _ in range(5)])
    table = AbstractionTable.build(corpus, 0.4)
    probe = rng.uniform(-4, 4, size=(50, 2))
    batch = table.lookup_batch(probe)
    for row, got in zip(probe, batch):
        expected = table.lookup(row)
        assert (expected if expected is not None else -1) == got


def test_encode_by_definition():
    for ids, binary, frequency in [
        ([2, 5, 2], [0, 0, 1, 0, 0, 1], [0, 0, 2, 0, 0, 1]),
        ([-1, 3], [0, 0, 0, 1, 0, 0], [0, 0, 0, 1, 0, 0]),
    ]:
        episode = id_episode(ids)
        for mode, want in ((FeatureMode.BINARY, binary), (FeatureMode.FREQUENCY, frequency)):
            assert np.array_equal(dense_prefix(ids, 6, mode)[-1], want)
            assert np.array_equal(episode_feature_matrix([episode], id_table(6), mode), [want])
    for mode in FeatureMode:
        assert dense_prefix([], 4, mode).shape == (0, 4)
        counts, columns = prefix_feature_matrix(np.zeros(0, dtype=np.int64), 4, mode)
        assert counts.shape == (0, 0) and columns.shape == (0,)
        assert episode_feature_matrix([], id_table(4), mode).shape == (0, 4)


def test_encode_drops_unseen_and_validates_range():
    counts, columns = prefix_feature_matrix(np.array([1, -1, 1]), 3, FeatureMode.FREQUENCY)
    assert np.array_equal(counts, [[1], [1], [2]]) and np.array_equal(columns, [1])
    assert np.array_equal(
        dense_prefix([1, -1, 1], 3, FeatureMode.FREQUENCY),
        [[0, 1, 0], [0, 1, 0], [0, 2, 0]],
    )
    counts, columns = prefix_feature_matrix(np.array([-1, -1]), 3, FeatureMode.BINARY)
    assert counts.shape == (2, 0) and columns.shape == (0,)
    # An id past the table is an error, never a visit counted elsewhere.
    with pytest.raises(IndexError):
        prefix_feature_matrix(np.array([0, 3]), 3, FeatureMode.BINARY)


def test_feature_monotonicity_and_mode_consistency():
    rng = np.random.default_rng(19)
    n = 12
    ids = rng.integers(-1, n, size=60)
    b = dense_prefix(ids, n, FeatureMode.BINARY)
    f = dense_prefix(ids, n, FeatureMode.FREQUENCY)
    assert np.all(np.diff(b, axis=0) >= 0) and np.all(np.diff(f, axis=0) >= 0)
    assert np.array_equal(b, np.minimum(f, 1.0))
    assert set(np.unique(b)) <= {0.0, 1.0}


def test_prefix_feature_matrix_matches_encode():
    rng = np.random.default_rng(23)
    n = 9
    raw = rng.integers(-1, n, size=40)
    for mode in FeatureMode:
        assert np.array_equal(dense_prefix(raw, n, mode), encode(raw.tolist(), n, mode))


def test_episode_feature_matrix_matches_encode():
    rng = np.random.default_rng(29)
    episodes = [make_episode(rng.uniform(-3, 3, size=(6, 2))) for _ in range(8)]
    corpus = make_set(episodes)
    table = AbstractionTable.build(corpus, 0.5)
    for mode in FeatureMode:
        matrix = episode_feature_matrix(episodes, table, mode)
        assert matrix.dtype == (np.uint8 if mode is FeatureMode.BINARY else np.float32)
        for row, episode in zip(matrix, episodes):
            ids = [table.lookup(q) for q in episode.qs]
            assert np.array_equal(row, encode(ids, table.n, mode)[-1])
        # The ids the table found while it was built give the same rows.
        reused = episode_feature_matrix(episodes, table, mode, table.corpus_ids)
        assert reused.tobytes() == matrix.tobytes()


def test_build_keeps_each_corpus_episodes_ids():
    rng = np.random.default_rng(7)
    episodes = [make_episode(rng.uniform(-3, 3, size=(int(rng.integers(1, 9)), 2))) for _ in range(6)]
    table = AbstractionTable.build(make_set(episodes), 0.5)
    assert len(table.corpus_ids) == len(episodes)
    for ids, episode in zip(table.corpus_ids, episodes):
        assert ids.dtype == np.int64
        assert ids.tolist() == table.lookup_batch(episode.qs).tolist()
    # The ids are no part of the table's value or file.
    restored = AbstractionTable.from_json_dict(table.to_json_dict())
    assert restored == table and restored.corpus_ids == []


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    data=st.data(),
    mode=st.sampled_from(FeatureMode),
)
def test_encoders_match_reference_property(n, data, mode):
    id_lists = data.draw(
        st.lists(st.lists(st.integers(-1, n - 1), min_size=1, max_size=30), min_size=1, max_size=5)
    )
    ends = []
    for ids in id_lists:
        matrix = dense_prefix(ids, n, mode)
        assert np.array_equal(matrix, encode(ids, n, mode))
        ends.append(matrix[-1])
    episodes = [id_episode(ids) for ids in id_lists]
    assert np.array_equal(episode_feature_matrix(episodes, id_table(n), mode), ends)


def test_lookup_rejects_wrong_width():
    table = AbstractionTable.build(make_set([make_episode(np.zeros((3, 2)))]), 1.0)
    assert table.key_width == 2
    for q in ([0.5, 0.5, 0.5], [0.5], 0.5):
        with pytest.raises(ValueError, match="expected 2 Q-values per step"):
            table.lookup(q)
    for qs in (np.zeros((4, 3)), np.zeros((4, 1)), np.zeros(2)):
        with pytest.raises(ValueError, match="expected 2 Q-values per step"):
            table.lookup_batch(qs)
    assert table.lookup_batch(np.zeros((0, 2))).shape == (0,)


def test_distinct_q_count():
    corpus = make_set(
        [make_episode([[1.0], [2.0], [1.0]]), make_episode([[2.0], [3.0]])]
    )
    assert distinct_q_count(corpus) == 3


def test_select_level_tie_breaks_toward_larger_d():
    corpus = two_band_corpus(n_per_class=20, steps=3)
    selection = select_level(corpus, [1.0, 2.0], inner_split_seed=123)
    # Both levels separate the bands perfectly and fire at step 0, so the
    # coarser level must win the tie.
    assert selection.d_star == 2.0
    assert selection.optimal_range == (1.0, 2.0)
    by_d = {row.d: row for row in selection.rows}
    assert by_d[1.0].f1_macro == by_d[2.0].f1_macro == 1.0
    assert by_d[1.0].mean_fire_step == by_d[2.0].mean_fire_step == 0.0


@pytest.mark.parametrize(
    "criterion, empty, excluded",
    [
        # up >= theta > mean: the monitor fires before seeing anything.
        (Criterion.UPPER_BOUND, (0.4, 0.2, 0.6), True),
        # mean >= theta >= low: the lower bound does not fire on it.
        (Criterion.LOWER_BOUND, (0.6, 0.45, 0.75), False),
    ],
    ids=["upper-bound-fires-at-once", "lower-bound-stays-quiet"],
)
def test_select_level_excludes_by_the_criterion_on_the_empty_prefix(
    criterion, empty, excluded, monkeypatch
):
    """A frequency-mode candidate is excluded when its empty prefix's
    summary meets the monitor's own criterion, not when its mean reaches
    theta."""
    mean, low, up = empty
    summaries = iter([ProbabilitySummary(mean, 0.0, low, up)])
    quiet = ProbabilitySummary(0.0, 0.0, 0.0, 0.0)
    # predict scores only the empty prefixes: the first d's gets `empty`.
    monkeypatch.setattr(forest, "predict", lambda model, x: next(summaries, quiet))
    corpus = two_band_corpus(n_per_class=20, steps=3)
    selection = select_level(
        corpus, [1.0, 2.0], inner_split_seed=123, mode=FeatureMode.FREQUENCY,
        theta=0.5, criterion=criterion, n_trees=10,
    )
    first, second = selection.rows
    assert first.in_optimal_range and second.in_optimal_range and not second.excluded
    assert first.excluded is excluded
    assert (first.operation_f1 is None) is excluded


def test_select_level_requires_two_candidates():
    corpus = two_band_corpus()
    with pytest.raises(ValueError):
        select_level(corpus, [1.0], inner_split_seed=0)
