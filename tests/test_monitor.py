import io
import json
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import safemon.monitor as monitor_module
from conftest import (
    SNAP_OFFSETS,
    assert_monitor_matches_reference,
    assert_rows_match_reference,
    forest_of,
    id_qs,
    id_table,
    leaf_tree,
    make_episode,
    make_set,
    near_multiple,
    orjson_refusing,
    random_forest,
    saved_and_loaded,
    split_tree,
    summary_bits,
)
from safemon.abstraction import AbstractionTable, FeatureMode, UnseenPolicy, episode_feature_matrix
from safemon.dataset import DatasetError, Label
from safemon.forest import GROWTH, ProbabilitySummary, forest_to_json_list, train_forest
from safemon.monitor import (
    Criterion,
    MonitorModel,
    MonitorStopped,
    RunningState,
    StepAssessment,
    criterion_holds,
    load_model,
    observe,
    run_trace,
    run_traces,
    save_model,
    watch_stream,
)


def summary(low, mean, up):
    return ProbabilitySummary(mean=mean, std=0.0, low=low, up=up)


def staircase_model(**overrides):
    """Four abstract states; the forest alarms once state 2 has been seen."""
    defaults = dict(table=id_table(4), forest=forest_of([split_tree(2, 0.5, 0.2, 0.9)], 4))
    defaults.update(overrides)
    return MonitorModel(**defaults)


def q_for(abstract_id):
    return np.array([abstract_id + 0.5])


def test_criterion_holds_strictness():
    s = summary(0.5, 0.5, 0.5)
    assert criterion_holds(s, Criterion.UPPER_BOUND, 0.5)  # non-strict
    assert criterion_holds(s, Criterion.OUTPUT_PROBABILITY, 0.5)  # non-strict
    assert not criterion_holds(s, Criterion.LOWER_BOUND, 0.5)  # strict
    assert criterion_holds(summary(0.500001, 0.6, 0.7), Criterion.LOWER_BOUND, 0.5)
    assert not criterion_holds(summary(0.49, 0.6, 0.7), Criterion.LOWER_BOUND, 0.5)
    assert not criterion_holds(summary(0.2, 0.6, 0.9), Criterion.OUTPUT_PROBABILITY, 0.75)
    assert criterion_holds(summary(0.2, 0.4, 0.52), Criterion.UPPER_BOUND, 0.5)


def test_observe_fires_and_latches():
    model = staircase_model()
    running = RunningState.fresh(model)
    fired = []
    for abstract_id in [0, 1, 2, 3]:
        a = observe(model, running, q_for(abstract_id))
        fired.append(a.fired)
    assert fired == [False, False, True, True]


def test_observe_unseen_ignore_leaves_features_unchanged():
    model = staircase_model()
    running = RunningState.fresh(model)
    observe(model, running, q_for(0))
    before = running.features.copy()
    a = observe(model, running, np.array([99.5]))  # key never seen
    assert np.array_equal(running.features, before)
    assert not a.unseen_alert  # alerts are a stop-policy concept


def test_observe_stop_policy_freezes():
    model = staircase_model(unseen_policy=UnseenPolicy.STOP)
    running = RunningState.fresh(model)
    observe(model, running, q_for(0))
    a = observe(model, running, np.array([99.5]))
    assert a.unseen_alert
    with pytest.raises(MonitorStopped):
        observe(model, running, q_for(1))


def test_run_trace_first_crossing():
    model = staircase_model()
    qs = np.array([q_for(i) for i in [0, 1, 2, 3]])
    trace = run_trace(model, qs)
    ups = [a.summary.up for a in trace.assessments]
    assert ups == [0.2, 0.2, 0.9, 0.9]
    assert trace.first_fire_step == 2
    assert [a.fired for a in trace.assessments] == [False, False, True, True]
    assert trace.episode_length == 4


def test_run_trace_never_fires():
    model = staircase_model()
    trace = run_trace(model, np.array([q_for(0), q_for(1)]))
    assert trace.first_fire_step is None
    assert all(not a.fired for a in trace.assessments)


def test_run_trace_single_step_fire():
    model = staircase_model()
    trace = run_trace(model, np.array([q_for(2)]))
    assert trace.first_fire_step == 0


def test_run_trace_rejects_empty_stream():
    with pytest.raises(ValueError):
        run_trace(staircase_model(), np.zeros((0, 1)))


def _property_forest(n=6):
    """A 15-tree forest over n abstract states, fitted on random counts."""
    rng = np.random.default_rng(5)
    x = rng.integers(0, 3, size=(40, n)).astype(float)
    y = (x[:, 1] + x[:, 4] + rng.integers(0, 2, size=40) > 2).astype(int)
    return train_forest(x, y, 15, seed=4)


PROPERTY_FOREST = _property_forest()
PROPERTY_TREES = forest_to_json_list(PROPERTY_FOREST)
THETAS = st.sampled_from([0.25, 0.5, 0.75])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), mode=st.sampled_from(FeatureMode), unseen=st.sampled_from(UnseenPolicy),
       criterion=st.sampled_from(Criterion), theta=THETAS)
def test_stream_equals_batch_property(data, mode, unseen, criterion, theta):
    """One episode over a random forest: observe and run_trace both give
    the reference's assessments (conftest.assert_monitor_matches_reference)."""
    n = data.draw(st.integers(1, 6))
    model = MonitorModel(table=id_table(n), forest=forest_of(data.draw(random_forest(n)), n), mode=mode,
                         criterion=criterion, theta=theta, unseen_policy=unseen)
    ids = data.draw(st.lists(st.integers(-1, n - 1), min_size=1, max_size=25))
    assert_monitor_matches_reference(model, [id_qs(ids)])


@settings(max_examples=80, deadline=None)
@given(
    episodes=st.lists(st.lists(st.integers(-1, 5), min_size=1, max_size=25), min_size=1, max_size=6),
    mode=st.sampled_from(FeatureMode),
    unseen=st.sampled_from(UnseenPolicy),
    criterion=st.sampled_from(Criterion),
    theta=THETAS,
    budget=st.integers(1, 60),
)
def test_run_traces_equal_observe_property(episodes, mode, unseen, criterion, theta, budget):
    """A corpus replayed in chunks of at most `budget` rows, and observed
    step by step, gives the reference's assessments."""
    model = MonitorModel(
        table=id_table(6), forest=PROPERTY_FOREST, mode=mode,
        criterion=criterion, theta=theta, unseen_policy=unseen,
    )
    assert_monitor_matches_reference(model, [id_qs(ids) for ids in episodes], budget)


@pytest.mark.parametrize("budget", [1, monitor_module.ROW_BUDGET])
@pytest.mark.parametrize("unseen", list(UnseenPolicy))
@pytest.mark.parametrize("mode", list(FeatureMode))
@pytest.mark.parametrize("trees, episodes", [
    pytest.param([leaf_tree(0.25), leaf_tree(0.5), leaf_tree(1.0)], [[0, 1, 0], [-1], [5, 5, 2, -1]],
                 id="leaf-only-forest"),
    pytest.param(PROPERTY_TREES, [[-1, -1, -1], [1, 4, 1], [-1], [-1, -1]], id="only-unseen-steps"),
    pytest.param(PROPERTY_TREES, [[0], [4], [-1], [1], [1]], id="one-step-episodes"),
    pytest.param(PROPERTY_TREES, [[-1, 1, 4], [4, 4, 1], [-1]], id="unseen-at-step-0"),
    # Zero leaves of both signs: numpy's sums start from +0.0, so a mean
    # or bound of them is 0.0, and a replayed tree may keep a zero's sign.
    pytest.param([leaf_tree(-0.0), split_tree(1, 0.5, -0.0, 0.5)], [[0, 1, -1], [2]],
                 id="negative-zero-leaves"),
])
def test_run_traces_edge_chunks_equal_observe(trees, episodes, mode, unseen, budget):
    """Chunks the replay builds from ids alone, with no state some split
    tests (a forest of leaves, steps all unseen), with one-step episodes,
    and with a stop policy that cuts an episode at step 0, still give the
    reference's assessments."""
    model = MonitorModel(table=id_table(6), forest=forest_of(trees, 6), mode=mode, unseen_policy=unseen)
    assert_monitor_matches_reference(model, [id_qs(ids) for ids in episodes], budget)
    cut = [len(trace.assessments) for trace in run_traces(model, [id_qs(ids) for ids in episodes])]
    if unseen is UnseenPolicy.STOP:
        assert cut == [ids.index(-1) + 1 if -1 in ids else len(ids) for ids in episodes]
    else:
        assert cut == [len(ids) for ids in episodes]


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(st.integers(-1, 2), min_size=20, max_size=60),
    mode=st.sampled_from(FeatureMode),
    unseen=st.sampled_from(UnseenPolicy),
)
def test_observe_keeps_the_binary_features_in_place(ids, mode, unseen):
    """Sessions that revisit three states over and over: observe updates
    its one feature vector in place (each state's visit count in frequency
    mode) and still scores the reference's row."""
    model = MonitorModel(table=id_table(6), forest=PROPERTY_FOREST, mode=mode, unseen_policy=unseen)
    features = RunningState.fresh(model).features
    assert (features.dtype, features.tolist()) == (np.float64, [0.0] * 6)
    assert_monitor_matches_reference(model, [id_qs(ids)])


@settings(max_examples=80, deadline=None)
@given(data=st.data(), d=st.sampled_from([0.1, 0.3, 1.0, 2.5]), width=st.integers(1, 3),
       mode=st.sampled_from(FeatureMode), unseen=st.sampled_from(UnseenPolicy))
def test_observe_reads_a_list_as_its_numpy_row(data, d, width, mode, unseen):
    """Each step given as a list of Python numbers, as watch passes it,
    and as a float64 row gets the same assessment, bit for bit; lookup of
    the list is lookup_batch's id of the row (None for -1). The steps sit
    on, next to and between bucket boundaries, seen in the table and not."""
    value = st.one_of(
        st.builds(near_multiple, st.integers(-4, 4), st.just(d), st.sampled_from(SNAP_OFFSETS), st.integers(-2, 2)),
        st.floats(-5.0, 5.0),
        st.integers(-5, 5),
    )
    step = st.lists(value, min_size=width, max_size=width)
    seen = data.draw(st.lists(step, min_size=1, max_size=8))
    table = AbstractionTable.build(make_set([make_episode(seen)]), d)
    steps = data.draw(st.lists(st.one_of(st.sampled_from(seen), step), min_size=1, max_size=20))
    rows = np.array(steps, dtype=np.float64)
    model = MonitorModel(table=table, forest=forest_of(data.draw(random_forest(table.n)), table.n),
                         mode=mode, unseen_policy=unseen)
    ids = table.lookup_batch(rows).tolist()
    assert [table.lookup(q) for q in steps] == [None if i < 0 else i for i in ids]
    by_list, by_row = RunningState.fresh(model), RunningState.fresh(model)
    for q, row in zip(steps, rows):
        if by_row.frozen:
            for running, given in ((by_list, q), (by_row, row)):
                with pytest.raises(MonitorStopped):
                    observe(model, running, given)
            break
        got, want = observe(model, by_list, q), observe(model, by_row, row)
        assert (got.t, got.fired, got.unseen_alert) == (want.t, want.fired, want.unseen_alert)
        assert summary_bits(got.summary) == summary_bits(want.summary)
        assert by_list.features.tobytes() == by_row.features.tobytes()
    assert by_list.frozen == by_row.frozen


def random_walk_episodes(rng, count):
    """Episodes of two Q-values that walk about one d = 1 bucket per step
    from a random level; every third drifts down and is unsafe."""
    episodes = []
    for i in range(count):
        unsafe = i % 3 == 0
        n = int(rng.integers(160, 201)) if unsafe else 200
        level = rng.normal(90.0, 20.0) + np.cumsum(rng.normal(0.0, 1.1, n))
        level += np.linspace(0.0, -30.0 if unsafe else 0.0, n)
        gap = np.cumsum(rng.normal(0.0, 0.85, n))
        episodes.append(make_episode(np.stack([level, level + gap], axis=1), unsafe=unsafe))
    return episodes


def test_run_traces_memory_stays_below_the_per_tree_matrix():
    """Replaying about 58k steps through a 100-tree monitor allocates far
    less than a float64 (trees x steps) matrix of every tree's value at
    every step would take: a trace holds only its summary series."""
    rng = np.random.default_rng(7)
    corpus = make_set(random_walk_episodes(rng, 300))
    table = AbstractionTable.build(corpus, 1.0)
    x = episode_feature_matrix(table.corpus_ids, table.n, FeatureMode.BINARY)
    y = np.array([e.label is Label.UNSAFE for e in corpus.episodes], dtype=np.int64)
    model = MonitorModel(table=table, forest=train_forest(x, y, 100, seed=3))
    episodes = [e.qs for e in random_walk_episodes(rng, 300)]
    matrix_bytes = 8 * model.forest.n_trees * sum(len(qs) for qs in episodes)
    tracemalloc.start()
    try:
        traces = run_traces(model, episodes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traces) == len(episodes)
    assert peak < matrix_bytes / 4, f"peak {peak} bytes, {peak / matrix_bytes:.2f} of the matrix"


def test_run_traces_of_no_episodes_and_of_an_empty_one():
    model = staircase_model()
    assert run_traces(model, []) == []
    with pytest.raises(ValueError, match="empty Q-value stream"):
        run_traces(model, [np.array([q_for(0)]), np.zeros((0, 1))])


def test_run_trace_stop_policy_truncates_at_alert():
    model = staircase_model(unseen_policy=UnseenPolicy.STOP)
    qs = np.array([q_for(0), np.array([99.5]), q_for(2)])
    trace = run_trace(model, qs)
    assert len(trace.assessments) == 2
    assert trace.assessments[-1].unseen_alert
    assert trace.episode_length == 3


def test_criterion_ordering_within_traces():
    # up >= mean >= low implies upper fires no later than the probability,
    # which fires no later than the lower bound.
    rng = np.random.default_rng(123)
    corpus = make_set(
        [make_episode(rng.uniform(0, 8, size=(15, 2)), unsafe=i % 2 == 0) for i in range(20)]
    )
    table = AbstractionTable.build(corpus, 2.0)
    from safemon.abstraction import episode_feature_matrix
    from safemon.forest import train_forest

    x = episode_feature_matrix(table.corpus_ids, table.n, FeatureMode.BINARY)
    y = np.array([e.label.value == "unsafe" for e in corpus.episodes], dtype=int)
    forest = train_forest(x, y, 30, seed=2)

    def fire(criterion, episode, theta=0.5):
        model = MonitorModel(table=table, forest=forest, criterion=criterion, theta=theta)
        step = run_trace(model, episode.qs).first_fire_step
        return np.inf if step is None else step

    for episode in corpus.episodes:
        upper = fire(Criterion.UPPER_BOUND, episode)
        prob = fire(Criterion.OUTPUT_PROBABILITY, episode)
        lower = fire(Criterion.LOWER_BOUND, episode)
        assert upper <= prob <= lower
        # threshold monotonicity per criterion
        for criterion in Criterion:
            steps = [fire(criterion, episode, theta) for theta in (0.25, 0.5, 0.75)]
            assert steps[0] <= steps[1] <= steps[2]


def test_model_validation():
    table = id_table(4)
    with pytest.raises(ValueError):
        MonitorModel(table=table, forest=forest_of([split_tree(0, 0.5, 0.1, 0.9)], 3))
    good = forest_of([split_tree(0, 0.5, 0.1, 0.9)], 4)
    with pytest.raises(ValueError):
        MonitorModel(table=table, forest=good, theta=1.0)


def test_model_document_round_trip(tmp_path):
    model = staircase_model(
        mode=FeatureMode.FREQUENCY,
        criterion=Criterion.LOWER_BOUND,
        theta=0.4,
        unseen_policy=UnseenPolicy.STOP,
        provenance={"agent_fingerprint": "abc123", "d": 1.0, "seed": 9},
    )
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert set(doc) >= {"table", "forest", "mode", "criterion", "theta", "unseen_policy", "provenance"}
    restored = load_model(path)
    assert restored.mode is FeatureMode.FREQUENCY
    assert restored.criterion is Criterion.LOWER_BOUND
    assert restored.theta == 0.4
    assert restored.unseen_policy is UnseenPolicy.STOP
    assert restored.provenance["agent_fingerprint"] == "abc123"
    assert restored.table.index == model.table.index
    assert_monitor_matches_reference(model, [id_qs([0, 2, 1, -1, 3]), id_qs([3, 2])])


@pytest.mark.parametrize(
    "damage, cause",
    [
        (lambda doc: doc["forest_config"].update(max_leaf_nodes=8),
         r"forest_config has unknown keys \['max_leaf_nodes'\]"),
        # Beyond the int32 node columns: refused, not a traceback.
        (lambda doc: doc["forest"][0][0]["split"].__setitem__(0, 10**10),
         "Python integer 10000000000 out of bounds for int32"),
        # numpy would read a string as the number it spells, a bool as 0 or 1.
        (lambda doc: doc["forest"][0][0]["split"].__setitem__(1, "1.5"),
         re.escape("tree 0 node 0: split [2, '1.5', 1, 2] has a threshold that is not a JSON number")),
        (lambda doc: doc["forest"][0][1]["leaf"].__setitem__(0, "0.5"),
         re.escape("tree 0 node 1: leaf ['0.5', 1] has a value that is not a JSON number")),
        (lambda doc: doc["forest"][0][2]["leaf"].__setitem__(0, True),
         re.escape("tree 0 node 2: leaf [True, 1] has a value that is not a JSON number")),
        (lambda doc: doc["forest"][0][0]["split"].pop(),
         re.escape("tree 0 node 0: split [2, 0.5, 1] is not a list of 4 values")),
        # The table holds keys [1] .. [4], with ids 0 .. 3.
        (lambda doc: doc["table"]["ids"].__setitem__(1, -1), re.escape("table id -1 is outside [0, 4)")),
        (lambda doc: doc["table"]["ids"].__setitem__(1, 4), re.escape("table id 4 is outside [0, 4)")),
        (lambda doc: doc["table"]["ids"].__setitem__(3, 1), "table id 1 is given to more than one key"),
        (lambda doc: doc["table"]["keys"].__setitem__(2, [1]),
         re.escape("table key [1] is given more than once")),
        (lambda doc: doc["table"]["keys"][0].__setitem__(0, True),
         "table keys must be lists of integers of one length"),
        (lambda doc: doc["table"]["keys"][0].append(0), "table keys must be lists of integers of one length"),
        (lambda doc: doc["table"]["ids"].__setitem__(0, False), "table ids must be one integer per key"),
        (lambda doc: doc["table"]["ids"].__setitem__(0, 0.0), "table ids must be one integer per key"),
    ],
    ids=["unknown-config-key", "feature-beyond-int32", "string-threshold", "string-leaf-value",
         "bool-leaf-value", "short-split", "negative-id", "id-past-the-table", "repeated-id",
         "repeated-key", "bool-in-key", "key-of-another-width", "bool-id",
         "float-id"],
)
def test_load_model_refuses_a_bad_value(damage, cause, tmp_path):
    path = tmp_path / "model.json"
    save_model(staircase_model(), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["forest_config"] == {"n_trees": 1, **GROWTH}
    damage(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DatasetError, match=f"monitor-model/1 document has a bad value: {cause}"):
        load_model(path)


# A field outside the keys decode scans, given an integer beyond 64 bits
# (which orjson reads as a float), and the refusal: json's document is
# checked, so the value is shown as the file holds it and judged by the
# rules json's value breaks; orjson's float stands only where the file is
# nested too deeply for json to read it again.
WIDE_FIELD_REFUSALS = [
    ('"feature_count": 4', '"feature_count": 18446744073709551616', "",
     "feature_count must be 4, the number of table keys, got 18446744073709551616"),
    ('"mode": "binary"', '"mode": 1000000000000000000000000000000', "",
     "mode must be one of ['binary', 'frequency'], got 1000000000000000000000000000000"),
    ('"mode": "binary"', '"mode": 1000000000000000000000000000000', "[" * 1020 + "]" * 1020,
     "mode must be one of ['binary', 'frequency'], got 1e+30"),
]


@pytest.mark.parametrize("field, wide, note, cause", WIDE_FIELD_REFUSALS,
                         ids=["feature-count-2**64", "mode-10**30", "mode-10**30-deep-note"])
def test_a_refusal_shows_an_integer_beyond_64_bits_as_the_file_holds_it(field, wide, note, cause,
                                                                       tmp_path):
    path = tmp_path / "model.json"
    save_model(staircase_model(), path)
    text = path.read_text(encoding="utf-8")
    assert field in text
    text = text.replace(field, wide, 1)
    if note:  # orjson reads it; json, and decode's scan, recurse too deeply
        text = text.rstrip()[:-1] + f', "note": {note}}}\n'
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DatasetError) as refusal:
        load_model(path)
    assert str(refusal.value) == f"{path}: monitor-model/1 document has a bad value: {cause}"


def test_load_model_takes_table_ids_in_any_order(tmp_path):
    path = tmp_path / "model.json"
    save_model(staircase_model(), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["table"]["keys"].reverse()
    doc["table"]["ids"].reverse()
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_model(path).table.index == staircase_model().table.index


def loaded_by_json(path):
    """load_model(path) with the document decoded by json alone: orjson
    refuses every text, so each goes to the json fallback."""
    with orjson_refusing():
        return load_model(path)


def load_outcome(load, path):
    """The bytes save_model writes for load(path), or the message of the
    DatasetError that refused the file."""
    try:
        model = load(path)
    except DatasetError as exc:
        return str(exc)
    with tempfile.TemporaryDirectory() as tmp:
        save_model(model, Path(tmp) / "again.json")
        return (Path(tmp) / "again.json").read_bytes()


# Edits to a saved model's text that orjson refuses, or reads otherwise
# than json does.
MODEL_EDITS = {
    "as-saved": lambda text: text,
    "nan-in-provenance": lambda text: text.replace('"provenance": {', '"provenance": {"x": NaN, ', 1),
    "nan-theta": lambda text: text.replace('"theta": 0.5', '"theta": NaN', 1),
    "infinite-threshold": lambda text: text.replace('"split": [2, 0.5,', '"split": [2, Infinity,', 1),
    # orjson reads these as floats; json as the ints save_model wrote.
    "20-digit-seed": lambda text: text.replace('"seed": 1}', '"seed": 18446744073709551616}', 1),
    "negative-20-digit-seed": lambda text: text.replace('"seed": 1}', '"seed": -9223372036854775809}', 1),
    "20-digit-forest-seed": lambda text: text.replace('"forest_seed": 0', '"forest_seed": 10000000000000000000000', 1),
    "20-digit-nested-seed": lambda text: text.replace('"seed": 1}', '"seed": [{"a": 18446744073709551616}]}', 1),
    # A key beyond 64 bits, which orjson reads as a float, alone and in a
    # file that goes to json for its NaN: json reads an int, which no
    # bucket matches.
    "20-digit-key": lambda text: text.replace('"keys": [[1]', '"keys": [[-9223372036854775809]', 1),
    "20-digit-key-and-nan": lambda text: text.replace('"keys": [[1]', '"keys": [[100000000000000000000]', 1)
    .replace('"theta": 0.5', '"theta": 0.5, "x": NaN', 1),
    "lone-surrogate": lambda text: text.replace('"agent_fingerprint": "', '"agent_fingerprint": "\\ud800', 1),
    "bom": lambda text: "\ufeff" + text,
}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), edit=st.sampled_from(sorted(MODEL_EDITS) + ["truncated", "not-utf8"]))
def test_load_model_reads_what_json_reads(data, edit):
    """Where orjson refuses a model file or decodes a value otherwise,
    load_model gives json's model, written back byte for byte, or json's
    message."""
    model = staircase_model(provenance={"agent_fingerprint": "abc", "seed": 1})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        text = path.read_text(encoding="utf-8")
        if edit == "truncated":
            path.write_text(text[: data.draw(st.integers(0, len(text) - 2))], encoding="utf-8")
        elif edit == "not-utf8":
            raw = text.encode("utf-8")
            at = data.draw(st.integers(0, len(raw) - 1))
            path.write_bytes(raw[:at] + b"\xff" + raw[at:])
        else:
            edited = MODEL_EDITS[edit](text)
            assert (edited == text) == (edit == "as-saved")
            path.write_text(edited, encoding="utf-8")
        outcome = load_outcome(load_model, path)
        assert outcome == load_outcome(loaded_by_json, path)
    if edit.endswith("seed"):
        assert outcome == edited.encode("utf-8")  # the integer is written back as it was


def test_watch_stream_protocol():
    model = staircase_model()
    lines = [
        json.dumps({"t": 0, "q": [0.5]}),
        "this is not json",
        json.dumps({"t": 1, "q": [2.5]}),
        json.dumps({"t": 2, "q": [0.5, 0.5]}),  # wrong arity
        json.dumps({"t": 3, "q": [1.5]}),
    ]
    out, err = io.StringIO(), io.StringIO()
    code = watch_stream(model, iter(line + "\n" for line in lines), out, err)
    assert code == 0
    replies = [json.loads(line) for line in out.getvalue().splitlines()]
    assert len(replies) == 3  # one reply per well-formed line
    assert [r["t"] for r in replies] == [0, 1, 3]
    assert replies[0]["fired"] is False
    assert replies[1]["fired"] is True
    assert replies[2]["fired"] is True  # latched across the session
    diagnostics = err.getvalue().splitlines()
    assert len(diagnostics) == 2
    assert "line 2" in diagnostics[0]
    assert diagnostics[1] == (
        "line 4: skipped malformed input: expected 1 Q-values per step, got an array of shape (2,)")


def test_watch_skips_a_q_whose_bucket_index_is_beyond_int64():
    model = staircase_model()
    lines = [json.dumps({"t": t, "q": q}) + "\n" for t, q in enumerate([[0.5], [-1e300], [2.5]])]
    out, err = io.StringIO(), io.StringIO()
    assert watch_stream(model, iter(lines), out, err) == 0
    assert [json.loads(line)["t"] for line in out.getvalue().splitlines()] == [0, 2]
    assert err.getvalue().splitlines() == [
        "line 2: skipped malformed input: Q-value -1e+300 at abstraction level 1.0 "
        "has a bucket index beyond int64",
    ]


def watch_replies(model, ts):
    """The replies and diagnostics of a session sending state 0 at each t."""
    lines = [json.dumps({"t": t, "q": [0.5]}) + "\n" for t in ts]
    out, err = io.StringIO(), io.StringIO()
    assert watch_stream(model, iter(lines), out, err) == 0
    return [json.loads(line) for line in out.getvalue().splitlines()], err.getvalue().splitlines()


def test_watch_reports_gaps_and_regressions_in_t():
    model = staircase_model()
    replies, diagnostics = watch_replies(model, [0, 1, 4, 4, 2, 3])
    assert diagnostics == [
        "line 3: t jumped from 1 to 4",
        "line 4: t repeated 4",
        "line 5: t went back from 4 to 2",
    ]
    # Every line is still assessed, and the replies echo the t sent.
    steady, quiet = watch_replies(model, range(6))
    assert quiet == []
    assert [r["t"] for r in replies] == [0, 1, 4, 4, 2, 3]
    assert [{**r, "t": 0} for r in replies] == [{**r, "t": 0} for r in steady]
    _, diagnostics = watch_replies(model, [2, 3])
    assert diagnostics == ["line 1: t starts at 2, not 0"]
    # Only a JSON integer is a t: any other is a malformed line, skipped
    # without a reply, and the t after it still counts on from 0.
    replies, diagnostics = watch_replies(model, [0, 1.9, True, "2", 1, 2])
    assert [r["t"] for r in replies] == [0, 1, 2]
    assert diagnostics == [
        "line 2: skipped malformed input: t must be a JSON integer, got 1.9",
        "line 3: skipped malformed input: t must be a JSON integer, got true",
        'line 4: skipped malformed input: t must be a JSON integer, got "2"',
    ]


def test_watch_skips_a_q_that_is_not_a_list_of_json_numbers():
    """A string or a bool in `q` is no Q-value, though numpy would read
    "1.5" as 1.5 and true as 1.0."""
    model = staircase_model()
    qs = [[0.5], ["1.5"], [True], [False], 0.5, [[0.5]], [2.5]]
    lines = [json.dumps({"t": t, "q": q}) + "\n" for t, q in enumerate(qs)]
    out, err = io.StringIO(), io.StringIO()
    assert watch_stream(model, iter(lines), out, err) == 0
    assert [json.loads(line)["t"] for line in out.getvalue().splitlines()] == [0, 6]
    assert err.getvalue().splitlines() == [
        'line 2: skipped malformed input: q must be a JSON list of numbers, got ["1.5"]',
        "line 3: skipped malformed input: q must be a JSON list of numbers, got [true]",
        "line 4: skipped malformed input: q must be a JSON list of numbers, got [false]",
        "line 5: skipped malformed input: q must be a JSON list of numbers, got 0.5",
        "line 6: skipped malformed input: q must be a JSON list of numbers, got [[0.5]]",
    ]


def test_watch_skips_a_q_holding_an_integer_beyond_float64():
    """json reads such an integer as an int, which no float64 holds; the
    line is skipped, and the session goes on. The integer is named before
    a wrong width."""
    model = staircase_model()
    big = "1" + "0" * 400
    lines = [
        '{"t": 0, "q": [0.5]}\n',
        '{"t": 1, "q": [%s]}\n' % big,
        '{"t": 2, "q": [-%s]}\n' % big,
        '{"t": 3, "q": [%s, 0.5]}\n' % big,
        '{"t": 4, "q": [2.5]}\n',
    ]
    out, err = io.StringIO(), io.StringIO()
    assert watch_stream(model, iter(lines), out, err) == 0
    assert [json.loads(line)["t"] for line in out.getvalue().splitlines()] == [0, 4]
    assert err.getvalue().splitlines() == [
        f"line {n}: skipped malformed input: q holds an integer beyond float64's range" for n in (2, 3, 4)
    ]


def q_session(model, qs):
    """The t of each reply and the diagnostics of a session whose line t
    sends the JSON text qs[t] as its `q`."""
    code, out, err = watch_outcome(model, ['{"t": %d, "q": %s}' % (t, q) for t, q in enumerate(qs)])
    assert code == 0
    return [json.loads(line)["t"] for line in out.splitlines()], err.splitlines()


def test_watch_names_a_wrong_width_and_a_value_that_is_not_finite():
    replies, diagnostics = q_session(staircase_model(), [
        "[0.5]", "[0.5, 0.5]", "[NaN]", "[Infinity]", "[-Infinity]", "[1e400]", "[2.5]"])
    assert replies == [0, 6]
    assert diagnostics == [
        "line 2: skipped malformed input: expected 1 Q-values per step, got an array of shape (2,)",
        *(f"line {n}: skipped malformed input: Q-values must be finite" for n in (3, 4, 5, 6)),
    ]


def test_watch_names_a_value_that_is_not_finite_before_a_wide_quotient():
    """At d = 1, 1e300 has a bucket index beyond int64 and NaN none at
    all: in one q, the NaN is named, whichever comes first."""
    model = MonitorModel(table=AbstractionTable(d=1.0, index={(1, 1): 0}), forest=forest_of([leaf_tree(0.5)], 1))
    replies, diagnostics = q_session(model, ["[1e300, NaN]", "[NaN, 1e300]", "[1e300, 0.5]", "[0.5, 1]"])
    assert replies == [3]
    assert diagnostics == [
        "line 1: skipped malformed input: Q-values must be finite",
        "line 2: skipped malformed input: Q-values must be finite",
        "line 3: skipped malformed input: Q-value 1e+300 at abstraction level 1.0 has a bucket index beyond int64",
    ]


@pytest.mark.parametrize("depth", [1000, 100_000])
def test_watch_skips_a_line_nested_too_deeply(depth):
    """json decodes, and the wide-float scan reads `q`, one level per
    call: a line 1,000 or more deep ran out of recursion and ended the
    session. It is skipped like any malformed line, and the next is read."""
    model = staircase_model()
    lines = [
        '{"t": 0, "q": [0.5]}\n',
        '{"t": 1, "q": %s}\n' % ("[" * depth + "]" * depth),
        '{"t": 2, "q": [2.5]}\n',
    ]
    out, err = io.StringIO(), io.StringIO()
    assert watch_stream(model, iter(lines), out, err) == 0
    assert [json.loads(line)["t"] for line in out.getvalue().splitlines()] == [0, 2]
    assert err.getvalue().splitlines() == [
        "line 2: skipped malformed input: a value is nested too deeply to read",
        "line 3: t jumped from 0 to 2",
    ]


# Lines that orjson refuses or decodes otherwise than json, and two that
# both read alike: a repeated key and an array.
DECODE_TABLE = {
    "t-2**64": '{"t": 18446744073709551616, "q": [0.5]}',
    "t-below-int64": '{"t": -9223372036854775809, "q": [0.5]}',
    "q-2**70": '{"t": 1, "q": [1180591620717411303424]}',
    "q-2**70-and-a-string": '{"t": 1, "q": [1180591620717411303424, "x"]}',
    "q-dict-2**64": '{"t": 1, "q": {"a": 18446744073709551616}}',
    "nan": '{"t": 1, "q": [NaN]}',
    "1e400": '{"t": 1, "q": [1e400]}',
    "bom": '\ufeff{"t": 1, "q": [0.5]}',
    "lone-surrogate": '{"t": 1, "q": "\\ud800"}',
    "lone-surrogate-elsewhere": '{"t": 1, "q": [2.5], "note": "\\udc00"}',
    "duplicate-t": '{"t": 7, "t": 1, "q": [2.5]}',
    "array": '[{"t": 1, "q": [0.5]}]',
}


def watch_outcome(model, lines):
    out, err = io.StringIO(), io.StringIO()
    code = watch_stream(model, iter(line + "\n" for line in lines), out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(DECODE_TABLE))
def test_watch_reads_each_line_as_json_does(name):
    """Each line, between two good ones, gives the replies and diagnostics
    of a session whose lines are all decoded with json.loads."""
    import orjson

    model = staircase_model()
    lines = ['{"t": 0, "q": [0.5]}', DECODE_TABLE[name], '{"t": 2, "q": [1.5]}']
    got = watch_outcome(model, lines)
    with mock.patch.object(orjson, "loads", json.loads):
        want = watch_outcome(model, lines)
    assert got == want
    assert got[1].count("\n") >= 2


@settings(max_examples=200, deadline=None)
@given(
    t=st.one_of(st.sampled_from([0, 2**63, 2**64, -1, -(2**63) - 1, -(2**64)]), st.integers()),
    p=st.lists(
        st.one_of(
            st.floats(0.0, 1.0),
            st.sampled_from([5e-324, 1e-05, 9.999999999999999e-05, 1e-4, -0.0, 1.0]),
        ),
        min_size=3,
        max_size=3,
    ),
    fired=st.booleans(),
    unseen=st.booleans(),
)
def test_watch_reply_has_json_dumps_bytes(t, p, fired, unseen):
    """The reply template writes what json.dumps writes for the same dict."""
    mean, low, up = p
    assessment = StepAssessment(
        t=0, summary=ProbabilitySummary(mean, 0.0, low, up), fired=fired, unseen_alert=unseen
    )
    out = io.StringIO()
    with mock.patch.object(monitor_module, "observe", lambda *args: assessment):
        line = json.dumps({"t": t, "q": [0.5]}) + "\n"
        assert watch_stream(staircase_model(), iter([line]), out, io.StringIO()) == 0
    want = {"t": t, "p": mean, "low": low, "up": up, "fired": fired, "unseen": unseen}
    assert out.getvalue() == json.dumps(want) + "\n"


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    mode=st.sampled_from(FeatureMode),
    criterion=st.sampled_from(Criterion),
    unseen=st.sampled_from(UnseenPolicy),
)
def test_model_file_round_trip_property(data, mode, criterion, unseen):
    """load_model(save_model(m)) holds the same table, in id order, and the
    model and its reloaded copy give the reference's answers for the saved
    document: on the Q-values the table was built from, and on feature rows."""
    width = data.draw(st.integers(1, 3))
    q = st.floats(-50.0, 50.0, allow_subnormal=False)
    steps = data.draw(st.lists(st.lists(q, min_size=width, max_size=width), min_size=1, max_size=30))
    d = data.draw(st.sampled_from([0.25, 1.0, 3.0]))
    table = AbstractionTable.build(make_set([make_episode(steps)]), d)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    high = 2 if mode is FeatureMode.BINARY else 4
    x = rng.integers(0, high, size=(12, table.n)).astype(np.float32)
    y = np.arange(12) % 2  # both classes
    forest = train_forest(x, y, 5, seed=int(rng.integers(1000)))
    model = MonitorModel(
        table=table, forest=forest, mode=mode, criterion=criterion,
        theta=data.draw(st.floats(0.01, 0.99)), unseen_policy=unseen,
        provenance={"agent_fingerprint": None, "d": d, "seed": 1, "episodes": 1},
    )
    doc, restored = saved_and_loaded(model)
    assert list(restored.table.index.items()) == list(table.index.items())
    assert restored.table.d == d
    assert (restored.mode, restored.criterion, restored.unseen_policy) == (mode, criterion, unseen)
    assert restored.theta == model.theta and restored.provenance == model.provenance
    assert (restored.forest.n_trees, restored.forest.seed) == (forest.n_trees, forest.seed)
    assert_monitor_matches_reference(model, [np.array(steps), np.array(steps[::-1]) + d / 2])
    probes = np.vstack([x, rng.integers(0, high + 1, size=(8, table.n))])
    for scored in (forest, restored.forest):
        assert_rows_match_reference(scored, doc["forest"], probes)
