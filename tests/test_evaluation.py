import csv
import math
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_episode, make_set, two_band_corpus
from safemon.abstraction import AbstractionTable, FeatureMode, episode_feature_matrix
from safemon import evaluation
from safemon.dataset import Label
from safemon.evaluation import (
    Confusion,
    DecisionTimeStats,
    MetricsRow,
    SweepReport,
    SweepRow,
    _confusions,
    _metrics_row,
    decision_time_stats,
    decision_stats_json,
    macro_f1,
    metrics_over_time,
    select_level,
    sweep,
    write_metrics_csv,
    write_sweep_csv,
    write_traces_csv,
)
from safemon.forest import BatchSummary, train_forest
from safemon.abstraction import UnseenPolicy
from safemon.monitor import Criterion, DecisionTrace, MonitorModel, run_trace


def trace(fire_step, length):
    """A trace for the metrics, which read only the fire step and length."""
    return DecisionTrace(
        series=None, first_fire_step=fire_step, episode_length=length, stop_hit=False
    )


U, S = Label.UNSAFE, Label.SAFE


def test_metrics_hand_computed_four_episode_example():
    # labels [U,S,S,U], end-of-episode predictions [U,U,S,U]:
    # tp=2 fp=1 tn=1 fn=0; unsafe P=2/3 R=1 F1=0.8; safe P=1 R=1/2 F1=2/3.
    traces = [trace(3, 10), trace(0, 10), trace(None, 10), trace(5, 10)]
    labels = [U, S, S, U]
    rows = metrics_over_time(traces, labels)
    assert len(rows) == 10  # the horizon is the longest episode
    # A label may also be given as its string value.
    assert metrics_over_time(traces, [label.value for label in labels]) == rows
    last = rows[-1]
    assert last.confusion.tp == 2
    assert last.confusion.fp == 1
    assert last.confusion.tn == 1
    assert last.confusion.fn == 0
    assert last.f1_macro == pytest.approx((0.8 + 2.0 / 3.0) / 2.0, abs=1e-9)
    assert last.f1_macro == pytest.approx(0.73333333333, abs=1e-9)
    # balanced support, so weighted must equal macro exactly
    assert last.f1_weighted == pytest.approx(last.f1_macro, abs=1e-12)
    assert last.precision_weighted == pytest.approx((2.0 / 3.0 + 1.0) / 2.0, abs=1e-9)
    assert last.recall_weighted == pytest.approx(0.75, abs=1e-9)


def test_metrics_all_correct_is_one():
    traces = [trace(2, 8), trace(None, 8), trace(0, 8), trace(None, 8)]
    labels = [U, S, U, S]
    last = metrics_over_time(traces, labels)[-1]
    assert last.f1_macro == 1.0
    assert last.f1_weighted == 1.0
    assert last.precision_weighted == 1.0
    assert last.recall_weighted == 1.0


def test_metrics_latched_prediction_over_time():
    rows = metrics_over_time([trace(3, 5), trace(None, 8)], [U, S])
    assert len(rows) == 8
    # before step 3 the unsafe episode is predicted safe
    assert rows[2].confusion.fn == 1
    # from step 3 onward (including past termination) it stays unsafe
    for t in range(3, 8):
        assert rows[t].confusion.tp == 1
    for row in rows:
        c = row.confusion
        assert c.tp + c.fp + c.tn + c.fn == 2


def test_metrics_weighted_equals_macro_on_balanced_sets():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 30)) * 2
        labels = [U] * (n // 2) + [S] * (n // 2)
        traces = [
            trace(int(rng.integers(0, 6)) if rng.random() < 0.6 else None, 6)
            for _ in range(n)
        ]
        last = metrics_over_time(traces, labels)[-1]
        assert last.f1_weighted == pytest.approx(last.f1_macro, abs=1e-12)


def test_metrics_bounds_and_confusion_sum():
    rng = np.random.default_rng(2)
    n = 40
    labels = [U if rng.random() < 0.3 else S for _ in range(n)]
    traces = [
        trace(int(rng.integers(0, 10)) if rng.random() < 0.5 else None, int(rng.integers(5, 12)))
        for _ in range(n)
    ]
    for row in metrics_over_time(traces, labels):
        c = row.confusion
        assert c.tp + c.fp + c.tn + c.fn == n
        for v in (row.precision_weighted, row.recall_weighted, row.f1_weighted, row.f1_macro):
            assert 0.0 <= v <= 1.0


def test_macro_f1_zero_over_zero_is_zero():
    assert macro_f1([True, False], [False, False]) == pytest.approx(
        (0.0 + 2 * 0.5 * 1.0 / 1.5) / 2.0
    )
    assert macro_f1([True], [False]) == 0.0


def test_degenerate_level_hits_majority_baseline():
    rng = np.random.default_rng(5)
    episodes = [
        make_episode(rng.uniform(1, 3, size=(5, 2)), unsafe=i < 8) for i in range(40)
    ]
    corpus = make_set(episodes)
    n_unsafe, n_safe = 8, 32
    p_neg = n_safe / (n_safe + n_unsafe)
    # No episode fires, so the macro F1 is the majority baseline: unsafe
    # F1 0 (a 0/0), safe precision 32/40 at recall 1.
    baseline = (0.0 + 2 * p_neg * 1.0 / (p_neg + 1.0)) / 2.0
    # Levels so coarse that every state collapses into one bucket.
    for d in (1e9, 2e9):
        model = fitted_model(corpus, d=d)
        assert model.table.n == 1
        traces, labels = replay(model, corpus)
        assert all(t.first_fire_step is None for t in traces)
        rows = metrics_over_time(traces, labels)
        assert len(rows) == 5
        for row in rows:
            assert row.confusion == Confusion(tp=0, fp=0, tn=n_safe, fn=n_unsafe)
            assert row.f1_macro == pytest.approx(baseline, abs=1e-12)


def test_decision_time_stats_single_episode():
    stats = decision_time_stats([trace(4, 10)], [U])
    assert stats.decision_step_min == stats.decision_step_avg == stats.decision_step_max == 4
    assert stats.remaining_avg == 5
    assert stats.fraction_avg == 0.5
    assert stats.fp_count == 0


def test_decision_time_stats_mixed():
    traces = [trace(2, 10), trace(6, 20), trace(1, 8), trace(None, 10)]
    labels = [U, U, S, U]
    stats = decision_time_stats(traces, labels)
    assert stats.fp_count == 1
    assert stats.decision_step_min == 2
    assert stats.decision_step_max == 6
    assert stats.decision_step_avg == 4
    assert stats.remaining_min == 7  # 10-1-2
    assert stats.remaining_max == 13  # 20-1-6
    assert stats.fraction_min == pytest.approx(13 / 20)
    assert stats.fraction_max == pytest.approx(7 / 10)


def test_decision_time_stats_no_true_positives():
    stats = decision_time_stats([trace(1, 5), trace(None, 5)], [S, U])
    assert stats.decision_step_avg is None
    assert stats.remaining_avg is None
    assert stats.fraction_avg is None
    assert stats.fp_count == 1


def reference_decision_time_stats(traces, labels) -> DecisionTimeStats:
    """Reference: one trace at a time, in Python numbers."""
    fp_count = 0
    steps, remaining, fractions = [], [], []
    for trace, label in zip(traces, labels):
        if trace.first_fire_step is None:
            continue
        if label is not U:
            fp_count += 1
            continue
        fire = trace.first_fire_step
        length = trace.episode_length
        steps.append(fire)
        remaining.append(length - 1 - fire)
        fractions.append((length - 1 - fire) / length)

    def stats(values):
        if not values:
            return None, None, None
        return float(min(values)), float(np.mean(values)), float(max(values))

    return DecisionTimeStats(*stats(steps), *stats(remaining), *stats(fractions), fp_count)


@st.composite
def fired_episodes(draw):
    """(traces, labels): lengths 1-400 and a fire step inside the episode
    or none; some draws have no unsafe episode or no fire at all."""
    n = draw(st.integers(1, 40))
    never, only_safe = draw(st.booleans()), draw(st.booleans())
    traces, labels = [], []
    for _ in range(n):
        length = draw(st.integers(1, 400))
        fire = None if never else draw(st.none() | st.integers(0, length - 1))
        traces.append(trace(fire, length))
        labels.append(S if only_safe else draw(st.sampled_from([U, S])))
    return traces, labels


@settings(max_examples=300, deadline=None)
@given(fired_episodes())
def test_decision_time_stats_match_reference_loop(episodes):
    traces, labels = episodes
    got = decision_time_stats(traces, labels)
    want = reference_decision_time_stats(traces, labels)
    for field in fields(DecisionTimeStats):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b), field.name
        assert (a.hex() == b.hex()) if isinstance(a, float) else a == b, field.name


@settings(max_examples=100, deadline=None)
@given(fired_episodes())
def test_metrics_over_time_equals_scoring_every_step(episodes):
    """Scoring each distinct confusion once gives, field for field, the
    rows of scoring every step's confusion on its own, up to the longest
    episode."""
    traces, labels = episodes
    horizon = max(t.episode_length for t in traces)
    fire = np.array([math.inf if t.first_fire_step is None else t.first_fire_step
                     for t in traces])
    unsafe = np.array([label is U for label in labels])
    want = [_metrics_row(c, t)
            for t, c in enumerate(_confusions(fire, unsafe, np.arange(horizon)))]
    got = metrics_over_time(traces, labels)
    assert len(got) == horizon
    for a, b in zip(got, want):
        for field in fields(MetricsRow):
            x, y = getattr(a, field.name), getattr(b, field.name)
            assert type(x) is type(y) and x == y, (a.t, field.name)


# The report writers as they were before one % call formatted each block
# of rows: csv.writer over columns of cells. The writers must give these
# bytes.
def oracle_shifted(values, time_base):
    if not time_base:
        return values
    return [None if v is None else v + time_base for v in values]


def oracle_cells(values, time_base=0):
    return [f"{v:.6f}" if isinstance(v, float) else "" if v is None else v
            for v in oracle_shifted(values, time_base)]


def oracle_write_csv(path, header, columns, note=""):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(note)
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


NOTE = "# undefined 0/0 ratios reported as 0; unsafe is the positive class\n"
SCORES = ("precision_weighted", "recall_weighted", "f1_weighted", "f1_macro")
COUNTS = ("tp", "fp", "tn", "fn")
SPREADS = ("decision_step", "remaining", "fraction")


def oracle_metrics_csv(rows, path, time_base):
    oracle_write_csv(
        path,
        ["t", *SCORES, *COUNTS],
        [oracle_cells([r.t for r in rows], time_base)]
        + [oracle_cells([getattr(r, name) for r in rows]) for name in SCORES]
        + [[getattr(r.confusion, name) for r in rows] for name in COUNTS],
        NOTE,
    )


def oracle_sweep_csv(report, path, time_base):
    rows = report.rows
    scores = ("f1_macro", "f1_weighted", "precision_weighted", "recall_weighted")

    def spread(stats, name):
        values = [getattr(stats, f"{name}_{part}") for part in ("min", "avg", "max")]
        return oracle_shifted(values, time_base if name == "decision_step" else 0)

    spreads = [[v for name in SPREADS for v in spread(r.stats, name)] for r in rows]
    oracle_write_csv(
        path,
        ["criterion", "theta", *scores, *COUNTS, "fn_count", "fp_count",
         *(f"{name}_{part}" for name in SPREADS for part in ("min", "avg", "max"))],
        [[r.criterion.value for r in rows], [r.theta for r in rows]]
        + [oracle_cells([getattr(r.metrics, name) for r in rows]) for name in scores]
        + [[getattr(r.metrics.confusion, name) for r in rows] for name in COUNTS]
        + [[r.fn_count for r in rows], [r.stats.fp_count for r in rows]]
        + [oracle_cells(column) for column in zip(*spreads)],
        NOTE,
    )


def oracle_traces_csv(traces, labels, path, time_base):
    episode, name, step, fired, series = [], [], [], [], []
    for i, (trace, label) in enumerate(zip(traces, labels)):
        n = len(trace.series.mean)
        fire = n if trace.first_fire_step is None else trace.first_fire_step
        episode += [i] * n
        name += [label.value if isinstance(label, Label) else label] * n
        step += range(n)
        fired += [0] * fire + [1] * (n - fire)
        series.append(trace.series)
    probabilities = [
        oracle_cells([v for s in series for v in getattr(s, column).tolist()])
        for column in ("mean", "low", "up")
    ]
    oracle_write_csv(
        path,
        ["episode", "label", "t", "p", "low", "up", "fired"],
        [episode, name, oracle_cells(step, time_base), *probabilities, fired],
    )


# Floats that %.6f formats at its edges: signed zero, NaN, infinities,
# halfway cases at the sixth decimal and huge magnitudes.
_edge_floats = st.sampled_from(
    [-0.0, math.nan, math.inf, -math.inf, 5e-7, -5e-7, 2.5e-6, 1.5e-6, 0.0000015,
     0.1234565, 0.9999995, 1e300, -1e300, 1e-300, 5e-324]
)
_floats = st.floats() | _edge_floats
_counts = st.integers(0, 10**6)
# Labels: the enum, any text, text of the characters csv quotes for, and a
# str enum that is no Label (written as its value, not as its str).
_labels = (st.sampled_from(list(Label)) | st.text(max_size=6) | st.text(',"\r\n a', max_size=6)
           | st.sampled_from(list(Criterion)))


_metrics_row_values = st.builds(
    MetricsRow, st.integers(0, 10**4), _floats, _floats, _floats, _floats,
    st.builds(Confusion, _counts, _counts, _counts, _counts),
)
_spread = st.none() | _floats | st.integers(0, 500)  # hand-built stats may hold ints
_sweep_reports = st.builds(
    SweepReport,
    rows=st.lists(st.builds(
        SweepRow, st.sampled_from(list(Criterion)), _floats, _metrics_row_values,
        st.builds(DecisionTimeStats, *[_spread] * 9, fp_count=_counts), _counts,
    ), max_size=4),
    horizon=st.integers(1, 500),
)


@st.composite
def labelled_traces(draw):
    traces, labels = [], []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(1, 6))
        mean, low, up = (np.array(draw(st.lists(_floats, min_size=n, max_size=n)))
                         for _ in range(3))
        fire = draw(st.none() | st.integers(0, n))
        traces.append(DecisionTrace(BatchSummary(mean, np.zeros(n), low, up), fire, n, False))
        labels.append(draw(_labels))
    return traces, labels


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=100, deadline=None)
@given(data=st.data(), time_base=st.sampled_from([0, 1]), block_rows=st.integers(1, 8))
def test_report_writers_give_the_bytes_of_csv_writer(data, time_base, block_rows, csv_dir):
    """Any block size, down to one row per % call, gives the same bytes."""
    rows = data.draw(st.lists(_metrics_row_values, max_size=6))
    report = data.draw(_sweep_reports)
    traces, labels = data.draw(labelled_traces())
    for write, oracle, args in (
        (write_metrics_csv, oracle_metrics_csv, (rows,)),
        (write_sweep_csv, oracle_sweep_csv, (report,)),
        (write_traces_csv, oracle_traces_csv, (traces, labels)),
    ):
        got, want = csv_dir / "got.csv", csv_dir / "want.csv"
        with mock.patch.object(evaluation, "_BLOCK_ROWS", block_rows):
            write(*args, got, time_base=time_base)
        oracle(*args, want, time_base)
        assert got.read_bytes() == want.read_bytes(), write.__name__


def test_traces_csv_quotes_labels_as_csv_does(tmp_path):
    traces = [DecisionTrace(BatchSummary(*(np.array([0.5]),) * 4), None, 1, False)] * 4
    labels = ['a,b', 'say "hi"', "two\nlines", "cr\r"]
    path = tmp_path / "traces.csv"
    write_traces_csv(traces, labels, path)
    with open(path, encoding="utf-8", newline="") as fh:
        assert [row[1] for row in csv.reader(fh)][1:] == labels


def test_evaluation_rejects_bad_input_with_one_message():
    calls = {
        "metrics_over_time": metrics_over_time,
        "sweep": lambda tr, lb: sweep(tr, lb, [Criterion.UPPER_BOUND], [0.5]),
        "decision_time_stats": decision_time_stats,
    }
    for call in calls.values():
        with pytest.raises(ValueError, match="^need at least one trace$"):
            call([], [])
        with pytest.raises(ValueError, match="^traces and labels disagree on episode count$"):
            call([trace(1, 4), trace(None, 4)], [U])


def fitted_model(corpus, d=1.0, mode=FeatureMode.BINARY, **kwargs):
    table = AbstractionTable.build(corpus, d)
    x = episode_feature_matrix(table.corpus_ids, table.n, mode)
    y = np.array([e.label is U for e in corpus.episodes], dtype=int)
    forest = train_forest(x, y, 25, seed=3)
    return MonitorModel(table=table, forest=forest, mode=mode, **kwargs)


def replay(model, corpus):
    """Traces and labels of a corpus, as evaluate computes them."""
    traces = [run_trace(model, e.qs) for e in corpus.episodes]
    return traces, [e.label for e in corpus.episodes]


def test_sweep_grid_and_monotonicity():
    corpus = two_band_corpus(n_per_class=30, steps=6)
    model = fitted_model(corpus)
    traces, labels = replay(model, corpus)
    report = sweep(traces, labels, [Criterion.UPPER_BOUND], [0.25, 0.5, 0.75])
    assert len(report.rows) == 3
    fps = [row.stats.fp_count for row in report.rows]
    fns = [row.fn_count for row in report.rows]
    assert fps[0] >= fps[1] >= fps[2]
    assert fns[0] <= fns[1] <= fns[2]
    steps = [row.stats.decision_step_avg for row in report.rows]
    present = [s for s in steps if s is not None]
    assert present == sorted(present)

    full = sweep(traces, labels, list(Criterion), [0.25, 0.5, 0.75])
    assert len(full.rows) == 9


def test_sweep_rows_equal_replays_under_their_own_rule():
    rng = np.random.default_rng(31)
    corpus = make_set(
        [make_episode(rng.uniform(0, 8, size=(int(rng.integers(4, 12)), 2)), unsafe=i % 3 == 0)
         for i in range(30)]
    )
    model = fitted_model(corpus, d=2.0)
    traces, labels = replay(model, corpus)
    report = sweep(traces, labels, list(Criterion), [0.25, 0.5, 0.75])
    assert report.horizon == max(e.length for e in corpus.episodes)
    for row in report.rows:
        own = replay(replace(model, criterion=row.criterion, theta=row.theta), corpus)[0]
        assert row.metrics == metrics_over_time(own, labels)[-1]
        assert row.stats == decision_time_stats(own, labels)
    # The grid is not degenerate: the rules disagree on these episodes.
    assert len({(r.stats.decision_step_avg, r.stats.fp_count) for r in report.rows}) > 3


def test_sweep_matches_run_trace_under_stop_policy():
    # Unsafe episodes differ from safe ones only by reaching Q = 9.5.
    safe, unseen, alarm = 4.5, 20.0, 9.5
    train = make_set(
        [make_episode(np.full((4, 1), safe)) for _ in range(10)]
        + [make_episode(np.array([[safe], [safe], [alarm], [alarm]]), unsafe=True)
           for _ in range(10)]
    )
    model = fitted_model(train, unseen_policy=UnseenPolicy.STOP)
    test = make_set(
        [
            # The stop policy freezes this safe episode before the alarm state.
            make_episode(np.array([[safe], [unseen], [alarm], [alarm]])),
            make_episode(np.array([[safe], [alarm], [unseen], [alarm]]), unsafe=True),
            make_episode(np.full((4, 1), safe)),
            make_episode(np.array([[safe], [safe], [alarm], [alarm]]), unsafe=True),
        ]
    )
    traces, labels = replay(model, test)
    assert [len(t.assessments) for t in traces] == [2, 3, 4, 4]
    assert [t.stop_hit for t in traces] == [True, True, False, False]
    horizon_row = metrics_over_time(traces, labels)[-1]
    stats = decision_time_stats(traces, labels)
    assert (horizon_row.confusion.tp, horizon_row.confusion.fp) == (2, 0)

    (row,) = sweep(traces, labels, [model.criterion], [model.theta]).rows
    assert row.metrics == horizon_row
    assert row.stats == stats


def test_sweep_rejects_empty_grid():
    corpus = two_band_corpus()
    traces, labels = replay(fitted_model(corpus), corpus)
    with pytest.raises(ValueError):
        sweep(traces, labels, [], [0.5])
    with pytest.raises(ValueError):
        sweep(traces, labels[1:], [Criterion.UPPER_BOUND], [0.5])


def test_csv_emission(tmp_path):
    corpus = two_band_corpus(n_per_class=10, steps=4)
    traces, labels = replay(fitted_model(corpus), corpus)
    report = sweep(traces, labels, [Criterion.UPPER_BOUND], [0.5])
    sweep_path = tmp_path / "sweep.csv"
    write_sweep_csv(report, sweep_path)
    with open(sweep_path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    assert len(rows) == 1
    assert rows[0]["criterion"] == "upper_bound"

    metrics = metrics_over_time(traces, labels)
    metrics_path = tmp_path / "metrics.csv"
    write_metrics_csv(metrics, metrics_path, time_base=1)
    with open(metrics_path, encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    assert [r["t"] for r in rows] == ["1", "2", "3", "4"]  # presentation offset


def test_traces_csv_rows_are_the_assessments(tmp_path):
    train = two_band_corpus(n_per_class=10, steps=4)
    model = fitted_model(train, unseen_policy=UnseenPolicy.STOP)
    # Mixed lengths, an episode cut by the stop policy, and one never fired.
    test = make_set(
        [
            make_episode(np.array([[9.5], [9.5], [9.5]]), unsafe=True),
            make_episode(np.array([[4.5], [20.0], [9.5], [9.5]])),
            make_episode(np.array([[4.5], [4.5]])),
        ]
    )
    traces, labels = replay(model, test)
    path = tmp_path / "traces.csv"
    write_traces_csv(traces, labels, path, time_base=1)
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    want = [
        {
            "episode": str(i), "label": label.value, "t": str(a.t + 1),
            "p": f"{a.summary.mean:.6f}", "low": f"{a.summary.low:.6f}",
            "up": f"{a.summary.up:.6f}", "fired": str(int(a.fired)),
        }
        for i, (trace, label) in enumerate(zip(traces, labels))
        for a in trace.assessments
    ]
    assert [len(t.assessments) for t in traces] == [3, 2, 2]
    assert {r["fired"] for r in rows} == {"0", "1"}
    assert rows == want


def test_decision_stats_json_shape():
    stats = DecisionTimeStats(1, 2.0, 3, 4, 5.0, 6, 0.1, 0.2, 0.3, fp_count=7)
    doc = decision_stats_json(stats, Criterion.UPPER_BOUND, 0.5)
    assert doc["criterion"] == "upper_bound"
    assert doc["decision_time_step"] == {"min": 1, "avg": 2.0, "max": 3}
    assert doc["remaining_time_steps"] == {"min": 4, "avg": 5.0, "max": 6}
    assert doc["remaining_fraction"] == {"min": 0.1, "avg": 0.2, "max": 0.3}
    assert doc["fp"] == 7


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


def test_select_level_requires_two_candidates():
    corpus = two_band_corpus()
    with pytest.raises(ValueError):
        select_level(corpus, [1.0], inner_split_seed=0)
