import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_episode, make_set, two_band_corpus
from safemon.abstraction import AbstractionTable, FeatureMode, episode_feature_matrix
from safemon.dataset import Label
from safemon.evaluation import (
    Confusion,
    DecisionTimeStats,
    decision_time_stats,
    decision_stats_json,
    macro_f1,
    metrics_over_time,
    sweep,
    write_metrics_csv,
    write_sweep_csv,
    write_traces_csv,
)
from safemon.forest import ForestConfig, train_forest
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
    rows = metrics_over_time(traces, labels, horizon=10)
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
    last = metrics_over_time(traces, labels, horizon=8)[-1]
    assert last.f1_macro == 1.0
    assert last.f1_weighted == 1.0
    assert last.precision_weighted == 1.0
    assert last.recall_weighted == 1.0


def test_metrics_latched_prediction_over_time():
    rows = metrics_over_time([trace(3, 5), trace(None, 5)], [U, S], horizon=8)
    # before step 3 the unsafe episode is predicted safe
    assert rows[2].confusion.fn == 1
    # from step 3 onward (including past termination) it stays unsafe
    for t in range(3, 8):
        assert rows[t].confusion.tp == 1
    for row in rows:
        assert row.confusion.total == 2


def test_metrics_weighted_equals_macro_on_balanced_sets():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(2, 30)) * 2
        labels = [U] * (n // 2) + [S] * (n // 2)
        traces = [
            trace(int(rng.integers(0, 6)) if rng.random() < 0.6 else None, 6)
            for _ in range(n)
        ]
        last = metrics_over_time(traces, labels, horizon=6)[-1]
        assert last.f1_weighted == pytest.approx(last.f1_macro, abs=1e-12)


def test_metrics_bounds_and_confusion_sum():
    rng = np.random.default_rng(2)
    n = 40
    labels = [U if rng.random() < 0.3 else S for _ in range(n)]
    traces = [
        trace(int(rng.integers(0, 10)) if rng.random() < 0.5 else None, int(rng.integers(5, 12)))
        for _ in range(n)
    ]
    for row in metrics_over_time(traces, labels, horizon=12):
        assert row.confusion.total == n
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
        rows = metrics_over_time(traces, labels, horizon=5)
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


def fitted_model(corpus, d=1.0, mode=FeatureMode.BINARY, **kwargs):
    table = AbstractionTable.build(corpus, d)
    x = episode_feature_matrix(corpus.episodes, table, mode)
    y = np.array([e.label is U for e in corpus.episodes], dtype=int)
    forest = train_forest(x, y, ForestConfig(n_trees=25), seed=3)
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
        assert row.metrics == metrics_over_time(own, labels, report.horizon)[-1]
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
    horizon_row = metrics_over_time(traces, labels, 4)[-1]
    stats = decision_time_stats(traces, labels)
    assert (horizon_row.confusion.tp, horizon_row.confusion.fp) == (2, 0)

    (row,) = sweep(traces, labels, [model.criterion], [model.theta], horizon=4).rows
    assert row.metrics == horizon_row
    assert row.stats == stats


def test_sweep_rejects_empty_grid():
    corpus = two_band_corpus()
    traces, labels = replay(fitted_model(corpus), corpus)
    with pytest.raises(ValueError):
        sweep(traces, labels, [], [0.5])
    with pytest.raises(ValueError):
        sweep(traces, labels[1:], [Criterion.UPPER_BOUND], [0.5])
    with pytest.raises(ValueError):
        sweep(traces, labels, [Criterion.UPPER_BOUND], [0.5], horizon=0)


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

    metrics = metrics_over_time(traces, labels, horizon=4)
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
