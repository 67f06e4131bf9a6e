"""Tests of the benchmark's own arithmetic and generator."""

import os
import tempfile

import corpus
import workloads
from series import quartiles
from spans import Tracer, beyond, min_samples, percentile, self_times


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]


def test_tracer_nests_spans_and_groups_them_by_name():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0, 6.0, 10.0]))
    root = tracer.open("cli")
    for _ in range(2):
        tracer.close(tracer.open("forest.predict"))
    tracer.close(root)
    spans = tracer.by_name()
    assert spans["forest.predict"]["total"] == [2.0, 2.0]
    assert spans["cli"]["self"] == [6.0]
    assert list(tracer.parent) == [-1, 0, 0]


def test_tracer_inside_sees_open_spans_only():
    tracer = Tracer(clock=FakeClock(range(10)))
    outer = tracer.open("monitor.run_trace")
    assert tracer.inside(["monitor.run_trace"])
    tracer.close(outer)
    assert not tracer.inside(["monitor.run_trace"])


def test_percentile_matches_linear_interpolation():
    values = list(range(1, 11))
    assert percentile(values, 50) == 5.5
    assert percentile(values, 0) == 1
    assert percentile(values, 100) == 10
    assert abs(percentile(values, 99) - 9.91) < 1e-12


def test_ten_samples_beyond_the_percentile():
    assert min_samples(99) == 1000
    assert min_samples(50) == 20
    assert beyond(range(min_samples(99)), 99) >= 10
    assert beyond(range(min_samples(90)), 90) >= 10
    assert beyond(range(100), 99) < 10


def test_figure_sums_the_scaled_median_of_each_part():
    w = workloads.Workload(None, 1)
    w.primary, w.secondary = ("a_ms", "ms", 1.0), ("b_ms", "ms", 1.0)
    for x in range(1, 11):
        w.sample("primary", x / 1e3, 2.0, "cartpole")
        w.sample("primary", x / 1e2, 2.0, "mountaincar")
        w.sample("secondary", x / 1e3, 0.5)
    primary, secondary = w.metrics()
    assert abs(primary - 2.0 * (5.5 + 55.0)) < 1e-9
    assert abs(secondary - 0.5 * 5.5) < 1e-9
    assert abs(w.info["a_ms_raw_p50"] - (5.5 + 55.0)) < 1e-9  # unscaled, printed beside
    assert w.info["a_ms_samples"] == 10


def test_bracket_scales_by_the_mean_reading_around_the_work(monkeypatch):
    readings = iter([2e-3, 1e-3, 3e-3])
    monkeypatch.setattr(workloads, "reference_s", lambda: next(readings))
    bracket = workloads.Bracket()
    assert abs(bracket.scale() - workloads.REFERENCE_S / 1.5e-3) < 1e-12
    assert abs(bracket.scale() - workloads.REFERENCE_S / 2e-3) < 1e-12
    assert bracket.readings == [1e-3, 3e-3]


def test_quartiles_of_ten_runs():
    assert quartiles([float(v) for v in range(1, 11)]) == (2.75, 5.5, 8.25)


def test_generator_is_byte_stable_per_seed():
    def written(seed):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "c.jsonl")
            corpus.write_jsonl(corpus.corpus(seed, "train", 12), path)
            with open(path, "rb") as fh:
                return fh.read()

    assert written(3) == written(3)
    assert written(3) != written(4)


def test_generator_properties():
    train, test = corpus.corpus(5, "train", 100), corpus.corpus(5, "test", 20)
    props = corpus.properties(train, test)
    assert props["unsafe_share"] == 0.1
    assert 0.3 < props["first_visit_share"] < 0.8
    assert 190 < props["mean_length"] <= 200
