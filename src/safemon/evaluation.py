"""Evaluation harness: per-time-step classification metrics, decision-time
statistics over true positives, and criterion/threshold sweeps.

Every figure comes from one set of per-episode arrays: the fire step
(inf for an episode that never fired), the length and the label. An
episode's prediction at time t is its latched fired status at
min(t, length - 1): episodes that already terminated keep their final
prediction. The horizon is the longest episode's length, so the last
step scored, horizon - 1, is the one at which every episode has ended.
Undefined 0/0 precision or recall ratios are reported as 0.

select_level picks `select-d`'s abstraction level: by the end-of-episode
macro F1 of a forest per level, then by `sweep`'s figures for the latched
monitors of the levels in range. It sits above the modules it drives.

The three CSV reports go through one writer, `_write_csv`, which gives
the bytes of csv.writer's excel dialect. Each column comes with its
format: %d for integers, %.6f for floats, %s for text. A block of rows is
formatted by one % call, the row format repeated once per row, over the
block's cells in row order. Text cells come from one formatter, `_cells`
(None as a blank, floats as %.6f), or its `_text`, which quotes a string
holding a comma, a quote or a line break as csv.writer does.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import chain, islice
from typing import Optional, Sequence

import numpy as np

from .abstraction import AbstractionTable, FeatureMode, episode_feature_matrix
from .dataset import Label, require_both_classes, save_document, split
from .forest import predict, predict_batch, train_forest
from .monitor import (
    Criterion,
    DecisionTrace,
    MonitorModel,
    criterion_holds,
    first_fire_step,
    run_traces,
)
from .seeding import derive_seed


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass(frozen=True)
class MetricsRow:
    t: int
    precision_weighted: float
    recall_weighted: float
    f1_weighted: float
    f1_macro: float
    confusion: Confusion


@dataclass(frozen=True)
class DecisionTimeStats:
    """Decision-step statistics over true positives; None when there are none."""

    decision_step_min: Optional[float]
    decision_step_avg: Optional[float]
    decision_step_max: Optional[float]
    remaining_min: Optional[float]
    remaining_avg: Optional[float]
    remaining_max: Optional[float]
    fraction_min: Optional[float]
    fraction_avg: Optional[float]
    fraction_max: Optional[float]
    fp_count: int


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _f1(precision: float, recall: float) -> float:
    return _ratio(2.0 * precision * recall, precision + recall)


def _prf_both_classes(c: Confusion):
    p_pos = _ratio(c.tp, c.tp + c.fp)
    r_pos = _ratio(c.tp, c.tp + c.fn)
    p_neg = _ratio(c.tn, c.tn + c.fn)
    r_neg = _ratio(c.tn, c.tn + c.fp)
    return (p_pos, r_pos, _f1(p_pos, r_pos)), (p_neg, r_neg, _f1(p_neg, r_neg))


def macro_f1(labels_unsafe, predictions_unsafe) -> float:
    """Unweighted mean of the per-class F1 scores (unsafe = positive)."""
    y = np.asarray(labels_unsafe, dtype=bool)
    pred = np.asarray(predictions_unsafe, dtype=bool)
    c = Confusion(
        tp=int(np.sum(pred & y)),
        fp=int(np.sum(pred & ~y)),
        tn=int(np.sum(~pred & ~y)),
        fn=int(np.sum(~pred & y)),
    )
    (_, _, f1_pos), (_, _, f1_neg) = _prf_both_classes(c)
    return (f1_pos + f1_neg) / 2.0


def _fire_array(steps) -> np.ndarray:
    return np.array([math.inf if step is None else step for step in steps], dtype=np.float64)


def _episode_arrays(traces: Sequence[DecisionTrace], labels):
    """Checked inputs as (fire, lengths, unsafe) arrays, one entry per
    episode; a label is a Label or its string value."""
    if len(traces) != len(labels):
        raise ValueError("traces and labels disagree on episode count")
    if len(traces) == 0:
        raise ValueError("need at least one trace")
    fire = _fire_array(t.first_fire_step for t in traces)
    lengths = np.array([t.episode_length for t in traces], dtype=np.int64)
    unsafe = np.array([label == Label.UNSAFE for label in labels])
    return fire, lengths, unsafe


def _confusions(fire: np.ndarray, unsafe: np.ndarray, steps) -> list[Confusion]:
    """Confusion counts of the latched predictions at each of the steps: an
    episode predicts unsafe at t when its fire step is <= t (terminated
    episodes keep their last status)."""
    fire_pos = np.sort(fire[unsafe])
    fire_neg = np.sort(fire[~unsafe])
    tp = np.searchsorted(fire_pos, steps, side="right").tolist()
    fp = np.searchsorted(fire_neg, steps, side="right").tolist()
    return [
        Confusion(tp=a, fp=b, tn=len(fire_neg) - b, fn=len(fire_pos) - a)
        for a, b in zip(tp, fp)
    ]


def _metrics_row(c: Confusion, t: int) -> MetricsRow:
    """Weighted P/R/F1 and macro F1 of the confusion counts at step t."""
    (p_pos, r_pos, f1_pos), (p_neg, r_neg, f1_neg) = _prf_both_classes(c)
    n_pos = c.tp + c.fn
    n_neg = c.tn + c.fp
    total = n_pos + n_neg
    return MetricsRow(
        t=t,
        precision_weighted=(n_pos * p_pos + n_neg * p_neg) / total,
        recall_weighted=(n_pos * r_pos + n_neg * r_neg) / total,
        f1_weighted=(n_pos * f1_pos + n_neg * f1_neg) / total,
        f1_macro=(f1_pos + f1_neg) / 2.0,
        confusion=c,
    )


def metrics_over_time(traces: Sequence[DecisionTrace], labels) -> list[MetricsRow]:
    """Weighted P/R/F1 and macro F1 at every time step before the horizon,
    the longest episode's length.

    The confusion counts change only at steps where some episode fires,
    so each distinct confusion is scored once, at the first step that has
    it, and the steps up to the next such step repeat its figures.
    """
    fire, lengths, unsafe = _episode_arrays(traces, labels)
    horizon = int(lengths.max())
    changes = np.unique(fire[fire < horizon]).astype(np.int64).tolist()
    starts = changes if changes[:1] == [0] else [0, *changes]
    rows = []
    for a, b, c in zip(starts, [*starts[1:], horizon], _confusions(fire, unsafe, starts)):
        first = _metrics_row(c, a)
        scores = (first.precision_weighted, first.recall_weighted, first.f1_weighted,
                  first.f1_macro)
        rows.append(first)
        rows += [MetricsRow(t, *scores, c) for t in range(a + 1, b)]
    return rows


def _spread(values: np.ndarray):
    if values.size == 0:
        return None, None, None
    return float(values.min()), float(np.mean(values)), float(values.max())


def _decision_stats(fire: np.ndarray, lengths: np.ndarray, unsafe: np.ndarray):
    fired = fire < math.inf
    hit = fired & unsafe
    steps = fire[hit].astype(np.int64)
    remaining = lengths[hit] - 1 - steps
    return DecisionTimeStats(
        *_spread(steps),
        *_spread(remaining),
        *_spread(remaining / lengths[hit]),
        fp_count=int(np.sum(fired & ~unsafe)),
    )


def decision_time_stats(traces: Sequence[DecisionTrace], labels) -> DecisionTimeStats:
    """Fire-step statistics over true positives plus the false-positive count."""
    return _decision_stats(*_episode_arrays(traces, labels))


@dataclass(frozen=True)
class SweepRow:
    criterion: Criterion
    theta: float
    metrics: MetricsRow
    stats: DecisionTimeStats
    fn_count: int


@dataclass(frozen=True)
class SweepReport:
    rows: list[SweepRow]
    horizon: int  # the longest episode's length; the metrics are those at horizon - 1


def sweep(
    traces: Sequence[DecisionTrace],
    labels,
    criteria: Sequence[Criterion],
    thetas: Sequence[float],
) -> SweepReport:
    """Metrics at the horizon, decision times, and FP/FN counts over a
    criterion x theta grid.

    Each pair re-derives only the fire steps from the traces' probability
    series, so the forest is not queried again.
    """
    if not criteria or not thetas:
        raise ValueError("criteria and thetas must be non-empty")
    _, lengths, unsafe = _episode_arrays(traces, labels)
    horizon = int(lengths.max())
    rows = []
    for criterion in criteria:
        for theta in thetas:
            fire = _fire_array(first_fire_step(t.series, criterion, theta) for t in traces)
            (confusion,) = _confusions(fire, unsafe, [horizon - 1])
            metrics = _metrics_row(confusion, horizon - 1)
            stats = _decision_stats(fire, lengths, unsafe)
            fn_count = int(np.sum(unsafe & (fire == math.inf)))
            rows.append(SweepRow(criterion, theta, metrics, stats, fn_count))
    return SweepReport(rows=rows, horizon=horizon)


# Candidates whose end-of-episode macro F1 is within this many points of
# the best candidate count as part of the optimal range.
OPTIMAL_RANGE_SLACK = 0.02


@dataclass
class LevelRow:
    d: float
    n_states: int
    f1_macro: float
    operation_f1: Optional[float]
    mean_fire_step: Optional[float]
    in_optimal_range: bool
    excluded: bool


@dataclass
class LevelSelection:
    optimal_range: tuple[float, float]
    d_star: float
    rows: list[LevelRow]


def select_level(
    train,
    candidate_ds: Sequence[float],
    inner_split_seed: int,
    mode: FeatureMode = FeatureMode.BINARY,
    theta: float = 0.5,
    criterion: Criterion = Criterion.UPPER_BOUND,
    n_trees: int = 100,
) -> LevelSelection:
    """Two-phase, coarse-to-fine style pick of the abstraction level.

    Phase 1 scores each candidate by end-of-episode macro F1 on an inner
    70/30 split; candidates within 2 points of the best form the optimal
    range. Phase 2 reruns the latched monitor over the inner test
    episodes for every in-range candidate: among those whose in-operation
    horizon F1 is within the same slack of the best, it keeps the one
    that fires earliest on true positives, ties toward the larger
    (coarser) level. Judging phase 2 on operation F1 as well as earliness
    is what keeps trigger-happy levels (fire at step 0 on everything)
    from winning on earliness alone. Frequency-mode candidates whose
    empty-prefix summary already meets the criterion are excluded
    outright: such a monitor would fire before seeing anything. The
    criterion defaults to the upper bound, as `build`'s does.
    A corpus or inner training split without both classes raises
    DatasetError.
    """
    if len(candidate_ds) < 2:
        raise ValueError("need at least two candidate abstraction levels")

    require_both_classes(train, "the corpus")
    inner_train, inner_test = split(train, 0.7, inner_split_seed)
    require_both_classes(inner_train, "the 70% inner training split")
    y_train = np.array([e.label == Label.UNSAFE for e in inner_train.episodes], dtype=np.int64)
    y_test = np.array([e.label == Label.UNSAFE for e in inner_test.episodes], dtype=np.int64)

    scored = []
    for d in candidate_ds:
        table = AbstractionTable.build(inner_train, d)
        x_train = episode_feature_matrix(table.corpus_ids, table.n, mode)
        seed = derive_seed(inner_split_seed, f"level-forest:{d!r}")
        model = train_forest(x_train, y_train, n_trees, seed)
        test_ids = [table.lookup_batch(e.qs) for e in inner_test.episodes]
        x_test = episode_feature_matrix(test_ids, table.n, mode)
        f1 = macro_f1(y_test, predict_batch(model, x_test).mean >= 0.5)
        scored.append((d, table, model, f1))

    best_f1 = max(item[3] for item in scored)
    labels = [e.label for e in inner_test.episodes]
    rows = []
    for d, table, model, f1 in scored:
        in_range = f1 >= best_f1 - OPTIMAL_RANGE_SLACK
        excluded, operation_f1, mean_fire = False, None, None
        if in_range:
            if mode is FeatureMode.FREQUENCY:
                excluded = criterion_holds(predict(model, np.zeros(table.n)), criterion, theta)
            if not excluded:
                monitor = MonitorModel(table, model, mode, criterion, theta)
                traces = run_traces(monitor, [e.qs for e in inner_test.episodes])
                (row,) = sweep(traces, labels, [criterion], [theta]).rows
                operation_f1, mean_fire = row.metrics.f1_macro, row.stats.decision_step_avg
        rows.append(LevelRow(d, table.n, f1, operation_f1, mean_fire, in_range, excluded))

    replayed = [row for row in rows if row.operation_f1 is not None]
    if not replayed:
        raise ValueError("every in-range candidate was excluded; widen the grid")
    best_operation = max(row.operation_f1 for row in replayed)
    good = [row for row in replayed if row.operation_f1 >= best_operation - OPTIMAL_RANGE_SLACK]
    fire = {row.d: math.inf if row.mean_fire_step is None else row.mean_fire_step for row in good}
    d_star = min(fire, key=lambda d: (fire[d], -d))
    in_range_ds = [row.d for row in rows if row.in_optimal_range]
    return LevelSelection((min(in_range_ds), max(in_range_ds)), d_star, rows)


# ---------------------------------------------------------------------------
# File emission. All outputs are deterministic: no timestamps anywhere.

_METRICS_NOTE = "# undefined 0/0 ratios reported as 0; unsafe is the positive class\n"
_SCORES = ("precision_weighted", "recall_weighted", "f1_weighted", "f1_macro")
_COUNTS = ("tp", "fp", "tn", "fn")
_SPREADS = ("decision_step", "remaining", "fraction")  # the (min, avg, max) triples
_QUOTE_CHARS = re.compile('[,"\r\n]')
_BLOCK_ROWS = 4096  # rows per % call: bounds the text held at once


def _shifted(values, time_base: int):
    """Step indices moved to the time base; None stays None."""
    if not time_base:
        return values
    return [None if v is None else v + time_base for v in values]


def _spread_of(stats: DecisionTimeStats, name: str, time_base: int) -> list:
    """One (min, avg, max) triple; the decision step counts from the time base."""
    values = [getattr(stats, f"{name}_{part}") for part in ("min", "avg", "max")]
    return _shifted(values, time_base if name == "decision_step" else 0)


def _text(value) -> str:
    """A cell as csv.writer's excel dialect writes it: None as a blank, a
    string quoted when it holds a comma, a quote or a line break (its
    quotes doubled), anything else as its str."""
    if value is None:
        return ""
    text = str.__str__(value) if isinstance(value, str) else str(value)
    if _QUOTE_CHARS.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(values) -> list:
    """One CSV column as text: floats as %.6f, other values as _text
    writes them."""
    return [f"{v:.6f}" if isinstance(v, float) else _text(v) for v in values]


def _write_csv(path, header, columns, note: str = "") -> None:
    """One CSV file, as csv.writer writes it: the note, the header, then
    one row across the columns per entry, each line ending in CRLF.

    `columns` holds one (format, values) pair per column: "%d" for
    integers, "%.6f" for floats, "%s" for text from _cells or _text. A
    block of rows is formatted by one % over its cells, the row format
    repeated once per row.
    """
    formats, values = zip(*columns)
    row = ",".join(formats) + "\r\n"
    rows = zip(*values)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(note + ",".join(map(_text, header)) + "\r\n")
        while block := tuple(chain.from_iterable(islice(rows, _BLOCK_ROWS))):
            fh.write(row * (len(block) // len(formats)) % block)


def write_metrics_csv(rows: Sequence[MetricsRow], path, time_base: int = 0) -> None:
    _write_csv(
        path,
        ["t", *_SCORES, *_COUNTS],
        [("%d", _shifted([r.t for r in rows], time_base))]
        + [("%.6f", [getattr(r, name) for r in rows]) for name in _SCORES]
        + [("%d", [getattr(r.confusion, name) for r in rows]) for name in _COUNTS],
        _METRICS_NOTE,
    )


def write_sweep_csv(report: SweepReport, path, time_base: int = 0) -> None:
    rows = report.rows
    scores = ("f1_macro", "f1_weighted", "precision_weighted", "recall_weighted")
    spreads = [
        [v for name in _SPREADS for v in _spread_of(r.stats, name, time_base)] for r in rows
    ]
    _write_csv(
        path,
        ["criterion", "theta", *scores, *_COUNTS, "fn_count", "fp_count",
         *(f"{name}_{part}" for name in _SPREADS for part in ("min", "avg", "max"))],
        [("%s", [_text(r.criterion.value) for r in rows]), ("%s", [_text(r.theta) for r in rows])]
        + [("%.6f", [getattr(r.metrics, name) for r in rows]) for name in scores]
        + [("%d", [getattr(r.metrics.confusion, name) for r in rows]) for name in _COUNTS]
        + [("%d", [r.fn_count for r in rows]), ("%d", [r.stats.fp_count for r in rows])]
        + [("%s", _cells(column)) for column in zip(*spreads)],
        _METRICS_NOTE,
    )


def decision_stats_json(
    stats: DecisionTimeStats, criterion: Criterion, theta: float, time_base: int = 0
) -> dict:
    """Machine-comparable summary in the shape of a decision-times table row;
    the decision step counts from the time base."""

    def triple(name):
        lo, avg, hi = _spread_of(stats, name, time_base)
        return {"min": lo, "avg": avg, "max": hi}

    return {
        "criterion": criterion.value,
        "theta": theta,
        "decision_time_step": triple("decision_step"),
        "remaining_time_steps": triple("remaining"),
        "remaining_fraction": triple("fraction"),
        "fp": stats.fp_count,
    }


def write_decision_stats_json(entries: Sequence[dict], path) -> None:
    save_document(path, list(entries), indent=2)


def write_traces_csv(traces, labels, path, time_base: int = 0) -> None:
    """Per-step probability traces for qualitative inspection."""
    episode, name, step, fired = [], [], [], []
    for i, (trace, label) in enumerate(zip(traces, labels)):
        n = len(trace.series.mean)
        fire = n if trace.first_fire_step is None else trace.first_fire_step
        episode += [i] * n
        name += [_text(label)] * n
        step += range(time_base, n + time_base)
        fired += [0] * fire + [1] * (n - fire)
    probabilities = [
        ("%.6f", list(chain.from_iterable(getattr(t.series, column).tolist() for t in traces)))
        for column in ("mean", "low", "up")
    ]
    _write_csv(
        path,
        ["episode", "label", "t", "p", "low", "up", "fired"],
        [("%d", episode), ("%s", name), ("%d", step), *probabilities, ("%d", fired)],
    )
