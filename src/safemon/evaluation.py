"""Evaluation harness: per-time-step classification metrics, decision-time
statistics over true positives, and criterion/threshold sweeps.

Undefined 0/0 precision or recall ratios are reported as 0. An episode's
prediction at time t is its latched fired status at min(t, length - 1):
episodes that already terminated keep their final prediction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .dataset import Label, save_document
from .monitor import Criterion, DecisionTrace, first_fire_step


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


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


def _fire_array(traces: Sequence[DecisionTrace]) -> np.ndarray:
    return np.array(
        [math.inf if t.first_fire_step is None else t.first_fire_step for t in traces]
    )


def _labels_array(labels) -> np.ndarray:
    return np.array([label is Label.UNSAFE or label == Label.UNSAFE.value for label in labels])


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


def metrics_over_time(
    traces: Sequence[DecisionTrace], labels, horizon: int
) -> list[MetricsRow]:
    """Weighted P/R/F1 and macro F1 at every time step up to the horizon."""
    if len(traces) != len(labels):
        raise ValueError("traces and labels disagree on episode count")
    if len(traces) == 0:
        raise ValueError("need at least one trace")
    confusions = _confusions(_fire_array(traces), _labels_array(labels), np.arange(horizon))
    return [_metrics_row(c, t) for t, c in enumerate(confusions)]


def decision_time_stats(traces: Sequence[DecisionTrace], labels) -> DecisionTimeStats:
    """Fire-step statistics over true positives plus the false-positive count."""
    if len(traces) != len(labels):
        raise ValueError("traces and labels disagree on episode count")
    unsafe = _labels_array(labels)
    fp_count = 0
    steps, remaining, fractions = [], [], []
    for trace, is_unsafe in zip(traces, unsafe):
        if trace.first_fire_step is None:
            continue
        if not is_unsafe:
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

    s_min, s_avg, s_max = stats(steps)
    r_min, r_avg, r_max = stats(remaining)
    f_min, f_avg, f_max = stats(fractions)
    return DecisionTimeStats(
        s_min, s_avg, s_max, r_min, r_avg, r_max, f_min, f_avg, f_max, fp_count
    )


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
    horizon: int


def sweep(
    traces: Sequence[DecisionTrace],
    labels,
    criteria: Sequence[Criterion],
    thetas: Sequence[float],
    horizon: Optional[int] = None,
) -> SweepReport:
    """Metrics, decision times, and FP/FN counts over a criterion x theta grid.

    Each pair re-derives only the fire steps from the traces' probability
    series, so the forest is not queried again.
    """
    if not criteria or not thetas:
        raise ValueError("criteria and thetas must be non-empty")
    if len(traces) != len(labels):
        raise ValueError("traces and labels disagree on episode count")
    horizon = horizon if horizon is not None else max(t.episode_length for t in traces)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    unsafe = _labels_array(labels)
    rows = []
    for criterion in criteria:
        for theta in thetas:
            refired = [
                replace(t, first_fire_step=first_fire_step(t.series, criterion, theta))
                for t in traces
            ]
            fire = _fire_array(refired)
            (confusion,) = _confusions(fire, unsafe, [horizon - 1])
            metrics = _metrics_row(confusion, horizon - 1)
            stats = decision_time_stats(refired, labels)
            fn_count = int(np.sum(unsafe & (fire == math.inf)))
            rows.append(SweepRow(criterion, theta, metrics, stats, fn_count))
    return SweepReport(rows=rows, horizon=horizon)


# ---------------------------------------------------------------------------
# File emission. All outputs are deterministic: no timestamps anywhere.

_METRICS_NOTE = "# undefined 0/0 ratios reported as 0; unsafe is the positive class\n"


def write_metrics_csv(rows: Sequence[MetricsRow], path, time_base: int = 0) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_METRICS_NOTE)
        writer = csv.writer(fh)
        writer.writerow(
            ["t", "precision_weighted", "recall_weighted", "f1_weighted", "f1_macro",
             "tp", "fp", "tn", "fn"]
        )
        for r in rows:
            writer.writerow(
                [
                    r.t + time_base,
                    f"{r.precision_weighted:.6f}",
                    f"{r.recall_weighted:.6f}",
                    f"{r.f1_weighted:.6f}",
                    f"{r.f1_macro:.6f}",
                    r.confusion.tp,
                    r.confusion.fp,
                    r.confusion.tn,
                    r.confusion.fn,
                ]
            )


def _fmt(value, time_base: int = 0, shift: bool = False):
    if value is None:
        return ""
    if shift:
        value = value + time_base
    return f"{value:.6f}" if isinstance(value, float) else value


def write_sweep_csv(report: SweepReport, path, time_base: int = 0) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_METRICS_NOTE)
        writer = csv.writer(fh)
        writer.writerow(
            [
                "criterion", "theta", "f1_macro", "f1_weighted",
                "precision_weighted", "recall_weighted",
                "tp", "fp", "tn", "fn", "fn_count", "fp_count",
                "decision_step_min", "decision_step_avg", "decision_step_max",
                "remaining_min", "remaining_avg", "remaining_max",
                "fraction_min", "fraction_avg", "fraction_max",
            ]
        )
        for row in report.rows:
            m, s = row.metrics, row.stats
            writer.writerow(
                [
                    row.criterion.value, row.theta,
                    f"{m.f1_macro:.6f}", f"{m.f1_weighted:.6f}",
                    f"{m.precision_weighted:.6f}", f"{m.recall_weighted:.6f}",
                    m.confusion.tp, m.confusion.fp, m.confusion.tn, m.confusion.fn,
                    row.fn_count, s.fp_count,
                    _fmt(s.decision_step_min, time_base, True),
                    _fmt(s.decision_step_avg, time_base, True),
                    _fmt(s.decision_step_max, time_base, True),
                    _fmt(s.remaining_min), _fmt(s.remaining_avg), _fmt(s.remaining_max),
                    _fmt(s.fraction_min), _fmt(s.fraction_avg), _fmt(s.fraction_max),
                ]
            )


def decision_stats_json(stats: DecisionTimeStats, criterion: Criterion, theta: float) -> dict:
    """Machine-comparable summary in the shape of a decision-times table row."""

    def triple(lo, avg, hi):
        return {"min": lo, "avg": avg, "max": hi}

    return {
        "criterion": criterion.value,
        "theta": theta,
        "decision_time_step": triple(
            stats.decision_step_min, stats.decision_step_avg, stats.decision_step_max
        ),
        "remaining_time_steps": triple(
            stats.remaining_min, stats.remaining_avg, stats.remaining_max
        ),
        "remaining_fraction": triple(
            stats.fraction_min, stats.fraction_avg, stats.fraction_max
        ),
        "fp": stats.fp_count,
    }


def write_decision_stats_json(entries: Sequence[dict], path) -> None:
    save_document(path, list(entries), indent=2)


def write_traces_csv(traces, labels, path, time_base: int = 0) -> None:
    """Per-step probability traces for qualitative inspection."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["episode", "label", "t", "p", "low", "up", "fired"])
        for i, (trace, label) in enumerate(zip(traces, labels)):
            name = label.value if isinstance(label, Label) else label
            s, fire = trace.series, trace.first_fire_step
            for t, (p, low, up) in enumerate(zip(s.mean.tolist(), s.low.tolist(), s.up.tolist())):
                writer.writerow(
                    [
                        i, name, t + time_base,
                        f"{p:.6f}", f"{low:.6f}", f"{up:.6f}",
                        int(fire is not None and t >= fire),
                    ]
                )
