"""Runtime safety monitor over a per-step Q-value stream.

Each observed Q-vector is mapped to its abstract state, folded into the
episode's running feature vector, and scored by the forest. The unsafe
decision fires once the configured criterion holds and then latches for
the rest of the episode. Comparison strictness follows the criteria
definitions: upper bound and output probability fire at >= theta, the
lower bound only at > theta.

observe scores each step with forest.predict: every tree is walked from
its root, with no change detection, which is the cheaper walk for one
row. The vector it scores is kept in the RunningState and updated in
place: a step sets one entry, never rebuilding the whole vector.
watch_stream decodes each line with dataset.decode and writes each reply
from one `%` template with json.dumps's bytes.

Stored episodes are replayed together: run_traces looks up the whole
corpus at once, cuts each episode at the stop policy, and scores the
episodes in chunks under a row budget. Each chunk's visit ids go to one
change-driven forest call, which builds every prefix from them (a tree
is walked at a step only when a feature it tests changed there). Each
episode becomes a DecisionTrace: its summary series plus the first fire
step. Its per-step assessments are derived from the series on demand and
equal what observe returns step by step, bit for bit, since both walks
reach the same leaves and share the summary code.
load_model checks a model file against MODEL_FIELDS. It decodes the file
exact in `forest_seed` and `provenance`, which carry user-given integers
of any size (`build --seed`) that save_model writes back as they were.
"""

from __future__ import annotations

import enum
import json
import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional

import numpy as np

from .abstraction import AbstractionTable, FeatureMode, UnseenPolicy
from .dataset import Field, decode, json_integer, json_number, load_document, save_document
from .forest import (
    GROWTH,
    BatchSummary,
    Forest,
    ProbabilitySummary,
    forest_from_json_list,
    forest_to_json_list,
    predict,
    predict_prefixes,
)


MODEL_FORMAT = "monitor-model/1"


class Criterion(str, enum.Enum):
    UPPER_BOUND = "upper_bound"
    OUTPUT_PROBABILITY = "output_probability"
    LOWER_BOUND = "lower_bound"


class MonitorStopped(RuntimeError):
    """Raised when observing past a stop-policy freeze."""


@dataclass(frozen=True)
class MonitorModel:
    table: AbstractionTable
    forest: Forest
    mode: FeatureMode = FeatureMode.BINARY
    criterion: Criterion = Criterion.UPPER_BOUND
    theta: float = 0.5
    unseen_policy: UnseenPolicy = UnseenPolicy.IGNORE
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.forest.feature_count != self.table.n:
            raise ValueError(
                f"forest expects {self.forest.feature_count} features but the "
                f"table has {self.table.n} abstract states"
            )
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie strictly between 0 and 1")


@dataclass
class RunningState:
    """Per-episode monitoring state; one per concurrently watched episode.

    `features` is the vector the forest scores: 1.0 at each visited
    abstract state in binary mode, and each state's visit count in
    frequency mode.
    """

    features: np.ndarray
    fired: bool = False
    frozen: bool = False
    t: int = -1

    @classmethod
    def fresh(cls, model: MonitorModel) -> "RunningState":
        return cls(features=np.zeros(model.table.n, dtype=np.float64))


@dataclass(frozen=True)
class StepAssessment:
    t: int
    summary: ProbabilitySummary
    fired: bool
    unseen_alert: bool = False


@dataclass(frozen=True)
class DecisionTrace:
    """A stored episode replayed through the monitor.

    `series` holds the mean, std, low and up of each monitored step, up to
    any stop-policy cutoff (`stop_hit`); `episode_length` counts every step.
    """

    series: BatchSummary
    first_fire_step: Optional[int]
    episode_length: int
    stop_hit: bool

    @property
    def assessments(self) -> list[StepAssessment]:
        """The per-step assessments observe would have returned."""
        batch, fire = self.series, self.first_fire_step
        cutoff = len(batch.mean)
        return [
            StepAssessment(
                t=t,
                summary=batch.column(t),
                fired=fire is not None and t >= fire,
                unseen_alert=self.stop_hit and t == cutoff - 1,
            )
            for t in range(cutoff)
        ]


def criterion_holds(summary, criterion: Criterion, theta: float):
    """Whether the criterion fires for a ProbabilitySummary (a bool) or for
    every column of a BatchSummary (a bool array), with the same strictness."""
    if criterion is Criterion.UPPER_BOUND:
        return summary.up >= theta
    if criterion is Criterion.OUTPUT_PROBABILITY:
        return summary.mean >= theta
    if criterion is Criterion.LOWER_BOUND:
        return summary.low > theta
    raise ValueError(f"unknown criterion {criterion!r}")


def observe(model: MonitorModel, running: RunningState, q) -> StepAssessment:
    """Fold one Q-vector into the running episode and assess it.

    `q` is a list of numbers, as watch passes it, or anything
    AbstractionTable.lookup makes an array of, such as a numpy row: both
    give the same assessment. An integer in a list that no float64 holds
    raises OverflowError, before the running state changes.
    """
    if running.frozen:
        raise MonitorStopped("monitor was frozen by the stop policy")
    abstract_id = model.table.lookup(q)
    unseen = abstract_id is None
    if unseen:
        if model.unseen_policy is UnseenPolicy.STOP:
            running.frozen = True
        # Ignore policy: feature vector stays as it was.
    elif model.mode is FeatureMode.BINARY:
        running.features[abstract_id] = 1.0
    else:
        running.features[abstract_id] += 1.0

    summary = predict(model.forest, running.features)
    if criterion_holds(summary, model.criterion, model.theta):
        running.fired = True
    running.t += 1
    return StepAssessment(
        t=running.t,
        summary=summary,
        fired=running.fired,
        unseen_alert=unseen and model.unseen_policy is UnseenPolicy.STOP,
    )


def first_fire_step(batch: BatchSummary, criterion: Criterion, theta: float) -> Optional[int]:
    """First step of a probability series at which the criterion holds."""
    fired = np.nonzero(criterion_holds(batch, criterion, theta))[0]
    return int(fired[0]) if fired.size else None


# run_traces scores whole episodes in chunks of at most about this many
# rows. Each episode also counts table.n / n_trees rows for its row of the
# (episode, feature) table, so that neither the chunk's (tree, row) pairs
# nor its table outgrow ROW_BUDGET * n_trees entries. An episode longer
# than the budget makes a chunk of its own.
ROW_BUDGET = 1 << 12


def run_traces(model: MonitorModel, episodes_qs) -> list[DecisionTrace]:
    """Monitor stored episodes end to end (each keeps running after firing).

    Under the stop policy a trace ends at its episode's first unseen
    abstract state, since the stream would refuse further observations
    there. Every episode must hold at least one step.
    """
    qs = [np.asarray(q, dtype=np.float64) for q in episodes_qs]
    if not qs:
        return []
    lengths = [len(q) for q in qs]
    if min(lengths) == 0:
        raise ValueError("empty Q-value stream")
    ids = np.split(model.table.lookup_batch(np.concatenate(qs)), np.cumsum(lengths[:-1]))
    stop_hit = [False] * len(ids)
    if model.unseen_policy is UnseenPolicy.STOP:
        for i, episode_ids in enumerate(ids):
            unseen_at = np.flatnonzero(episode_ids < 0)
            if unseen_at.size:
                ids[i] = episode_ids[: int(unseen_at[0]) + 1]
                stop_hit[i] = True

    table_rows = model.table.n / model.forest.n_trees
    series, chunk, rows = [], [], 0.0
    for episode_ids in ids:
        cost = len(episode_ids) + table_rows
        if chunk and rows + cost > ROW_BUDGET:
            series += _replay_chunk(model, chunk)
            chunk, rows = [], 0.0
        chunk.append(episode_ids)
        rows += cost
    series += _replay_chunk(model, chunk)
    return [
        DecisionTrace(
            series=batch,
            first_fire_step=first_fire_step(batch, model.criterion, model.theta),
            episode_length=length,
            stop_hit=hit,
        )
        for batch, length, hit in zip(series, lengths, stop_hit)
    ]


def _replay_chunk(model: MonitorModel, ids: list) -> list[BatchSummary]:
    """The probability series of each episode of a chunk, from its ids."""
    batch = predict_prefixes(model.forest, ids, model.mode)
    fields = (batch.mean, batch.std, batch.low, batch.up)
    bounds = np.cumsum([0] + [len(episode_ids) for episode_ids in ids]).tolist()
    return [BatchSummary(*(f[a:b] for f in fields)) for a, b in zip(bounds, bounds[1:])]


def run_trace(model: MonitorModel, episode_qs: np.ndarray) -> DecisionTrace:
    """run_traces of one episode."""
    return run_traces(model, [episode_qs])[0]


def save_model(model: MonitorModel, path) -> None:
    """Write the whole monitor (table, forest, decision config) as one JSON."""
    doc = {
        "format": MODEL_FORMAT,
        "table": model.table.to_json_dict(),
        "forest": forest_to_json_list(model.forest),
        "forest_config": {"n_trees": model.forest.n_trees, **GROWTH},
        "forest_seed": model.forest.seed,
        "feature_count": model.forest.feature_count,
        "mode": model.mode.value,
        "criterion": model.criterion.value,
        "theta": model.theta,
        "unseen_policy": model.unseen_policy.value,
        "provenance": model.provenance,
    }
    save_document(path, doc)


def load_model(path) -> MonitorModel:
    return load_document(path, MODEL_FORMAT, MODEL_FIELDS, _model_from_doc,
                         exact=("forest_seed", "provenance"))


_READ = ("evaluate", "watch")
_TABLE_SIZE = lambda doc: len(doc["table"]["keys"])

# A monitor-model/1 document, each field after those its rule reads. The
# forest's nodes are checked column by column where they are read
# (forest_from_json_list), and the table's ids as one permutation and its
# keys as distinct where the index is built (AbstractionTable.from_json_dict).
# forest_config holds the forest's settings, named alone as train_forest
# names them.
MODEL_FIELDS = (
    Field("table", "be a JSON object", dict, _READ),
    Field("table.d", "be a positive finite JSON number",
          json_number(lambda v: 0.0 < v <= sys.float_info.max), _READ),
    Field("table.keys", "be lists of integers of one length",
          lambda v: (type(v) is list and v != [] and set(map(type, v)) == {list}
                     and len(set(map(len, v))) == 1 and set(map(type, chain.from_iterable(v))) == {int}),
          _READ),
    Field("table.ids", "be one integer per key",
          lambda v, n: type(v) is list and len(v) == n and set(map(type, v)) == {int},
          _READ, tie=_TABLE_SIZE),
    Field("forest", "be a list of one or more trees, each a list of one or more nodes",
          lambda v: type(v) is list and v != [] and all(type(t) is list and t != [] for t in v), _READ),
    Field("forest_config", "be a JSON object", dict),
    Field("forest_config.n_trees", "be {}", lambda v, n: type(v) is int and v == n,
          tie=lambda doc: len(doc["forest"]), name="n_trees"),
    *(Field(f"forest_config.{key}", f"be {value!r}",
            lambda v, value=value: type(v) is type(value) and v == value, name=key)
      for key, value in GROWTH.items()),
    Field("forest_seed", "be a JSON integer", json_integer()),
    Field("feature_count", "be a JSON integer >= 1", json_integer(1), _READ),
    Field("feature_count", "be {}, the number of table keys", lambda v, n: v == n, _READ,
          tie=_TABLE_SIZE),
    *(Field(key, f"be one of {values}", values.__contains__, _READ) for key, values in (
        ("mode", [m.value for m in FeatureMode]), ("criterion", [c.value for c in Criterion]),
        ("unseen_policy", [u.value for u in UnseenPolicy]))),
    Field("theta", "be a JSON number in (0, 1)", json_number(lambda v: 0.0 < v < 1.0), _READ),
    Field("provenance", "be a JSON object", dict, optional=True),
)


def _model_from_doc(doc: dict) -> MonitorModel:
    unknown = sorted(set(doc["forest_config"]) - {"n_trees", *GROWTH})
    if unknown:
        raise ValueError(f"forest_config has unknown keys {unknown}")
    forest = forest_from_json_list(doc["forest"], doc["feature_count"], doc["forest_seed"])
    return MonitorModel(
        table=AbstractionTable.from_json_dict(doc["table"]), forest=forest,
        mode=FeatureMode(doc["mode"]), criterion=Criterion(doc["criterion"]), theta=doc["theta"],
        unseen_policy=UnseenPolicy(doc["unseen_policy"]), provenance=doc.get("provenance", {}),
    )


# One reply line. It has json.dumps's bytes for the same dict: json writes
# an int as %d does and a finite float as float.__repr__, which %r calls.
_REPLY = '{"t": %d, "p": %r, "low": %r, "up": %r, "fired": %s, "unseen": %s}\n'


def watch_stream(model: MonitorModel, in_stream, out_stream, err_stream) -> int:
    """NDJSON session: {"t", "q"} lines in, assessment lines out.

    Malformed input lines, a `t` that is not a JSON integer, a `q` that
    is not a list of JSON numbers within float64's range and a value
    nested too deeply to decode among them, are reported on the
    diagnostic stream and skipped; the latched fired flag
    persists across the whole session. A `t` that does not count on
    from the last one read (from 0 at the start) is reported there too,
    and the line is still assessed. A line, text or UTF-8 bytes, is
    decoded by dataset.decode, exact in `t` and `q`, and its `q` list
    goes to observe as it is: no numpy array is made for one step.
    """
    running = RunningState.fresh(model)
    last_t = None
    for lineno, line in enumerate(in_stream, start=1):
        if not line.strip():
            continue
        try:
            msg = decode(line, ("t", "q"))
            t = msg["t"]
            if type(t) is not int:  # a bool is no t, nor is 1.9 or "2"
                raise ValueError(f"t must be a JSON integer, got {json.dumps(t)}")
            gap = _t_gap(last_t, t)
            if gap is not None:
                print(f"line {lineno}: {gap}", file=err_stream)
            last_t = t
            q = msg["q"]
            # A bool would be read as 0.0 or 1.0, and "1.5" in an array as 1.5;
            # `type`, since a bool is an int.
            if type(q) is not list or not all(type(v) is float or type(v) is int for v in q):
                raise ValueError(f"q must be a JSON list of numbers, got {json.dumps(q)}")
            try:
                assessment = observe(model, running, q)
            except OverflowError:  # raised by lookup, before observe changes anything
                raise ValueError("q holds an integer beyond float64's range") from None
        except MonitorStopped:
            print(f"line {lineno}: session frozen by stop policy", file=err_stream)
            return 0
        except (KeyError, TypeError, ValueError) as exc:
            print(f"line {lineno}: skipped malformed input: {exc}", file=err_stream)
            continue
        summary = assessment.summary
        out_stream.write(
            _REPLY
            % (
                t,
                summary.mean,
                summary.low,
                summary.up,
                "true" if assessment.fired else "false",
                "true" if assessment.unseen_alert else "false",
            )
        )
        out_stream.flush()
    return 0


def _t_gap(last: Optional[int], t: int) -> Optional[str]:
    """Why `t` does not follow `last`, the t read before it (None at the
    start of a session, where t should be 0), or None when it does."""
    if last is None:
        return None if t == 0 else f"t starts at {t}, not 0"
    if t == last + 1:
        return None
    if t > last:
        return f"t jumped from {last} to {t}"
    if t == last:
        return f"t repeated {t}"
    return f"t went back from {last} to {t}"
