"""Labeled episode corpora: collection under the greedy policy, splits,
and JSONL persistence.

Episodes store the full per-step Q-vectors so that abstraction tables can
be rebuilt at any level without re-executing the agent.

Every JSON input, here and in the other modules, is decoded by `decode`,
which gives json's values and errors; its docstring states the rule. A
corpus line is decoded with no key scanned (`exact=()`): an integer beyond
64 bits inside `s`, `q` or `r` gives the same float64 either way, and as
an action it is refused either way. Each of `s`, `q` and `r` is converted
from one flat list per episode, after a scan of its values' types, so a
string or boolean is refused at its step.

The loaders, `load_document` (the model and agent files) and `read_jsonl`
(the corpora of `evaluate`, `build` and `select-d`), run with the cyclic
garbage collector's automatic passes paused (`collection_paused`). That is
safe: a decoded JSON value holds no reference cycle and the conversions
build none, so a pass would find nothing to free. And it pays: a loader
keeps every container it decodes alive until it returns, so each pass
would walk them all. Collection resumes once the loader has returned and
its decoded document is freed. A `watch` session keeps the collector on,
for its line decode and every step, since a session has no end; so does
everything after a load.

Corpus lines are written without json.dumps, one `%` per episode: a
bytes step template, `{"s": [%b, ...], "a": %d, "q": [%b, ...], "r": %b}`,
is repeated once per step, joined by ", " and filled with one token per
value of the episode's stacked (state, action, Q-vector, reward) rows.
The float tokens come from one orjson.dumps of those rows, split at its
commas: orjson prints the same shortest round-trip digits as
`float.__repr__`, the text json writes for a finite float, many times
faster. The two differ only in notation, and only outside
1e-4 <= |x| < 1e16 (where both write fixed notation): orjson writes
1e-5 <= |x| < 1e-4 in fixed notation and its exponents without a sign
or zero padding (`1e16`, `1e-7` against `1e+16`, `1e-07`). The few values
there, found with numpy, are written with repr itself. The actions go in
as integers, and the separators are json's, so each line has
json.dumps's bytes. NaN and the infinities, which read_jsonl refuses and
orjson writes as null, are refused first, with an action outside the
Q-vector, for every episode before the file is opened.
"""

from __future__ import annotations

import enum
import gc
import json
import math
import re
import reprlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .envs import STEP_LIMIT, Cause
from .seeding import derive_rng, derive_seed

if TYPE_CHECKING:
    from .agent import AgentModel


class Label(str, enum.Enum):
    SAFE = "safe"
    UNSAFE = "unsafe"


class DatasetError(ValueError):
    pass


def decode(raw, exact=None):
    """The value json.loads gives for `raw`, UTF-8 bytes or a str, or json's
    error (UnicodeDecodeError for bytes that are not UTF-8).

    orjson decodes it first, several times faster, and gives json's value
    but in two cases, where json decodes the text again. orjson refuses
    some text json reads: the NaN and Infinity literals, a number beyond
    float64's range, a BOM, a lone surrogate, and anything malformed,
    which then fails with json's message. And orjson reads an integer
    beyond 64 bits as a float, json as an int; so a float of magnitude
    2**63 or more sends the text to json too. The scan for one covers the
    whole value, or with `exact`, a tuple, only those top-level keys of
    an object: elsewhere the caller reads it as the same float64, or, like
    load_document, decodes the text again with every key scanned before
    it refuses a value. A value nested too deeply for json, or for the
    scan, raises DatasetError.
    """
    import orjson

    try:
        try:
            value = orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass
        else:
            if exact is None:
                scanned = (value,)
            else:
                scanned = [value.get(key) for key in exact] if type(value) is dict else ()
            if not _holds_a_wide_float(scanned):
                return value
        return json.loads(raw.decode("utf-8") if type(raw) is bytes else raw)
    except RecursionError:  # json, and the scan, recurse once per level of nesting
        raise DatasetError("a value is nested too deeply to read") from None


def _holds_a_wide_float(values) -> bool:
    """Whether one of `values`, or a list or dict value inside one, is a
    float of magnitude 2**63 or more."""
    for v in values:
        if type(v) is float:
            if abs(v) >= 2.0**63:
                return True
        elif type(v) is list or type(v) is dict:
            if _holds_a_wide_float(v.values() if type(v) is dict else v):
                return True
    return False


@contextmanager
def collection_paused():
    """Run the block with the cyclic garbage collector's automatic passes
    paused, and restore the setting found, on return or exception.

    Used as a decorator, it resumes collection once the function's frame
    has released its locals, so the pass that follows walks only what the
    function returns, not the document it decoded."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def read_json(path, exact=None):
    """decode(the bytes at `path`, exact); text that is not JSON, bytes that
    are not UTF-8, or a value nested too deeply raise DatasetError naming
    the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return decode(raw, exact)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DatasetError(f"{path}: not a JSON document: {exc}") from exc
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class Field:
    """A field of a document kind: where it sits, its rule, and the commands
    whose outputs it can change (`reads`).

    `path` is the field's keys, "[]" standing for each item of a list
    ("weights[].w"). A value keeps the rule when it is of type `holds`, or
    when holds(value), or for a length tied to another field, holds(value,
    tie(doc, *indices)), the indices filling the path's "[]"s. A refusal
    reads "<name> must <what>, got <value>", with the tied length at the
    "{}" of `what`. The name is the path, its indices filled and a space
    after its first key ("table d", "weights[0].w[1]"), or `name`; a list is
    shown by its length in `unit`s, when given. An `optional` field may be
    absent, with those under it.
    """

    path: str
    what: str
    holds: Callable
    reads: tuple = ()
    tie: Optional[Callable] = None
    unit: Optional[str] = None
    optional: bool = False
    name: Optional[str] = None


def json_integer(low=-math.inf):  # a bool is no JSON integer
    return lambda v: type(v) is int and v >= low


def json_number(within):  # a bool is no JSON number, and NaN within no bounds
    return lambda v: type(v) in (int, float) and within(v)


def finite_numbers(v, n: int) -> bool:
    """Whether `v` is a list of n JSON numbers that float64 holds finitely."""
    if type(v) is not list or len(v) != n or not set(map(type, v)) <= {int, float}:
        return False
    try:
        return all(map(math.isfinite, v))
    except OverflowError:  # an integer beyond float64
        return False


def check_fields(doc: dict, fields) -> None:
    """Refuse `doc` at the first of `fields`, in order, that it lacks
    (KeyError) or whose value breaks its rule (ValueError), naming it. A
    field comes after those its path and tie read."""
    optional = {f.path for f in fields if f.optional}
    for f in fields:
        found = [((), doc)]  # (indices, value) of each value at the path so far
        for step in re.finditer(r"\[\]|\w+", f.path):
            key = step.group()
            if key == "[]":
                found = [(at + (i,), item) for at, items in found for i, item in enumerate(items)]
                continue
            missing = [at for at, value in found if key not in value]
            if missing and f.path[: step.end()] not in optional:
                raise KeyError(_field_name(f.path[: step.end()], missing[0]))
            found = [(at, value[key]) for at, value in found if key in value]
        for indices, value in found:
            length = f.tie and f.tie(doc, *indices)
            args = (value,) if f.tie is None else (value, length)
            if not (type(value) is f.holds if type(f.holds) is type else f.holds(*args)):
                name = f.name or _field_name(f.path, indices)
                counted = f.unit is not None and type(value) is list
                shown = f"{len(value)} {f.unit}" if counted else reprlib.repr(value)
                raise ValueError(f"{name} must {f.what.format(length, doc=doc)}, got {shown}")


def _field_name(path: str, indices) -> str:
    first, *rest = path.split("[]")
    return re.sub(r"^(\w+)\.", r"\1 ", first + "".join(f"[{i}]{part}" for i, part in zip(indices, rest)))


@collection_paused()
def load_document(path, tag: str, fields, build, exact=None):
    """Parse the JSON document at `path` with read_json(path, exact), check
    its "format" tag and its `fields`, and return build(doc), all with
    collection paused.

    Text that is not JSON, another tag, a missing field or a value that
    breaks its field's rule, or one that `build` cannot use, raises
    DatasetError naming the file, so a bad file fails where it is read.
    A document refused so is decoded again with every key scanned, and
    that document, json's, is checked and built from its first field: an
    integer beyond 64 bits outside `exact`, which orjson reads as a float,
    is judged and shown as json reads it. Where a value is nested too
    deeply for that, the first refusal stands.
    """
    doc = read_json(path, exact)
    try:
        return _checked(path, tag, fields, build, doc)
    except DatasetError as refusal:
        try:
            doc = read_json(path)
        except DatasetError:  # nested too deeply for json, or for the scan
            raise refusal from refusal.__cause__
    return _checked(path, tag, fields, build, doc)


def _checked(path, tag: str, fields, build, doc):
    """build(doc), once doc holds the format tag `tag` and keeps `fields`."""
    if not isinstance(doc, dict) or "format" not in doc:
        raise DatasetError(f"{path}: no format tag, expected {tag!r}")
    if doc["format"] != tag:
        raise DatasetError(f"{path}: format tag {reprlib.repr(doc['format'])}, expected {tag!r}")
    try:
        check_fields(doc, fields)
        return build(doc)
    except KeyError as exc:
        raise DatasetError(f"{path}: {tag} document has no key {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise DatasetError(f"{path}: {tag} document has a bad value: {exc}") from exc


def save_document(path, doc, indent=None) -> None:
    """Write `doc` to `path` as UTF-8 JSON and a closing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=indent))  # dumps runs the C encoder; dump does not
        fh.write("\n")


@dataclass
class Episode:
    states: np.ndarray  # (length, state_dim)
    actions: np.ndarray  # (length,)
    qs: np.ndarray  # (length, action_count)
    rewards: np.ndarray  # (length,)
    label: Label
    cause: Cause

    def __post_init__(self):
        length = len(self.states)
        if not 1 <= length <= STEP_LIMIT:
            raise DatasetError(f"episode length {length} outside [1, {STEP_LIMIT}]")
        if not (len(self.actions) == len(self.qs) == len(self.rewards) == length):
            raise DatasetError("per-step arrays disagree on episode length")
        if (self.label is Label.UNSAFE) != (self.cause is Cause.VIOLATION):
            raise DatasetError(f"label {self.label.value} inconsistent with cause {self.cause.value}")

    @property
    def length(self) -> int:
        return len(self.states)


@dataclass
class EpisodeSet:
    episodes: list[Episode]
    agent_fingerprint: Optional[str] = None

    def __post_init__(self):
        if not self.episodes:
            raise DatasetError("empty episode set")

    def __len__(self) -> int:
        return len(self.episodes)

    def label_counts(self) -> dict[str, int]:
        counts = {"safe": 0, "unsafe": 0}
        for e in self.episodes:
            counts[e.label.value] += 1
        return counts


def require_both_classes(episode_set: EpisodeSet, what: str) -> None:
    """Reject a set without both labels; `what` names it in the message."""
    counts = episode_set.label_counts()
    if min(counts.values()) == 0:
        raise DatasetError(
            f"{what} must contain both classes, got "
            f"{counts['safe']} safe and {counts['unsafe']} unsafe episodes"
        )


def collect(agent: AgentModel, env_kind: str, count: int, seed: int) -> EpisodeSet:
    """Collect `count` greedy episodes from seeded random initial states."""
    from .agent import agent_fingerprint, greedy_rollouts

    if count < 1:
        raise DatasetError("count must be >= 1")
    if env_kind != agent.env_kind:
        raise DatasetError(f"agent was trained on {agent.env_kind!r}, not {env_kind!r}")
    seeds = [derive_seed(seed, f"collect:episode:{i}") for i in range(count)]
    runs = greedy_rollouts(agent.network, env_kind, seeds, record=True)
    # Each episode views its column of the recorded arrays, no copy.
    episodes = [
        Episode(
            states=runs.states[:length, i],
            actions=runs.actions[:length, i],
            qs=runs.qs[:length, i],
            rewards=runs.rewards[:length, i],
            label=Label.UNSAFE if cause is Cause.VIOLATION else Label.SAFE,
            cause=cause,
        )
        for i, (length, cause) in enumerate(zip(runs.lengths, runs.causes))
    ]
    return EpisodeSet(episodes=episodes, agent_fingerprint=agent_fingerprint(agent))


def split(episode_set: EpisodeSet, train_fraction: float, seed: int):
    """Seed-deterministic shuffle, then cut into disjoint train/test sets."""
    if not 0.0 < train_fraction < 1.0:
        raise DatasetError("train_fraction must lie strictly between 0 and 1")
    n = len(episode_set)
    order = derive_rng(seed, "split").permutation(n)
    n_train = int(round(train_fraction * n))
    if n_train == 0 or n_train == n:
        raise DatasetError(
            f"splitting {n} episodes at {train_fraction} leaves one side empty"
        )
    episodes = episode_set.episodes

    def subset(indices):
        return EpisodeSet([episodes[i] for i in indices], episode_set.agent_fingerprint)

    return subset(order[:n_train]), subset(order[n_train:])


def _number_rows(steps: list, key: str) -> np.ndarray:
    """The (steps, width) float64 matrix of each step's `key`, a list of
    JSON numbers as wide as step 0's; a step that breaks this raises
    DatasetError naming it.

    The rows are converted as one flat list, which is cheaper than a
    nested one and pays for the type scan; their widths are checked on
    their own, since a flat list hides a ragged row.
    """
    rows = [step[key] for step in steps]
    width = len(rows[0]) if type(rows[0]) is list else -1
    try:
        widths = set(map(len, rows))
    except TypeError:  # a number, a bool or null
        widths = None
    # A string or object row of the width reaches `values` as characters
    # or keys, which the type scan refuses; only at width 0 it adds none.
    if widths == {width} and (width > 0 or set(map(type, rows)) == {list}):
        values = []
        for row in rows:
            values += row  # one C call per row: cheaper than chain.from_iterable
        # `type`, since a bool is an int; numpy would read "1.5" as 1.5.
        if set(map(type, values)) <= {float, int}:
            return np.fromiter(values, dtype=np.float64, count=len(values)).reshape(len(rows), width)
    for step, row in enumerate(rows):
        if type(row) is not list:
            raise DatasetError(f"step {step} has {key} {row!r}, not a list of numbers")
        if len(row) != width:
            raise DatasetError(f"step {step} has {len(row)} {key} values, step 0 has {width}")
        if not all(type(v) is float or type(v) is int for v in row):
            raise DatasetError(f"step {step} has a non-numeric {key}: {row!r}")
    raise AssertionError("every row is well formed")


def _first_non_finite(columns):
    """(key, step) of the first row holding a NaN or an infinity, over
    (key, (steps, ...) array) pairs taken in order; None if all are finite."""
    for key, values in columns:
        finite = np.isfinite(values)
        if not finite.all():
            return key, int(np.argmin(finite.reshape(len(values), -1).all(axis=1)))
    return None


def _episode_from_obj(obj: dict) -> Episode:
    steps = obj["steps"]
    if not steps:
        raise DatasetError("episode has no steps")
    qs, states = _number_rows(steps, "q"), _number_rows(steps, "s")
    rewards = [step["r"] for step in steps]
    if not set(map(type, rewards)) <= {float, int}:
        step = next(i for i, r in enumerate(rewards) if type(r) is not float and type(r) is not int)
        raise DatasetError(f"step {step} has a non-numeric r: {rewards[step]!r}")
    rewards = np.array(rewards, dtype=np.float64)
    hit = _first_non_finite((("q", qs), ("s", states), ("r", rewards)))
    if hit is not None:
        key, step = hit
        raise DatasetError(f"step {step} has a non-finite {key}: {steps[step][key]}")
    # An int64 cast would read 1.7 or true as 1 and overflow on 10**30.
    actions, width = [s["a"] for s in steps], qs.shape[1]
    if set(map(type, actions)) != {int} or not set(actions) <= set(range(width)):
        step = next(i for i, a in enumerate(actions) if type(a) is not int or not 0 <= a < width)
        raise DatasetError(f"step {step} has action {actions[step]!r}, not an integer in [0, {width})")
    return Episode(
        states=states,
        actions=np.array(actions, dtype=np.int64),
        qs=qs,
        rewards=rewards,
        label=Label(obj["label"]),
        cause=Cause(obj["cause"]),
    )


def _step_template(state_dim: int, width: int) -> bytes:
    """The bytes `%` template of one corpus step, with json.dumps's
    separators: a token for each float, the action as an integer."""
    s, q = (b", ".join([b"%b"] * n) for n in (state_dim, width))
    return b'{"s": [' + s + b'], "a": %d, "q": [' + q + b'], "r": %b}'


def _float_tokens(values: np.ndarray) -> list[bytes]:
    """The text `float.__repr__` gives each value of a flat, finite
    float64 array, as bytes.

    One orjson.dumps writes them all with repr's digits; the values where
    its notation is not repr's, outside 1e-4 <= |x| < 1e16 but for zero,
    are written with repr.
    """
    import orjson

    tokens = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
    magnitude = np.abs(values)
    other = np.flatnonzero(((magnitude < 1e-4) & (magnitude > 0.0)) | (magnitude >= 1e16))
    for i, value in zip(other.tolist(), values[other].tolist()):
        tokens[i] = repr(value).encode()
    return tokens


def _unwritable(episode: Episode) -> Optional[str]:
    """Why read_jsonl would refuse the episode's line, in its words, or None."""
    columns = {"q": episode.qs, "s": episode.states, "r": episode.rewards}
    hit = _first_non_finite(columns.items())
    if hit is not None:
        key, step = hit
        return f"step {step} has a non-finite {key}: {columns[key][step].tolist()}"
    width, actions = episode.qs.shape[1], episode.actions
    outside = (actions < 0) | (actions >= width)
    if outside.any():
        step = int(np.argmax(outside))
        return f"step {step} has action {actions[step].item()!r}, not an integer in [0, {width})"
    return None


def write_jsonl(episode_set: EpisodeSet, path) -> None:
    """One JSON object per line per episode, with json.dumps's bytes; UTF-8
    with LF endings. Each episode's floats are formatted by _float_tokens
    and filled into _step_template with one `%`.

    Every episode is checked before the file is opened: one that
    read_jsonl would refuse (a non-finite state, Q-value or reward, or an
    action outside [0, Q width)) raises ValueError naming it, its step and
    field, and leaves `path` untouched.
    """
    for i, episode in enumerate(episode_set.episodes):
        why = _unwritable(episode)
        if why is not None:
            raise ValueError(f"{path}: episode {i} not written: {why}")
    with open(path, "wb") as fh:
        for episode in episode_set.episodes:
            length, state_dim = episode.states.shape
            width = episode.qs.shape[1]
            tokens = _float_tokens(np.column_stack(
                (episode.states, episode.actions, episode.qs, episode.rewards)
            ).ravel())
            # Each step's action slot takes the integer, for the template's %d.
            tokens[state_dim::state_dim + width + 2] = episode.actions.tolist()
            head = (f'{{"label": {json.dumps(episode.label.value)}, '
                    f'"cause": {json.dumps(episode.cause.value)}, "steps": [')
            fh.write(head.encode())
            fh.write(b", ".join([_step_template(state_dim, width)] * length) % tuple(tokens))
            fh.write(b"]}\n")


@collection_paused()
def read_jsonl(path) -> EpisodeSet:
    """Parse an episode corpus; malformed lines, among them bytes that are
    not UTF-8, a state, Q-value or reward that is not a JSON number or is
    NaN or infinite, a row of states or Q-values of another width than the
    episode's first, an action that is not an integer index into the
    step's Q-vector, and a value nested too deeply to read, and lines whose
    Q-vector width differs from the first episode's, fail with their number.

    A line holds no set-level metadata, so the agent fingerprint stays
    unset.
    """
    episodes = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                try:
                    obj = decode(raw, ())
                except json.JSONDecodeError:  # as every blank line raises
                    if not raw.decode("utf-8").strip():
                        continue
                    raise
                episode = _episode_from_obj(obj)
            except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                # A refusal shows the value it refuses, and repr recurses once per level.
                why = "a value is nested too deeply to read" if type(exc) is RecursionError else exc
                raise DatasetError(f"{path}: malformed episode at line {lineno}: {why}") from exc
            width = episode.qs.shape[1]
            if not episodes:
                first_line, action_count = lineno, width
            elif width != action_count:
                raise DatasetError(
                    f"{path}: episode at line {lineno} has {width} Q-values per step, "
                    f"the one at line {first_line} has {action_count}"
                )
            episodes.append(episode)
    if not episodes:
        raise DatasetError(f"{path}: empty episode set")
    return EpisodeSet(episodes=episodes)
