import gc
import io
import json
import math
import re
import struct
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import safemon.agent
import safemon.dataset
import safemon.forest
import safemon.monitor
from conftest import forest_of, id_table, leaf_tree, make_episode, make_set, orjson_refusing, two_band_corpus
from safemon.agent import AgentModel, QNetwork, agent_fingerprint, load_agent, save_agent
from safemon.cli import main
from safemon.dataset import (
    DatasetError,
    Episode,
    EpisodeSet,
    Label,
    collect,
    read_jsonl,
    split,
    write_jsonl,
    _float_tokens,
)
from safemon.envs import CARTPOLE, ENV_KINDS, MOUNTAINCAR, Cause, make_env
from safemon.monitor import MonitorModel, load_model, save_model, watch_stream


@pytest.fixture(scope="module")
def random_cartpole_agent():
    rng = np.random.default_rng(0)
    network = QNetwork(
        (4, 16, 2),
        rng=rng,
        input_offset=np.zeros(4),
        input_scale=np.array([2.4, 3.0, 0.21, 3.0]),
    )
    return AgentModel(env_kind=CARTPOLE, network=network, gamma=0.99, seed=0, steps_trained=0)


def serialize_set(episode_set, tmp_path, name):
    path = tmp_path / name
    write_jsonl(episode_set, path)
    return path.read_text(encoding="utf-8")


def test_collect_is_seed_deterministic(random_cartpole_agent, tmp_path):
    a = collect(random_cartpole_agent, CARTPOLE, 1, seed=5)
    b = collect(random_cartpole_agent, CARTPOLE, 1, seed=5)
    assert serialize_set(a, tmp_path, "a.jsonl") == serialize_set(b, tmp_path, "b.jsonl")
    c = collect(random_cartpole_agent, CARTPOLE, 1, seed=6)
    assert serialize_set(a, tmp_path, "a2.jsonl") != serialize_set(c, tmp_path, "c.jsonl")


def test_collect_labels_and_metadata(random_cartpole_agent):
    corpus = collect(random_cartpole_agent, CARTPOLE, 25, seed=1)
    assert len(corpus) == 25
    assert corpus.agent_fingerprint == agent_fingerprint(random_cartpole_agent)
    for episode in corpus.episodes:
        # label consistency with the stored cause, violation only terminal
        assert (episode.label is Label.UNSAFE) == (episode.cause is Cause.VIOLATION)
        assert 1 <= episode.length <= 200
        assert episode.qs.shape == (episode.length, 2)


def test_collect_rejects_env_mismatch(random_cartpole_agent):
    with pytest.raises(DatasetError):
        collect(random_cartpole_agent, MOUNTAINCAR, 1, seed=0)
    with pytest.raises(DatasetError):
        collect(random_cartpole_agent, CARTPOLE, 0, seed=0)


def test_collect_records_greedy_path(random_cartpole_agent):
    # Episodes stepped together record what each state gives alone.
    corpus = collect(random_cartpole_agent, CARTPOLE, 12, seed=3)
    assert len({e.length for e in corpus.episodes}) > 1  # some end while others run
    for episode in corpus.episodes:
        for state, action, q in zip(episode.states, episode.actions, episode.qs):
            assert np.array_equal(random_cartpole_agent.q_values(state), q)
            assert action == int(np.argmax(q))


def test_split_arithmetic():
    corpus = make_set([make_episode([[0.1]]) for _ in range(2200)])
    train, test = split(corpus, 0.7, seed=9)
    assert (len(train), len(test)) == (1540, 660)


def test_split_deterministic_and_disjoint():
    episodes = [make_episode([[float(i)]]) for i in range(10)]
    corpus = make_set(episodes)
    t1a, t2a = split(corpus, 0.5, seed=4)
    t1b, t2b = split(corpus, 0.5, seed=4)
    key = lambda s: [float(e.qs[0, 0]) for e in s.episodes]
    assert key(t1a) == key(t1b) and key(t2a) == key(t2b)
    assert sorted(key(t1a) + key(t2a)) == sorted(key(corpus))
    assert set(key(t1a)).isdisjoint(key(t2a))


def test_split_empty_side_errors():
    corpus = make_set([make_episode([[0.0]])])
    with pytest.raises(DatasetError):
        split(corpus, 0.7, seed=0)
    big = make_set([make_episode([[0.0]]) for _ in range(10)])
    with pytest.raises(DatasetError):
        split(big, 1.0, seed=0)


def test_jsonl_round_trip(tmp_path):
    episodes = [
        make_episode([[0.5, -0.25], [1.5, 0.0]]),
        make_episode([[9.0, 2.0]], unsafe=True),
        make_episode([[-3.25, 0.125], [0.0, 0.0], [1.0, 7.0]]),
    ]
    corpus = make_set(episodes)
    path = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, path)
    restored = read_jsonl(path)
    assert len(restored) == 3
    for before, after in zip(corpus.episodes, restored.episodes):
        assert after.label == before.label
        assert after.cause == before.cause
        assert np.array_equal(after.states, before.states)
        assert np.array_equal(after.actions, before.actions)
        assert np.array_equal(after.qs, before.qs)
        assert np.array_equal(after.rewards, before.rewards)


def test_jsonl_truncated_line_reports_number(tmp_path):
    corpus = make_set([make_episode([[1.0]]), make_episode([[2.0]])])
    path = tmp_path / "broken.jsonl"
    write_jsonl(corpus, path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text[:-20], encoding="utf-8")  # truncate the final line
    with pytest.raises(DatasetError, match="line 2"):
        read_jsonl(path)


@pytest.mark.parametrize("literal, shown", [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf")])
def test_jsonl_rejects_non_finite_q_naming_line_and_step(tmp_path, literal, shown):
    # json.loads reads these literals as floats; the corpus reader must not.
    path = tmp_path / "nan.jsonl"
    write_jsonl(make_set([make_episode([[1.0], [2.0]]), make_episode([[1.0], [2.0], [3.0]])]), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace('"q": [3.0]', f'"q": [{literal}]')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match=re.escape(f"line 2: step 2 has a non-finite q: [{shown}]")):
        read_jsonl(path)


def test_jsonl_rejects_bytes_that_are_not_utf8_naming_the_line(tmp_path):
    path = tmp_path / "latin1.jsonl"
    write_jsonl(make_set([make_episode([[1.0]]), make_episode([[2.0]])]), path)
    first, second = path.read_bytes().splitlines()
    path.write_bytes(first + b"\n" + second.replace(b'"safe"', b'"saf\xff"') + b"\n")
    message = f"{path}: malformed episode at line 2: 'utf-8' codec can't decode byte 0xff"
    with pytest.raises(DatasetError, match=re.escape(message)):
        read_jsonl(path)


def test_jsonl_empty_file_errors(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DatasetError, match="empty episode set"):
        read_jsonl(path)


def test_jsonl_inconsistent_label_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    obj = {
        "label": "unsafe",
        "cause": "step_limit",
        "steps": [{"s": [0.0, 0.0], "a": 0, "q": [0.1, 0.2], "r": -1.0}],
    }
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="line 1"):
        read_jsonl(path)


def test_episode_validation():
    with pytest.raises(DatasetError):
        Episode(
            states=np.zeros((0, 2)),
            actions=np.zeros(0, dtype=int),
            qs=np.zeros((0, 2)),
            rewards=np.zeros(0),
            label=Label.SAFE,
            cause=Cause.STEP_LIMIT,
        )
    with pytest.raises(DatasetError):
        EpisodeSet(episodes=[])


def test_jsonl_rejects_episode_of_another_width(tmp_path):
    path = tmp_path / "mixed.jsonl"
    write_jsonl(
        make_set([make_episode([[1.0, 2.0]]), make_episode([[1.0, 2.0]]),
                  make_episode([[1.0, 2.0, 3.0]])]),
        path,
    )
    with pytest.raises(DatasetError, match="line 3 has 3 Q-values per step, the one at line 1 has 2"):
        read_jsonl(path)


def test_jsonl_rejects_scalar_q(tmp_path):
    path = tmp_path / "scalar.jsonl"
    obj = {"label": "safe", "cause": "goal",
           "steps": [{"s": [-0.5, 0.0], "a": 0, "q": 0.5, "r": -1.0}]}
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(DatasetError, match="line 1"):
        read_jsonl(path)


@st.composite
def episodes_of(draw, env_kind):
    """Episodes of an env's widths, with any finite floats in them."""
    env = make_env(env_kind)
    length = draw(st.integers(1, 8))
    value = st.floats(allow_nan=False, allow_infinity=False)

    def matrix(width):
        row = st.lists(value, min_size=width, max_size=width)
        return np.array(draw(st.lists(row, min_size=length, max_size=length)), dtype=np.float64)

    cause = draw(st.sampled_from(Cause))
    return Episode(
        states=matrix(env.state_dim),
        actions=np.array(
            draw(st.lists(st.sampled_from(env.actions), min_size=length, max_size=length)),
            dtype=np.int64,
        ),
        qs=matrix(env.action_count),
        rewards=np.array(draw(st.lists(value, min_size=length, max_size=length))),
        label=Label.UNSAFE if cause is Cause.VIOLATION else Label.SAFE,
        cause=cause,
    )


def json_dumps_corpus(episodes) -> bytes:
    """The corpus as json.dumps writes it: one dict per episode and a
    newline, the reference for write_jsonl's bytes."""
    lines = []
    for e in episodes:
        columns = (e.states.tolist(), e.actions.astype(np.int64).tolist(), e.qs.tolist(),
                   e.rewards.astype(np.float64).tolist())
        steps = [{"s": s, "a": a, "q": q, "r": r} for s, a, q, r in zip(*columns)]
        lines.append(json.dumps({"label": e.label.value, "cause": e.cause.value, "steps": steps}) + "\n")
    return "".join(lines).encode("utf-8")


@settings(max_examples=50, deadline=None)
@given(data=st.data(), env_kind=st.sampled_from(ENV_KINDS))
def test_jsonl_round_trip_property(data, env_kind):
    """read_jsonl(write_jsonl(s)) gives back every array bit for bit, and
    the file holds the bytes json.dumps gives."""
    episodes = data.draw(st.lists(episodes_of(env_kind), min_size=1, max_size=4))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        write_jsonl(EpisodeSet(episodes=episodes), path)
        assert path.read_bytes() == json_dumps_corpus(episodes)
        restored = read_jsonl(path)
    assert len(restored) == len(episodes)
    for before, after in zip(episodes, restored.episodes):
        assert (after.label, after.cause) == (before.label, before.cause)
        for field in ("qs", "states", "actions", "rewards"):
            a, b = getattr(after, field), getattr(before, field)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


# Floats whose shortest repr takes each of repr's forms: a signed zero, the
# smallest subnormal, exponent and fixed notation on both sides of the
# switches, 17 significant digits and the largest finite value. The second
# row is where orjson's notation is not repr's, or sits at its switch.
WRITER_EDGE_FLOATS = [-0.0, 5e-324, 1e-05, 0.0001, 1e16, 123456789012345678.0,
                      1.7976931348623157e308, 200.0,
                      1.234e-05, 9.999999999999999e-05, 1e-07, 1e15, 1.5e16, 1e22]


@pytest.mark.parametrize("width", [1, 2, 3])
def test_jsonl_writes_edge_floats_as_json_dumps_does(tmp_path, width):
    values = WRITER_EDGE_FLOATS + [-v for v in WRITER_EDGE_FLOATS]
    length = len(values)
    pick = lambda k, n: np.array([[values[(k + i * n + j) % length] for j in range(n)]
                                  for i in range(length)])
    episodes = [
        Episode(states=pick(k, 2), actions=np.arange(length, dtype=np.int64) % width,
                qs=pick(k + 1, width), rewards=pick(k + 2, 1)[:, 0],
                label=Label.UNSAFE if k else Label.SAFE,
                cause=Cause.VIOLATION if k else Cause.GOAL)
        for k in range(2)
    ]
    path = tmp_path / "edge.jsonl"
    write_jsonl(EpisodeSet(episodes=episodes), path)
    text = path.read_bytes()
    assert text == json_dumps_corpus(episodes)
    for value in ("-0.0", "5e-324", "1e-05", "0.0001", "1e+16", "1.2345678901234568e+17",
                  "1.7976931348623157e+308", "-200.0", "1.234e-05", "-9.999999999999999e-05",
                  "1e-07", "1000000000000000.0", "-1.5e+16", "1e+22"):
        assert value.encode() in text
    restored = read_jsonl(path)
    for before, after in zip(episodes, restored.episodes):
        for field in ("qs", "states", "actions", "rewards"):
            assert getattr(after, field).tobytes() == getattr(before, field).tobytes()


@pytest.mark.parametrize(
    "field, step, value, cause",
    [("qs", 1, [math.nan, 2.0], "step 1 has a non-finite q: [nan, 2.0]"),
     ("qs", 2, [1.0, -math.inf], "step 2 has a non-finite q: [1.0, -inf]"),
     ("states", 0, [math.inf, 0.0], "step 0 has a non-finite s: [inf, 0.0]"),
     ("rewards", 2, math.nan, "step 2 has a non-finite r: nan"),
     ("actions", 1, 2, "step 1 has action 2, not an integer in [0, 2)"),
     ("actions", 2, -1, "step 2 has action -1, not an integer in [0, 2)")],
)
def test_write_refuses_what_read_refuses_before_opening_the_file(tmp_path, field, step, value, cause):
    good, bad = make_episode([[1.0, 2.0]] * 3), make_episode([[1.0, 2.0]] * 3)
    getattr(bad, field)[step] = value
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"kept\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: episode 1 not written: {cause}")) as info:
        write_jsonl(make_set([good, bad]), path)
    assert not isinstance(info.value, DatasetError)  # a numeric failure, not a bad file
    assert path.read_bytes() == b"kept\n"


def corpus_with_line_2_edited(tmp_path, edit):
    """A two-episode corpus whose second line, parsed, goes through
    edit(obj) before it is written back."""
    path = tmp_path / "edited.jsonl"
    write_jsonl(make_set([make_episode([[1.0, 2.0]]), make_episode([[1.0, 2.0], [3.0, 4.0]])]), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[1])
    edit(obj)
    lines[1] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "action, shown",
    # 10**30 is beyond 64 bits, which orjson decodes as the nearest float.
    [(1.7, "1.7"), (1.0, "1.0"), (True, "True"), ("1", "'1'"), (None, "None"),
     (-1, "-1"), (2, "2"), (10**30, "1e+30")],
)
def test_jsonl_rejects_an_action_that_is_not_an_index_of_q(tmp_path, action, shown):
    path = corpus_with_line_2_edited(tmp_path, lambda obj: obj["steps"][1].__setitem__("a", action))
    message = f"line 2: step 1 has action {shown}, not an integer in [0, 2)"
    with pytest.raises(DatasetError, match=re.escape(message)):
        read_jsonl(path)


@pytest.mark.parametrize("field", ["s", "r"])
@pytest.mark.parametrize("value, shown", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")])
def test_jsonl_rejects_non_finite_states_and_rewards_naming_line_and_step(tmp_path, field, value, shown):
    def edit(obj):
        obj["steps"][1][field] = value if field == "r" else [0.0, value]

    path = corpus_with_line_2_edited(tmp_path, edit)
    shown = shown if field == "r" else f"[0.0, {shown}]"
    with pytest.raises(DatasetError, match=re.escape(f"line 2: step 1 has a non-finite {field}: {shown}")):
        read_jsonl(path)


@pytest.mark.parametrize(
    "field, value, cause",
    # numpy would read a string as the number it spells and a bool as 0 or 1.
    [("q", [3.0, "1.5"], "a non-numeric q: [3.0, '1.5']"),
     ("q", [True, 4.0], "a non-numeric q: [True, 4.0]"),
     ("q", [3.0, None], "a non-numeric q: [3.0, None]"),
     ("q", [[3.0], 4.0], "a non-numeric q: [[3.0], 4.0]"),
     ("s", ["0.0", 0.0], "a non-numeric s: ['0.0', 0.0]"),
     ("s", [0.0, False], "a non-numeric s: [0.0, False]"),
     ("r", "-1.0", "a non-numeric r: '-1.0'"),
     ("r", True, "a non-numeric r: True"),
     ("r", [-1.0], "a non-numeric r: [-1.0]"),
     # A row of another width, or no list; the first step has width 2.
     ("q", [3.0], "1 q values, step 0 has 2"),
     ("q", [3.0, 4.0, 5.0], "3 q values, step 0 has 2"),
     ("s", [0.0, 0.0, 0.0], "3 s values, step 0 has 2"),
     ("q", 3.0, "q 3.0, not a list of numbers"),
     ("q", "34", "q '34', not a list of numbers"),
     ("q", {"a": 3.0, "b": 4.0}, "q {'a': 3.0, 'b': 4.0}, not a list of numbers"),
     ("s", None, "s None, not a list of numbers")],
)
def test_jsonl_rejects_a_value_that_is_not_a_json_number_naming_line_and_step(tmp_path, field, value, cause):
    path = corpus_with_line_2_edited(tmp_path, lambda obj: obj["steps"][1].__setitem__(field, value))
    with pytest.raises(DatasetError, match=re.escape(f"malformed episode at line 2: step 1 has {cause}")):
        read_jsonl(path)


def test_jsonl_rejects_ragged_rows_that_flatten_to_the_right_length(tmp_path):
    def edit(obj):
        obj["steps"][0]["q"], obj["steps"][1]["q"] = [1.0, 2.0, 3.0], [4.0]

    path = corpus_with_line_2_edited(tmp_path, edit)
    with pytest.raises(DatasetError, match=re.escape("line 2: step 1 has 1 q values, step 0 has 3")):
        read_jsonl(path)


def test_jsonl_refuses_empty_rows_unless_they_are_lists(tmp_path):
    def edit(obj):
        obj["steps"][0]["s"], obj["steps"][1]["s"] = [], ""

    path = corpus_with_line_2_edited(tmp_path, edit)
    with pytest.raises(DatasetError, match=re.escape("line 2: step 1 has s '', not a list of numbers")):
        read_jsonl(path)


@pytest.mark.parametrize("field", ["s", "q", "r"])
def test_jsonl_rejects_an_integer_beyond_float64(tmp_path, field):
    def edit(obj):
        step = obj["steps"][0]
        step[field] = 10**400 if field == "r" else [10**400, *step[field][1:]]

    path = corpus_with_line_2_edited(tmp_path, edit)
    with pytest.raises(DatasetError, match="line 2: int too large to convert to float"):
        read_jsonl(path)


def decoded_by_json(path):
    """read_jsonl(path) with every line decoded by json.loads, as before
    orjson: orjson refuses each line, so each goes to the json fallback."""
    with orjson_refusing():
        return read_jsonl(path)


def outcome(read, path):
    """The arrays of every episode, or the message of the DatasetError
    that refused the corpus."""
    try:
        episode_set = read(path)
    except DatasetError as exc:
        return str(exc)
    return [(e.label, e.cause, as_bytes(e.states, e.actions, e.qs, e.rewards)) for e in episode_set.episodes]


def as_bytes(*arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


# Any finite bit pattern (subnormals, both zeros, 17-digit values) and the
# values next to float64's limits.
edge_floats = st.one_of(
    st.integers(0, 2**64 - 1)
    .map(lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0])
    .filter(math.isfinite),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308, 1e-308, 1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=500, deadline=None)
@given(value=edge_floats)
def test_float_tokens_give_repr(value):
    assert _float_tokens(np.array([value, -value])) == [repr(value).encode(), repr(-value).encode()]


def test_float_tokens_give_repr_over_random_bit_patterns():
    """repr's text for random finite bit patterns, for values near the
    notation switches, and for fixed-notation values holding a run of zeros
    (121964739380.00003) that a rewrite of the text must leave alone."""
    rng = np.random.default_rng(24)
    bits = rng.integers(0, 2**64, size=250_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    near = np.concatenate([rng.standard_normal(20_000) * scale for scale in (1e-6, 3e-5, 1e16)])
    fixed = np.array([121964739380.00003, 3770.0000817, 10.00001, -0.00010000000000000009])
    for batch in (values, near, np.round(near / 1e-5, 3) * 1e-5, fixed):
        assert _float_tokens(batch) == [repr(v).encode() for v in batch.tolist()]


# Integers beyond 64 bits: orjson decodes them as floats, json as ints.
big_ints = st.integers(2**63, 10**308) | st.integers(-(10**308), -(2**63) - 1)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), env_kind=st.sampled_from(ENV_KINDS))
def test_orjson_decodes_corpus_arrays_as_json_does(data, env_kind):
    """Corpus lines with any finite floats, and integers beyond 64 bits
    put into s, q and r, read to arrays with json's bytes."""
    env = make_env(env_kind)
    length = data.draw(st.integers(1, 6))

    def matrix(width):
        return np.array(data.draw(st.lists(st.lists(edge_floats, min_size=width, max_size=width),
                                           min_size=length, max_size=length)))

    episode = Episode(
        states=matrix(env.state_dim),
        actions=np.array(data.draw(st.lists(st.sampled_from(env.actions), min_size=length,
                                            max_size=length)), dtype=np.int64),
        qs=matrix(env.action_count),
        rewards=matrix(1)[:, 0],
        label=Label.SAFE,
        cause=Cause.STEP_LIMIT,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        write_jsonl(EpisodeSet(episodes=[episode]), path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        for _ in range(data.draw(st.integers(0, 4))):
            step = obj["steps"][data.draw(st.integers(0, length - 1))]
            field = data.draw(st.sampled_from(["s", "q", "r"]))
            if field == "r":
                step["r"] = data.draw(big_ints)
            else:
                step[field][data.draw(st.integers(0, len(step[field]) - 1))] = data.draw(big_ints)
        path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        (restored,) = read_jsonl(path).episodes
    steps = obj["steps"]
    column = lambda key: np.array([step[key] for step in steps], dtype=np.float64)
    assert as_bytes(restored.states, restored.actions, restored.qs, restored.rewards) == as_bytes(
        column("s"), episode.actions, column("q"), column("r")
    )


def test_a_line_whose_text_strips_to_nothing_is_skipped(tmp_path):
    """A blank line is one whose UTF-8 text str.strip empties, so Unicode
    whitespace counts as well as ASCII; it is skipped, but it still counts
    in the line numbers messages give."""
    path = tmp_path / "corpus.jsonl"
    write_jsonl(make_set([make_episode([[1.0, 2.0]]), make_episode([[3.0, 4.0]])]), path)
    first, second = path.read_text(encoding="utf-8").splitlines()
    text = f"\n{first}\n \t\u2028\u00a0\n\x0c\n{second}\n"
    path.write_text(text, encoding="utf-8")
    assert [e.qs.tolist() for e in read_jsonl(path).episodes] == [[[1.0, 2.0]], [[3.0, 4.0]]]
    path.write_text(text + "\u200b\n", encoding="utf-8")  # a zero-width space is no whitespace
    with pytest.raises(DatasetError, match="malformed episode at line 6: Expecting value"):
        read_jsonl(path)


# Edits to the text of a corpus line that orjson or json refuses.
REFUSED_EDITS = {
    "nan-q": lambda line: line.replace('"q": [', '"q": [NaN, ', 1),
    "infinite-s": lambda line: line.replace('"s": [', '"s": [Infinity, ', 1),
    "negative-infinite-q": lambda line: line.replace('"q": [', '"q": [-Infinity, ', 1),
    "1e400-r": lambda line: line.replace('"r": ', '"r": 1e400, "x": ', 1),
    "1e400-q": lambda line: line.replace('"q": [', '"q": [-1e400, ', 1),
    "400-digit-s": lambda line: line.replace('"s": [', f'"s": [{10**400}, ', 1),
    "lone-surrogate-label": lambda line: line.replace('"label": "', '"label": "\\ud800', 1),
    "lone-surrogate-key": lambda line: line.replace('"cause": ', '"\\udfff": 0, "cause": ', 1),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), edit=st.sampled_from(sorted(REFUSED_EDITS) + ["truncated"]))
def test_lines_a_decoder_refuses_read_as_json_reads_them(data, edit):
    """Where orjson or json refuses a line, read_jsonl gives json's result
    or json's message."""
    q = data.draw(st.lists(st.lists(edge_floats, min_size=2, max_size=2), min_size=1, max_size=3))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        write_jsonl(make_set([make_episode([[1.0, 2.0]]), make_episode(q)]), path)
        first, second = path.read_text(encoding="utf-8").splitlines()
        if edit == "truncated":
            second = second[: data.draw(st.integers(0, len(second) - 1))]
        else:
            second = REFUSED_EDITS[edit](second)
        path.write_text(f"{first}\n{second}\n", encoding="utf-8")
        assert outcome(read_jsonl, path) == outcome(decoded_by_json, path)


# Loading with collection paused. A loader keeps every container it
# decodes alive until it returns, so a collector pass during a load walks
# them and frees nothing; the loaders pause collection, and nothing else
# does.


@pytest.fixture
def loadable(tmp_path, random_cartpole_agent):
    """{loader name: (loader, a file it loads, a file it refuses)}."""
    model, agent, corpus = tmp_path / "model.json", tmp_path / "agent.json", tmp_path / "c.jsonl"
    forest = forest_of([leaf_tree(0.25), leaf_tree(0.75)], 4)
    save_model(MonitorModel(table=id_table(4), forest=forest), model)
    save_agent(random_cartpole_agent, agent)
    write_jsonl(two_band_corpus(n_per_class=3), corpus)
    bad_model, bad_agent, bad_corpus = (tmp_path / f"bad-{p.name}" for p in (model, agent, corpus))
    bad_model.write_text(model.read_text().replace('"theta": 0.5', '"theta": 1.5'), encoding="utf-8")
    bad_agent.write_text(agent.read_text().replace('"gamma": 0.99', '"gamma": "x"'), encoding="utf-8")
    lines = corpus.read_text().splitlines(keepends=True)
    bad_corpus.write_text("".join(lines[:2] + [lines[2][:-9] + "\n"] + lines[3:]), encoding="utf-8")
    return {"load_model": (load_model, model, bad_model), "load_agent": (load_agent, agent, bad_agent),
            "read_jsonl": (read_jsonl, corpus, bad_corpus)}


@pytest.fixture
def collection_restored():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


LOADERS = ["load_model", "load_agent", "read_jsonl"]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("name", LOADERS)
def test_a_loader_leaves_collection_as_it_found_it(name, enabled, loadable, collection_restored):
    load, good, bad = loadable[name]
    if enabled:
        gc.enable()
    else:
        gc.disable()
    load(good)
    assert gc.isenabled() is enabled
    with pytest.raises(DatasetError):
        load(bad)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("name", LOADERS)
def test_a_loader_decodes_and_converts_with_collection_paused(name, loadable, monkeypatch,
                                                               collection_restored):
    gc.enable()
    seen = []
    for module, function in [(safemon.dataset, "decode"), (safemon.dataset, "_episode_from_obj"),
                             (safemon.monitor, "_model_from_doc"), (safemon.agent, "_agent_from_doc")]:
        def spy(*args, _inner=getattr(module, function), _name=function):
            seen.append((_name, gc.isenabled()))
            return _inner(*args)

        monkeypatch.setattr(module, function, spy)
    load, good, _ = loadable[name]
    load(good)
    assert seen and not any(enabled for _, enabled in seen), seen
    assert gc.isenabled()


@pytest.mark.parametrize("name", LOADERS)
def test_a_load_leaves_no_cyclic_garbage(name, loadable, collection_restored):
    """Why the pause is safe: a decoded JSON value holds no reference
    cycle and the conversions build none, so nothing is left for a pass
    to free, after a load or a refused model file."""
    load, good, bad = loadable[name]
    load(good)  # a first load may import modules, whose objects hold cycles
    gc.disable()
    gc.collect()
    loaded = load(good)  # noqa: F841 (held across the pass, as a caller holds it)
    assert gc.collect() == 0
    if name == "load_model":
        with pytest.raises(DatasetError):
            load(bad)
        assert gc.collect() == 0


@pytest.mark.parametrize("name, key", [("load_model", "format"), ("load_agent", "format"),
                                       ("read_jsonl", "steps")])
def test_collection_resumes_once_the_loader_has_released_what_it_decoded(name, key, loadable,
                                                                          monkeypatch,
                                                                          collection_restored):
    """The pass that follows a load walks what the loader returns: the
    decoded document (or the last corpus line) is freed with the loader's
    frame, before collection resumes."""
    gc.enable()
    decoded_left = []

    def enable():
        decoded_left.append(any(type(o) is dict and key in o for o in gc.get_objects(0)))
        gc.enable()

    monkeypatch.setattr(safemon.dataset, "gc",
                        SimpleNamespace(isenabled=gc.isenabled, disable=gc.disable, enable=enable))
    load, good, _ = loadable[name]
    gc.collect()
    load(good)
    assert decoded_left == [False]


def test_watch_steps_and_the_forest_fit_run_with_collection_on(loadable, tmp_path, monkeypatch,
                                                               collection_restored):
    gc.enable()
    seen = []
    observe, train_forest = safemon.monitor.observe, safemon.forest.train_forest

    def observe_spy(*args):
        seen.append(("observe", gc.isenabled()))
        return observe(*args)

    def train_spy(*args, **kwargs):
        seen.append(("train_forest", gc.isenabled()))
        return train_forest(*args, **kwargs)

    monkeypatch.setattr(safemon.monitor, "observe", observe_spy)
    monkeypatch.setattr(safemon.forest, "train_forest", train_spy)
    lines = "".join(f'{{"t": {t}, "q": [{t + 0.5}]}}\n' for t in range(4))
    out, err = io.StringIO(), io.StringIO()
    assert watch_stream(load_model(loadable["load_model"][1]), io.StringIO(lines), out, err) == 0
    assert err.getvalue() == "" and len(out.getvalue().splitlines()) == 4
    corpus = loadable["read_jsonl"][1]
    argv = ["build", "--episodes", str(corpus), "--d", "1.0", "--trees", "3", "--out",
            str(tmp_path / "built.json")]
    assert main(argv) == 0
    assert seen == [("observe", True)] * 4 + [("train_forest", True)]
