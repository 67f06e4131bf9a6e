import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_episode, make_set
from safemon.agent import AgentModel, QNetwork
from safemon.dataset import (
    DatasetError,
    Episode,
    EpisodeSet,
    Label,
    collect,
    read_jsonl,
    split,
    write_jsonl,
)
from safemon.envs import CARTPOLE, ENV_KINDS, MOUNTAINCAR, Cause, make_env


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
    assert corpus.env_kind == CARTPOLE
    assert corpus.agent_fingerprint
    assert corpus.seed == 1
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


def test_read_infers_env_kind(tmp_path):
    path = tmp_path / "mc.jsonl"
    obj = {
        "label": "safe",
        "cause": "goal",
        "steps": [{"s": [-0.5, 0.0], "a": 2, "q": [0.1, 0.2, 0.3], "r": -1.0}],
    }
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    assert read_jsonl(path).env_kind == MOUNTAINCAR


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


@settings(max_examples=50, deadline=None)
@given(data=st.data(), env_kind=st.sampled_from(ENV_KINDS))
def test_jsonl_round_trip_property(data, env_kind):
    """read_jsonl(write_jsonl(s)) gives back every array bit for bit."""
    episodes = data.draw(st.lists(episodes_of(env_kind), min_size=1, max_size=4))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        write_jsonl(EpisodeSet(episodes=episodes), path)
        restored = read_jsonl(path)
    assert restored.env_kind == env_kind
    assert len(restored) == len(episodes)
    for before, after in zip(episodes, restored.episodes):
        assert (after.label, after.cause) == (before.label, before.cause)
        for field in ("qs", "states", "actions", "rewards"):
            a, b = getattr(after, field), getattr(before, field)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
