import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from safemon import agent
from safemon.agent import (
    REPORT_EVAL_EPISODES,
    AgentModel,
    AgentTrainConfig,
    CheckpointStat,
    EpsilonSchedule,
    QNetwork,
    TrainingDiverged,
    TrainReport,
    agent_fingerprint,
    greedy_action,
    greedy_rollouts,
    load_agent,
    save_agent,
    train_agent,
)
from safemon.envs import CARTPOLE, MOUNTAINCAR, Cause, make_env
from safemon.seeding import derive_seed


def tiny_model(env_kind=CARTPOLE, seed=0):
    dims = {CARTPOLE: (4, 2), MOUNTAINCAR: (2, 3)}[env_kind]
    rng = np.random.default_rng(seed)
    network = QNetwork((dims[0], 8, dims[1]), rng=rng)
    return AgentModel(env_kind=env_kind, network=network, gamma=0.99, seed=seed, steps_trained=0)


def test_greedy_action_rules():
    assert greedy_action([0.2, 0.9]) == 1
    assert greedy_action([0.5, 0.5]) == 0  # tie breaks to the lowest index
    assert greedy_action([-1.0, -2.0, -0.5]) == 2
    with pytest.raises(ValueError):
        greedy_action([])


def test_q_values_deterministic_and_sized():
    cart = tiny_model(CARTPOLE)
    state = np.array([0.01, -0.02, 0.03, 0.0])
    assert np.array_equal(cart.q_values(state), cart.q_values(state))
    assert cart.q_values(state).shape == (2,)
    mc = tiny_model(MOUNTAINCAR)
    assert mc.q_values(np.array([-0.5, 0.0])).shape == (3,)


def test_q_values_dimension_mismatch():
    with pytest.raises(ValueError):
        tiny_model(CARTPOLE).q_values(np.zeros(2))


def test_td_gradient_matches_central_differences():
    # Ten-parameter toy network: (1 -> 2 -> 2) gives 1*2+2 + 2*2+2 = 10.
    rng = np.random.default_rng(3)
    net = QNetwork((1, 2, 2), rng=rng)
    n_params = sum(w.size + b.size for w, b in net.weights)
    assert n_params == 10

    states = rng.uniform(-1, 1, size=(6, 1))
    actions = rng.integers(0, 2, size=6)
    targets = rng.uniform(-1, 1, size=6)
    _, grads = net.td_loss_and_grads(states, actions, targets)

    eps = 1e-6
    for layer, (w, b) in enumerate(net.weights):
        for arr, grad in ((w, grads[layer][0]), (b, grads[layer][1])):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                hi, _ = net.td_loss_and_grads(states, actions, targets)
                arr[idx] = orig - eps
                lo, _ = net.td_loss_and_grads(states, actions, targets)
                arr[idx] = orig
                fd = (hi - lo) / (2 * eps)
                assert abs(grad[idx] - fd) <= 1e-4 * max(1.0, abs(fd))


def test_serialization_preserves_q_values(tmp_path):
    model = tiny_model(CARTPOLE, seed=9)
    path = tmp_path / "agent.json"
    save_agent(model, path)
    restored = load_agent(path)
    rng = np.random.default_rng(0)
    for _ in range(20):
        state = rng.uniform(-1, 1, size=4)
        assert np.max(np.abs(restored.q_values(state) - model.q_values(state))) <= 1e-9
    assert agent_fingerprint(restored) == agent_fingerprint(model)
    assert restored.env_kind == CARTPOLE


MODERATE = st.floats(-1e3, 1e3)


@st.composite
def agent_models(draw):
    """Agents of random shape and weights, with or without a report."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=2, max_size=4))
    weights = [
        (
            draw(hnp.arrays(np.float64, (fan_in, fan_out), elements=MODERATE)),
            draw(hnp.arrays(np.float64, fan_out, elements=MODERATE)),
        )
        for fan_in, fan_out in zip(sizes, sizes[1:])
    ]
    network = QNetwork(
        sizes,
        weights=weights,
        input_offset=draw(hnp.arrays(np.float64, sizes[0], elements=MODERATE)),
        input_scale=draw(hnp.arrays(np.float64, sizes[0], elements=st.floats(1e-3, 1e3))),
    )
    rate = st.floats(0.0, 1.0)
    report = draw(st.none() | st.builds(
        TrainReport,
        mean_reward=MODERATE, unsafe_rate=rate, mean_length=st.floats(1.0, 200.0),
        eval_episodes=st.integers(1, 200), selected_step=st.integers(0, 10**6),
        band_satisfied=st.booleans(),
        checkpoints=st.lists(st.builds(
            CheckpointStat, step=st.integers(0, 10**6), unsafe_rate=rate,
            mean_reward=MODERATE, mean_length=st.floats(1.0, 200.0),
        ), max_size=3),
    ))
    return AgentModel(
        env_kind=draw(st.sampled_from([CARTPOLE, MOUNTAINCAR])),
        network=network,
        gamma=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
        steps_trained=draw(st.integers(0, 10**6)),
        report=report,
    )


@settings(max_examples=60, deadline=None)
@given(model=agent_models(), data=st.data())
def test_agent_file_round_trip_keeps_fingerprint_and_q_bits(model, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "agent.json"
        save_agent(model, path)
        restored = load_agent(path)
    assert agent_fingerprint(restored) == agent_fingerprint(model)
    assert restored.report == model.report
    dim = model.network.layer_sizes[0]
    states = data.draw(hnp.arrays(np.float64, (data.draw(st.integers(1, 8)), dim), elements=MODERATE))
    assert restored.network.forward(states).tobytes() == model.network.forward(states).tobytes()
    for state in states:
        assert restored.network.forward(state).tobytes() == model.network.forward(state).tobytes()


def smoke_config(**overrides):
    base = dict(
        total_steps=1500,
        replay_capacity=2000,
        batch_size=32,
        target_sync_interval=200,
        learning_rate=1e-3,
        epsilon=EpsilonSchedule(1.0, 0.1, 1000),
        gamma=0.99,
        hidden_sizes=(16, 16),
        seed=7,
        checkpoint_interval=1000,
        train_start=100,
    )
    base.update(overrides)
    return AgentTrainConfig(**base)


def test_train_agent_smoke_and_determinism():
    a = train_agent(CARTPOLE, smoke_config())
    b = train_agent(CARTPOLE, smoke_config())
    assert agent_fingerprint(a) == agent_fingerprint(b)
    assert a.report is not None
    assert a.report.mean_reward == b.report.mean_reward
    assert a.report.unsafe_rate == b.report.unsafe_rate
    assert len(a.report.checkpoints) >= 2
    c = train_agent(CARTPOLE, smoke_config(seed=8))
    assert agent_fingerprint(a) != agent_fingerprint(c)


def test_zero_step_budget_returns_random_model():
    model = train_agent(CARTPOLE, smoke_config(total_steps=0))
    assert model.steps_trained == 0
    assert model.report is not None  # evaluation still runs
    assert model.report.eval_episodes == 100


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_diagnostic():
    # Gradient clipping absorbs merely-too-large rates, so force a float
    # overflow to exercise the non-finite-loss abort path.
    with pytest.raises(TrainingDiverged, match="step"):
        train_agent(CARTPOLE, smoke_config(learning_rate=1e150, total_steps=3000))


def reference_episode(network, env_kind, seed):
    """One greedy episode run alone, one single-state forward per step."""
    env = make_env(env_kind)
    state = env.reset(seed=seed)
    states, actions, qs, rewards, total = [], [], [], [], 0.0
    while not env.done:
        q = network.forward(state)
        action = greedy_action(q)
        out = env.step(action)
        states.append(state)
        actions.append(action)
        qs.append(q)
        rewards.append(out.reward)
        total += out.reward
        state = out.next_state
    arrays = (np.array(states), np.array(actions, dtype=np.int64), np.array(qs), np.array(rewards))
    return total, env.steps_taken, out.cause, arrays


# Rough state magnitudes, so that random networks change their action.
NORMS = {
    CARTPOLE: (np.zeros(4), np.array([2.4, 3.0, 0.21, 3.0])),
    MOUNTAINCAR: (np.array([-0.3, 0.0]), np.array([0.9, 0.07])),
}


@st.composite
def networks(draw):
    env_kind = draw(st.sampled_from([CARTPOLE, MOUNTAINCAR]))
    env = make_env(env_kind)
    hidden = draw(st.lists(st.integers(1, 24), max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset, scale = NORMS[env_kind]
    network = QNetwork(
        (env.state_dim, *hidden, env.action_count), rng=rng, input_offset=offset, input_scale=scale
    )
    return env_kind, network


@settings(max_examples=40, deadline=None)
@given(net=networks(), seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=20))
def test_greedy_rollouts_equal_episodes_run_alone(net, seeds):
    env_kind, network = net
    runs = greedy_rollouts(network, env_kind, seeds, record=True)
    plain = greedy_rollouts(network, env_kind, seeds)
    assert (plain.totals, plain.lengths, plain.causes) == (runs.totals, runs.lengths, runs.causes)
    assert plain.states is None
    for i, seed in enumerate(seeds):
        total, length, cause, arrays = reference_episode(network, env_kind, seed)
        assert runs.totals[i] == total
        assert runs.lengths[i] == length
        assert runs.causes[i] is cause
        recorded = (runs.states, runs.actions, runs.qs, runs.rewards)
        for got, want in zip(recorded, arrays):
            assert got[:length, i].shape == want.shape
            assert got[:length, i].tobytes() == want.tobytes()


def test_greedy_rollouts_reject_network_of_another_env():
    with pytest.raises(ValueError, match="input dim 2 does not match the cartpole state dim 4"):
        greedy_rollouts(tiny_model(MOUNTAINCAR).network, CARTPOLE, [1, 2])
    three_actions = QNetwork((4, 8, 3), rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="output dim 3 does not match the cartpole action count 2"):
        greedy_rollouts(three_actions, CARTPOLE, [1, 2])


@settings(max_examples=100, deadline=None)
@given(
    net=networks(),
    n=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    spread=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_stacked_q_rows_equal_single_state_forward(net, n, seed, spread):
    _, network = net
    states = np.random.default_rng(seed).normal(0.0, spread, size=(n, network.layer_sizes[0]))
    stacked = network.forward(states)
    assert stacked.shape == (n, network.layer_sizes[-1])
    for row, state in zip(stacked, states):
        assert row.tobytes() == network.forward(state).tobytes()


@pytest.mark.parametrize("band", [None, (0.005, 0.05)])
def test_report_equals_fresh_evaluation_of_selected_checkpoint(band, monkeypatch):
    # Checkpoints 1000 and 1500 have unsafe rates 1% and 0%: the narrow
    # band selects the earlier one, the default band none (the final one).
    if band is not None:
        monkeypatch.setattr(agent, "UNSAFE_RATE_BAND", band)
    model = train_agent(CARTPOLE, smoke_config())
    report = model.report
    assert [c.step for c in report.checkpoints] == [1000, 1500]
    assert report.selected_step == (1000 if band else 1500)
    assert report.band_satisfied == (band is not None)
    episodes = [
        reference_episode(model.network, CARTPOLE, derive_seed(7, f"eval:{i}"))
        for i in range(REPORT_EVAL_EPISODES)
    ]
    assert report.eval_episodes == REPORT_EVAL_EPISODES
    assert report.mean_reward == float(np.mean([e[0] for e in episodes]))
    assert report.unsafe_rate == sum(e[2] is Cause.VIOLATION for e in episodes) / len(episodes)
    assert report.mean_length == float(np.mean([e[1] for e in episodes]))


def test_config_validation():
    with pytest.raises(ValueError):
        AgentTrainConfig(total_steps=-1)
    with pytest.raises(ValueError):
        AgentTrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        AgentTrainConfig(gamma=1.5)
    with pytest.raises(ValueError):
        EpsilonSchedule(start=0.1, end=0.5, decay_steps=100)
