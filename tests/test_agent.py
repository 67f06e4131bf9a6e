import dataclasses
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import orjson_refusing
from safemon import agent
from safemon.agent import (
    GRAD_CLIP_NORM,
    MOMENTUM,
    REPORT_EVAL_EPISODES,
    AgentModel,
    AgentTrainConfig,
    CheckpointStat,
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
from safemon.dataset import DatasetError
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


def flip_last_bit(values, i):
    values.view(np.int64)[i] ^= 1


# Each edit changes one thing the fingerprint covers.
FINGERPRINT_EDITS = {
    "weight-last-bit": lambda m: flip_last_bit(m.network.params, 5),
    "bias-zero-sign": lambda m: m.network.weights[0][1].__setitem__(0, -0.0),
    "input-offset-last-bit": lambda m: flip_last_bit(m.network.input_offset, 0),
    "input-scale-last-bit": lambda m: flip_last_bit(m.network.input_scale, 3),
    "env": lambda m: setattr(m, "env_kind", MOUNTAINCAR),
    "gamma": lambda m: setattr(m, "gamma", 0.98),
    "seed": lambda m: setattr(m, "seed", m.seed + 1),
    "steps-trained": lambda m: setattr(m, "steps_trained", 1),
}


@pytest.mark.parametrize("edit", sorted(FINGERPRINT_EDITS))
def test_fingerprint_follows_each_parameter_bit_and_header_field(edit):
    model = tiny_model(CARTPOLE, seed=3)
    assert math.copysign(1.0, model.network.weights[0][1][0]) == 1.0  # biases start at +0.0
    base = agent_fingerprint(model)
    assert re.fullmatch("[0-9a-f]{16}", base)
    twin = dataclasses.replace(model, network=model.network.copy())
    FINGERPRINT_EDITS[edit](twin)
    assert agent_fingerprint(twin) != base
    assert agent_fingerprint(model) == base


def test_fingerprint_leaves_out_the_training_report():
    model = tiny_model(CARTPOLE, seed=3)
    reported = dataclasses.replace(model, report=TrainReport(
        mean_reward=10.0, unsafe_rate=0.1, mean_length=50.0, eval_episodes=100,
        selected_step=0, band_satisfied=True, checkpoints=[CheckpointStat(0, 0.1, 10.0, 50.0)],
    ))
    assert agent_fingerprint(reported) == agent_fingerprint(model)


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


def agent_outcome(path):
    """The bytes save_agent writes for load_agent(path), or the message of
    the DatasetError that refused the file."""
    try:
        model = load_agent(path)
    except DatasetError as exc:
        return str(exc)
    again = Path(path).with_name("again.json")
    save_agent(model, again)
    return again.read_bytes()


def agent_outcome_by_json(path):
    with orjson_refusing():
        return agent_outcome(path)


WIDE = "18446744073709551616"  # 2**64: orjson reads it as a float, json as an int

# Edits to a saved agent's text that orjson refuses, or reads otherwise
# than json does.
AGENT_EDITS = {
    "as-saved": lambda text: text,
    "nan-in-report": lambda text: text.replace('"mean_reward": 10.0', '"mean_reward": NaN', 1),
    "nan-gamma": lambda text: text.replace('"gamma": 0.99', '"gamma": NaN', 1),
    "lone-surrogate": lambda text: text.replace('"env": ', '"note": "\\ud800", "env": ', 1),
    "bom": lambda text: "\ufeff" + text,
    "wide-seed": lambda text: text.replace('"seed": 3', f'"seed": {WIDE}', 1),
    "wide-negative-seed": lambda text: text.replace('"seed": 3', f'"seed": -{WIDE}', 1),
    "wide-steps-trained": lambda text: text.replace('"steps_trained": 0', f'"steps_trained": {WIDE}', 1),
    "wide-layer-size": lambda text: text.replace('"layer_sizes": [4,', f'"layer_sizes": [{WIDE},', 1),
    "wide-in-report": lambda text: text.replace('"selected_step": 0', f'"selected_step": {WIDE}', 1),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), edit=st.sampled_from(sorted(AGENT_EDITS) + ["truncated", "not-utf8"]))
def test_load_agent_reads_what_json_reads(data, edit):
    """Where orjson refuses an agent file or decodes a value otherwise,
    load_agent gives json's agent, written back byte for byte, or json's
    message."""
    model = dataclasses.replace(tiny_model(CARTPOLE, seed=3), report=TrainReport(
        mean_reward=10.0, unsafe_rate=0.1, mean_length=50.0, eval_episodes=100,
        selected_step=0, band_satisfied=True, checkpoints=[CheckpointStat(0, 0.1, 10.0, 50.0)],
    ))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "agent.json"
        save_agent(model, path)
        text = path.read_text(encoding="utf-8")
        if edit == "truncated":
            path.write_text(text[: data.draw(st.integers(0, len(text) - 2))], encoding="utf-8")
        elif edit == "not-utf8":
            raw = text.encode("utf-8")
            at = data.draw(st.integers(0, len(raw) - 1))
            path.write_bytes(raw[:at] + b"\xff" + raw[at:])
        else:
            edited = AGENT_EDITS[edit](text)
            assert (edited == text) == (edit == "as-saved")
            path.write_text(edited, encoding="utf-8")
        outcome = agent_outcome(path)
        assert outcome == agent_outcome_by_json(path)
    if edit in ("wide-seed", "wide-negative-seed", "wide-steps-trained", "wide-in-report"):
        assert outcome == edited.encode("utf-8")  # the integer is written back as it was
    if edit == "bom":
        assert "Unexpected UTF-8 BOM" in outcome  # as json.loads refuses the text


def smoke_config(**overrides):
    base = dict(
        total_steps=1500,
        target_sync_interval=200,
        learning_rate=1e-3,
        epsilon_end=0.1,
        epsilon_decay_steps=1000,
        gamma=0.99,
        seed=7,
        checkpoint_interval=1000,
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


def reference_update(weights, velocity, target_weights, network, batch, gamma, lr):
    """One DQN update on separate per-array parameters, written as the
    update was before the flat buffers; returns the loss and whether the
    gradient was clipped."""
    s, a, r, ns, done = batch

    def forward_cached(layers, states):
        acts = [(states - network.input_offset) / network.input_scale]
        for i, (w, b) in enumerate(layers):
            z = acts[-1] @ w + b
            acts.append(np.maximum(z, 0.0) if i != len(layers) - 1 else z)
        return acts

    next_target = forward_cached(target_weights, ns)[-1]
    best = np.argmax(forward_cached(weights, ns)[-1], axis=1)
    next_q = next_target[np.arange(len(ns)), best]
    targets = r + gamma * next_q * ~done
    acts = forward_cached(weights, s)
    rows = np.arange(len(s))
    diff = acts[-1][rows, a] - targets
    loss = float(np.mean(diff**2))
    delta = np.zeros_like(acts[-1])
    delta[rows, a] = 2.0 * diff / len(s)
    grads = [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        grads[i] = (acts[i].T @ delta, delta.sum(axis=0))
        if i > 0:
            delta = (delta @ weights[i][0].T) * (acts[i] > 0.0)
    norm = math.sqrt(sum(float((g**2).sum() + (gb**2).sum()) for g, gb in grads))
    scale = GRAD_CLIP_NORM / norm if norm > GRAD_CLIP_NORM else 1.0
    for (w, b), (gw, gb), (vw, vb) in zip(weights, grads, velocity):
        vw *= MOMENTUM
        vw -= lr * scale * gw
        vb *= MOMENTUM
        vb -= lr * scale * gb
        w += vw
        b += vb
    return loss, scale != 1.0


@settings(max_examples=60, deadline=None)
@given(
    net=networks(),
    seed=st.integers(0, 2**32 - 1),
    lr=st.sampled_from([1e-3, 0.1, 10.0]) | st.floats(1e-5, 10.0),
    reward_scale=st.sampled_from([1.0, 1e3]),
    gamma=st.floats(0.0, 1.0),
    batch_size=st.integers(1, 32),
    updates=st.integers(1, 5),
)
def test_flat_update_equals_per_array_reference(
    net, seed, lr, reward_scale, gamma, batch_size, updates
):
    env_kind, network = net
    dim = network.layer_sizes[0]
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 50))
    offset, scale = NORMS[env_kind]
    states = offset + scale * rng.normal(size=(n, dim))
    next_states = offset + scale * rng.normal(size=(n, dim))
    actions = rng.integers(0, network.layer_sizes[-1], size=n)
    rewards = reward_scale * rng.normal(size=n)
    done = rng.random(n) < 0.3
    buffer = agent._ReplayBuffer(64, dim)
    for row in zip(states, actions, rewards, next_states, done):
        buffer.add(*row)

    target = network.copy()
    optimizer = agent._SgdMomentum(network, lr)
    weights = [(w.copy(), b.copy()) for w, b in network.weights]
    target_weights = [(w.copy(), b.copy()) for w, b in network.weights]
    velocity = [(np.zeros_like(w), np.zeros_like(b)) for w, b in weights]
    draws, reference_draws = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(updates):
        loss = agent._dqn_update(
            network, target, optimizer, buffer.sample(batch_size, draws), gamma
        )
        idx = reference_draws.integers(0, n, size=batch_size)
        batch = (states[idx], actions[idx], rewards[idx], next_states[idx], done[idx])
        want, clipped = reference_update(
            weights, velocity, target_weights, network, batch, gamma, lr
        )
        event("clipped" if clipped else "not clipped")
        assert loss == want
        reference = np.concatenate([a.ravel() for layer in weights for a in layer])
        assert network.params.tobytes() == reference.tobytes()


def test_weights_are_views_of_params_and_copies_share_nothing():
    network = QNetwork((4, 8, 8, 2), rng=np.random.default_rng(1))
    assert network.params.shape == (4 * 8 + 8 + 8 * 8 + 8 + 8 * 2 + 2,)
    for w, b in network.weights:
        assert np.shares_memory(w, network.params)
        assert np.shares_memory(b, network.params)
    network.params[:] = np.arange(network.params.size)
    assert network.weights[0][0][0, 1] == 1.0
    assert network.weights[0][1][0] == 32.0  # the first bias follows its (4, 8) weight
    twin = network.copy()
    assert twin.params.tobytes() == network.params.tobytes()
    for mine, theirs in [
        (twin.params, network.params),
        (twin.input_offset, network.input_offset),
        (twin.input_scale, network.input_scale),
    ]:
        assert not np.shares_memory(mine, theirs)
    for (w, b), (tw, tb) in zip(network.weights, twin.weights):
        assert np.shares_memory(tw, twin.params) and not np.shares_memory(tw, w)
        assert np.shares_memory(tb, twin.params) and not np.shares_memory(tb, b)


def test_network_rejects_weights_of_another_shape():
    with pytest.raises(ValueError, match=r"weight of shape \(3, 2\) where layer sizes"):
        QNetwork((4, 2), weights=[(np.zeros((3, 2)), np.zeros(2))])
    with pytest.raises(ValueError, match="1 weight layers for layer sizes"):
        QNetwork((4, 8, 2), weights=[(np.zeros((4, 8)), np.zeros(8))])


@pytest.mark.parametrize("band", [None, (0.0, 0.05)])
def test_report_equals_fresh_evaluation_of_selected_checkpoint(band, monkeypatch):
    # At seed 30, checkpoints 1000 and 1500 have unsafe rates 0% and 57.5%:
    # the narrow band selects the earlier one, the default band none (the
    # final one).
    if band is not None:
        monkeypatch.setattr(agent, "UNSAFE_RATE_BAND", band)
    model = train_agent(CARTPOLE, smoke_config(seed=30))
    report = model.report
    assert [c.step for c in report.checkpoints] == [1000, 1500]
    assert report.selected_step == (1000 if band else 1500)
    assert report.band_satisfied == (band is not None)
    episodes = [
        reference_episode(model.network, CARTPOLE, derive_seed(30, f"eval:{i}"))
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
    for end in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="epsilon_end"):
            AgentTrainConfig(epsilon_end=end)
    with pytest.raises(ValueError, match="epsilon_decay_steps"):
        AgentTrainConfig(epsilon_decay_steps=0)


@given(end=st.floats(0.0, 1.0), decay=st.integers(1, 10**7), step=st.integers(0, 10**8))
def test_epsilon_is_the_linear_schedule_from_one_bit_for_bit(end, decay, step):
    """The exploration rate keeps the expression of the schedule it came
    from, whose start was always 1.0, so every exploration draw keeps its
    bits."""
    start = 1.0
    expected = start + (end - start) * min(step / decay, 1.0)
    got = AgentTrainConfig(epsilon_end=end, epsilon_decay_steps=decay).epsilon(step)
    assert got.hex() == expected.hex()
