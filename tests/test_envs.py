import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from safemon.envs import (
    CARTPOLE,
    CAUSES,
    MOUNTAINCAR,
    STEP_LIMIT,
    CartPoleEnv,
    Cause,
    EnvError,
    MountainCarEnv,
    StepOutcome,
    make_env,
)


def rollout(env, seed, policy):
    """Greedy rollout helper; returns (states, outcomes)."""
    state = env.reset(seed=seed)
    states = [state]
    outcomes = []
    while not env.done:
        out = env.step(policy(env.state, env.steps_taken))
        states.append(out.next_state)
        outcomes.append(out)
    return states, outcomes


def test_make_env_kinds():
    assert isinstance(make_env(CARTPOLE), CartPoleEnv)
    assert isinstance(make_env(MOUNTAINCAR), MountainCarEnv)
    with pytest.raises(EnvError):
        make_env("bogus")


def test_reset_same_seed_identical():
    a = make_env(CARTPOLE).reset(seed=7)
    b = make_env(CARTPOLE).reset(seed=7)
    assert np.array_equal(a, b)


def test_mountaincar_reset_velocity_zero():
    for seed in range(20):
        state = make_env(MOUNTAINCAR).reset(seed=seed)
        assert state[1] == 0.0


def test_mountaincar_reset_position_bounds():
    # Sampling check against the stated initial distribution.
    env = make_env(MOUNTAINCAR)
    positions = np.array([env.reset(seed=s)[0] for s in range(10_000)])
    assert positions.min() >= -0.6
    assert positions.max() <= -0.4


def test_cartpole_reset_bounds():
    env = make_env(CARTPOLE)
    states = np.array([env.reset(seed=s) for s in range(2_000)])
    assert np.all(np.abs(states) <= 0.05)


def test_mountaincar_step_hand_evaluated():
    # Coast from (-0.5, 0): velocity' = -0.0025*cos(-1.5), position' follows.
    env = MountainCarEnv()
    env.reset(seed=0)
    env.state = np.array([-0.5, 0.0])
    out = env.step(1)
    expected_v = -0.0025 * math.cos(3.0 * -0.5)
    assert out.next_state[1] == pytest.approx(expected_v, abs=1e-15)
    assert out.next_state[0] == pytest.approx(-0.5 + expected_v, abs=1e-15)
    assert out.next_state[1] == pytest.approx(-0.000177, abs=1e-6)
    assert out.next_state[0] == pytest.approx(-0.500177, abs=1e-6)
    assert not out.terminated
    assert out.reward == -1.0


def test_mountaincar_left_border_crossing_is_violation():
    # Hand evaluation: from (-1.19, -0.05) accelerating left the next
    # position lands below -1.2.
    env = MountainCarEnv()
    env.reset(seed=0)
    env.state = np.array([-1.19, -0.05])
    expected_v = -0.05 - 0.001 - 0.0025 * math.cos(3.0 * -1.19)
    expected_p = -1.19 + expected_v
    assert expected_p < -1.2
    out = env.step(0)
    assert out.next_state[0] == pytest.approx(expected_p, abs=1e-15)
    assert out.violation
    assert out.terminated
    assert out.cause is Cause.VIOLATION


def test_mountaincar_violation_reward_totals_minus_200():
    env = MountainCarEnv()
    env.reset(seed=0)
    env.state = np.array([-1.19, -0.05])
    env.steps_taken = 57
    out = env.step(0)
    # 57 prior steps paid -1 each; the crossing step pays the rest.
    assert out.reward == -(200.0 - 57.0)
    assert -57.0 + out.reward == -200.0


def test_mountaincar_goal_terminates_safely():
    env = MountainCarEnv()
    env.reset(seed=0)
    env.state = np.array([0.47, 0.05])
    out = env.step(2)
    assert out.cause is Cause.GOAL
    assert out.terminated and not out.violation
    assert out.reward == -1.0


def test_cartpole_track_exit_is_violation():
    env = CartPoleEnv()
    env.reset(seed=0)
    env.state = np.array([2.39, 3.0, 0.0, 0.0])
    out = env.step(1)
    assert out.next_state[0] > 2.4
    assert out.violation
    assert out.cause is Cause.VIOLATION


def test_cartpole_angle_failure_is_safe():
    env = CartPoleEnv()
    env.reset(seed=0)
    env.state = np.array([0.0, 0.0, 0.205, 1.0])
    out = env.step(1)
    assert abs(out.next_state[2]) > env.theta_threshold
    assert out.terminated
    assert not out.violation
    assert out.cause is Cause.ANGLE_FAILURE


def test_cartpole_dynamics_match_canonical_equations():
    # Independent evaluation of the published classic-control equations.
    env = CartPoleEnv()
    env.reset(seed=3)
    x, x_dot, th, th_dot = env.state
    force = -10.0
    temp = (force + 0.05 * th_dot**2 * math.sin(th)) / 1.1
    th_acc = (9.8 * math.sin(th) - math.cos(th) * temp) / (
        0.5 * (4.0 / 3.0 - 0.1 * math.cos(th) ** 2 / 1.1)
    )
    x_acc = temp - 0.05 * th_acc * math.cos(th) / 1.1
    expected = np.array(
        [x + 0.02 * x_dot, x_dot + 0.02 * x_acc, th + 0.02 * th_dot, th_dot + 0.02 * th_acc]
    )
    out = env.step(0)
    assert np.allclose(out.next_state, expected, atol=0, rtol=0)


@pytest.mark.parametrize("kind", [CARTPOLE, MOUNTAINCAR])
def test_step_limit(kind):
    env = make_env(kind)
    env.reset(seed=11)
    # A policy that never terminates early: cart-pole alternating keeps the
    # pole up only briefly, so drive mountain-car with coasting instead.
    if kind == MOUNTAINCAR:
        for _ in range(STEP_LIMIT):
            out = env.step(1)
        assert out.terminated
        assert out.cause is Cause.STEP_LIMIT
        assert env.steps_taken == STEP_LIMIT


@pytest.mark.parametrize("kind", [CARTPOLE, MOUNTAINCAR])
def test_seed_determinism_bit_for_bit(kind):
    def run(seed):
        env = make_env(kind)
        rng = np.random.default_rng(99)
        actions = rng.integers(0, env.action_count, size=STEP_LIMIT)
        state = env.reset(seed=seed)
        stream = [state.tolist()]
        for a in actions:
            out = env.step(int(a))
            stream.append(out.next_state.tolist())
            if out.terminated:
                break
        return json.dumps(stream)

    assert run(5) == run(5)
    assert run(5) != run(6)


@pytest.mark.parametrize("kind", [CARTPOLE, MOUNTAINCAR])
def test_episode_invariants_random_policies(kind):
    # Violation at most once and only terminal; step limit respected;
    # mountain-car speed clip holds at every non-terminal state.
    for seed in range(40):
        env = make_env(kind)
        env.reset(seed=seed)
        rng = np.random.default_rng(seed + 1000)
        violations = 0
        steps = 0
        while not env.done:
            out = env.step(int(rng.integers(env.action_count)))
            steps += 1
            if out.violation:
                violations += 1
                assert out.terminated
            if kind == MOUNTAINCAR and not out.terminated:
                assert abs(out.next_state[1]) <= MountainCarEnv.max_speed
        assert violations <= 1
        assert steps <= STEP_LIMIT


def test_step_after_done_raises():
    env = MountainCarEnv()
    env.reset(seed=0)
    env.state = np.array([0.49, 0.07])
    out = env.step(2)
    assert out.terminated
    with pytest.raises(EnvError):
        env.step(1)


def test_invalid_action_raises():
    env = CartPoleEnv()
    env.reset(seed=0)
    with pytest.raises(EnvError):
        env.step(2)


def test_step_outcome_consistency_enforced():
    with pytest.raises(ValueError):
        StepOutcome(np.zeros(2), 0.0, False, True, Cause.VIOLATION)
    with pytest.raises(ValueError):
        StepOutcome(np.zeros(2), 0.0, True, True, Cause.GOAL)


# libm's pow(v, 2.0), which `step` uses for theta_dot**2, differs from
# v * v in the last bit for this v.
POW_NOT_SQUARE = 0.20637125592276595


def around(*points, spread):
    return st.one_of(*(st.floats(p - spread, p + spread) for p in points))


# Drawn states crowd the termination thresholds: the track edge, the 12
# degree angle, the mountain-car border and goal, and its speed clip.
STATES = {
    CARTPOLE: st.tuples(
        st.one_of(st.floats(-3.0, 3.0), around(-2.4, 2.4, spread=0.03)),
        st.floats(-3.0, 3.0),
        st.one_of(
            st.floats(-0.3, 0.3),
            around(-CartPoleEnv.theta_threshold, CartPoleEnv.theta_threshold, spread=0.01),
        ),
        st.one_of(st.floats(-3.0, 3.0), st.just(POW_NOT_SQUARE)),
    ),
    MOUNTAINCAR: st.tuples(
        st.one_of(st.floats(-1.3, 0.6), around(-1.2, 0.5, spread=0.08)),
        st.one_of(st.floats(-0.08, 0.08), around(-0.07, 0.07, spread=0.003)),
    ),
}
STEPS_TAKEN = st.one_of(st.integers(0, STEP_LIMIT - 1), st.sampled_from([STEP_LIMIT - 2, STEP_LIMIT - 1]))


@st.composite
def batches(draw):
    """(kind, rows of (state, action, steps taken), one count for all rows?)"""
    kind = draw(st.sampled_from([CARTPOLE, MOUNTAINCAR]))
    action = st.integers(0, make_env(kind).action_count - 1)
    rows = draw(st.lists(st.tuples(STATES[kind], action, STEPS_TAKEN), min_size=1, max_size=20))
    return kind, rows, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(batch=batches())
@example(batch=(CARTPOLE, [((0.0, 0.0, -0.1660949413403334, POW_NOT_SQUARE), 1, 0)], False))
def test_transition_equals_scalar_step_bit_for_bit(batch):
    kind, rows, shared = batch
    if shared:  # greedy rollouts pass one count for all live episodes
        rows = [(state, action, rows[0][2]) for state, action, _ in rows]
    states = np.array([state for state, _, _ in rows])
    actions = np.array([action for _, action, _ in rows], dtype=np.int64)
    taken = rows[0][2] if shared else np.array([steps for _, _, steps in rows])
    env = make_env(kind)
    next_states, rewards, causes = env.transition(states, actions, taken)
    assert next_states.shape == states.shape
    for i, (state, action, steps) in enumerate(rows):
        env.state, env.steps_taken, env.done = np.array(state), steps, False
        out = env.step(action)
        assert next_states[i].tobytes() == out.next_state.tobytes()
        assert rewards[i].tobytes() == np.float64(out.reward).tobytes()
        assert CAUSES[causes[i]] is out.cause


def test_transition_squares_through_libm_pow():
    # In this state the last bit of POW_NOT_SQUARE**2 reaches the next
    # theta_dot, so numpy's square would give another value here.
    assert POW_NOT_SQUARE**2 != POW_NOT_SQUARE * POW_NOT_SQUARE
    state = [0.0, 0.0, -0.1660949413403334, POW_NOT_SQUARE]
    next_states, _, _ = CartPoleEnv.transition(np.array([state]), np.array([1]), 0)
    assert next_states[0].tolist() == [
        0.0, 0.19705941784743555, -0.16196751622187808, -0.13375764582221045
    ]
