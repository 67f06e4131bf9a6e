"""Cart-pole and mountain-car environments with crash-style safety semantics.

Both tasks use the canonical classic-control dynamics. What differs from
the usual benchmark setups is the failure semantics: the cart leaving the
track (|x| > 2.4) and the car crossing the left border (position < -1.2)
are irrecoverable *safety violations*, while the pole falling over or the
200-step limit are ordinary, safe terminations. The mountain-car left
wall is therefore not clamped, so the border can actually be crossed.

Environments are small mutable objects driven by ``reset(seed)`` and
``step()``. All randomness enters through the reset seed, which every
reset requires, so a (seed, action sequence) pair always reproduces the
same trajectory bit for bit.

``transition`` advances many episodes at once: one array update per step
over an ``(n, state_dim)`` stack of states, which is how greedy rollouts
run their episodes in lockstep. It and ``step`` evaluate the same float
expressions and termination rules, written once per env, and a row comes
out with the bits ``step`` gives that state. Trig and squares therefore go
through libm one value at a time on both paths: numpy's own ``sin``,
``cos`` and ``**2`` may round differently (its square is ``v * v``, libm's
``pow(v, 2.0)`` differs from that in the last bit of about 1 in 1,200
normal draws), and one such bit is enough to change a greedy action and a
collected corpus.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

STEP_LIMIT = 200

CARTPOLE = "cartpole"
MOUNTAINCAR = "mountaincar"
ENV_KINDS = (CARTPOLE, MOUNTAINCAR)


class Cause(str, enum.Enum):
    """Why an episode ended. VIOLATION is the only unsafe cause."""

    VIOLATION = "violation"
    GOAL = "goal"
    ANGLE_FAILURE = "angle_failure"
    STEP_LIMIT = "step_limit"
    NONE = "none"


# `transition` reports each row's cause as an index into CAUSES; RUNNING
# is the index of Cause.NONE, an episode that has not ended.
CAUSES = tuple(Cause)
_CODE = {cause: code for code, cause in enumerate(CAUSES)}
RUNNING = _CODE[Cause.NONE]


@dataclass(frozen=True)
class StepOutcome:
    next_state: np.ndarray
    reward: float
    terminated: bool
    violation: bool
    cause: Cause

    def __post_init__(self):
        if self.violation and not self.terminated:
            raise ValueError("violation implies termination")
        if self.violation != (self.cause is Cause.VIOLATION):
            raise ValueError("violation flag must match the cause")


class EnvError(ValueError):
    pass


def _pow2(v):
    return v ** 2  # libm pow(v, 2.0), which is not always v * v


def _libm_map(fn):
    def over(column):
        return np.fromiter(map(fn, column.tolist()), np.float64, len(column))

    return over


# The operations whose scalar and array forms differ: `step` runs the
# dynamics on Python floats, `transition` on state columns.
_FLOAT_OPS = SimpleNamespace(sin=math.sin, cos=math.cos, pow2=_pow2, minimum=min, maximum=max)
_COLUMN_OPS = SimpleNamespace(
    sin=_libm_map(math.sin),
    cos=_libm_map(math.cos),
    pow2=_libm_map(_pow2),
    minimum=np.minimum,
    maximum=np.maximum,
)


class _ControlEnv:
    """One episode through reset/step, or many through `transition`.

    A subclass gives its initial state (`_initial_state`), its dynamics
    (`_dynamics`), its termination rules (`endings` and `_ends`) and its
    rewards (`step_reward`, `_violation_reward`); all but the first take
    floats or state columns alike.
    """

    step_reward = 1.0

    def __init__(self):
        self.state = None
        self.steps_taken = 0
        self.done = False

    def reset(self, seed: int) -> np.ndarray:
        self.state = self._initial_state(np.random.default_rng(seed))
        self.steps_taken = 0
        self.done = False
        return self.state.copy()

    def step(self, action: int) -> StepOutcome:
        if self.done:
            raise EnvError("step() called on a terminated episode")
        if action not in self.actions:
            raise EnvError(f"invalid {self.name} action {action!r}")

        state = self._dynamics(self.state.tolist(), action, _FLOAT_OPS)
        self.state = np.array(state)
        self.steps_taken += 1

        hits = self._ends(state, self.steps_taken)
        cause = self.endings[hits.index(True)] if True in hits else Cause.NONE
        if cause is Cause.VIOLATION:
            reward = self._violation_reward(self.steps_taken)
        else:
            reward = self.step_reward

        self.done = cause is not Cause.NONE
        # next_state, reward, terminated, violation, cause
        return StepOutcome(self.state.copy(), reward, self.done, cause is Cause.VIOLATION, cause)

    @classmethod
    def transition(cls, states: np.ndarray, actions: np.ndarray, steps_taken):
        """Advance n episodes one step: `states` (n, state_dim), valid
        `actions` (n,), and the steps each has taken before this one (an
        (n,) array, or one count for all).

        Returns (next_states, rewards, causes); causes[i] indexes CAUSES,
        Cause.NONE while episode i runs on. Row i has the bits that `step`
        gives an env in state i after steps_taken[i] steps.
        """
        columns = cls._dynamics(states.T, actions, _COLUMN_OPS)
        steps = steps_taken + 1
        # Filled from the last ending back, so the first that holds wins.
        causes = RUNNING
        for hit, cause in reversed(tuple(zip(cls._ends(columns, steps), cls.endings))):
            causes = np.where(hit, _CODE[cause], causes)
        rewards = np.where(
            causes == _CODE[Cause.VIOLATION], cls._violation_reward(steps), cls.step_reward
        )
        return np.stack(columns, axis=1), rewards, causes

    @classmethod
    def _violation_reward(cls, steps_taken):
        return cls.step_reward


class CartPoleEnv(_ControlEnv):
    """Pole balancing on a moving cart.

    State: [x, x_dot, theta, theta_dot]. Actions: 0 push left, 1 push
    right. Reward +1 per step. |x| > 2.4 is a safety violation;
    |theta| > 12 degrees ends the episode safely.
    """

    name = "cart-pole"
    actions = (0, 1)
    action_count = 2
    state_dim = 4

    gravity = 9.8
    cart_mass = 1.0
    pole_mass = 0.1
    total_mass = cart_mass + pole_mass
    half_length = 0.5
    polemass_length = pole_mass * half_length
    force_mag = 10.0
    tau = 0.02

    x_threshold = 2.4
    theta_threshold = 12.0 * math.pi / 180.0  # 0.2094395 rad, converted once

    # Each env holds `step` itself, so one env's `step` can be wrapped
    # (say, to time it) apart from the other's.
    step = _ControlEnv.step

    @staticmethod
    def _initial_state(rng):
        return rng.uniform(-0.05, 0.05, size=4)

    @classmethod
    def _dynamics(cls, state, action, ops):
        x, x_dot, theta, theta_dot = state
        force = cls.force_mag * (2 * action - 1)  # -force_mag for 0, +force_mag for 1
        sin_t = ops.sin(theta)
        cos_t = ops.cos(theta)

        temp = (force + cls.polemass_length * ops.pow2(theta_dot) * sin_t) / cls.total_mass
        theta_acc = (cls.gravity * sin_t - cos_t * temp) / (
            cls.half_length * (4.0 / 3.0 - cls.pole_mass * ops.pow2(cos_t) / cls.total_mass)
        )
        x_acc = temp - cls.polemass_length * theta_acc * cos_t / cls.total_mass

        return (
            x + cls.tau * x_dot,
            x_dot + cls.tau * x_acc,
            theta + cls.tau * theta_dot,
            theta_dot + cls.tau * theta_acc,
        )

    # The first of `endings` whose condition in `_ends` holds ends the
    # episode: a violation comes first, so it wins within a step.
    endings = (Cause.VIOLATION, Cause.ANGLE_FAILURE, Cause.STEP_LIMIT)

    @classmethod
    def _ends(cls, state, steps_taken):
        x, _, theta, _ = state
        return (
            abs(x) > cls.x_threshold,
            abs(theta) > cls.theta_threshold,
            steps_taken >= STEP_LIMIT,
        )


class MountainCarEnv(_ControlEnv):
    """Under-powered car in a valley; the left border is a safety hazard.

    State: [position, velocity]. Actions: 0 accelerate left, 1 coast,
    2 accelerate right. Reward -1 per step; an episode that crosses the
    left border is worth -200 in total, as if it had run out the clock.
    """

    name = "mountain-car"
    actions = (0, 1, 2)
    action_count = 3
    state_dim = 2
    step_reward = -1.0

    force = 0.001
    gravity = 0.0025
    max_speed = 0.07
    left_border = -1.2
    goal_position = 0.5

    step = _ControlEnv.step  # its own attribute, as in CartPoleEnv

    @staticmethod
    def _initial_state(rng):
        return np.array([rng.uniform(-0.6, -0.4), 0.0])

    @classmethod
    def _dynamics(cls, state, action, ops):
        position, velocity = state
        velocity = velocity + ((action - 1) * cls.force - cls.gravity * ops.cos(3.0 * position))
        velocity = ops.minimum(ops.maximum(velocity, -cls.max_speed), cls.max_speed)
        # No left-wall clamp: the border must be crossable.
        return position + velocity, velocity

    endings = (Cause.VIOLATION, Cause.GOAL, Cause.STEP_LIMIT)  # as in CartPoleEnv

    @classmethod
    def _ends(cls, state, steps_taken):
        position, _ = state
        return (
            position < cls.left_border,
            position >= cls.goal_position,
            steps_taken >= STEP_LIMIT,
        )

    @classmethod
    def _violation_reward(cls, steps_taken):
        # Total episode reward is exactly -200 when the border is crossed:
        # prior steps paid -1 each, the final one the rest.
        return -(200.0 - (steps_taken - 1))


def make_env(kind: str):
    if kind == CARTPOLE:
        return CartPoleEnv()
    if kind == MOUNTAINCAR:
        return MountainCarEnv()
    raise EnvError(f"unknown environment kind {kind!r}")
