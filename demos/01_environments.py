"""Tour of the two environments and their safety semantics.

Runs a handful of scripted and random episodes in each environment and
shows which termination causes count as safety violations: leaving the
cart-pole track (|x| > 2.4) and crossing the mountain-car left border
(position < -1.2). The pole falling over, reaching the goal, and the
200-step limit all end episodes safely.
"""

import numpy as np

from safemon import CARTPOLE, MOUNTAINCAR, Cause, make_env

print("=== cart-pole, random actions ===")
env = make_env(CARTPOLE)
rng = np.random.default_rng(0)
for seed in range(4):
    env.reset(seed=seed)
    total = 0.0
    while not env.done:
        out = env.step(int(rng.integers(2)))
        total += out.reward
    print(
        f"seed {seed}: {env.steps_taken:3d} steps, reward {total:5.1f}, "
        f"ended by {out.cause.value}, violation={out.cause is Cause.VIOLATION}"
    )

print()
print("=== cart-pole, biased balancer (keeps the pole up but drifts) ===")
# A crude balance rule with a constant bias: the pole stays upright while
# the cart slides off the 2.4-unit track. That is the unsafe ending.
env.reset(seed=1)
while not env.done:
    x, x_dot, theta, theta_dot = env.state
    out = env.step(1 if theta + 0.25 * theta_dot + 0.05 > 0 else 0)
print(
    f"{env.steps_taken} steps, final x = {out.next_state[0]:+.3f}, "
    f"ended by {out.cause.value}, violation={out.cause is Cause.VIOLATION}"
)

print()
print("=== mountain-car, coasting (times out safely) ===")
env = make_env(MOUNTAINCAR)
env.reset(seed=0)
while not env.done:
    out = env.step(1)
print(f"{env.steps_taken} steps, ended by {out.cause.value}")

print()
print("=== mountain-car, momentum overshoot (crosses the left border) ===")
# Pump energy by accelerating with the velocity, then commit hard left
# from high on the right slope: the car cannot stop before the border.
env.reset(seed=0)
total = 0.0
committed = False
while not env.done:
    position, velocity = env.state
    if not committed and position > -0.2 and velocity >= 0:
        committed = True
    out = env.step(0 if committed else (2 if velocity >= 0 else 0))
    total += out.reward
print(
    f"{env.steps_taken} steps, final position {out.next_state[0]:+.3f}, "
    f"ended by {out.cause.value}, violation={out.cause is Cause.VIOLATION}, "
    f"episode reward {total:.0f} (crossing costs the full -200)"
)
