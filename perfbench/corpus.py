"""Seeded synthetic cart-pole corpora: a larger two-band corpus.

Every episode is a mean-reverting random walk of two Q-values whose
per-step moves are about one bucket wide at d = 1, so about half of all
steps revisit a state already seen in the same episode. Safe episodes
wander around one band of Q-values and run to the 200-step limit; unsafe
ones drift into a lower band after a random onset and end in a
violation. The defaults are calibrated so that 1,600 training and 600
test episodes match a real cart-pole corpus (seed-2 agent, d = 1): about
5,000 abstract states, 53% first visits, 0.4% unseen test steps and 28%
of test episodes with one, mean length 198, a 10% unsafe share and about
200 nodes per binary-feature tree. ``python3 perfbench/corpus.py SEED``
prints these properties at that size.

The output is byte-stable for a given seed: all randomness comes from
numpy generators seeded by SHA-256 of (seed, label), and floats are
written with ``repr``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

STEP_LIMIT = 200
UNSAFE_SHARE = 0.10
UNSAFE_LENGTHS = (160, 200)  # inclusive range of unsafe episode lengths
# The Q-value of action 0 is a mean-reverting walk (pull KAPPA, step
# sigma STEP_SIGMA) around an episode level; the gap to action 1 is a
# second one around 0. Steps smaller than a bucket make revisits.
LEVEL = (90.0, 20.0)  # mean and sigma of a safe episode's level
GAP_SIGMA = 10.0
KAPPA = 0.03
STEP_SIGMA = (1.1, 0.85)  # per-step sigma of (Q level, gap)
# After an onset this many steps before the end, an unsafe episode's
# level is pulled (KAPPA_DANGER) towards a low danger band; some safe
# episodes dip towards it for a while and recover, so the classes
# overlap.
DANGER = (40.0, 8.0)
KAPPA_DANGER = 0.08
ONSET_RANGE = (50, 120)
DIP_SHARE = 0.3
DIP_LEVEL = (57.0, 10.0)
DIP_STEPS = (30, 90)
# A step is, with probability GLITCH_P, a one-step glitch of the gap by
# GLITCH_RANGE buckets: rarely seen states spread thinly over episodes.
GLITCH_P = 0.0025
GLITCH_RANGE = (4, 40)


def _rng(seed: int, label: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


@dataclass
class Episode:
    qs: np.ndarray  # (length, 2) float64
    states: np.ndarray  # (length, 4) float64
    unsafe: bool

    @property
    def keys(self) -> np.ndarray:
        """Bucket keys at d = 1, one int64 per step (both actions packed)."""
        k = np.ceil(self.qs).astype(np.int64)
        return k[:, 0] * 4096 + k[:, 1]


def corpus(seed: int, split: str, count: int) -> list[Episode]:
    """`count` episodes; walks of one corpus advance together, step by step."""
    rng = _rng(seed, split)
    n, L = count, STEP_LIMIT
    unsafe = rng.permutation(n) < round(UNSAFE_SHARE * n)  # an exact share
    length = np.where(unsafe, rng.integers(UNSAFE_LENGTHS[0], UNSAFE_LENGTHS[1] + 1, n), L)
    onset = length - rng.integers(ONSET_RANGE[0], ONSET_RANGE[1] + 1, n)
    danger = rng.normal(*DANGER, n)
    dips = ~unsafe & (rng.random(n) < DIP_SHARE)
    dip_start = rng.integers(0, L - DIP_STEPS[1], n)
    dip_end = dip_start + rng.integers(DIP_STEPS[0], DIP_STEPS[1] + 1, n)
    dip_level = rng.normal(*DIP_LEVEL, n)

    base = rng.normal(*LEVEL, n)
    level = base.copy()
    gap = rng.normal(0.0, GAP_SIGMA, n)
    noise = rng.normal(0.0, 1.0, (L, 2, n)) * np.array(STEP_SIGMA)[None, :, None]
    glitch = rng.integers(GLITCH_RANGE[0], GLITCH_RANGE[1] + 1, (L, n))
    glitch = glitch * rng.choice([-1, 1], (L, n)) * (rng.random((L, n)) < GLITCH_P)
    qs = np.empty((n, L, 2))
    for t in range(L):
        drifting = unsafe & (t >= onset)
        dipping = dips & (dip_start <= t) & (t < dip_end)
        target = np.where(drifting, danger, np.where(dipping, dip_level, base))
        pull = np.where(drifting | dipping, KAPPA_DANGER, KAPPA)
        qs[:, t, 0] = level
        qs[:, t, 1] = level + gap + glitch[t]
        level += pull * (target - level) + noise[t, 0]
        gap += -KAPPA * gap + noise[t, 1]
    states = rng.normal(0.0, [0.5, 0.8, 0.05, 0.6], (n, L, 4))
    return [
        Episode(qs=qs[i, : length[i]], states=states[i, : length[i]], unsafe=bool(unsafe[i]))
        for i in range(n)
    ]


def write_jsonl(episodes, path) -> None:
    """The program's episode line schema, one JSON object per episode."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for e in episodes:
            actions = np.argmax(e.qs, axis=1).tolist()
            steps = [
                {"s": s, "a": a, "q": q, "r": 1.0}
                for s, a, q in zip(e.states.tolist(), actions, e.qs.tolist())
            ]
            cause = "violation" if e.unsafe else "step_limit"
            obj = {"label": "unsafe" if e.unsafe else "safe", "cause": cause, "steps": steps}
            fh.write(json.dumps(obj))
            fh.write("\n")


def stream_lines(e: Episode) -> list[str]:
    """The `watch` input of one episode: {"t", "q"} NDJSON lines."""
    return [json.dumps({"t": t, "q": q}) + "\n" for t, q in enumerate(e.qs.tolist())]


def properties(train, test) -> dict:
    """What a generated corpus achieved, for comparison with the real one."""
    seen = set()
    for e in train:
        seen.update(e.keys.tolist())
    steps = first = unseen = unseen_eps = 0
    for e in test:
        keys = e.keys.tolist()
        steps += len(keys)
        first += len(set(keys))
        miss = sum(k not in seen for k in keys)
        unseen += miss
        unseen_eps += miss > 0
    everything = train + test
    return {
        "train_episodes": len(train),
        "test_episodes": len(test),
        "states": len(seen),
        "first_visit_share": first / steps,
        "unseen_step_share": unseen / steps,
        "unseen_episode_share": unseen_eps / len(test),
        "mean_length": float(np.mean([len(e.qs) for e in everything])),
        "unsafe_share": float(np.mean([e.unsafe for e in everything])),
    }


if __name__ == "__main__":
    # The calibration check: properties at the size of the real corpus.
    import sys

    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    print(json.dumps(properties(corpus(seed, "train", 1600), corpus(seed, "test", 600)), indent=1))
