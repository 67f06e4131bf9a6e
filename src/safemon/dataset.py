"""Labeled episode corpora: collection under the greedy policy, splits,
and JSONL persistence.

Episodes store the full per-step Q-vectors so that abstraction tables can
be rebuilt at any level without re-executing the agent.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .agent import AgentModel, agent_fingerprint, greedy_action
from .envs import STEP_LIMIT, Cause, make_env
from .seeding import derive_rng, derive_seed


class Label(str, enum.Enum):
    SAFE = "safe"
    UNSAFE = "unsafe"


class DatasetError(ValueError):
    pass


def load_document(path, tag: str, build):
    """Parse the JSON document at `path`, check its "format" tag, and
    return build(doc).

    Text that is not JSON, another tag, or a key or value that `build`
    cannot use raises DatasetError naming the file, so a bad file fails
    where it is read.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: not a JSON document: {exc}") from exc
    if not isinstance(doc, dict) or "format" not in doc:
        raise DatasetError(f"{path}: no format tag, expected {tag!r}")
    if doc["format"] != tag:
        raise DatasetError(f"{path}: format tag {doc['format']!r}, expected {tag!r}")
    try:
        return build(doc)
    except KeyError as exc:
        raise DatasetError(f"{path}: {tag} document has no key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"{path}: {tag} document has a bad value: {exc}") from exc


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
    env_kind: Optional[str] = None
    agent_fingerprint: Optional[str] = None
    seed: Optional[int] = None

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


def run_episode(agent: AgentModel, env_kind: str, seed: int) -> Episode:
    """Execute one greedy episode and record (state, action, q, reward)."""
    env = make_env(env_kind)
    state = env.reset(seed=seed)
    states, actions, qs, rewards = [], [], [], []
    while not env.done:
        q = agent.q_values(state)
        action = greedy_action(q)
        out = env.step(action)
        states.append(state)
        actions.append(action)
        qs.append(q)
        rewards.append(out.reward)
        state = out.next_state
    return Episode(
        states=np.array(states),
        actions=np.array(actions, dtype=np.int64),
        qs=np.array(qs),
        rewards=np.array(rewards),
        label=Label.UNSAFE if out.violation else Label.SAFE,
        cause=out.cause,
    )


def collect(agent: AgentModel, env_kind: str, count: int, seed: int) -> EpisodeSet:
    """Collect `count` greedy episodes from seeded random initial states."""
    if count < 1:
        raise DatasetError("count must be >= 1")
    if env_kind != agent.env_kind:
        raise DatasetError(f"agent was trained on {agent.env_kind!r}, not {env_kind!r}")
    episodes = [
        run_episode(agent, env_kind, derive_seed(seed, f"collect:episode:{i}"))
        for i in range(count)
    ]
    return EpisodeSet(
        episodes=episodes,
        env_kind=env_kind,
        agent_fingerprint=agent_fingerprint(agent),
        seed=seed,
    )


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
        return EpisodeSet(
            episodes=[episodes[i] for i in indices],
            env_kind=episode_set.env_kind,
            agent_fingerprint=episode_set.agent_fingerprint,
            seed=episode_set.seed,
        )

    return subset(order[:n_train]), subset(order[n_train:])


def _episode_to_obj(episode: Episode) -> dict:
    return {
        "label": episode.label.value,
        "cause": episode.cause.value,
        "steps": [
            {
                "s": episode.states[i].tolist(),
                "a": int(episode.actions[i]),
                "q": episode.qs[i].tolist(),
                "r": float(episode.rewards[i]),
            }
            for i in range(episode.length)
        ],
    }


def _episode_from_obj(obj: dict) -> Episode:
    steps = obj["steps"]
    if not steps:
        raise DatasetError("episode has no steps")
    qs = np.array([s["q"] for s in steps], dtype=np.float64)
    if qs.ndim != 2:
        raise DatasetError("every step's q must be a list of numbers")
    return Episode(
        states=np.array([s["s"] for s in steps], dtype=np.float64),
        actions=np.array([s["a"] for s in steps], dtype=np.int64),
        qs=qs,
        rewards=np.array([s["r"] for s in steps], dtype=np.float64),
        label=Label(obj["label"]),
        cause=Cause(obj["cause"]),
    )


def write_jsonl(episode_set: EpisodeSet, path) -> None:
    """One JSON object per line per episode; UTF-8 with LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for episode in episode_set.episodes:
            fh.write(json.dumps(_episode_to_obj(episode)))
            fh.write("\n")


def read_jsonl(path) -> EpisodeSet:
    """Parse an episode corpus; malformed lines, and lines whose Q-vector
    width differs from the first episode's, fail with their number.

    Set-level metadata is not part of the line schema: the environment
    kind is inferred from the Q-vector width, fingerprint and seed stay
    unset.
    """
    episodes = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                episode = _episode_from_obj(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise DatasetError(f"{path}: malformed episode at line {lineno}: {exc}") from exc
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
    env_kind = {2: "cartpole", 3: "mountaincar"}.get(action_count)
    return EpisodeSet(episodes=episodes, env_kind=env_kind)
