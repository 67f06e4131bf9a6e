"""Small DQN-style Q-learning agent on a hand-rolled numpy MLP.

The monitor downstream is black-box over Q-values, so the agent only has
to be competent enough to produce corpora containing both safe and unsafe
episodes. Training keeps periodic checkpoints and picks the latest one
whose unsafe-episode rate over seeded rollouts lands in a target band,
because a flawless agent would starve the monitor of unsafe examples.
Every agent is trained by one DQN recipe: module constants fix the hidden
layers, the replay buffer, the batch and the step of the first update,
and `AgentTrainConfig` holds what `train-agent`'s flags set.

Greedy rollouts, for checkpoint evaluation and for corpus collection, run
many seeded episodes in lockstep: per step, one Q pass over the live
episodes, then one array update of all their env states (the env's
`transition`). Both give each episode the bits it gets when run alone
through single-state `forward` and the env's scalar `step`:
- The Q pass computes every row as its own row-vector product
  (`x[:, None, :] @ w`, a stacked matmul), which BLAS evaluates exactly as
  it evaluates one state alone. A plain `(n, d) @ (d, h)` product takes a
  matrix-matrix kernel that sums in another order and moves the last bits
  of most rows, and with them greedy actions, episodes and the collected
  corpora. Training batches keep the plain product: nothing compares them
  across batch sizes.
- The env update shares its float expressions with `step` and takes
  trig and squares from libm one value at a time, not from numpy's
  vectorised `sin`, `cos` and `**2`, which may round differently (see
  `envs`).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .dataset import Field, finite_numbers, json_integer, json_number, load_document, save_document
from .envs import CARTPOLE, CAUSES, ENV_KINDS, MOUNTAINCAR, RUNNING, STEP_LIMIT, Cause, make_env
from .seeding import derive_rng, derive_seed

AGENT_FORMAT = "agent/1"
UNSAFE_RATE_BAND = (0.05, 0.20)
BAND_EVAL_EPISODES = 200
REPORT_EVAL_EPISODES = 100
if REPORT_EVAL_EPISODES > BAND_EVAL_EPISODES:  # the report reuses band rollouts
    raise ValueError("REPORT_EVAL_EPISODES must not exceed BAND_EVAL_EPISODES")
# The DQN recipe every agent is trained with.
HIDDEN_SIZES = (64, 64)
REPLAY_CAPACITY = 50_000
BATCH_SIZE = 64
TRAIN_START = 1_000  # the first step that takes an update
GRAD_CLIP_NORM = 10.0
MOMENTUM = 0.9

# Fixed input normalization per environment (rough state magnitudes);
# baked into the serialized model so Q-values survive a round trip.
_INPUT_NORMS = {
    CARTPOLE: (np.zeros(4), np.array([2.4, 3.0, 0.21, 3.0])),
    MOUNTAINCAR: (np.array([-0.3, 0.0]), np.array([0.9, 0.07])),
}


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class AgentTrainConfig:
    """The settings of one training run; the rest of the DQN recipe is the
    module's constants. Exploration decays linearly from 1.0 to
    `epsilon_end` over `epsilon_decay_steps` steps."""

    total_steps: int = 100_000
    target_sync_interval: int = 500
    learning_rate: float = 1e-3
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 50_000
    gamma: float = 0.99
    seed: int = 0
    checkpoint_interval: int = 5_000

    def __post_init__(self):
        if min(self.target_sync_interval, self.checkpoint_interval) < 1 or self.learning_rate <= 0:
            raise ValueError("config values must be positive")
        if self.total_steps < 0:
            raise ValueError("total_steps must be >= 0")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not 0.0 <= self.epsilon_end <= 1.0:
            raise ValueError("epsilon_end must lie in [0, 1]")
        if self.epsilon_decay_steps < 1:
            raise ValueError("epsilon_decay_steps must be positive")

    def epsilon(self, step: int) -> float:
        """The exploration rate at `step`."""
        return 1.0 + (self.epsilon_end - 1.0) * min(step / self.epsilon_decay_steps, 1.0)


def _layer_views(flat: np.ndarray, layer_sizes) -> list[tuple[np.ndarray, np.ndarray]]:
    """(w, b) views into a flat buffer, each layer's weight matrix (row
    major) followed by its bias."""
    views = []
    start = 0
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        end = start + fan_in * fan_out
        views.append((flat[start:end].reshape(fan_in, fan_out), flat[end : end + fan_out]))
        start = end + fan_out
    return views


class QNetwork:
    """Feed-forward ReLU MLP mapping a state to one Q-value per action.

    Every parameter lives in one flat float64 array, `params`; `weights`
    lists each layer's (w, b) as views into it, so writing a view writes
    the network.
    """

    def __init__(self, layer_sizes, rng=None, weights=None, input_offset=None, input_scale=None):
        self.layer_sizes = tuple(int(s) for s in layer_sizes)
        dim = self.layer_sizes[0]
        self.input_offset = (
            np.zeros(dim) if input_offset is None else np.asarray(input_offset, dtype=np.float64)
        )
        self.input_scale = (
            np.ones(dim) if input_scale is None else np.asarray(input_scale, dtype=np.float64)
        )
        shapes = list(zip(self.layer_sizes, self.layer_sizes[1:]))
        self.params = np.zeros(sum(fan_in * fan_out + fan_out for fan_in, fan_out in shapes))
        self.weights = _layer_views(self.params, self.layer_sizes)
        if weights is not None:
            if len(weights) != len(shapes):
                raise ValueError(f"{len(weights)} weight layers for layer sizes {self.layer_sizes}")
            for (w, b), (w_in, b_in) in zip(self.weights, weights):
                for view, given in ((w, w_in), (b, b_in)):
                    given = np.asarray(given, dtype=np.float64)
                    if given.shape != view.shape:
                        raise ValueError(
                            f"weight of shape {given.shape} where layer sizes "
                            f"{self.layer_sizes} need {view.shape}"
                        )
                    view[...] = given
        else:
            for w, _ in self.weights:
                w[...] = rng.normal(0.0, math.sqrt(2.0 / w.shape[0]), size=w.shape)

    def copy(self) -> "QNetwork":
        twin = object.__new__(QNetwork)
        twin.layer_sizes = self.layer_sizes
        twin.input_offset = self.input_offset.copy()
        twin.input_scale = self.input_scale.copy()
        twin.params = self.params.copy()
        twin.weights = _layer_views(twin.params, twin.layer_sizes)
        return twin

    def _normalize(self, states) -> np.ndarray:
        """States mapped through the network's fixed input normalisation."""
        return (np.asarray(states, dtype=np.float64) - self.input_offset) / self.input_scale

    def forward(self, state: np.ndarray) -> np.ndarray:
        """Q-values of one state (d,), or of each row of a stack (n, d).

        Every row is a row-vector product, so a row of a stack gets the
        same bits as that state passed alone.
        """
        a = self._normalize(state)[..., None, :]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(self.weights):
            a = a @ w
            a += b
            if i != last:
                np.maximum(a, 0.0, out=a)
        return a[..., 0, :]

    def _activations(self, x: np.ndarray) -> list[np.ndarray]:
        """Every layer's output for a batch of normalised inputs (n, d),
        the input first: one plain matrix product per layer."""
        acts = [x]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(self.weights):
            z = acts[-1] @ w
            z += b
            if i != last:
                np.maximum(z, 0.0, out=z)
            acts.append(z)
        return acts

    def td_loss_and_grads(self, states, actions, targets, grads=None):
        """Mean squared TD error and its gradient w.r.t. every parameter.

        The gradient is a list of (gw, gb) pairs shaped like `weights`;
        `grads`, such a list, receives it in place of fresh arrays.
        """
        if grads is None:
            grads = _layer_views(np.empty_like(self.params), self.layer_sizes)
        acts = self._activations(self._normalize(states))
        q = acts[-1]
        batch = len(q)
        rows = np.arange(batch)
        diff = q[rows, actions] - targets
        loss = float(np.add.reduce(diff**2) / batch)

        delta = np.zeros_like(q)
        delta[rows, actions] = 2.0 * diff / batch
        for i in range(len(self.weights) - 1, -1, -1):
            a_in = acts[i]
            gw, gb = grads[i]
            np.matmul(a_in.T, delta, out=gw)
            np.add.reduce(delta, axis=0, out=gb)
            if i > 0:
                delta = delta @ self.weights[i][0].T
                np.multiply(delta, a_in > 0.0, out=delta)
        return loss, grads


class _SgdMomentum:
    """SGD with momentum and global-norm gradient clipping on flat buffers
    laid out as the network's `params`.

    `grad_layers` are views into `grads` for `td_loss_and_grads` to fill.
    The clip norm sums each array's squares apart and adds the per-layer
    totals in layer order, as separate arrays would.
    """

    def __init__(self, network, lr):
        self.lr = lr
        self.velocity = np.zeros_like(network.params)
        self.grads = np.zeros_like(network.params)
        self.grad_layers = _layer_views(self.grads, network.layer_sizes)
        self._squares = np.empty_like(network.params)
        self._square_layers = [
            (w.reshape(-1), b) for w, b in _layer_views(self._squares, network.layer_sizes)
        ]

    def step(self, params):
        """Apply `grads` to the flat `params` in place."""
        np.square(self.grads, out=self._squares)
        norm = math.sqrt(
            sum(float(np.add.reduce(w) + np.add.reduce(b)) for w, b in self._square_layers)
        )
        scale = GRAD_CLIP_NORM / norm if norm > GRAD_CLIP_NORM else 1.0
        self.velocity *= MOMENTUM
        self.velocity -= np.multiply(self.grads, self.lr * scale, out=self._squares)
        params += self.velocity


class _ReplayBuffer:
    """Transitions packed one per float row: state, next state, reward and
    a keep flag (0.0 for an absorbing transition, else 1.0); actions sit
    beside them."""

    def __init__(self, capacity, state_dim):
        self.capacity = capacity
        self.state_dim = state_dim
        self.rows = np.zeros((capacity, 2 * state_dim + 2))
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.size = 0
        self.cursor = 0

    def add(self, state, action, reward, next_state, absorbing):
        i = self.cursor
        d = self.state_dim
        row = self.rows[i]
        row[:d] = state
        row[d : 2 * d] = next_state
        row[2 * d] = reward
        row[2 * d + 1] = 0.0 if absorbing else 1.0
        self.actions[i] = action
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size, rng):
        """(states, actions, rewards, next states, keep flags) of a draw."""
        idx = rng.integers(0, self.size, size=batch_size)
        rows = self.rows.take(idx, axis=0)
        d = self.state_dim
        actions = self.actions.take(idx)
        return rows[:, :d], actions, rows[:, 2 * d], rows[:, d : 2 * d], rows[:, 2 * d + 1]


@dataclass
class CheckpointStat:
    step: int
    unsafe_rate: float
    mean_reward: float
    mean_length: float


@dataclass
class TrainReport:
    mean_reward: float
    unsafe_rate: float
    mean_length: float
    eval_episodes: int
    selected_step: int
    band_satisfied: bool
    checkpoints: list[CheckpointStat]


@dataclass
class AgentModel:
    """Trained greedy policy; evaluation is deterministic per state."""

    env_kind: str
    network: QNetwork
    gamma: float
    seed: int
    steps_trained: int
    report: Optional[TrainReport] = None

    @property
    def action_count(self) -> int:
        return self.network.layer_sizes[-1]

    def q_values(self, state) -> np.ndarray:
        state = np.asarray(state, dtype=np.float64)
        if state.shape != (self.network.layer_sizes[0],):
            raise ValueError(
                f"state of shape {state.shape} does not match input dim {self.network.layer_sizes[0]}"
            )
        return self.network.forward(state)


def greedy_action(q) -> int:
    """Index of the maximum Q-value; ties break toward the lowest index."""
    q = np.asarray(q)
    if q.size == 0:
        raise ValueError("empty Q-vector")
    return int(np.argmax(q))


@dataclass
class Rollouts:
    """Greedy episodes, one entry per seed. When recorded, step t of
    episode i is entry [t, i] of the per-step arrays, for t < lengths[i];
    later entries are never written."""

    totals: list[float]
    lengths: list[int]
    causes: list[Cause]
    states: Optional[np.ndarray] = None  # (STEP_LIMIT, n, state_dim)
    actions: Optional[np.ndarray] = None  # (STEP_LIMIT, n)
    qs: Optional[np.ndarray] = None  # (STEP_LIMIT, n, action_count)
    rewards: Optional[np.ndarray] = None  # (STEP_LIMIT, n)

    def summary(self, count: int) -> tuple[float, float, float]:
        """Mean reward, unsafe rate and mean length of the first `count` episodes."""
        unsafe = sum(cause is Cause.VIOLATION for cause in self.causes[:count])
        return float(np.mean(self.totals[:count])), unsafe / count, float(np.mean(self.lengths[:count]))


def greedy_rollouts(network: QNetwork, env_kind: str, seeds, record: bool = False) -> Rollouts:
    """One greedy episode per reset seed, all stepped together.

    Each step makes one Q pass over the live episodes and advances them
    with one `transition` of the env; every episode comes out bit for bit
    as if it had run alone through `step`. `record` keeps each step's
    state, action, Q-vector and reward.
    """
    env = make_env(env_kind)
    n = len(seeds)
    if network.layer_sizes[0] != env.state_dim:
        raise ValueError(
            f"network input dim {network.layer_sizes[0]} does not match the "
            f"{env_kind} state dim {env.state_dim}"
        )
    if network.layer_sizes[-1] != env.action_count:
        raise ValueError(
            f"network output dim {network.layer_sizes[-1]} does not match the "
            f"{env_kind} action count {env.action_count}"
        )
    runs = Rollouts(totals=[], lengths=[], causes=[])  # filled in at the end
    if record:
        # Step-major and left unfilled: the steps no episode reaches are
        # never written, so their pages are never touched.
        runs.states = np.empty((STEP_LIMIT, n, env.state_dim))
        runs.actions = np.empty((STEP_LIMIT, n), dtype=np.int64)
        runs.qs = np.empty((STEP_LIMIT, n, env.action_count))
        runs.rewards = np.empty((STEP_LIMIT, n))
    # Each episode's reward is summed in step order, as a lone run sums it.
    totals = np.zeros(n)
    lengths = np.zeros(n, dtype=np.int64)
    causes = np.full(n, RUNNING)
    live = np.arange(n)
    x = np.array([env.reset(seed=seed) for seed in seeds])
    t = 0
    # A Q pass that overflows gives a non-finite Q-value, which the corpus
    # writer refuses by name: numpy's warnings would only come first.
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size:
            q = network.forward(x)
            actions = np.argmax(q, axis=1)  # ties break low, as in greedy_action
            if record:
                runs.states[t, live] = x
                runs.actions[t, live] = actions
                runs.qs[t, live] = q
            x, rewards, step_causes = env.transition(x, actions, t)
            totals[live] += rewards
            if record:
                runs.rewards[t, live] = rewards
            ended = step_causes != RUNNING
            lengths[live[ended]] = t + 1
            causes[live[ended]] = step_causes[ended]
            live = live[~ended]
            x = x[~ended]
            t += 1
    runs.totals = totals.tolist()
    runs.lengths = lengths.tolist()
    runs.causes = [CAUSES[code] for code in causes.tolist()]
    return runs


def evaluate_policy(network: QNetwork, env_kind: str, episodes: int, root_seed: int) -> Rollouts:
    """Greedy rollouts from the seeds eval:0 .. eval:<episodes - 1>."""
    seeds = [derive_seed(root_seed, f"eval:{i}") for i in range(episodes)]
    return greedy_rollouts(network, env_kind, seeds)


def _dqn_update(network, target, optimizer, batch, gamma) -> float:
    """One SGD step of `network` on a replay batch towards the double
    DQN targets of `target`; returns the TD loss, and takes no step when
    the loss is not finite."""
    s, a, r, ns, keep = batch
    # The target is a copy of the network, with the same input
    # normalisation. Its pass and the online one stay two products: one
    # stacked product would change the bits of rows.
    x = network._normalize(ns)
    next_target = target._activations(x)[-1]
    best = np.argmax(network._activations(x)[-1], axis=1)
    next_q = next_target[np.arange(len(best)), best]
    targets = r + gamma * next_q * keep
    # Overflow here is reported as the non-finite loss.
    with np.errstate(over="ignore", invalid="ignore"):
        loss, _ = network.td_loss_and_grads(s, a, targets, optimizer.grad_layers)
    if math.isfinite(loss):
        optimizer.step(network.params)
    return loss


def _train_checkpoints(env_kind: str, config: AgentTrainConfig) -> list[tuple[int, QNetwork]]:
    """Train with experience replay plus a target network; returns the
    periodic (step, network) snapshots, the final network last."""
    env = make_env(env_kind)
    offset, scale = _INPUT_NORMS[env_kind]
    layer_sizes = (env.state_dim, *HIDDEN_SIZES, env.action_count)
    init_rng = derive_rng(config.seed, "init")
    network = QNetwork(layer_sizes, rng=init_rng, input_offset=offset, input_scale=scale)
    target = network.copy()
    optimizer = _SgdMomentum(network, config.learning_rate)
    # A run never holds more transitions than it takes steps.
    buffer = _ReplayBuffer(min(REPLAY_CAPACITY, config.total_steps), env.state_dim)
    explore_rng = derive_rng(config.seed, "explore")
    replay_rng = derive_rng(config.seed, "replay")

    episode_idx = 0
    state = env.reset(seed=derive_seed(config.seed, f"train-episode:{episode_idx}"))
    checkpoints: list[tuple[int, QNetwork]] = []

    for step in range(1, config.total_steps + 1):
        if explore_rng.random() < config.epsilon(step):
            action = int(explore_rng.integers(env.action_count))
        else:
            action = greedy_action(network.forward(state))
        out = env.step(action)
        # Step-limit endings are truncations, not absorbing states: keep
        # bootstrapping through them so Q-values stay time-consistent.
        absorbing = out.terminated and out.cause is not Cause.STEP_LIMIT
        buffer.add(state, action, out.reward, out.next_state, absorbing)
        if out.terminated:
            episode_idx += 1
            state = env.reset(seed=derive_seed(config.seed, f"train-episode:{episode_idx}"))
        else:
            state = out.next_state

        if step >= TRAIN_START and buffer.size >= BATCH_SIZE:
            batch = buffer.sample(BATCH_SIZE, replay_rng)
            loss = _dqn_update(network, target, optimizer, batch, config.gamma)
            if not math.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite TD loss at step {step} (lr={config.learning_rate})"
                )

        if step % config.target_sync_interval == 0:
            target = network.copy()
        if step % config.checkpoint_interval == 0:
            checkpoints.append((step, network.copy()))

    if not checkpoints or checkpoints[-1][0] != config.total_steps:
        checkpoints.append((config.total_steps, network.copy()))
    return checkpoints


def train_agent(env_kind: str, config: AgentTrainConfig) -> AgentModel:
    """Train, then select the latest checkpoint whose unsafe-episode rate
    falls inside the band."""
    # The replay buffer is freed on return, before the rollouts run.
    checkpoints = _train_checkpoints(env_kind, config)
    rollouts = [
        evaluate_policy(snapshot, env_kind, BAND_EVAL_EPISODES, config.seed)
        for _, snapshot in checkpoints
    ]
    stats = []
    for (step, _), runs in zip(checkpoints, rollouts):
        reward, rate, length = runs.summary(BAND_EVAL_EPISODES)
        stats.append(CheckpointStat(step, rate, reward, length))

    # Latest checkpoint inside the band; if none qualifies, fall back to
    # the final network so degenerate budgets still return a model.
    lo, hi = UNSAFE_RATE_BAND
    inside = [k for k, stat in enumerate(stats) if lo <= stat.unsafe_rate <= hi]
    band_satisfied = bool(inside)
    selected = inside[-1] if inside else len(checkpoints) - 1

    step, snapshot = checkpoints[selected]
    # The report's seeds eval:0..99 open the band rollouts of the same network.
    reward, rate, length = rollouts[selected].summary(REPORT_EVAL_EPISODES)
    report = TrainReport(
        mean_reward=reward,
        unsafe_rate=rate,
        mean_length=length,
        eval_episodes=REPORT_EVAL_EPISODES,
        selected_step=step,
        band_satisfied=band_satisfied,
        checkpoints=stats,
    )
    return AgentModel(
        env_kind=env_kind,
        network=snapshot,
        gamma=config.gamma,
        seed=config.seed,
        steps_trained=step,
        report=report,
    )


def _header(model: AgentModel) -> dict:
    """The scalar fields of the agent's document, in its order."""
    return {"format": AGENT_FORMAT, "env": model.env_kind, "gamma": model.gamma, "seed": model.seed,
            "steps_trained": model.steps_trained, "layer_sizes": list(model.network.layer_sizes)}


def _core_doc(model: AgentModel) -> dict:
    network = model.network
    return {
        **_header(model),
        "input_offset": network.input_offset.tolist(),
        "input_scale": network.input_scale.tolist(),
        "weights": [{"w": w.tolist(), "b": b.tolist()} for w, b in network.weights],
    }


def agent_fingerprint(model: AgentModel) -> str:
    """The first 16 hex digits of a SHA-256 over the agent's core: a
    compact, key-sorted JSON header of its format, env, gamma, seed,
    steps_trained and layer_sizes, then the little-endian float64 bytes
    of input_offset, input_scale and params, in that order.

    The header fixes how many parameter bytes follow, so the fingerprint
    changes with any header field and any parameter bit (0.0 and -0.0
    differ). The training report is left out.
    """
    network = model.network
    digest = hashlib.sha256(json.dumps(_header(model), sort_keys=True, separators=(",", ":")).encode())
    for values in (network.input_offset, network.input_scale, network.params):
        digest.update(np.asarray(values, dtype="<f8").tobytes())
    return digest.hexdigest()[:16]


def save_agent(model: AgentModel, path) -> None:
    doc = _core_doc(model)
    if model.report is not None:
        doc["report"] = asdict(model.report)
    save_document(path, doc)


def load_agent(path) -> AgentModel:
    return load_document(path, AGENT_FORMAT, AGENT_FIELDS, _agent_from_doc,
                         exact=("seed", "steps_trained", "layer_sizes", "report"))


_READ = ("collect",)
_UNIT = json_number(lambda v: 0.0 <= v <= 1.0)
_MEAN_LENGTH = json_number(lambda v: 1.0 <= v <= STEP_LIMIT)
_FINITE = json_number(lambda v: abs(v) < math.inf)
_LIST_OF_N = lambda v, n: type(v) is list and len(v) == n

# An agent/1 document, each field after those its rule reads. collect reads
# the network, and the report for its band warning; gamma, seed and
# steps_trained feed only agent_fingerprint, which no corpus line holds.
AGENT_FIELDS = (
    Field("env", f"be one of {list(ENV_KINDS)}", ENV_KINDS.__contains__, _READ),
    Field("gamma", "be a JSON number in [0, 1]", _UNIT),
    Field("seed", "be a JSON integer", json_integer()),
    Field("steps_trained", "be a JSON integer >= 0", json_integer(0)),
    Field("layer_sizes", "be a list of two or more integers >= 1",
          lambda v: type(v) is list and len(v) >= 2 and all(type(s) is int and s >= 1 for s in v), _READ),
    *(Field(key, "be a list of {} finite numbers", finite_numbers, _READ,
            tie=lambda doc: doc["layer_sizes"][0]) for key in ("input_offset", "input_scale")),
    Field("input_scale", "hold no 0", lambda v: 0 not in v, _READ),  # a state divided by 0 is no input
    Field("weights", "be a list of {} layers for layer_sizes {doc[layer_sizes]}", _LIST_OF_N, _READ,
          tie=lambda doc: len(doc["layer_sizes"]) - 1, unit="layers"),
    Field("weights[]", "be an object with keys w and b", dict, _READ),
    Field("weights[].w", "be a list of {} rows", _LIST_OF_N, _READ,
          tie=lambda doc, k: doc["layer_sizes"][k], unit="rows"),
    Field("weights[].w[]", "be a list of {} finite numbers", finite_numbers, _READ,
          tie=lambda doc, k, row: doc["layer_sizes"][k + 1]),
    Field("weights[].b", "be a list of {} finite numbers", finite_numbers, _READ,
          tie=lambda doc, k: doc["layer_sizes"][k + 1]),
    Field("report", "be a JSON object", dict, _READ, optional=True),
    Field("report.mean_reward", "be a finite JSON number", _FINITE),
    Field("report.unsafe_rate", "be a number in [0, 1]", _UNIT, _READ),
    Field("report.mean_length", f"be a JSON number in [1, {STEP_LIMIT}]", _MEAN_LENGTH),
    Field("report.eval_episodes", "be a JSON integer >= 1", json_integer(1), _READ),
    Field("report.selected_step", "be a JSON integer >= 0", json_integer(0), _READ),
    Field("report.band_satisfied", "be true or false", bool, _READ),
    Field("report.checkpoints", "be a list", list),
    Field("report.checkpoints[]", "be a JSON object", dict),
    Field("report.checkpoints[].step", "be a JSON integer >= 0", json_integer(0)),
    Field("report.checkpoints[].unsafe_rate", "be a number in [0, 1]", _UNIT),
    Field("report.checkpoints[].mean_reward", "be a finite JSON number", _FINITE),
    Field("report.checkpoints[].mean_length", f"be a JSON number in [1, {STEP_LIMIT}]", _MEAN_LENGTH),
)


def _agent_from_doc(doc: dict) -> AgentModel:
    network = QNetwork(doc["layer_sizes"], weights=[(layer["w"], layer["b"]) for layer in doc["weights"]],
                       input_offset=doc["input_offset"], input_scale=doc["input_scale"])
    rep = doc.get("report")
    report = None if rep is None else TrainReport(
        rep["mean_reward"], rep["unsafe_rate"], rep["mean_length"], rep["eval_episodes"],
        rep["selected_step"], rep["band_satisfied"],
        [CheckpointStat(c["step"], c["unsafe_rate"], c["mean_reward"], c["mean_length"])
         for c in rep["checkpoints"]],
    )
    return AgentModel(doc["env"], network, doc["gamma"], doc["seed"], doc["steps_trained"], report)
