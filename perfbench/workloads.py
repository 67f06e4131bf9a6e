"""The four workloads. Each sets itself up, runs units of timed work until
the run's time is up, and then checks what the program produced.

Every unit of work, command and output check is one operation; a command
that exits non-zero or a check that does not hold is a failed one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import corpus
from spans import beyond, min_samples, percentile

# Sizes. The stream and replay monitors are built in set-up, three times
# per run, so every training corpus is kept small (the generator is
# calibrated at 1,600 episodes; smaller corpora see more unseen states).
# Timed units are short so that a run holds several of them.
TRAIN_EPISODES = 200
FIT_TRAIN_EPISODES = 60
# A build's cost moves by up to 30% with its corpus's seed; fit builds
# this many corpora in turn so that a run's median does not hang on one.
FIT_CORPORA = 4
STREAM_POOL_EPISODES = 40
STREAM_MIN_STEPS = min_samples(99)  # ten samples beyond the reported p99
REPLAY_TEST_EPISODES = 8
AGENT_ENVS = ("cartpole", "mountaincar")
AGENT_STEPS = 1600  # one checkpoint, at the end: rollouts would dominate
AGENT_COLLECT_EPISODES = 30
AGENT_COLLECT_REPEATS = 2
AGENT_WARMUP_STEPS = 1100  # past the first DQN update
# Training time moves with the agent's seed, so agent trains this many
# agents in turn.
AGENT_SEEDS = 3
TREES = 100
# Times are reported at a reference host speed. A shared host runs in
# fast and slow phases, seconds to minutes long, that change the speed of
# all code by up to 2x, so raw medians of identical runs differ by 20-50%.
# Every timed sample is therefore bracketed by a short fixed loop
# (reference_s) and scaled by REFERENCE_S / (the loop's mean time around
# it): the figure is what the sample takes on a host that runs the loop
# in REFERENCE_S. Raw medians are printed beside the figures.
REFERENCE_S = 1e-3
_REFERENCE_ARRAY = np.arange(64.0)[::-1].copy()


def reference_s() -> float:
    """Seconds taken by a fixed mix of interpreter and small-array numpy
    work, the kind of work the program does; about 1 ms."""
    start = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i
    for _ in range(100):
        np.argsort(_REFERENCE_ARRAY)
        _REFERENCE_ARRAY.cumsum()
    return time.perf_counter() - start


class Bracket:
    """Reference readings around timed work: `scale()` converts the
    seconds of the work done since the last reading to reference seconds."""

    def __init__(self):
        self.readings: list[float] = []
        self.last = reference_s()

    def scale(self) -> float:
        now = reference_s()
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.readings.append(now)
        self.last = now
        return factor


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def nodes_per_tree(model_path) -> float:
    trees = json.loads(Path(model_path).read_text())["forest"]
    return sum(map(len, trees)) / len(trees)


class Workload:
    """Shared bookkeeping: operations, failures and the CLI call."""

    name = ""
    digested = True  # whether the default seed's artifacts have recorded digests
    # What `primary_ms` and `secondary_ms` stand for on this workload:
    # (the user-facing figure, its unit, that unit per millisecond).
    primary = secondary = ("", "ms", 1.0)

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        # slot -> part -> samples in reference ms; a slot's figure sums
        # the medians of its parts. `raw` holds the same samples unscaled.
        self.samples: dict[str, dict[str, list[float]]] = {"primary": {}, "secondary": {}}
        self.raw: dict[str, dict[str, list[float]]] = {"primary": {}, "secondary": {}}
        self.bracket = Bracket()
        self.info: dict = {}
        self.artifacts: dict[str, str] = {}  # artifact name -> digest of its first output

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)

    def cli(self, *argv) -> tuple[str, float, float]:
        """Run one command; returns its stdout, its wall seconds and the
        factor that converts them to reference seconds."""
        import safemon.cli

        out, err = io.StringIO(), io.StringIO()
        self.bracket.scale()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = safemon.cli.main([str(a) for a in argv])
        except Exception:  # an operation boundary: record it and go on
            code = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        factor = self.bracket.scale()
        if code != 0:
            sys.stderr.write(err.getvalue())
        self.check(code == 0, f"{argv[0]} exited {code}")
        return out.getvalue(), elapsed, factor

    def same_output(self, name: str, path) -> None:
        """Every repetition of a command must write the same bytes."""
        digest = sha256(path)
        first = self.artifacts.setdefault(name, digest)
        self.check(digest == first, f"{name} differs between repetitions")

    def fresh_dir(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def build(self, train: Path, mode: str, out: Path) -> tuple[str, float, float]:
        text, elapsed, factor = self.cli(
            "build", "--episodes", train, "--d", "1.0", "--features", mode,
            "--trees", TREES, "--seed", self.seed, "--out", out,
        )
        return text.strip(), elapsed, factor

    # Overridden per workload. Set-up ends with an untimed warm-up unit.
    def setup(self) -> None: ...
    def unit(self) -> None: ...
    def verify(self) -> None: ...

    def more(self) -> bool:
        """Whether the run needs more units than its time allows."""
        return False

    def sample(self, slot: str, seconds: float, factor: float, part: str = "") -> None:
        self.samples[slot].setdefault(part, []).append(seconds * factor * 1e3)
        self.raw[slot].setdefault(part, []).append(seconds * 1e3)

    def metrics(self) -> tuple[float, float]:
        """Each slot's median in reference ms, summed over its parts."""
        figures = []
        for slot, (name, _, per_ms) in (("primary", self.primary), ("secondary", self.secondary)):
            parts = self.samples[slot].values()
            self.info[f"{name}_samples"] = min(map(len, parts))
            self.info[f"{name}_raw_p50"] = sum(percentile(v, 50) for v in self.raw[slot].values()) * per_ms
            figures.append(sum(percentile(v, 50) for v in parts))
        return figures[0], figures[1]


class Stream(Workload):
    """One closed-loop client: each `watch` line is sent after the last reply."""

    name = "stream"
    primary = ("watch_step_p50_us", "us", 1e3)
    # The bounded tail is p90: on a shared host, bursts that touch 1-2% of
    # a run's steps swing its p99 by up to 2x. p99 is reported as info.
    secondary = ("watch_step_p90_us", "us", 1e3)

    def setup(self):
        from safemon import monitor

        d = self.fresh_dir("stream")
        train = corpus.corpus(self.seed, "train", TRAIN_EPISODES)
        pool = corpus.corpus(self.seed, "test", STREAM_POOL_EPISODES)
        corpus.write_jsonl(train, d / "train.jsonl")
        self.build(d / "train.jsonl", "binary", d / "monitor.json")
        self.same_output("monitor.json", d / "monitor.json")
        self.model = monitor.load_model(d / "monitor.json")
        self.sessions = [corpus.stream_lines(e) for e in pool]
        self.pool = pool
        self.info["corpus"] = corpus.properties(train, pool)
        self.info["corpus"]["nodes_per_tree"] = nodes_per_tree(d / "monitor.json")
        self.latency: list[float] = []  # seconds per step, raw
        self.scaled: list[float] = []  # the same in reference seconds
        self.replies: dict[int, list[str]] = {}
        self.next_session = 0
        self.lines_per_session: list[int] = []
        self.session(len(self.sessions) - 1, record=False)

    def session(self, index: int, record: bool) -> None:
        from safemon import monitor

        client = _Client(self.sessions[index])
        self.bracket.scale()
        code = monitor.watch_stream(self.model, client, client, io.StringIO())
        factor = self.bracket.scale()
        self.check(code == 0 and len(client.replies) == len(client.lines),
                   f"watch session {index} exited {code} with {len(client.replies)} replies")
        if record:
            steps = [done - sent for sent, done in zip(client.sent, client.done)]
            self.latency.extend(steps)
            self.scaled.extend(x * factor for x in steps)
            self.replies.setdefault(index, client.replies)
            self.lines_per_session.append(len(client.lines))

    def unit(self):
        self.session(self.next_session % len(self.sessions), record=True)
        self.next_session += 1

    def more(self) -> bool:
        return len(self.latency) < STREAM_MIN_STEPS

    def metrics(self):
        ms = [x * 1e3 for x in self.scaled]
        self.info["watch_steps"] = len(ms)
        self.info["watch_step_p99_us"] = percentile(ms, 99) * 1e3
        self.info["watch_steps_beyond_p99"] = beyond(ms, 99)
        raw = [x * 1e3 for x in self.latency]
        self.info["watch_step_raw_p50_us"] = percentile(raw, 50) * 1e3
        self.info["watch_step_raw_p90_us"] = percentile(raw, 90) * 1e3
        return percentile(ms, 50), percentile(ms, 90)

    def verify(self):
        """Every reply equals the batch trace of the same episode, bit for bit."""
        from safemon import monitor

        self.check(self.info["watch_steps_beyond_p99"] >= 10, "fewer than ten samples beyond p99")
        for index, replies in sorted(self.replies.items()):
            trace = monitor.run_trace(self.model, self.pool[index].qs)
            self.check(len(replies) == len(trace.assessments), f"session {index} reply count")
            for t, (reply, a) in enumerate(zip(replies, trace.assessments)):
                want = {"t": t, "p": a.summary.mean, "low": a.summary.low, "up": a.summary.up,
                        "fired": a.fired, "unseen": a.unseen_alert}
                try:
                    got = json.loads(reply)
                except json.JSONDecodeError:
                    got = reply
                self.check(got == want, f"session {index} step {t} differs from run_trace")


class _Client:
    """Input and output of one `watch` session, timing each line's round trip."""

    def __init__(self, lines):
        self.lines = lines
        self.sent: list[float] = []
        self.done: list[float] = []
        self.replies: list[str] = []
        self._parts: list[str] = []

    def __iter__(self):
        for line in self.lines:
            self.sent.append(time.perf_counter())
            yield line

    def write(self, text):
        self._parts.append(text)

    def flush(self):
        self.done.append(time.perf_counter())
        self.replies.append("".join(self._parts))
        self._parts.clear()


class Replay(Workload):
    """`evaluate` over a held-out corpus against a frequency-feature monitor."""

    name = "replay"
    primary = ("evaluate_s", "s", 1e-3)  # evaluate --sweep --traces
    secondary = ("evaluate_plain_s", "s", 1e-3)  # evaluate without them
    OUTPUTS = (".metrics.csv", ".decision_stats.json", ".sweep.csv", ".traces.csv")

    def setup(self):
        d = self.fresh_dir("replay")
        train = corpus.corpus(self.seed, "train", TRAIN_EPISODES)
        test = corpus.corpus(self.seed, "test", REPLAY_TEST_EPISODES)
        corpus.write_jsonl(train, d / "train.jsonl")
        corpus.write_jsonl(test, d / "test.jsonl")
        self.build(d / "train.jsonl", "frequency", d / "monitor.json")
        self.same_output("monitor.json", d / "monitor.json")
        self.dir = d
        self.info["corpus"] = corpus.properties(train, test)
        self.info["corpus"]["nodes_per_tree"] = nodes_per_tree(d / "monitor.json")
        self.evaluate(full=False)

    def evaluate(self, full: bool) -> tuple[float, float]:
        d = self.dir
        prefix = d / ("full" if full else "plain")
        flags = ["--sweep", "--traces"] if full else []
        text, elapsed, factor = self.cli(
            "evaluate", "--model", d / "monitor.json", "--episodes", d / "test.jsonl",
            "--out-prefix", prefix, *flags,
        )
        self.info["evaluate"] = text.strip()
        for suffix in self.OUTPUTS if full else self.OUTPUTS[:2]:
            self.same_output(prefix.name + suffix, str(prefix) + suffix)
        return elapsed, factor

    def unit(self):
        self.sample("primary", *self.evaluate(full=True))
        self.sample("secondary", *self.evaluate(full=False))


class Fit(Workload):
    """`build` in both feature modes on FIT_CORPORA training corpora in turn."""

    name = "fit"
    primary = ("build_binary_s", "s", 1e-3)
    secondary = ("build_frequency_s", "s", 1e-3)

    def setup(self):
        d = self.fresh_dir("fit")
        for k in range(FIT_CORPORA):
            train = corpus.corpus(self.seed, f"train{k or ''}", FIT_TRAIN_EPISODES)
            corpus.write_jsonl(train, d / f"train{k}.jsonl")
            if k == 0:
                self.info["corpus"] = corpus.properties(train, corpus.corpus(self.seed, "test", 50))
        self.dir = d
        self.next_corpus = 0
        small = d / "warmup.jsonl"
        corpus.write_jsonl(corpus.corpus(self.seed, "warmup", 60), small)
        self.build(small, "binary", d / "warmup.json")

    def unit(self):
        k = self.next_corpus % FIT_CORPORA
        self.next_corpus += 1
        for mode, slot in (("binary", "primary"), ("frequency", "secondary")):
            out = self.dir / f"monitor_{mode}{k}.json"
            text, elapsed, factor = self.build(self.dir / f"train{k}.jsonl", mode, out)
            self.sample(slot, elapsed, factor)
            if k == 0:
                self.info[f"build_{mode}"] = text
                self.info["corpus"][f"nodes_per_tree_{mode}"] = nodes_per_tree(out)
            self.same_output(out.name, out)

    def more(self) -> bool:
        return self.next_corpus < FIT_CORPORA  # every corpus is built and digested


class Agent(Workload):
    """A reduced `train-agent`, then `collect`, on both environments."""

    name = "agent"
    digested = False  # BLAS-dependent weights: checked for repeatability only
    # Both figures sum the two envs, each env timed as its own part.
    primary = ("train_agent_s", "s", 1e-3)
    # Collect time per 1,000 collected steps: how many steps an episode
    # lasts depends on how well the seed's agent learned.
    secondary = ("collect_ms_per_kstep", "ms", 1.0)

    def setup(self):
        self.dir = self.fresh_dir("agent")
        self.next_agent = 0
        for env in AGENT_ENVS:
            self.train(env, 0, AGENT_WARMUP_STEPS)
            self.collect(env, 0, 2)

    def agent_seed(self, k: int) -> int:
        return self.seed + 1000 * k

    def train(self, env: str, k: int, steps: int) -> tuple[float, float]:
        agent = self.dir / f"{env}{k}.agent.json"
        _, elapsed, factor = self.cli(
            "train-agent", "--env", env, "--steps", steps, "--seed", self.agent_seed(k),
            "--checkpoint-interval", steps, "--out", agent,
        )
        return elapsed, factor

    def collect(self, env: str, k: int, episodes: int) -> tuple[float, float, int]:
        """Seconds, reference factor and steps of one `collect`."""
        out = self.dir / f"{env}{k}.jsonl"
        _, elapsed, factor = self.cli(
            "collect", "--agent", self.dir / f"{env}{k}.agent.json", "--episodes", episodes,
            "--seed", self.agent_seed(k), "--out", out,
        )
        with open(out, encoding="utf-8") as fh:
            steps = sum(len(json.loads(line)["steps"]) for line in fh)
        return elapsed, factor, steps

    def unit(self):
        k = self.next_agent % AGENT_SEEDS
        self.next_agent += 1
        collect_s = {env: [] for env in AGENT_ENVS}
        steps = 0
        for env in AGENT_ENVS:
            self.sample("primary", *self.train(env, k, AGENT_STEPS), env)
            for suffix in (".agent.json", ".agent.json.report.json"):
                self.same_output(f"{env}{k}{suffix}", self.dir / f"{env}{k}{suffix}")
            # Collect is short and deterministic: repeat it for more samples.
            for _ in range(AGENT_COLLECT_REPEATS):
                seconds, factor, steps_env = self.collect(env, k, AGENT_COLLECT_EPISODES)
                collect_s[env].append((seconds, factor))
                self.same_output(f"{env}{k}.jsonl", self.dir / f"{env}{k}.jsonl")
            steps += steps_env
        for env, times in collect_s.items():
            for seconds, factor in times:
                self.sample("secondary", seconds / (steps / 1000), factor, env)
        self.info["collect_s"] = sum(t[-1][0] for t in collect_s.values())
        self.info["collected_steps"] = steps

    def verify(self):
        # The unsafe-rate band is information only: small budgets miss it.
        for env in AGENT_ENVS:
            for k in range(min(self.next_agent, AGENT_SEEDS)):
                report = json.loads((self.dir / f"{env}{k}.agent.json.report.json").read_text())
                self.info.setdefault(f"{env}_band_satisfied", []).append(report["band_satisfied"])
                self.info.setdefault(f"{env}_checkpoint_unsafe_rates", []).append(
                    [c["unsafe_rate"] for c in report["checkpoints"]])


WORKLOADS = {w.name: w for w in (Stream, Replay, Fit, Agent)}
