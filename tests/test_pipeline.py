"""The README pipeline end to end on a reduced budget, each command in its
own process: train-agent, collect, select-d, build, evaluate, watch.

Marked slow and left out of the default run; select it with `-m slow`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Cart-pole seed 7 at 3,000 steps lands in the unsafe-rate band (13% over
# 200 rollouts), so both corpora hold safe and unsafe episodes.
COMMANDS = [
    ["train-agent", "--env", "cartpole", "--steps", "3000", "--checkpoint-interval", "3000",
     "--seed", "7", "--out", "agent.json"],
    ["collect", "--agent", "agent.json", "--episodes", "60", "--seed", "7", "--out", "train.jsonl"],
    ["collect", "--agent", "agent.json", "--episodes", "30", "--seed", "8", "--out", "test.jsonl"],
    ["select-d", "--episodes", "train.jsonl", "--grid", "0.5,1,2,5", "--trees", "20",
     "--seed", "3", "--out", "levels.json"],
    ["build", "--episodes", "train.jsonl", "--d", "1.0", "--trees", "20", "--seed", "9",
     "--out", "monitor.json"],
    ["evaluate", "--model", "monitor.json", "--episodes", "test.jsonl", "--out-prefix", "report",
     "--sweep", "--traces"],
]


def safemon(argv, cwd, stdin=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "safemon.cli", *argv], cwd=cwd, env=env, input=stdin,
        capture_output=True, text=True, timeout=600,
    )


def run_pipeline(workdir: Path):
    """Run every command in `workdir`, checking exit codes and that nothing
    warned; returns each command's output and each file written."""
    workdir.mkdir()
    outputs = {}
    for argv in COMMANDS:
        done = safemon(argv, workdir)
        assert (done.returncode, done.stderr) == (0, ""), argv
        outputs[" ".join(argv)] = done.stdout

    # Stream the Q-values of the first unsafe test episode into watch.
    episodes = [json.loads(line) for line in (workdir / "test.jsonl").read_text(encoding="utf-8").splitlines()]
    assert {e["label"] for e in episodes} == {"safe", "unsafe"}
    unsafe = next(e for e in episodes if e["label"] == "unsafe")
    stream = "".join(json.dumps({"t": t, "q": s["q"]}) + "\n" for t, s in enumerate(unsafe["steps"]))
    done = safemon(["watch", "--model", "monitor.json"], workdir, stdin=stream)
    assert (done.returncode, done.stderr) == (0, "")
    replies = [json.loads(line) for line in done.stdout.splitlines()]
    assert [r["t"] for r in replies] == list(range(len(unsafe["steps"])))
    outputs["watch"] = done.stdout
    return outputs, {path.name: path.read_bytes() for path in workdir.iterdir()}


@pytest.mark.slow
def test_pipeline_exits_zero_and_reruns_byte_identical(tmp_path):
    first = run_pipeline(tmp_path / "first")
    assert sorted(first[1]) == [
        "agent.json", "agent.json.report.json", "levels.json", "monitor.json",
        "report.decision_stats.json", "report.metrics.csv", "report.sweep.csv",
        "report.traces.csv", "test.jsonl", "train.jsonl",
    ]
    assert run_pipeline(tmp_path / "second") == first
