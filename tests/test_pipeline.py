"""The README pipeline end to end on a reduced budget, each command in its
own process: the README's block (train-agent, collect, select-d, build,
evaluate, watch) on cart-pole, its budgets and seeds set by one table,
and train-agent, collect, build, evaluate on mountain-car.

The runs are marked slow and left out of the default run; select them
with `-m slow`. Two fast tests read the README's own block, in process.
"""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# The cart-pole leg runs the README's block, each command with the flags
# of its row set to a reduced budget and its own seed; a row names only
# flags its command gives. Cart-pole seed 7 at 3,000 steps lands in the
# unsafe-rate band (12.0% over 200 rollouts), so both corpora hold safe
# and unsafe episodes.
REDUCED = [
    ("train-agent", {"--steps": "3000", "--checkpoint-interval": "3000", "--seed": "7"}),
    ("collect", {"--episodes": "60", "--seed": "7"}),
    ("collect", {"--episodes": "30", "--seed": "8"}),
    ("select-d", {"--grid": "0.5,1,2,5", "--trees": "20", "--seed": "3"}),
    ("build", {"--trees": "20", "--seed": "9"}),
    ("evaluate", {}),
    ("watch", {}),
]


# Mountain-car seed 12 at 10,000 steps misses the band (25.5% over 200
# rollouts), yet both corpora hold safe and unsafe episodes; both commands
# that read the agent say it missed.
MC_TRAIN_WARNING = (
    "warning: no checkpoint's unsafe rate lies in the band [5%, 20%]; selected the final "
    "checkpoint, step 10000, with unsafe rate 25.5% over 200 rollouts\n"
)
MC_COLLECT_WARNING = (
    "warning: agent.json missed the unsafe-rate band [5%, 20%] in training; its checkpoint, "
    "step 10000, had unsafe rate 25.5% over 200 rollouts\n"
)
MOUNTAINCAR_COMMANDS = [
    (["train-agent", "--env", "mountaincar", "--steps", "10000", "--checkpoint-interval", "10000",
      "--seed", "12", "--out", "agent.json"], MC_TRAIN_WARNING),
    (["collect", "--agent", "agent.json", "--episodes", "60", "--seed", "12", "--out", "train.jsonl"],
     MC_COLLECT_WARNING),
    (["collect", "--agent", "agent.json", "--episodes", "30", "--seed", "13", "--out", "test.jsonl"],
     MC_COLLECT_WARNING),
    (["build", "--episodes", "train.jsonl", "--d", "1.0", "--trees", "20", "--seed", "9",
      "--out", "monitor.json"], ""),
    (["evaluate", "--model", "monitor.json", "--episodes", "test.jsonl", "--out-prefix", "report",
      "--sweep", "--traces"], ""),
]


def safemon(argv, cwd, stdin=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "safemon.cli", *argv], cwd=cwd, env=env, input=stdin,
        capture_output=True, text=True, timeout=600,
    )


def run_commands(workdir: Path, commands):
    """Run each (argv, expected stderr) in a fresh `workdir`, checking exit
    codes and stderr; returns each command's output."""
    workdir.mkdir()
    outputs = {}
    for argv, stderr in commands:
        done = safemon(argv, workdir)
        assert (done.returncode, done.stderr) == (0, stderr), argv
        outputs[" ".join(argv)] = done.stdout
    return outputs


def quoted_rate(text: str) -> str:
    """The one unsafe rate that `text` quotes."""
    (rate,) = re.findall(r"unsafe rate (\d+\.\d%) over 200 rollouts", text)
    return rate


def written(workdir: Path):
    return {path.name: path.read_bytes() for path in workdir.iterdir()}


def causes(path: Path):
    return {json.loads(line)["cause"] for line in path.read_text(encoding="utf-8").splitlines()}


def reduced_pipeline() -> list[list[str]]:
    """The README block's commands, each with its REDUCED row's values."""
    commands = []
    for argv, (_, flags) in zip(readme_pipeline(), REDUCED, strict=True):
        argv = list(argv)
        for flag, value in flags.items():
            argv[argv.index(flag) + 1] = value
        commands.append(argv)
    return commands


def run_pipeline(workdir: Path):
    """Run every cart-pole command in `workdir`, checking that nothing
    warned; returns each command's output and each file written."""
    *commands, watch = reduced_pipeline()
    outputs = run_commands(workdir, [(argv, "") for argv in commands])

    # Stream the Q-values of the first unsafe test episode into watch.
    episodes = [json.loads(line) for line in (workdir / "test.jsonl").read_text(encoding="utf-8").splitlines()]
    assert {e["label"] for e in episodes} == {"safe", "unsafe"}
    unsafe = next(e for e in episodes if e["label"] == "unsafe")
    stream = "".join(json.dumps({"t": t, "q": s["q"]}) + "\n" for t, s in enumerate(unsafe["steps"]))
    done = safemon(watch, workdir, stdin=stream)
    assert (done.returncode, done.stderr) == (0, "")
    replies = [json.loads(line) for line in done.stdout.splitlines()]
    assert [r["t"] for r in replies] == list(range(len(unsafe["steps"])))
    outputs["watch"] = done.stdout
    return outputs, written(workdir)


@pytest.mark.slow
def test_pipeline_exits_zero_and_reruns_byte_identical(tmp_path):
    first = run_pipeline(tmp_path / "first")
    assert sorted(first[1]) == [
        "agent.json", "agent.json.report.json", "levels.json", "monitor.json",
        "report.decision_stats.json", "report.metrics.csv", "report.sweep.csv",
        "report.traces.csv", "test.jsonl", "train.jsonl",
    ]
    report = json.loads(first[1]["agent.json.report.json"])
    (selected,) = [c for c in report["checkpoints"] if c["step"] == report["selected_step"]]
    rate = quoted_rate(first[0][" ".join(reduced_pipeline()[0])])
    assert rate == f"{selected['unsafe_rate']:.1%}" == "12.0%"
    assert run_pipeline(tmp_path / "second") == first


@pytest.mark.slow
def test_mountaincar_pipeline_warns_of_the_band_and_reruns_byte_identical(tmp_path):
    """3-wide Q-vectors and 2-wide states through the corpus writer, and
    mountain-car's border and step-limit endings through collect (this
    agent never reaches the goal)."""
    first = run_commands(tmp_path / "first", MOUNTAINCAR_COMMANDS)
    files = written(tmp_path / "first")
    assert sorted(files) == [
        "agent.json", "agent.json.report.json", "monitor.json", "report.decision_stats.json",
        "report.metrics.csv", "report.sweep.csv", "report.traces.csv", "test.jsonl",
        "train.jsonl",
    ]
    for corpus in ("train.jsonl", "test.jsonl"):
        assert causes(tmp_path / "first" / corpus) == {"violation", "step_limit"}
    rate = quoted_rate(first[" ".join(MOUNTAINCAR_COMMANDS[0][0])])
    assert rate == quoted_rate(MC_TRAIN_WARNING) == quoted_rate(MC_COLLECT_WARNING) == "25.5%"
    assert run_commands(tmp_path / "second", MOUNTAINCAR_COMMANDS) == first
    assert written(tmp_path / "second") == files


def readme_pipeline() -> list[list[str]]:
    """The commands of the README's pipeline block, each as its argv after
    `safemon`, with continued lines joined and comments dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(.*?)^```", text, flags=re.M | re.S)
    (block,) = [b for b in blocks if b.startswith("safemon train-agent")]
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    assert all(argv[0] == "safemon" for argv in commands)
    return [argv[1:] for argv in commands]


def test_readme_pipeline_reads_only_files_it_wrote_before():
    """Each --episodes, --model and --agent path of the README block is the
    --out of an earlier command, and each command parses; the block once
    evaluated a test.jsonl that no line wrote."""
    from safemon.cli import build_parser

    parser = build_parser()
    written = set()
    for argv in readme_pipeline():
        args = vars(parser.parse_args(argv))
        for key in ("episodes", "model", "agent"):
            if type(args.get(key)) is str:  # collect's --episodes is a count
                assert args[key] in written, f"{argv[0]} reads {args[key]}, which no earlier command wrote"
        if "out" in args:
            written.add(args["out"])
    assert {"agent.json", "train.jsonl", "test.jsonl", "monitor.json"} <= written


def test_every_readme_command_has_a_reduced_row_of_its_own_flags():
    """The slow cart-pole leg runs the README block as written but for the
    values REDUCED sets, so each command of the block has a row, in order,
    and each row names only flags its command gives."""
    block = readme_pipeline()
    assert [argv[0] for argv in block] == [name for name, _ in REDUCED]
    for argv, (name, flags) in zip(block, REDUCED):
        missing = sorted(set(flags) - set(argv))
        assert not missing, f"{name} in the README block gives no {missing}"
