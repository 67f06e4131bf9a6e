import argparse
import hashlib
import io
import json
import math
import sys
from pathlib import Path

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import safemon.cli
from conftest import make_episode, make_set, two_band_corpus
from safemon.agent import AgentModel, QNetwork, save_agent
from safemon.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from safemon.dataset import write_jsonl
from safemon.envs import CARTPOLE, ENV_KINDS


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.jsonl"
    write_jsonl(two_band_corpus(n_per_class=30, steps=4), path)
    return str(path)


@pytest.fixture(scope="module")
def agent_path(tmp_path_factory):
    rng = np.random.default_rng(2)
    network = QNetwork(
        (4, 8, 2), rng=rng,
        input_offset=np.zeros(4), input_scale=np.array([2.4, 3.0, 0.21, 3.0]),
    )
    model = AgentModel(env_kind=CARTPOLE, network=network, gamma=0.99, seed=2, steps_trained=0)
    path = tmp_path_factory.mktemp("agent") / "agent.json"
    save_agent(model, path)
    return str(path)


@pytest.fixture(scope="module")
def model_path(corpus_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "monitor.json"
    code = main(
        ["build", "--episodes", corpus_path, "--d", "1.0", "--trees", "10",
         "--seed", "3", "--out", str(path)]
    )
    assert code == EXIT_OK
    return str(path)


def test_usage_errors(capsys, tmp_path):
    assert main(["no-such-command"]) == EXIT_USAGE
    capsys.readouterr()
    # --theta, --trees, --d and each --grid level are checked as they are
    # parsed, before any file is read.
    out = str(tmp_path / "out.json")
    select_d = ["select-d", "--episodes", "unread.jsonl", "--out", out]
    build = ["build", "--episodes", "unread.jsonl", "--out", out]
    evaluate = ["evaluate", "--model", "unread.json", "--episodes", "unread.jsonl",
                "--out-prefix", str(tmp_path / "eval")]
    assert main(["train-agent", "--env", "bogus", "--steps", "10", "--out", out]) == EXIT_USAGE
    assert "argument --env: invalid choice: 'bogus'" in capsys.readouterr().err
    for argv, message in [
        (["train-agent", "--env", "cartpole", "--steps", "-1", "--out", out],
         "argument --steps: must be >= 0, got -1"),
        (["collect", "--agent", "unread.json", "--episodes", "0", "--out", out],
         "argument --episodes: must be >= 1, got 0"),
        (["train-agent"], "the following arguments are required: --env, --steps, --out"),
        (select_d + ["--grid", "1,2", "--theta", "1.5"],
         "argument --theta: must lie strictly between 0 and 1, got 1.5"),
        (select_d + ["--grid", "1,2", "--features", "frequency", "--theta", "0"],
         "argument --theta: must lie strictly between 0 and 1, got 0"),
        (evaluate + ["--theta", "1"],
         "argument --theta: must lie strictly between 0 and 1, got 1"),
        (select_d + ["--grid", "1,2", "--trees", "0"], "argument --trees: must be >= 1, got 0"),
        (build + ["--d", "1", "--trees", "-3"], "argument --trees: must be >= 1, got -3"),
        (build + ["--d", "nan"], "argument --d: must be positive and finite, got nan"),
        (build + ["--d", "inf"], "argument --d: must be positive and finite, got inf"),
        (build + ["--d", "0"], "argument --d: must be positive and finite, got 0"),
        (select_d + ["--grid", "1,-2"],
         "argument --grid: bad level in '1,-2': must be positive and finite, got -2"),
        (select_d + ["--grid", "1,nan"],
         "argument --grid: bad level in '1,nan': must be positive and finite, got nan"),
        (select_d + ["--grid", "1,"],
         "argument --grid: needs at least two comma-separated levels"),
    ]:
        assert main(argv) == EXIT_USAGE, argv
        assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not Path(out).exists()


# The help texts and usage errors `main` gave before a run built only its
# own command's arguments: each case's argv, exit code, stdout and stderr.
CLI_SURFACE = json.loads(Path(__file__).with_name("cli_surface.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CLI_SURFACE, ids=[" ".join(c["argv"]) or "-" for c in CLI_SURFACE])
def test_help_and_usage_errors_match_golden_text(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    try:
        code = main(list(case["argv"]))
    except SystemExit as exc:  # --help prints and exits
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["out"], case["err"])


@pytest.mark.parametrize("with_config", [False, True])
def test_a_command_adds_only_its_own_arguments(with_config, tmp_path, monkeypatch):
    added = []
    add_argument = argparse.ArgumentParser.add_argument

    def recording(parser, *flags, **kwargs):
        added.append((parser.prog, flags[0]))
        return add_argument(parser, *flags, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", recording)
    argv = ["evaluate", "--model", "m.json", "--episodes", "c.jsonl"]
    if with_config:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"out_prefix": "e", "sweep": True}), encoding="utf-8")
        argv += ["--config", str(config)]
    else:
        argv += ["--out-prefix", "e"]
    with mock.patch.object(safemon.cli, "cmd_evaluate", lambda args: EXIT_OK):
        assert main(argv) == EXIT_OK
    # Only evaluate's parser is made: no other one adds even its own -h.
    assert {prog for prog, flag in added} == {"safemon evaluate"}
    assert [flag for prog, flag in added if prog == "safemon evaluate"] == [
        "-h", "--model", "--episodes", "--criterion", "--theta", "--out-prefix", "--sweep",
        "--traces", "--time-base", "--config",
    ]


TRAIN_AGENT_RULES = [
    ("--checkpoint-interval", "0", "must be >= 1"),
    ("--target-sync-interval", "0", "must be >= 1"),
    ("--epsilon-decay-steps", "0", "must be >= 1"),
    ("--learning-rate", "-1", "must be positive and finite"),
    ("--learning-rate", "nan", "must be positive and finite"),
    ("--learning-rate", "inf", "must be positive and finite"),
    ("--gamma", "1.5", "must lie in [0, 1]"),
    ("--epsilon-end", "2", "must lie in [0, 1]"),
]


@pytest.mark.parametrize(
    "flag, value, requirement",
    TRAIN_AGENT_RULES,
    ids=[f"{flag}-{value}-{flag} {rule}" for flag, value, rule in TRAIN_AGENT_RULES],
)
def test_train_agent_bad_value_is_usage_error_naming_flag(flag, value, requirement, tmp_path,
                                                          capsys):
    out = tmp_path / "a.json"
    argv = ["train-agent", "--env", "cartpole", "--steps", "10", "--out", str(out), flag, value]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: argument {flag}: {requirement}, got {value}\n"
    assert not out.exists()


def test_missing_input_is_io_error(tmp_path, capsys):
    assert main(["collect", "--agent", str(tmp_path / "nope.json"),
                 "--episodes", "2", "--seed", "1",
                 "--out", str(tmp_path / "c.jsonl")]) == EXIT_IO
    capsys.readouterr()


def test_build_bad_level_is_usage_error(corpus_path, tmp_path, capsys):
    assert main(["build", "--episodes", corpus_path, "--d", "-1",
                 "--out", str(tmp_path / "m.json")]) == EXIT_USAGE
    capsys.readouterr()


def test_train_agent_reports_deterministically(tmp_path, capsys):
    out1, out2 = str(tmp_path / "a1.json"), str(tmp_path / "a2.json")
    argv = ["train-agent", "--env", "cartpole", "--steps", "300", "--seed", "5",
            "--epsilon-decay-steps", "200"]
    assert main(argv + ["--out", out1]) == EXIT_OK
    assert main(argv + ["--out", out2]) == EXIT_OK
    capsys.readouterr()
    report1 = Path(out1 + ".report.json").read_text(encoding="utf-8")
    report2 = Path(out2 + ".report.json").read_text(encoding="utf-8")
    assert report1 == report2
    doc = json.loads(report1)
    assert doc["selected_step"] == 300
    assert "unsafe_rate" in doc and "mean_reward" in doc
    # The sidecar is the agent file's report behind the env and seed.
    assert list(doc)[:2] == ["env", "seed"]
    saved = json.loads(Path(out1).read_text(encoding="utf-8"))["report"]
    assert {k: v for k, v in doc.items() if k not in ("env", "seed")} == saved
    assert list(saved) == list(doc)[2:]


def test_train_agent_warns_when_no_checkpoint_is_in_band(tmp_path, capsys, monkeypatch):
    out = tmp_path / "a.json"
    argv = ["train-agent", "--env", "cartpole", "--steps", "300", "--seed", "5",
            "--checkpoint-interval", "150", "--out", str(out)]
    assert main(argv) == EXIT_OK  # a tiny budget: 0% unsafe everywhere
    captured = capsys.readouterr()
    assert captured.out.startswith("trained cartpole agent: checkpoint 300")
    assert captured.err == (
        "warning: no checkpoint's unsafe rate lies in the band [5%, 20%]; selected the "
        "final checkpoint, step 300, with unsafe rate 0.0% over 200 rollouts\n"
    )
    assert json.loads(Path(str(out) + ".report.json").read_text())["band_satisfied"] is False
    # A band that holds 0% is satisfied: no warning.
    monkeypatch.setattr("safemon.agent.UNSAFE_RATE_BAND", (0.0, 0.2))
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_collect_warns_on_one_class_corpus(agent_path, tmp_path, capsys, monkeypatch):
    out = tmp_path / "c.jsonl"
    argv = ["collect", "--agent", agent_path, "--episodes", "4", "--seed", "9",
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert "4 safe, 0 unsafe" in captured.out
    assert captured.err == (
        f"warning: {out} has no unsafe episodes; build and select-d need both classes\n"
    )
    assert len(out.read_text(encoding="utf-8").splitlines()) == 4
    # A corpus with both classes passes silently.
    monkeypatch.setattr("safemon.dataset.collect", lambda *args: two_band_corpus(2))
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_collect_warns_when_agent_missed_the_band(tmp_path, capsys):
    agent = tmp_path / "a.json"
    assert main(["train-agent", "--env", "cartpole", "--steps", "300", "--seed", "5",
                 "--checkpoint-interval", "150", "--out", str(agent)]) == EXIT_OK
    capsys.readouterr()  # a tiny budget: 0% unsafe at both checkpoints
    argv = ["collect", "--agent", str(agent), "--episodes", "4", "--seed", "9", "--out"]
    assert main(argv + [str(tmp_path / "c1.jsonl")]) == EXIT_OK
    assert capsys.readouterr().err.splitlines()[0] == (
        f"warning: {agent} missed the unsafe-rate band [5%, 20%] in training; its "
        f"checkpoint, step 300, had unsafe rate 0.0% over 100 episodes"
    )
    # The same agent marked as inside the band: no band warning, same corpus.
    doc = json.loads(agent.read_text(encoding="utf-8"))
    doc["report"]["band_satisfied"] = True
    agent.write_text(json.dumps(doc), encoding="utf-8")
    assert main(argv + [str(tmp_path / "c2.jsonl")]) == EXIT_OK
    assert "band" not in capsys.readouterr().err
    assert (tmp_path / "c1.jsonl").read_bytes() == (tmp_path / "c2.jsonl").read_bytes()


def test_collect_prints_balance_and_is_deterministic(agent_path, tmp_path, capsys):
    out1, out2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
    argv = ["collect", "--agent", agent_path, "--episodes", "6", "--seed", "9"]
    assert main(argv + ["--out", str(out1)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "6 episodes" in printed and "unsafe" in printed
    assert main(argv + ["--out", str(out2)]) == EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_build_prints_states_and_f1(corpus_path, tmp_path, capsys):
    out = str(tmp_path / "m.json")
    assert main(["build", "--episodes", corpus_path, "--d", "1.0",
                 "--trees", "10", "--seed", "3", "--out", out]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "2 abstract states" in printed
    # Two Q levels split the classes perfectly, so every tree agrees.
    assert "out-of-bag macro F1 1.000" in printed
    doc = json.loads(Path(out).read_text(encoding="utf-8"))
    assert doc["mode"] == "binary"
    assert doc["theta"] == 0.5


def test_build_one_class_corpus_is_io_error_naming_counts(tmp_path, capsys):
    path = tmp_path / "safe_only.jsonl"
    write_jsonl(make_set([make_episode(np.full((4, 1), 4.5)) for _ in range(6)]), path)
    code = main(["build", "--episodes", str(path), "--d", "1.0", "--trees", "5",
                 "--out", str(tmp_path / "m.json")])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert f"{path}: the corpus must contain both classes, got 6 safe and 0 unsafe" in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("action", [1.7, True, 10**30])
def test_build_refuses_an_action_that_is_not_an_index_of_q(action, tmp_path, capsys):
    path = tmp_path / "actions.jsonl"
    write_jsonl(two_band_corpus(n_per_class=3, steps=4), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    episode = json.loads(lines[2])
    episode["steps"][1]["a"] = action
    lines[2] = json.dumps(episode)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["build", "--episodes", str(path), "--d", "1.0", "--trees", "5",
                 "--out", str(tmp_path / "m.json")])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert f"i/o error: {path}: malformed episode at line 3: step 1 has action " in err
    assert "not an integer in [0, 1)" in err
    assert not (tmp_path / "m.json").exists()


def test_build_fits_one_forest(corpus_path, tmp_path, capsys, monkeypatch):
    import safemon.forest

    fitted = []
    train_forest = safemon.forest.train_forest

    def counting(*args, **kwargs):
        fitted.append(args[2])
        return train_forest(*args, **kwargs)

    monkeypatch.setattr(safemon.forest, "train_forest", counting)
    assert main(["build", "--episodes", corpus_path, "--d", "1.0", "--trees", "7",
                 "--seed", "3", "--out", str(tmp_path / "m.json")]) == EXIT_OK
    capsys.readouterr()
    assert fitted == [7]


def test_build_prints_na_when_every_episode_is_in_bag(tmp_path, capsys):
    # Seed 0 gives the one tree a bootstrap that draws both episodes.
    path = tmp_path / "pair.jsonl"
    write_jsonl(two_band_corpus(n_per_class=1, steps=4), path)
    out = tmp_path / "m.json"
    assert main(["build", "--episodes", str(path), "--d", "1.0", "--trees", "1",
                 "--seed", "0", "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.endswith("out-of-bag macro F1 n/a\n")
    assert out.exists()


def test_select_d_one_class_inner_split_is_io_error(tmp_path, capsys):
    # Seed 4 puts the only unsafe episode into the 30% inner test split.
    episodes = [make_episode(np.full((4, 1), 4.5)) for _ in range(9)]
    episodes.append(make_episode(np.full((4, 1), 9.5), unsafe=True))
    path = tmp_path / "one_unsafe.jsonl"
    write_jsonl(make_set(episodes), path)
    code = main(["select-d", "--episodes", str(path), "--grid", "1.0,2.0",
                 "--trees", "5", "--seed", "4", "--out", str(tmp_path / "sel.json")])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert (f"i/o error: {path}: the 70% inner training split must contain both "
            "classes, got 7 safe and 0 unsafe") in err
    assert not (tmp_path / "sel.json").exists()
    # build fits the whole corpus, so the same file builds.
    assert main(["build", "--episodes", str(path), "--d", "1.0", "--trees", "5",
                 "--seed", "4", "--out", str(tmp_path / "m.json")]) == EXIT_OK
    capsys.readouterr()


def test_select_d_one_class_corpus_is_io_error_naming_counts(tmp_path, capsys):
    path = tmp_path / "safe_only.jsonl"
    write_jsonl(make_set([make_episode(np.full((4, 1), 4.5)) for _ in range(6)]), path)
    code = main(["select-d", "--episodes", str(path), "--grid", "1.0,2.0",
                 "--trees", "5", "--out", str(tmp_path / "sel.json")])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert f"i/o error: {path}: the corpus must contain both classes, got 6 safe and 0 unsafe" in err
    assert not (tmp_path / "sel.json").exists()


def test_select_d_writes_report(corpus_path, tmp_path, capsys):
    out = str(tmp_path / "sel.json")
    assert main(["select-d", "--episodes", corpus_path, "--grid", "1.0,2.0",
                 "--trees", "10", "--seed", "11", "--out", out]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "d*" in printed
    doc = json.loads(Path(out).read_text(encoding="utf-8"))
    assert doc["d_star"] == 2.0
    assert len(doc["rows"]) == 2
    assert list(doc["rows"][0]) == ["d", "n_states", "f1_macro", "operation_f1",
                                    "mean_fire_step", "in_optimal_range", "excluded"]


def test_select_d_rejects_single_candidate(corpus_path, tmp_path, capsys):
    assert main(["select-d", "--episodes", corpus_path, "--grid", "1.0",
                 "--out", str(tmp_path / "sel.json")]) == EXIT_USAGE
    capsys.readouterr()


def test_evaluate_emits_artifacts(corpus_path, model_path, tmp_path, capsys):
    prefix = str(tmp_path / "eval")
    assert main(["evaluate", "--model", model_path, "--episodes", corpus_path,
                 "--out-prefix", prefix, "--sweep", "--traces",
                 "--time-base", "1"]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "macro F1" in printed
    metrics = Path(prefix + ".metrics.csv").read_text(encoding="utf-8")
    assert metrics.startswith("#")
    stats = json.loads(Path(prefix + ".decision_stats.json").read_text(encoding="utf-8"))
    assert stats[0]["criterion"] == "upper_bound"
    assert "decision_time_step" in stats[0]
    sweep_text = Path(prefix + ".sweep.csv").read_text(encoding="utf-8")
    assert "lower_bound" in sweep_text
    traces_text = Path(prefix + ".traces.csv").read_text(encoding="utf-8")
    assert traces_text.splitlines()[0].startswith("episode,label,t,")


def test_evaluate_criterion_override(corpus_path, model_path, tmp_path, capsys):
    prefix = str(tmp_path / "eval2")
    assert main(["evaluate", "--model", model_path, "--episodes", corpus_path,
                 "--criterion", "lower_bound", "--theta", "0.75",
                 "--out-prefix", prefix]) == EXIT_OK
    capsys.readouterr()
    stats = json.loads(Path(prefix + ".decision_stats.json").read_text(encoding="utf-8"))
    assert stats[0]["criterion"] == "lower_bound"
    assert stats[0]["theta"] == 0.75


def test_config_file_defaults_with_flag_override(corpus_path, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"d": 2.0, "trees": 10, "seed": 3}), encoding="utf-8")
    out = str(tmp_path / "m.json")
    assert main(["build", "--episodes", corpus_path, "--d", "1.0",
                 "--config", str(config), "--out", out]) == EXIT_OK
    capsys.readouterr()
    doc = json.loads(Path(out).read_text(encoding="utf-8"))
    assert doc["table"]["d"] == 1.0  # explicit flag beat the config value
    assert doc["forest_config"]["n_trees"] == 10  # config filled the gap


@pytest.mark.parametrize(
    "command, flags, key, value",
    [
        ("select-d", ["--trees", "5"], "grid", "1,2"),
        ("build", ["--trees", "5"], "d", 2.0),
        ("train-agent", ["--env", "cartpole", "--checkpoint-interval", "5"], "steps", 10),
    ],
)
def test_config_file_supplies_required_flag(command, flags, key, value, corpus_path, tmp_path,
                                            capsys):
    if command != "train-agent":
        flags = ["--episodes", corpus_path, *flags]
    config = tmp_path / "cfg.json"
    out = tmp_path / "out.json"
    argv = [command, *flags, "--config", str(config), "--out", str(out)]
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    assert main(argv) == EXIT_OK
    assert out.exists()
    capsys.readouterr()
    out.unlink()
    # Missing from both the command line and the config file.
    config.write_text(json.dumps({}), encoding="utf-8")
    assert main(argv) == EXIT_USAGE
    flag = "--" + key
    assert capsys.readouterr().err == f"usage error: the following arguments are required: {flag}\n"
    assert not out.exists()


def test_config_file_unknown_key(corpus_path, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"bogus_key": 1}), encoding="utf-8")
    assert main(["build", "--episodes", corpus_path, "--d", "1.0",
                 "--config", str(config), "--out", str(tmp_path / "m.json")]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, key, value, message",
    [
        ("train-agent", "gamma", "high", "argument --gamma: invalid float value: 'high'"),
        ("train-agent", "checkpoint-interval", 2.5,
         "argument --checkpoint-interval: invalid int value: '2.5'"),
        ("train-agent", "gamma", 1.5, "argument --gamma: must lie in [0, 1], got 1.5"),
        ("build", "trees", True, "argument --trees: invalid int value: 'true'"),
        ("build", "criterion", "worst",
         "argument --criterion: invalid choice: 'worst' (choose from 'upper_bound', "
         "'output_probability', 'lower_bound')"),
        ("build", "features", 1, "config key 'features' expects a string, got 1"),
        ("build", "theta", 1.5, "argument --theta: must lie strictly between 0 and 1, got 1.5"),
        ("build", "trees", 0, "argument --trees: must be >= 1, got 0"),
        ("build", "trees", "many", "argument --trees: invalid int value: 'many'"),
    ],
)
def test_config_value_of_wrong_type_is_usage_error_naming_flag(
    command, key, value, message, corpus_path, tmp_path, capsys
):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: value}), encoding="utf-8")
    out = tmp_path / "out.json"
    flags = {
        "train-agent": ["--env", "cartpole", "--steps", "10"],
        "build": ["--episodes", corpus_path, "--d", "1.0"],
    }[command]
    assert main([command, *flags, "--config", str(config), "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()
    # The file's value is read and refused even where the command line
    # gives the same flag a good one.
    flag = "--" + key
    good = {"features": "binary", "criterion": "upper_bound", "trees": "5", "theta": "0.5",
            "gamma": "0.9", "checkpoint-interval": "5"}[key]
    argv = [command, *flags, "--config", str(config), flag, good, "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


BUILD = ["build", "--episodes", "unread.jsonl", "--d", "1.0", "--out", "unwritten.json"]


@pytest.mark.parametrize(
    "command, doc, message",
    [
        (BUILD, {"config": "other.json"}, "unknown config key 'config'"),
        (BUILD, {"help": True}, "unknown config key 'help'"),
        (BUILD, {"out": 3}, "config key 'out' expects a string, got 3"),
        (["evaluate", "--model", "m.json", "--episodes", "e.jsonl", "--out-prefix", "p"],
         {"sweep": 1}, "config key 'sweep' expects true or false, got 1"),
    ],
    ids=["config", "help", "out-number", "sweep-number"],
)
def test_config_key_argparse_cannot_check_is_usage_error_naming_it(
    command, doc, message, tmp_path, capsys
):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main([*command, "--config", str(config)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {message}\n"
    assert captured.out == ""  # {"help": true} prints no help


@pytest.mark.parametrize(
    "text, cause",
    [
        (b"{'trees': 5}", "not a JSON document: Expecting property name enclosed in double quotes"),
        (b'{"out": "\xff"}', "not a JSON document: 'utf-8' codec can't decode byte 0xff"),
        (b"[1, 2]", "not a JSON object of flag values"),
        (b'"trees"', "not a JSON object of flag values"),
    ],
    ids=["not-json", "not-utf8", "list", "string"],
)
def test_config_that_is_not_a_json_object_is_io_error_naming_file(text, cause, tmp_path,
                                                                   capsys):
    config = tmp_path / "cfg.json"
    config.write_bytes(text)
    assert main([*BUILD, "--config", str(config)]) == EXIT_IO
    assert capsys.readouterr().err.startswith(f"i/o error: {config}: {cause}")


def test_model_that_is_not_utf8_is_io_error_naming_file(model_path, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(Path(model_path).read_bytes().replace(b'"format"', b'"\xffformat"', 1))
    assert main(["watch", "--model", str(bad)]) == EXIT_IO
    assert capsys.readouterr().err.startswith(f"i/o error: {bad}: not a JSON document: 'utf-8'")


def test_model_with_a_table_id_past_the_table_is_io_error_naming_file(corpus_path, model_path,
                                                                      tmp_path, capsys):
    """Let through, the id ends `evaluate` in an IndexError traceback."""
    doc = json.loads(Path(model_path).read_text(encoding="utf-8"))
    n = len(doc["table"]["ids"])
    doc["table"]["ids"][0] = n
    bad = tmp_path / "bad-id.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["evaluate", "--model", str(bad), "--episodes", corpus_path,
                 "--out-prefix", str(tmp_path / "eval")])
    assert code == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"i/o error: {bad}: monitor-model/1 document has a bad value: table id {n} is outside [0, {n})"
    )


def test_config_without_a_path_is_usage_error(capsys):
    assert main([*BUILD, "--config"]) == EXIT_USAGE
    assert capsys.readouterr().err == "usage error: argument --config: expected one argument\n"


def test_abbreviated_flag_beats_the_config(corpus_path, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"trees": 10, "theta": 0.3}), encoding="utf-8")
    out = tmp_path / "m.json"
    assert main(["build", "--episodes", corpus_path, "--d", "1.0", "--tree", "5", "--the", "0.7",
                 "--config", str(config), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["forest_config"]["n_trees"] == 5
    assert doc["theta"] == 0.7


_paths = st.text("abc-_./0", min_size=1, max_size=8)
_fraction = st.floats(0.0, 1.0)
_open_fraction = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_criteria = st.sampled_from(["upper_bound", "output_probability", "lower_bound"])
_seeds = st.integers(-(2**70), 2**70)

# Each command's flags, required ones first (with how many), and a strategy
# of valid values for each; a switch's values are booleans.
COMMAND_FLAGS = {
    "build": (3, {
        "episodes": _paths, "d": st.floats(1e-300, 1e300), "out": _paths,
        "features": st.sampled_from(["binary", "frequency"]), "trees": st.integers(1, 10**6),
        "seed": _seeds, "criterion": _criteria, "theta": _open_fraction,
        "unseen": st.sampled_from(["ignore", "stop"]),
    }),
    "evaluate": (3, {
        "model": _paths, "episodes": _paths, "out-prefix": _paths, "criterion": _criteria,
        "theta": _open_fraction, "sweep": st.booleans(), "traces": st.booleans(),
        "time-base": st.sampled_from([0, 1]),
    }),
    "train-agent": (3, {
        "env": st.sampled_from(ENV_KINDS), "steps": st.integers(0, 10**9),
        "out": _paths, "seed": _seeds, "report-out": _paths,
        "learning-rate": st.floats(1e-9, 1e9), "gamma": _fraction, "epsilon-end": _fraction,
        "epsilon-decay-steps": st.integers(1, 10**9), "checkpoint-interval": st.integers(1, 10**9),
        "target-sync-interval": st.integers(1, 10**9),
    }),
}


def parsed(argv):
    """The namespace `main` hands its command, minus --config and the
    command itself."""
    seen = []
    commands = {"build": "cmd_build", "evaluate": "cmd_evaluate", "train-agent": "cmd_train_agent"}
    with mock.patch.object(safemon.cli, commands[argv[0]], lambda args: seen.append(args) or 0):
        assert main(argv) == EXIT_OK
    args = vars(seen[0])
    del args["config"], args["func"]
    return args


def flag_tokens(flag, value):
    """Command-line tokens giving `value` to `flag`: a switch is given by
    its bare flag or left out."""
    if isinstance(value, bool):
        return [f"--{flag}"] if value else []
    return [f"--{flag}={value}"]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(COMMAND_FLAGS)))
def test_config_values_parse_as_the_same_flags_on_the_command_line(data, command,
                                                                   tmp_path_factory):
    """Flags split between a config file and the command line, some in
    both, parse to the namespace of all of them on the command line, the
    command line's value winning where both give one."""
    required, strategies = COMMAND_FLAGS[command]
    doc, given_tokens, winners = {}, [], {}
    for i, (flag, values) in enumerate(strategies.items()):
        places = ["cli", "config", "both"] + (["absent"] if i >= required else [])
        place = data.draw(st.sampled_from(places), label=flag)
        if place == "absent":
            continue
        value = data.draw(values, label=flag)
        if place != "cli":
            key = data.draw(st.sampled_from([flag, flag.replace("-", "_")]))
            doc[key] = value if place == "config" else data.draw(values, label=flag)
        if place != "config":
            given_tokens += flag_tokens(flag, value)
        # A switch left off the command line does not unset the file's true.
        switch_off = isinstance(value, bool) and not value and place == "both"
        winners[flag] = doc[key] if switch_off else value
    config = tmp_path_factory.mktemp("config") / "cfg.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    given_tokens = data.draw(st.permutations(given_tokens))
    at = data.draw(st.integers(0, len(given_tokens)))
    argv = [command, *given_tokens[:at], "--config", str(config), *given_tokens[at:]]
    expected = [token for flag, value in winners.items() for token in flag_tokens(flag, value)]
    assert parsed(argv) == parsed([command, *expected])


def test_build_from_config_writes_the_bytes_of_the_same_flags(corpus_path, tmp_path, capsys):
    flags = {"episodes": corpus_path, "d": 0.5, "features": "frequency", "trees": 6, "seed": 4,
             "criterion": "lower_bound", "theta": 0.25, "unseen": "stop"}
    by_flags, by_config = tmp_path / "flags.json", tmp_path / "config.json"
    argv = [token for key, value in flags.items() for token in (f"--{key}", str(value))]
    assert main(["build", *argv, "--out", str(by_flags)]) == EXIT_OK
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**flags, "out": str(by_config)}), encoding="utf-8")
    assert main(["build", "--config", str(config)]) == EXIT_OK
    capsys.readouterr()
    assert by_config.read_bytes() == by_flags.read_bytes()


def test_watch_protocol(model_path, capsys, monkeypatch):
    lines = [
        json.dumps({"t": 0, "q": [4.5]}),
        "garbage",
        json.dumps({"t": 1, "q": [9.5]}),
        json.dumps({"t": 2, "q": ["1.5"]}),
    ]
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
    assert main(["watch", "--model", model_path]) == EXIT_OK
    captured = capsys.readouterr()
    replies = [json.loads(line) for line in captured.out.splitlines()]
    assert len(replies) == 2
    assert {"t", "p", "low", "up", "fired", "unseen"} <= set(replies[0])
    assert "line 2" in captured.err
    assert 'line 4: skipped malformed input: q must be a JSON list of numbers, got ["1.5"]' in (
        captured.err)


def damaged_copy(path, tmp_path, damage, keys):
    """A copy of a saved JSON document with a wrong or no format tag, cut
    short, missing one key, with a null or nonsense value, with a list of
    numbers made ragged or holding a non-integer, or with a tree that a
    walk could not finish."""
    text = Path(path).read_text(encoding="utf-8")
    doc = json.loads(text)
    if damage == "wrong-tag":
        doc["format"] = "something-else/9"
        text = json.dumps(doc)
    elif damage == "truncated":
        text = text[: len(text) // 2]
    elif damage == "untagged":
        del doc["format"]
        text = json.dumps(doc)
    elif damage == "missing-key":
        del doc[keys[damage]]
        text = json.dumps(doc)
    elif damage in ("ragged-list", "non-integer-list", *TREE_DAMAGE):
        keys[damage](doc)
        text = json.dumps(doc)
    else:
        doc[keys[damage]] = None if damage == "null-value" else "bogus"
        text = json.dumps(doc)
    out = tmp_path / f"{damage}.json"
    out.write_text(text, encoding="utf-8")
    return out


def split_root(doc):
    """The nodes of the first tree of a model document whose root splits."""
    return next(nodes for nodes in doc["forest"] if "split" in nodes[0])


# Damage to the first tree whose root splits, the node the loader names and
# its cause. Let through, a cycle hangs `evaluate` and `watch`, a feature or
# child out of range ends them in a traceback or gives wrong traces, a
# non-integer one is truncated into range without a word, and a node that
# two splits share or none reaches leaves a tree that _grow_forest never
# writes.
TREE_DAMAGE = {
    "cyclic-tree": (lambda doc: split_root(doc).__setitem__(1, {"split": [0, 0.5, 0, 0]}), 1,
                    "children 0 and 0 are not both after it"),
    "feature-out-of-range": (lambda doc: split_root(doc)[0]["split"].__setitem__(0, 10**6), 0,
                             "split feature 1000000 outside"),
    "child-out-of-range": (lambda doc: split_root(doc)[0]["split"].__setitem__(3, 10**6), 0,
                           "children 1 and 1000000 are not both after it"),
    "non-integer-feature": (lambda doc: split_root(doc)[0]["split"].__setitem__(0, 2.7), 0,
                            "split [2.7, "),
    "non-integer-child": (lambda doc: split_root(doc)[0]["split"].__setitem__(2, 2.7), 0,
                          "has a non-integer feature or child"),
    "shared-child": (lambda doc: split_root(doc)[0]["split"].__setitem__(3, 1), 1,
                     "has 2 parents; every node but the root has one"),
    "deleted-root": (lambda doc: split_root(doc).pop(0), 1,
                     "has 0 parents; every node but the root has one"),
}
DAMAGE = ["wrong-tag", "untagged", "truncated", "missing-key", "null-value", "bogus-value",
          "ragged-list", "non-integer-list"]


@pytest.mark.parametrize(
    "command, damage",
    [(command, damage) for damage in DAMAGE for command in ("evaluate", "watch", "collect")]
    + [(command, damage) for damage in TREE_DAMAGE for command in ("evaluate", "watch")],
)
def test_damaged_model_or_agent_is_io_error_naming_file(
    command, damage, corpus_path, model_path, agent_path, tmp_path, capsys, monkeypatch
):
    if command == "collect":
        keys = {"missing-key": "weights", "null-value": "layer_sizes",
                "bogus-value": "input_scale",
                "ragged-list": lambda doc: doc["weights"][0]["w"][0].append(0.0),
                "non-integer-list": lambda doc: doc["layer_sizes"].__setitem__(1, "x")}
        bad = damaged_copy(agent_path, tmp_path, damage, keys)
        argv = ["collect", "--agent", str(bad), "--episodes", "2",
                "--out", str(tmp_path / "c.jsonl")]
        tag = "agent/1"
    else:
        keys = {"missing-key": "forest_config", "null-value": "theta", "bogus-value": "mode",
                # An abstraction-table key of another length, or not of integers.
                "ragged-list": lambda doc: doc["table"]["keys"][0].append(0),
                "non-integer-list": lambda doc: doc["table"]["keys"][0].__setitem__(0, 0.5),
                **{name: corrupt for name, (corrupt, _, _) in TREE_DAMAGE.items()}}
        bad = damaged_copy(model_path, tmp_path, damage, keys)
        argv = {
            "evaluate": ["evaluate", "--model", str(bad), "--episodes", corpus_path,
                         "--out-prefix", str(tmp_path / "eval")],
            "watch": ["watch", "--model", str(bad)],
        }[command]
        tag = "monitor-model/1"
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert main(argv) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert f"i/o error: {bad}: " in err
    assert "Traceback" not in err
    if damage in TREE_DAMAGE:
        doc = json.loads(Path(model_path).read_text(encoding="utf-8"))
        tree = doc["forest"].index(split_root(doc))
        _, node, cause = TREE_DAMAGE[damage]
        assert f"{tag} document has a bad value: tree {tree} node {node}: " in err
        assert cause in err
        return
    expected = {
        "wrong-tag": f"format tag 'something-else/9', expected '{tag}'",
        "untagged": f"no format tag, expected '{tag}'",
        "truncated": "not a JSON document",
        "missing-key": f"{tag} document has no key '{keys['missing-key']}'",
        "null-value": f"{tag} document has a bad value",
        "bogus-value": f"{tag} document has a bad value",
        "ragged-list": f"{tag} document has a bad value",
        "non-integer-list": f"{tag} document has a bad value",
    }[damage]
    assert expected in err


@pytest.mark.parametrize(
    "field, value",
    [("features_per_split", "log2"), ("features_per_split", 0),
     ("features_per_split", 2.7), ("max_depth", 0), ("max_depth", -1),
     ("features_per_split", "all"), ("min_split", 3), ("min_split", 2.0),
     # The model holds 10 trees.
     ("n_trees", 7), ("n_trees", 10.0)],
)
def test_model_with_bad_forest_config_is_io_error_naming_field(
    field, value, corpus_path, model_path, tmp_path, capsys
):
    doc = json.loads(Path(model_path).read_text(encoding="utf-8"))
    doc["forest_config"][field] = value
    bad = tmp_path / "bad-config.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["evaluate", "--model", str(bad), "--episodes", corpus_path,
                 "--out-prefix", str(tmp_path / "eval")])
    assert code == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    cause = f"i/o error: {bad}: monitor-model/1 document has a bad value: {field} must be"
    assert cause in captured.err
    assert f"got {value!r}" in captured.err


@pytest.mark.parametrize(
    "field, value, cause",
    [("forest_seed", value, "forest_seed must be a JSON integer")
     for value in ("x", True, 3.0, None, [])]
    + [("d", value, "table d must be a positive finite JSON number")
       for value in (True, "1.5", 0, -1.0, 1e400, [])],
)
def test_model_with_bad_seed_or_level_is_io_error_naming_field(
    field, value, cause, corpus_path, model_path, tmp_path, capsys
):
    doc = json.loads(Path(model_path).read_text(encoding="utf-8"))
    (doc["table"] if field == "d" else doc)[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")  # 1e400 is written as Infinity
    code = main(["evaluate", "--model", str(bad), "--episodes", corpus_path,
                 "--out-prefix", str(tmp_path / "eval")])
    assert code == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"i/o error: {bad}: monitor-model/1 document has a bad value: {cause}, got {value!r}\n"
    )


# A field of the agent file, the value it is given and the cause named.
# Let through, each ended `collect` in a traceback, or exited 2 with
# numpy's broadcast message, or broadcast a scalar over the state, or
# (gamma, seed, steps_trained) loaded whatever value it held.
AGENT_DAMAGE = [
    ("layer_sizes", [], "layer_sizes must be a list of two or more integers >= 1, got []"),
    ("layer_sizes", {}, "layer_sizes must be a list of two or more integers >= 1, got {}"),
    ("layer_sizes", [4, True, 2], "layer_sizes must be a list of two or more integers >= 1"),
    ("env", "pendulum", "env must be one of ['cartpole', 'mountaincar'], got 'pendulum'"),
    ("env", None, "env must be one of ['cartpole', 'mountaincar'], got None"),
    ("input_offset", [0.0, 0.0], "input_offset must be a list of 4 finite numbers, got [0.0, 0.0]"),
    ("input_offset", 1.5, "input_offset must be a list of 4 finite numbers, got 1.5"),
    ("input_offset", True, "input_offset must be a list of 4 finite numbers, got True"),
    ("input_scale", [1.0] * 5, "input_scale must be a list of 4 finite numbers"),
    ("input_scale", [1.0, 1.0, 1.0, math.nan], "input_scale must be a list of 4 finite numbers"),
    ("input_scale", 10**30, "input_scale must be a list of 4 finite numbers"),
    *[("report.unsafe_rate", rate, f"report unsafe_rate must be a number in [0, 1], got {rate!r}")
      for rate in (None, [], {}, "x", True, 1.5)],
    *[("gamma", gamma, f"gamma must be a JSON number in [0, 1], got {gamma!r}")
      for gamma in (None, "0.99", True, [], {}, -0.5, 1.5, math.nan)],
    *[("seed", seed, f"seed must be a JSON integer, got {seed!r}")
      for seed in (None, "7", True, 7.0, [], {})],
    *[("steps_trained", steps, f"steps_trained must be a JSON integer >= 0, got {steps!r}")
      for steps in (None, "100", False, 100.0, -1, [], {})],
]


@pytest.mark.parametrize("field, value, cause", AGENT_DAMAGE,
                         ids=[f"{field}={value!r}" for field, value, _ in AGENT_DAMAGE])
def test_agent_with_bad_field_is_io_error_naming_it(field, value, cause, agent_path, tmp_path,
                                                    capsys):
    doc = json.loads(Path(agent_path).read_text(encoding="utf-8"))
    if field == "report.unsafe_rate":
        doc["report"] = {"mean_reward": 10.0, "unsafe_rate": value, "mean_length": 50.0,
                         "eval_episodes": 100, "selected_step": 300, "band_satisfied": False,
                         "checkpoints": []}
    else:
        doc[field] = value
    bad = tmp_path / "bad-agent.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "c.jsonl"
    assert main(["collect", "--agent", str(bad), "--episodes", "2", "--out", str(out)]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"i/o error: {bad}: agent/1 document has a bad value: {cause}")
    assert not out.exists()


@pytest.mark.parametrize("features", ["binary", "frequency"])
@pytest.mark.parametrize("unseen", ["ignore", "stop"])
def test_saving_a_loaded_model_rewrites_its_bytes(features, unseen, corpus_path, tmp_path):
    """save_model writes forest_config from the number of trees and the
    fixed growth rule, so a model read back is written out byte for byte."""
    from safemon.monitor import load_model, save_model

    path, again = tmp_path / "monitor.json", tmp_path / "again.json"
    assert main(["build", "--episodes", corpus_path, "--d", "1.0", "--trees", "7",
                 "--features", features, "--unseen", unseen, "--seed", "5",
                 "--out", str(path)]) == EXIT_OK
    save_model(load_model(path), again)
    assert again.read_bytes() == path.read_bytes()
    config = json.loads(path.read_text(encoding="utf-8"))["forest_config"]
    assert list(config.items()) == [
        ("n_trees", 7), ("max_depth", None), ("min_split", 2), ("features_per_split", "sqrt"),
    ]


def test_evaluate_rejects_corpus_of_another_width(model_path, tmp_path, capsys):
    # The model was built over 1-action Q-vectors; this corpus has 3.
    path = tmp_path / "wide.jsonl"
    write_jsonl(two_band_corpus(n_per_class=3, steps=4, actions=3), path)
    code = main(["evaluate", "--model", model_path, "--episodes", str(path),
                 "--out-prefix", str(tmp_path / "eval")])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert f"i/o error: {path}: " in err
    assert "3 Q-values per step" in err and "built over 1" in err
    assert not (tmp_path / "eval.metrics.csv").exists()


def test_evaluate_rejects_non_finite_q_naming_the_line(model_path, tmp_path, capsys):
    path = tmp_path / "nan.jsonl"
    write_jsonl(two_band_corpus(n_per_class=2, steps=3), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].replace('"q": [4.5]', '"q": [NaN]', 1)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["evaluate", "--model", model_path, "--episodes", str(path),
                 "--out-prefix", str(tmp_path / "eval")])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert f"i/o error: {path}: malformed episode at line 3: step 0 has a non-finite q: [nan]" in err
    assert not (tmp_path / "eval.metrics.csv").exists()


def test_build_rejects_bytes_that_are_not_utf8_naming_the_line(tmp_path, capsys):
    path = tmp_path / "latin1.jsonl"
    write_jsonl(two_band_corpus(n_per_class=2, steps=3), path)
    lines = path.read_bytes().splitlines()
    lines[2] = lines[2].replace(b'"safe"', b'"saf\xff"')
    path.write_bytes(b"\n".join(lines) + b"\n")
    code = main(["build", "--episodes", str(path), "--d", "1.0", "--trees", "3",
                 "--seed", "1", "--out", str(tmp_path / "m.json")])
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert f"i/o error: {path}: malformed episode at line 3: 'utf-8' codec can't decode byte 0xff" in err
    assert not (tmp_path / "m.json").exists()


def test_build_and_evaluate_refuse_a_bucket_index_beyond_int64(model_path, tmp_path, capsys):
    path = tmp_path / "huge.jsonl"
    write_jsonl(two_band_corpus(n_per_class=2, steps=3), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].replace('"q": [4.5]', '"q": [1e+300]', 1)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    message = "numeric failure: Q-value 1e+300 at abstraction level 1.0 has a bucket index beyond int64"
    code = main(["build", "--episodes", str(path), "--d", "1.0", "--trees", "3",
                 "--seed", "1", "--out", str(tmp_path / "m.json")])
    assert code == EXIT_NUMERIC
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()
    code = main(["evaluate", "--model", model_path, "--episodes", str(path),
                 "--out-prefix", str(tmp_path / "eval")])
    assert code == EXIT_NUMERIC
    assert message in capsys.readouterr().err
    assert not (tmp_path / "eval.metrics.csv").exists()


def noisy_corpus(seed, n):
    """Two-action episodes of 4-12 steps; every third is unsafe and its
    second half drifts upward, so fire steps, misses and false alarms vary."""
    rng = np.random.default_rng(seed)
    episodes = []
    for i in range(n):
        length = int(rng.integers(4, 13))
        qs = rng.uniform(0, 6, size=(length, 2))
        if i % 3 == 0:
            qs[length // 2:] += rng.uniform(0, 3)
        episodes.append(make_episode(qs, unsafe=i % 3 == 0))
    return make_set(episodes)


@pytest.fixture(scope="module")
def noisy_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("noisy")
    train, test, model = root / "train.jsonl", root / "test.jsonl", root / "monitor.json"
    write_jsonl(noisy_corpus(7, 60), train)
    write_jsonl(noisy_corpus(8, 30), test)
    assert main(["build", "--episodes", str(train), "--d", "2.0", "--features", "frequency",
                 "--unseen", "stop", "--trees", "10", "--seed", "3",
                 "--out", str(model)]) == EXIT_OK
    return str(train), str(test), str(model)


# sha256 of each report artifact, recorded before the report code was
# rewritten as one array path with one CSV writer. The decision-stats JSON
# is pinned at time base 0 only: at time base 1 it must be the same
# document with its decision steps shifted by one.
GOLDEN_REPORTS = {
    "fixture": {
        "metrics.csv@0": "10b5bb6eb57fcc475e2433481e5bda65e5eb85950978127882ebee251ab99323",
        "sweep.csv@0": "85102e00548da03460bf669c5a0d30459ad6e3d3a79fce70e2a6f9ce3a62655d",
        "traces.csv@0": "22d6227bdce9434c33156c28c935aeddd11ddf7fc98c42ad43e56ddcaba72a64",
        "decision_stats.json@0": "b774f30d7ef351eb8a1033f1cfde58f8b2d7e441d9c646045a0920f86e78a776",
        "metrics.csv@1": "a8ddc361d0d994c963734d3c002731ce155db6fd1bfcbc24d5fd2c81a5fdd7c2",
        "sweep.csv@1": "70c9cc0b79799c2919a02725f268e650ac909e8d0483793db0d4d819f6f26458",
        "traces.csv@1": "5d2665585cdafda6c35624cd0396dd3184251e3273d0d8f4b8ff68ba86ed0c97",
        "levels.json": "488ef102363ce63713bb29e9da43336b0b224ad6ee6f47f906615695b998bb80",
    },
    "noisy": {
        "metrics.csv@0": "c0162838e0e03b80287dba582f7dc61790ec5dde569d88049d8b69922c1cdf10",
        "sweep.csv@0": "752cbb79200f9708e12fe029109b784372c4c31b30d6b8a74f154a7cc3f5c136",
        "traces.csv@0": "212e57e434f201a5d0033593621cab2d862fcc6f69ee319fd95d3f6928ff1373",
        "decision_stats.json@0": "1b51b8bd2b50dc8b6ee1a54b3b7c28e56244b5eca7585ca6192e5f38c1364d8c",
        "metrics.csv@1": "780dd6eb1e966515ab7eae5cc710f986ea5ce0f2a56fac63bfaf0f3578bcb37c",
        "sweep.csv@1": "d25233e53997e09c9263c748fe2cd5bc2a0a3d22d7051e7d2586b1ad4d519371",
        "traces.csv@1": "b5b80ddc24b1dcd622e69b2b19934f99357eccd3b304988dd03140107d258d47",
        "levels.json": "483d6f4afb8e69f963d5bd9599e052dc7c0e165cdc43a1b8b998dd3704d509ca",
    },
}


def report_hashes(tmp_path, model, episodes, evaluate_flags, select_d_argv):
    """sha256 of evaluate's artifacts at both time bases and of select-d's
    levels file; also the two decision-stats texts."""

    def digest(path):
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    hashes, texts = {}, {}
    for time_base in (0, 1):
        prefix = str(tmp_path / f"eval{time_base}")
        assert main(["evaluate", "--model", model, "--episodes", episodes,
                     "--out-prefix", prefix, "--sweep", "--traces",
                     "--time-base", str(time_base), *evaluate_flags]) == EXIT_OK
        for suffix in ("metrics.csv", "sweep.csv", "traces.csv", "decision_stats.json"):
            hashes[f"{suffix}@{time_base}"] = digest(f"{prefix}.{suffix}")
        texts[time_base] = Path(f"{prefix}.decision_stats.json").read_text(encoding="utf-8")
    levels = tmp_path / "levels.json"
    assert main([*select_d_argv, "--out", str(levels)]) == EXIT_OK
    hashes["levels.json"] = digest(levels)
    return hashes, texts


@pytest.mark.parametrize("case", sorted(GOLDEN_REPORTS))
def test_report_artifacts_match_golden_bytes(
    case, corpus_path, model_path, noisy_paths, tmp_path, capsys
):
    if case == "fixture":
        model, episodes, flags = model_path, corpus_path, []
        select_d = ["select-d", "--episodes", corpus_path, "--grid", "1.0,2.0",
                    "--trees", "10", "--seed", "11"]
    else:
        train, episodes, model = noisy_paths
        flags = ["--criterion", "lower_bound", "--theta", "0.75"]
        select_d = ["select-d", "--episodes", train, "--grid", "1,2,3", "--trees", "10",
                    "--seed", "11", "--criterion", "lower_bound", "--theta", "0.6"]
    hashes, texts = report_hashes(tmp_path, model, episodes, flags, select_d)
    printed = capsys.readouterr().out.splitlines()
    shifted = hashes.pop("decision_stats.json@1")
    assert hashes == GOLDEN_REPORTS[case]

    # Time base 1 moves the decision step of the JSON and of stdout, and
    # nothing else of either.
    doc = json.loads(texts[0])
    for entry in doc:
        step = entry["decision_time_step"]
        for key, value in step.items():
            step[key] = None if value is None else value + 1
    assert texts[1] == json.dumps(doc, indent=2) + "\n"
    assert shifted != hashes["decision_stats.json@0"]
    mean_steps = [float(line.rsplit(" ", 1)[1]) for line in printed[:2]]
    assert mean_steps[1] == mean_steps[0] + 1
    assert printed[0].rsplit(",", 1)[0] == printed[1].rsplit(",", 1)[0]
