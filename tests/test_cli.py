import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_episode, make_set, two_band_corpus
from safemon.agent import AgentModel, QNetwork, save_agent
from safemon.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from safemon.dataset import write_jsonl
from safemon.envs import CARTPOLE


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
    assert main(["train-agent", "--env", "bogus", "--steps", "10",
                 "--out", str(tmp_path / "x.json")]) == EXIT_USAGE
    assert main(["collect", "--agent", "whatever.json", "--episodes", "0",
                 "--seed", "1", "--out", str(tmp_path / "c.jsonl")]) == EXIT_USAGE
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main(["train-agent"]) == EXIT_USAGE  # missing required flags
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--checkpoint-interval", "0", "--checkpoint-interval must be >= 1"),
        ("--target-sync-interval", "0", "--target-sync-interval must be >= 1"),
        ("--epsilon-decay-steps", "0", "--epsilon-decay-steps must be >= 1"),
        ("--learning-rate", "-1", "--learning-rate must be positive and finite"),
        ("--learning-rate", "nan", "--learning-rate must be positive and finite"),
        ("--learning-rate", "inf", "--learning-rate must be positive and finite"),
        ("--gamma", "1.5", "--gamma must lie in [0, 1]"),
        ("--epsilon-end", "2", "--epsilon-end must lie in [0, 1]"),
    ],
)
def test_train_agent_bad_value_is_usage_error_naming_flag(flag, value, message, tmp_path, capsys):
    out = tmp_path / "a.json"
    argv = ["train-agent", "--env", "cartpole", "--steps", "10", "--out", str(out), flag, value]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {message}\n"
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


def test_build_fits_one_forest(corpus_path, tmp_path, capsys, monkeypatch):
    import safemon.forest

    fitted = []
    train_forest = safemon.forest.train_forest

    def counting(*args, **kwargs):
        fitted.append(args[2].n_trees)
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


def test_config_file_unknown_key(corpus_path, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"bogus_key": 1}), encoding="utf-8")
    assert main(["build", "--episodes", corpus_path, "--d", "1.0",
                 "--config", str(config), "--out", str(tmp_path / "m.json")]) == EXIT_USAGE
    capsys.readouterr()


def test_watch_protocol(model_path, capsys, monkeypatch):
    lines = [
        json.dumps({"t": 0, "q": [4.5]}),
        "garbage",
        json.dumps({"t": 1, "q": [9.5]}),
    ]
    monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
    assert main(["watch", "--model", model_path]) == EXIT_OK
    captured = capsys.readouterr()
    replies = [json.loads(line) for line in captured.out.splitlines()]
    assert len(replies) == 2
    assert {"t", "p", "low", "up", "fired", "unseen"} <= set(replies[0])
    assert "line 2" in captured.err


def damaged_copy(path, tmp_path, damage, keys):
    """A copy of a saved JSON document with a wrong or no format tag, cut
    short, missing one key, with a null or nonsense value, or with a list
    of numbers made ragged or holding a non-integer."""
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
    elif damage in ("ragged-list", "non-integer-list"):
        keys[damage](doc)
        text = json.dumps(doc)
    else:
        doc[keys[damage]] = None if damage == "null-value" else "bogus"
        text = json.dumps(doc)
    out = tmp_path / f"{damage}.json"
    out.write_text(text, encoding="utf-8")
    return out


@pytest.mark.parametrize(
    "damage",
    ["wrong-tag", "untagged", "truncated", "missing-key", "null-value", "bogus-value",
     "ragged-list", "non-integer-list"],
)
@pytest.mark.parametrize("command", ["evaluate", "watch", "collect"])
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
                "non-integer-list": lambda doc: doc["table"]["keys"][0].__setitem__(0, 0.5)}
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
