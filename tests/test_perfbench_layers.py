"""The benchmark's traced run wraps safemon's functions by name
(perfbench/layers.py). A refactor that renames or moves one of them breaks
`perfbench/run.py --trace 1` and nothing else, so this installs the spans
on the current program, runs one small `build` and takes them off again."""

import importlib
import sys
from pathlib import Path

import safemon.cli
from conftest import two_band_corpus
from safemon.dataset import write_jsonl

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
layers = importlib.import_module("layers")
spans = importlib.import_module("spans")


def safemon_names() -> dict:
    """Every attribute of every loaded safemon module, and of every class
    such a module defines, with the object it is bound to."""
    names = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or module_name.split(".")[0] != "safemon":
            continue
        for attr, value in vars(module).items():
            names[module_name, attr] = value
            if isinstance(value, type) and value.__module__ == module_name:
                for member, bound in vars(value).items():
                    names[module_name, attr, member] = bound
    return names


def test_spans_install_on_the_program_and_come_off(tmp_path):
    corpus = tmp_path / "train.jsonl"
    write_jsonl(two_band_corpus(n_per_class=6, steps=4), corpus)
    # install imports these; load them first so that `before` sees them.
    for name in ("abstraction", "agent", "cli", "dataset", "envs", "evaluation", "forest", "monitor"):
        importlib.import_module(f"safemon.{name}")
    before = safemon_names()
    tracer = spans.Tracer()
    uninstall = layers.install(tracer)
    try:
        patched = {key for key, value in safemon_names().items() if before.get(key) is not value}
        # Through the module, as the benchmark calls it, so the span applies.
        code = safemon.cli.main(["build", "--episodes", str(corpus), "--d", "1.0", "--trees", "3",
                                 "--seed", "1", "--out", str(tmp_path / "monitor.json")])
    finally:
        uninstall()
    after = safemon_names()

    assert code == safemon.cli.EXIT_OK
    # The build ran through the spans of its stages and its forest's counter.
    recorded = tracer.by_name()
    for name in ("cli", "dataset.read_jsonl", "abstraction.table_build",
                 "abstraction.episode_features", "forest.fit", "monitor.save_model"):
        assert name in recorded, name
    assert tracer.counters["forest.fit.trees"] == 3
    assert {("safemon.forest", "train_forest"), ("safemon.forest", "Tree", "probability"),
            ("safemon.abstraction", "prefix_feature_matrix")} <= patched
    # Every patched name is bound to its original object again.
    assert after.keys() == before.keys()
    assert sorted(key for key in before if after[key] is not before[key]) == []
