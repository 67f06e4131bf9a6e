import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import pytest

import safemon.agent
from safemon.agent import AgentTrainConfig
from safemon.cli import cmd_train_agent, main
from safemon.dataset import Field

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def imported_top_level_modules(package: Path) -> set[str]:
    """The top-level module of every absolute import in the package's sources."""
    names = set()
    for source in package.rglob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"), filename=str(source))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def calls_of(package: Path, functions) -> list[tuple[str, str]]:
    """(module, innermost enclosing function) of every call to one of
    `functions`, (module name, attribute) pairs such as ("json", "loads"),
    in the package's sources."""
    calls = []
    for source in package.rglob("*.py"):
        nodes = [(ast.parse(source.read_text(encoding="utf-8"), filename=str(source)), None)]
        while nodes:
            node, owner = nodes.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name
            func = getattr(node, "func", None)
            if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name) and (func.value.id, func.attr) in functions):
                calls.append((source.stem, owner))
            nodes.extend((child, owner) for child in ast.iter_child_nodes(node))
    return calls


def test_every_json_input_is_decoded_by_dataset_decode():
    """One decoder, one fallback rule and one nesting refusal for every
    JSON input: no other function decodes JSON text itself."""
    calls = calls_of(ROOT / "src" / "safemon", {("json", "load"), ("json", "loads"), ("orjson", "loads")})
    assert calls and set(calls) == {("dataset", "decode")}, sorted(set(calls))


def test_collection_is_paused_in_one_place():
    """Only dataset.collection_paused turns the cyclic collector off and
    on, so every pause is one that restores the setting it found."""
    calls = calls_of(ROOT / "src" / "safemon", {("gc", "disable"), ("gc", "enable")})
    assert calls and set(calls) == {("dataset", "collection_paused")}, sorted(set(calls))


def test_tests_build_forests_as_node_lists():
    """A test builds a forest as node lists in the model file's form and
    walks it with tests/reference.py: no test module names `Tree` or an
    attribute `probability`, but the two that check the benchmark tracer's
    hooks on Tree.probability and on a fit's trees."""
    named = set()
    for source in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"), filename=str(source))):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {alias.name for alias in node.names}
            if "Tree" in names or (isinstance(node, ast.Attribute) and node.attr == "probability"):
                named.add(source.name)
    assert "test_tracing.py" in named  # the walk sees a hook check
    assert named <= {"test_tracing.py", "test_perfbench_layers.py"}, sorted(named)


def field_table_arguments(package: Path) -> list[tuple[str, str]]:
    """(module, source of the field-table argument, or "") of every call to
    load_document in the package's sources."""
    found = []
    for source in package.rglob("*.py"):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"), filename=str(source))):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and getattr(func, "id", getattr(func, "attr", None)) == "load_document":
                keywords = {k.arg: k.value for k in node.keywords}
                table = node.args[2] if len(node.args) > 2 else keywords.get("fields")
                found.append((source.stem, "" if table is None else ast.unparse(table)))
    return found


def test_every_document_is_loaded_against_a_field_table():
    """load_document checks a document against the table it is given, so a
    kind loaded without one would bypass the checker."""
    calls = field_table_arguments(ROOT / "src" / "safemon")
    assert calls, "no load_document call found"
    for module, table in calls:
        fields = getattr(importlib.import_module(f"safemon.{module}"), table, None) if table else None
        assert isinstance(fields, tuple) and fields and all(isinstance(f, Field) for f in fields), (
            module, table)


def test_every_third_party_import_is_a_declared_dependency():
    """An undeclared import fails here, not in a fresh install."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_")
        for requirement in project["dependencies"]
    }
    imported = imported_top_level_modules(ROOT / "src" / "safemon")
    third_party = imported - set(sys.stdlib_module_names) - {"safemon"}
    missing = sorted(third_party - declared)
    assert not missing, f"imported under src/safemon but not in dependencies: {missing}"
    assert {"numpy", "orjson"} <= third_party  # the walk sees imports inside functions too


def test_watch_imports_neither_the_agent_nor_the_evaluation_module():
    """The package's names are imported on first use, so `watch` start-up
    compiles and runs only the modules it needs."""
    script = (
        "import sys, safemon.cli, safemon.monitor\n"
        "print(sorted({'safemon.agent', 'safemon.evaluation'} & set(sys.modules)))\n"
        "from safemon import train_agent\n"
        "print(train_agent.__module__)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines() == ["[]", "safemon.agent"]


def test_a_bare_pytest_run_imports_the_package_from_src():
    """pyproject puts src/ on pytest's path, so `python -m pytest` in a
    checkout collects without PYTHONPATH or an install."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", "tests/test_dataset.py"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_train_agent_sets_every_config_field_and_takes_its_defaults():
    """One DQN recipe and one defaults table: cmd_train_agent passes every
    AgentTrainConfig field from a flag, so a setting no flag gives is a
    module constant, and a flag left out gives the config's default."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cmd_train_agent)))
    [call] = [node for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "AgentTrainConfig"]
    passed = {k.arg: ast.unparse(k.value) for k in call.keywords}
    assert sorted(passed) == sorted(f.name for f in dataclasses.fields(AgentTrainConfig))
    assert all(re.fullmatch(r"args\.\w+", value) for value in passed.values()), passed

    class Trained(Exception):
        pass

    with mock.patch.object(safemon.agent, "train_agent", side_effect=Trained) as train:
        with pytest.raises(Trained):
            main(["train-agent", "--env", "cartpole", "--steps", "7", "--out", "unwritten.json"])
    assert train.call_args.args == ("cartpole", AgentTrainConfig(total_steps=7))
