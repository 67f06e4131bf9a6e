"""The seam contract of the agent and monitor files, proven field by field.

Each field of a tiny agent/1 and monitor-model/1 document, down to depth 3
(the agent's `weights` down to depth 2), is given each of a set of values
or deleted, and the file is run through `collect` or `evaluate` in
process. Every case ends in one of:
- exit 1, naming the file and the field: the field itself, a field above
  it, or a field whose rule reads it (a length tied to it), unless the
  field's own rule refuses the value;
- exit 0, or exit 2 naming a numeric failure, as a valid document may.

No case raises. A value of another JSON type than the saved one is
refused, outside `provenance`, whose contents are free. A field that no
command reads (its `reads` in the code's field table is empty) leaves
every output byte as it was, wherever the table accepts the value.

A value nested 100,000 levels deep is refused by the decoder before any
field is known, naming the file only, where the decoder scans for an
integer beyond 64 bits: the agent file's `seed`, `steps_trained`,
`layer_sizes` and `report`, and the model file's `forest_seed` and
`provenance`. Elsewhere its field names it.
"""

import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from conftest import forest_of, id_table, make_episode, make_set, split_tree
from safemon.agent import AGENT_FIELDS, AgentModel, CheckpointStat, QNetwork, TrainReport, save_agent
from safemon.cli import main
from safemon.dataset import write_jsonl
from safemon.envs import CARTPOLE
from safemon.monitor import MODEL_FIELDS, MonitorModel, save_model

ROOT = Path(__file__).resolve().parents[1]

DELETED, DEEP = object(), "\0deep"
VALUES = {"null": None, "string": "x", "true": True, "1.5": 1.5, "-1": -1, "0": 0,
          "10**30": 10**30, "2**64": 2**64, "[]": [], "{}": {}, "NaN": math.nan,
          "deep": DEEP, "deleted": DELETED}
NESTED_TOO_DEEPLY = "a value is nested too deeply to read"

# Fields whose rule reads the keyed field or a value inside it; a refusal
# may name them instead.
TIES = {
    ("layer_sizes",): ("input_offset", "input_scale", "weights"),
    ("table", "keys"): ("table ids", "feature_count"),
    ("forest",): ("n_trees",),
}
# Refusals of the table's ids as a permutation, or of a repeated key, name
# the id or key itself.
RELATIONS = {("table", "ids"): "table id", ("table", "keys"): "table key"}


def tiny_agent(path):
    network = QNetwork((4, 8, 2), rng=np.random.default_rng(5), input_offset=np.zeros(4),
                       input_scale=np.array([2.4, 3.0, 0.21, 3.0]))
    report = TrainReport(mean_reward=20.0, unsafe_rate=0.5, mean_length=20.0, eval_episodes=100,
                         selected_step=300, band_satisfied=False,
                         checkpoints=[CheckpointStat(300, 0.5, 20.0, 20.0)])
    save_agent(AgentModel(CARTPOLE, network, gamma=0.99, seed=2, steps_trained=300, report=report),
               path)


def tiny_model(path):
    """Two trees over four states; the corpus visits states 0 .. 3 (q = id + 0.5)."""
    forest = forest_of([split_tree(2, 0.5, 0.1, 0.8, count=2), split_tree(3, 0.5, 0.2, 0.9, count=2)], 4)
    save_model(MonitorModel(table=id_table(4), forest=forest, provenance={"seed": 7, "d": 1.0}), path)


def tiny_corpus(path):
    episodes = [make_episode([[0.5], [1.5], [2.5]], unsafe=True), make_episode([[0.5], [1.5]]),
                make_episode([[1.5], [3.5], [3.5], [2.5]], unsafe=True), make_episode([[3.5], [0.5]])]
    write_jsonl(make_set(episodes), path)


def fields_of(doc, depth):
    """Key paths of every value under `doc`, down to `depth` keys."""
    for key, value in (doc.items() if type(doc) is dict else enumerate(doc)):
        yield (key,)
        if depth > 1 and type(value) in (dict, list):
            yield from ((key, *rest) for rest in fields_of(value, depth - 1))


def mutated(doc, path, value) -> str:
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    holder = doc
    for key in parents:
        holder = holder[key]
    if value is DELETED:
        del holder[last]
    else:
        holder[last] = value
    text = json.dumps(doc)
    return text.replace(json.dumps(DEEP), "[" * 100_000 + "]" * 100_000)


def name_of(path) -> str:
    """The field's name in a refusal: "table d", "weights[0].w",
    "report checkpoints[0].step"; a forest node is "tree t node i", and a
    forest_config key goes by itself."""
    if path[0] == "forest" and len(path) > 1:
        return f"tree {path[1]}" + (f" node {path[2]}" if len(path) > 2 else "")
    if path[0] == "forest_config" and len(path) > 1:
        return path[1]
    name = path[0]
    for depth, key in enumerate(path[1:]):
        name += f"[{key}]" if type(key) is int else (" " if depth == 0 else ".") + key
    return name


def names_for(path, tied=True) -> list:
    """Every name a refusal of a value at `path` may start with; with
    `tied`, the fields whose rules read it too."""
    names = [name_of(path[:n]) for n in range(1, len(path) + 1)]
    for n in range(1, len(path) + 1):
        names += TIES.get(path[:n], ()) if tied else ()
        if path[:n] in RELATIONS and n < len(path):
            names.append(RELATIONS[path[:n]])
    return names


def pattern_of(path) -> str:
    return "".join("[]" if type(k) is int else ("." if i else "") + k for i, k in enumerate(path))


def table_field(fields, path):
    """The field of the code's table nearest above or at `path`, or None."""
    for n in range(len(path), 0, -1):
        found = [f for f in fields if f.path == pattern_of(path[:n])]
        if found:
            return found[0]
    return None


def own_rule_refuses(fields, path, value) -> bool:
    """Whether a rule of the field at `path` that reads no other field
    refuses `value` (a rule that cannot read it refuses it)."""
    for f in fields:
        if f.path == pattern_of(path) and f.tie is None:
            try:
                if not (type(value) is f.holds if type(f.holds) is type else f.holds(value)):
                    return True
            except TypeError:
                return True
    return False


def json_kind(value):
    return {bool: "bool", int: "number", float: "number"}.get(type(value), type(value).__name__)


def run(argv, outputs):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    files = {p.name: p.read_bytes() for p in outputs() if p.exists()}
    return code, out.getvalue(), err.getvalue(), files


def sweep(doc, fields, tag, bad, argv, outputs, scanned, shallow=()):
    """Run every mutation of `doc` and list each breach of the contract."""
    deep = []
    for _ in range(100_000):
        deep = [deep]
    baseline = run(argv, outputs)
    assert baseline[0] == 0, baseline
    breaches = []
    for path in fields_of(doc, 3):
        if path[0] in shallow and len(path) > 2:
            continue
        original = doc
        for key in path:
            original = original[key]
        field = table_field(fields, path)
        for label, value in VALUES.items():
            for p in outputs():
                p.unlink(missing_ok=True)
            bad.write_text(mutated(doc, path, value), encoding="utf-8")
            try:
                code, out, err, files = run(argv, outputs)
            except Exception as exc:  # listed, so that one run shows every case
                breaches.append(f"raised: {name_of(path)} = {label}: {type(exc).__name__}: {exc}")
                continue
            case = f"{name_of(path)} = {label}: exit {code}: {err.strip()[:200]}"
            prefix = f"i/o error: {bad}: "
            if code == 1:
                rest = err[len(prefix):]
                for lead in (f"{tag} document has a bad value: ", f"{tag} document has no key '"):
                    rest = rest[len(lead):] if rest.startswith(lead) else rest
                tied = value is DELETED or not own_rule_refuses(fields, path, deep if value is DEEP else value)
                named = any(re.match(re.escape(name) + r"(?!\w)", rest) for name in names_for(path, tied))
                if path == ("format",):
                    named = rest.startswith(("format tag", "no format tag"))
                if value is DEEP and path[0] in scanned and rest == NESTED_TOO_DEEPLY + "\n":
                    named = True
                if not (err.startswith(prefix) and named):
                    breaches.append(f"refusal names no field: {case}")
                continue
            if code not in (0, 2) or (code == 2 and not err.startswith("numeric failure: ")):
                breaches.append(f"neither exit 0 nor a numeric failure: {case}")
            elif (value is not DELETED and path[0] != "provenance"
                  and json_kind(value) != json_kind(original)
                  and not (json_kind(original) == "number" and json_kind(value) == "number")):
                breaches.append(f"value of another type accepted: {case}")
            elif (field is None or not field.reads) and (code, out, err, files) != baseline:
                breaches.append(f"unread field changed the outputs: {case}")
    return breaches


def test_every_agent_field_mutation_is_refused_by_name_or_runs(tmp_path):
    good, bad, corpus = tmp_path / "agent.json", tmp_path / "bad-agent.json", tmp_path / "c.jsonl"
    tiny_agent(good)
    doc = json.loads(good.read_text(encoding="utf-8"))
    assert doc["report"]["band_satisfied"] is False  # so collect's warning reads the report
    argv = ["collect", "--agent", str(bad), "--episodes", "2", "--seed", "1", "--out", str(corpus)]
    bad.write_text(json.dumps(doc), encoding="utf-8")
    breaches = sweep(doc, AGENT_FIELDS, "agent/1", bad, argv, lambda: [corpus],
                     scanned=("seed", "steps_trained", "layer_sizes", "report"), shallow=("weights",))
    assert not breaches, "\n".join(breaches)


def test_every_model_field_mutation_is_refused_by_name_or_runs(tmp_path):
    good, bad, corpus = tmp_path / "model.json", tmp_path / "bad-model.json", tmp_path / "c.jsonl"
    tiny_model(good)
    tiny_corpus(corpus)
    doc = json.loads(good.read_text(encoding="utf-8"))
    prefix = tmp_path / "eval"
    argv = ["evaluate", "--model", str(bad), "--episodes", str(corpus), "--out-prefix", str(prefix),
            "--sweep", "--traces"]
    bad.write_text(json.dumps(doc), encoding="utf-8")
    breaches = sweep(doc, MODEL_FIELDS, "monitor-model/1", bad, argv,
                     lambda: sorted(tmp_path.glob("eval.*")), scanned=("forest_seed", "provenance"))
    assert not breaches, "\n".join(breaches)


def readme_tables():
    """{document kind: {field: the commands the README says read it}} from
    the README's seam tables."""
    tables, kind = {}, None
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        heading = re.match(r"\| `(\S+)` field \|", line)
        if heading:
            kind = tables.setdefault(heading.group(1), {})
        elif kind is not None and line.startswith("| `"):
            field, _, reads = [cell.strip() for cell in line.strip("|").split("|")]
            kind[field.strip("`")] = tuple(sorted(re.findall(r"`(\w+)`", reads)))
        elif not line.startswith("|"):
            kind = None
    return tables


@pytest.mark.parametrize("kind, fields", [("agent/1", AGENT_FIELDS), ("monitor-model/1", MODEL_FIELDS)])
def test_readme_tables_list_the_code_tables_fields(kind, fields):
    in_code = {}
    for field in fields:
        in_code[field.path] = tuple(sorted(set(in_code.get(field.path, ())) | set(field.reads)))
    assert readme_tables()[kind] == in_code
