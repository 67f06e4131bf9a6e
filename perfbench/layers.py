"""Per-module metrics: where the traced run puts its spans and counters.

`install` wraps the public functions of each safemon module; `metrics`
turns what the tracer recorded into the per-layer figures, each paired
with the end-to-end metric (and workload) it should move.
"""

from __future__ import annotations

import os

from spans import Tracer, counted, percentile, replace_function, wrap

# (metric, unit, the end-to-end figure it should move)
PER_LAYER = [
    ("envs.step.calls", "count", "train_agent_s, collect_ms_per_kstep on agent"),
    ("envs.step.self_s", "s", "train_agent_s, collect_ms_per_kstep on agent"),
    ("agent.forward.calls", "count", "train_agent_s, collect_ms_per_kstep on agent"),
    ("agent.forward.self_s", "s", "train_agent_s, collect_ms_per_kstep on agent"),
    ("agent.update.calls", "count", "train_agent_s on agent"),
    ("agent.update.self_s", "s", "train_agent_s on agent"),
    ("agent.checkpoint_eval.self_s", "s", "train_agent_s on agent"),
    ("dataset.collect.self_s", "s", "collect_ms_per_kstep on agent"),
    ("dataset.write_jsonl.s", "s", "collect_ms_per_kstep on agent"),
    ("dataset.write_jsonl.mb", "MB", "collect_ms_per_kstep on agent"),
    ("dataset.read_jsonl.s", "s", "build_*_s on fit, evaluate_s on replay"),
    ("dataset.read_jsonl.mb", "MB", "build_*_s on fit, evaluate_s on replay"),
    ("abstraction.table_build.s", "s", "build_*_s on fit"),
    ("abstraction.episode_features.s", "s", "build_*_s on fit"),
    ("abstraction.lookup.calls", "count", "watch_step_* on stream"),
    ("abstraction.lookup.self_us_p50", "us", "watch_step_* on stream"),
    ("abstraction.prefix_features.s", "s", "evaluate_s on replay"),
    ("forest.fit.s", "s", "build_*_s on fit"),
    ("forest.predict.calls", "count", "watch_step_* on stream"),
    ("forest.predict.self_us_p50", "us", "watch_step_* on stream"),
    ("forest.predict.self_us_p99", "us", "watch_step_* on stream"),
    ("forest.tree_walks", "count", "watch_step_* on stream"),
    ("forest.predict_batch.calls", "count", "evaluate_s on replay"),
    ("forest.predict_batch.rows", "count", "evaluate_s on replay"),
    ("forest.predict_batch.s", "s", "evaluate_s on replay"),
    ("forest.predict_batch.rows_per_step", "rows/step", "evaluate_s on replay (--sweep only)"),
    ("monitor.observe.calls", "count", "watch_step_* on stream"),
    ("monitor.observe.self_us_p50", "us", "watch_step_* on stream"),
    ("monitor.observe.self_us_p99", "us", "watch_step_* on stream"),
    ("monitor.watch.protocol_us_p50", "us", "watch_step_p50_us on stream"),
    ("monitor.run_trace.calls", "count", "evaluate_s on replay"),
    ("monitor.run_trace.s", "s", "evaluate_s on replay"),
    ("monitor.load_model.s", "s", "setup_s on stream and replay"),
    ("monitor.save_model.s", "s", "build_*_s on fit"),
    ("evaluation.sweep.s", "s", "evaluate_s on replay"),
    ("evaluation.metrics_over_time.s", "s", "evaluate_s on replay"),
    ("evaluation.write_csv.s", "s", "evaluate_s on replay"),
    ("cli.self_s", "s", "every command metric"),
]

# Properties of the workload rather than costs: recorded so drift shows.
PROPERTIES = [
    ("abstraction.states", "count", "table size of the last table built"),
    ("abstraction.unseen_step_ratio", "ratio", "monitored steps whose state is unseen"),
    ("forest.fit.trees", "count", "trees fitted"),
    ("forest.fit.nodes", "nodes/tree", "mean nodes per fitted tree"),
]

_MONITORING = ("monitor.observe", "monitor.run_trace", "evaluation.sweep")
_BATCH_REPLAY = ("monitor.run_trace", "evaluation.sweep")


def install(tracer: Tracer):
    """Wrap safemon's public functions; returns a callable that undoes it."""
    from safemon import abstraction, agent, cli, dataset, envs, evaluation, forest, monitor

    undo = []

    def patch_attr(owner, attr, make):
        original = owner.__dict__[attr]
        setattr(owner, attr, make(original))
        undo.append(lambda: setattr(owner, attr, original))

    def patch_function(original, replacement):
        replace_function("safemon", original, replacement)
        undo.append(lambda: replace_function("safemon", replacement, original))

    def span(module, attr, name, after=None):
        original = getattr(module, attr)
        patch_function(original, wrap(tracer, name, original, after))

    def method(cls, attr, name, after=None):
        patch_attr(cls, attr, lambda fn: wrap(tracer, name, fn, after))

    def file_mb(key, position):
        def after(result, args, kwargs):
            path = args[position] if len(args) > position else kwargs["path"]
            tracer.count(key, os.path.getsize(path) / 1e6)
        return after

    def fitted(result, args, kwargs):
        tracer.count("forest.fit.trees", result.n_trees)
        tracer.count("forest.fit.node_total", sum(len(t.feature) for t in result.trees))

    # Rows per replayed step is taken over `evaluate --sweep` commands.
    sweeping = [False]

    def batch_rows(result, args, kwargs):
        rows = len(result.mean)
        tracer.count("forest.predict_batch.rows", rows)
        if sweeping[0] and tracer.inside(_BATCH_REPLAY):
            tracer.count("forest.predict_batch.sweep_rows", rows)

    def traced_episode(result, args, kwargs):
        if sweeping[0]:
            tracer.count("forest.predict_batch.sweep_steps", result.episode_length)

    def command(fn):
        traced = wrap(tracer, "cli", fn)

        def main(argv=None):
            sweeping[0] = argv is not None and "--sweep" in argv
            try:
                return traced(argv)
            finally:
                sweeping[0] = False
        return main

    def looked_up(result, args, kwargs):
        if tracer.inside(_MONITORING):
            tracer.count("abstraction.monitored_steps")
            tracer.count("abstraction.unseen_steps", result is None)

    def batch_looked_up(fn):
        def lookup_batch(self, qs):
            ids = fn(self, qs)
            if tracer.inside(_MONITORING):
                tracer.count("abstraction.monitored_steps", len(ids))
                tracer.count("abstraction.unseen_steps", int((ids < 0).sum()))
            return ids
        return lookup_batch

    def table_built(fn):
        def build(cls, episode_set, d):
            table = wrap(tracer, "abstraction.table_build", fn.__func__)(cls, episode_set, d)
            tracer.counters["abstraction.states"] = table.n
            return table
        return classmethod(build)

    for cls in (envs.CartPoleEnv, envs.MountainCarEnv):
        method(cls, "step", "envs.step")
    method(agent.QNetwork, "forward", "agent.forward")
    method(agent.QNetwork, "td_loss_and_grads", "agent.update")
    span(agent, "evaluate_policy", "agent.checkpoint_eval")
    span(dataset, "collect", "dataset.collect")
    span(dataset, "write_jsonl", "dataset.write_jsonl", file_mb("dataset.write_jsonl.mb", 1))
    span(dataset, "read_jsonl", "dataset.read_jsonl", file_mb("dataset.read_jsonl.mb", 0))
    patch_attr(abstraction.AbstractionTable, "build", table_built)
    method(abstraction.AbstractionTable, "lookup", "abstraction.lookup", looked_up)
    patch_attr(abstraction.AbstractionTable, "lookup_batch", batch_looked_up)
    span(abstraction, "episode_feature_matrix", "abstraction.episode_features")
    span(abstraction, "prefix_feature_matrix", "abstraction.prefix_features")
    span(forest, "train_forest", "forest.fit", fitted)
    span(forest, "predict", "forest.predict")
    span(forest, "predict_batch", "forest.predict_batch", batch_rows)
    patch_attr(forest.Tree, "probability", lambda fn: counted(tracer, "forest.tree_walks", fn))
    span(monitor, "observe", "monitor.observe")
    span(monitor, "watch_stream", "monitor.watch")
    span(monitor, "run_trace", "monitor.run_trace", traced_episode)
    span(monitor, "load_model", "monitor.load_model")
    span(monitor, "save_model", "monitor.save_model")
    span(evaluation, "sweep", "evaluation.sweep")
    span(evaluation, "metrics_over_time", "evaluation.metrics_over_time")
    for writer in ("write_metrics_csv", "write_sweep_csv", "write_traces_csv",
                   "write_decision_stats_json"):
        span(evaluation, writer, "evaluation.write_csv")
    patch_function(cli.main, command(cli.main))

    def uninstall():
        for step in reversed(undo):
            step()

    return uninstall


def metrics(tracer: Tracer, watch_lines: list[int]) -> tuple[dict, dict]:
    """Per-layer metrics and workload properties from one traced pass.

    `watch_lines` holds the line count of each traced watch session, in order.
    """
    spans = tracer.by_name()
    counters = tracer.counters

    def entry(name):
        return spans.get(name, {"total": [], "self": []})

    def calls(name):
        return len(entry(name)["total"])

    def total(name):
        return sum(entry(name)["total"])

    def self_s(name):
        return sum(entry(name)["self"])

    def self_us(name, q):
        own = entry(name)["self"]
        return percentile(own, q) * 1e6 if own else 0.0

    protocol = [s / n * 1e6 for s, n in zip(entry("monitor.watch")["self"], watch_lines) if n]
    sweep_steps = counters.get("forest.predict_batch.sweep_steps", 0)
    layer = {
        "envs.step.calls": calls("envs.step"),
        "envs.step.self_s": self_s("envs.step"),
        "agent.forward.calls": calls("agent.forward"),
        "agent.forward.self_s": self_s("agent.forward"),
        "agent.update.calls": calls("agent.update"),
        "agent.update.self_s": self_s("agent.update"),
        "agent.checkpoint_eval.self_s": self_s("agent.checkpoint_eval"),
        "dataset.collect.self_s": self_s("dataset.collect"),
        "dataset.write_jsonl.s": total("dataset.write_jsonl"),
        "dataset.write_jsonl.mb": counters.get("dataset.write_jsonl.mb", 0.0),
        "dataset.read_jsonl.s": total("dataset.read_jsonl"),
        "dataset.read_jsonl.mb": counters.get("dataset.read_jsonl.mb", 0.0),
        "abstraction.table_build.s": total("abstraction.table_build"),
        "abstraction.episode_features.s": total("abstraction.episode_features"),
        "abstraction.lookup.calls": calls("abstraction.lookup"),
        "abstraction.lookup.self_us_p50": self_us("abstraction.lookup", 50),
        "abstraction.prefix_features.s": total("abstraction.prefix_features"),
        "forest.fit.s": total("forest.fit"),
        "forest.predict.calls": calls("forest.predict"),
        "forest.predict.self_us_p50": self_us("forest.predict", 50),
        "forest.predict.self_us_p99": self_us("forest.predict", 99),
        "forest.tree_walks": counters.get("forest.tree_walks", 0),
        "forest.predict_batch.calls": calls("forest.predict_batch"),
        "forest.predict_batch.rows": counters.get("forest.predict_batch.rows", 0),
        "forest.predict_batch.s": total("forest.predict_batch"),
        "forest.predict_batch.rows_per_step": (
            counters.get("forest.predict_batch.sweep_rows", 0) / sweep_steps if sweep_steps else 0.0
        ),
        "monitor.observe.calls": calls("monitor.observe"),
        "monitor.observe.self_us_p50": self_us("monitor.observe", 50),
        "monitor.observe.self_us_p99": self_us("monitor.observe", 99),
        "monitor.watch.protocol_us_p50": percentile(protocol, 50) if protocol else 0.0,
        "monitor.run_trace.calls": calls("monitor.run_trace"),
        "monitor.run_trace.s": total("monitor.run_trace"),
        "monitor.load_model.s": total("monitor.load_model"),
        "monitor.save_model.s": total("monitor.save_model"),
        "evaluation.sweep.s": total("evaluation.sweep"),
        "evaluation.metrics_over_time.s": total("evaluation.metrics_over_time"),
        "evaluation.write_csv.s": total("evaluation.write_csv"),
        "cli.self_s": self_s("cli"),
    }
    monitored = counters.get("abstraction.monitored_steps", 0)
    trees = counters.get("forest.fit.trees", 0)
    props = {
        "abstraction.states": counters.get("abstraction.states", 0),
        "abstraction.unseen_step_ratio": (
            counters.get("abstraction.unseen_steps", 0) / monitored if monitored else 0.0
        ),
        "forest.fit.trees": trees,
        "forest.fit.nodes": counters.get("forest.fit.node_total", 0) / trees if trees else 0.0,
    }
    return layer, props
