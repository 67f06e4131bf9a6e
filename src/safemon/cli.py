"""Command-line front end wiring the pipeline end to end.

Subcommands: train-agent, collect, build, select-d, evaluate, watch.
Every command is reproducible from its flags plus one root seed; a JSON
config file may stand in for flags, with explicit flags winning.

Exit codes: 0 success, 1 I/O failure, 2 numeric failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

EXIT_OK = 0
EXIT_IO = 1
EXIT_NUMERIC = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _apply_config_file(argv, args):
    """Overlay config-file values; flags given on the command line win."""
    with open(args.config, encoding="utf-8") as fh:
        overrides = json.load(fh)
    tokens = list(argv if argv is not None else sys.argv[1:])
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise UsageError(f"unknown config key {key!r}")
        flag = "--" + attr.replace("_", "-")
        explicit = any(tok == flag or tok.startswith(flag + "=") for tok in tokens)
        if not explicit:
            setattr(args, attr, value)
    return args


def _parse_grid(text):
    try:
        grid = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad grid {text!r}: {exc}") from exc
    if len(grid) < 2:
        raise UsageError("grid needs at least two comma-separated levels")
    return grid


def cmd_train_agent(args) -> int:
    from .agent import (
        BAND_EVAL_EPISODES,
        UNSAFE_RATE_BAND,
        AgentTrainConfig,
        EpsilonSchedule,
        save_agent,
        train_agent,
    )
    from .envs import ENV_KINDS

    if args.env not in ENV_KINDS:
        raise UsageError(f"unknown environment {args.env!r}")
    if args.steps < 0:
        raise UsageError("--steps must be >= 0")
    for flag, value in (
        ("--checkpoint-interval", args.checkpoint_interval),
        ("--target-sync-interval", args.target_sync_interval),
        ("--epsilon-decay-steps", args.epsilon_decay_steps),
    ):
        if value < 1:
            raise UsageError(f"{flag} must be >= 1")
    if not 0.0 < args.learning_rate < math.inf:
        raise UsageError("--learning-rate must be positive and finite")
    for flag, value in (("--gamma", args.gamma), ("--epsilon-end", args.epsilon_end)):
        if not 0.0 <= value <= 1.0:
            raise UsageError(f"{flag} must lie in [0, 1]")
    config = AgentTrainConfig(
        total_steps=args.steps,
        learning_rate=args.learning_rate,
        epsilon=EpsilonSchedule(1.0, args.epsilon_end, args.epsilon_decay_steps),
        gamma=args.gamma,
        seed=args.seed,
        checkpoint_interval=args.checkpoint_interval,
        target_sync_interval=args.target_sync_interval,
    )
    model = train_agent(args.env, config)
    save_agent(model, args.out)
    report = model.report
    report_doc = {"env": args.env, "seed": args.seed, **asdict(report)}
    with open(args.report_out or args.out + ".report.json", "w", encoding="utf-8") as fh:
        json.dump(report_doc, fh, indent=2)
        fh.write("\n")
    print(
        f"trained {args.env} agent: checkpoint {report.selected_step}, "
        f"mean reward {report.mean_reward:.1f}, unsafe rate {report.unsafe_rate:.1%}"
    )
    if not report.band_satisfied:
        lo, hi = UNSAFE_RATE_BAND
        final = report.checkpoints[-1]
        print(
            f"warning: no checkpoint's unsafe rate lies in the band [{lo:.0%}, {hi:.0%}]; "
            f"selected the final checkpoint, step {final.step}, with unsafe rate "
            f"{final.unsafe_rate:.1%} over {BAND_EVAL_EPISODES} rollouts",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_collect(args) -> int:
    from .agent import UNSAFE_RATE_BAND, load_agent
    from .dataset import collect, write_jsonl

    if args.episodes < 1:
        raise UsageError("--episodes must be >= 1")
    agent = load_agent(args.agent)
    report = agent.report
    if report is not None and not report.band_satisfied:
        lo, hi = UNSAFE_RATE_BAND
        print(
            f"warning: {args.agent} missed the unsafe-rate band [{lo:.0%}, {hi:.0%}] in "
            f"training; its checkpoint, step {report.selected_step}, had unsafe rate "
            f"{report.unsafe_rate:.1%} over {report.eval_episodes} episodes",
            file=sys.stderr,
        )
    corpus = collect(agent, agent.env_kind, args.episodes, args.seed)
    write_jsonl(corpus, args.out)
    counts = corpus.label_counts()
    total = len(corpus)
    print(
        f"collected {total} episodes: {counts['safe']} safe, "
        f"{counts['unsafe']} unsafe ({counts['unsafe'] / total:.1%})"
    )
    if min(counts.values()) == 0:
        missing = "unsafe" if counts["unsafe"] == 0 else "safe"
        print(
            f"warning: {args.out} has no {missing} episodes; build and select-d "
            f"need both classes",
            file=sys.stderr,
        )
    return EXIT_OK


def _build_monitor(episodes_path, d, mode_name, trees, seed, criterion_name, theta, unseen_name):
    from .abstraction import AbstractionTable, FeatureMode, UnseenPolicy, episode_feature_matrix
    from .dataset import Label, read_jsonl, require_both_classes
    from .evaluation import macro_f1
    from .forest import ForestConfig, out_of_bag_mean, train_forest
    from .monitor import Criterion, MonitorModel
    from .seeding import derive_seed

    corpus = read_jsonl(episodes_path)
    require_both_classes(corpus, f"{episodes_path}: the corpus")
    mode = FeatureMode(mode_name)
    criterion = Criterion(criterion_name)
    unseen = UnseenPolicy(unseen_name)

    table = AbstractionTable.build(corpus, d)
    x = episode_feature_matrix(corpus.episodes, table, mode)
    y = np.array([e.label is Label.UNSAFE for e in corpus.episodes], dtype=np.int64)
    forest = train_forest(x, y, ForestConfig(n_trees=trees), derive_seed(seed, "build-forest"))

    # Held-out sanity figure: each episode scored by the trees that left it
    # out of their bootstrap; an episode every tree drew is not scored.
    oob = out_of_bag_mean(forest, x)
    scored = ~np.isnan(oob)
    f1 = macro_f1(y[scored], oob[scored] >= 0.5) if scored.any() else None

    model = MonitorModel(
        table=table,
        forest=forest,
        mode=mode,
        criterion=criterion,
        theta=theta,
        unseen_policy=unseen,
        provenance={
            "agent_fingerprint": corpus.agent_fingerprint,
            "d": d,
            "seed": seed,
            "episodes": len(corpus),
        },
    )
    return model, table.n, f1


def cmd_build(args) -> int:
    from .monitor import save_model

    if args.theta is not None and not 0.0 < args.theta < 1.0:
        raise UsageError("--theta must lie strictly between 0 and 1")
    if args.trees < 1:
        raise UsageError("--trees must be >= 1")
    if args.d <= 0:
        raise UsageError("--d must be positive")
    model, n_states, f1 = _build_monitor(
        args.episodes, args.d, args.features, args.trees, args.seed,
        args.criterion, args.theta if args.theta is not None else 0.5, args.unseen,
    )
    save_model(model, args.out)
    shown = "n/a" if f1 is None else f"{f1:.3f}"
    print(f"built monitor: {n_states} abstract states, out-of-bag macro F1 {shown}")
    return EXIT_OK


def cmd_select_d(args) -> int:
    from .abstraction import FeatureMode, select_level
    from .dataset import DatasetError, read_jsonl
    from .forest import ForestConfig
    from .monitor import Criterion

    grid = _parse_grid(args.grid)
    corpus = read_jsonl(args.episodes)
    try:
        selection = select_level(
            corpus,
            grid,
            inner_split_seed=args.seed,
            mode=FeatureMode(args.features),
            theta=args.theta if args.theta is not None else 0.5,
            criterion=Criterion(args.criterion),
            forest_config=ForestConfig(n_trees=args.trees),
        )
    except DatasetError as exc:  # the corpus cannot be split or fitted
        raise DatasetError(f"{args.episodes}: {exc}") from exc
    doc = {
        "optimal_range": list(selection.optimal_range),
        "d_star": selection.d_star,
        "rows": [asdict(row) for row in selection.rows],
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    lo, hi = selection.optimal_range
    print(f"optimal range [{lo}, {hi}], selected d* = {selection.d_star}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from dataclasses import replace

    from .dataset import DatasetError, read_jsonl
    from .evaluation import (
        decision_stats_json,
        decision_time_stats,
        metrics_over_time,
        sweep,
        write_decision_stats_json,
        write_metrics_csv,
        write_sweep_csv,
        write_traces_csv,
    )
    from .monitor import Criterion, load_model, run_trace

    if args.theta is not None and not 0.0 < args.theta < 1.0:
        raise UsageError("--theta must lie strictly between 0 and 1")
    model = load_model(args.model)
    overrides = {}
    if args.criterion:
        overrides["criterion"] = Criterion(args.criterion)
    if args.theta is not None:
        overrides["theta"] = args.theta
    if overrides:
        model = replace(model, **overrides)

    corpus = read_jsonl(args.episodes)
    width = corpus.episodes[0].qs.shape[1]
    if width != model.table.key_width:
        raise DatasetError(
            f"{args.episodes}: episodes have {width} Q-values per step, but the "
            f"model {args.model} was built over {model.table.key_width}"
        )
    labels = [e.label for e in corpus.episodes]
    horizon = max(e.length for e in corpus.episodes)
    traces = [run_trace(model, e.qs) for e in corpus.episodes]

    rows = metrics_over_time(traces, labels, horizon)
    write_metrics_csv(rows, args.out_prefix + ".metrics.csv", time_base=args.time_base)
    stats = decision_time_stats(traces, labels)
    write_decision_stats_json(
        [decision_stats_json(stats, model.criterion, model.theta)],
        args.out_prefix + ".decision_stats.json",
    )
    if args.sweep:
        report = sweep(traces, labels, list(Criterion), [0.25, 0.5, 0.75], horizon=horizon)
        write_sweep_csv(report, args.out_prefix + ".sweep.csv", time_base=args.time_base)
    if args.traces:
        write_traces_csv(traces, labels, args.out_prefix + ".traces.csv", time_base=args.time_base)
    final = rows[-1]
    print(
        f"evaluated {len(corpus)} episodes: horizon macro F1 {final.f1_macro:.3f}, "
        f"fp {stats.fp_count}"
        + (
            f", mean decision step {stats.decision_step_avg:.1f}"
            if stats.decision_step_avg is not None
            else ""
        )
    )
    return EXIT_OK


def cmd_watch(args) -> int:
    from .monitor import load_model, watch_stream

    model = load_model(args.model)
    return watch_stream(model, sys.stdin, sys.stdout, sys.stderr)


def build_parser() -> _Parser:
    parser = _Parser(prog="safemon", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-agent", help="train a Q-learning agent")
    p.add_argument("--env", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--report-out", default=None)
    p.add_argument("--config", default=None, help="JSON file of flag defaults")
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--gamma", type=float, default=0.99)
    p.add_argument("--epsilon-end", type=float, default=0.05)
    p.add_argument("--epsilon-decay-steps", type=int, default=50_000)
    p.add_argument("--checkpoint-interval", type=int, default=5_000)
    p.add_argument("--target-sync-interval", type=int, default=500)
    p.set_defaults(func=cmd_train_agent)

    p = sub.add_parser("collect", help="collect labeled episodes")
    p.add_argument("--agent", required=True)
    p.add_argument("--episodes", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("build", help="build a monitor model")
    p.add_argument("--episodes", required=True)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--features", choices=["binary", "frequency"], default="binary")
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--criterion", default="upper_bound",
                   choices=["upper_bound", "output_probability", "lower_bound"])
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--unseen", choices=["ignore", "stop"], default="ignore")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("select-d", help="pick an abstraction level from a grid")
    p.add_argument("--episodes", required=True)
    p.add_argument("--grid", required=True, help="comma-separated candidate levels")
    p.add_argument("--features", choices=["binary", "frequency"], default="binary")
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--criterion", default="upper_bound",
                   choices=["upper_bound", "output_probability", "lower_bound"])
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_select_d)

    p = sub.add_parser("evaluate", help="run the evaluation harness")
    p.add_argument("--model", required=True)
    p.add_argument("--episodes", required=True)
    p.add_argument("--criterion", default=None,
                   choices=["upper_bound", "output_probability", "lower_bound"])
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--sweep", action="store_true", help="emit the criterion x theta sweep")
    p.add_argument("--traces", action="store_true", help="emit per-step probability traces")
    p.add_argument("--time-base", type=int, choices=[0, 1], default=0,
                   help="0-based (internal) or 1-based (presentation) step indices")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("watch", help="monitor a Q-value stream on stdin")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_watch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            args = _apply_config_file(argv, args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        from .agent import TrainingDiverged
        from .dataset import DatasetError

        if isinstance(exc, (OSError, DatasetError)):
            print(f"i/o error: {exc}", file=sys.stderr)
            return EXIT_IO
        if isinstance(exc, (TrainingDiverged, ValueError, KeyError)):
            print(f"numeric failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        raise


if __name__ == "__main__":
    sys.exit(main())
