"""Command-line front end wiring the pipeline end to end.

Subcommands: train-agent, collect, build, select-d, evaluate, watch.
Every command is reproducible from its flags plus one root seed. A
`--config` file, a JSON object of flag values, may stand in for any flag,
required ones too: its values become flag tokens placed before the command
line's, so argparse reads both at once and the command line wins.

Exit codes: 0 success, 1 I/O failure, 2 numeric failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .envs import ENV_KINDS

EXIT_OK = 0
EXIT_IO = 1
EXIT_NUMERIC = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# Finds a command's --config file before the command's own parser runs.
_CONFIG = _Parser(add_help=False)
_CONFIG.add_argument("--config")


def _config_flags(path, command: argparse.ArgumentParser) -> list:
    """The `--flag=value` tokens that the --config file at `path` stands for.

    `command` is the subcommand's parser, which converts and checks the
    tokens as it does the command line's. A non-string value goes in as
    its JSON text, so 2.5 is no integer and true is no number; a switch
    such as --sweep is given by true and left out by false.
    """
    from .dataset import DatasetError, read_json

    doc = read_json(path)
    if not isinstance(doc, dict):
        raise DatasetError(f"{path}: not a JSON object of flag values")
    actions = {a.dest: a for a in command._actions if a.dest not in ("help", "config")}
    tokens = []
    for key, value in doc.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise UsageError(f"unknown config key {key!r}")
        flag = action.option_strings[0]
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise UsageError(f"config key {key!r} expects true or false, got {value!r}")
            if value:
                tokens.append(flag)
        elif isinstance(value, str):
            tokens.append(f"{flag}={value}")
        elif action.type is None:
            raise UsageError(f"config key {key!r} expects a string, got {value!r}")
        else:
            tokens.append(f"{flag}={json.dumps(value)}")
    return tokens


def _checked(kind, holds, requirement):
    """An argparse type: `kind` of the text, refused with `requirement`
    unless `holds` for it."""

    def convert(text):
        value = kind(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text}")
        return value

    convert.__name__ = kind.__name__  # argparse's messages name the kind
    return convert


_theta = _checked(float, lambda v: 0.0 < v < 1.0, "must lie strictly between 0 and 1")
_unit = _checked(float, lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")
_positive = _checked(float, lambda v: 0.0 < v < math.inf, "must be positive and finite")
_count = _checked(int, lambda v: v >= 0, "must be >= 0")
_at_least_one = _checked(int, lambda v: v >= 1, "must be >= 1")


def _grid(text):
    """Comma-separated abstraction levels, at least two, each a valid --d."""
    try:
        grid = [_positive(tok) for tok in text.split(",") if tok.strip()]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad level in {text!r}: {exc}") from None
    if len(grid) < 2:
        raise argparse.ArgumentTypeError("needs at least two comma-separated levels")
    return grid


_CRITERIA = ("upper_bound", "output_probability", "lower_bound")
_CONFIG_HELP = "JSON object of flag values; the command line wins"


def cmd_train_agent(args) -> int:
    from .agent import (
        BAND_EVAL_EPISODES,
        UNSAFE_RATE_BAND,
        AgentTrainConfig,
        save_agent,
        train_agent,
    )
    from .dataset import save_document

    config = AgentTrainConfig(
        total_steps=args.steps,
        learning_rate=args.learning_rate,
        epsilon_end=args.epsilon_end,
        epsilon_decay_steps=args.epsilon_decay_steps,
        gamma=args.gamma,
        seed=args.seed,
        checkpoint_interval=args.checkpoint_interval,
        target_sync_interval=args.target_sync_interval,
    )
    model = train_agent(args.env, config)
    save_agent(model, args.out)
    report = model.report
    report_doc = {"env": args.env, "seed": args.seed, **asdict(report)}
    save_document(args.report_out or args.out + ".report.json", report_doc, indent=2)
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


def cmd_build(args) -> int:
    from .abstraction import AbstractionTable, FeatureMode, UnseenPolicy, episode_feature_matrix
    from .dataset import Label, read_jsonl, require_both_classes
    from .evaluation import macro_f1
    from .forest import out_of_bag_mean, train_forest
    from .monitor import Criterion, MonitorModel, save_model
    from .seeding import derive_seed

    corpus = read_jsonl(args.episodes)
    require_both_classes(corpus, f"{args.episodes}: the corpus")
    mode = FeatureMode(args.features)
    table = AbstractionTable.build(corpus, args.d)
    x = episode_feature_matrix(corpus.episodes, table, mode, table.corpus_ids)
    y = np.array([e.label is Label.UNSAFE for e in corpus.episodes], dtype=np.int64)
    forest = train_forest(x, y, args.trees, derive_seed(args.seed, "build-forest"))

    # Held-out sanity figure: each episode scored by the trees that left it
    # out of their bootstrap; an episode every tree drew is not scored.
    oob = out_of_bag_mean(forest, x)
    scored = ~np.isnan(oob)
    f1 = macro_f1(y[scored], oob[scored] >= 0.5) if scored.any() else None

    model = MonitorModel(
        table=table,
        forest=forest,
        mode=mode,
        criterion=Criterion(args.criterion),
        theta=args.theta,
        unseen_policy=UnseenPolicy(args.unseen),
        provenance={
            "agent_fingerprint": corpus.agent_fingerprint,
            "d": args.d,
            "seed": args.seed,
            "episodes": len(corpus),
        },
    )
    save_model(model, args.out)
    shown = "n/a" if f1 is None else f"{f1:.3f}"
    print(f"built monitor: {table.n} abstract states, out-of-bag macro F1 {shown}")
    return EXIT_OK


def cmd_select_d(args) -> int:
    from .abstraction import FeatureMode, select_level
    from .dataset import DatasetError, read_jsonl, save_document
    from .monitor import Criterion

    corpus = read_jsonl(args.episodes)
    try:
        selection = select_level(
            corpus,
            args.grid,
            inner_split_seed=args.seed,
            mode=FeatureMode(args.features),
            theta=args.theta,
            criterion=Criterion(args.criterion),
            n_trees=args.trees,
        )
    except DatasetError as exc:  # the corpus cannot be split or fitted
        raise DatasetError(f"{args.episodes}: {exc}") from exc
    doc = {
        "optimal_range": list(selection.optimal_range),
        "d_star": selection.d_star,
        "rows": [asdict(row) for row in selection.rows],
    }
    save_document(args.out, doc, indent=2)
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
    from .monitor import Criterion, load_model, run_traces

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
    traces = run_traces(model, [e.qs for e in corpus.episodes])

    rows = metrics_over_time(traces, labels, horizon)
    write_metrics_csv(rows, args.out_prefix + ".metrics.csv", time_base=args.time_base)
    stats = decision_time_stats(traces, labels)
    summary = decision_stats_json(stats, model.criterion, model.theta, args.time_base)
    write_decision_stats_json([summary], args.out_prefix + ".decision_stats.json")
    if args.sweep:
        report = sweep(traces, labels, list(Criterion), [0.25, 0.5, 0.75], horizon=horizon)
        write_sweep_csv(report, args.out_prefix + ".sweep.csv", time_base=args.time_base)
    if args.traces:
        write_traces_csv(traces, labels, args.out_prefix + ".traces.csv", time_base=args.time_base)
    mean_step = summary["decision_time_step"]["avg"]
    print(
        f"evaluated {len(corpus)} episodes: horizon macro F1 {rows[-1].f1_macro:.3f}, "
        f"fp {stats.fp_count}"
        + ("" if mean_step is None else f", mean decision step {mean_step:.1f}")
    )
    return EXIT_OK


def cmd_watch(args) -> int:
    from .monitor import load_model, watch_stream

    model = load_model(args.model)
    # Bytes, so that a line that is not UTF-8 is skipped like any malformed one.
    return watch_stream(model, getattr(sys.stdin, "buffer", sys.stdin), sys.stdout, sys.stderr)


def _train_agent_arguments(p) -> None:
    from .agent import AgentTrainConfig as defaults  # one defaults table: the config's

    p.add_argument("--env", choices=ENV_KINDS, required=True)
    p.add_argument("--steps", type=_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--report-out", default=None)
    p.add_argument("--config", default=None, help=_CONFIG_HELP)
    p.add_argument("--learning-rate", type=_positive, default=defaults.learning_rate)
    p.add_argument("--gamma", type=_unit, default=defaults.gamma)
    p.add_argument("--epsilon-end", type=_unit, default=defaults.epsilon_end)
    p.add_argument("--epsilon-decay-steps", type=_at_least_one, default=defaults.epsilon_decay_steps)
    p.add_argument("--checkpoint-interval", type=_at_least_one, default=defaults.checkpoint_interval)
    p.add_argument("--target-sync-interval", type=_at_least_one,
                   default=defaults.target_sync_interval)
    p.set_defaults(func=cmd_train_agent)


def _collect_arguments(p) -> None:
    p.add_argument("--agent", required=True)
    p.add_argument("--episodes", type=_at_least_one, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help=_CONFIG_HELP)
    p.set_defaults(func=cmd_collect)


def _build_arguments(p) -> None:
    p.add_argument("--episodes", required=True)
    p.add_argument("--d", type=_positive, required=True)
    p.add_argument("--features", choices=["binary", "frequency"], default="binary")
    p.add_argument("--trees", type=_at_least_one, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--criterion", default="upper_bound", choices=_CRITERIA)
    p.add_argument("--theta", type=_theta, default=0.5)
    p.add_argument("--unseen", choices=["ignore", "stop"], default="ignore")
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help=_CONFIG_HELP)
    p.set_defaults(func=cmd_build)


def _select_d_arguments(p) -> None:
    p.add_argument("--episodes", required=True)
    p.add_argument("--grid", type=_grid, required=True, help="comma-separated candidate levels")
    p.add_argument("--features", choices=["binary", "frequency"], default="binary")
    p.add_argument("--trees", type=_at_least_one, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--criterion", default="upper_bound", choices=_CRITERIA)
    p.add_argument("--theta", type=_theta, default=0.5)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None, help=_CONFIG_HELP)
    p.set_defaults(func=cmd_select_d)


def _evaluate_arguments(p) -> None:
    p.add_argument("--model", required=True)
    p.add_argument("--episodes", required=True)
    p.add_argument("--criterion", default=None, choices=_CRITERIA)
    p.add_argument("--theta", type=_theta, default=None)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--sweep", action="store_true", help="emit the criterion x theta sweep")
    p.add_argument("--traces", action="store_true", help="emit per-step probability traces")
    p.add_argument("--time-base", type=int, choices=[0, 1], default=0,
                   help="0-based (internal) or 1-based (presentation) step indices")
    p.add_argument("--config", default=None, help=_CONFIG_HELP)
    p.set_defaults(func=cmd_evaluate)


def _watch_arguments(p) -> None:
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_watch)


# Each subcommand: its help line and the function that adds its arguments.
_COMMANDS = {
    "train-agent": ("train a Q-learning agent", _train_agent_arguments),
    "collect": ("collect labeled episodes", _collect_arguments),
    "build": ("build a monitor model", _build_arguments),
    "select-d": ("pick an abstraction level from a grid", _select_d_arguments),
    "evaluate": ("run the evaluation harness", _evaluate_arguments),
    "watch": ("monitor a Q-value stream on stdin", _watch_arguments),
}


def build_parser() -> _Parser:
    """The safemon parser, with every subcommand's. `main` needs it only
    for help and for a missing or unknown command; a command runs on a
    parser of its own arguments alone."""
    parser = _Parser(prog="safemon", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] in _COMMANDS:
            name, argv = argv[0], argv[1:]
            parser = _Parser(prog=f"safemon {name}")  # the prog a subparser gets
            _COMMANDS[name][1](parser)
            if "--config" in parser._option_string_actions:
                path = _CONFIG.parse_known_args(argv)[0].config
                if path is not None:
                    argv[:0] = _config_flags(path, parser)
        else:
            parser = build_parser()
        args = parser.parse_args(argv)
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
