"""Runtime safety monitoring for small Q-learning agents.

Train an agent on a classic-control task, collect labeled episodes under
its greedy policy, abstract states by bucketing Q-values, learn a random
forest that maps visited-abstract-state vectors to an unsafe-episode
probability, and watch live Q-value streams with confidence-interval
decision rules that fire early, latched unsafe alarms.

The names below are imported from their module on first use (PEP 562),
so that a command imports only the modules it runs.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "abstraction": ["AbstractionTable", "FeatureMode", "UnseenPolicy", "bucketize"],
    "agent": [
        "AgentModel",
        "AgentTrainConfig",
        "TrainingDiverged",
        "agent_fingerprint",
        "greedy_action",
        "load_agent",
        "save_agent",
        "train_agent",
    ],
    "dataset": ["Episode", "EpisodeSet", "Label", "collect", "read_jsonl", "split", "write_jsonl"],
    "envs": ["CARTPOLE", "MOUNTAINCAR", "Cause", "StepOutcome", "make_env"],
    "evaluation": [
        "Confusion",
        "DecisionTimeStats",
        "MetricsRow",
        "decision_time_stats",
        "macro_f1",
        "metrics_over_time",
        "select_level",
        "sweep",
    ],
    "forest": ["Forest", "ProbabilitySummary", "predict", "train_forest"],
    "monitor": [
        "Criterion",
        "DecisionTrace",
        "MonitorModel",
        "RunningState",
        "StepAssessment",
        "criterion_holds",
        "load_model",
        "observe",
        "run_trace",
        "run_traces",
        "save_model",
    ],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
