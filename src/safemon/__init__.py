"""Runtime safety monitoring for small Q-learning agents.

Train an agent on a classic-control task, collect labeled episodes under
its greedy policy, abstract states by bucketing Q-values, learn a random
forest that maps visited-abstract-state vectors to an unsafe-episode
probability, and watch live Q-value streams with confidence-interval
decision rules that fire early, latched unsafe alarms.
"""

from .abstraction import (
    AbstractionTable,
    FeatureMode,
    UnseenPolicy,
    bucketize,
    select_level,
)
from .agent import (
    AgentModel,
    AgentTrainConfig,
    EpsilonSchedule,
    TrainingDiverged,
    agent_fingerprint,
    greedy_action,
    load_agent,
    save_agent,
    train_agent,
)
from .dataset import Episode, EpisodeSet, Label, collect, read_jsonl, split, write_jsonl
from .envs import CARTPOLE, MOUNTAINCAR, Cause, StepOutcome, make_env
from .evaluation import (
    Confusion,
    DecisionTimeStats,
    MetricsRow,
    decision_time_stats,
    macro_f1,
    metrics_over_time,
    sweep,
)
from .forest import Forest, ProbabilitySummary, predict, train_forest
from .monitor import (
    Criterion,
    DecisionTrace,
    MonitorModel,
    RunningState,
    StepAssessment,
    criterion_holds,
    load_model,
    observe,
    run_trace,
    run_traces,
    save_model,
)

__version__ = "0.1.0"
