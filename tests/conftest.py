from unittest import mock

import numpy as np

from safemon.abstraction import AbstractionTable
from safemon.dataset import Episode, EpisodeSet, Label
from safemon.envs import Cause
from safemon.forest import PackedTrees, Tree
from safemon.monitor import run_traces


def orjson_refusing():
    """A context in which orjson refuses every text, so that dataset.decode
    hands each to json alone."""
    import orjson

    return mock.patch.object(orjson, "loads", side_effect=orjson.JSONDecodeError("refused", "", 0))


def make_episode(qs, unsafe=False):
    """Episode with the given per-step Q-matrix and placeholder dynamics."""
    qs = np.asarray(qs, dtype=np.float64)
    t = len(qs)
    return Episode(
        states=np.zeros((t, 2)),
        actions=np.zeros(t, dtype=np.int64),
        qs=qs,
        rewards=-np.ones(t),
        label=Label.UNSAFE if unsafe else Label.SAFE,
        cause=Cause.VIOLATION if unsafe else Cause.STEP_LIMIT,
    )


def make_set(episodes, env_kind=None):
    return EpisodeSet(episodes=list(episodes), env_kind=env_kind)


def two_band_corpus(n_per_class=20, steps=3, safe_q=4.5, unsafe_q=9.5, actions=1):
    """Synthetic corpus where one Q level marks safe and another unsafe."""
    episodes = []
    for i in range(n_per_class * 2):
        unsafe = i % 2 == 1
        q = unsafe_q if unsafe else safe_q
        episodes.append(make_episode(np.full((steps, actions), q), unsafe=unsafe))
    return make_set(episodes)


def id_table(n):
    """Table whose key for q=[k + 0.5] is id k (d=1 ceiling); q=[-0.5] is unseen."""
    return AbstractionTable(d=1.0, index={(k + 1,): k for k in range(n)})


def leaf_tree(fraction, count=1):
    """A tree whose root is a leaf of value `fraction`."""
    return Tree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.zeros(1),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        value=np.array([float(fraction)]),
        count=np.array([count], dtype=np.int64),
    )


def replay_with_leaf_values(model, corpus):
    """run_traces(model, corpus), and each trace's (n_trees, steps) leaf
    values as the replay's prefix_leaf_values calls gave them: the values
    at the changed rows, taken at each row's index."""
    chunks = []
    prefix_leaf_values = PackedTrees.prefix_leaf_values

    def spy(packed, ids, mode):
        changed, last = prefix_leaf_values(packed, ids, mode)
        chunks.append(changed[:, last])
        return changed, last

    with mock.patch.object(PackedTrees, "prefix_leaf_values", spy):
        traces = run_traces(model, corpus)
    per_tree = np.concatenate(chunks, axis=1)
    bounds = np.cumsum([len(trace.series.mean) for trace in traces])[:-1]
    return traces, np.split(per_tree, bounds, axis=1)
