import json
import math
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

import safemon.monitor as monitor_module
from reference import Reference, first_fire_step, summary, walk
from safemon.abstraction import AbstractionTable
from safemon.agent import QNetwork, he_params
from safemon.dataset import Episode, EpisodeSet
from safemon.envs import Cause
from safemon.forest import PackedTrees, forest_from_json_list, predict, predict_batch
from safemon.monitor import MonitorStopped, RunningState, load_model, observe, run_traces, save_model


def orjson_refusing():
    """A context in which orjson refuses every text, so that dataset.decode
    hands each to json alone."""
    import orjson

    return mock.patch.object(orjson, "loads", side_effect=orjson.JSONDecodeError("refused", "", 0))


def random_network(layer_sizes, rng, input_offset=None, input_scale=None):
    """A freshly initialised network, as training starts one; the input
    normalisation defaults to none (offset 0, scale 1)."""
    dim = layer_sizes[0]
    return QNetwork(
        layer_sizes, he_params(layer_sizes, rng),
        np.zeros(dim) if input_offset is None else input_offset,
        np.ones(dim) if input_scale is None else input_scale,
    )


def make_episode(qs, unsafe=False):
    """Episode with the given per-step Q-matrix and placeholder dynamics."""
    qs = np.asarray(qs, dtype=np.float64)
    t = len(qs)
    return Episode(
        states=np.zeros((t, 2)),
        actions=np.zeros(t, dtype=np.int64),
        qs=qs,
        rewards=-np.ones(t),
        cause=Cause.VIOLATION if unsafe else Cause.STEP_LIMIT,
    )


def make_set(episodes):
    return EpisodeSet(episodes=list(episodes))


def two_band_corpus(n_per_class=20, steps=3, safe_q=4.5, unsafe_q=9.5, actions=1):
    """Synthetic corpus where one Q level marks safe and another unsafe."""
    episodes = []
    for i in range(n_per_class * 2):
        unsafe = i % 2 == 1
        q = unsafe_q if unsafe else safe_q
        episodes.append(make_episode(np.full((steps, actions), q), unsafe=unsafe))
    return make_set(episodes)


# Relative offsets from a multiple of d: inside, at and beyond the snap
# tolerance (1e-12), and half a level, each of both signs.
SNAP_OFFSETS = [0.0, 5e-13, 1e-12, 2e-12, 1e-11, 1e-10, 1e-9, 2e-9, 0.5]
SNAP_OFFSETS += [-o for o in SNAP_OFFSETS]


def near_multiple(k, d, offset, ulps):
    """k * d moved by the relative `offset` (by offset * d at k = 0), then
    `ulps` floats up, or down when it is negative."""
    value = (k * (1.0 + offset) if k else offset) * d
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


def id_table(n):
    """Table whose key for q=[k + 0.5] is id k (d=1 ceiling); q=[-0.5] is unseen."""
    return AbstractionTable(d=1.0, index={(k + 1,): k for k in range(n)})


def id_qs(ids):
    """The Q-matrix of a run of id_table ids; id -1 is unseen."""
    return np.array([[i + 0.5] for i in ids], dtype=np.float64).reshape(len(ids), 1)


# Trees are node lists in the model file's form; forest_of loads them.
def leaf_tree(fraction, count=1):
    """A tree whose root is a leaf of value `fraction`."""
    return [{"leaf": [float(fraction), count]}]


def split_tree(feature, threshold, low, high, count=1):
    """A root testing `feature` at `threshold`, over leaves `low` (left) and `high`."""
    return [{"split": [feature, threshold, 1, 2]}, {"leaf": [low, count]}, {"leaf": [high, count]}]


def chain_tree(depth, width, threshold=2.0):
    """A chain of `depth` splits, split k testing feature k % width at
    `threshold`: its left child goes on down the chain and its right one
    is a leaf. A row at or below the threshold walks all `depth` levels,
    so beside a root that is a leaf the walks of one forest end at very
    different depths."""
    n = 2 * depth + 1
    chain = [{"split": [k % width, threshold, k + 1, depth + 1 + k]} for k in range(depth)]
    return chain + [{"leaf": [k / (n - 1), 1]} for k in range(depth, n)]


def forest_of(trees, feature_count, seed=0):
    return forest_from_json_list(trees, feature_count, seed)


# Split thresholds and feature values share a grid, so a row often sits
# exactly on a threshold (ties go left).
GRID = [0.0, 0.5, 1.0, 1.5, 2.0]
LEAF_VALUES = st.one_of(st.floats(0.0, 1.0), st.just(-0.0))


@st.composite
def random_tree(draw, width):
    """A tree of depth at most 4, nodes numbered depth-first."""
    nodes = []

    def grow(depth):
        at = len(nodes)
        nodes.append({"leaf": [draw(LEAF_VALUES), 1]})
        if depth < 4 and draw(st.booleans()):
            feature, threshold = draw(st.integers(0, width - 1)), draw(st.sampled_from(GRID))
            left = grow(depth + 1)
            nodes[at] = {"split": [feature, threshold, left, grow(depth + 1)]}
        return at

    grow(0)
    return nodes


@st.composite
def random_forest(draw, width):
    """Up to six random trees and a leaf, now and then with a chain of 33
    splits among them, so that walks end at very different depths."""
    trees = draw(st.lists(random_tree(width), min_size=1, max_size=6)) + [leaf_tree(draw(LEAF_VALUES))]
    if draw(st.booleans()):
        trees.insert(draw(st.integers(0, len(trees))), chain_tree(33, width))
    return trees


@contextmanager
def recorded(cls, name):
    """The (arguments, result) of each call of cls.name inside the block."""
    calls, original = [], getattr(cls, name)

    def spy(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    with mock.patch.object(cls, name, spy):
        yield calls


@contextmanager
def descent_levels():
    """The levels, read calls, of each PackedTrees._descend call made
    inside the block. A walk whose longest path passes n splits reads n
    levels to reach its leaves and one more to see that no pair moves."""
    levels = []
    descend = PackedTrees._descend

    def counting(packed, nodes, read):
        def counted(at):
            levels[-1] += 1
            return read(at)

        levels.append(0)
        return descend(packed, nodes, counted)

    with mock.patch.object(PackedTrees, "_descend", counting):
        yield levels


def saved_and_loaded(model):
    """The document save_model writes for `model`, as json.loads reads it,
    and load_model's monitor of that file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(model, path)
        return json.loads(path.read_text(encoding="utf-8")), load_model(path)


def bits(values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


def summary_bits(s) -> bytes:
    """The mean, std, low and up bytes of a ProbabilitySummary or BatchSummary."""
    return bits([s.mean, s.std, s.low, s.up])


def assert_rows_match_reference(forest, trees, x):
    """leaf_values, predict_batch and predict over the rows of x give the
    reference's leaf values and summaries over the node lists `trees`, bit
    for bit; each walk stops one level after its longest path."""
    walked = [[walk(nodes, row) for nodes in trees] for row in x.tolist()]
    values = [[value for value, _ in leaves] for leaves in walked]
    with descent_levels() as levels:
        per_tree = forest.packed.leaf_values(x)
    assert per_tree.shape == (len(trees), len(x)) and per_tree.T.tobytes() == bits(values)
    if len(x):
        assert levels == [max(depth for leaves in walked for _, depth in leaves) + 1]
    assert summary_bits(predict_batch(forest, x)) == (
        np.array([summary(v) for v in values]).reshape(len(x), 4).T.tobytes())
    for row, row_values, leaves in zip(x, values, walked):
        with descent_levels() as levels:
            assert forest.packed.leaf_values(row[None, :])[:, 0].tobytes() == bits(row_values)
        assert levels == [max(depth for _, depth in leaves) + 1]
        assert summary_bits(predict(forest, row)) == bits(summary(row_values))


def walked_depth(steps, tested) -> int:
    """The longest path the change-driven replay walks over an episode's
    reference steps: every tree at step 0, and at a later step each tree
    testing a feature (tested[k] for tree k) whose value that step changed."""
    longest, before = 0, None
    for step in steps:
        for features, depth in zip(tested, step.depths):
            if before is None or any(step.row[f] != before[f] for f in features):
                longest = max(longest, depth)
        before = step.row
    return longest


def assert_monitor_matches_reference(model, corpus, budget=monitor_module.ROW_BUDGET):
    """run_traces, in chunks of at most `budget` rows, gives the reference's
    assessments of each episode's Q-matrix bit for bit, down to each tree's
    leaf value, for `model` and for it saved and loaded again; so does
    observe, step by step, for `model`, on the feature vector it keeps in
    place. Each walk stops one level after its longest path."""
    doc, loaded = saved_and_loaded(model)
    wants = [Reference(doc).episode(qs.tolist()) for qs in corpus]
    tested = [{node["split"][0] for node in nodes if "split" in node} for nodes in doc["forest"]]
    for monitor in (model, loaded):
        with mock.patch.object(monitor_module, "ROW_BUDGET", budget), \
                recorded(PackedTrees, "prefix_leaf_values") as chunks, descent_levels() as levels:
            traces = run_traces(monitor, corpus)
        replayed, pending = [], iter(wants)
        for ((_, ids, _), (changed, last)), level in zip(chunks, levels):
            bounds = np.cumsum([len(episode_ids) for episode_ids in ids])[:-1]
            replayed += np.split(changed[:, last], bounds, axis=1)
            assert level == max(walked_depth(next(pending), tested) for _ in ids) + 1
        assert len(traces) == len(replayed) == len(corpus)
        for qs, want, trace, per_tree in zip(corpus, wants, traces, replayed):
            assert summary_bits(trace.series) == np.array([s.summary for s in want]).T.tobytes()
            assert [(a.t, a.fired, a.unseen_alert) for a in trace.assessments] == [
                (s.t, s.fired, s.unseen_alert) for s in want]
            assert trace.first_fire_step == first_fire_step(want)
            assert (trace.episode_length, trace.stop_hit) == (len(qs), want[-1].unseen_alert)
            # A replayed tree keeps its earlier leaf where the new one is equal
            # as a float, so a zero may keep its earlier sign (see forest.py).
            assert (per_tree.T + 0.0).tobytes() == bits(np.array([s.values for s in want]) + 0.0)

    for qs, want in zip(corpus, wants):
        running = RunningState.fresh(model)
        features = running.features
        with recorded(PackedTrees, "leaf_values") as scored, descent_levels() as levels:
            for step in want:
                got = observe(model, running, qs[step.t])
                assert (got.t, got.fired, got.unseen_alert) == (step.t, step.fired, step.unseen_alert)
                assert summary_bits(got.summary) == bits(step.summary)
                assert running.features is features and running.features.tolist() == step.row
        assert bits([values[:, 0] for _, values in scored]) == bits([s.values for s in want])
        assert levels == [max(s.depths) + 1 for s in want]
        if len(want) < len(qs):
            with pytest.raises(MonitorStopped):
                observe(model, running, qs[len(want)])
