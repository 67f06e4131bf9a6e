"""The benchmark's tracer (perfbench/layers.py) wraps safemon by name: a
deleted or renamed wrap target fails here, not in a traced benchmark run."""

from pathlib import Path

import numpy as np

from conftest import forest_of, id_table, split_tree
from safemon import abstraction, envs, forest, monitor
from safemon.monitor import MonitorModel, RunningState

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_layers_install_traces_observe_and_uninstall_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    def targets():
        return (
            forest.train_forest,
            forest.predict,
            forest.predict_batch,
            monitor.observe,
            forest.Tree.__dict__["probability"],
            envs.CartPoleEnv.__dict__["step"],
            abstraction.AbstractionTable.__dict__["lookup"],
        )

    before = targets()
    tracer = spans.Tracer()
    uninstall = layers.install(tracer)
    try:
        assert all(a is not b for a, b in zip(targets(), before))
        model = MonitorModel(table=id_table(2), forest=forest_of([split_tree(1, 0.5, 0.2, 0.9)], 2))
        running = RunningState.fresh(model)
        means = [monitor.observe(model, running, np.array([k + 0.5])).summary.mean for k in (0, 1)]
        # The fit hook reads the forest's n_trees and trees.
        x = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        fitted = forest.train_forest(x, np.array([0, 1, 1, 0]), 3, seed=0)
    finally:
        uninstall()
    assert targets() == before
    assert means == [0.2, 0.9]
    # observe scores each step in forest.predict, on the packed walk.
    traced = tracer.by_name()
    assert len(traced["monitor.observe"]["total"]) == 2
    assert len(traced["forest.predict"]["total"]) == 2
    assert "forest.predict_batch" not in traced
    assert tracer.counters.get("forest.tree_walks", 0) == 0
    assert len(traced["forest.fit"]["total"]) == 1
    assert tracer.counters["forest.fit.trees"] == fitted.n_trees == 3
    assert tracer.counters["forest.fit.node_total"] == sum(len(t.feature) for t in fitted.trees)
