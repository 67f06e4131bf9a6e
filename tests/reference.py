"""The monitor by its definitions, in plain Python: the tests' oracle.

`Reference(doc)` reads the dict that json.loads gives for a saved
`monitor-model/1` file and answers what the monitor must answer, step by
step, from the definitions and not from the fast code:
- a Q-value's bucket is the snapped ceiling of q/d (`bucket`);
- a Q-vector's state is the id of its bucket key in the table's `keys`
  and `ids`, or None when the table has no such key (unseen);
- an episode's feature row over `feature_count` states counts the visits
  to each state (frequency mode) or holds 1 at each state visited
  (binary mode), built one step at a time (`prefix_rows`);
- each tree is walked from node 0 of its node list, ties going left, to
  a leaf's value (`walk`);
- the summary of the m leaf values is np.mean, np.std (population sigma)
  and the bounds mean -+ Z * std / sqrt(m), Z = 1.96, clamped to [0, 1],
  with a bound of -0.0 read as 0.0 (`summary`);
- the criterion holds at up >= theta, mean >= theta or low > theta, and
  an alarm latches for the rest of the episode;
- an unseen step leaves the row as it was; under the stop policy it
  raises the unseen alert and is the episode's last assessed step.
"""

import math
from typing import NamedTuple, Optional

import numpy as np

Z = 1.96
SNAP = 1e-12  # q/d within SNAP * max(1, |q/d|) of an integer is that integer


def bucket(q: float, d: float) -> int:
    """The snapped ceiling of q/d."""
    ratio = q / d
    nearest = round(ratio)  # half to even
    if abs(ratio - nearest) <= SNAP * max(1.0, abs(ratio)):
        return nearest
    return math.ceil(ratio)


def prefix_rows(ids, n: int, binary: bool):
    """The feature row of each prefix of a run of state ids over n states;
    an id of None or below 0 is unseen and changes nothing."""
    row = [0.0] * n
    for i in ids:
        if i is not None and i >= 0:
            row[i] = 1.0 if binary else row[i] + 1.0
        yield list(row)


def walk(nodes: list, row) -> tuple[float, int]:
    """The value of the leaf that `row` reaches in a tree's node list, and
    the number of splits on the way."""
    node, depth = nodes[0], 0
    while "split" in node:
        feature, threshold, left, right = node["split"]
        node, depth = nodes[left if row[feature] <= threshold else right], depth + 1
    return float(node["leaf"][0]), depth


def summary(values) -> tuple:
    """(mean, std, low, up) of the leaf values of m trees."""
    v = np.array(values, dtype=np.float64)
    mean, std = np.mean(v), np.std(v)
    half = Z * std / math.sqrt(len(v))
    low, up = (float(np.clip(bound, 0.0, 1.0)) + 0.0 for bound in (mean - half, mean + half))
    return float(mean), float(std), low, up


def out_of_bag_mean(trees: list, row, in_bag: list) -> float:
    """The mean leaf value of `row` over the trees whose in-bag count
    (in_bag[k]) is 0, in tree order; NaN when every tree drew the row."""
    total, votes = 0.0, 0
    for nodes, drawn in zip(trees, in_bag):
        if drawn == 0:
            total, votes = total + walk(nodes, row)[0], votes + 1
    return total / votes if votes else math.nan


class Step(NamedTuple):
    t: int
    summary: tuple  # mean, std, low, up
    fired: bool
    unseen_alert: bool
    row: list  # the feature row scored
    values: list  # each tree's leaf value
    depths: list  # each tree's splits passed


class Reference:
    def __init__(self, doc: dict):
        self.doc = doc
        table = doc["table"]
        self.index = {tuple(key): i for key, i in zip(table["keys"], table["ids"])}

    def state(self, q) -> Optional[int]:
        return self.index.get(tuple(bucket(v, self.doc["table"]["d"]) for v in q))

    def holds(self, mean, low, up) -> bool:
        theta, criterion = self.doc["theta"], self.doc["criterion"]
        return {"upper_bound": up >= theta, "output_probability": mean >= theta,
                "lower_bound": low > theta}[criterion]

    def episode(self, qs) -> list[Step]:
        """The assessment of each step of an episode's Q-vectors that the
        monitor assesses."""
        doc, steps, fired = self.doc, [], False
        ids = [self.state(q) for q in qs]
        rows = prefix_rows(ids, doc["feature_count"], doc["mode"] == "binary")
        for t, (i, row) in enumerate(zip(ids, rows)):
            values, depths = zip(*(walk(nodes, row) for nodes in doc["forest"]))
            mean, std, low, up = summary(values)
            fired = fired or self.holds(mean, low, up)
            stop = i is None and doc["unseen_policy"] == "stop"
            steps.append(Step(t, (mean, std, low, up), fired, stop, row, list(values), list(depths)))
            if stop:
                break
        return steps


def first_fire_step(steps: list[Step]) -> Optional[int]:
    return next((step.t for step in steps if step.fired), None)
