"""How Q-value bucketing collapses the state space.

Builds abstraction tables over one corpus at several levels d and shows
the bucket arithmetic: each per-action Q-value is mapped to ceil(q / d),
so a larger d means wider buckets, fewer abstract states, and coarser
features for the violation predictor.
"""

import numpy as np

from safemon import CARTPOLE, AgentModel, FeatureMode, bucketize, collect
from safemon.abstraction import AbstractionTable, episode_feature_matrix
from safemon.agent import QNetwork, he_params

print("bucket arithmetic at d = 0.11:")
for q in ([0.25, 0.70], [0.22, -0.30], [1.0, 1.0]):
    print(f"  q = {q!r:<16} -> key {bucketize(q, 0.11)}")

# A throwaway agent is enough to produce a Q-value stream to abstract.
layer_sizes = (4, 16, 2)
network = QNetwork(layer_sizes, he_params(layer_sizes, np.random.default_rng(0)),
                   input_offset=np.zeros(4), input_scale=np.array([2.4, 3.0, 0.21, 3.0]))
agent = AgentModel(env_kind=CARTPOLE, network=network, gamma=0.99, seed=0, steps_trained=0)
corpus = collect(agent, 150, seed=7)


def distinct_q_count(episode_set) -> int:
    """Number of distinct per-step Q-vectors in a corpus."""
    seen = set()
    for episode in episode_set.episodes:
        seen.update(map(tuple, episode.qs.tolist()))
    return len(seen)


print(f"\ncorpus: {len(corpus)} episodes, {distinct_q_count(corpus)} distinct Q-vectors")

print(f"\n{'d':>8} {'abstract states':>16}")
for d in (0.001, 0.01, 0.1, 1.0, 10.0):
    table = AbstractionTable.build(corpus, d)
    print(f"{d:>8} {table.n:>16}")

table = AbstractionTable.build(corpus, 0.1)
ids = table.corpus_ids[0]
print(f"\nat d=0.1 the first episode visits ids {sorted(set(ids.tolist()))!r}")
(binary,) = episode_feature_matrix([ids], table.n, FeatureMode.BINARY)
(frequency,) = episode_feature_matrix([ids], table.n, FeatureMode.FREQUENCY)
nz = np.nonzero(frequency)[0]
print("feature vectors over those ids (binary: presence, frequency: visits):")
print("  binary   ", binary[nz])
print("  frequency", frequency[nz])
