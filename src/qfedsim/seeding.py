"""Counter-based derivation of random generators from a single master seed.

Every stochastic stage of an experiment owns a generator derived from
(master_seed, stage path), so results never depend on execution order:
training client 2 before client 1 consumes exactly the same streams.

Derivation uses numpy's SeedSequence spawn keys. The documented paths are:

    (STAGE_DATA,)                synthetic data generation / feature projection
    (STAGE_SPLIT,)               train/validation split
    (STAGE_PARTITION,)           client partition draws
    (STAGE_INIT,)                model parameter initialization
    (STAGE_CLIENT, round, client)   one client's local training in one round
"""

from __future__ import annotations

import numpy as np

STAGE_DATA = 1
STAGE_SPLIT = 2
STAGE_PARTITION = 3
STAGE_INIT = 4
STAGE_CLIENT = 5


def derive_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Return the generator for one stage of an experiment.

    Identical (master_seed, path) always yields an identical stream;
    distinct paths yield statistically independent streams.
    """
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(path))
    return np.random.default_rng(seq)


def client_rng(master_seed: int, round_index: int, client_index: int) -> np.random.Generator:
    """Generator owned by one client for one federated round."""
    return derive_rng(master_seed, STAGE_CLIENT, round_index, client_index)
