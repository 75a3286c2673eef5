"""The benchmark's four workloads: `detmit run` configs, run length, and why.

A workload is an `ExperimentConfig` minus its seeds plus a run length (the
trials in one batch).  `config_for` derives the instance and master seeds
of batch `batch` from the benchmark's `--seed`, so the same seed always gives
the same sequence of inputs.  Batches differ so that a run averages over
trial mixes (aborts, levels) instead of timing one mix again and again.
Pinned transcript digests (golden.json) are of batch 0 at GOLDEN_SEED.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

GOLDEN_SEED = 0


@dataclass(frozen=True)
class Workload:
    config: dict
    trials: int  # run length: trials per batch; the golden digests depend on it
    why: str


WORKLOADS: dict[str, Workload] = {
    "ladder-mitigate": Workload(
        config=dict(task="ladder", game="mitigate", challenger="attack",
                    level_target=400, q=1, workers=2),
        trials=4,
        why="acceptance mitigation game: count-proof proving over 400-440 token "
        "witnesses, registry and FHE-circuit growth, and the workers=2 trial pool",
    ),
    "ladder-detect": Workload(
        config=dict(task="ladder", game="detect", challenger="attack",
                    detector="well_formed", level_target=16, q=1, workers=1),
        trials=100,
        why="many ~12 ms trials: sampling, signing, small proofs, FHE-eval queries "
        "and signature checks; no large-witness proving, so a proving change is a no-op",
    ),
    "chain-mitigate": Workload(
        config=dict(task="chain", game="mitigate", challenger="attack",
                    horizon=4096, q=1, workers=1),
        trials=40,
        why="hash-chain game: 4096 metered IVC steps per trial plus both audits; "
        "no Ed25519, count proofs or FHE",
    ),
    "toy-derived": Workload(
        config=dict(task="toy", game="detect", challenger="attack",
                    detector="derived", q=32, workers=1),
        trials=500,
        why="detection-from-mitigation reduction with ~1 ms trials and no simulated "
        "crypto: DRBG draws, classify agents and per-trial runner overhead",
    ),
}


def config_for(name: str, seed: int, batch: int = 0, **overrides: object) -> dict:
    """The full ExperimentConfig fields for batch `batch` of `name` at `seed`."""
    wl = WORKLOADS[name]
    digest = hashlib.sha256(f"perfbench/{name}/{seed}/{batch}".encode()).digest()
    return {
        **wl.config,
        "trials": wl.trials,
        "instance_seed": int.from_bytes(digest[:4], "big"),
        "master_seed": int.from_bytes(digest[4:8], "big"),
        **overrides,
    }
