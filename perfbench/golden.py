"""Pin or check the golden transcript digests in golden.json.

    python3 perfbench/golden.py          # recompute and compare; exit 1 on a mismatch
    python3 perfbench/golden.py --write  # recompute and pin

Each digest is the sha256 of one batch's JSONL transcript stream, as
`detmit run --transcripts` writes it, at GOLDEN_SEED and the workload's run
length.  It is computed with `workers=1`; a workload configured with more
workers must give the same bytes, or nothing is pinned.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
from workloads import GOLDEN_SEED, WORKLOADS  # noqa: E402


def compute() -> tuple[dict[str, dict], list[str]]:
    pins, problems = {}, []
    for name, wl in WORKLOADS.items():
        serial = harness.run_batch(name, GOLDEN_SEED, workers=1)
        problems += [f"{name}: {p}" for p in serial.problems]
        if wl.config.get("workers", 1) != 1:
            pooled = harness.run_batch(name, GOLDEN_SEED, 0, serial.digest)
            problems += [f"{name} workers={wl.config['workers']}: {p}" for p in pooled.problems]
        pins[name] = {"trials": wl.trials, "sha256": serial.digest}
    return pins, problems


def main() -> int:
    pins, problems = compute()
    for problem in problems:
        print(f"check failed: {problem}")
    if problems:
        return 1
    if "--write" in sys.argv[1:]:
        harness.GOLDEN_PATH.write_text(json.dumps(
            {"seed": GOLDEN_SEED, "workloads": pins}, indent=2) + "\n")
        print(f"pinned {len(pins)} digests in {harness.GOLDEN_PATH.name}")
        return 0
    pinned = harness.load_golden()
    status = 0
    for name, pin in pins.items():
        ok = pinned.get(name) == pin
        status |= not ok
        print(f"{name}: {pin['sha256']} {'ok' if ok else 'MISMATCH'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
