"""Time what a `detmit run` user waits before the first trial, in a fresh process.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds taken by `import detmit` (with the CLI module `detmit run`
loads), config validation and `cli.build_instance`, then the seconds the
calibration loop takes right after in the same process.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from calibrate import reference_seconds
from workloads import config_for


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    fields = config_for(name, seed)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    import detmit  # noqa: F401
    from detmit import cli

    cli.build_instance(cli.ExperimentConfig(**fields))
    elapsed = time.perf_counter() - start
    print(elapsed, reference_seconds())


if __name__ == "__main__":
    main()
