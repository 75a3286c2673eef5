"""detmit's benchmark: four workloads of `detmit run`, checked and timed.

    python3 perfbench/run.py --workload ladder-mitigate --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25

One run is one process.  It first replays the workload at the golden seed
(untimed warm-up, checked against golden.json), then runs batches at
`--seed` for `--seconds`, checking each.  Then it measures set-up in fresh
processes (setup_probe.py), unless tracing.

With `--trace 0` it reports the end-to-end metrics:

* trials_per_s  interquartile mean over batches of trials / run-path seconds;
* setup_s       median over SETUP_PROBES fresh processes of import +
                `build_instance`;

both scaled to the reference machine speed (calibrate.py) and printed
unscaled beside;
* peak_rss_mb   peak RSS of this process, less its file-backed pages, plus
                the largest worker process it waited on, read before the
                set-up probes start.

It prints failed_frac (failed / attempted trials) beside them.  With
`--trace 1` timed batches alternate with traced ones and it reports the
per-layer metrics (harness.PER_LAYER), writing the spans of the first traced
batch to .perfbench/spans-<workload>.tsv.  The last line of output is one
JSON object: correct, attempted, failed, metrics.

Exit codes: 0 when every check passed, 1 when a check failed, 2 when detmit
cannot be imported from this checkout's src/.  `--workload all` runs each
workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from calibrate import REFERENCE_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"
SETUP_PROBES = 5
END_TO_END_UNITS = {"trials_per_s": "trials/s", "setup_s": "s", "peak_rss_mb": "MB"}


def peak_rss_mb(inherited_kib: int) -> float:
    """Peak RSS of this process less its file-backed pages, plus the largest worker's.

    Leaving out the file-backed pages (about 18 MB of mapped interpreter and
    library files, the same in every run) makes the metric follow what the
    run allocates.  The children's peak counts only above `inherited_kib`, the
    peak this process inherited at start from children its launcher waited
    on before exec (a version-manager shim adds 3 MB that way).
    """
    with open("/proc/self/status") as fh:
        status = dict(line.split(":", 1) for line in fh)
    kib = {key: int(status[key].split()[0]) for key in ("VmHWM", "RssFile", "RssShmem")}
    own = kib["VmHWM"] - kib["RssFile"] - kib["RssShmem"]
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers if workers > inherited_kib else 0)) / 1024


def setup_seconds(name: str, seed: int) -> tuple[float, float, list[str]]:
    """Median set-up time over fresh processes: (scaled, raw, problems)."""
    scaled, raw, problems = [], [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            problems.append(f"setup probe failed: {proc.stderr.strip()[-300:]}")
            continue
        seconds, reference = map(float, proc.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds * REFERENCE_S / reference)
    if not raw:
        return 0.0, 0.0, problems
    return statistics.median(scaled), statistics.median(raw), problems


def _line(name: str, value: float, unit: str) -> str:
    return f"{name} = {value:.6g} {unit}"


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import harness

    inherited = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    run = harness.measure(name, seed, seconds, trace)
    rss = peak_rss_mb(inherited)
    setup_s, setup_raw, problems = (0.0, 0.0, []) if trace else setup_seconds(name, seed)
    batches = run.all_batches
    attempted = sum(b.trials for b in batches)
    failed = sum(b.failed for b in batches)
    problems = [p for b in batches for p in b.problems] + problems

    timed = run.batches
    print(f"workload {name} seed {seed}: {len(timed)} timed batches of "
          f"{WORKLOADS[name].trials} trials, {len(run.traced)} traced")
    done = [b for b in timed if b.props]
    for prop in done[0].props if done else ():
        print(_line(f"property {prop}", statistics.median(b.props[prop] for b in done), ""))
    if trace:
        metrics = harness.per_layer(timed, run.traced)
        units = {n: u for n, u, _ in harness.PER_LAYER}
        SPANS_DIR.mkdir(exist_ok=True)
        run.recorder.write(SPANS_DIR / f"spans-{name}.tsv")
    else:
        metrics = {
            "trials_per_s": harness.interquartile_mean([b.trials_per_s for b in timed]),
            "setup_s": setup_s,
            "peak_rss_mb": rss,
        }
        units = END_TO_END_UNITS
        print(_line("unscaled trials_per_s",
                    harness.interquartile_mean([b.raw_trials_per_s for b in timed]), "trials/s"))
        print(_line("unscaled setup_s", setup_raw, "s"))
    for key, value in metrics.items():
        print(_line(key, value, units[key]))
    print(_line("failed_frac", failed / attempted, "ratio"))
    for problem in problems:
        print(f"check failed: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process; one table of the end-to-end metrics."""
    status = 0
    header = ("workload", "trials_per_s", "setup_s", "peak_rss_mb", "failed_frac", "correct")
    print("{:<16} {:>20} {:>12} {:>14} {:>12} {:>8}".format(*header))
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name:<16} no result (exit {proc.returncode})\n{proc.stderr[-2000:]}")
            status = 1
            continue
        m = result["metrics"]
        frac = result["failed"] / result["attempted"]
        print(f"{name:<16} {m['trials_per_s']['value']:>11.4f} trials/s "
              f"{m['setup_s']['value']:>10.4f} s {m['peak_rss_mb']['value']:>11.2f} MB "
              f"{frac:>6.4f} ratio {str(result['correct']):>8}")
        if proc.returncode != 0 or not result["correct"]:
            status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "detmit" / "__init__.py").is_file():
        print(f"no detmit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
