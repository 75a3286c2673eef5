"""One-line mutants of detmit's rules, and the tests that kill them.

    python tests/mutants.py              # every mutant
    python tests/mutants.py 0 3          # the mutants at these indices

Each mutant is `(module, old, new, why)`: a plain text replacement of `old`,
which occurs exactly once in the module (tests/test_mutants.py checks that),
by `new`.  `why` names the rule the mutant breaks.

For each mutant the runner copies the tree (`src/`, `tests/`, `perfbench/`
and `pyproject.toml`) to a temporary directory, applies the mutant there,
and runs the tier-1 suite on the copy with `-x`, leaving out the golden
pins and the self-check of this list.  If no test fails, it runs the pins
alone.  For each mutant it prints the first test that failed, `pin only:
<test>` when only a golden pin or the benchmark's digest check failed, or
`SURVIVED`.  It exits 1 if a mutant survived or only a pin killed it.
Standard library only; the checkout is never written.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS: list[tuple[str, str, str, str]] = [
    (
        "detmit.sampleagents",
        "isinstance(p, ClearPayload) and p.level > cap",
        "isinstance(p, ClearPayload) and p.level > cap + 1",
        "LevelThresholdDetector flags a clear level past the model's cap, cap + 1 included",
    ),
    (
        "detmit.sampleagents",
        "3 / (2 * sqrt(len(xs)))",
        "2 / (2 * sqrt(len(xs)))",
        "FrequencyDetector's margin is 3 sigma; at 2 sigma 13 sealed of 16 would flag",
    ),
    (
        "detmit.core",
        "return err is not None and err > epsilon",
        "return err is not None and err > 2 * epsilon",
        "soundness fails past epsilon; err 1/16 at q=16 lies in (eps, 2 eps]",
    ),
    (
        "detmit.sampletask",
        "if not answers(cur, yp):",
        "if yp is None:",
        "climb stops at the first answer that does not answer, decodable or not",
    ),
    (
        "detmit.sampletask",
        "cur, x = yp, y",
        "cur, x = yp, x",
        "climb asks with each accepted answer's own bytes",
    ),
]

# golden pins: they say that bytes moved, not which rule broke
PINS = (
    "tests/test_golden.py",
    "perfbench/test_perfbench.py::test_digest_check_rejects_one_changed_byte",
)
# the check of this list, which any applied mutant fails
SELF_CHECK = "tests/test_mutants.py"
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
TIMEOUT_S = 900


def module_path(root: Path, module: str) -> Path:
    """The source file of dotted `module` under `root`'s `src/`."""
    return root / "src" / Path(*module.split(".")).with_suffix(".py")


def _first_failure(tree: Path, args: list[str]) -> str | None:
    """The node id of the first test that fails in `tree`, or None if all pass."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(TIER1 + args, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S} s"
    for line in done.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return None if done.returncode == 0 else f"pytest exit {done.returncode}"


def run(index: int, tmp: Path) -> str:
    """Apply mutant `index` to a fresh copy of the tree under `tmp` and say what killed it."""
    module, old, new, _ = MUTANTS[index]
    tree = tmp / f"mutant-{index}"
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", ".perfbench")
    for part in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / part, tree / part, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", tree)
    path = module_path(tree, module)
    text = path.read_text()
    if text.count(old) != 1:
        return f"not applied: `old` occurs {text.count(old)} times"
    path.write_text(text.replace(old, new))
    killer = _first_failure(tree, [a for t in (SELF_CHECK, *PINS) for a in ("--deselect", t)])
    if killer is None:
        pin = _first_failure(tree, list(PINS))
        killer = "SURVIVED" if pin is None else f"pin only: {pin}"
    shutil.rmtree(tree)
    return killer


def main(argv: list[str]) -> int:
    indices = [int(a) for a in argv] or range(len(MUTANTS))
    bad = 0
    with tempfile.TemporaryDirectory(prefix="detmit-mutants-") as tmp:
        for i in indices:
            module, old, new, why = MUTANTS[i]
            killer = run(i, Path(tmp))
            bad += killer == "SURVIVED" or killer.startswith(("pin only", "not applied"))
            print(f"{i}  {module}: `{old}` -> `{new}`\n   {why}\n   killed by: {killer}",
                  flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
