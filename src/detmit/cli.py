"""Command-line harness: generate instances, run trial batches, verify pairs.

Subcommands:

* ``gen-instance`` — build a task instance from a seed; write its public
  verification state and a secret reconstruction file, optionally emitting
  sample pairs.
* ``run``          — run a batch of detection or mitigation trials from a
  JSON config; write a JSONL transcript stream and a JSON summary.
* ``verify-pair``  — rebuild an instance from its secret file, check the
  public file against it, and recheck emitted pairs.
* ``report``       — summarize an existing transcript stream.

Exit codes: 0 on success, 2 on configuration/usage errors, 3 when a
verification or audit fails.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, TextIO

import click

from .classify import (
    DetectorFromMitigator,
    LazyMitigator,
    MitigatorFromDetector,
    ToyAttacker,
    ToyDetector,
    ToyMitigator,
    ToyTrainer,
    make_toy_instance,
)
from .core import (
    NATURE,
    GameParams,
    NatureChallenger,
    RateEstimate,
    Transcript,
    completeness_violation,
    run_dbd_trial,
    run_dbm_trial,
    soundness_violation,
)
from .drbg import SEED_MAX, SEED_MIN, HashDrbg, derive_trial_seed
from .payloads import bottom
from .sampleagents import (
    FrequencyDetector,
    LadderTrainer,
    LevelThresholdDetector,
    NeverFlagDetector,
    ProofExtendingMitigator,
    SelfIterationAttacker,
    WellFormedDetector,
)
from .sampletask import make_data_instance
from .timetask import (
    ChainClimbingAttacker,
    ChainExtendingMitigator,
    HORIZON,
    TimeTrainer,
    audit_conservation,
    audit_sequential_reach,
    make_time_instance,
)

DEFAULT_Q = {"ladder": 1, "chain": 1, "toy": 32}

# Caps on the knobs that set what one run costs, each key alone: a trial at
# any cap takes about a second or less and an instance at most about 365 MB,
# and a run's memory is flat in its trials but its time is not (100,000 ladder
# mitigate trials take about 7.5 min).  The README's config section gives the
# cost measured behind each.
MAX_HORIZON = 2**20
MAX_TRIALS = 100_000
MAX_Q = 4096
MAX_LEVEL_TARGET = 2**14
MAX_ATTACKER_SAMPLES = 2**14
MAX_WORKERS = 64
MAX_EMIT_PAIRS = 2**16

# Each factory takes the config and returns a fresh party, which reaches the
# task only through its moves' `ctx.task`.
Factory = Callable[[Any], Any]

# task -> (trainer, attacker)
PARTIES: dict[str, tuple[Factory, Factory]] = {
    "ladder": (
        lambda cfg: LadderTrainer(cfg.level_target),
        lambda cfg: SelfIterationAttacker(
            8 if cfg.attacker_samples is None else cfg.attacker_samples
        ),
    ),
    # the chain is built out from cfg.horizon (build_instance)
    "chain": (lambda cfg: TimeTrainer(cfg.horizon), lambda cfg: ChainClimbingAttacker(cfg.horizon)),
    "toy": (lambda cfg: ToyTrainer(), lambda cfg: ToyAttacker()),
}

# (task, game) -> {defense name: factory}; the first name is the default.
DEFENSES: dict[tuple[str, str], dict[str, Factory]] = {
    ("ladder", "detect"): {
        "never_flag": lambda cfg: NeverFlagDetector(),
        "level_threshold": lambda cfg: LevelThresholdDetector(),
        "frequency": lambda cfg: FrequencyDetector(),
        "well_formed": lambda cfg: WellFormedDetector(),
    },
    ("ladder", "mitigate"): {"extend": lambda cfg: ProofExtendingMitigator(cfg.level_target)},
    ("chain", "detect"): {"never_flag": lambda cfg: NeverFlagDetector()},
    ("chain", "mitigate"): {"extend": lambda cfg: ChainExtendingMitigator()},
    ("toy", "detect"): {
        "toy": lambda cfg: ToyDetector(),
        "derived": lambda cfg: DetectorFromMitigator(ToyMitigator()),
    },
    ("toy", "mitigate"): {
        "toy": lambda cfg: ToyMitigator(),
        "lazy": lambda cfg: LazyMitigator(),
        "from_detector": lambda cfg: MitigatorFromDetector(ToyDetector()),
    },
}


_BOUND_TEXT = {SEED_MIN: "-2**127", SEED_MAX: "2**127 - 1"}


def _check_int(name: str, value: object, least: int, most: int) -> None:
    """Raise ValueError naming `name` unless `value` is an int, not a bool, in [least, most]."""
    if type(value) is not int or not least <= value <= most:
        low, high = _BOUND_TEXT.get(least, least), _BOUND_TEXT.get(most, most)
        raise ValueError(f"{name} must be an int in [{low}, {high}], got {value!r:.40}")


def _epsilon_ok(epsilon: float) -> bool:
    """Whether `epsilon` lies in the open range (0, 0.5); NaN does not."""
    return 0 < epsilon < 0.5


# field -> the values it takes
_CHOICES = {
    "task": ("ladder", "chain", "toy"),
    "game": ("detect", "mitigate"),
    "challenger": ("nature", "attack"),
}
# int field -> (least, most); a field whose default is None also takes None,
# meaning left out
_INTS: dict[str, tuple[int, int]] = {
    "q": (1, MAX_Q),
    "trials": (1, MAX_TRIALS),
    "level_target": (1, MAX_LEVEL_TARGET),
    "horizon": (4, MAX_HORIZON),
    "attacker_samples": (0, MAX_ATTACKER_SAMPLES),
    "instance_seed": (SEED_MIN, SEED_MAX),
    "master_seed": (SEED_MIN, SEED_MAX),
    "workers": (1, MAX_WORKERS),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One trial batch: task, game, parties, parameters, seeds.

    Construction checks every field strictly (an int field takes no bool,
    string or float) and raises ValueError naming the field.
    """

    task: str = "ladder"
    game: str = "detect"
    challenger: str = "nature"
    # None picks the first defense DEFENSES lists for (task, game)
    detector: str | None = None
    mitigator: str | None = None
    epsilon: float = 0.05
    q: int | None = None
    trials: int = 64
    # None means not given: checked against the task, then set to 16 / 256
    level_target: int | None = None
    horizon: int | None = None
    attacker_samples: int | None = None
    instance_seed: int = 1
    master_seed: int = 2
    # accepted for old configs; trials run one at a time whatever it says
    workers: int = 1

    @classmethod
    def model_validate(cls, data: object) -> "ExperimentConfig":
        """Read a config from a mapping of field names, such as a parsed JSON object."""
        if not isinstance(data, dict):
            raise ValueError(f"a config is a JSON object, not {type(data).__name__}")
        unknown = [key for key in data if key not in cls.__dataclass_fields__]
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(map(repr, unknown))}")
        return cls(**data)

    def __post_init__(self) -> None:
        for key, choices in _CHOICES.items():
            if getattr(self, key) not in choices:
                raise ValueError(f"{key} must be one of {', '.join(choices)}")
        for key in ("detector", "mitigator"):
            if type(getattr(self, key)) not in (str, type(None)):
                raise ValueError(f"{key} must be a string")
        if type(self.epsilon) not in (int, float) or not _epsilon_ok(self.epsilon):
            raise ValueError(f"epsilon must be a number in (0, 0.5), got {self.epsilon!r:.40}")
        object.__setattr__(self, "epsilon", float(self.epsilon))
        for key, (least, most) in _INTS.items():
            value = getattr(self, key)
            if value is not None or self.__dataclass_fields__[key].default is not None:
                _check_int(key, value, least, most)

        role, unread = (
            ("detector", "mitigator") if self.game == "detect" else ("mitigator", "detector")
        )
        if getattr(self, unread) is not None:
            raise ValueError(f"{unread} is not read by {self.game} games")
        if self.attacker_samples is not None and self.task != "ladder":
            raise ValueError("attacker_samples is read only by the ladder attacker")
        for key, task, default in (("level_target", "ladder", 16), ("horizon", "chain", 256)):
            if getattr(self, key) is None:
                object.__setattr__(self, key, default)
            elif self.task != task:
                raise ValueError(f"{key} is read only by the {task} task")
        choices = DEFENSES[self.task, self.game]
        if self.defense() not in choices:
            raise ValueError(
                f"{role} {self.defense()!r} does not play {self.task} {self.game}; "
                f"choose one of {', '.join(choices)}"
            )
        # built once: every trial reads it, and building one costs about 1 us
        q = self.q if self.q is not None else DEFAULT_Q[self.task]
        object.__setattr__(self, "_params", GameParams(epsilon=self.epsilon, q=q))

    def defense(self) -> str:
        """The configured defense's name in DEFENSES."""
        name = self.detector if self.game == "detect" else self.mitigator
        return name if name is not None else next(iter(DEFENSES[self.task, self.game]))

    def params(self) -> GameParams:
        return self._params


def _build_task(task: str, seed: int, horizon: int) -> Any:
    if task == "ladder":
        return make_data_instance(seed)
    if task == "chain":
        return make_time_instance(seed, horizon)
    return make_toy_instance(seed)


def build_instance(cfg: ExperimentConfig) -> Any:
    return _build_task(cfg.task, cfg.instance_seed, cfg.horizon)


def build_parties(cfg: ExperimentConfig) -> tuple[Any, Any, Any]:
    """Returns (trainer, challenger, defense) for the configured game."""
    trainer, attacker = PARTIES[cfg.task]
    challenger = attacker(cfg) if cfg.challenger == "attack" else NatureChallenger()
    return trainer(cfg), challenger, DEFENSES[cfg.task, cfg.game][cfg.defense()](cfg)


def run_trial(cfg: ExperimentConfig, instance: Any, i: int) -> Transcript:
    """Trial `i` of `cfg`'s batch, in `instance.world(seed)`: a function of `cfg`, the
    instance seed and `i`."""
    seed = derive_trial_seed(cfg.master_seed, i)
    # built per trial, so a trial is a function of (cfg, i); building draws nothing
    trainer, challenger, defense = build_parties(cfg)
    runner = run_dbd_trial if cfg.game == "detect" else run_dbm_trial
    return runner(instance.world(seed), trainer, challenger, defense, cfg.params(), seed, i)


def run_batch(cfg: ExperimentConfig) -> tuple[Any, list[Transcript]]:
    instance = build_instance(cfg)
    return instance, [run_trial(cfg, instance, i) for i in range(cfg.trials)]


def summarize(records: Iterable[dict], epsilon: float) -> dict:
    """Headline rates (with Wilson 95% intervals) from transcript records, folded one at a time."""
    trials = done = nature = correct = incomplete = unsound = queries = asked = 0
    aborts: dict[str, int] = {}
    maxima: dict[str, dict[str, int]] = {}
    for rec in records:
        t = Transcript.from_record(rec)
        trials += 1
        for role, led in t.ledgers.items():
            slot = maxima.setdefault(role, {"samples_used": 0, "steps_used": 0})
            for key in slot:
                if led.get(key) is not None:
                    slot[key] = max(slot[key], led[key])
        if t.aborted is not None:
            aborts[t.aborted] = aborts.get(t.aborted, 0) + 1
            continue
        done += 1
        correct += t.err_fx is not None and t.err_fx <= epsilon
        unsound += soundness_violation(t, epsilon)
        if t.origin == NATURE:
            nature += 1
            incomplete += completeness_violation(t)
        elif (q := t.ledgers.get(t.origin, {}).get("queries")) is not None:
            queries, asked = queries + q, asked + 1

    def rate(hits: int, rows: int) -> dict | None:
        return RateEstimate.from_counts(hits, rows).as_dict() if rows else None

    return {
        "trials": trials,
        "correctness_rate": rate(correct, done),
        "completeness_violation_rate": rate(incomplete, nature),
        "soundness_violation_rate": rate(unsound, done),
        "abort_rates": {k: v / trials for k, v in sorted(aborts.items())},
        "mean_attacker_queries": queries / asked if asked else None,
        "ledger_maxima": maxima,
    }


# --- instance serialization -------------------------------------------------------


def _public_file(instance: Any) -> Iterator[bytes]:
    """The bytes of `json.dumps(instance.public_state(), indent=2)` and a newline, row by row.

    gen-instance writes them as the public file; verify-pair compares that
    file with them.
    """
    scalars, key, rows = instance.public_state()
    head = json.dumps({**scalars, key: []}, indent=2)
    yield head[: -len("[]\n}")].encode()
    dump, empty = json.JSONEncoder().encode, True  # json.dumps with its defaults, less its checks
    for row in rows:  # a flat list at depth 2: its items indent by 6
        items = ",\n      ".join(map(dump, row))
        yield f"{'[' if empty else ','}\n    [\n      {items}\n    ]".encode()
        empty = False
    yield b"[]\n}\n" if empty else b"\n  ]\n}\n"


def _holds(fh: BinaryIO, chunks: Iterator[bytes]) -> bool:
    """Whether what is left of `fh` is the bytes of `chunks`, read a chunk at a time."""
    return all(fh.read(len(chunk)) == chunk for chunk in chunks) and not fh.read(1)


def _emit_pairs(instance: Any, seed: int, n: int) -> Iterator[tuple[bytes, bytes]]:
    """The `n` pairs gen-instance emits for the instance built from `seed`, one at a time."""
    rng = HashDrbg(seed).child("emit-pairs")
    for _ in range(n):
        yield instance.sample_pair(rng)


# --- commands ----------------------------------------------------------------------


@click.group()
def main() -> None:
    """Detection-vs-mitigation game harness."""


def _numbered_lines(path: str) -> Iterator[tuple[int, str]]:
    """The lines of the file at `path`, numbered from 1; a usage error if it is not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, 1)
        except UnicodeDecodeError as exc:
            raise click.UsageError(f"{path} is not UTF-8 text: {exc}") from None


def _output_file(ctx: click.Context, param: click.Parameter, value: str | None) -> str | None:
    """`value`, if its directory exists and is writable: checked before any trial runs."""
    if value is not None:
        parent = Path(value).parent
        if not (parent.is_dir() and os.access(parent, os.W_OK)):
            raise click.BadParameter(f"{str(parent)!r} is not a writable directory")
    return value


def _load_config(path: str) -> ExperimentConfig:
    try:
        return ExperimentConfig.model_validate(json.loads(Path(path).read_text()))
    # ValueError covers bad JSON, bad UTF-8 and every field rule; RecursionError
    # is json.loads on too deeply nested input
    except (OSError, ValueError, RecursionError) as exc:
        raise click.UsageError(f"bad config {path}: {exc}") from exc


@main.command("gen-instance")
@click.option("--task", type=click.Choice(["ladder", "chain"]), default="ladder")
@click.option("--seed", type=click.IntRange(SEED_MIN, SEED_MAX), default=1, show_default=True)
@click.option("--horizon", type=click.IntRange(4, MAX_HORIZON), help="chain only (default 256)")
@click.option("--out", type=click.Path(), required=True, help="output prefix")
@click.option(
    "--emit-pairs", type=click.IntRange(0, MAX_EMIT_PAIRS), default=0, show_default=True
)
def cmd_gen_instance(task: str, seed: int, horizon: int | None, out: str, emit_pairs: int) -> None:
    """Build an instance; write <out>.pub.json, <out>.sec.json[, <out>.pairs.jsonl]."""
    if horizon is not None and task != "chain":
        raise click.UsageError("horizon is read only by the chain task")
    horizon = HORIZON if horizon is None else horizon
    cfg = {"task": task, "seed": seed, "horizon": horizon, "emit_pairs": emit_pairs}
    prefix = Path(out)
    try:  # before the build, so an --out that cannot be written fails at once
        prefix.parent.mkdir(parents=True, exist_ok=True)
    except OSError:
        pass
    if not (prefix.parent.is_dir() and os.access(prefix.parent, os.W_OK)):
        raise click.BadParameter(
            f"{str(prefix.parent)!r} is not a writable directory", param_hint="'--out'"
        )
    instance = _build_task(task, seed, horizon)
    paths = [prefix.with_suffix(".pub.json"), prefix.with_suffix(".sec.json")]
    if emit_pairs:
        paths.append(prefix.with_suffix(".pairs.jsonl"))
        with paths[2].open("w") as fh:
            for x, y in _emit_pairs(instance, seed, emit_pairs):
                fh.write(json.dumps({"x": x.hex(), "y": y.hex()}) + "\n")
    # after the pairs: each ladder pair registers the proofs it carries
    with paths[0].open("wb") as fh:
        fh.writelines(_public_file(instance))
    paths[1].write_text(json.dumps(cfg, indent=2) + "\n")
    click.echo(f"wrote {', '.join(map(str, paths))}")


def _rebuild(sec: object) -> Any:
    """The instance the secret file `sec` names, with its pair emission replayed."""
    if not isinstance(sec, dict):
        raise click.UsageError("secret file must hold a JSON object")
    task = sec.get("task")
    if task not in ("ladder", "chain"):
        raise click.UsageError(
            f"cannot verify task {task!r}; gen-instance writes ladder and chain instances"
        )
    # (key, least, most) of each int the secret file holds
    ints = (("seed", SEED_MIN, SEED_MAX), ("horizon", 4, MAX_HORIZON),
            ("emit_pairs", 0, MAX_EMIT_PAIRS))
    missing = [key for key, _, _ in ints if key not in sec]
    if missing:
        raise click.UsageError(f"secret file lacks {', '.join(missing)}")
    try:
        for key, least, most in ints:
            _check_int(f"secret file's {key}", sec[key], least, most)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    instance = _build_task(task, sec["seed"], sec["horizon"])
    for _ in _emit_pairs(instance, sec["seed"], sec["emit_pairs"]):
        pass
    return instance


@main.command("verify-pair")
@click.option("--instance", "prefix", type=click.Path(), required=True,
              help="prefix used with gen-instance")
@click.option("--pairs", type=click.Path(exists=True, dir_okay=False), required=True)
def cmd_verify_pair(prefix: str, pairs: str) -> None:
    """Recheck emitted (x, y) pairs: every x must be genuine and every y answer it.

    The secret file is the whole recipe: the instance is rebuilt from it and
    its pair emission replayed, and the public file must equal the state
    that leaves, before any pair is scored.
    """
    base = Path(prefix)
    try:
        sec = json.loads(base.with_suffix(".sec.json").read_text())
        pub = base.with_suffix(".pub.json").open("rb")
    except (OSError, ValueError, RecursionError) as exc:
        raise click.UsageError(f"cannot read instance files: {exc}") from exc
    with pub:
        instance = _rebuild(sec)
        if not _holds(pub, _public_file(instance)):
            raise click.UsageError(
                "public file does not match the instance the secret file rebuilds "
                f"(task {sec['task']!r}, seed {sec['seed']})"
            )
    no_answer = bottom(instance.width)
    bad = total = 0
    for lineno, line in _numbered_lines(pairs):
        try:
            rec = json.loads(line)
            x, y = bytes.fromhex(rec["x"]), bytes.fromhex(rec["y"])
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise click.UsageError(f"bad pair on line {lineno} of {pairs}: {exc}") from exc
        total += 1
        # h scores a forged x 0 with any y, and a genuine one 1 with no answer
        if instance.h(x, y) or not instance.h(x, no_answer):
            bad += 1
    click.echo(f"{total - bad}/{total} pairs verified")
    if bad:
        sys.exit(3)


def _written(cfg: ExperimentConfig, instance: Any, fh: TextIO) -> Iterator[dict]:
    """Each trial's record, read back from its line once that line is written to `fh`."""
    for i in range(cfg.trials):
        line = run_trial(cfg, instance, i).to_json()
        fh.write(line + "\n")
        yield json.loads(line)


def _read(path: str) -> Iterator[dict]:
    """The record on each non-blank line of the transcript stream at `path`, checked."""
    for lineno, line in _numbered_lines(path):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            Transcript.from_record(rec)
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise click.UsageError(
                f"bad transcript on line {lineno} of {path}: {type(exc).__name__}: {exc}"
            ) from exc
        yield rec


@main.command("run")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--transcripts", type=click.Path(dir_okay=False, writable=True), default=None,
              callback=_output_file)
@click.option("--summary", "summary_path", type=click.Path(dir_okay=False, writable=True),
              default=None, callback=_output_file)
def cmd_run(config_path: str, transcripts: str | None, summary_path: str | None) -> None:
    """Run a trial batch; write transcripts (JSONL) and a summary (JSON)."""
    cfg = _load_config(config_path)
    instance = build_instance(cfg)
    with open(transcripts or os.devnull, "w") as fh:
        out = summarize(_written(cfg, instance, fh), cfg.epsilon)
    if cfg.task == "chain":
        out["audits"] = {
            "conservation": audit_conservation(instance),
            "sequential_reach": audit_sequential_reach(instance),
        }
    text = json.dumps(out, indent=2)
    if summary_path:
        Path(summary_path).write_text(text + "\n")
    click.echo(text)
    if cfg.task == "chain" and not all(out["audits"].values()):
        sys.exit(3)


def _report_epsilon(ctx: click.Context, param: click.Parameter, value: float) -> float:
    if not _epsilon_ok(value):
        raise click.BadParameter(f"{value} is not in the open range (0, 0.5)")
    return value


@main.command("report")
@click.option("--transcripts", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--epsilon", type=float, default=0.05, show_default=True,
              callback=_report_epsilon)
def cmd_report(transcripts: str, epsilon: float) -> None:
    """Summarize an existing transcript stream."""
    out = summarize(_read(transcripts), epsilon)
    if not out["trials"]:
        raise click.UsageError("transcript stream is empty")
    click.echo(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
