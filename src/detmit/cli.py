"""The experiment API: configs, the parties of each game, trial batches, summaries.

:class:`ExperimentConfig` reads a batch's config strictly; `run_trial` plays
trial `i` of it in its own world, `run_batch` plays them all, and `summarize`
folds transcript records into headline rates.  The ``detmit`` command
(:mod:`detmit.commands`) drives this API, and it loads without click.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

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
    return summarize_transcripts(map(Transcript.from_record, records), epsilon)


def summarize_transcripts(transcripts: Iterable[Transcript], epsilon: float) -> dict:
    """`summarize` of transcripts already read from their records."""
    trials = done = nature = correct = incomplete = unsound = queries = asked = 0
    aborts: dict[str, int] = {}
    maxima: dict[str, dict[str, int]] = {}
    for t in transcripts:
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


def _emit_pairs(instance: Any, seed: int, n: int) -> Iterator[tuple[bytes, bytes]]:
    """The `n` pairs gen-instance emits for the instance built from `seed`, one at a time."""
    rng = HashDrbg(seed).child("emit-pairs")
    for _ in range(n):
        yield instance.sample_pair(rng)
