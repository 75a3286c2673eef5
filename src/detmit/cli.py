"""Command-line harness: generate instances, run trial batches, verify pairs.

Subcommands:

* ``gen-instance`` — build a task instance from a seed; write its public
  verification state and a secret reconstruction file, optionally emitting
  sample pairs.
* ``run``          — run a batch of detection or mitigation trials from a
  JSON config; write a JSONL transcript stream and a JSON summary.
* ``verify-pair``  — recheck emitted pairs against a reconstructed instance.
* ``report``       — summarize an existing transcript stream.

Exit codes: 0 on success, 2 on configuration/usage errors, 3 when a
verification or audit fails.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Literal

import click
from pydantic import BaseModel, ConfigDict, Field, ValidationError, model_validator

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
from .drbg import HashDrbg, derive_trial_seed
from .sampleagents import (
    FrequencyDetector,
    LadderTrainer,
    LevelThresholdDetector,
    NeverFlagDetector,
    ProofExtendingMitigator,
    SelfIterationAttacker,
    WellFormedDetector,
)
from .sampletask import DataTaskInstance, make_data_instance
from .timetask import (
    ChainClimbingAttacker,
    ChainExtendingMitigator,
    TimeTaskInstance,
    TimeTrainer,
    audit_conservation,
    audit_sequential_reach,
    make_time_instance,
)

DEFAULT_Q = {"ladder": 1, "chain": 1, "toy": 32}

# Each factory takes (config, instance) and returns a fresh party.
Factory = Callable[[Any, Any], Any]

# task -> (trainer, attacker)
PARTIES: dict[str, tuple[Factory, Factory]] = {
    "ladder": (
        lambda cfg, inst: LadderTrainer(inst, cfg.level_target),
        lambda cfg, inst: SelfIterationAttacker(
            inst, 8 if cfg.attacker_samples is None else cfg.attacker_samples
        ),
    ),
    "chain": (
        lambda cfg, inst: TimeTrainer(inst),
        lambda cfg, inst: ChainClimbingAttacker(inst),
    ),
    "toy": (lambda cfg, inst: ToyTrainer(), lambda cfg, inst: ToyAttacker(inst)),
}

# (task, game) -> {defense name: factory}; the first name is the default.
DEFENSES: dict[tuple[str, str], dict[str, Factory]] = {
    ("ladder", "detect"): {
        "never_flag": lambda cfg, inst: NeverFlagDetector(),
        "level_threshold": lambda cfg, inst: LevelThresholdDetector(),
        "frequency": lambda cfg, inst: FrequencyDetector(),
        "well_formed": lambda cfg, inst: WellFormedDetector(inst),
    },
    ("ladder", "mitigate"): {
        "extend": lambda cfg, inst: ProofExtendingMitigator(inst, cfg.level_target),
    },
    ("chain", "detect"): {"never_flag": lambda cfg, inst: NeverFlagDetector()},
    ("chain", "mitigate"): {"extend": lambda cfg, inst: ChainExtendingMitigator(inst)},
    ("toy", "detect"): {
        "toy": lambda cfg, inst: ToyDetector(),
        "derived": lambda cfg, inst: DetectorFromMitigator(ToyMitigator()),
    },
    ("toy", "mitigate"): {
        "toy": lambda cfg, inst: ToyMitigator(),
        "extend": lambda cfg, inst: ToyMitigator(),
        "lazy": lambda cfg, inst: LazyMitigator(),
        "from_detector": lambda cfg, inst: MitigatorFromDetector(ToyDetector()),
    },
}


class ExperimentConfig(BaseModel):
    """One trial batch: task, game, parties, parameters, seeds."""

    model_config = ConfigDict(extra="forbid")

    task: Literal["ladder", "chain", "toy"] = "ladder"
    game: Literal["detect", "mitigate"] = "detect"
    challenger: Literal["nature", "attack"] = "nature"
    # None picks the first defense DEFENSES lists for (task, game)
    detector: str | None = None
    mitigator: str | None = None
    epsilon: float = Field(default=0.05, gt=0, lt=0.5)
    delta: float = Field(default=0.02, gt=0, lt=0.5)
    q: int | None = Field(default=None, ge=1)
    trials: int = Field(default=64, ge=1)
    level_target: int = Field(default=16, ge=1)
    horizon: int = Field(default=256, ge=4)
    attacker_samples: int | None = Field(default=None, ge=0)
    instance_seed: int = 1
    master_seed: int = 2
    workers: int = Field(default=1, ge=1)

    @model_validator(mode="after")
    def _defense_plays_game(self) -> "ExperimentConfig":
        role, unread = (
            ("detector", "mitigator") if self.game == "detect" else ("mitigator", "detector")
        )
        if getattr(self, unread) is not None:
            raise ValueError(f"{unread} is not read by {self.game} games")
        choices = DEFENSES[self.task, self.game]
        if self.defense() not in choices:
            raise ValueError(
                f"{role} {self.defense()!r} does not play {self.task} {self.game}; "
                f"choose one of {', '.join(choices)}"
            )
        return self

    def defense(self) -> str:
        """The configured defense's name in DEFENSES."""
        name = self.detector if self.game == "detect" else self.mitigator
        return name if name is not None else next(iter(DEFENSES[self.task, self.game]))

    def params(self) -> GameParams:
        q = self.q if self.q is not None else DEFAULT_Q[self.task]
        return GameParams(epsilon=self.epsilon, delta=self.delta, q=q)


def _build_task(task: str, seed: int, horizon: int) -> Any:
    if task == "ladder":
        return make_data_instance(seed)
    if task == "chain":
        return make_time_instance(seed, horizon)
    return make_toy_instance(seed)


def build_instance(cfg: ExperimentConfig) -> Any:
    return _build_task(cfg.task, cfg.instance_seed, cfg.horizon)


def build_parties(cfg: ExperimentConfig, instance: Any) -> tuple[Any, Any, Any]:
    """Returns (trainer, challenger, defense) for the configured game."""
    trainer, attacker = PARTIES[cfg.task]
    challenger = attacker(cfg, instance) if cfg.challenger == "attack" else NatureChallenger()
    defense = DEFENSES[cfg.task, cfg.game][cfg.defense()](cfg, instance)
    return trainer(cfg, instance), challenger, defense


def run_batch(cfg: ExperimentConfig) -> tuple[Any, list[Transcript]]:
    instance = build_instance(cfg)
    params = cfg.params()
    runner = run_dbd_trial if cfg.game == "detect" else run_dbm_trial

    def one(i: int) -> Transcript:
        # Fresh party objects per trial: agents stash per-trial stats on
        # themselves, which worker threads must not share.  Construction
        # consumes no randomness, so this leaves transcripts unchanged.
        trainer, challenger, defense = build_parties(cfg, instance)
        seed = derive_trial_seed(cfg.master_seed, i)
        return runner(instance, trainer, challenger, defense, params, seed, i)

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            transcripts = list(pool.map(one, range(cfg.trials)))
    else:
        transcripts = [one(i) for i in range(cfg.trials)]
    return instance, transcripts


def summarize(records: list[dict], epsilon: float) -> dict:
    """Headline rates (with Wilson 95% intervals) from transcript records."""
    trials = [Transcript.from_record(r) for r in records]
    done = [t for t in trials if t.aborted is None]
    nature = [t for t in done if t.origin == NATURE]
    attack = [t for t in done if t.origin != NATURE]

    def rate(rows: list[Transcript], pred: Any) -> dict | None:
        if not rows:
            return None
        return RateEstimate.from_counts(sum(bool(pred(t)) for t in rows), len(rows)).as_dict()

    aborts: dict[str, int] = {}
    for t in trials:
        if t.aborted is not None:
            aborts[t.aborted] = aborts.get(t.aborted, 0) + 1

    queries = [
        t.ledgers[t.origin]["queries"]
        for t in attack
        if "queries" in t.ledgers.get(t.origin, {})
    ]
    maxima: dict[str, dict[str, int]] = {}
    for t in trials:
        for role, led in t.ledgers.items():
            slot = maxima.setdefault(role, {"samples_used": 0, "steps_used": 0})
            for key in slot:
                if led.get(key) is not None:
                    slot[key] = max(slot[key], led[key])

    return {
        "trials": len(records),
        "correctness_rate": rate(
            done, lambda t: t.err_fx is not None and t.err_fx <= epsilon
        ),
        "completeness_violation_rate": rate(nature, completeness_violation),
        "soundness_violation_rate": rate(
            done, lambda t: soundness_violation(t, epsilon)
        ),
        "abort_rates": {k: v / len(records) for k, v in sorted(aborts.items())},
        "mean_attacker_queries": (sum(queries) / len(queries)) if queries else None,
        "ledger_maxima": maxima,
    }


# --- instance serialization -------------------------------------------------------


def instance_public_state(instance: Any) -> dict:
    if isinstance(instance, DataTaskInstance):
        return {
            "task": "ladder",
            "level_cap": instance.level_cap,
            "width": instance.width,
            "inner_width": instance.inner_width,
            "verification_key": instance.verification_key.hex(),
            "snark_setup": instance.snark.setup_digest.hex(),
            "fhe_params": instance.fhe.params_digest.hex(),
            "proof_registry": [
                [d.hex(), t.hex()] for d, t in instance.snark.registry_entries()
            ],
        }
    if isinstance(instance, TimeTaskInstance):
        return {
            "task": "chain",
            "horizon": instance.horizon,
            "width": instance.width,
            "start_state": instance.start_state.hex(),
            "chain_registry": [
                [t, s.hex(), c.hex()] for t, s, c in instance.ivc.registry_entries()
            ],
        }
    raise click.UsageError(f"cannot serialize instance type {type(instance).__name__}")


def restore_public_state(instance: Any, pub: dict) -> None:
    if pub["task"] == "ladder":
        if pub["snark_setup"] != instance.snark.setup_digest.hex():
            raise click.UsageError("public file does not match this instance seed")
        instance.snark.restore_entries(
            [(bytes.fromhex(d), bytes.fromhex(t)) for d, t in pub["proof_registry"]]
        )
    else:
        if pub["start_state"] != instance.start_state.hex():
            raise click.UsageError("public file does not match this instance seed")
        instance.ivc.restore_entries(
            [(t, bytes.fromhex(s), bytes.fromhex(c)) for t, s, c in pub["chain_registry"]]
        )


# --- commands ----------------------------------------------------------------------


@click.group()
def main() -> None:
    """Detection-vs-mitigation game harness."""


def _load_config(path: str) -> ExperimentConfig:
    try:
        return ExperimentConfig.model_validate_json(Path(path).read_text())
    except (OSError, ValidationError) as exc:
        raise click.UsageError(f"bad config {path}: {exc}") from exc


@main.command("gen-instance")
@click.option("--task", type=click.Choice(["ladder", "chain"]), default="ladder")
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--horizon", type=click.IntRange(min=4), default=256, show_default=True)
@click.option("--out", type=click.Path(), required=True, help="output prefix")
@click.option("--emit-pairs", type=int, default=0, show_default=True)
def cmd_gen_instance(task: str, seed: int, horizon: int, out: str, emit_pairs: int) -> None:
    """Build an instance; write <out>.pub.json, <out>.sec.json[, <out>.pairs.jsonl]."""
    cfg = {"task": task, "seed": seed, "horizon": horizon}
    instance = _build_task(task, seed, horizon)
    pairs = []
    if emit_pairs:
        rng = HashDrbg(seed).child("emit-pairs")
        pairs = [instance.sample_pair(rng) for _ in range(emit_pairs)]
    prefix = Path(out)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    pub_path = prefix.with_suffix(".pub.json")
    sec_path = prefix.with_suffix(".sec.json")
    pub_path.write_text(json.dumps(instance_public_state(instance), indent=2) + "\n")
    sec_path.write_text(json.dumps(cfg, indent=2) + "\n")
    if pairs:
        pairs_path = prefix.with_suffix(".pairs.jsonl")
        with pairs_path.open("w") as fh:
            for x, y in pairs:
                fh.write(json.dumps({"x": x.hex(), "y": y.hex()}) + "\n")
        click.echo(f"wrote {pub_path}, {sec_path}, {pairs_path}")
    else:
        click.echo(f"wrote {pub_path}, {sec_path}")


@main.command("verify-pair")
@click.option("--instance", "prefix", type=click.Path(), required=True,
              help="prefix used with gen-instance")
@click.option("--pairs", type=click.Path(exists=True), required=True)
def cmd_verify_pair(prefix: str, pairs: str) -> None:
    """Recheck emitted (x, y) pairs: every y must be a correct answer."""
    base = Path(prefix)
    try:
        sec = json.loads(base.with_suffix(".sec.json").read_text())
        pub = json.loads(base.with_suffix(".pub.json").read_text())
    except OSError as exc:
        raise click.UsageError(f"cannot read instance files: {exc}") from exc
    if sec.get("task") != pub.get("task"):
        raise click.UsageError(
            f"secret file is for task {sec.get('task')!r}, "
            f"public file for task {pub.get('task')!r}"
        )
    instance = _build_task(sec["task"], sec["seed"], sec["horizon"])
    restore_public_state(instance, pub)
    bad = total = 0
    with open(pairs) as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                rec = json.loads(line)
                x, y = bytes.fromhex(rec["x"]), bytes.fromhex(rec["y"])
            except (ValueError, KeyError, TypeError) as exc:
                raise click.UsageError(f"bad pair on line {lineno} of {pairs}: {exc}") from exc
            total += 1
            if instance.h(x, y):
                bad += 1
    click.echo(f"{total - bad}/{total} pairs verified")
    if bad:
        sys.exit(3)


@main.command("run")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--transcripts", type=click.Path(), default=None)
@click.option("--summary", "summary_path", type=click.Path(), default=None)
def cmd_run(config_path: str, transcripts: str | None, summary_path: str | None) -> None:
    """Run a trial batch; write transcripts (JSONL) and a summary (JSON)."""
    cfg = _load_config(config_path)
    instance, batch = run_batch(cfg)
    lines = [t.to_json() for t in batch]
    if transcripts:
        Path(transcripts).write_text("\n".join(lines) + "\n")
    records = [json.loads(line) for line in lines]
    out = summarize(records, cfg.epsilon)
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


@main.command("report")
@click.option("--transcripts", type=click.Path(exists=True), required=True)
@click.option("--epsilon", type=float, default=0.05, show_default=True)
def cmd_report(transcripts: str, epsilon: float) -> None:
    """Summarize an existing transcript stream."""
    with open(transcripts) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    if not records:
        raise click.UsageError("transcript stream is empty")
    click.echo(json.dumps(summarize(records, epsilon), indent=2))


if __name__ == "__main__":
    main()
