"""Run workload batches through the calls `detmit run` makes; check and time them.

One batch is `cli.build_instance` (setup, untimed here), then the run path:
`cli.run_batch`, `Transcript.to_json` for every trial, `cli.summarize` and,
for the chain task, both audits.  Its checks:

* the transcript stream's sha256 equals the expected digest, where there is
  one: the pin in golden.json for batch 0 at GOLDEN_SEED, and for a traced
  batch the digest of its untraced twin;
* every chain audit returns true;
* no ledger shows `samples_used` or `steps_used` above its allowance;
* an exception out of the run path fails the whole batch.

A failed check fails the batch's trials (all of them, except for a ledger
breach, which fails its own trial).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from detmit import cli

from calibrate import REFERENCE_S, reference_seconds
from spans import Recorder, Stat, detmit_modules
from workloads import GOLDEN_SEED, WORKLOADS, config_for

GOLDEN_PATH = Path(__file__).with_name("golden.json")

TAGS_ENC = (0x02, 0x04)


@dataclass
class Batch:
    trials: int
    failed: int
    finished: int = 0
    seconds: float | None = None  # wall time of the run path
    digest: str | None = None
    problems: list[str] = field(default_factory=list)
    props: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    trial_ms: list[float] = field(default_factory=list)
    reference_s: float = REFERENCE_S  # calibration loop time beside this batch

    @property
    def raw_trials_per_s(self) -> float:
        return self.finished / self.seconds if self.seconds else 0.0

    @property
    def trials_per_s(self) -> float:
        """Trials per second, scaled to the reference machine speed (calibrate.py)."""
        return self.raw_trials_per_s * self.reference_s / REFERENCE_S


def load_golden() -> dict[str, dict]:
    return json.loads(GOLDEN_PATH.read_text())["workloads"]


def stream_digest(stream: str) -> str:
    return hashlib.sha256(stream.encode()).hexdigest()


def digest_problem(actual: str, expected: str | None) -> str | None:
    if expected is not None and actual != expected:
        return f"transcript digest {actual[:16]} != expected {expected[:16]}"
    return None


def over_allowance(record: dict) -> bool:
    return any(
        led.get(used) is not None
        and led.get(allowed) is not None
        and led[used] > led[allowed]
        for led in record["ledgers"].values()
        for used, allowed in (("samples_used", "samples_allowed"),
                              ("steps_used", "steps_allowed"))
    )


@contextmanager
def _handoff(instance: Any) -> Iterator[None]:
    """Make run_batch's own build_instance call return the instance built as setup."""
    original = cli.build_instance
    pending = [instance]

    def build_instance(cfg: cli.ExperimentConfig) -> Any:
        return pending.pop() if pending else original(cfg)

    cli.build_instance = build_instance
    try:
        yield
    finally:
        cli.build_instance = original


def _empty_caches() -> None:
    """Empty detmit's module-level caches, so a batch starts as a fresh `detmit run` does.

    Without this a batch rerun at the same seeds (the traced twin) finds its
    signature checks already cached.
    """
    for module in detmit_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _registry_size(instance: Any, part: str) -> int:
    registry = getattr(instance, part, None)
    return len(registry.registry_entries()) if registry is not None else 0


def run_batch(name: str, seed: int, index: int = 0, expect: str | None = None,
              recorder: Recorder | None = None, **overrides: Any) -> Batch:
    cfg = cli.ExperimentConfig(**config_for(name, seed, index, **overrides))
    report = recorder.span if recorder is not None else lambda _: nullcontext()
    _empty_caches()
    gc.collect()
    with recorder.installed() if recorder is not None else nullcontext():
        try:
            instance = cli.build_instance(cfg)
            with _handoff(instance):
                start = time.perf_counter()
                instance, transcripts = cli.run_batch(cfg)
                with report("cli.report"):
                    lines = [t.to_json() for t in transcripts]
                    records = [json.loads(line) for line in lines]
                    summary = cli.summarize(records, cfg.epsilon)
                    audits = {}
                    if cfg.task == "chain":
                        audits = {
                            "conservation": cli.audit_conservation(instance),
                            "sequential_reach": cli.audit_sequential_reach(instance),
                        }
                seconds = time.perf_counter() - start
        except Exception as exc:  # the batch crashed: all its trials fail
            traceback.print_exc(file=sys.stderr)
            return Batch(cfg.trials, cfg.trials, problems=[f"run path raised {exc!r}"])

    batch = Batch(cfg.trials, 0, finished=len(transcripts), seconds=seconds,
                  digest=stream_digest("\n".join(lines) + "\n"))
    if len(transcripts) != cfg.trials:
        batch.problems.append(f"{len(transcripts)} transcripts for {cfg.trials} trials")
    batch.problems += [f"audit {k} failed" for k, ok in audits.items() if not ok]
    if (problem := digest_problem(batch.digest, expect)) is not None:
        batch.problems.append(problem)
    over = sum(over_allowance(r) for r in records)
    batch.failed = cfg.trials if batch.problems else over
    if over:
        batch.problems.append(f"{over} trials over their sample or step allowance")

    inputs = [x for t in transcripts for x in t.challenge]
    queries = [led["queries"] for r in records for led in r["ledgers"].values()
               if "queries" in led]
    batch.props = {
        "abort_share": sum(summary["abort_rates"].values()),
        "aborted_trials": sum(r["aborted"] is not None for r in records),
        "mean_attacker_queries": summary["mean_attacker_queries"] or 0.0,
        "attacker_queries": sum(queries),
        "enc_input_share": sum(bool(x) and x[0] in TAGS_ENC for x in inputs)
        / max(len(inputs), 1),
        "snark_registry_entries": _registry_size(instance, "snark"),
        "ivc_registry_entries": _registry_size(instance, "ivc"),
    }
    if recorder is not None:
        batch.layers = layer_values(recorder.aggregate(), batch.props, cfg.task)
        batch.trial_ms = recorder.durations_ms("core.trial")
    return batch


# --- per-layer metrics ---------------------------------------------------------------
# `<span>.calls` and `<span>.self_ms` read the span of that name; the rest are
# computed in layer_values.  Units: count, ms, B, us, ratio, trials/s.

PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("drbg.take.calls", "count", "lower"),
    ("drbg.take.bytes", "B", "lower"),
    ("drbg.take.self_ms", "ms", "lower"),
    ("wire.pack_fields.calls", "count", "lower"),
    ("wire.pack_fields.self_ms", "ms", "lower"),
    ("payloads.encode.calls", "count", "lower"),
    ("payloads.encode.self_ms", "ms", "lower"),
    ("payloads.decode.calls", "count", "lower"),
    ("payloads.decode.self_ms", "ms", "lower"),
    ("crypto.sig_sign.calls", "count", "lower"),
    ("crypto.sig_sign.self_ms", "ms", "lower"),
    ("crypto.sig_verify.calls", "count", "lower"),
    ("crypto.sig_verify.self_ms", "ms", "lower"),
    ("crypto.snark_prove.calls", "count", "lower"),
    ("crypto.snark_prove.self_ms", "ms", "lower"),
    ("crypto.snark_prove.witness_tokens", "count", "lower"),
    ("crypto.snark_prove.us_per_token", "us", "lower"),
    ("crypto.snark_verify.calls", "count", "lower"),
    ("crypto.snark_verify.self_ms", "ms", "lower"),
    ("crypto.snark.registry_entries", "count", "lower"),
    ("crypto.fhe.circuits_registered", "count", "lower"),
    ("crypto.fhe_eval.calls", "count", "lower"),
    ("crypto.fhe_eval.self_ms", "ms", "lower"),
    ("crypto.fhe_keygen.calls", "count", "lower"),
    ("crypto.ivc_update.calls", "count", "lower"),
    ("crypto.ivc_update.self_ms", "ms", "lower"),
    ("crypto.ivc_verify.calls", "count", "lower"),
    ("crypto.ivc_verify.self_ms", "ms", "lower"),
    ("crypto.meter.steps", "count", "lower"),
    ("crypto.ivc.registry_entries", "count", "lower"),
    ("sampletask.build_ms", "ms", "lower"),
    ("sampletask.sample_pair.calls", "count", "lower"),
    ("sampletask.sample_pair.self_ms", "ms", "lower"),
    ("sampletask.prove_count.calls", "count", "lower"),
    ("sampletask.prove_count.self_ms", "ms", "lower"),
    ("sampletask.h.calls", "count", "lower"),
    ("sampletask.h.self_ms", "ms", "lower"),
    ("sampleagents.train.self_ms", "ms", "lower"),
    ("sampleagents.challenge.self_ms", "ms", "lower"),
    ("sampleagents.mitigate.self_ms", "ms", "lower"),
    ("sampleagents.detect.self_ms", "ms", "lower"),
    ("sampleagents.model.calls", "count", "lower"),
    ("sampleagents.model.self_ms", "ms", "lower"),
    ("sampleagents.attacker_queries", "count", "lower"),
    ("timetask.build_ms", "ms", "lower"),
    ("timetask.train.self_ms", "ms", "lower"),
    ("timetask.challenge.self_ms", "ms", "lower"),
    ("timetask.mitigate.self_ms", "ms", "lower"),
    ("timetask.model.calls", "count", "lower"),
    ("timetask.model.self_ms", "ms", "lower"),
    ("timetask.h.calls", "count", "lower"),
    ("timetask.h.self_ms", "ms", "lower"),
    ("timetask.audit.self_ms", "ms", "lower"),
    ("classify.sample_pair.calls", "count", "lower"),
    ("classify.sample_pair.self_ms", "ms", "lower"),
    ("classify.h.calls", "count", "lower"),
    ("classify.h.self_ms", "ms", "lower"),
    ("classify.train.self_ms", "ms", "lower"),
    ("classify.challenge.self_ms", "ms", "lower"),
    ("classify.detect.self_ms", "ms", "lower"),
    ("classify.mitigate.self_ms", "ms", "lower"),
    ("core.trial.ms_p50", "ms", "lower"),
    ("core.trial.ms_tail", "ms", "lower"),
    ("core.trial.tail_pct", "%", "lower"),
    ("core.trial.count", "count", "higher"),
    ("core.trial.self_ms", "ms", "lower"),
    ("core.draw_pair.calls", "count", "lower"),
    ("core.draw_pair.self_ms", "ms", "lower"),
    ("core.empirical_err.self_ms", "ms", "lower"),
    ("core.aborted_trials", "count", "lower"),
    ("cli.run_batch.self_ms", "ms", "lower"),
    ("cli.build_parties.calls", "count", "lower"),
    ("cli.build_parties.self_ms", "ms", "lower"),
    ("cli.report.self_ms", "ms", "lower"),
    ("workload.abort_share", "ratio", "lower"),
    ("workload.mean_attacker_queries", "count", "lower"),
    ("workload.enc_input_share", "ratio", "lower"),
    ("workload.enc_draw_share", "ratio", "lower"),
    ("trace.untraced_trials_per_s", "trials/s", "higher"),
    ("trace.traced_trials_per_s", "trials/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# metrics computed over all traced batches of a run rather than per batch
_RUN_LEVEL = {"core.trial.ms_p50", "core.trial.ms_tail", "core.trial.tail_pct",
              "core.trial.count", "trace.untraced_trials_per_s",
              "trace.traced_trials_per_s", "trace.overhead_ratio"}


def layer_values(stats: dict[str, Stat], props: dict[str, float], task: str) -> dict[str, float]:
    """Per-batch values of every PER_LAYER metric except the run-level ones."""
    def get(span: str) -> Stat:
        return stats.get(span, Stat())

    prove = get("crypto.snark_prove")
    draws = get("sampletask.sample_pair")
    special = {
        "drbg.take.bytes": get("drbg.take").extra,
        "crypto.snark_prove.witness_tokens": prove.extra,
        "crypto.snark_prove.us_per_token": prove.self_ns / 1e3 / prove.extra if prove.extra else 0.0,
        "crypto.snark.registry_entries": props["snark_registry_entries"],
        "crypto.fhe.circuits_registered": get("crypto.fhe_register").calls,
        "crypto.meter.steps": get("crypto.meter_step").calls,
        "crypto.ivc.registry_entries": props["ivc_registry_entries"],
        "sampletask.build_ms": get("sampletask.build").total_ns / 1e6,
        "timetask.build_ms": get("timetask.build").total_ns / 1e6,
        "sampleagents.attacker_queries": props["attacker_queries"] if task == "ladder" else 0,
        "core.aborted_trials": props["aborted_trials"],
        "workload.abort_share": props["abort_share"],
        "workload.mean_attacker_queries": props["mean_attacker_queries"],
        "workload.enc_input_share": props["enc_input_share"],
        "workload.enc_draw_share": draws.extra / draws.calls if draws.calls else 0.0,
    }
    values: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if name in _RUN_LEVEL:
            continue
        if name in special:
            values[name] = special[name]
        elif kind == "calls":
            values[name] = get(span).calls
        elif kind == "self_ms":
            values[name] = get(span).self_ns / 1e6
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
    return values


def tail(durations: list[float]) -> tuple[int, float]:
    """Highest percentile with at least ten trials beyond it; the maximum below 20 trials."""
    xs = sorted(durations) or [0.0]
    n = len(xs)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return pct, xs[rank - 1]
    return 100, xs[-1]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half: robust to stalls like a median, with less spread."""
    xs = sorted(values)
    quarter = len(xs) // 4
    return statistics.mean(xs[quarter:len(xs) - quarter]) if xs else 0.0


def per_layer(batches: list[Batch], traced: list[Batch]) -> dict[str, float]:
    """Medians over the traced batches that completed; 0 where none did."""
    done = [b for b in traced if b.layers]
    trial_ms = [ms for b in done for ms in b.trial_ms]
    pct, tail_ms = tail(trial_ms)
    plain = interquartile_mean([b.trials_per_s for b in batches])
    with_spans = interquartile_mean([b.trials_per_s for b in traced])
    values = {
        "core.trial.ms_p50": _median(trial_ms),
        "core.trial.ms_tail": tail_ms,
        "core.trial.tail_pct": pct,
        "core.trial.count": len(trial_ms),
        "trace.untraced_trials_per_s": plain,
        "trace.traced_trials_per_s": with_spans,
        "trace.overhead_ratio": plain / with_spans if with_spans else 0.0,
    }
    return {name: values[name] if name in values else _median([b.layers[name] for b in done])
            for name, _, _ in PER_LAYER}


@dataclass
class Run:
    warmup: Batch  # the golden batch, untimed
    batches: list[Batch]
    traced: list[Batch]
    recorder: Recorder | None  # spans of the first traced batch

    @property
    def all_batches(self) -> list[Batch]:
        return [self.warmup, *self.batches, *self.traced]


def measure(name: str, seed: int, seconds: float, trace: bool) -> Run:
    """Golden batch first (warm-up and digest check), then timed batches for `seconds`.

    With `trace`, each timed batch is followed by a traced rerun of the same
    batch, which must give the same transcript bytes; the pair gives the
    tracing overhead.
    """
    golden = load_golden()[name]
    warmup = run_batch(name, GOLDEN_SEED, 0, golden["sha256"])
    if golden["trials"] != WORKLOADS[name].trials:
        warmup.problems.append(f"golden digest pinned for {golden['trials']} trials")
        warmup.failed = warmup.trials
    run = Run(warmup, [], [], None)
    start = time.perf_counter()
    elapsed = step = 0.0
    before = reference_seconds()

    def timed(batch: Batch) -> Batch:
        nonlocal before
        after = reference_seconds()
        batch.reference_s, before = (before + after) / 2, after
        return batch

    # start another batch only if one as long as the last still ends in time
    while not run.batches or elapsed + step <= seconds:
        index = len(run.batches)
        expect = golden["sha256"] if (seed, index) == (GOLDEN_SEED, 0) else None
        batch = timed(run_batch(name, seed, index, expect))
        run.batches.append(batch)
        if trace:
            recorder = Recorder()
            run.traced.append(timed(run_batch(name, seed, index, batch.digest, recorder)))
            if run.recorder is None:
                run.recorder = recorder
        step = time.perf_counter() - start - elapsed
        elapsed += step
    return run
