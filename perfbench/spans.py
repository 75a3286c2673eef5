"""Span recorder for the traced run, installed around detmit from outside.

`Recorder.installed()` wraps the public functions listed in TARGETS and
restores the originals on exit.  A module-level function is re-bound in
every `detmit.*` module that holds the same object, because
`from .crypto import snark_prove` copies the name into its importers; a
method is replaced once on its class.

Spans are kept in memory as `[name, parent, trial, start_ns, end_ns,
leaf_ns]` lists.  Spans of one trial share its trial id.  A span opened on
a thread with no open span (a pool worker) takes the outermost open span as
its parent.  Targets marked `leaf` call no other target; they are tallied
(calls, time, extra) per thread instead of recorded one by one, and their
time is charged to the enclosing span's `leaf_ns` — at hundreds of thousands
of calls per batch, a record each would cost more memory than the run.

Self time is a span's duration minus the union of its children's intervals
and its leaf time.  Only per-process timers (`time.perf_counter_ns`) are
used, so on a thread pool a span's time includes waiting for the
interpreter lock held by another worker, and self times summed over threads
can exceed the wall time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

NAME, PARENT, TRIAL, START, END, LEAF_NS = range(6)

_now = time.perf_counter_ns


@dataclass(frozen=True)
class Target:
    name: str  # span name, e.g. "crypto.snark_prove"
    module: str
    attr: str  # "function" or "Class.method"
    leaf: bool = False
    # (args, result) -> amount added to the name's `extra` tally
    extra: Callable[[tuple, Any], int] | None = None
    trial_arg: int | None = None  # positional index of the trial id


def _enc_draw(args: tuple, result: Any) -> int:
    return int(result[0][:1] == b"\x02")


TARGETS: tuple[Target, ...] = (
    Target("drbg.take", "detmit.drbg", "HashDrbg.take", leaf=True,
           extra=lambda args, result: args[1]),
    Target("wire.pack_fields", "detmit.wire", "pack_fields", leaf=True),
    Target("payloads.encode", "detmit.payloads", "encode_payload"),
    Target("payloads.decode", "detmit.payloads", "decode_payload", leaf=True),
    Target("crypto.sig_sign", "detmit.crypto", "sig_sign_zero"),
    Target("crypto.sig_verify", "detmit.crypto", "sig_verify", leaf=True),
    Target("crypto.snark_prove", "detmit.crypto", "snark_prove",
           extra=lambda args, result: len(args[2])),
    Target("crypto.snark_verify", "detmit.crypto", "snark_verify", leaf=True),
    Target("crypto.fhe_eval", "detmit.crypto", "FheSystem.eval"),
    Target("crypto.fhe_keygen", "detmit.crypto", "FheSystem.keygen", leaf=True),
    Target("crypto.fhe_register", "detmit.crypto", "FheSystem.register_circuit",
           leaf=True),
    Target("crypto.ivc_update", "detmit.crypto", "ivc_update"),
    Target("crypto.ivc_verify", "detmit.crypto", "ivc_verify", leaf=True),
    Target("crypto.meter_step", "detmit.crypto", "StepMeter.step", leaf=True),
    Target("sampletask.build", "detmit.sampletask", "make_data_instance"),
    Target("sampletask.sample_pair", "detmit.sampletask",
           "DataTaskInstance.sample_pair", extra=_enc_draw),
    Target("sampletask.prove_count", "detmit.sampletask", "DataTaskInstance.prove_count"),
    Target("sampletask.h", "detmit.sampletask", "DataTaskInstance.h"),
    Target("sampleagents.train", "detmit.sampleagents", "LadderTrainer.train"),
    Target("sampleagents.challenge", "detmit.sampleagents",
           "SelfIterationAttacker.challenge"),
    Target("sampleagents.mitigate", "detmit.sampleagents",
           "ProofExtendingMitigator.mitigate"),
    Target("sampleagents.detect", "detmit.sampleagents", "NeverFlagDetector.detect"),
    Target("sampleagents.detect", "detmit.sampleagents", "LevelThresholdDetector.detect"),
    Target("sampleagents.detect", "detmit.sampleagents", "FrequencyDetector.detect"),
    Target("sampleagents.detect", "detmit.sampleagents", "WellFormedDetector.detect"),
    Target("sampleagents.model", "detmit.sampleagents", "DataModel.__call__"),
    Target("timetask.build", "detmit.timetask", "make_time_instance"),
    Target("timetask.train", "detmit.timetask", "TimeTrainer.train"),
    Target("timetask.challenge", "detmit.timetask", "ChainClimbingAttacker.challenge"),
    Target("timetask.mitigate", "detmit.timetask", "ChainExtendingMitigator.mitigate"),
    Target("timetask.model", "detmit.timetask", "TimeModel.__call__"),
    Target("timetask.h", "detmit.timetask", "TimeTaskInstance.h"),
    Target("timetask.audit", "detmit.timetask", "audit_conservation"),
    Target("timetask.audit", "detmit.timetask", "audit_sequential_reach"),
    Target("classify.sample_pair", "detmit.classify",
           "ToyClassificationInstance.sample_pair"),
    Target("classify.h", "detmit.classify", "ToyClassificationInstance.h"),
    Target("classify.train", "detmit.classify", "ToyTrainer.train"),
    Target("classify.challenge", "detmit.classify", "ToyAttacker.challenge"),
    Target("classify.detect", "detmit.classify", "ToyDetector.detect"),
    Target("classify.detect", "detmit.classify", "DetectorFromMitigator.detect"),
    Target("classify.mitigate", "detmit.classify", "ToyMitigator.mitigate"),
    Target("classify.mitigate", "detmit.classify", "LazyMitigator.mitigate"),
    Target("classify.mitigate", "detmit.classify", "MitigatorFromDetector.mitigate"),
    Target("core.trial", "detmit.core", "run_dbd_trial", trial_arg=6),
    Target("core.trial", "detmit.core", "run_dbm_trial", trial_arg=6),
    Target("core.draw_pair", "detmit.core", "SampleOracle.draw_pair"),
    Target("core.empirical_err", "detmit.core", "empirical_err"),
    Target("cli.run_batch", "detmit.cli", "run_batch"),
    Target("cli.build_parties", "detmit.cli", "build_parties"),
)


def detmit_modules() -> list[Any]:
    return [m for n, m in list(sys.modules.items())
            if n == "detmit" or n.startswith("detmit.")]


@dataclass
class Stat:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    extra: int = 0


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus its children's covered interval and leaf time."""
    kids: dict[int, list[tuple[int, int]]] = {}
    for rec in spans:
        if rec[PARENT] is not None:
            kids.setdefault(id(rec[PARENT]), []).append((rec[START], rec[END]))
    out = []
    for rec in spans:
        start, end = rec[START], rec[END]
        covered, reach = 0, start
        for c_start, c_end in sorted(kids.get(id(rec), ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append(end - start - covered - rec[LEAF_NS])
    return out


class Recorder:
    """Records spans and leaf tallies while installed; aggregates afterwards."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._tallies: list[dict[str, list[int]]] = []
        self._lock = threading.Lock()
        self._anchor: list | None = None
        self._patches: list[tuple[Any, str, Any]] = []

    # --- recording -----------------------------------------------------------

    def _state(self) -> tuple[list[list], dict[str, list[int]]]:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = ([], {})
            with self._lock:
                self._tallies.append(state[1])
            return state

    def _open(self, name: str, trial: Any) -> tuple[list, list[list], dict]:
        stack, tally = self._state()
        parent = stack[-1] if stack else self._anchor
        if trial is None and parent is not None:
            trial = parent[TRIAL]
        rec = [name, parent, trial, 0, 0, 0]
        self.spans.append(rec)
        if parent is None:
            self._anchor = rec
        stack.append(rec)
        rec[START] = _now()
        return rec, stack, tally

    def _close(self, rec: list, stack: list[list]) -> None:
        rec[END] = _now()
        stack.pop()
        if self._anchor is rec:
            self._anchor = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around benchmark code, e.g. the report phase."""
        rec, stack, _ = self._open(name, None)
        try:
            yield
        finally:
            self._close(rec, stack)

    def _span_wrapper(self, fn: Callable, target: Target) -> Callable:
        name, extra, trial_arg = target.name, target.extra, target.trial_arg

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            trial = None
            if trial_arg is not None:
                trial = args[trial_arg] if len(args) > trial_arg else kwargs.get("trial_id")
            rec, stack, tally = self._open(name, trial)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec, stack)
            if extra is not None:
                tally.setdefault(name, [0, 0, 0])[2] += extra(args, result)
            return result

        return wrapper

    def _leaf_wrapper(self, fn: Callable, target: Target) -> Callable:
        name, extra, state = target.name, target.extra, self._state

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _now() - start
                stack, tally = state()
                if stack:
                    stack[-1][LEAF_NS] += elapsed
                entry = tally.get(name)
                if entry is None:
                    entry = tally[name] = [0, 0, 0]
                entry[0] += 1
                entry[1] += elapsed
            if extra is not None:
                entry[2] += extra(args, result)
            return result

        return wrapper

    # --- installing -------------------------------------------------------------

    def _rebind(self, owner: Any, key: str, original: Any, wrapper: Any) -> None:
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def patch(self) -> None:
        importlib.import_module("detmit.cli")
        for target in TARGETS:
            module = importlib.import_module(target.module)
            make = self._leaf_wrapper if target.leaf else self._span_wrapper
            owner_name, _, key = target.attr.rpartition(".")
            if owner_name:
                cls = getattr(module, owner_name)
                original = cls.__dict__[key]
                self._rebind(cls, key, original, make(original, target))
                continue
            original = getattr(module, key)
            wrapper = make(original, target)
            for mod in detmit_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, original, wrapper)

    def unpatch(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    @contextmanager
    def installed(self) -> Iterator["Recorder"]:
        self.patch()
        try:
            yield self
        finally:
            self.unpatch()

    # --- results ------------------------------------------------------------------

    def aggregate(self) -> dict[str, Stat]:
        """Per span name: calls, total and self time, extra tally."""
        stats: dict[str, Stat] = {}
        for rec, own in zip(self.spans, self_times(self.spans)):
            s = stats.setdefault(rec[NAME], Stat())
            s.calls += 1
            s.total_ns += rec[END] - rec[START]
            s.self_ns += own
        for tally in self._tallies:
            for name, (calls, ns, extra) in tally.items():
                s = stats.setdefault(name, Stat())
                s.calls += calls
                s.total_ns += ns
                s.self_ns += ns
                s.extra += extra
        return stats

    def durations_ms(self, name: str) -> list[float]:
        return [(r[END] - r[START]) / 1e6 for r in self.spans if r[NAME] == name]

    def write(self, path: Any) -> None:
        """One tab-separated line per span: id, parent, trial, name, start, dur, self (us)."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        origin = min((r[START] for r in self.spans), default=0)
        with open(path, "w") as fh:
            fh.write("id\tparent\ttrial\tname\tstart_us\tdur_us\tself_us\n")
            for i, (rec, own) in enumerate(zip(self.spans, self_times(self.spans))):
                parent = "" if rec[PARENT] is None else index[id(rec[PARENT])]
                trial = "" if rec[TRIAL] is None else rec[TRIAL]
                fh.write(f"{i}\t{parent}\t{trial}\t{rec[NAME]}\t"
                         f"{(rec[START] - origin) / 1e3:.1f}\t"
                         f"{(rec[END] - rec[START]) / 1e3:.1f}\t{own / 1e3:.1f}\n")
