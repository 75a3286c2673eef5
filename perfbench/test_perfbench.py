"""Tests of the benchmark's own code.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from detmit import cli  # noqa: E402

import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import END, START, Recorder, self_times  # noqa: E402
from workloads import GOLDEN_SEED, WORKLOADS, config_for  # noqa: E402


def _span(parent: list | None, start: int, end: int, leaf_ns: int = 0) -> list:
    return ["x", parent, None, start, end, leaf_ns]


def test_self_time_subtracts_children_union_and_leaf_time() -> None:
    root = _span(None, 0, 100)
    a = _span(root, 10, 40, leaf_ns=5)
    a1 = _span(a, 15, 25)
    b = _span(root, 50, 90)
    b1 = _span(b, 60, 70)  # b1 and b2 overlap, as on two pool threads
    b2 = _span(b, 65, 80)
    late = _span(None, 200, 210)
    spill = _span(late, 205, 230)  # a child outliving its parent is clipped
    tree = [root, a, a1, b, b1, b2, late, spill]
    assert self_times(tree) == [30, 15, 10, 20, 10, 15, 5, 25]


def test_self_times_partition_a_serial_traced_run() -> None:
    cfg = cli.ExperimentConfig(**config_for("toy-derived", 1, trials=5))
    rec = Recorder()
    with rec.installed(), rec.span("outer"):
        cli.run_batch(cfg)
    outer = next(s for s in rec.spans if s[spans.NAME] == "outer")
    stats = rec.aggregate()
    assert sum(s.self_ns for s in stats.values()) == outer[END] - outer[START]
    assert stats["core.trial"].calls == 5
    assert stats["classify.sample_pair"].calls == stats["core.draw_pair"].calls > 0


def _detmit_attributes() -> dict[tuple[str, ...], object]:
    snap: dict[tuple[str, ...], object] = {}
    for mod in spans.detmit_modules():
        for key, value in vars(mod).items():
            snap[(mod.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("detmit"):
                for attr, member in vars(value).items():
                    snap[(mod.__name__, key, attr)] = member
    return snap


def _target_originals() -> list[object]:
    out = []
    for target in spans.TARGETS:
        owner, _, key = target.attr.rpartition(".")
        module = importlib.import_module(target.module)
        out.append(vars(getattr(module, owner))[key] if owner else getattr(module, key))
    return out


def test_unpatch_restores_every_detmit_attribute() -> None:
    before = _detmit_attributes()
    originals = _target_originals()
    with Recorder().installed():
        during = _detmit_attributes()
        for copy in (("detmit.sampletask", "snark_prove"),
                     ("detmit.sampleagents", "snark_prove"),
                     ("detmit.cli", "run_dbm_trial"),
                     ("detmit", "run_dbm_trial")):
            assert during[copy] is not before[copy]
        # no detmit module or class still holds an unwrapped target
        held = {id(value) for value in during.values()}
        assert not [f for f in originals if id(f) in held]
    after = _detmit_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_batch_keeps_the_transcript_bytes() -> None:
    plain = harness.run_batch("toy-derived", 1, 0, trials=20)
    traced = harness.run_batch("toy-derived", 1, 0, plain.digest, Recorder(), trials=20)
    assert plain.problems == traced.problems == []
    assert traced.layers["cli.build_parties.calls"] == 20
    assert traced.layers["classify.train.self_ms"] > 0


def test_digest_check_rejects_one_changed_byte() -> None:
    name = "toy-derived"
    pin = harness.load_golden()[name]
    cfg = cli.ExperimentConfig(**config_for(name, GOLDEN_SEED))
    _, transcripts = cli.run_batch(cfg)
    stream = "\n".join(t.to_json() for t in transcripts) + "\n"
    assert pin["trials"] == WORKLOADS[name].trials
    assert harness.digest_problem(harness.stream_digest(stream), pin["sha256"]) is None
    at = len(stream) // 2
    changed = stream[:at] + chr(ord(stream[at]) ^ 1) + stream[at + 1:]
    assert harness.digest_problem(harness.stream_digest(changed), pin["sha256"]) is not None


def test_interquartile_mean_drops_the_outer_quarters() -> None:
    assert harness.interquartile_mean([100.0, 1.0, 2.0, 3.0, 4.0, -50.0, 5.0, 6.0]) == 3.5
    assert harness.interquartile_mean([7.0]) == 7.0


def test_ledger_check_flags_use_beyond_allowance() -> None:
    ok = {"ledgers": {"trainer": {"samples_used": 4, "samples_allowed": 4,
                                  "steps_used": 0, "steps_allowed": None}}}
    over = {"ledgers": {"mitigator": {"samples_used": 0, "samples_allowed": 0,
                                      "steps_used": 9, "steps_allowed": 8}}}
    assert not harness.over_allowance(ok)
    assert harness.over_allowance(over)


def test_benchmark_json_lists_what_the_benchmark_reports() -> None:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        harness.PER_LAYER)
