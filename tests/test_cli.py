"""CLI: config validation, trial batches, instance files, reporting."""

from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from detmit.cli import ExperimentConfig, main, run_batch, summarize

BASE = {
    "task": "ladder",
    "game": "detect",
    "challenger": "attack",
    "trials": 6,
    "level_target": 16,
    "instance_seed": 9,
    "master_seed": 10,
}


@pytest.fixture()
def runner():
    return CliRunner()


def write_config(tmp_path, **overrides):
    cfg = {**BASE, **overrides}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_config_defaults_and_q_resolution():
    cfg = ExperimentConfig.model_validate(BASE)
    assert cfg.params().q == 1
    toy = ExperimentConfig.model_validate({**BASE, "task": "toy"})
    assert toy.params().q == 32
    explicit = ExperimentConfig.model_validate({**BASE, "q": 5})
    assert explicit.params().q == 5


def test_config_rejects_bad_values():
    with pytest.raises(Exception):
        ExperimentConfig.model_validate({**BASE, "epsilon": 0.9})
    with pytest.raises(Exception):
        ExperimentConfig.model_validate({**BASE, "task": "nope"})
    with pytest.raises(Exception):
        ExperimentConfig.model_validate({**BASE, "trials": 0})
    with pytest.raises(Exception):
        ExperimentConfig.model_validate({**BASE, "leval_target": 16})  # typo


def test_run_writes_transcripts_and_summary(runner, tmp_path):
    cfg = write_config(tmp_path)
    t_path, s_path = tmp_path / "t.jsonl", tmp_path / "s.json"
    res = runner.invoke(
        main,
        ["run", "--config", str(cfg), "--transcripts", str(t_path), "--summary", str(s_path)],
    )
    assert res.exit_code == 0, res.output
    lines = t_path.read_text().splitlines()
    assert len(lines) == 6
    rec = json.loads(lines[0])
    assert list(rec) == [
        "trial_id", "seed", "origin", "flag", "err_fx", "err_y", "ledgers", "aborted",
    ]
    summary = json.loads(s_path.read_text())
    assert summary["trials"] == 6
    assert summary["mean_attacker_queries"] == 5.0  # frozen grid-climb count


def test_run_bad_config_exits_2(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**BASE, "epsilon": 3}))
    res = runner.invoke(main, ["run", "--config", str(path)])
    assert res.exit_code == 2


def test_run_deterministic_across_invocations(runner, tmp_path):
    cfg = write_config(tmp_path)
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        res = runner.invoke(
            main, ["run", "--config", str(cfg), "--transcripts", str(tmp_path / name)]
        )
        assert res.exit_code == 0
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]


def test_workers_do_not_change_transcripts(runner, tmp_path):
    a = write_config(tmp_path, workers=1)
    res = runner.invoke(main, ["run", "--config", str(a), "--transcripts", str(tmp_path / "w1.jsonl")])
    assert res.exit_code == 0
    b_path = tmp_path / "cfg2.json"
    b_path.write_text(json.dumps({**BASE, "workers": 3}))
    res = runner.invoke(main, ["run", "--config", str(b_path), "--transcripts", str(tmp_path / "w3.jsonl")])
    assert res.exit_code == 0
    assert (tmp_path / "w1.jsonl").read_bytes() == (tmp_path / "w3.jsonl").read_bytes()


def test_chain_run_includes_audits(runner, tmp_path):
    cfg = write_config(tmp_path, task="chain", game="mitigate", trials=3)
    res = runner.invoke(main, ["run", "--config", str(cfg)])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert out["audits"] == {"conservation": True, "sequential_reach": True}
    assert out["ledger_maxima"]["trainer"]["steps_used"] == 256


def test_gen_and_verify_roundtrip(runner, tmp_path):
    prefix = tmp_path / "inst"
    res = runner.invoke(
        main,
        ["gen-instance", "--task", "ladder", "--seed", "4", "--out", str(prefix),
         "--emit-pairs", "8"],
    )
    assert res.exit_code == 0, res.output
    pairs = prefix.with_suffix(".pairs.jsonl")
    res = runner.invoke(
        main, ["verify-pair", "--instance", str(prefix), "--pairs", str(pairs)]
    )
    assert res.exit_code == 0
    assert "8/8" in res.output


def test_verify_detects_tampering(runner, tmp_path):
    prefix = tmp_path / "inst"
    runner.invoke(
        main,
        ["gen-instance", "--task", "chain", "--seed", "4", "--out", str(prefix),
         "--emit-pairs", "4"],
    )
    pairs = prefix.with_suffix(".pairs.jsonl")
    lines = pairs.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["y"] = rec["x"]
    lines[0] = json.dumps(rec)
    pairs.write_text("\n".join(lines) + "\n")
    res = runner.invoke(main, ["verify-pair", "--instance", str(prefix), "--pairs", str(pairs)])
    assert res.exit_code == 3
    assert "3/4" in res.output


def test_report_matches_run_summary(runner, tmp_path):
    cfg = write_config(tmp_path)
    t_path, s_path = tmp_path / "t.jsonl", tmp_path / "s.json"
    runner.invoke(
        main,
        ["run", "--config", str(cfg), "--transcripts", str(t_path), "--summary", str(s_path)],
    )
    res = runner.invoke(main, ["report", "--transcripts", str(t_path)])
    assert res.exit_code == 0
    assert json.loads(res.output) == json.loads(s_path.read_text())


def test_summarize_handles_aborts():
    records = [
        {"trial_id": 0, "seed": "00", "origin": "attacker", "flag": None,
         "err_fx": None, "err_y": None, "ledgers": {}, "aborted": "attacker"},
        {"trial_id": 1, "seed": "01", "origin": "attacker", "flag": 0,
         "err_fx": 1.0, "err_y": None, "ledgers": {"attacker": {"queries": 4}},
         "aborted": None},
    ]
    out = summarize(records, 0.05)
    assert out["abort_rates"] == {"attacker": 0.5}
    assert out["soundness_violation_rate"]["successes"] == 1
    assert out["mean_attacker_queries"] == 4.0


def test_run_batch_toy_derived_detector():
    cfg = ExperimentConfig.model_validate(
        {"task": "toy", "game": "detect", "challenger": "nature", "detector": "derived",
         "trials": 5, "instance_seed": 1, "master_seed": 2}
    )
    _, batch = run_batch(cfg)
    assert all(t.inner_flag is not None for t in batch)


LADDER_DETECTORS = "never_flag, level_threshold, frequency, well_formed"


@pytest.mark.parametrize(
    "overrides, message",
    [
        pytest.param({"detector": "toy"}, LADDER_DETECTORS, id="toy"),
        pytest.param({"detector": "derived"}, LADDER_DETECTORS, id="derived"),
        pytest.param({"detector": "nope"}, LADDER_DETECTORS, id="ladder-unknown"),
        pytest.param({"task": "chain", "detector": "well_formed"}, "choose one of never_flag",
                     id="chain-well_formed"),
        pytest.param({"task": "toy", "detector": "never_flag"}, "choose one of toy, derived",
                     id="toy-never_flag"),
        pytest.param({"game": "mitigate", "mitigator": "lazy"}, "choose one of extend",
                     id="ladder-mitigate-lazy"),
        pytest.param({"task": "chain", "game": "mitigate", "mitigator": "toy"},
                     "choose one of extend", id="chain-mitigate-toy"),
        pytest.param({"game": "mitigate", "detector": "never_flag"},
                     "detector is not read by mitigate games", id="detector-on-mitigate"),
        pytest.param({"task": "toy", "mitigator": "toy"},
                     "mitigator is not read by detect games", id="mitigator-on-detect"),
    ],
)
def test_run_rejects_toy_detectors_on_ladder(runner, tmp_path, overrides, message):
    """A defense name the configured game does not play exits 2 with the choices."""
    with pytest.raises(Exception):
        ExperimentConfig.model_validate({**BASE, **overrides})
    res = runner.invoke(main, ["run", "--config", str(write_config(tmp_path, **overrides))])
    assert res.exit_code == 2
    assert message in " ".join(res.output.split())


@pytest.mark.parametrize(
    "task, game, role, name",
    [
        ("ladder", "detect", "detector", "never_flag"),
        ("ladder", "mitigate", "mitigator", "extend"),
        ("chain", "detect", "detector", "never_flag"),
        ("chain", "mitigate", "mitigator", "extend"),
        ("toy", "detect", "detector", "toy"),
        ("toy", "mitigate", "mitigator", "toy"),
        ("toy", "mitigate", "mitigator", "extend"),  # README name for the toy mitigator
    ],
)
def test_default_defense_runs_as_named(runner, tmp_path, task, game, role, name):
    """Leaving the defense out runs byte-identically to naming it."""
    streams = []
    for named in ({}, {role: name}):
        cfg = write_config(tmp_path, task=task, game=game, trials=2, horizon=64, **named)
        out = tmp_path / f"{len(streams)}.jsonl"
        res = runner.invoke(main, ["run", "--config", str(cfg), "--transcripts", str(out)])
        assert res.exit_code == 0, res.output
        streams.append(out.read_bytes())
    assert streams[0] == streams[1]


def test_zero_attacker_samples_is_honoured():
    cfg = ExperimentConfig.model_validate({**BASE, "attacker_samples": 0})
    _, batch = run_batch(cfg)
    for t in batch:
        assert t.aborted == "attacker"
        assert t.ledgers["attacker"]["samples_allowed"] == 0
        assert t.ledgers["attacker"]["samples_used"] == 0


def test_gen_instance_rejects_short_horizon(runner, tmp_path):
    res = runner.invoke(
        main,
        ["gen-instance", "--task", "chain", "--horizon", "3", "--out", str(tmp_path / "i")],
    )
    assert res.exit_code == 2
    assert "--horizon" in res.output


def test_verify_pair_rejects_task_mismatch(runner, tmp_path):
    for task in ("ladder", "chain"):
        res = runner.invoke(
            main,
            ["gen-instance", "--task", task, "--seed", "4", "--out", str(tmp_path / task),
             "--emit-pairs", "1"],
        )
        assert res.exit_code == 0, res.output
    (tmp_path / "ladder.pub.json").write_text((tmp_path / "chain.pub.json").read_text())
    res = runner.invoke(
        main,
        ["verify-pair", "--instance", str(tmp_path / "ladder"),
         "--pairs", str(tmp_path / "ladder.pairs.jsonl")],
    )
    assert res.exit_code == 2
    assert "task" in res.output


def test_verify_pair_rejects_non_hex_pairs(runner, tmp_path):
    prefix = tmp_path / "inst"
    res = runner.invoke(
        main, ["gen-instance", "--task", "chain", "--seed", "4", "--out", str(prefix)]
    )
    assert res.exit_code == 0, res.output
    pairs = tmp_path / "bad.jsonl"
    pairs.write_text(json.dumps({"x": "zz", "y": "00"}) + "\n")
    res = runner.invoke(main, ["verify-pair", "--instance", str(prefix), "--pairs", str(pairs)])
    assert res.exit_code == 2
    assert "line 1" in res.output
