"""CLI: config validation, trial batches, instance files, reporting."""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import importlib
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import detmit
from detmit import cli
from detmit.classify import ToyClassificationInstance
from detmit.cli import (
    MAX_ATTACKER_SAMPLES,
    MAX_EMIT_PAIRS,
    MAX_HORIZON,
    MAX_LEVEL_TARGET,
    MAX_Q,
    MAX_TRIALS,
    MAX_WORKERS,
    ExperimentConfig,
    run_batch,
    summarize,
)
from detmit.commands import _load_config, main
from detmit.core import (
    ATTACKER,
    AbortTrial,
    HarnessFault,
    Transcript,
    run_dbd_trial,
    run_dbm_trial,
)
from detmit.crypto import Ciphertext, ProofToken, npl_step, statement_digest
from detmit.drbg import SEED_MAX, SEED_MIN, HashDrbg, derive_trial_seed
from detmit.payloads import ClearPayload, decode_payload, encode_payload
from detmit.sampleagents import SelfIterationAttacker
from detmit.sampletask import DataTaskInstance, make_data_instance
from detmit.timetask import TimeTaskInstance
from testkit import build_clear_input

BASE = {
    "task": "ladder",
    "game": "detect",
    "challenger": "attack",
    "trials": 6,
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
    with pytest.raises(ValueError):
        ExperimentConfig.model_validate({**BASE, "epsilon": 0.9})
    with pytest.raises(ValueError):
        ExperimentConfig.model_validate({**BASE, "task": "nope"})
    with pytest.raises(ValueError):
        ExperimentConfig.model_validate({**BASE, "trials": 0})
    with pytest.raises(ValueError):
        ExperimentConfig.model_validate({**BASE, "leval_target": 16})  # typo
    with pytest.raises(ValueError):
        ExperimentConfig.model_validate({**BASE, "delta": 0.02})  # no reader


# Every field of a config as the reader resolves it: `q` left out stays None
# (`params()` picks the task's default), and `level_target` and `horizon` left
# out read 16 and 256 on every task.
DEFAULTS = {
    "task": "ladder", "game": "detect", "challenger": "nature", "detector": None,
    "mitigator": None, "epsilon": 0.05, "q": None, "trials": 64, "level_target": 16,
    "horizon": 256, "attacker_samples": None, "instance_seed": 1, "master_seed": 2,
    "workers": 1,
}


@pytest.mark.parametrize(
    "given_fields, resolved, q, defense",
    [
        pytest.param({}, {}, 1, "never_flag", id="empty"),
        pytest.param(BASE, BASE, 1, "never_flag", id="base"),
        pytest.param(
            {"task": "chain", "game": "mitigate", "horizon": 4096, "epsilon": 0.25},
            {"task": "chain", "game": "mitigate", "horizon": 4096, "epsilon": 0.25},
            1, "extend", id="chain-horizon",
        ),
        pytest.param(
            {"task": "toy", "game": "mitigate", "mitigator": "lazy", "trials": 500},
            {"task": "toy", "game": "mitigate", "mitigator": "lazy", "trials": 500},
            32, "lazy", id="toy-lazy",
        ),
        pytest.param(
            {"detector": None, "mitigator": None, "q": None, "level_target": None,
             "horizon": None, "attacker_samples": None},
            {}, 1, "never_flag", id="null-is-left-out",
        ),
        pytest.param(
            {"task": "toy", "level_target": None, "horizon": None}, {"task": "toy"},
            32, "toy", id="toy-null-task-keys",
        ),
        pytest.param(
            {"game": "mitigate", "challenger": "attack", "level_target": 400,
             "attacker_samples": 0, "q": MAX_Q, "trials": MAX_TRIALS,
             "instance_seed": SEED_MIN, "master_seed": SEED_MAX, "workers": 2},
            {"game": "mitigate", "challenger": "attack", "level_target": 400,
             "attacker_samples": 0, "q": MAX_Q, "trials": MAX_TRIALS,
             "instance_seed": SEED_MIN, "master_seed": SEED_MAX, "workers": 2},
            MAX_Q, "extend", id="ladder-at-every-bound",
        ),
        pytest.param(
            {"task": "chain", "horizon": MAX_HORIZON, "q": 1, "instance_seed": -5},
            {"task": "chain", "horizon": MAX_HORIZON, "q": 1, "instance_seed": -5},
            1, "never_flag", id="chain-horizon-cap",
        ),
        pytest.param(
            {"game": "mitigate", "level_target": MAX_LEVEL_TARGET,
             "attacker_samples": MAX_ATTACKER_SAMPLES, "workers": MAX_WORKERS},
            {"game": "mitigate", "level_target": MAX_LEVEL_TARGET,
             "attacker_samples": MAX_ATTACKER_SAMPLES, "workers": MAX_WORKERS},
            1, "extend", id="ladder-at-the-level-sample-and-worker-caps",
        ),
    ],
)
def test_accepted_configs_resolve_to_these_fields(given_fields, resolved, q, defense):
    cfg = ExperimentConfig.model_validate(given_fields)
    assert dataclasses.asdict(cfg) == {**DEFAULTS, **resolved}
    assert type(cfg.epsilon) is float
    assert cfg.params().q == q
    assert cfg.defense() == defense
    assert ExperimentConfig(**given_fields) == cfg


BIG = 2**130
CHAIN = {"task": "chain"}


@pytest.mark.parametrize(
    "overrides, field",
    [
        # D9: seeds whose 16-byte form overflows
        *(
            pytest.param({key: value}, key, id=f"{key}-{label}")
            for key in ("instance_seed", "master_seed")
            for label, value in (("2**130", BIG), ("-2**130", -BIG), ("2**127", SEED_MAX + 1),
                                 ("-2**127-1", SEED_MIN - 1))
        ),
        # no coercion: an int field takes no bool, string or float
        *(
            pytest.param({**extra, key: value}, key, id=f"{key}-{value!r}")
            for key, extra in (("trials", {}), ("workers", {}), ("q", {}),
                               ("level_target", {}), ("horizon", CHAIN),
                               ("attacker_samples", {}), ("instance_seed", {}),
                               ("master_seed", {}))
            for value in (True, False, "3", 3.0, None)
            if not (value is None and key in ("q", "level_target", "horizon",
                                               "attacker_samples"))
        ),
        pytest.param({"epsilon": True}, "epsilon", id="epsilon-True"),
        pytest.param({"epsilon": "0.05"}, "epsilon", id="epsilon-str"),
        pytest.param({"epsilon": None}, "epsilon", id="epsilon-None"),
        pytest.param({"task": 1}, "task", id="task-int"),
        pytest.param({"game": None}, "game", id="game-None"),
        pytest.param({"detector": 5}, "detector", id="detector-int"),
        pytest.param({"detector": ["never_flag"]}, "detector", id="detector-list"),
        # NaN and infinities fail every range check
        *(
            pytest.param({key: value}, key, id=f"{key}-{value}")
            for key in ("epsilon", "trials", "q")
            for value in (float("nan"), float("inf"), float("-inf"))
        ),
        # D10 caps
        pytest.param({"trials": MAX_TRIALS + 1}, "trials", id="trials-cap"),
        pytest.param({"q": MAX_Q + 1}, "q", id="q-cap"),
        pytest.param({**CHAIN, "horizon": MAX_HORIZON + 1}, "horizon", id="horizon-cap"),
    ],
)
def test_run_rejects_a_bad_field(runner, tmp_path, overrides, field):
    """Each field rule exits 2 through `detmit run`, naming the field."""
    with pytest.raises(ValueError, match=field):
        ExperimentConfig.model_validate({**BASE, **overrides})
    res = runner.invoke(main, ["run", "--config", str(write_config(tmp_path, **overrides))])
    assert res.exit_code == 2, res.output
    assert field in res.output


@pytest.mark.parametrize(
    "key, value",
    [
        (key, value)
        for key, cap in (("workers", MAX_WORKERS), ("level_target", MAX_LEVEL_TARGET),
                         ("attacker_samples", MAX_ATTACKER_SAMPLES))
        for value in (cap + 1, 10**9, BIG)
    ],
)
def test_run_rejects_a_capped_key_above_its_cap_before_any_trial(
    runner, tmp_path, monkeypatch, key, value
):
    """Above its cap a key exits 2 from the config reader: no trial runs, no thread starts."""

    def refuse(*args, **kwargs):
        raise AssertionError("an instance, a trial or a thread was started")

    monkeypatch.setattr(cli, "build_instance", refuse)
    monkeypatch.setattr(cli, "run_trial", refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.model_validate({**BASE, key: value})
    res = runner.invoke(main, ["run", "--config", str(write_config(tmp_path, **{key: value}))])
    assert res.exit_code == 2, res.output
    assert key in res.output


# JSON nested past what json.loads recurses through
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "JSON object, not list"),
        ("3", "JSON object, not int"),
        ("null", "JSON object, not NoneType"),
        ("{not json", "Expecting property name"),
        (DEEP, "recursion"),
    ],
    ids=["array", "int", "null", "non-json", "deep"],
)
def test_run_rejects_a_config_that_is_not_an_object(runner, tmp_path, text, message):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    res = runner.invoke(main, ["run", "--config", str(path)])
    assert res.exit_code == 2, res.output
    assert message in res.output


@pytest.mark.parametrize("target", ["transcripts", "secret-file", "pairs"])
def test_a_too_deeply_nested_json_read_exits_2(runner, tmp_path, target):
    """`report`'s lines, `verify-pair`'s secret file and its pairs exit 2, as a config does."""
    if target == "transcripts":
        path = tmp_path / "t.jsonl"
        path.write_text(DEEP + "\n")
        args = ["report", "--transcripts", str(path)]
    else:
        _, pairs = _gen_instance(runner, tmp_path / "inst", "ladder", 2)
        path = tmp_path / "inst.sec.json" if target == "secret-file" else pairs
        path.write_text(DEEP + "\n")
        args = ["verify-pair", "--instance", str(tmp_path / "inst"), "--pairs", str(pairs)]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert "recursion" in res.output


def test_seeds_at_the_bounds_run(runner, tmp_path):
    """The last seeds inside [-2**127, 2**127) run; D9 was one past them."""
    cfg = write_config(tmp_path, task="toy", trials=2, instance_seed=SEED_MAX,
                       master_seed=SEED_MIN)
    res = runner.invoke(main, ["run", "--config", str(cfg)])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["trials"] == 2


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=8)
    | st.integers() | st.integers(min_value=-(2**131), max_value=2**131)
    | st.sampled_from([0, 1, 4, 0.05, MAX_Q, MAX_TRIALS, MAX_HORIZON, SEED_MAX,
                       "ladder", "chain", "toy", "mitigate", "attack", "extend"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=3),
    max_leaves=6,
)
CONFIG_TEXTS = st.one_of(
    JSON_VALUES.map(json.dumps),
    st.tuples(st.sampled_from([*DEFAULTS, "delta"]), JSON_VALUES).map(
        lambda kv: json.dumps({**BASE, kv[0]: kv[1]})
    ),
    st.text(max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(text=CONFIG_TEXTS)
def test_load_config_returns_a_config_or_a_usage_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(text)
    try:
        cfg = _load_config(str(path))
    except click.UsageError:
        return
    assert type(cfg.epsilon) is float and 0 < cfg.epsilon < 0.5
    for key in ("trials", "level_target", "horizon", "instance_seed", "master_seed",
                "workers"):
        assert type(getattr(cfg, key)) is int
    assert SEED_MIN <= cfg.instance_seed <= SEED_MAX


def _modules_loaded_by_importing_the_cli(names: str) -> str:
    """Which of the modules matching `names` (a Python predicate on `m`) `import detmit.cli` loads."""
    src = Path(detmit.__file__).resolve().parents[1]
    code = f"import sys, detmit.cli; print(sorted(m for m in sys.modules if {names}))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_importing_the_cli_does_not_load_pydantic():
    assert _modules_loaded_by_importing_the_cli("'pydantic' in m") == "[]"


def test_importing_the_cli_does_not_load_the_thread_pool_or_logging():
    # no batch starts a thread, so nothing imports a pool or the logging it pulls in
    names = "m in ('concurrent.futures', 'logging')"
    assert _modules_loaded_by_importing_the_cli(names) == "[]"


def test_importing_the_cli_does_not_load_click():
    # only the `detmit` command, in detmit.commands, reads its arguments with click
    names = "m == 'click' or m.startswith('click.')"
    assert _modules_loaded_by_importing_the_cli(names) == "[]"


def test_the_detmit_script_is_the_click_group_of_the_four_commands():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["detmit"]
    module, _, name = target.partition(":")
    group = getattr(importlib.import_module(module), name)
    assert isinstance(group, click.Group)
    assert set(group.commands) == {"gen-instance", "run", "verify-pair", "report"}
    src = Path(detmit.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "detmit.commands", "--help"], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert all(command in proc.stdout for command in group.commands)


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
    for bad in ({"epsilon": 3}, {"delta": 0.02}):
        path.write_text(json.dumps({**BASE, **bad}))
        res = runner.invoke(main, ["run", "--config", str(path)])
        assert res.exit_code == 2, bad


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


@pytest.mark.parametrize("task", ["ladder", "chain", "toy"])
def test_a_batch_starts_no_thread_whatever_its_workers(monkeypatch, task):
    """`workers` is accepted, but a batch runs its trials in order on the calling thread."""

    def refuse(*args, **kwargs):
        raise AssertionError("a batch started a thread")

    horizon = {"horizon": 64} if task == "chain" else {}
    base = {**BASE, "task": task, "game": "mitigate", **horizon}
    serial = [t.to_json() for t in run_batch(ExperimentConfig.model_validate(base))[1]]
    monkeypatch.setattr(threading.Thread, "start", refuse)
    cfg = ExperimentConfig.model_validate({**base, "workers": 4})
    assert [t.to_json() for t in run_batch(cfg)[1]] == serial


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


def test_public_file_binds_the_count_statements_key(runner, tmp_path):
    prefix = tmp_path / "inst"
    res = runner.invoke(
        main, ["gen-instance", "--task", "ladder", "--seed", "4", "--out", str(prefix)]
    )
    assert res.exit_code == 0, res.output
    pub = json.loads(prefix.with_suffix(".pub.json").read_text())
    instance = make_data_instance(4)
    assert pub["verification_key"] == instance.snark.key_digest.hex()
    assert instance.snark.key_digest == instance.snark.verification_key.digest


def test_gen_instance_rejects_a_negative_pair_count(runner, tmp_path):
    res = runner.invoke(
        main,
        ["gen-instance", "--task", "chain", "--horizon", "16", "--out", str(tmp_path / "i"),
         "--emit-pairs", "-2"],
    )
    assert res.exit_code == 2
    assert "--emit-pairs" in res.output
    assert not list(tmp_path.iterdir())


def test_gen_instance_rejects_a_pair_count_over_the_cap(runner, tmp_path):
    res = runner.invoke(
        main,
        ["gen-instance", "--task", "ladder", "--out", str(tmp_path / "i"),
         "--emit-pairs", str(MAX_EMIT_PAIRS + 1)],
    )
    assert res.exit_code == 2
    assert "--emit-pairs" in res.output
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("horizon", ["256", "999"])
def test_gen_instance_rejects_a_horizon_on_the_ladder(runner, tmp_path, horizon):
    """No ladder code reads a horizon, so giving one is an error, as in `run` configs."""
    res = runner.invoke(
        main,
        ["gen-instance", "--task", "ladder", "--horizon", horizon, "--out", str(tmp_path / "i")],
    )
    assert res.exit_code == 2, res.output
    assert "horizon is read only by the chain task" in res.output
    assert not list(tmp_path.iterdir())


def test_gen_instance_records_the_default_horizon_on_both_tasks(runner, tmp_path):
    for task in ("ladder", "chain"):
        res = runner.invoke(main, ["gen-instance", "--task", task, "--out", str(tmp_path / task)])
        assert res.exit_code == 0, res.output
        sec = json.loads((tmp_path / task).with_suffix(".sec.json").read_text())
        assert sec == {"task": task, "seed": 1, "horizon": 256, "emit_pairs": 0}


@pytest.mark.parametrize(
    "task, pairs", [("ladder", 0), ("ladder", 3), ("chain", 0)], ids=["ladder-0", "ladder-3", "chain"]
)
def test_gen_instance_writes_the_indented_dump_of_the_public_state(runner, tmp_path, task, pairs):
    """The public file, written row by row, is the indented dump of the whole state."""
    prefix = tmp_path / "inst"
    args = ["gen-instance", "--task", task, "--seed", "4", "--out", str(prefix)]
    res = runner.invoke(main, [*args, "--emit-pairs", str(pairs)])
    assert res.exit_code == 0, res.output
    instance = cli._build_task(task, 4, 256)
    for _ in cli._emit_pairs(instance, 4, pairs):
        pass
    scalars, key, rows = instance.public_state()
    obj = {**scalars, key: list(rows)}
    assert len(obj[key]) == (2 * pairs if task == "ladder" else 256 + 16 + 1)
    assert prefix.with_suffix(".pub.json").read_text() == json.dumps(obj, indent=2) + "\n"


def test_the_chain_public_file_keeps_its_bytes(runner, tmp_path):
    """The chain public file's bytes are pinned: its rows are made from the known
    chain one point at a time, and not one byte of the file may move."""
    prefix = tmp_path / "inst"
    res = runner.invoke(main, ["gen-instance", "--task", "chain", "--seed", "4",
                               "--horizon", "4096", "--out", str(prefix)])
    assert res.exit_code == 0, res.output
    digest = hashlib.sha256(prefix.with_suffix(".pub.json").read_bytes()).hexdigest()
    assert digest == "28bd181018306649246132870bc0895fef1f5b94f8e17d5e5f66dcb5a1e4ab93"


def _gen_instance(runner, prefix, task, pairs):
    res = runner.invoke(
        main,
        ["gen-instance", "--task", task, "--seed", "4", "--out", str(prefix),
         "--emit-pairs", str(pairs)],
    )
    assert res.exit_code == 0, res.output
    return prefix.with_suffix(".pub.json"), prefix.with_suffix(".pairs.jsonl")


@pytest.mark.parametrize("task", ["ladder", "chain"])
def test_verify_pair_rejects_the_same_public_state_written_compact(runner, tmp_path, task):
    """The public file is checked as bytes: the same JSON in another layout is another file."""
    pub, pairs = _gen_instance(runner, tmp_path / "inst", task, 2)
    pub.write_text(json.dumps(json.loads(pub.read_text())))
    res = runner.invoke(main, ["verify-pair", "--instance", str(tmp_path / "inst"),
                               "--pairs", str(pairs)])
    assert res.exit_code == 2, res.output
    assert MISMATCH in res.output


def test_verify_pair_never_parses_the_public_file(runner, tmp_path, monkeypatch):
    pub, pairs = _gen_instance(runner, tmp_path / "inst", "ladder", 8)
    lengths = []
    loads = json.loads

    def recording(text, *args, **kwargs):
        lengths.append(len(text))
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(cli.json, "loads", recording)
    res = runner.invoke(main, ["verify-pair", "--instance", str(tmp_path / "inst"),
                               "--pairs", str(pairs)])
    assert res.exit_code == 0, res.output
    assert len(lengths) == 1 + 8  # the secret file, then each pair
    assert len(pub.read_text()) not in lengths


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


def test_an_added_public_registry_row_cannot_vouch_for_a_forged_answer(runner, tmp_path):
    """A forged answer whose proof only a hand-added `proof_registry` row would
    register: the public file no longer matches the rebuilt instance, exit 2."""
    prefix = tmp_path / "inst"
    res = runner.invoke(
        main,
        ["gen-instance", "--task", "ladder", "--seed", "4", "--out", str(prefix),
         "--emit-pairs", "8"],
    )
    assert res.exit_code == 0, res.output
    instance = make_data_instance(4)
    for line in prefix.with_suffix(".pairs.jsonl").read_text().splitlines():
        x, y = (bytes.fromhex(v) for v in json.loads(line).values())
        if isinstance(decode_payload(x), ClearPayload):
            break
    level = decode_payload(x).level + 50
    proof = ProofToken(b"\x07" * 16, statement_digest(level, instance.snark.key_digest))
    forged = decode_payload(y)._replace(level=level, proof=proof)
    pairs = tmp_path / "forged.jsonl"
    pairs.write_text(json.dumps(
        {"x": x.hex(), "y": encode_payload(forged, instance.width).hex()}
    ) + "\n")
    pub_path = prefix.with_suffix(".pub.json")
    pub = json.loads(pub_path.read_text())
    pub["proof_registry"].append([proof.statement_digest.hex(), proof.token.hex()])
    pub_path.write_text(json.dumps(pub, indent=2) + "\n")
    res = runner.invoke(main, ["verify-pair", "--instance", str(prefix), "--pairs", str(pairs)])
    assert res.exit_code == 2, res.output
    assert "public file does not match" in res.output


@pytest.mark.parametrize("task", ["ladder", "chain"])
def test_verify_pair_rejects_pairs_whose_input_is_forged(runner, tmp_path, task):
    """`h` scores a forged x 0 with any y; a pair verifies only when x is genuine too."""
    prefix = tmp_path / "inst"
    res = runner.invoke(
        main,
        ["gen-instance", "--task", task, "--seed", "4", "--out", str(prefix),
         "--emit-pairs", "2"],
    )
    assert res.exit_code == 0, res.output
    pairs = prefix.with_suffix(".pairs.jsonl")
    honest = json.loads(pairs.read_text().splitlines()[0])
    x = bytearray.fromhex(honest["x"])
    x[len(x) // 2] ^= 1
    garbage = [{"x": "00", "y": "00"}, {**honest, "x": x.hex()}, honest]
    pairs.write_text("".join(json.dumps(rec) + "\n" for rec in garbage))
    res = runner.invoke(main, ["verify-pair", "--instance", str(prefix), "--pairs", str(pairs)])
    assert res.exit_code == 3, res.output
    assert "1/3 pairs verified" in res.output


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


def test_report_reads_each_record_once(runner, tmp_path, monkeypatch):
    """`report` checks a line and folds the transcript it read: one `from_record` a record."""
    res, lines = _run_lines(runner, tmp_path, "plain", **TOY_NATURE, trials=5)
    assert res.exit_code == 0, res.output
    t_path = tmp_path / "plain.jsonl"
    t_path.write_text("\n".join([lines[0], "", *lines[1:], "  "]) + "\n")
    read, calls = Transcript.from_record, []

    def counting(rec):
        calls.append(rec)
        return read(rec)

    monkeypatch.setattr(Transcript, "from_record", staticmethod(counting))
    res = runner.invoke(main, ["report", "--transcripts", str(t_path)])
    assert res.exit_code == 0, res.output
    assert calls == [json.loads(line) for line in lines]
    assert json.loads(res.output)["trials"] == 5


def test_report_reads_null_attacker_queries(runner, tmp_path):
    cfg = write_config(tmp_path, trials=2)
    t_path = tmp_path / "t.jsonl"
    res = runner.invoke(main, ["run", "--config", str(cfg), "--transcripts", str(t_path)])
    assert res.exit_code == 0, res.output
    records = [json.loads(line) for line in t_path.read_text().splitlines()]
    nulled = 0
    for rec in records:
        ledger = rec["ledgers"].get(rec["origin"], {})
        if "queries" in ledger:
            ledger["queries"] = None
            nulled += 1
    assert nulled
    t_path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    res = runner.invoke(main, ["report", "--transcripts", str(t_path)])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["mean_attacker_queries"] is None


@pytest.mark.parametrize(
    "bad_line",
    [
        "{not json",
        "[1,2]",
        {"ledgers": None},
        {"ledgers": 5},
        {"ledgers": {"trainer": 5}},
        {"ledgers": {"trainer": {"steps_used": "7"}}},
        {"aborted": ["x"]},
        {"err_fx": "a"},
        {"origin": 3},
        {"flag": "1"},
        {"flag": True},
        {"trial_id": 0.5},
        # a value of the right type that no trial writes
        {"origin": "martian"},
        {"flag": 7},
        {"flag": -1},
        {"err_fx": -3},
        {"err_fx": 1.5},
        {"err_fx": float("nan")},
        {"err_y": float("inf")},
        {"err_y": float("-inf")},
        {"trial_id": -5},
        {"seed": "zz"},
        {"seed": "abc"},
        {"seed": "AB"},
        {"seed": "007"},
        {"seed": "-"},
        {"seed": "1.5"},
        {"aborted": "zz"},
        {"aborted": "harness"},
    ],
    ids=[
        "non-json", "array", "no-ledgers", "ledgers-int", "ledger-int",
        "ledger-value-str", "aborted-list", "err_fx-str", "origin-int", "flag-str",
        "flag-bool", "trial_id-float", "origin-martian", "flag-7", "flag-minus-1",
        "err_fx-minus-3", "err_fx-1.5", "err_fx-nan", "err_y-inf", "err_y-minus-inf",
        "trial_id-minus-5", "seed-not-hex", "seed-odd-hex", "seed-upper-hex",
        "seed-leading-zero", "seed-minus", "seed-float", "aborted-zz", "aborted-harness",
    ],
)
def test_report_rejects_a_malformed_line(runner, tmp_path, bad_line):
    cfg = write_config(tmp_path, trials=2)
    t_path = tmp_path / "t.jsonl"
    res = runner.invoke(main, ["run", "--config", str(cfg), "--transcripts", str(t_path)])
    assert res.exit_code == 0, res.output
    good = t_path.read_text().splitlines()
    if isinstance(bad_line, dict):
        # one good record with fields replaced; a None value drops the field
        rec = json.loads(good[0])
        for name, value in bad_line.items():
            if value is None:
                del rec[name]
            else:
                rec[name] = value
        bad_line = json.dumps(rec)
    t_path.write_text("\n".join([good[0], bad_line, good[1]]) + "\n")
    res = runner.invoke(main, ["report", "--transcripts", str(t_path)])
    assert res.exit_code == 2, res.output
    assert "line 2" in res.output


def test_report_rejects_each_line_of_a_stream_of_wrong_values(runner, tmp_path):
    lines = [
        '{"trial_id":0,"seed":"00","origin":"martian","flag":0,"err_fx":0.0,'
        '"err_y":null,"ledgers":{},"aborted":"zz"}',
        '{"trial_id":-5,"seed":"zz","origin":"attacker","flag":7,"err_fx":-3,'
        '"err_y":null,"ledgers":{},"aborted":null}',
        '{"trial_id":2,"seed":"02","origin":"nature","flag":0,"err_fx":NaN,'
        '"err_y":Infinity,"ledgers":{},"aborted":null}',
    ]
    t_path = tmp_path / "t.jsonl"
    for stream in (lines, *([line] for line in lines)):
        t_path.write_text("\n".join(stream) + "\n")
        res = runner.invoke(main, ["report", "--transcripts", str(t_path)])
        assert res.exit_code == 2, res.output
        assert "line 1" in res.output and "trials" not in res.output


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


def _run_lines(runner, tmp_path, name, **overrides):
    """`detmit run` on BASE with `overrides`: its result and the lines of its transcripts."""
    cfg, t_path = write_config(tmp_path, **overrides), tmp_path / f"{name}.jsonl"
    res = runner.invoke(main, ["run", "--config", str(cfg), "--transcripts", str(t_path)])
    return res, t_path.read_text().splitlines() if t_path.exists() else []


TOY_NATURE = {"task": "toy", "challenger": "nature", "q": 1}


def test_run_and_report_memory_stays_flat_in_trials(runner, tmp_path):
    """Peak traced memory of `run` and of `report` on its stream barely moves from
    200 to 2,000 trials: each line is written and folded as its trial ends."""

    def peaks(trials):
        cfg, t_path = write_config(tmp_path, **TOY_NATURE, trials=trials), tmp_path / "t.jsonl"
        out = []
        for args in (["run", "--config", str(cfg), "--transcripts", str(t_path)],
                     ["report", "--transcripts", str(t_path)]):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                res = runner.invoke(main, args)
                out.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
            assert res.exit_code == 0, res.output
        return out

    peaks(20)  # imports and first-call caches, outside both measures
    small, big = peaks(200), peaks(2000)
    assert all(b < 1.5 * s for s, b in zip(small, big)), (small, big)


class NotesQueries:
    """Challenges as `party` and notes `queries`; then raises `AbortTrial` if `abort`."""

    def __init__(self, party, queries, abort):
        self.party, self.queries, self.abort = party, queries, abort
        self.origin, self.sample_budget = party.origin, party.sample_budget

    def challenge(self, ctx, model):
        xs = self.party.challenge(ctx, model)
        ctx.notes["queries"] = self.queries
        if self.abort:
            raise AbortTrial(self.origin, "gave up")
        return xs


@pytest.mark.parametrize("abort", [False, True], ids=["returns", "aborts"])
@pytest.mark.parametrize(
    "queries", ["many", 1.5, True, float("nan"), -3, None, object()],
    ids=["str", "float", "bool", "nan", "negative", "none", "object"],
)
def test_a_bad_queries_note_faults_the_challenger(runner, tmp_path, monkeypatch, queries, abort):
    """A `queries` note that is not an int >= 0 aborts its trial in the challenger's
    name and stays out of the ledger; the batch runs on and `report` reads its stream."""
    toy_attack = {"task": "toy", "trials": 4}
    res, want = _run_lines(runner, tmp_path, "plain", **toy_attack)
    assert res.exit_code == 0, res.output
    build, wrapped = cli.build_parties, []

    def build_with_a_bad_note(cfg):
        trainer, challenger, defense = build(cfg)
        if not wrapped:
            challenger = NotesQueries(challenger, queries, abort)
            wrapped.append(challenger)
        return trainer, challenger, defense

    monkeypatch.setattr(cli, "build_parties", build_with_a_bad_note)
    res, got = _run_lines(runner, tmp_path, "noted", **toy_attack)
    assert res.exit_code == 0, res.output
    first = json.loads(got[0])
    assert first["aborted"] == "attacker" and "queries" not in first["ledgers"]["attacker"]
    assert got[1:] == want[1:]
    res = runner.invoke(main, ["report", "--transcripts", str(tmp_path / "noted.jsonl")])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["abort_rates"] == {"attacker": 0.25}

    wrapped.clear()
    cfg = ExperimentConfig.model_validate({**BASE, **toy_attack})
    t = cli.run_trial(cfg, cli.build_instance(cfg), 0)
    assert t.abort_reason == ("gave up" if abort else
                              f"fault: TypeError: queries note {queries!r:.40} is not an int >= 0")


def test_a_failed_chain_audit_exits_3_after_writing_everything(runner, tmp_path, monkeypatch):
    """A chain point past the reach with no work behind it fails the conservation
    audit: `run` writes the same transcripts as without it, then the summary, then exits 3."""
    chain = {"task": "chain", "game": "mitigate", "trials": 3, "horizon": 64}
    res, want = _run_lines(runner, tmp_path, "plain", **chain)
    assert res.exit_code == 0, res.output
    build = cli.build_instance

    def build_forged(cfg):
        instance = build(cfg)
        beyond = npl_step(instance.payload_at(instance.reach).config)
        instance.ivc._known.append((beyond, b"c" * 32))
        return instance

    monkeypatch.setattr(cli, "build_instance", build_forged)
    cfg, t_path, s_path = write_config(tmp_path, **chain), tmp_path / "t.jsonl", tmp_path / "s.json"
    res = runner.invoke(main, ["run", "--config", str(cfg), "--transcripts", str(t_path),
                               "--summary", str(s_path)])
    assert res.exit_code == 3, res.output
    audits = {"conservation": False, "sequential_reach": True}
    assert json.loads(res.output)["audits"] == json.loads(s_path.read_text())["audits"] == audits
    assert t_path.read_text().splitlines() == want


def _append_beyond_reach(task):
    """The next canonical point past the chain's tip, with no step behind it."""
    task.ivc._known.append((npl_step(task.payload_at(task.reach).config), b"c" * 32))


def _write_over_a_point(task):
    """An off-chain state in place of the known point at step 3."""
    task.ivc._known[3] = (hashlib.sha256(b"off-chain").digest(), b"c" * 32)


class _ForgeInSecondTrial:
    """The chain attacker; in the batch's second trial it first writes `forge` into
    `ctx.task`, the trial's world.  `played` is shared by every trial's copy."""

    origin = ATTACKER
    sample_budget = 0

    def __init__(self, inner, forge, played):
        self.inner, self.forge, self.played = inner, forge, played
        self.step_budget = inner.step_budget

    def challenge(self, ctx, model):
        self.played.append(ctx.task)
        if len(self.played) == 2:
            self.forge(ctx.task)
        return self.inner.challenge(ctx, model)


@pytest.mark.parametrize(
    "forge, audits",
    [
        (_append_beyond_reach, {"conservation": False, "sequential_reach": True}),
        (_write_over_a_point, {"conservation": True, "sequential_reach": False}),
    ],
)
def test_a_point_forged_inside_one_trial_fails_the_batch_audit(
    runner, tmp_path, monkeypatch, forge, audits
):
    """A party that writes a chain point through `ctx.task` in one trial of a batch:
    a point with no work behind it fails conservation, one written over fails
    sequential reach, and either way `run` writes every trial and exits 3."""
    trainer, attacker = cli.PARTIES["chain"]
    played = []
    monkeypatch.setitem(cli.PARTIES, "chain", (
        trainer, lambda cfg: _ForgeInSecondTrial(attacker(cfg), forge, played)
    ))
    chain = {"task": "chain", "game": "mitigate", "trials": 3, "horizon": 64}
    cfg, t_path, s_path = write_config(tmp_path, **chain), tmp_path / "t.jsonl", tmp_path / "s.json"
    res = runner.invoke(main, ["run", "--config", str(cfg), "--transcripts", str(t_path),
                               "--summary", str(s_path)])
    assert res.exit_code == 3, res.output
    assert json.loads(res.output)["audits"] == json.loads(s_path.read_text())["audits"] == audits
    assert len(t_path.read_text().splitlines()) == len(played) == 3


def test_a_faulted_batch_leaves_the_trials_before_the_fault_on_disk(runner, tmp_path, monkeypatch):
    """A fault in the task ends `run` with it, after every trial before it is written."""
    res, want = _run_lines(runner, tmp_path, "plain", **TOY_NATURE, trials=20)
    assert res.exit_code == 0, res.output
    sample_input, calls = ToyClassificationInstance.sample_input, []

    def fails_on_the_tenth_call(self, rng):
        calls.append(rng)
        if len(calls) == 10:
            raise RuntimeError("the tenth draw")
        return sample_input(self, rng)

    monkeypatch.setattr(ToyClassificationInstance, "sample_input", fails_on_the_tenth_call)
    res, got = _run_lines(runner, tmp_path, "faulted", **TOY_NATURE, trials=20)
    assert res.exit_code != 0
    assert isinstance(res.exception, HarnessFault)
    assert "sample_input: RuntimeError: the tenth draw" in str(res.exception)
    assert got == want[:9]
    res = runner.invoke(main, ["report", "--transcripts", str(tmp_path / "faulted.jsonl")])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["trials"] == 9


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
        pytest.param({"task": "toy", "game": "mitigate", "mitigator": "extend"},
                     "choose one of toy, lazy, from_detector", id="toy-mitigate-extend"),
        pytest.param({"game": "mitigate", "detector": "never_flag"},
                     "detector is not read by mitigate games", id="detector-on-mitigate"),
        pytest.param({"task": "toy", "mitigator": "toy"},
                     "mitigator is not read by detect games", id="mitigator-on-detect"),
        pytest.param({"task": "chain", "attacker_samples": 3},
                     "attacker_samples is read only by the ladder attacker",
                     id="chain-attacker_samples"),
        pytest.param({"task": "toy", "attacker_samples": 3},
                     "attacker_samples is read only by the ladder attacker",
                     id="toy-attacker_samples"),
        pytest.param({"task": "chain", "level_target": 16},
                     "level_target is read only by the ladder task", id="chain-level_target"),
        pytest.param({"task": "toy", "level_target": 16},
                     "level_target is read only by the ladder task", id="toy-level_target"),
        pytest.param({"horizon": 256}, "horizon is read only by the chain task",
                     id="ladder-horizon"),
        pytest.param({"task": "toy", "game": "mitigate", "horizon": 64},
                     "horizon is read only by the chain task", id="toy-horizon"),
    ],
)
def test_run_rejects_toy_detectors_on_ladder(runner, tmp_path, overrides, message):
    """A defense name the configured game does not play exits 2 with the choices."""
    with pytest.raises(ValueError):
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
    ],
)
def test_default_defense_runs_as_named(runner, tmp_path, task, game, role, name):
    """Leaving the defense out runs byte-identically to naming it."""
    streams = []
    for named in ({}, {role: name}):
        length = {"horizon": 64} if task == "chain" else {}
        cfg = write_config(tmp_path, task=task, game=game, trials=2, **length, **named)
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


def test_party_fault_aborts_the_trial_not_the_batch(monkeypatch):
    def faulty(self, ctx, model):
        raise IndexError("list index out of range")

    monkeypatch.setattr(SelfIterationAttacker, "challenge", faulty)
    cfg = ExperimentConfig.model_validate({**BASE, "workers": 2})
    _, batch = run_batch(cfg)
    assert len(batch) == cfg.trials
    for t in batch:
        assert t.aborted == SelfIterationAttacker.origin
        assert t.abort_reason == "fault: IndexError: list index out of range"
        assert t.flag is None and t.err_fx is None
        assert "abort_reason" not in json.loads(t.to_json())


class QueriesFirst:
    """Moves as `party` after one model query, `query(ctx.task, model)`."""

    def __init__(self, party, query):
        self.party, self.query = party, query
        self.origin = getattr(party, "origin", None)
        self.sample_budget = party.sample_budget
        self.step_budget = getattr(party, "step_budget", None)

    def challenge(self, ctx, model):
        self.query(ctx.task, model)
        return self.party.challenge(ctx, model)

    def mitigate(self, ctx, model, priv, xs):
        self.query(ctx.task, model)
        return self.party.mitigate(ctx, model, priv, xs)


@functools.cache
def _mitigation_batch(task: str) -> tuple[ExperimentConfig, list]:
    cfg = ExperimentConfig(
        task=task, game="mitigate", challenger="attack", trials=3,
        instance_seed=21, master_seed=23, **({"horizon": 64} if task == "chain" else {}),
    )
    return cfg, run_batch(cfg)[1]


@pytest.mark.parametrize("role", ["attacker", "mitigator"])
@pytest.mark.parametrize("target", ["input", "answer"])
@pytest.mark.parametrize("kind", [bytearray, memoryview])
@pytest.mark.parametrize("task", ["ladder", "chain", "toy"])
def test_a_non_bytes_model_query_faults_the_querying_party(monkeypatch, task, kind, target, role):
    """Models take bytes only.

    In trial 0 the attacker or the mitigator first queries the model with
    `kind` of a genuine input built from its `ctx.task` (clear, on the
    ladder; from the nature pool, on the toy task) or of the model's answer
    to it, queries the model answers as bytes.  That aborts the party's move
    in its name with a fault, and the other trials equal the plain batch's.
    """
    cfg, want = _mitigation_batch(task)
    assert want[0].aborted is None  # so the mitigator moves too
    build, wrapped = cli.build_parties, []

    def bad_query(instance, model):
        if task == "ladder":
            x = build_clear_input(instance, 3, HashDrbg(b"non-bytes"))
        elif task == "chain":
            x = instance.build_input(1)
        else:
            x = instance.sample_input(HashDrbg(b"non-bytes"))
        model(kind(x if target == "input" else model(x)))

    def build_with_a_bad_query(cfg):
        parties = list(build(cfg))
        if not wrapped:
            index = 1 if role == "attacker" else 2
            parties[index] = QueriesFirst(parties[index], bad_query)
            wrapped.append(index)
        return tuple(parties)

    monkeypatch.setattr(cli, "build_parties", build_with_a_bad_query)
    _, batch = run_batch(cfg)
    assert batch[0].aborted == role
    assert batch[0].abort_reason == f"fault: TypeError: a model query is bytes, not {kind.__name__}"
    assert [t.to_json() for t in batch[1:]] == [t.to_json() for t in want[1:]]


def _capture_worlds(monkeypatch, store):
    """Hand every world a ladder batch builds to `store` on its way out."""
    world = DataTaskInstance.world

    def capture(self, seed):
        w = world(self, seed)
        store(w)
        return w

    monkeypatch.setattr(DataTaskInstance, "world", capture)


@pytest.mark.parametrize(
    "task, cls",
    [("ladder", DataTaskInstance), ("chain", TimeTaskInstance), ("toy", ToyClassificationInstance)],
)
def test_every_trial_runs_in_the_world_of_its_own_seed(monkeypatch, task, cls):
    """`run_trial` asks every task for the trial's world, with no branch on the task."""
    calls = []
    world = cls.world

    def recording(self, seed):
        calls.append((self, seed))
        return world(self, seed)

    monkeypatch.setattr(cls, "world", recording)
    cfg = ExperimentConfig(task=task, game="mitigate", trials=3, master_seed=17,
                           **({"horizon": 16} if task == "chain" else {}))
    instance, batch = run_batch(cfg)
    seeds = [derive_trial_seed(cfg.master_seed, i) for i in range(cfg.trials)]
    assert calls == [(instance, seed) for seed in seeds]
    assert len(set(seeds)) == len(batch) == cfg.trials


def test_ladder_trials_run_in_worlds_of_their_own(monkeypatch):
    worlds = []
    _capture_worlds(monkeypatch, worlds.append)
    cfg = ExperimentConfig.model_validate({**BASE, "game": "mitigate", "workers": 2})
    instance, batch = run_batch(cfg)
    assert len({id(w.snark) for w in worlds}) == len({id(w.fhe) for w in worlds}) == len(batch)
    assert all(w.snark.registry_entries() for w in worlds)
    # the batch proved nothing on the instance itself, and left its eval oracle
    # as built: no cipher kept, and its eval-nonce stream where it started
    assert instance.snark.registry_entries() == []
    assert instance.fhe._ciphers == {}
    ct = Ciphertext(bytes(16), bytes(40))
    assert instance.fhe.eval(bytes, ct) == cli.build_instance(cfg).fhe.eval(bytes, ct)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_ladder_batch_keeps_no_world_alive(monkeypatch, workers):
    """Each world is freed by reference counting once its trial returns."""
    refs = []
    _capture_worlds(monkeypatch, lambda w: refs.append(weakref.ref(w)))
    cfg = ExperimentConfig.model_validate(
        {**BASE, "game": "mitigate", "level_target": 100, "workers": workers}
    )
    gc.disable()
    try:
        _, batch = run_batch(cfg)
        alive = sum(ref() is not None for ref in refs)
    finally:
        gc.enable()
    assert len(refs) == len(batch) == cfg.trials
    assert alive == 0


def test_a_ladder_batch_leaves_no_memory_behind():
    """Nothing process-wide, such as a cache of checked tokens, outlives a batch."""
    cfg = ExperimentConfig.model_validate(
        {**BASE, "game": "mitigate", "level_target": 64, "trials": 8,
         "instance_seed": 97, "master_seed": 98}
    )
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_batch(cfg)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 0.05 * 2**20


@pytest.mark.parametrize("under", ["x", "sub/x"], ids=["in-a-file", "below-a-file"])
def test_gen_instance_rejects_an_out_under_a_file_before_building(
    runner, tmp_path, monkeypatch, under
):
    afile = tmp_path / "afile"
    afile.write_text("")
    monkeypatch.setattr(cli, "_build_task", lambda *a: pytest.fail("built the instance"))
    out = afile / under
    res = runner.invoke(main, ["gen-instance", "--task", "ladder", "--out", str(out)])
    assert res.exit_code == 2, res.output
    assert "--out" in res.output
    assert f"{str(out.parent)!r} is not a writable directory" in res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert sorted(tmp_path.iterdir()) == [afile]


def test_gen_instance_rejects_short_horizon(runner, tmp_path):
    res = runner.invoke(
        main,
        ["gen-instance", "--task", "chain", "--horizon", "3", "--out", str(tmp_path / "i")],
    )
    assert res.exit_code == 2
    assert "--horizon" in res.output


@pytest.mark.parametrize(
    "option, value",
    [
        ("--seed", BIG),
        ("--seed", SEED_MAX + 1),
        ("--seed", SEED_MIN - 1),
        ("--horizon", MAX_HORIZON + 1),
    ],
    ids=["seed-2**130", "seed-2**127", "seed-below", "horizon-cap"],
)
def test_gen_instance_rejects_an_out_of_range_value(runner, tmp_path, option, value):
    res = runner.invoke(
        main,
        ["gen-instance", "--task", "chain", option, str(value), "--out", str(tmp_path / "i")],
    )
    assert res.exit_code == 2, res.output
    assert option in res.output
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf", "0", "0.5", "-0.1"])
def test_report_rejects_an_epsilon_outside_the_open_range(runner, tmp_path, epsilon):
    cfg = write_config(tmp_path, task="toy", trials=2)
    t_path = tmp_path / "t.jsonl"
    res = runner.invoke(main, ["run", "--config", str(cfg), "--transcripts", str(t_path)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["report", "--transcripts", str(t_path), "--epsilon", epsilon])
    assert res.exit_code == 2, res.output
    assert "--epsilon" in res.output


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


SECRET = {"task": "chain", "seed": 4, "horizon": 256, "emit_pairs": 1}
MISMATCH = "public file does not match the instance the secret file rebuilds"


@pytest.mark.parametrize(
    "sec, pub, message",
    [
        pytest.param({"task": "toy", "seed": 4, "horizon": 256, "emit_pairs": 1},
                     {"task": "toy"}, "cannot verify task 'toy'", id="toy-pair"),
        pytest.param({"task": "chain"}, None, "secret file lacks seed, horizon, emit_pairs",
                     id="secret-without-seed"),
        # a secret file gen-instance wrote before it recorded emit_pairs
        pytest.param({"task": "chain", "seed": 4, "horizon": 256}, None,
                     "secret file lacks emit_pairs", id="secret-without-emit_pairs"),
        pytest.param(["chain", 4, 256], None, "secret file must hold a JSON object",
                     id="secret-not-an-object"),
        *(
            pytest.param({**SECRET, key: value}, None, f"secret file's {key} must be an int",
                         id=f"secret-{key}-{value!r}")
            for key, value in (("seed", [3]), ("seed", 3.5), ("seed", True),
                               ("horizon", "16"), ("horizon", 3), ("horizon", None),
                               ("seed", BIG), ("seed", SEED_MIN - 1),
                               ("horizon", MAX_HORIZON + 1), ("emit_pairs", -1),
                               ("emit_pairs", MAX_EMIT_PAIRS + 1), ("emit_pairs", "1"),
                               ("emit_pairs", True))
        ),
        # the public file is compared with the rebuilt instance, never read into it
        *(
            pytest.param({**SECRET, "task": task}, {"task": task, key: value}, MISMATCH,
                         id=f"{key}-{value!r}")
            for task, key in (("ladder", "proof_registry"), ("chain", "chain_registry"))
            for value in (5, [[1]], [[1, "zz", "00"]], [["zz", "00"]], [["1", "aa", "bb"]],
                          [[True, "aa", "bb"]], {"1": "aa"})
        ),
        # each ladder pair registers its proofs; chain pairs register nothing
        pytest.param({**SECRET, "task": "ladder", "emit_pairs": 0}, {"task": "ladder"},
                     MISMATCH, id="fewer-ladder-pairs-emitted"),
        pytest.param({**SECRET, "horizon": 128}, None, MISMATCH, id="another-horizon"),
        pytest.param(SECRET, {"width": 1}, MISMATCH, id="another-width"),
        pytest.param(SECRET, {"extra": 1}, MISMATCH, id="an-extra-key"),
    ],
)
def test_verify_pair_rejects_hand_written_instance_files(runner, tmp_path, sec, pub, message):
    """`pub`, when given, overrides fields of a public file gen-instance wrote."""
    prefix = tmp_path / "inst"
    task = "ladder" if pub is not None and pub.get("task") == "ladder" else "chain"
    res = runner.invoke(
        main,
        ["gen-instance", "--task", task, "--seed", "4", "--out", str(prefix),
         "--emit-pairs", "1"],
    )
    assert res.exit_code == 0, res.output
    prefix.with_suffix(".sec.json").write_text(json.dumps(sec))
    if pub is not None:
        pub_path = prefix.with_suffix(".pub.json")
        edited = {**json.loads(pub_path.read_text()), **pub}
        pub_path.write_text(json.dumps(edited, indent=2) + "\n")
    res = runner.invoke(
        main,
        ["verify-pair", "--instance", str(prefix),
         "--pairs", str(prefix.with_suffix(".pairs.jsonl"))],
    )
    assert res.exit_code == 2
    assert message in res.output


@pytest.mark.parametrize("command", ["report", "verify-pair"])
@pytest.mark.parametrize("unreadable", ["not-utf8", "directory"])
def test_unreadable_input_exits_2_naming_it(runner, tmp_path, command, unreadable):
    prefix = tmp_path / "inst"
    res = runner.invoke(
        main, ["gen-instance", "--task", "chain", "--seed", "4", "--out", str(prefix)]
    )
    assert res.exit_code == 0, res.output
    path = tmp_path / "input"
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"x": "00", "y": "00"}\n' + "é".encode("latin-1") + b"\n")
    args = (
        ["report", "--transcripts", str(path)]
        if command == "report"
        else ["verify-pair", "--instance", str(prefix), "--pairs", str(path)]
    )
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)  # a usage error, not a traceback
    assert str(path) in res.output
    assert ("UTF-8" if unreadable == "not-utf8" else "is a directory") in res.output


@pytest.mark.parametrize("option", ["--transcripts", "--summary"])
@pytest.mark.parametrize("where", ["in-a-missing-directory", "at-a-directory"])
def test_run_rejects_an_unwritable_output_path_before_any_trial(
    runner, tmp_path, monkeypatch, option, where
):
    def refuse(*args, **kwargs):
        raise AssertionError("an instance or a trial was started")

    monkeypatch.setattr(cli, "build_instance", refuse)
    monkeypatch.setattr(cli, "run_trial", refuse)
    bad = tmp_path / "missing" / "out" if where == "in-a-missing-directory" else tmp_path
    other, good = "--summary" if option == "--transcripts" else "--transcripts", tmp_path / "out"
    res = runner.invoke(
        main,
        ["run", "--config", str(write_config(tmp_path)), option, str(bad), other, str(good)],
    )
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert option in res.output
    assert not good.exists()


# Every (task, game, defense, challenger) `detmit run` plays, as a small config.
GAMES = [
    {
        "task": task, "game": game, "challenger": challenger,
        ("detector" if game == "detect" else "mitigator"): name,
        **({"horizon": 64} if task == "chain" else {}),
        "instance_seed": 21, "master_seed": 22,
    }
    for (task, game), names in cli.DEFENSES.items()
    for name in names
    for challenger in ("nature", "attack")
]
GAME_IDS = [
    f"{g['task']}-{g['game']}-{g.get('detector') or g.get('mitigator')}-{g['challenger']}"
    for g in GAMES
]


@pytest.mark.parametrize("game", GAMES, ids=GAME_IDS)
def test_parties_hold_no_trial_state(monkeypatch, game):
    """No party `build_parties` builds changes during its trial: moves report through the ctx."""
    built = []
    build = cli.build_parties

    def build_and_keep(cfg):
        parties = build(cfg)
        built.extend((party, dict(vars(party))) for party in parties)
        return parties

    monkeypatch.setattr(cli, "build_parties", build_and_keep)
    _, batch = run_batch(ExperimentConfig(**game, trials=4))
    assert any(t.aborted is None for t in batch)  # every move ran at least once
    assert len(built) == 3 * len(batch)
    for party, before in built:
        assert dict(vars(party)) == before, type(party).__name__


@pytest.mark.parametrize("game", GAMES, ids=GAME_IDS)
def test_parties_built_once_replay_the_batch_through_each_trials_world(game):
    """A party reaches the task only through its move's `ctx.task`.

    So one set of parties, built once, plays every trial of a batch: run on
    the world `run_trial` gives trial `i`, it gives `run_batch`'s stream.
    No party, and no party a bridge wraps, holds a task instance.
    """
    cfg = ExperimentConfig(**game, trials=4)
    parties = cli.build_parties(cfg)
    instance = cli.build_instance(cfg)
    runner = run_dbd_trial if cfg.game == "detect" else run_dbm_trial
    replay = []
    for i in range(cfg.trials):
        seed = derive_trial_seed(cfg.master_seed, i)
        replay.append(runner(instance.world(seed), *parties, cfg.params(), seed, i).to_json())
    assert replay == [t.to_json() for t in run_batch(cfg)[1]]
    wrapped = [vars(p)[k] for p in parties for k in ("detector", "mitigator") if k in vars(p)]
    held = [v for party in (*parties, *wrapped) for v in vars(party).values()]
    assert not [v for v in held if isinstance(v, type(instance))]


ISOLATION_TRIALS = 6


@functools.cache
def _batch_of(game: int) -> list:
    return run_batch(ExperimentConfig(**GAMES[game], trials=ISOLATION_TRIALS))[1]


@settings(max_examples=60, deadline=None)
@given(game=st.integers(0, len(GAMES) - 1), i=st.integers(0, ISOLATION_TRIALS - 1))
def test_a_trial_run_alone_equals_its_batch_line(game, i):
    """A trial is a pure function of (config, trial index).

    Run alone through `run_trial` on a fresh instance, trial `i` equals its
    batch line, in-memory fields (notes, response, inner flag) included.
    """
    cfg = ExperimentConfig(**GAMES[game], trials=ISOLATION_TRIALS)
    alone, in_batch = cli.run_trial(cfg, cli.build_instance(cfg), i), _batch_of(game)[i]
    assert alone.to_json() == in_batch.to_json()
    assert (alone.notes, alone.response, alone.inner_flag) == (
        in_batch.notes, in_batch.response, in_batch.inner_flag,
    )
    assert alone == in_batch
