"""The SHA-2 constructors `detmit.drbg` picks for the whole package.

`drbg.sha256` and `drbg.sha512` are CPython's built-in SHA-2 where the
interpreter has it and hashlib's OpenSSL constructors where it does not; the
digests, and so every transcript byte, are the same either way.
"""

from __future__ import annotations

import hashlib
import importlib
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from detmit import cli, drbg
from test_golden import CASES, run_digests


@given(st.sampled_from(["sha256", "sha512"]), st.binary(max_size=300), st.binary(max_size=300))
def test_drbg_constructors_give_hashlibs_digests(name, head, tail):
    """One-shot, and from a kept state's copy fed more bytes, as the package hashes."""
    make, ref = getattr(drbg, name), getattr(hashlib, name)
    assert make(head).digest() == ref(head).digest()
    kept = make(head)
    h = kept.copy()
    h.update(tail)
    assert h.digest() == ref(head + tail).digest()
    assert kept.digest() == ref(head).digest()  # the copy left the kept state as it was


def test_no_trial_hashes_through_hashlib(monkeypatch):
    """One trial of every game, instance build included, with hashlib's SHA-2 refused."""
    refused = []

    def refuse(name):
        def call(*args, **kwargs):
            refused.append(name)
            raise AssertionError(f"hashlib.{name} called")

        return call

    for name in ("sha256", "sha512", "new"):
        monkeypatch.setattr(hashlib, name, refuse(name))
    for task, game in cli.DEFENSES:
        for challenger in ("nature", "attack"):
            horizon = {"horizon": 64} if task == "chain" else {}
            cfg = cli.ExperimentConfig(
                task=task, game=game, challenger=challenger, trials=1, **horizon
            )
            _, (transcript,) = cli.run_batch(cfg)
            assert transcript.aborted is None, (task, game, challenger)
    assert refused == []


def _no_builtin(name):
    raise ValueError(f"unsupported hash type {name}")


@pytest.mark.parametrize("missing", ["raises", "absent"])
def test_golden_pins_hold_on_hashlibs_constructors(tmp_path, monkeypatch, missing):
    """`drbg` reloaded on an interpreter without the built-in hashes falls back to
    hashlib's, and a ladder and a chain pin hold with every module hashing through it."""
    built_in = {name: getattr(drbg, name) for name in ("sha256", "sha512")}
    saved = dict(vars(drbg))
    try:
        with monkeypatch.context() as m:
            if missing == "raises":
                m.setattr(hashlib, "__get_builtin_constructor", _no_builtin)
            else:
                m.delattr(hashlib, "__get_builtin_constructor")
            importlib.reload(drbg)
        assert drbg.sha256 is hashlib.sha256 and drbg.sha512 is hashlib.sha512
        # the modules that imported a constructor by name hash through the fallback too
        patched = set()
        for module in [mod for key, mod in sys.modules.items() if key.startswith("detmit.")]:
            for attr, value in list(vars(module).items()):
                for name, constructor in built_in.items():
                    if value is constructor:
                        monkeypatch.setattr(module, attr, getattr(drbg, name))
                        patched.add(module.__name__)
        assert {"detmit.crypto", "detmit.classify"} <= patched
        for case in ("ladder-mitigate", "chain-mitigate"):
            config, transcripts, summary = CASES[case]
            assert run_digests(tmp_path, config) == (transcripts, summary), case
    finally:
        vars(drbg).update(saved)
