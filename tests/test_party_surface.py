"""Party code reaches no instance secret and draws only through the metered oracle.

The parties of every game the CLI plays, the parties the two bridges wrap,
the nature challenger and the two task models are read as source.  None of
them may read or call a name that only the harness or the instance may use:
the quality oracle `h`, key generation and signing, the witness pool and its
prover, the registries, free chain points or payloads, the toy labels, and
the harness's own calls: `world`, which forks the proof registry, and
`public_state`, which reads it.
Nor may one call an instance's own draw routines, which would skip the
sample meter that `SampleOracle` keeps.  A party reaches the task only
through its move's `ctx.task`, which is still the whole instance, so the
guard reads names, whatever route a party takes to them.

A class's source counts with that of its package base classes and of each
function of its own module that it calls by name, and so on through those.
Python cannot stop a party from introspecting what it holds, so this pins
the contract that the shipped parties keep; it is not a sandbox.
"""

from __future__ import annotations

import ast
import functools
import inspect
import sys
import textwrap
import types
from typing import Iterator

from detmit import cli, crypto
from detmit.cli import ExperimentConfig
from detmit.core import NatureChallenger
from detmit.sampleagents import DataModel
from detmit.timetask import TimeModel

SECRETS = {
    "h", "keygen", "sig_sign_zero", "zero_signer", "sig_keygen", "prove_count", "payload_at",
    "known_point", "world", "public_state",
    "_pool", "_prover", "_registry", "label", "nature",
}
# an instance's own draws, which the metered `SampleOracle` makes for a party
DRAWS = {"sample_pair", "sample_input", "sample_tokens", "walk_draws"}


def _horizon(task: str) -> dict:
    return {"horizon": 64} if task == "chain" else {}


@functools.cache
def _instance(task: str):
    return cli.build_instance(ExperimentConfig(task=task, **_horizon(task)))


def party_classes() -> set[type]:
    """Each class `cli.build_parties` builds for some task, game, challenger and
    defense, each class a bridge wraps, the nature challenger and the models."""
    out: set[type] = {NatureChallenger, DataModel, TimeModel}
    for (task, game), defenses in cli.DEFENSES.items():
        role = "detector" if game == "detect" else "mitigator"
        for name in defenses:
            for challenger in ("nature", "attack"):
                cfg = ExperimentConfig(
                    task=task, game=game, challenger=challenger, **{role: name}, **_horizon(task)
                )
                for party in cli.build_parties(cfg):
                    out.add(type(party))
                    for wrapped in ("detector", "mitigator"):
                        if hasattr(party, wrapped):
                            out.add(type(getattr(party, wrapped)))
    return out


def _sources(cls: type) -> Iterator[tuple[str, ast.AST]]:
    """(qualified name, parsed source) of `cls`, its package bases and the
    module functions they call by name, each once."""
    module = sys.modules[cls.__module__]
    todo: list[object] = [
        base for base in cls.__mro__
        if base.__module__ == cls.__module__ or base.__module__.startswith("detmit.")
    ]
    seen: set[int] = set()
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        tree = ast.parse(textwrap.dedent(inspect.getsource(obj)))
        yield f"{obj.__module__}.{obj.__qualname__}", tree
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                called = getattr(module, node.id, None)
                if isinstance(called, types.FunctionType) and called.__module__ == module.__name__:
                    todo.append(called)


def secret_uses(cls: type) -> set[str]:
    """`where: name` for each read or call of a secret name or an instance draw."""
    found = set()
    for where, tree in _sources(cls):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            else:
                continue
            if name in SECRETS or name in DRAWS:
                found.add(f"{where}: {name}")
    return found


def test_the_collected_parties_cover_every_role():
    names = {cls.__name__ for cls in party_classes()}
    assert {
        "LadderTrainer", "SelfIterationAttacker", "ProofExtendingMitigator", "WellFormedDetector",
        "TimeTrainer", "ChainClimbingAttacker", "ChainExtendingMitigator", "ToyTrainer",
        "ToyAttacker", "ToyDetector", "ToyMitigator", "LazyMitigator", "MitigatorFromDetector",
        "DetectorFromMitigator", "NatureChallenger", "DataModel", "TimeModel",
    } <= names


def test_every_guarded_name_is_one_the_package_holds():
    holders: list[object] = [crypto, crypto.VerificationKey]
    for task in cli.PARTIES:
        instance = _instance(task)
        holders += [instance, *(getattr(instance, a, None) for a in ("snark", "fhe", "ivc"))]
    assert {n for n in SECRETS | DRAWS if not any(hasattr(o, n) for o in holders)} == set()


def test_no_party_reads_a_secret_or_draws_past_the_oracle():
    assert {use for cls in party_classes() for use in secret_uses(cls)} == set()


# --- the guard's self-test: parties that break the contract ---------------------------


class _ScoresWithH:
    def detect(self, ctx, model, priv, xs):
        return max(self.instance.h(x, model(x)) for x in xs)


class _ScoresWithTheTasksH:
    def detect(self, ctx, model, priv, xs):
        return ctx.task.h(xs[0], model(xs[0]))


class _OpensWithKeygen:
    def __init__(self, instance):
        self.fhe = instance.fhe

    def detect(self, ctx, model, priv, xs):
        keys = [self.fhe.keygen(x[:16]) for x in xs]
        return int(any(keys))


class _ReadsThePublicState:
    def detect(self, ctx, model, priv, xs):
        scalars, key, rows = ctx.task.public_state()
        return int(len(list(rows)) > len(xs))


def _draw_unmetered(instance, rng):
    return instance.sample_input(rng)


class _DrawsThroughAHelper:
    def challenge(self, ctx, model):
        return [_draw_unmetered(self.instance, ctx.rng)]


def test_the_guard_catches_a_secret_read_a_keygen_call_and_an_unmetered_draw():
    assert secret_uses(_ReadsThePublicState) == {
        f"{__name__}._ReadsThePublicState: public_state"
    }
    assert secret_uses(_ScoresWithH) == {f"{__name__}._ScoresWithH: h"}
    assert secret_uses(_ScoresWithTheTasksH) == {f"{__name__}._ScoresWithTheTasksH: h"}
    assert secret_uses(_OpensWithKeygen) == {f"{__name__}._OpensWithKeygen: keygen"}
    assert secret_uses(_DrawsThroughAHelper) == {f"{__name__}._draw_unmetered: sample_input"}
