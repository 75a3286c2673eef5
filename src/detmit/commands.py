"""The ``detmit`` command: generate instances, run trial batches, verify pairs.

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

This is the only module that imports click, so the experiment API in
:mod:`detmit.cli` loads without it.  Every command reaches that API as
``cli.<name>``, so a caller that replaces one of its names is heard here too.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Any, BinaryIO, Iterator, TextIO

import click

from . import cli
from .core import Transcript
from .drbg import SEED_MAX, SEED_MIN
from .payloads import bottom
from .timetask import HORIZON


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


def _load_config(path: str) -> cli.ExperimentConfig:
    try:
        return cli.ExperimentConfig.model_validate(json.loads(Path(path).read_text()))
    # ValueError covers bad JSON, bad UTF-8 and every field rule; RecursionError
    # is json.loads on too deeply nested input
    except (OSError, ValueError, RecursionError) as exc:
        raise click.UsageError(f"bad config {path}: {exc}") from exc


@main.command("gen-instance")
@click.option("--task", type=click.Choice(["ladder", "chain"]), default="ladder")
@click.option("--seed", type=click.IntRange(SEED_MIN, SEED_MAX), default=1, show_default=True)
@click.option("--horizon", type=click.IntRange(4, cli.MAX_HORIZON), help="chain only (default 256)")
@click.option("--out", type=click.Path(), required=True, help="output prefix")
@click.option(
    "--emit-pairs", type=click.IntRange(0, cli.MAX_EMIT_PAIRS), default=0, show_default=True
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
    instance = cli._build_task(task, seed, horizon)
    paths = [prefix.with_suffix(".pub.json"), prefix.with_suffix(".sec.json")]
    if emit_pairs:
        paths.append(prefix.with_suffix(".pairs.jsonl"))
        with paths[2].open("w") as fh:
            for x, y in cli._emit_pairs(instance, seed, emit_pairs):
                fh.write(json.dumps({"x": x.hex(), "y": y.hex()}) + "\n")
    # after the pairs: each ladder pair registers the proofs it carries
    with paths[0].open("wb") as fh:
        fh.writelines(cli._public_file(instance))
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
    ints = (("seed", SEED_MIN, SEED_MAX), ("horizon", 4, cli.MAX_HORIZON),
            ("emit_pairs", 0, cli.MAX_EMIT_PAIRS))
    missing = [key for key, _, _ in ints if key not in sec]
    if missing:
        raise click.UsageError(f"secret file lacks {', '.join(missing)}")
    try:
        for key, least, most in ints:
            cli._check_int(f"secret file's {key}", sec[key], least, most)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    instance = cli._build_task(task, sec["seed"], sec["horizon"])
    for _ in cli._emit_pairs(instance, sec["seed"], sec["emit_pairs"]):
        pass
    return instance


def _holds(fh: BinaryIO, chunks: Iterator[bytes]) -> bool:
    """Whether what is left of `fh` is the bytes of `chunks`, read a chunk at a time."""
    return all(fh.read(len(chunk)) == chunk for chunk in chunks) and not fh.read(1)


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
        if not _holds(pub, cli._public_file(instance)):
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


def _written(cfg: cli.ExperimentConfig, instance: Any, fh: TextIO) -> Iterator[dict]:
    """Each trial's record, read back from its line once that line is written to `fh`."""
    for i in range(cfg.trials):
        line = cli.run_trial(cfg, instance, i).to_json()
        fh.write(line + "\n")
        yield json.loads(line)


def _read(path: str) -> Iterator[Transcript]:
    """The transcript on each non-blank line of the stream at `path`, checked once."""
    for lineno, line in _numbered_lines(path):
        if not line.strip():
            continue
        try:
            t = Transcript.from_record(json.loads(line))
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise click.UsageError(
                f"bad transcript on line {lineno} of {path}: {type(exc).__name__}: {exc}"
            ) from exc
        yield t


@main.command("run")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--transcripts", type=click.Path(dir_okay=False, writable=True), default=None,
              callback=_output_file)
@click.option("--summary", "summary_path", type=click.Path(dir_okay=False, writable=True),
              default=None, callback=_output_file)
def cmd_run(config_path: str, transcripts: str | None, summary_path: str | None) -> None:
    """Run a trial batch; write transcripts (JSONL) and a summary (JSON)."""
    cfg = _load_config(config_path)
    instance = cli.build_instance(cfg)
    with open(transcripts or os.devnull, "w") as fh:
        out = cli.summarize(_written(cfg, instance, fh), cfg.epsilon)
    if cfg.task == "chain":
        out["audits"] = {
            "conservation": cli.audit_conservation(instance),
            "sequential_reach": cli.audit_sequential_reach(instance),
        }
    text = json.dumps(out, indent=2)
    if summary_path:
        Path(summary_path).write_text(text + "\n")
    click.echo(text)
    if cfg.task == "chain" and not all(out["audits"].values()):
        sys.exit(3)


def _report_epsilon(ctx: click.Context, param: click.Parameter, value: float) -> float:
    if not cli._epsilon_ok(value):
        raise click.BadParameter(f"{value} is not in the open range (0, 0.5)")
    return value


@main.command("report")
@click.option("--transcripts", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--epsilon", type=float, default=0.05, show_default=True,
              callback=_report_epsilon)
def cmd_report(transcripts: str, epsilon: float) -> None:
    """Summarize an existing transcript stream."""
    out = cli.summarize_transcripts(_read(transcripts), epsilon)
    if not out["trials"]:
        raise click.UsageError("transcript stream is empty")
    click.echo(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
