"""Golden pins: `detmit run` output for small configs, byte for byte.

Each case pins the sha256 of the JSONL transcript stream `detmit run
--transcripts` writes and of the summary it prints.  A refactor or speed-up
must leave every digest unchanged; re-pin only for a deliberate change to
the transcript or summary format, and say so in the change log.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from click.testing import CliRunner

from detmit.commands import main

# name -> (config, transcripts sha256, summary sha256)
CASES: dict[str, tuple[dict, str, str]] = {
    "ladder-detect-well_formed": (
        {"task": "ladder", "game": "detect", "challenger": "attack",
         "detector": "well_formed", "level_target": 16, "trials": 24},
        "bc47a3c2888627e3ef13b3e76d680dc94d964baa98499de5b5232701c023c52e",
        "4330cb4bdc0e018ba6ad3d637e17627f1fa0570ec5c019c2117b5765f83ac274",
    ),
    "ladder-mitigate": (
        {"task": "ladder", "game": "mitigate", "challenger": "attack",
         "level_target": 16, "trials": 16},
        "028c56bb2b0b32113b54eb3e85368dedd3727717ebdcc2b89bc15fd60cf02962",
        "75d9f7abee5fd40fa430ac8b3e55a405dba413ffa3defaf15c5e953497c27619",
    ),
    "chain-detect": (
        {"task": "chain", "game": "detect", "challenger": "attack",
         "horizon": 64, "trials": 12},
        "144a20335b2dfa4abb4e5365560003daaa16c575d33d6a0e31f61de3c188c4b1",
        "cf2138c30353313718ec7fa33b69e99abb00a6abc0194635b2dcab006ae6afe8",
    ),
    "chain-mitigate": (
        {"task": "chain", "game": "mitigate", "challenger": "attack",
         "horizon": 64, "trials": 12},
        "22b4307a3ac0535c6aedb883975107e698e4cc749bf4015bf930212c2af04dbf",
        "ee90eae70e157fd1c44af8b8fba8154092597d44a5d24af9dee428e9c5947a4a",
    ),
    "toy-derived": (
        {"task": "toy", "game": "detect", "challenger": "attack",
         "detector": "derived", "trials": 40},
        "7f02d0285200d0fd6b707315dcab26b400068c07a3dbf2a909fbeb422835a219",
        "dd154da5141be9495c174083f91ea0cd0907ce0c8b3cd6eaafe1573ee2b17286",
    ),
    "toy-lazy": (
        {"task": "toy", "game": "mitigate", "challenger": "attack",
         "mitigator": "lazy", "trials": 40},
        "cc502336ad7672cb40996d6d7e13baaa3781ab4ddcfbff93e8ea0a741833449f",
        "e35063f5c7ddf36d01a91f29ebd0c9f64b875532fdd42eededfcb8e710c6b2ea",
    ),
    "toy-from_detector": (
        {"task": "toy", "game": "mitigate", "challenger": "nature",
         "mitigator": "from_detector", "trials": 40},
        "2f3e205984fef2440502b80fd7e9a1721c7454994f83d924237a75f18f5e5ea5",
        "1a0def0c7c1b3fc7dbc9201e6ac7051a2ebadc1d49f332beb789c7cbd0cd072b",
    ),
    "ladder-detect-level_threshold-nature": (
        {"task": "ladder", "game": "detect", "challenger": "nature",
         "detector": "level_threshold", "level_target": 16, "trials": 24},
        "6485da1e7a931c559e610574d3e0e5635c8fc26214801f60d72d05ae0b6085f2",
        "47a8e949b8353000667b14af9f1ebc191b76e52a11c8a25a97a9027e64def639",
    ),
    "ladder-mitigate-nature": (
        {"task": "ladder", "game": "mitigate", "challenger": "nature",
         "level_target": 16, "trials": 16},
        "e2de2b65b01855294a9722ed419121689600e2a58906c2d60a1fdc5bee926a0d",
        "40861463d3a337f3c16731eb8c8f3f01c2b24596c23aa39c8f97f2e05ff85edf",
    ),
    "chain-mitigate-nature": (
        {"task": "chain", "game": "mitigate", "challenger": "nature",
         "horizon": 64, "trials": 12},
        "f548a9524f2bc03344647f14df696218f5dce54bacdd44fca33e5c5565c60994",
        "8ad97c18c46f3834c305c6af8971d97fdde3b4265d07eab1aece2a016c4752ee",
    ),
}


def run_digests(tmp_path, config: dict) -> tuple[str, str]:
    """sha256 of the transcript stream and of the summary `detmit run` prints."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"instance_seed": 5, "master_seed": 6, **config}))
    t_path = tmp_path / "t.jsonl"
    res = CliRunner().invoke(
        main, ["run", "--config", str(cfg_path), "--transcripts", str(t_path)]
    )
    assert res.exit_code == 0, res.output
    return (
        hashlib.sha256(t_path.read_bytes()).hexdigest(),
        hashlib.sha256(res.output.encode()).hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_output_matches_pin(tmp_path, name):
    config, transcripts, summary = CASES[name]
    assert run_digests(tmp_path, config) == (transcripts, summary)


def test_ladder_mitigate_pin_holds_with_two_workers(tmp_path):
    config, transcripts, summary = CASES["ladder-mitigate"]
    assert run_digests(tmp_path, {**config, "workers": 2}) == (transcripts, summary)


def test_ladder_mitigate_pin_holds_with_four_workers(tmp_path):
    config, transcripts, summary = CASES["ladder-mitigate"]
    assert run_digests(tmp_path, {**config, "workers": 4}) == (transcripts, summary)


def test_chain_mitigate_pin_holds_with_two_workers(tmp_path):
    config, transcripts, summary = CASES["chain-mitigate"]
    assert run_digests(tmp_path, {**config, "workers": 2}) == (transcripts, summary)


def test_chain_mitigate_pin_holds_with_four_workers(tmp_path):
    config, transcripts, summary = CASES["chain-mitigate"]
    assert run_digests(tmp_path, {**config, "workers": 4}) == (transcripts, summary)
