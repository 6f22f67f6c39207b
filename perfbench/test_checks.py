"""The output checks catch tampered archives.

Run from the repository root: ``python3 -m pytest perfbench/test_checks.py``.
Each test archives a small real campaign, tampers with one copy, and
asserts that :func:`checks.check_archive` reports the damage
while the untouched archive passes.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checks import EPSILON, NetworkTruth, check_archive, theorem_budget  # noqa: E402

SCENARIO = "urban_dense"
PROTOCOLS = ("algorithm1", "algorithm3")
TRIALS = 3
NETWORK_SEED = 4


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """A clean archive plus the truth and expectations to check it by."""
    from repro.service.campaigns import CampaignRequest, campaign_specs
    from repro.sim.batch import run_batch
    from repro.workloads.scenarios import scenario

    request = CampaignRequest(
        scenario=SCENARIO,
        protocols=PROTOCOLS,
        trials=TRIALS,
        base_seed=11,
        network_seed=NETWORK_SEED,
        max_slots=20_000,
    )
    out = tmp_path_factory.mktemp("clean")
    run_batch(campaign_specs(request), base_seed=request.base_seed, output_dir=out)
    truth = {NETWORK_SEED: NetworkTruth.of(scenario(SCENARIO).build(NETWORK_SEED))}
    expected = {f"{SCENARIO}_{p}": TRIALS for p in PROTOCOLS}
    return out, truth, expected


def _copy(campaign, tmp_path: Path) -> Path:
    target = tmp_path / "tampered"
    shutil.copytree(campaign[0], target)
    return target


def _rewrite(archive: Path, protocol: str, edit) -> None:
    """Apply ``edit`` to one experiment payload and re-seal the manifest,
    so only the content checks (not the checksum) can notice."""
    name = f"{SCENARIO}_{protocol}.json"
    payload = json.loads((archive / name).read_text())
    edit(payload)
    text = json.dumps(payload, indent=2, sort_keys=True)
    (archive / name).write_text(text)
    manifest = json.loads((archive / "manifest.json").read_text())
    for entry in manifest["experiments"]:
        if entry["file"] == name:
            entry["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    (archive / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _findings(campaign, archive: Path):
    return check_archive(archive, campaign[1], campaign[2])


def test_clean_archive_passes(campaign):
    assert _findings(campaign, campaign[0]) == []


def test_flipped_byte_fails_checksum(campaign, tmp_path):
    archive = _copy(campaign, tmp_path)
    target = archive / f"{SCENARIO}_algorithm3.json"
    raw = bytearray(target.read_bytes())
    position = raw.index(b'"horizon"') + 3
    raw[position] ^= 0x01
    target.write_bytes(bytes(raw))
    findings = _findings(campaign, archive)
    assert any("sha256 differs" in finding for finding in findings), findings


def test_false_neighbor_fails(campaign, tmp_path):
    archive = _copy(campaign, tmp_path)
    truth = campaign[1][NETWORK_SEED]

    def inject(payload):
        # urban_dense is a clique, so only a node id outside the
        # network can be a false neighbor.
        stranger = str(truth.num_nodes + 7)
        payload["trials"][0]["neighbor_tables"]["0"][stranger] = [0]

    _rewrite(archive, "algorithm1", inject)
    findings = _findings(campaign, archive)
    assert any("not a true link" in finding for finding in findings), findings
    assert not any("sha256" in finding for finding in findings)


def test_channel_outside_span_fails(campaign, tmp_path):
    archive = _copy(campaign, tmp_path)
    truth = campaign[1][NETWORK_SEED]
    (transmitter, receiver), span = next(iter(sorted(truth.spans.items())))
    foreign = max(max(s) for s in truth.spans.values()) + 1

    def widen(payload):
        table = payload["trials"][1]["neighbor_tables"][str(receiver)]
        table[str(transmitter)] = sorted(span) + [foreign]

    _rewrite(archive, "algorithm3", widen)
    findings = _findings(campaign, archive)
    assert any("outside span" in finding for finding in findings), findings


def test_completion_past_theorem_budget_fails(campaign, tmp_path):
    archive = _copy(campaign, tmp_path)
    truth = campaign[1][NETWORK_SEED]

    def stretch(payload):
        budget = theorem_budget("algorithm3", truth, payload["spec"]["runner_params"])
        late = float(math.ceil(budget) + 5)
        for trial in payload["trials"]:
            trial["coverage"][0][1] = late
            trial["horizon"] = late + 1

    _rewrite(archive, "algorithm3", stretch)
    findings = _findings(campaign, archive)
    assert any("below 1-eps" in finding for finding in findings), findings
    assert not any("outside [0" in finding for finding in findings)


def test_missing_trial_record_fails(campaign, tmp_path):
    archive = _copy(campaign, tmp_path)
    _rewrite(archive, "algorithm1", lambda payload: payload["trials"].pop())
    findings = _findings(campaign, archive)
    assert any("trial record(s), expected" in finding for finding in findings), findings


def test_truth_from_sets():
    channels = {0: frozenset({1, 2}), 1: frozenset({2, 3}), 2: frozenset({4})}
    hears = {0: frozenset({1, 2}), 1: frozenset({0}), 2: frozenset({0})}
    truth = NetworkTruth.from_sets(channels, hears)
    assert dict(truth.spans) == {(1, 0): frozenset({2}), (0, 1): frozenset({2})}
    assert (truth.s, truth.delta, truth.rho) == (2, 1, 0.5)


@pytest.mark.parametrize("s,delta,rho,n,delta_est", [(4, 19, 0.25, 20, 32), (6, 9, 1 / 3, 30, 16)])
def test_budgets_match_an_independent_derivation(s, delta, rho, n, delta_est):
    """The paper's formulas, written twice: here and in repro.core.bounds."""
    from repro.core import bounds

    truth = NetworkTruth(num_nodes=n, spans={}, s=s, delta=delta, rho=rho)
    params = {"delta_est": delta_est, "drift_bound": 0.1}
    assert theorem_budget("algorithm1", truth, params) == bounds.theorem1_slot_budget(
        s, delta, rho, n, EPSILON, delta_est
    )
    assert theorem_budget("algorithm2", truth, params) == bounds.theorem2_slot_budget(
        s, delta, rho, n, EPSILON
    )
    assert theorem_budget("algorithm3", truth, params) == bounds.theorem3_slot_budget(
        s, delta_est, rho, n, EPSILON
    )
    assert theorem_budget("algorithm4", truth, params) == pytest.approx(
        bounds.theorem10_realtime_bound(s, delta_est, rho, n, EPSILON, 1.0, 0.1)
    )
