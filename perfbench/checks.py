"""Output checks for campaign archives, computed apart from the program.

Nothing here calls the program's verification or bound code: checksums
are recomputed with :mod:`hashlib`, the link set and spans are derived
from the realized network's node channel sets and hearing relation, and
the theorem budgets are written out from the paper (Mittal, Zeng,
Venkatesan, Chandrasekaran, ICDCS 2011):

* Theorem 1 (Algorithm 1): ``M = ceil((16 max(S, Δ) / ρ) ln(N²/ε))``
  stages of ``ceil(log2 Δ_est)`` slots each;
* Theorem 2 (Algorithm 2): the first ``Δ + M`` stages, the stage with
  estimate ``d = 2, 3, …`` lasting ``ceil(log2 d)`` slots;
* Theorem 3 (Algorithm 3): ``ceil((8 max(2S, Δ_est) / ρ) ln(N²/ε))``
  slots after the last node starts (``T_s``);
* Theorem 10 (Algorithm 4): ``T_f − T_s <= (F + 1) L / (1 − δ)`` with
  Theorem 9's ``F = 6 ceil((8 max(2S, 3Δ_est) / ρ) ln(N²/ε))`` frames.

Each theorem promises completion within its budget with probability at
least ``1 − ε``; the check asks that share of an experiment's trials.
A trial that stopped unfinished before its budget ran out (a horizon
shorter than the budget) neither meets nor breaks the promise and is
left out of the share.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

__all__ = ["EPSILON", "NetworkTruth", "check_archive", "theorem_budget"]

#: Failure probability the theorem budgets are evaluated at.
EPSILON = 0.1

Link = Tuple[int, int]


@dataclass(frozen=True)
class NetworkTruth:
    """Links, spans and the paper's parameters of one realized network."""

    num_nodes: int
    spans: Mapping[Link, FrozenSet[int]]  # (transmitter, receiver) -> span
    s: int  # largest channel set
    delta: int  # largest per-channel degree
    rho: float  # smallest span ratio |span(v, u)| / |A(u)|

    @classmethod
    def from_sets(
        cls,
        channels: Mapping[int, FrozenSet[int]],
        hears: Mapping[int, FrozenSet[int]],
    ) -> "NetworkTruth":
        """Build from ``A(u)`` and ``{u: nodes u can hear}`` (symmetric model)."""
        spans: Dict[Link, FrozenSet[int]] = {}
        degree: Dict[Tuple[int, int], int] = {}
        rho = 1.0
        for u, heard in hears.items():
            for v in heard:
                span = channels[u] & channels[v]
                if not span:
                    continue
                spans[(v, u)] = frozenset(span)
                rho = min(rho, len(span) / len(channels[u]))
                for c in span:
                    degree[(u, c)] = degree.get((u, c), 0) + 1
        return cls(
            num_nodes=len(channels),
            spans=spans,
            s=max(len(a) for a in channels.values()),
            delta=max(degree.values(), default=0),
            rho=rho,
        )

    @classmethod
    def of(cls, network: object) -> "NetworkTruth":
        """Read ``A(u)`` and the hearing relation off a realized network."""
        ids = list(network.node_ids)  # type: ignore[attr-defined]
        return cls.from_sets(
            {u: frozenset(network.channels_of(u)) for u in ids},  # type: ignore[attr-defined]
            {u: frozenset(network.hears(u)) for u in ids},  # type: ignore[attr-defined]
        )


#: Protocols whose budgets count from ``T_s``, when every node has started.
_FROM_T_S = ("algorithm3", "algorithm4")


def _stage_slots(d: int) -> int:
    return max(1, math.ceil(math.log2(d)))


def theorem_budget(
    protocol: str, truth: NetworkTruth, params: Mapping[str, object]
) -> Optional[float]:
    """The paper's completion budget for ``protocol``, or ``None``.

    Slots for Algorithms 1–3 (counted from slot 0 for 1 and 2, from
    ``T_s`` for 3), real time after ``T_s`` for Algorithm 4.
    """
    n, s, delta, rho = truth.num_nodes, truth.s, truth.delta, truth.rho
    log_term = math.log(n * n / EPSILON)
    delta_est = params.get("delta_est")
    if protocol == "algorithm1":
        stages = math.ceil(16.0 * max(s, delta) / rho * log_term)
        return float(stages * _stage_slots(int(delta_est)))  # type: ignore[arg-type]
    if protocol == "algorithm2":
        stages = delta + math.ceil(16.0 * max(s, delta) / rho * log_term)
        return float(sum(_stage_slots(d) for d in range(2, 2 + stages)))
    if protocol == "algorithm3":
        return float(math.ceil(8.0 * max(2 * s, int(delta_est)) / rho * log_term))  # type: ignore[arg-type]
    if protocol == "algorithm4":
        frames = 6 * math.ceil(8.0 * max(2 * s, 3 * int(delta_est)) / rho * log_term)  # type: ignore[arg-type]
        frame_length = float(params.get("frame_length", 1.0))  # type: ignore[arg-type]
        drift = float(params.get("drift_bound", 0.0))  # type: ignore[arg-type]
        return (frames + 1) * frame_length / (1.0 - drift)
    return None


def _check_trial(
    trial: Mapping[str, object], truth: NetworkTruth, where: str, from_t_s: bool
) -> Tuple[List[str], float, bool]:
    """Findings of one trial, its elapsed time and whether it finished.

    The time is to completion for a finished trial, to the horizon for
    an unfinished one, counted from ``T_s`` when ``from_t_s`` is set and
    from slot 0 otherwise.
    """
    findings: List[str] = []
    horizon = float(trial["horizon"])  # type: ignore[arg-type]
    coverage = {
        (int(k[0]), int(k[1])): t for k, t in trial["coverage"]  # type: ignore[union-attr]
    }
    if set(coverage) != set(truth.spans):
        findings.append(f"{where}: coverage map does not list exactly the true links")
    covered_all = all(t is not None for t in coverage.values())
    if bool(trial["completed"]) != covered_all:
        findings.append(f"{where}: completed flag disagrees with coverage")
    for link, t in coverage.items():
        if t is not None and not 0.0 <= float(t) <= horizon:
            findings.append(f"{where}: link {link} covered at {t} outside [0, {horizon}]")
            break
    tables = trial["neighbor_tables"]
    for owner, table in tables.items():
        for neighbor, chans in table.items():
            link = (int(neighbor), int(owner))
            span = truth.spans.get(link)
            if span is None:
                findings.append(f"{where}: node {owner} lists {neighbor}, not a true link")
                continue
            if not chans:
                findings.append(f"{where}: node {owner} lists {neighbor} on no channel")
            elif not set(chans) <= span:
                findings.append(
                    f"{where}: node {owner} lists {neighbor} on {sorted(chans)}, "
                    f"outside span {sorted(span)}"
                )
    if bool(trial["completed"]):
        missing = [
            link for link in truth.spans if str(link[0]) not in tables.get(str(link[1]), {})
        ]
        if missing:
            findings.append(f"{where}: completed but {len(missing)} link(s) not in tables")
    t_s = 0.0
    if from_t_s:
        starts = trial["start_times"]
        t_s = max((float(v) for v in starts.values()), default=0.0)
    if covered_all:
        done = max((float(t) for t in coverage.values()), default=0.0)
        if trial["time_unit"] == "slots":
            done += 1.0  # slot index -> slots used
    else:
        done = horizon
    return findings, done - t_s, covered_all


def check_archive(
    directory: Path,
    truths: Mapping[int, NetworkTruth],
    expected_trials: Mapping[str, int],
) -> List[str]:
    """Every problem found in one archive directory (empty when correct).

    Args:
        directory: The archive (``manifest.json`` + experiment files).
        truths: Realized-network truth by the specs' ``network_seed``.
        expected_trials: Experiment name -> trial count the campaign
            asked for; the archive must hold exactly these experiments.
    """
    directory = Path(directory)
    try:
        manifest = json.loads((directory / "manifest.json").read_bytes())
        entries = list(manifest["experiments"])
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"manifest.json: unreadable ({exc!r})"]
    findings: List[str] = []
    names = [e.get("name") for e in entries]
    if sorted(names) != sorted(expected_trials):
        findings.append(f"manifest lists {names}, expected {sorted(expected_trials)}")
    for entry in entries:
        try:
            _check_experiment(directory, entry, truths, expected_trials, findings)
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            findings.append(f"{entry.get('file')}: unreadable ({exc!r})")
    return findings


def _check_experiment(
    directory: Path,
    entry: Mapping[str, str],
    truths: Mapping[int, NetworkTruth],
    expected_trials: Mapping[str, int],
    findings: List[str],
) -> None:
    """Append the findings of one manifest entry's experiment file."""
    raw = (directory / entry["file"]).read_bytes()
    if hashlib.sha256(raw).hexdigest() != entry.get("sha256"):
        findings.append(f"{entry['file']}: sha256 differs from the manifest")
    payload = json.loads(raw)
    spec = payload["spec"]
    trials = payload["trials"]
    want = expected_trials.get(spec["name"])
    if want is None or len(trials) != want or spec["trials"] != want:
        findings.append(
            f"{entry['file']}: {len(trials)} trial record(s), expected {want}"
        )
    truth = truths[int(spec["network_seed"])]
    params = spec.get("runner_params", {})
    budget = theorem_budget(spec["protocol"], truth, params)
    within = resolved = 0
    for i, trial in enumerate(trials):
        found, elapsed, finished = _check_trial(
            trial, truth, f"{entry['file']}[{i}]", spec["protocol"] in _FROM_T_S
        )
        findings.extend(found)
        if budget is None or (not finished and elapsed < budget):
            continue
        resolved += 1
        within += finished and elapsed <= budget
    if within < (1.0 - EPSILON) * resolved:
        findings.append(
            f"{entry['file']}: {within}/{resolved} trial(s) within the "
            f"{spec['protocol']} budget {budget:g}, below 1-eps"
        )
