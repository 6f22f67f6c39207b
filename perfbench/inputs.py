"""The four workloads' inputs, derived from the benchmark seed alone.

Campaign ``i`` of a run with seed ``s`` uses base seed ``s * 1000 + i``:
the same seed gives the same campaigns. Each workload's network is
fixed (its own network seed, independent of ``s``), so runs differ only
in protocol randomness and a run's work does not swing with the size of
a freshly drawn network. Importing this module imports nothing of the
program; the functions import what they need when called.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Dict, List

__all__ = [
    "WORKLOADS",
    "base_seed",
    "expected_trials",
    "large_config",
    "local_campaign",
    "network",
    "network_seed",
    "served_request",
]

WORKLOADS = ("grid_campaign", "large_checkpointed", "served_mix", "async_campaign")

GRID_SCENARIO = "urban_dense"
GRID_PROTOCOLS = ("algorithm1", "algorithm2", "algorithm3", "robust_staged", "robust_flat")
GRID_TRIALS = 16
GRID_NETWORK_SEED = 0
#: Enough slots for every trial to discover every link on urban_dense.
GRID_MAX_SLOTS = 20_000

LARGE_NODES = 500
LARGE_PROTOCOLS = ("algorithm3", "robust_flat")
LARGE_TRIALS = 2
LARGE_HORIZON = 500
LARGE_NETWORK_SEED = 1500

SERVED_SCENARIO = "campus_cr"
SERVED_PROTOCOLS = ("algorithm1", "algorithm3", "robust_flat")
SERVED_TRIALS = 8
SERVED_NETWORK_SEED = 0
#: Identical resubmits after each new campaign (store hits): about as
#: much time as the new campaign itself, so the hits of a run sample the
#: host's speed swings as widely as its misses do.
SERVED_HITS = 20

ASYNC_SCENARIO = "campus_cr"
ASYNC_TRIALS = 16
ASYNC_DRIFT = 0.1
ASYNC_SPREAD = 20.0
ASYNC_NETWORK_SEED = 0

#: Repeated reads of a finished local archive per campaign (hit_cpu_s),
#: a quarter to half a second of reads per campaign on each workload.
LOCAL_HITS = {"grid_campaign": 5, "large_checkpointed": 3, "async_campaign": 20}


def base_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def large_config() -> Any:
    """The N=500 recipe: random geometric, 4 of 12 random channels."""
    from repro.workloads.generator import WorkloadConfig

    return WorkloadConfig(
        topology="random_geometric",
        topology_params={
            "num_nodes": LARGE_NODES,
            "radius": max(0.12, 4.0 / math.sqrt(LARGE_NODES)),
        },
        channel_model="uniform_random_subsets",
        channel_params={"universal_size": 12, "set_size": 4},
    )


def expected_trials(workload: str) -> Dict[str, int]:
    """Experiment name -> trial count of one campaign of ``workload``."""
    if workload == "grid_campaign":
        return {f"{GRID_SCENARIO}_{p}": GRID_TRIALS for p in GRID_PROTOCOLS}
    if workload == "large_checkpointed":
        return {f"n{LARGE_NODES}_{p}": LARGE_TRIALS for p in LARGE_PROTOCOLS}
    if workload == "served_mix":
        return {f"{SERVED_SCENARIO}_{p}": SERVED_TRIALS for p in SERVED_PROTOCOLS}
    if workload == "async_campaign":
        return {f"{ASYNC_SCENARIO}_algorithm4": ASYNC_TRIALS}
    raise ValueError(f"unknown workload {workload!r}")


def network_seed(workload: str) -> int:
    return {
        "grid_campaign": GRID_NETWORK_SEED,
        "large_checkpointed": LARGE_NETWORK_SEED,
        "served_mix": SERVED_NETWORK_SEED,
        "async_campaign": ASYNC_NETWORK_SEED,
    }[workload]


def network(workload: str) -> Any:
    """The realized network a workload's campaigns run on."""
    from repro.workloads.generator import generate_network
    from repro.workloads.scenarios import scenario

    if workload == "large_checkpointed":
        return generate_network(large_config(), LARGE_NETWORK_SEED)
    name = GRID_SCENARIO if workload == "grid_campaign" else SERVED_SCENARIO
    return scenario(name).build(network_seed(workload))


def served_request(seed: int, index: int) -> Dict[str, Any]:
    """The ``POST /campaigns`` body of the run's ``index``-th new campaign."""
    return {
        "scenario": SERVED_SCENARIO,
        "protocols": list(SERVED_PROTOCOLS),
        "trials": SERVED_TRIALS,
        "base_seed": base_seed(seed, index),
        "network_seed": SERVED_NETWORK_SEED,
    }


def local_campaign(workload: str, seed: int, index: int, out: Path, ckpt: Path) -> None:
    """Run one campaign of a local workload, archiving into ``out``."""
    b = base_seed(seed, index)
    if workload == "grid_campaign":
        import contextlib
        import io

        from repro.cli import main

        argv: List[str] = [
            "batch", GRID_SCENARIO, "--protocols", *GRID_PROTOCOLS,
            "--trials", str(GRID_TRIALS), "--seed", str(b),
            "--network-seed", str(GRID_NETWORK_SEED), "--max-slots", str(GRID_MAX_SLOTS),
            "--backend", "vectorized", "--output", str(out),
        ]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"m2hew batch exited {code}: {sink.getvalue()[-500:]}")
        return

    from repro.sim.batch import ExperimentSpec, run_batch

    if workload == "large_checkpointed":
        config = large_config()
        specs = [
            ExperimentSpec(
                name=f"n{LARGE_NODES}_{p}",
                workload=config,
                protocol=p,
                trials=LARGE_TRIALS,
                network_seed=LARGE_NETWORK_SEED,
                runner_params={
                    "max_slots": LARGE_HORIZON,
                    "delta_est": LARGE_NODES,
                    "stop_on_full_coverage": False,
                },
            )
            for p in LARGE_PROTOCOLS
        ]
        run_batch(specs, base_seed=b, output_dir=out, backend="vectorized", checkpoint_dir=ckpt)
        return
    if workload == "async_campaign":
        from repro.workloads.scenarios import scenario

        scen = scenario(ASYNC_SCENARIO)
        spec = ExperimentSpec(
            name=f"{ASYNC_SCENARIO}_algorithm4",
            workload=scen.config,
            protocol="algorithm4",
            trials=ASYNC_TRIALS,
            network_seed=ASYNC_NETWORK_SEED,
            runner_params={
                "delta_est": scen.delta_est,
                "drift_bound": ASYNC_DRIFT,
                "start_spread": ASYNC_SPREAD,
            },
        )
        run_batch([spec], base_seed=b, output_dir=out)
        return
    raise ValueError(f"{workload!r} is not a local campaign workload")
