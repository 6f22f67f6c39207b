"""Steadiness check: repeat every workload and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --seed0 100 --out steady.json

Runs ``perfbench/run.py`` ten times on every workload of
``BENCHMARK.json`` with seeds ``seed0, seed0 + 1, …``, alternating the workload order from one pass
to the next so host-speed drift does not favour one workload. For each
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread — the
interquartile distance as a share of the median — against the bound
``BENCHMARK.json`` sets, plus each run's reference-loop time, the share
of CPU time the hypervisor stole during the run, the wall-clock medians
of the same spans (for comparison; they have no bound) and the share of
failed operations. Exit code 1 when a run fails or a spread exceeds its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        return {"ok": False, "wall": wall, "stderr": done.stderr[-2000:]}
    return {
        "ok": True,
        "wall": wall,
        "host": json.loads(lines[-2]),
        "result": json.loads(lines[-1]),
    }


def spread_of(values: List[float]) -> Dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed0", type=int, default=100)
    parser.add_argument("--out", default=None, help="write every run's figures here (JSON)")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    runs: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    for r in range(RUNS):
        order = workloads if r % 2 == 0 else workloads[::-1]
        for workload in order:
            record = run_once(workload, args.seed0 + r, bench["run_seconds"])
            record["seed"] = args.seed0 + r
            runs[workload].append(record)
            status = "ok" if record["ok"] else "FAILED"
            print(f"run {r} {workload} seed {record['seed']}: {status} "
                  f"({record['wall']:.1f}s)", file=sys.stderr, flush=True)

    bad = False
    for workload, records in runs.items():
        good = [rec for rec in records if rec["ok"] and rec["result"]["correct"]]
        print(f"\n{workload}: {len(good)}/{len(records)} runs ok, "
              f"wall {max(rec['wall'] for rec in records):.1f}s max")
        bad |= len(good) != len(records)
        if len(good) < 4:
            continue
        shares = sorted({rec["result"]["failed"] / rec["result"]["attempted"] for rec in good})
        print(f"  failed share: {shares}")
        refs = [rec["host"]["ref_loop_ms"] for rec in good]
        print("  ref loop ms: " + " ".join(f"{v:.1f}" for v in refs))
        steals = [rec["host"]["steal_share"] for rec in good]
        print("  steal share: " + " ".join("?" if v is None else f"{v:.3f}" for v in steals))
        for name, bound in bounds.items():
            got = spread_of([rec["result"]["metrics"][name]["value"] for rec in good])
            flag = ""
            if got["spread"] > bound:
                flag, bad = "  OVER BOUND", True
            print(f"  {name:14s} median {got['median']:.6g}  q1 {got['q1']:.6g}  "
                  f"q3 {got['q3']:.6g}  spread {got['spread']:.3f} / bound {bound} = "
                  f"{got['spread'] / bound:.2f}{flag}")
        for span in good[0]["host"]["wall_s"]:
            got = spread_of([rec["host"]["wall_s"][span] for rec in good])
            print(f"  wall {span:9s} median {got['median']:.6g}  spread {got['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
