"""Warm campaign process for the local workloads.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED TRACE`` with ``src``
on ``PYTHONPATH``. The process imports the program once, then reads
one JSON command per line on stdin and answers one JSON line on stdout:

* ``{"index": i, "out": DIR, "ckpt": DIR, "hits": H}`` runs campaign
  ``i`` into ``out`` and verifies it (``campaign_s``), then reads the
  verified archive back ``H`` times (``hit_s``: verify, then read every
  file the manifest lists); each span is reported in wall-clock seconds
  and in CPU seconds of this process and any children it reaped
  (``campaign_cpu_s``, ``hit_cpu_s``);
* ``{"exit": true}`` answers with the process's peak resident memory
  and, when ``TRACE`` is 1, the layer totals of :mod:`shims`.

Anything the program prints goes to stderr, so stdout carries only the
protocol.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402


def _cpu() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _read_back(out: Path, verify) -> int:
    if not verify(out).ok:
        raise RuntimeError(f"archive {out} failed verification")
    manifest = json.loads((out / "manifest.json").read_bytes())
    return sum(len((out / e["file"]).read_bytes()) for e in manifest["experiments"])


def main() -> int:
    workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    tracer = None
    if trace:
        import shims

        tracer = shims.install()
    import repro.cli  # noqa: F401  (the warm process pays the import once)
    import repro.resilience.supervisor  # noqa: F401
    import repro.resilience.verify as verify_module

    proto.write(json.dumps({"ready": True}) + "\n")
    for line in sys.stdin:
        command = json.loads(line)
        if command.get("exit"):
            break
        try:
            out = Path(command["out"])
            c0, t0 = _cpu(), time.perf_counter()
            inputs.local_campaign(workload, seed, command["index"], out, Path(command["ckpt"]))
            report = verify_module.verify_archive(out)
            reply = {"campaign_cpu_s": _cpu() - c0, "campaign_s": time.perf_counter() - t0}
            if not report.ok:
                raise RuntimeError(f"archive {out} failed verification")
            reply.update(hit_cpu_s=[], hit_s=[])
            for _ in range(command["hits"]):
                c0, t0 = _cpu(), time.perf_counter()
                _read_back(out, verify_module.verify_archive)
                reply["hit_cpu_s"].append(_cpu() - c0)
                reply["hit_s"].append(time.perf_counter() - t0)
        except Exception:
            reply = {"error": traceback.format_exc()}
        proto.write(json.dumps(reply) + "\n")

    proto.write(
        json.dumps(
            {
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "trace": None if tracer is None else tracer.snapshot(),
            }
        )
        + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
