"""Campaign benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid_campaign --seed 1 --seconds 20 --trace 0

Workloads (inputs in :mod:`inputs`, reasons in ``perfbench/README.md``):
``grid_campaign``, ``large_checkpointed``, ``served_mix`` and
``async_campaign``. The program runs from ``src`` in child processes —
a warm campaign process (:mod:`worker`) for the local workloads, an
``m2hew serve`` subprocess (:mod:`serve_boot`) for ``served_mix`` — and
every archive is checked by :mod:`checks` outside the timed spans.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a traced
and an untraced copy side by side on the same campaigns, checks that
their archives are byte-identical and prints the per-layer metrics
(per round: one new campaign plus its repeated reads).

End-to-end timings are CPU seconds of the processes that do the work
(all their threads), not wall-clock seconds: on a shared virtual
machine the hypervisor withholds a varying share of the CPUs ("steal"),
which stretches wall-clock time by tens of percent from one minute to
the next, while the kernel keeps stolen time out of a process's CPU
time. The last stdout line is the result object; the line before it
carries what the host did during the run — the share of CPU time
stolen, a reference-loop time and the wall-clock medians of the same
spans — so a slow host can be told from a slow program.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import http.client
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
#: ``python3 -c`` body of one cold start: import the CLI, report how long.
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - t)"
)
#: Give up on a single campaign or request after this long.
STEP_TIMEOUT = 60.0
#: Cold starts made before the measured rounds (one more follows every
#: second round).
SETUP_UPFRONT = 3


class BenchError(RuntimeError):
    """The program misbehaved (crash, hang, wrong output)."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


_LIBC = ctypes.CDLL(ctypes.util.find_library("c"), use_errno=True)


def cpu_clock(pid: int) -> Callable[[], float]:
    """Reader of the CPU seconds process ``pid`` has used, all threads."""
    clock = ctypes.c_int()
    if _LIBC.clock_getcpuclockid(pid, ctypes.byref(clock)) != 0:
        raise BenchError(f"no CPU clock for pid {pid}")
    clock_id = clock.value
    return lambda: time.clock_gettime(clock_id)


def steal_seconds() -> Optional[float]:
    """CPU seconds the hypervisor has withheld so far, all CPUs summed."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
    except OSError:
        return None  # not Linux, or /proc not mounted: the share is unknown
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else None


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop (host-speed yardstick)."""
    t0 = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    return time.perf_counter() - t0


def median(values: List[float]) -> float:
    if not values:
        raise BenchError("no samples to take a median of")
    return float(statistics.median(values))


def stop_process(proc: subprocess.Popen, sig: int = signal.SIGINT) -> None:
    """Signal ``proc`` and wait for it, killing it if it lingers."""
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def read_line(proc: subprocess.Popen, timeout: float = STEP_TIMEOUT) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise BenchError(f"no answer from pid {proc.pid} within {timeout:.0f}s")
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"pid {proc.pid} exited (code {proc.wait()})")
    return line


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cold_start() -> Tuple[float, float, float]:
    """One fresh interpreter importing the CLI: (CPU s, wall s, import s)."""
    c0 = children_cpu()
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=STEP_TIMEOUT,
    )
    wall = time.perf_counter() - t0
    cpu = children_cpu() - c0
    if done.returncode != 0:
        raise BenchError(f"import repro.cli failed:\n{done.stderr[-2000:]}")
    return cpu, wall, float(done.stdout.strip())


def dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file())


def archive_files(directory: Path) -> Dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.json"))}


# ---------------------------------------------------------------------------
# local workloads: a warm campaign process per variant


class CampaignWorker:
    def __init__(self, workload: str, seed: int, trace: bool, log: Path) -> None:
        self._log = open(log, "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed), "1" if trace else "0"],
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        json.loads(read_line(self.proc))

    def ask(self, command: Dict[str, Any]) -> Dict[str, Any]:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return json.loads(read_line(self.proc))

    def close(self) -> Optional[Dict[str, Any]]:
        final = None
        try:
            if self.proc.poll() is None:
                final = self.ask({"exit": True})
        except (BenchError, OSError, ValueError):
            final = None
        stop_process(self.proc, signal.SIGTERM)
        self._log.close()
        return final


class Timings:
    """CPU-second and wall-second samples of the spans of one variant."""

    KINDS = ("setup", "campaign", "hit")

    def __init__(self) -> None:
        self.cpu: Dict[str, List[float]] = {k: [] for k in self.KINDS}
        self.wall: Dict[str, List[float]] = {k: [] for k in self.KINDS}

    def add(self, kind: str, cpu: float, wall: float) -> None:
        self.cpu[kind].append(cpu)
        self.wall[kind].append(wall)


class HostLog:
    """What the host did during a run: stolen CPU share, reference loops."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()
        self._steal0 = steal_seconds()
        self.refs: List[float] = []

    def summary(self, timings: Timings) -> Dict[str, Any]:
        elapsed = time.perf_counter() - self._t0
        steal = steal_seconds()
        share = None
        if steal is not None and self._steal0 is not None:
            share = (steal - self._steal0) / (elapsed * (os.cpu_count() or 1))
        return {
            "steal_share": share,
            "ref_loop_ms": 1000 * median(self.refs),
            "wall_s": {k: median(v) for k, v in timings.wall.items() if v},
        }


def run_local(args: argparse.Namespace, work: Path, result: Dict[str, Any]) -> None:
    from checks import NetworkTruth, check_archive

    expected = inputs.expected_trials(args.workload)
    trials_per_campaign = sum(expected.values())
    truth = {inputs.network_seed(args.workload): NetworkTruth.of(inputs.network(args.workload))}
    variants = [False, True] if args.trace else [False]
    host = HostLog()
    workers = {
        v: CampaignWorker(args.workload, args.seed, v, work / f"worker-{int(v)}.log")
        for v in variants
    }
    timings = {v: Timings() for v in variants}
    imports: List[float] = []
    overheads: List[float] = []  # traced minus untraced CPU, same campaign
    sizes: List[float] = []

    def cold() -> None:
        cpu, wall, imp = cold_start()
        timings[False].add("setup", cpu, wall)
        imports.append(imp)

    try:
        for _ in range(SETUP_UPFRONT):
            cold()
        start = time.perf_counter()
        index = 0
        while True:
            round_start = time.perf_counter()
            order = variants if index % 2 == 0 else variants[::-1]
            outs = {}
            for traced in order:
                out = work / f"c{index}-{int(traced)}"
                result["attempted"] += trials_per_campaign
                reply = workers[traced].ask(
                    {
                        "index": index,
                        "out": str(out),
                        "ckpt": str(work / f"ckpt{index}-{int(traced)}"),
                        "hits": inputs.LOCAL_HITS[args.workload],
                    }
                )
                if "error" in reply:
                    result["failed"] += trials_per_campaign
                    sys.stderr.write(reply["error"])
                    continue
                findings = check_archive(out, truth, expected)
                if findings:
                    raise BenchError("; ".join(findings[:10]))
                timings[traced].add("campaign", reply["campaign_cpu_s"], reply["campaign_s"])
                for cpu, wall in zip(reply["hit_cpu_s"], reply["hit_s"]):
                    timings[traced].add("hit", cpu, wall)
                if not traced:
                    sizes.append(dir_bytes(out))
                outs[traced] = out
            if len(outs) == 2:
                if archive_files(outs[False]) != archive_files(outs[True]):
                    raise BenchError(f"traced archive differs from untraced (campaign {index})")
                overheads.append(
                    timings[True].cpu["campaign"][-1] - timings[False].cpu["campaign"][-1]
                )
            for d in work.glob(f"*{index}-*"):
                shutil.rmtree(d, ignore_errors=True)
            if index % 2:
                cold()
            host.refs.append(reference_loop())
            index += 1
            now = time.perf_counter()
            if now + (now - round_start) - start > args.seconds:
                break  # the next whole round would end past the window
    finally:
        finals = {v: w.close() for v, w in workers.items()}
    if not timings[False].cpu["campaign"]:
        raise BenchError("no campaign succeeded")
    rounds = len(timings[variants[-1]].cpu["campaign"])
    result["host"] = host.summary(timings[False])
    if args.trace:
        trace = (finals[True] or {}).get("trace")
        if trace is None:
            raise BenchError("traced worker returned no layer totals")
        result["metrics"] = layer_metrics(trace, rounds, imports, median(overheads), {})
        return
    final = finals[False]
    if final is None:
        raise BenchError("campaign worker did not report its memory")
    result["metrics"] = end_to_end(timings[False], final["peak_rss_kb"], sizes)


# ---------------------------------------------------------------------------
# served_mix: m2hew serve subprocesses and a closed-loop client


class Server:
    def __init__(self, work: Path, name: str, trace: bool) -> None:
        self.report = work / f"{name}.report.json"
        self._log = open(work / f"{name}.log", "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "serve_boot.py"), str(self.report),
                "1" if trace else "0",
                "--port", "0", "--data-dir", str(work / name),
            ],
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        try:
            self.cpu = cpu_clock(self.proc.pid)
            line = read_line(self.proc)
            if "listening on http://" not in line:
                raise BenchError(f"unexpected server banner {line!r}")
            address = line.split("http://", 1)[1].split()[0]
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
            status, _ = self.request("GET", "/health")
            if status != 200:
                raise BenchError(f"/health answered {status}")
        except BaseException:
            self.stop()
            raise
        self.setup_cpu_s = self.cpu()
        self.setup_s = time.perf_counter() - t0

    def cpu_with_client(self) -> float:
        """CPU seconds of this server plus this (client) process so far."""
        return self.cpu() + time.process_time()

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=STEP_TIMEOUT)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def wait_done(self, job_id: str) -> Tuple[str, int]:
        """Follow the job's event stream until it ends: (state, events read)."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=STEP_TIMEOUT)
        events = 0
        try:
            conn.request("GET", f"/campaigns/{job_id}/events")
            response = conn.getresponse()
            state = "unknown"
            while True:
                line = response.readline()
                if not line:
                    return state, events
                events += 1
                event = json.loads(line)
                if event.get("kind") == "state":
                    state = event["state"]
                    if state in ("done", "failed", "cancelled"):
                        return state, events
        finally:
            conn.close()

    def stop(self) -> Dict[str, Any]:
        stop_process(self.proc)
        self._log.close()
        try:
            return json.loads(self.report.read_text())
        except (OSError, ValueError):
            return {}


class Client:
    """Closed-loop client: one request at a time, timed per phase."""

    def __init__(self) -> None:
        self.phase_s: Dict[str, float] = {"submit": 0.0, "result": 0.0, "file": 0.0}
        self.polls = 0

    def _timed(self, phase: str, server: Server, method: str, path: str, body=None) -> bytes:
        t0 = time.perf_counter()
        status, raw = server.request(method, path, body)
        self.phase_s[phase] += time.perf_counter() - t0
        if status >= 400:
            raise BenchError(f"{method} {path} answered {status}: {raw[:300]!r}")
        return raw

    def campaign(self, server: Server, body: bytes, expect_hit: bool) -> Dict[str, bytes]:
        """Submit, wait, fetch the verified listing and every file."""
        envelope = json.loads(self._timed("submit", server, "POST", "/campaigns", body))
        if bool(envelope["cache_hit"]) != expect_hit:
            raise BenchError(f"expected cache_hit={expect_hit}, got {envelope!r}")
        job = envelope["job"]
        if job["state"] != "done":
            state, events = server.wait_done(job["job_id"])
            self.polls += events
            if state != "done":
                raise BenchError(f"job {job['job_id']} ended {state}")
        listing = json.loads(
            self._timed("result", server, "GET", f"/campaigns/{job['job_id']}/result")
        )
        if not listing["verification"]["ok"]:
            raise BenchError(f"server reports a corrupt archive: {listing!r}")
        return {
            name: self._timed("file", server, "GET", f"/campaigns/{job['job_id']}/files/{name}")
            for name in listing["files"]
        }


def write_archive(files: Dict[str, bytes], out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    for name, raw in files.items():
        (out / name).write_bytes(raw)
    return out


def run_served(args: argparse.Namespace, work: Path, result: Dict[str, Any]) -> None:
    from checks import NetworkTruth, check_archive

    expected = inputs.expected_trials("served_mix")
    truth = {inputs.network_seed("served_mix"): NetworkTruth.of(inputs.network("served_mix"))}
    variants = [False, True] if args.trace else [False]
    host = HostLog()
    timings = {v: Timings() for v in variants}
    imports: List[float] = []
    overheads: List[float] = []  # traced minus untraced CPU, same campaign
    sizes: List[float] = []
    clients = {v: Client() for v in variants}
    servers: Dict[bool, Server] = {}
    first_miss: Optional[Dict[str, bytes]] = None
    reports: Dict[bool, Dict[str, Any]] = {}

    def cold(name: str) -> None:
        server = Server(work, name, False)
        server.stop()
        timings[False].add("setup", server.setup_cpu_s, server.setup_s)
        if args.trace:
            imports.append(cold_start()[2])

    def timed_campaign(traced: bool, body: bytes, kind: str) -> Dict[str, bytes]:
        server = servers[traced]
        c0, t0 = server.cpu_with_client(), time.perf_counter()
        files = clients[traced].campaign(server, body, expect_hit=kind == "hit")
        timings[traced].add(kind, server.cpu_with_client() - c0, time.perf_counter() - t0)
        return files

    try:
        for k in range(SETUP_UPFRONT):
            cold(f"cold{k}")
        for v in variants:
            servers[v] = Server(work, f"live{int(v)}", v)
        if not args.trace:
            timings[False].add("setup", servers[False].setup_cpu_s, servers[False].setup_s)
        start = time.perf_counter()
        index = 0
        while True:
            round_start = time.perf_counter()
            body = json.dumps(inputs.served_request(args.seed, index)).encode()
            order = variants if index % 2 == 0 else variants[::-1]
            got: Dict[bool, Dict[str, bytes]] = {}
            for traced in order:
                result["attempted"] += 1 + inputs.SERVED_HITS
                files = timed_campaign(traced, body, "campaign")
                findings = check_archive(
                    write_archive(files, work / f"miss{index}-{int(traced)}"), truth, expected
                )
                if findings:
                    raise BenchError("; ".join(findings[:10]))
                for _ in range(inputs.SERVED_HITS):
                    if timed_campaign(traced, body, "hit") != files:
                        raise BenchError(f"hit bytes differ from the miss (campaign {index})")
                got[traced] = files
                if not traced:
                    sizes.append(float(sum(len(b) for b in files.values())))
            if len(got) == 2:
                if got[False] != got[True]:
                    raise BenchError(f"traced archive differs from untraced (campaign {index})")
                overheads.append(
                    timings[True].cpu["campaign"][-1] - timings[False].cpu["campaign"][-1]
                )
            if first_miss is None:
                first_miss = got[variants[0]]
            for d in work.glob(f"miss{index}-*"):
                shutil.rmtree(d, ignore_errors=True)
            if index % 2:
                cold(f"cold{SETUP_UPFRONT + index}")
            host.refs.append(reference_loop())
            index += 1
            now = time.perf_counter()
            if now + (now - round_start) - start > args.seconds:
                break  # the next whole round would end past the window
    finally:
        for v, server in servers.items():
            reports[v] = server.stop()
    compare_with_direct_run(args.seed, first_miss, work / "direct")
    result["host"] = host.summary(timings[False])
    rounds = len(timings[variants[-1]].cpu["campaign"])
    if args.trace:
        trace = reports[True].get("trace")
        if trace is None:
            raise BenchError("traced server returned no layer totals")
        client = clients[True]
        extra = {
            "service.submit_s": client.phase_s["submit"] / rounds,
            "service.result_s": client.phase_s["result"] / rounds,
            "service.file_s": client.phase_s["file"] / rounds,
            "service.polls": client.polls / rounds,
        }
        result["metrics"] = layer_metrics(trace, rounds, imports, median(overheads), extra)
        return
    if "peak_rss_kb" not in reports[False]:
        raise BenchError("server did not report its memory")
    result["metrics"] = end_to_end(timings[False], reports[False]["peak_rss_kb"], sizes)


def compare_with_direct_run(seed: int, served: Optional[Dict[str, bytes]], out: Path) -> None:
    """The served archive must equal ``run_batch`` on the same request's specs."""
    if served is None:
        raise BenchError("no campaign was served")
    from repro.service.campaigns import CampaignRequest, campaign_specs
    from repro.sim.batch import run_batch

    request = CampaignRequest.from_dict(inputs.served_request(seed, 0))
    run_batch(campaign_specs(request), base_seed=request.base_seed, output_dir=out)
    if archive_files(out) != served:
        raise BenchError("served archive differs from a direct run_batch of the same request")


# ---------------------------------------------------------------------------
# metrics


def end_to_end(timings: Timings, rss_kb: float, sizes: List[float]) -> Dict[str, Dict[str, Any]]:
    return {
        "setup_s": {"value": median(timings.cpu["setup"]), "unit": "s"},
        "campaign_cpu_s": {"value": median(timings.cpu["campaign"]), "unit": "s"},
        "hit_cpu_s": {"value": median(timings.cpu["hit"]), "unit": "s"},
        "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        "archive_bytes": {"value": median(sizes), "unit": "bytes"},
    }


#: Kernel phases of the batched engine's slot profiler.
PHASES = ("schedule", "rng", "channel", "reception", "delivery", "result")


def layer_metrics(
    trace: Dict[str, Dict[str, float]],
    rounds: int,
    imports: List[float],
    overhead: float,
    extra: Dict[str, float],
) -> Dict[str, Dict[str, Any]]:
    seconds = trace["seconds"]
    own = trace["self_seconds"]
    counts = trace["counts"]

    def per_round(table: Dict[str, float], key: str) -> float:
        return table.get(key, 0.0) / rounds

    def rate(count_key: str, seconds_key: str) -> float:
        busy = seconds.get(seconds_key, 0.0)
        return counts.get(count_key, 0.0) / busy if busy > 0 else 0.0

    values: Dict[str, Tuple[float, str]] = {
        "import.s": (median(imports), "s"),
        "net.build_s": (per_round(seconds, "net.build"), "s"),
        "net.builds": (per_round(counts, "net.build.calls"), "count"),
        "net.codec_s": (per_round(seconds, "net.codec"), "s"),
        "kernel.s": (per_round(seconds, "kernel"), "s"),
        "kernel.node_slots": (per_round(counts, "kernel.node_slots"), "count"),
        "kernel.node_slots_per_s": (rate("kernel.node_slots", "kernel"), "1/s"),
    }
    for phase in PHASES:
        values[f"kernel.phase.{phase}_s"] = (per_round(counts, f"kernel.phase.{phase}"), "s")
    values.update(
        {
            "fast.s": (per_round(seconds, "fast"), "s"),
            "fast.node_slots_per_s": (rate("fast.node_slots", "fast"), "1/s"),
            "async.s": (per_round(seconds, "async"), "s"),
            "async.sim_time_per_s": (rate("async.sim_time", "async"), "s/s"),
            "results.encode_s": (per_round(seconds, "results.encode"), "s"),
            "results.encodes": (per_round(counts, "results.encode.calls"), "count"),
            "results.decode_s": (per_round(seconds, "results.decode"), "s"),
            "archive.s": (per_round(seconds, "archive"), "s"),
            "archive.files": (per_round(counts, "archive.files"), "count"),
            "batch.self_s": (per_round(own, "batch"), "s"),
            "journal.s": (per_round(seconds, "journal"), "s"),
            "journal.records": (per_round(counts, "journal.calls"), "count"),
            "journal.bytes": (per_round(counts, "journal.bytes"), "bytes"),
            "io.write_s": (per_round(seconds, "io.write"), "s"),
            "io.bytes_written": (per_round(counts, "io.bytes_written"), "bytes"),
            "io.fsyncs": (per_round(counts, "io.fsyncs"), "count"),
            "supervise.chunks": (per_round(counts, "supervise.chunks"), "count"),
            "supervise.self_s": (per_round(own, "supervise"), "s"),
            "verify.s": (per_round(seconds, "verify"), "s"),
            "verify.bytes": (per_round(counts, "verify.bytes"), "bytes"),
            "service.submit_s": (extra.get("service.submit_s", 0.0), "s"),
            "service.result_s": (extra.get("service.result_s", 0.0), "s"),
            "service.file_s": (extra.get("service.file_s", 0.0), "s"),
            "service.polls": (extra.get("service.polls", 0.0), "count"),
            "service.execute_s": (per_round(seconds, "service.execute"), "s"),
            "store.lookup_s": (per_round(seconds, "store.lookup"), "s"),
            "trace.overhead_s": (overhead, "s"),
        }
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


# ---------------------------------------------------------------------------


def preflight() -> None:
    """Fail fast (no result line) when the program cannot be imported."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no program sources under {SRC}")
    cold_start()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds through the finally blocks that stop the children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        preflight()
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: cannot run the program: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        if args.workload == "served_mix":
            run_served(args, work, result)
        else:
            run_local(args, work, result)
    except BenchError as exc:
        print(f"perfbench: {args.workload}: check failed: {exc}", file=sys.stderr)
        result.update(correct=False, metrics={})
        result.pop("host", None)
        print(json.dumps(result))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # succeeds only when no other run is using it
        except OSError:
            pass
    host = result.pop("host")
    print(json.dumps({"workload": args.workload, "seed": args.seed, **host}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
