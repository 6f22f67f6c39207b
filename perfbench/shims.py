"""Timing shims around the program's layer entry points.

The traced run measures each layer from outside the program: it wraps
the public calls the layers expose (network generation, the network JSON
codec, the engines' ``run``, result encode/decode, the checkpoint
journal, atomic writes, ``os.fsync``, archive writing and verification,
the service's job executor and store lookup) with timing shims, and
switches on the batched engine's own slot-phase profiler. Nothing here
changes what the wrapped calls compute, so traced runs archive the same
bytes as untraced ones (``run.py --trace 1`` checks that).

Each shim is a span: its duration is added to ``seconds[name]``, its
*self* time (duration minus the spans it encloses, per thread) to
``self_seconds[name]`` and its call count to ``counts[name + ".calls"]``.
Other counters (bytes, node-slots, fsyncs) ride along in ``counts``.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Optional

__all__ = ["Tracer", "install"]

class Tracer:
    """Thread-safe span and counter accumulator."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.seconds: Dict[str, float] = defaultdict(float)
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] += amount

    def span(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Optional[Callable[[tuple, dict, Any, float], None]] = None,
        before: Optional[Callable[[tuple, dict], Any]] = None,
    ) -> Callable[..., Any]:
        """Wrap ``fn`` so each call is timed as span ``name``.

        ``before(args, kwargs)`` runs untimed ahead of the call and its
        return value is handed to ``after(args, kwargs, result, state)``,
        which also runs untimed (outside this span, inside its parent).
        """

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            state = before(args, kwargs) if before is not None else None
            stack = self._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                with self._lock:
                    self.seconds[name] += dt
                    self.self_seconds[name] += dt - child
                    self.counts[name + ".calls"] += 1
            if after is not None:
                after(args, kwargs, result, state)
            return result

        wrapped.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapped

    def counter(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap ``fn`` to count calls only (no span, no clock reads)."""

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapped

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "self_seconds": dict(self.self_seconds),
                "counts": dict(self.counts),
            }


def _rebind(module_name: str, attr: str, make: Callable[[Any], Any]) -> None:
    """Replace ``module.attr`` and every ``repro`` module's alias of it."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    replacement = make(original)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, replacement)


def _text_bytes(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


def install(tracer: Optional[Tracer] = None) -> Tracer:
    """Import the program's layers and wrap their entry points."""
    tracer = tracer or Tracer()
    # Import every module that binds a wrapped name, so _rebind reaches
    # the aliases created by ``from x import f``.
    for name in (
        "repro.cli",
        "repro.net.serialization",
        "repro.workloads.generator",
        "repro.workloads.scenarios",
        "repro.sim.results",
        "repro.sim.batch",
        "repro.sim.batched",
        "repro.sim.fast_slotted",
        "repro.sim.async_engine",
        "repro.sim.parallel",
        "repro.resilience.atomic",
        "repro.resilience.checkpoint",
        "repro.resilience.verify",
        "repro.resilience.executor",
        "repro.resilience.supervisor",
        "repro.resilience.distributed",
        "repro.service.app",
        "repro.service.store",
        "repro.service.worker",
        "repro.service.jobs",
    ):
        importlib.import_module(name)

    span = tracer.span
    _rebind(
        "repro.workloads.generator",
        "generate_network",
        lambda f: span("net.build", f),
    )
    for attr in ("network_to_json", "network_from_json"):
        _rebind("repro.net.serialization", attr, lambda f: span("net.codec", f))
    _rebind("repro.sim.results", "result_from_dict", lambda f: span("results.decode", f))
    _rebind("repro.sim.batch", "run_batch", lambda f: span("batch", f))
    _rebind(
        "repro.sim.batch",
        "_archive",
        lambda f: span(
            "archive",
            f,
            after=lambda a, k, r, s: tracer.add("archive.files", len(a[0]) + 1),
        ),
    )
    _rebind(
        "repro.resilience.supervisor",
        "run_supervised_trials",
        lambda f: span("supervise", f),
    )
    _rebind("repro.sim.parallel", "_run_chunk", lambda f: tracer.counter("supervise.chunks", f))
    _rebind(
        "repro.resilience.atomic",
        "atomic_write_text",
        lambda f: span(
            "io.write",
            f,
            after=lambda a, k, r, s: tracer.add(
                "io.bytes_written", _text_bytes(a[1] if len(a) > 1 else k["text"])
            ),
        ),
    )
    _rebind(
        "repro.resilience.verify",
        "verify_archive",
        lambda f: span(
            "verify",
            f,
            after=lambda a, k, r, s: tracer.add(
                "verify.bytes",
                sum(p.stat().st_size for p in Path(a[0]).glob("*.json")),
            ),
        ),
    )
    _rebind("repro.service.worker", "execute_job", lambda f: span("service.execute", f))
    os.fsync = tracer.counter("io.fsyncs", os.fsync)

    from repro.resilience.checkpoint import TrialJournal
    from repro.service.store import ResultStore
    from repro.sim.async_engine import AsyncSimulator
    from repro.sim.batched import GridBatchedSimulator
    from repro.sim.fast_slotted import FastSlottedSimulator
    from repro.sim.results import DiscoveryResult

    DiscoveryResult.to_dict = span("results.encode", DiscoveryResult.to_dict)
    ResultStore.lookup = span("store.lookup", ResultStore.lookup)
    TrialJournal.record = span(
        "journal",
        TrialJournal.record,
        before=lambda a, k: os.path.getsize(a[0].path),
        after=lambda a, k, r, size0: tracer.add(
            "journal.bytes", os.path.getsize(a[0].path) - size0
        ),
    )

    # The batched engine's opt-in slot profiler supplies the kernel
    # phases; it is observational (profiled runs are byte-identical).
    grid_init = GridBatchedSimulator.__init__

    def profiled_init(self: Any, *args: Any, **kwargs: Any) -> None:
        kwargs["profile"] = True
        grid_init(self, *args, **kwargs)

    GridBatchedSimulator.__init__ = profiled_init  # type: ignore[method-assign]

    def kernel_after(args: tuple, kwargs: dict, results: Any, state: Any) -> None:
        tracer.add(
            "kernel.node_slots", sum(len(r.start_times) * r.horizon for r in results)
        )
        for phase, row in (args[0].profile() or {}).items():
            tracer.add(f"kernel.phase.{phase}", row["seconds"])

    GridBatchedSimulator.run = span("kernel", GridBatchedSimulator.run, after=kernel_after)
    FastSlottedSimulator.run = span(
        "fast",
        FastSlottedSimulator.run,
        after=lambda a, k, r, s: tracer.add(
            "fast.node_slots", len(r.start_times) * r.horizon
        ),
    )
    AsyncSimulator.run = span(
        "async",
        AsyncSimulator.run,
        after=lambda a, k, r, s: tracer.add("async.sim_time", r.horizon),
    )
    return tracer
