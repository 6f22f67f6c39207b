"""Start ``m2hew serve`` for the benchmark, optionally with timing shims.

Usage: ``python3 perfbench/serve_boot.py REPORT TRACE [serve args...]``
with ``src`` on ``PYTHONPATH``. Runs ``repro.cli.main(["serve", ...])``
exactly as the ``m2hew serve`` console script does; when ``TRACE`` is 1
the :mod:`shims` are installed first. On exit (SIGINT ends the service
the way Ctrl-C does) it writes ``REPORT``: the process's peak resident
memory and, when traced, the layer totals.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    report, trace, serve_args = Path(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    code = 1
    try:
        if trace:
            import shims

            tracer = shims.install()
        from repro.cli import main as cli_main

        code = cli_main(["serve", *serve_args])
    except KeyboardInterrupt:
        code = 0
    finally:
        report.write_text(
            json.dumps(
                {
                    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    "trace": None if tracer is None else tracer.snapshot(),
                }
            )
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
