"""Run the ``repro`` CLI between two timings of the reference kernel.

Usage::

    python3 perfbench/serve.py REPORT.json TRACE serve --root R ...

The service-burst workload starts its daemon through this script.  The
host's speed differs from one process to the next, and a kernel timed in
another process does not track it, so the reference kernel of
:mod:`hostspeed` is timed here, in the daemon's own process: once before
the program is imported (after one warm-up call) and once when the CLI
returns, a few runs each time.  With ``TRACE`` 1 the benchmark's timing shims are installed too,
and the spans of the jobs the daemon executes are recorded.  With
``TRACE`` 0 nothing of the benchmark's runs between the program's import
and its return.

``REPORT.json`` is written when the CLI returns.  It holds the kernel's
times and the wall time at which the program's import started.  When
traced, it also holds the spans and the names of any entry points that
could not be wrapped.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict, List

from hostspeed import kernel_seconds
from spans import SpanRecorder, install

#: Kernel runs at each end.  The host switches between a fast and a slow
#: state within seconds, and one run sees only the state of its moment.
KERNEL_RUNS = 4


def _kernel_runs() -> List[float]:
    return [kernel_seconds() for _ in range(KERNEL_RUNS)]


def main(argv: List[str]) -> int:
    report_path, traced, cli_args = Path(argv[0]), argv[1] == "1", argv[2:]
    kernel_seconds()  # warm-up: the first call pays one-time costs
    report: Dict[str, object] = {
        "kernel_before_s": _kernel_runs(),
        "program_start": time.time(),
    }
    from repro.cli import main as cli_main

    recorder = SpanRecorder()
    recorder.run = "serve"
    installed = install(recorder) if traced else None
    try:
        return cli_main(cli_args)
    finally:
        if installed is not None:
            installed.remove()
            report["spans"] = recorder.to_dicts()
            report["missing"] = installed.missing_metrics()
        report["kernel_after_s"] = _kernel_runs()
        report_path.write_text(json.dumps(report), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
