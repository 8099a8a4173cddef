"""Benchmark entry point.

Run from the repository root::

    python3 perfbench/run.py --workload compare-dense --seed 7 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing of the
benchmark's inside the program; ``--trace 1`` is the separate traced run
that reports the per-layer metrics.  Both check every operation's output,
print a human-readable report, and end with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program is imported from ``src/`` of the current directory; without
it the benchmark exits with an error and prints no result.  The workloads
and every metric are described in ``perfbench/WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: The benchmark's declaration, beside this directory: workloads and metrics.
DECLARATION = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared() -> Tuple[List[str], Dict[str, str], Dict[str, str]]:
    """Workload names, end-to-end and per-layer metric units (name -> unit)."""
    config = json.loads(DECLARATION.read_text(encoding="utf-8"))
    workloads = [entry["name"] for entry in config["workloads"]]
    end_to_end = {entry["name"]: entry["unit"] for entry in config["end_to_end"]}
    per_layer = {entry["name"]: entry["unit"] for entry in config["per_layer"]}
    return workloads, end_to_end, per_layer


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=declared()[0], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def workload_spec(name: str) -> object:
    """The full-size spec of a named workload."""
    import compare_workload
    import service_workload

    if name == "compare-dense":
        return compare_workload.CompareWorkload(name=name, sensitivity_rate=0.5, instances=8)
    if name == "compare-sparse":
        return compare_workload.CompareWorkload(name=name, sensitivity_rate=0.1, instances=16)
    if name == "service-burst":
        return service_workload.BurstWorkload(name=name)
    raise ValueError(f"BENCHMARK.json declares a workload with no spec: {name}")


def run_workload(
    spec: object, seed: int, seconds: float, trace: bool, root: Path
) -> Tuple[int, int, Dict[str, float], List[str]]:
    """(attempted, failed, metric values, missing metrics) of one run."""
    import compare_workload
    import service_workload

    if isinstance(spec, compare_workload.CompareWorkload):
        run = compare_workload.run_traced if trace else compare_workload.run_timed
        ops, result = run(spec, seed, seconds)
        attempted, failed = len(ops), compare_workload.count_failed(ops)
    else:
        work = root / ".perfbench-work" / str(os.getpid())
        run = service_workload.run_traced if trace else service_workload.run_timed
        try:
            runner, result = run(spec, seed, seconds, work, root / "src")
        finally:
            shutil.rmtree(work, ignore_errors=True)
            if work.parent.exists() and not any(work.parent.iterdir()):
                work.parent.rmdir()
        attempted, failed = runner.counts()
    if trace:
        return attempted, failed, result["layers"], result["missing"]
    return attempted, failed, result, []


def assemble(
    values: Dict[str, float], missing: List[str], trace: bool
) -> Dict[str, Dict[str, object]]:
    """Every metric of the run's table with its unit.

    A metric the run never produced is a layer that did no work on this
    workload and reads 0; a metric whose entry point could not be wrapped
    is left out.
    """
    _workloads, end_to_end, per_layer = declared()
    table = per_layer if trace else end_to_end
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in table.items()
        if name not in missing
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {src / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    attempted, failed, values, missing = run_workload(
        workload_spec(args.workload), args.seed, args.seconds, bool(args.trace), root
    )
    metrics = assemble(values, missing, bool(args.trace))
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:>16.6f} {metric['unit']}")
    for name in missing:
        print(f"  {name:32s} MISSING: its entry point could not be wrapped")
    print(f"operations: {attempted} attempted, {failed} failed")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
