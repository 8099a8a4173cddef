"""Self-test of the benchmark at a tiny scale (about fifteen seconds).

Run from the repository root::

    python3 perfbench/selftest.py

It checks that every metric named in ``BENCHMARK.json`` is emitted by each
workload in both modes, that a corrupted layout, a repeated compare whose
digest changes and a job whose status is no longer ``done`` each count as
exactly one failed operation, that the
seed changes the generated inputs while a repeated seed reproduces them,
that the benchmark refuses to run without the program, and, when ruff is
installed, that the benchmark's Python passes the repository's ruff
settings.  Exits 1 when any check fails.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Callable, List

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work" / "selftest"

sys.path.insert(0, str(ROOT / "src"))

import compare_workload as cw  # noqa: E402
import run  # noqa: E402
import service_workload as sw  # noqa: E402
from repro.engine.signature import instance_token  # noqa: E402

TINY_COMPARE = cw.CompareWorkload(
    name="compare-tiny", sensitivity_rate=0.5, scale=0.01, instances=2
)
TINY_BURST = sw.BurstWorkload(
    name="burst-tiny",
    counts=(("uniform-medium", 2), ("mixed-width", 1), ("dense-bus", 1), ("flow-compare", 1)),
    repeats=2,
)

failures: List[str] = []


def check(name: str, condition: bool, detail: str = "") -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {name}{': ' + detail if detail else ''}")
    if not condition:
        failures.append(name)


def test_every_metric_is_emitted() -> None:
    workloads, end_to_end, per_layer = run.declared()
    for name in workloads:
        check(f"declared workload {name} has a spec", run.workload_spec(name).name == name)
    for spec in (TINY_COMPARE, TINY_BURST):
        for trace in (False, True):
            attempted, failed, values, missing = run.run_workload(spec, 3, 0.1, trace, ROOT)
            metrics = run.assemble(values, missing, trace)
            table = per_layer if trace else end_to_end
            check(
                f"{spec.name} trace={int(trace)} emits every metric with its unit",
                {name: metric["unit"] for name, metric in metrics.items()} == table,
                f"missing {sorted(set(table) - set(metrics))}",
            )
            check(
                f"{spec.name} trace={int(trace)} runs without failures",
                attempted >= 1 and failed == 0,
                f"{failed} of {attempted} failed",
            )
            if not trace:
                zero = [name for name, metric in metrics.items() if metric["value"] == 0]
                check(f"{spec.name} end-to-end metrics are never 0", not zero, f"{zero}")


def test_corrupted_layout_fails_one_operation() -> None:
    good, outcome, context = cw.measure(TINY_COMPARE, 3)
    assert outcome is not None and context is not None
    check("an intact compare passes its output check", not good.problems, f"{good.problems}")
    solution = next(s for s in outcome.results["gsino"].panels.values() if len(s.layout) > 1)
    placed = [index for index, entry in enumerate(solution.layout) if entry is not None]
    solution.layout[placed[0]] = solution.layout[placed[1]]
    corrupted = cw.Op(seed=3, setup_s=0.0, problems=cw.check_outcome(outcome, context))
    failed = cw.count_failed([good, corrupted])
    check("a corrupted layout counts as exactly one failed operation", failed == 1, f"{failed}")


def test_changed_digest_fails_one_operation() -> None:
    ops = cw.run_timed(TINY_COMPARE, 3, 0.1)[0]
    check(
        "a timed run compares its first instance once more",
        len(ops) == TINY_COMPARE.instances + 1 and ops[-1].seed == ops[0].seed,
        f"{len(ops)} compares",
    )
    original = cw.outcome_digest
    calls = itertools.count()

    def changing_digest(outcome: cw.CompareOutcome) -> str:
        return f"{original(outcome)}-{next(calls)}"

    cw.outcome_digest = changing_digest
    try:
        ops = cw.run_timed(TINY_COMPARE, 3, 0.1)[0]
    finally:
        cw.outcome_digest = original
    failed = cw.count_failed(ops)
    check("a repeat with another digest counts as exactly one failed operation", failed == 1)


def test_job_not_done_fails_one_operation() -> None:
    runner = sw.BurstRunner(TINY_BURST, 3, WORK / "status", ROOT / "src")
    try:
        burst = runner.run()
    finally:
        shutil.rmtree(WORK / "status", ignore_errors=True)
    check("an intact burst passes its output check", runner.counts()[1] == 0)
    burst.jobs[0].status = "failed"
    burst.problems.clear()
    sw.check_burst(burst, runner.references)
    failed = runner.counts()[1]
    check("a job no longer 'done' counts as exactly one failed operation", failed == 1, f"{failed}")


def test_seed_changes_inputs() -> None:
    seeds_a, seeds_b = cw.instance_seeds(3, 6), cw.instance_seeds(4, 6)
    check("two run seeds share no compare instance", not set(seeds_a) & set(seeds_b))
    tokens = []
    for seed in (3, 4, 3):
        context, _setup = cw.set_up(TINY_COMPARE, seed)
        tokens.append(instance_token(context.grid, context.netlist))
    check("another seed generates another instance", tokens[0] != tokens[1])
    check("the same seed generates the same instance", tokens[0] == tokens[2])
    first, second = cw.measure(TINY_COMPARE, 3)[0], cw.measure(TINY_COMPARE, 3)[0]
    check("the same seed reproduces the compare digest", first.digest == second.digest)

    def params(seed: int) -> list:
        return [(r.scenario, r.params) for r in sw.burst_requests(TINY_BURST, seed)]

    check("another seed generates another burst", params(3) != params(4))
    check("the same seed generates the same burst", params(3) == params(3))


def test_refuses_without_program() -> None:
    bare = WORK / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["command"]
    done = subprocess.run(
        [*command, "--workload", "compare-dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=180,
    )
    check(
        "without the program the benchmark fails and prints no result",
        done.returncode != 0 and '"correct"' not in done.stdout,
        f"exit {done.returncode}",
    )


def test_tooling() -> None:
    check("no result file is named BENCH_*.json", not list(HERE.rglob("BENCH_*.json")))
    ruff = shutil.which("ruff")
    if ruff is None:
        print("skip ruff check / ruff format --check: ruff is not installed")
        return
    for command in (["check"], ["format", "--check"]):
        done = subprocess.run([ruff, *command, str(HERE)], cwd=ROOT, capture_output=True, text=True)
        check(f"ruff {' '.join(command)} passes", done.returncode == 0, done.stdout[-400:])


TESTS: List[Callable[[], None]] = [
    test_every_metric_is_emitted,
    test_corrupted_layout_fails_one_operation,
    test_changed_digest_fails_one_operation,
    test_job_not_done_fails_one_operation,
    test_seed_changes_inputs,
    test_refuses_without_program,
    test_tooling,
]


def main() -> int:
    try:
        for test in TESTS:
            test()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        if WORK.parent.exists() and not any(WORK.parent.iterdir()):
            WORK.parent.rmdir()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
