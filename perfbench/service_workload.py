"""The service-burst workload: one seeded burst drained by one ``repro serve``.

A burst is queued with a single ``submit_jobs`` call on a fresh service
root, then drained by one ``python -m repro.cli serve --max-jobs N``
subprocess — today's single-process daemon path, started through
``serve.py``, which times the reference kernel in the daemon's own process
before and after the program.  The benchmark waits on the subprocess's
exit (no polling sleeps), then reads everything it reports from outside:
the job records' ``executions`` and ``result`` fields, and the root's event
log through ``repro.obs.events.read_events``.

The mix holds greedy panel jobs (``uniform-medium``, ``mixed-width``),
annealed ``dense-bus`` jobs — the only annealer on any workload — and
``flow-compare`` jobs at a small scale, plus repeats of (scenario, seed)
pairs already in the burst, so the result cache serves reads beside its
writes.  Every burst of one run is the same burst, each on a cold root.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.bench.ibm import generate_circuit
from repro.engine.cache import SolutionCache
from repro.engine.panels import Engine
from repro.flow.flows import build_context, run_compare
from repro.gsino.config import GsinoConfig
from repro.obs.events import read_events
from repro.service import Job, SubmitRequest, read_layout, scenario_spec, submit_jobs

from hostspeed import speed_factor
from spans import SpanRecorder, layer_totals

HERE = Path(__file__).resolve().parent

#: Job kind of each scenario in the mix (per-kind compute time is reported).
KINDS = {
    "uniform-medium": "panel",
    "mixed-width": "panel",
    "dense-bus": "anneal",
    "flow-compare": "flow",
}

#: Result fields a repeat must reproduce (timing and cache traffic may differ).
RESULT_FIELDS = ("panels", "batches", "shields", "tracks", "valid_panels", "flows")

#: Upper bound on one burst's serve process; it is killed past this.
SERVE_TIMEOUT_S = 120.0

#: Instance scale of the burst's ``flow-compare`` jobs (131 ibm01 nets).
FLOW_SCALE = 0.01


@dataclass(frozen=True)
class BurstWorkload:
    """Job counts of one burst (``repeats`` are drawn from the originals)."""

    name: str = "service-burst"
    counts: Tuple[Tuple[str, int], ...] = (
        ("uniform-medium", 18),
        ("mixed-width", 15),
        ("dense-bus", 6),
        ("flow-compare", 9),
    )
    repeats: int = 9


@dataclass
class Burst:
    """What one drained burst left behind, read from outside the daemon."""

    jobs: List[Job]
    events: List[Dict[str, object]]
    submit_s: float
    peak_rss_mb: float
    exit_code: int
    event_log_bytes: int
    #: What ``serve.py`` wrote: kernel times, program start, spans (empty if
    #: the daemon never got that far).
    report: Dict[str, object]
    problems: Dict[str, List[str]] = field(default_factory=dict)


def burst_requests(workload: BurstWorkload, seed: int) -> List[SubmitRequest]:
    """The seeded burst: originals in shuffled order, then the repeats.

    Job ids sort in submission order, which is the order the daemon's
    spool scan queues them in, so every repeat runs after its original.
    """
    rng = random.Random(seed)
    originals: List[Tuple[str, int]] = []
    for scenario, count in workload.counts:
        originals.extend((scenario, rng.randrange(1, 10**6)) for _ in range(count))
    rng.shuffle(originals)
    repeats = rng.sample(originals, workload.repeats)
    requests = []
    for index, (scenario, job_seed) in enumerate(originals + repeats):
        params: Dict[str, object] = {"seed": job_seed}
        if scenario == "flow-compare":
            params["scale"] = FLOW_SCALE
        job_id = f"b{index:03d}-{scenario}-{job_seed}"
        requests.append(SubmitRequest(scenario=scenario, params=params, job_id=job_id))
    return requests


def _serve_command(root: Path, jobs: int, report: Path, traced: bool) -> List[str]:
    serve = ["serve", "--root", str(root), "--max-jobs", str(jobs)]
    serve += ["--idle-exit", "10", "--poll", "0.05"]
    return [sys.executable, str(HERE / "serve.py"), str(report), str(int(traced)), *serve]


def _sample_peak_rss(pid: int, stop: threading.Event, peak_kb: List[int]) -> None:
    """Keep the child's ``VmHWM`` (its own peak RSS) until ``stop`` is set.

    The rusage a parent gets back for a child is no use here: Linux keeps
    the larger of the child's peak and the peak of the memory it was
    forked from, which is the benchmark's own.
    """
    status = Path(f"/proc/{pid}/status")
    while not stop.wait(0.2):
        try:
            lines = status.read_text(encoding="ascii").splitlines()
        except OSError:
            return
        for line in lines:
            if line.startswith("VmHWM:"):
                peak_kb[0] = max(peak_kb[0], int(line.split()[1]))


def _wait_with_peak(process: subprocess.Popen, timeout: float) -> Tuple[int, float]:
    """Exit code and peak RSS (MB) of a child, killing it past ``timeout``."""
    stop = threading.Event()
    peak_kb = [0]
    sampler = threading.Thread(target=_sample_peak_rss, args=(process.pid, stop, peak_kb))
    sampler.start()
    try:
        exit_code = process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        exit_code = process.wait()
    finally:
        stop.set()
        sampler.join()
    return exit_code, peak_kb[0] / 1024.0


def run_burst(requests: List[SubmitRequest], root: Path, src: Path, traced: bool = False) -> Burst:
    """Submit ``requests`` to a fresh root and drain them with one serve process."""
    root.mkdir(parents=True)
    start = time.perf_counter()
    submit_jobs(root, requests)
    submit_s = time.perf_counter() - start
    report_path = root / "serve-report.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    with open(root / "serve.log", "wb") as log:
        process = subprocess.Popen(
            _serve_command(root, len(requests), report_path, traced),
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
        exit_code, peak_rss_mb = _wait_with_peak(process, SERVE_TIMEOUT_S)
    layout = read_layout(root)
    jobs = []
    for request in requests:
        job_id = str(request.job_id)
        try:
            record = json.loads(layout.job_path(job_id).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            jobs.append(Job(job_id, request.scenario, status="failed", error=str(error)))
            continue
        jobs.append(Job.from_dict(record))
    event_log_bytes = sum(
        path.stat().st_size for path in (root / "events").rglob("*") if path.is_file()
    )
    report: Dict[str, object] = {}
    if report_path.exists():
        report = json.loads(report_path.read_text(encoding="utf-8"))
    return Burst(
        jobs=jobs,
        events=read_events(root),
        submit_s=submit_s,
        peak_rss_mb=peak_rss_mb,
        exit_code=exit_code,
        event_log_bytes=event_log_bytes,
        report=report,
    )


def reference_flows(params: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    """Per-flow metrics of an in-process ``run_compare`` on a flow job's instance."""
    spec = scenario_spec("flow-compare").with_params(dict(params))
    circuit = generate_circuit(
        spec.circuit, sensitivity_rate=spec.sensitivity_rate, scale=spec.scale, seed=spec.seed
    )
    config = GsinoConfig(length_scale=1.0 / math.sqrt(spec.scale), sino_effort=spec.effort)
    context = build_context(circuit.grid, circuit.netlist, config, Engine(cache=SolutionCache()))
    results = run_compare(context).results
    return {
        name: {
            "violations": result.metrics.crosstalk.num_violations,
            "average_wirelength_um": result.metrics.average_wirelength_um,
            "routing_area_um2": result.metrics.area.area,
            "shields": result.metrics.total_shields,
        }
        for name, result in results.items()
    }


def _key(job: Job) -> Tuple[str, str]:
    return job.scenario, json.dumps(job.params, sort_keys=True)


def check_burst(burst: Burst, references: Dict[str, Dict[str, Dict[str, object]]]) -> None:
    """Fill ``burst.problems``: job id -> everything wrong with that job.

    ``references`` maps a flow job's params (JSON) to the in-process
    per-flow metrics it must equal.
    """
    per_job: Dict[str, Dict[str, int]] = {job.job_id: {} for job in burst.jobs}
    for event in burst.events:
        counts = per_job.get(str(event.get("job")))
        if counts is not None:
            name = str(event["event"])
            counts[name] = counts.get(name, 0) + 1
    originals: Dict[Tuple[str, str], Job] = {}
    for job in burst.jobs:
        problems = []
        if job.status != "done":
            problems.append(f"status {job.status!r}: {job.error}")
        for name in ("submitted", "claimed", "released"):
            seen = per_job[job.job_id].get(name, 0)
            if seen != 1:
                problems.append(f"{seen} {name} events, expected exactly 1")
        result = job.result or {}
        original = originals.setdefault(_key(job), job)
        if original is not job:
            before = original.result or {}
            for name in RESULT_FIELDS:
                if result.get(name) != before.get(name):
                    problems.append(f"repeat of {original.job_id}: {name} differs")
        if job.scenario == "flow-compare":
            expected = references[json.dumps(job.params, sort_keys=True)]
            if result.get("flows") != expected:
                problems.append("flow metrics differ from an in-process run_compare")
        if problems:
            burst.problems[job.job_id] = problems


def _run_times(burst: Burst) -> List[float]:
    times = []
    for job in burst.jobs:
        execution = job.executions[-1] if job.executions else {}
        if "finished_at" in execution:
            times.append(float(execution["finished_at"]) - float(execution["claimed_at"]))
    return times


def _event_times(burst: Burst, name: str) -> List[float]:
    return sorted(float(event["ts"]) for event in burst.events if event["event"] == name)


def _window(burst: Burst) -> Optional[float]:
    """First claim to last release: the drain, without start-up or exit."""
    claims, releases = _event_times(burst, "claimed"), _event_times(burst, "released")
    return releases[-1] - claims[0] if claims and releases else None


def _startup(burst: Burst) -> Optional[float]:
    """The program's import to the daemon's first claim."""
    claims = _event_times(burst, "claimed")
    start = burst.report.get("program_start")
    return claims[0] - float(start) if claims and start is not None else None


def _kernel_means(burst: Burst) -> Tuple[float, float]:
    """Mean kernel time in the daemon's process before and after the program.

    A mean, not a median: the drain runs through the host's fast and slow
    states in some mix, and the mean of the runs estimates that mix.
    """
    report = burst.report
    return statistics.fmean(report["kernel_before_s"]), statistics.fmean(report["kernel_after_s"])


def _speed_factor(burst: Burst) -> float:
    """Raw seconds to reference seconds, from the daemon's own kernel times."""
    return speed_factor(*_kernel_means(burst))


def _percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def _quality(burst: Burst) -> Dict[str, float]:
    """Mean Table 1-3 numbers over the burst's distinct flow-compare jobs."""
    flows = {}
    for job in burst.jobs:
        if job.scenario == "flow-compare" and job.result and "flows" in job.result:
            flows.setdefault(_key(job), job.result["flows"])
    if not flows:
        return {}
    values = list(flows.values())

    def mean(flow: str, key: str) -> float:
        return statistics.fmean(float(value[flow][key]) for value in values)

    return {
        "gsino_area_um2": mean("gsino", "routing_area_um2"),
        "isino_area_um2": mean("isino", "routing_area_um2"),
        "gsino_wirelength_um": mean("gsino", "average_wirelength_um"),
        "quality.gsino_shields": mean("gsino", "shields"),
        "quality.isino_shields": mean("isino", "shields"),
        "quality.id_no_violations": mean("id_no", "violations"),
        "quality.isino_violations": mean("isino", "violations"),
        "quality.gsino_violations": mean("gsino", "violations"),
    }


class BurstRunner:
    """Runs bursts of one workload and seed under a scratch directory."""

    def __init__(self, workload: BurstWorkload, seed: int, work: Path, src: Path) -> None:
        self.workload = workload
        self.requests = burst_requests(workload, seed)
        self.work = work
        self.src = src
        self.references: Dict[str, Dict[str, Dict[str, object]]] = {}
        for request in self.requests:
            if request.scenario == "flow-compare":
                key = json.dumps(request.params, sort_keys=True)
                if key not in self.references:
                    self.references[key] = reference_flows(dict(request.params or {}))
        self.bursts: List[Burst] = []

    def run(self, traced: bool = False) -> Burst:
        root = self.work / f"burst-{len(self.bursts):03d}"
        burst = run_burst(self.requests, root, self.src, traced=traced)
        check_burst(burst, self.references)
        if burst.exit_code != 0 or _window(burst) is None or _startup(burst) is None:
            log = (root / "serve.log").read_text(encoding="utf-8", errors="replace")
            burst.problems["serve"] = [f"exit code {burst.exit_code}", *log.splitlines()[-5:]]
        shutil.rmtree(root, ignore_errors=True)
        self.bursts.append(burst)
        self._report(burst, traced)
        return burst

    def _report(self, burst: Burst, traced: bool) -> None:
        times = _run_times(burst)
        window, startup = _window(burst), _startup(burst)
        if window is not None and startup is not None and times:
            before, after = _kernel_means(burst)
            print(
                f"{self.workload.name}: burst {len(self.bursts)}{' (traced)' if traced else ''}: "
                f"{len(burst.jobs)} jobs in {window:.3f}s drain, start-up {startup:.3f}s, "
                f"job p50 {statistics.median(times):.4f}s, "
                f"serve peak RSS {burst.peak_rss_mb:.0f} MB (kernel {before:.4f}s before, "
                f"{after:.4f}s after: host speed factor {_speed_factor(burst):.3f})"
            )
        for job_id, problems in sorted(burst.problems.items()):
            for problem in problems:
                print(f"    FAILED {job_id}: {problem}")

    def counts(self) -> Tuple[int, int]:
        """(operations attempted, operations failed): one operation per job."""
        attempted = sum(len(burst.jobs) for burst in self.bursts)
        failed = sum(
            len([job for job in burst.jobs if job.job_id in burst.problems])
            for burst in self.bursts
        )
        if any("serve" in burst.problems for burst in self.bursts):
            failed = max(failed, 1)
        return attempted, failed


def run_timed(
    workload: BurstWorkload, seed: int, seconds: float, work: Path, src: Path
) -> Tuple[BurstRunner, Dict[str, float]]:
    """Identical cold bursts while time remains (at least one).

    Each burst's times are scaled to the reference speed by the kernel
    timed before and after it in the daemon's own process.
    """
    runner = BurstRunner(workload, seed, work, src)
    start = time.perf_counter()
    while True:
        runner.run()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(runner.bursts) > seconds:
            break
    drained = [burst for burst in runner.bursts if "serve" not in burst.problems]
    if not drained:
        return runner, {}
    quality = _quality(drained[0])
    metrics = {
        "setup_s": statistics.median(
            (_startup(burst) or 0.0) * _speed_factor(burst) for burst in drained
        ),
        "op_s": statistics.median(
            (_window(burst) or 0.0) / len(burst.jobs) * _speed_factor(burst) for burst in drained
        ),
        "peak_rss_mb": max(burst.peak_rss_mb for burst in drained),
        **{key: value for key, value in quality.items() if not key.startswith("quality.")},
    }
    return runner, metrics


def service_layers(burst: Burst) -> Dict[str, float]:
    """Per-layer numbers of one untraced burst, read from records and events."""
    jobs = burst.jobs
    claims = _event_times(burst, "claimed")
    releases = _event_times(burst, "released")
    gaps = [claim - release for release, claim in zip(releases, claims[1:])]
    compute: Dict[str, float] = {"panel": 0.0, "anneal": 0.0, "flow": 0.0}
    overhead = 0.0
    hits = misses = store_hits = 0
    executed = shared = 0
    repeats = repeat_hits = 0
    seen = set()
    for job in jobs:
        result = job.result or {}
        runtime = float(result.get("runtime_seconds", 0.0))
        compute[KINDS[job.scenario]] += runtime
        execution = job.executions[-1] if job.executions else {}
        if "finished_at" in execution:
            overhead += float(execution["finished_at"]) - float(execution["claimed_at"]) - runtime
        cache = result.get("cache", {})
        hits += cache.get("hits", 0)
        misses += cache.get("misses", 0)
        store_hits += cache.get("store_hits", 0)
        stages = result.get("stages") or {}
        executed += stages.get("executed", 0)
        shared += stages.get("shared", 0)
        if _key(job) in seen:
            repeats += 1
            if cache.get("hits", 0) + cache.get("store_hits", 0) + stages.get("restored", 0):
                repeat_hits += 1
        seen.add(_key(job))
    lookups = hits + misses + store_hits
    return {
        "service.submit_s": burst.submit_s,
        "service.dispatch_gap_p50_s": statistics.median(gaps) if gaps else 0.0,
        "service.dispatch_gap_sum_s": sum(gaps),
        "service.in_job_overhead_s": overhead,
        "service.compute_panel_s": compute["panel"],
        "service.compute_anneal_s": compute["anneal"],
        "service.compute_flow_s": compute["flow"],
        "service.job_run_p50_s": statistics.median(_run_times(burst)) if gaps else 0.0,
        "service.job_run_p90_s": _percentile(_run_times(burst), 0.9) if gaps else 0.0,
        "obs.events_per_job": len(burst.events) / len(jobs),
        "obs.event_log_bytes": burst.event_log_bytes,
        "engine.repeat_hit_ratio": repeat_hits / repeats if repeats else 0.0,
        "engine.cache_lookups": lookups,
        "engine.cache_hit_ratio": (hits + store_hits) / lookups if lookups else 0.0,
        "flow.stages_executed": executed,
        "flow.stages_shared": shared,
    }


def run_traced(
    workload: BurstWorkload, seed: int, seconds: float, work: Path, src: Path
) -> Tuple[BurstRunner, Dict[str, object]]:
    """Pairs of an untraced and a traced burst while time remains (at least one).

    The untraced burst gives the service numbers; in the traced one
    ``serve.py`` installs the same shims as the compare workloads inside
    the daemon, so its flow-compare jobs report the pipeline layers.
    Values are means per burst.
    """
    runner = BurstRunner(workload, seed, work, src)
    sums: Dict[str, float] = {}
    pairs = 0
    missing: List[str] = []
    untraced_windows: List[float] = []
    traced_windows: List[float] = []
    start = time.perf_counter()
    while True:
        plain = runner.run()
        traced = runner.run(traced=True)
        pairs += 1
        untraced_windows.append(_window(plain) or 0.0)
        traced_windows.append(_window(traced) or 0.0)
        values = service_layers(plain)
        values.update(_quality(plain))
        missing = list(traced.report.get("missing", []))
        spans = SpanRecorder.from_dicts(traced.report.get("spans", []))
        totals = layer_totals(spans, ["serve"])
        flow_runtime = sum(
            float((job.result or {}).get("runtime_seconds", 0.0))
            for job in traced.jobs
            if job.scenario == "flow-compare"
        )
        own = sum(value for key, value in totals.items() if key.endswith("_s"))
        totals["flow.unaccounted_s"] = flow_runtime - own
        totals["trace.op_s"] = flow_runtime
        values.update(totals)
        for key, value in values.items():
            sums[key] = sums.get(key, 0.0) + value
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / pairs > seconds:
            break
    layers = {key: value / pairs for key, value in sums.items()}
    layers["sino.mean_segments"] = sums.get("sino.segments", 0.0) / max(
        sums.get("sino.panels", 0.0), 1.0
    )
    layers.pop("sino.segments", None)
    layers["trace.overhead_s"] = statistics.median(traced_windows) - statistics.median(
        untraced_windows
    )
    layers["host.kernel_s"] = statistics.median(
        statistics.fmean(_kernel_means(burst)) for burst in runner.bursts if burst.report
    )
    return runner, {"layers": layers, "missing": missing}
