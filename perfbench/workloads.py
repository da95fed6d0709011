"""The three workloads, each a closed loop: the caller waits for every
result before it submits the next.

* ``corpus-python`` — one caller runs ``api.analyze`` (python engine, no
  cache) over a :func:`~perfbench.inputs.corpus_draw`.
* ``corpus-datalog`` — the same draw under ``engine="datalog"``.
* ``sweep-zipf`` — ``api.sweep`` on the orchestrator (dedup on) over a
  ``generate_mainnet`` Zipf population, ~90% duplicates.

A run sets up (inputs generated ``SETUP_REPS`` times, median kept), then
measures whole passes over the inputs until ``seconds`` have passed.
With ``trace`` it sets up once and measures twice, untraced then traced,
and reports per-layer numbers from the traced pass.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import os
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import api

from perfbench import inputs, stats
from perfbench.speed import SpeedProbe
from perfbench.trace import LAYERS, Tracer, instrument, self_times, totals_by_name

SETUP_REPS = 3
WARMUP_CONTRACTS = 5
WARMUP_SUBMISSIONS = 300
MIN_SWEEPS = 6
MAX_JOBS = 4  # bounds worker memory on large hosts
MAX_PRINTED_FAILURES = 20
PROBE_EVERY_S = 0.1  # work between two speed-probe samples
SETUP_PROBES = 3  # probe samples before and after each input generation

ORCHESTRATOR_METRICS = (
    "orchestrator.overhead_s",
    "orchestrator.worker_busy_share",
    "orchestrator.dispatched_per_completed",
    "orchestrator.recycles",
    "orchestrator.ipc_batches",
    "orchestrator.dedup_share",
    "orchestrator.retries",
)
DATALOG_METRICS = (
    "datalog.parse_s",
    "datalog.compile_s",
    "datalog.evaluate_s",
    "datalog.glue_s",
    "datalog.parses_per_contract",
    "datalog.compiles_per_contract",
    "datalog.derived_facts",
    "datalog.join_probes",
)
STAGES = ("lift", "facts", "storage", "guards", "ordering", "taint", "detect")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest finished child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@dataclass
class Pass:
    """What one measured pass saw."""

    elapsed: float = 0.0  # measuring time, probe samples excluded
    completed: int = 0  # analyses (corpus) or submissions (sweep)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)  # seconds
    counters: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    sweeps: List[Dict[str, float]] = field(default_factory=list)
    probe: SpeedProbe = field(default_factory=SpeedProbe)

    @property
    def factor(self) -> float:
        """Scale to the probe's nominal speed; 1 for a pass that was not
        probed (its times are reported as measured)."""
        return self.probe.factor() if self.probe.samples else 1.0


@dataclass
class RunResult:
    setup_s: float  # wall-clock; setup_probe gives its speed factor
    setup_probe: SpeedProbe
    untraced: Pass
    traced: Optional[Pass]
    tracer: Optional[Tracer]
    info: Dict[str, object]
    layer_metrics: Dict[str, float] = field(default_factory=dict)


def _failure(case: inputs.Case, result) -> Optional[str]:
    if result.error:
        return "%s at #%d (%s)" % (result.error, case.index, case.template)
    if result.deadline_exceeded:
        return "late finish at #%d (%s)" % (case.index, case.template)
    return inputs.check_verdict(case, (warning.kind for warning in result.warnings))


def _analyze_one(
    case: inputs.Case, config, tracer: Optional[Tracer], into: "Pass"
) -> None:
    """One closed-loop analysis: time it, check it, count it into ``into``."""
    into.attempted += 1
    began = time.perf_counter()
    try:
        if tracer is None:
            result = api.analyze(case.runtime, config)
        else:
            with tracer.span("api.analyze", case.index):
                result = api.analyze(case.runtime, config)
    except Exception as error:  # a harness fault is a failed operation
        into.latencies.append(time.perf_counter() - began)
        into.failures.append(
            "harness fault at #%d (%s): %r" % (case.index, case.template, error)
        )
        return
    into.latencies.append(time.perf_counter() - began)
    problem = _failure(case, result)
    if problem is not None:
        into.failures.append(problem)
        return
    into.completed += 1
    if tracer is not None:
        counters = into.counters
        counters["blocks"] += result.block_count
        counters["statements"] += result.statement_count
        if result.program is not None:
            counters["unresolved_jumps"] += len(result.program.unresolved_jumps)
        datalog = result.datalog_stats or {}
        counters["derived_facts"] += datalog.get("derived_facts", 0)
        counters["join_probes"] += datalog.get("join_probes", 0)


def analyze_pass(
    cases: List[inputs.Case],
    config,
    seconds: float,
    tracer: Optional[Tracer] = None,
) -> Pass:
    """Analyse ``cases`` in order, in whole passes, until ``seconds`` have
    passed.  Whole passes keep the share of tail contracts among the
    samples fixed, so it does not move with where the clock ran out."""
    result_pass = Pass()
    probe = result_pass.probe
    clock = time.perf_counter
    probe.sample()
    probing = 0.0  # probe time inside the measured interval
    started = clock()
    next_probe = started + PROBE_EVERY_S
    while True:
        for case in cases:
            if clock() >= next_probe:
                probing += probe.sample()
                next_probe = clock() + PROBE_EVERY_S
            _analyze_one(case, config, tracer, result_pass)
        if clock() - started - probing >= seconds:
            break
    result_pass.elapsed = clock() - started - probing
    probe.sample()
    return result_pass


def layer_self_times(tracer: Tracer) -> Dict[str, float]:
    """Self seconds per layer, summed over every span of the run."""
    own = self_times(tracer.spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in tracer.spans:
        totals[LAYERS[span.name]] += own[span.ident]
    return dict(totals)


def _timed_setup(generate: Callable[[], object], reps: int, probe: SpeedProbe):
    """Run ``generate`` ``reps`` times, sampling ``probe`` around each; the
    last output and the median time."""
    times = []
    output = None
    for _ in range(reps):
        output = None
        gc.collect()
        for _ in range(SETUP_PROBES):
            probe.sample()
        began = time.perf_counter()
        output = generate()
        times.append(time.perf_counter() - began)
    for _ in range(SETUP_PROBES):
        probe.sample()
    return output, statistics.median(times)


def _warm_up(cases: List[inputs.Case], config) -> float:
    began = time.perf_counter()
    for case in cases[:WARMUP_CONTRACTS]:
        api.analyze(case.runtime, config)
    return time.perf_counter() - began


def _size_spread(cases: List[inputs.Case]) -> Dict[str, object]:
    tail = sorted(case.size for case in cases if case.template in inputs.TAIL_TEMPLATES)
    if not tail:
        return {}
    return {
        "tail_contracts": len(tail),
        "tail_min_bytes": tail[0],
        "tail_median_bytes": int(statistics.median(tail)),
        "tail_max_bytes": tail[-1],
        "cap_bytes": inputs.EIP170_CAP,
    }


# ------------------------------------------------------------------- corpus


def run_corpus(engine: str, seed: int, seconds: float, trace: bool) -> RunResult:
    config = api.AnalyzeRequest(engine=engine).config()
    setup_probe = SpeedProbe()
    cases, generate_s = _timed_setup(
        lambda: inputs.corpus_draw(seed), 1 if trace else SETUP_REPS, setup_probe
    )
    setup_s = generate_s + _warm_up(cases, config)
    info: Dict[str, object] = {
        "engine": engine,
        "unique_contracts": len(cases),
        "inputs_sha256": inputs.digest(cases),
    }
    info.update(_size_spread(cases))
    untraced = analyze_pass(cases, config, seconds)
    result = RunResult(setup_s, setup_probe, untraced, None, None, info)
    if trace:
        tracer = Tracer()
        with instrument(tracer):
            result.traced = analyze_pass(cases, config, seconds, tracer)
        result.tracer = tracer
        result.layer_metrics = corpus_layers(result.traced, tracer, cases, untraced)
    return result


def _lift_scaling(tracer: Tracer, cases: List[inputs.Case]) -> float:
    """Lift seconds per KiB on contracts of 8 KiB or more over the same on
    contracts under 2 KiB; 0 when either group is empty."""
    size_of = {case.index: case.size for case in cases}
    seconds = {"large": 0.0, "small": 0.0}
    kib = {"large": 0.0, "small": 0.0}
    for span in tracer.spans:
        if span.name != "lift":
            continue
        size = size_of[span.contract]
        group = "large" if size >= 8 * 1024 else "small" if size < 2 * 1024 else None
        if group is not None:
            seconds[group] += span.duration
            kib[group] += size / 1024.0
    if not kib["large"] or not kib["small"] or not seconds["small"]:
        return 0.0
    return (seconds["large"] / kib["large"]) / (seconds["small"] / kib["small"])


def corpus_layers(
    traced: Pass, tracer: Tracer, cases: List[inputs.Case], untraced: Pass
) -> Dict[str, float]:
    inclusive, exclusive, counts = totals_by_name(tracer.spans)
    analyses = max(1, counts.get("api.analyze", 0))
    wall = inclusive.get("api.analyze", 0.0)
    per = lambda seconds: seconds / analyses  # noqa: E731
    metrics: Dict[str, float] = {}
    for stage in STAGES:
        metrics[stage + ".s"] = per(inclusive.get(stage, 0.0))
    # The taint stage is TaintAnalysis.run or, on the datalog engine,
    # analyze_with_datalog; only one of the two spans occurs per engine.
    metrics["taint.s"] += per(inclusive.get("taint.datalog", 0.0))
    metrics["lift.share"] = inclusive.get("lift", 0.0) / wall if wall else 0.0
    completed = max(1, traced.completed)
    for name in ("blocks", "statements", "unresolved_jumps"):
        metrics["lift." + name] = traced.counters[name] / completed
    metrics["lift.scaling_ratio"] = _lift_scaling(tracer, cases)
    metrics["datalog.parse_s"] = per(inclusive.get("datalog.parse", 0.0))
    metrics["datalog.compile_s"] = per(inclusive.get("datalog.compile", 0.0))
    metrics["datalog.evaluate_s"] = per(inclusive.get("datalog.evaluate", 0.0))
    metrics["datalog.glue_s"] = per(exclusive.get("taint.datalog", 0.0))
    metrics["datalog.parses_per_contract"] = counts.get("datalog.parse", 0) / analyses
    metrics["datalog.compiles_per_contract"] = (
        counts.get("datalog.compile", 0) / analyses
    )
    metrics["datalog.derived_facts"] = traced.counters["derived_facts"] / completed
    metrics["datalog.join_probes"] = traced.counters["join_probes"] / completed
    metrics["pipeline.driver_s"] = per(exclusive.get("api.analyze", 0.0))
    metrics.update({name: 0.0 for name in ORCHESTRATOR_METRICS})
    # Self time of every layer below the pipeline driver over the traced
    # api.analyze wall time; the driver's own self time is the remainder.
    below_driver = sum(
        seconds for name, seconds in exclusive.items() if name != "api.analyze"
    )
    metrics["trace.stage_coverage"] = below_driver / wall if wall else 0.0
    untraced_mean = untraced.elapsed * untraced.factor / max(1, untraced.attempted)
    traced_mean = traced.elapsed * traced.factor / max(1, traced.attempted)
    metrics["trace.overhead_share"] = traced_mean / untraced_mean - 1.0
    return metrics


# -------------------------------------------------------------------- sweep


def sweep_pass(
    stream: inputs.MainnetStream,
    config,
    jobs: int,
    seconds: float,
    tracer: Optional[Tracer] = None,
) -> Pass:
    """Sweep the whole stream repeatedly until ``seconds`` have passed and
    at least :data:`MIN_SWEEPS` sweeps ran.

    The analyses run in worker processes whose speed a probe in this
    process does not observe (measured: the probe's speed factor moved
    from 1.08 to 0.69 between sweeps whose wall times differed by 5%), so
    a sweep pass takes no probe samples and reports wall-clock times."""
    result_pass = Pass()
    counters = result_pass.counters
    clock = time.perf_counter
    started = clock()
    while len(result_pass.sweeps) < MIN_SWEEPS or clock() - started < seconds:
        result_pass.attempted += len(stream.bytecodes)
        began = clock()
        try:
            if tracer is None:
                summary = api.sweep(
                    stream.bytecodes, config, jobs=jobs, executor="orchestrator"
                )
            else:
                with tracer.span("api.sweep"):
                    summary = api.sweep(
                        stream.bytecodes, config, jobs=jobs, executor="orchestrator"
                    )
        except Exception as error:  # a harness fault ends the pass
            result_pass.failures.append("harness fault in sweep: %r" % (error,))
            break
        wall = clock() - began
        representatives = {}
        for entry in summary.entries:
            case = stream.cases[entry.index]
            if entry.error:
                problem = "%s at #%d (%s)" % (entry.error, case.index, case.template)
            elif entry.deadline_exceeded:
                problem = "late finish at #%d (%s)" % (case.index, case.template)
            else:
                problem = inputs.check_verdict(case, entry.kinds)
            if problem is not None:
                result_pass.failures.append(problem)
                continue
            result_pass.completed += 1
            digest = hashlib.sha256(case.runtime).digest()
            representatives.setdefault(digest, entry)
        busy = 0.0
        for entry in representatives.values():
            result_pass.latencies.append(entry.elapsed_seconds)
            busy += entry.elapsed_seconds
            for stage, spent in entry.stage_seconds.items():
                counters["stage." + stage] += spent
            counters["driver"] += entry.elapsed_seconds - sum(
                entry.stage_seconds.values()
            )
            counters["elapsed"] += entry.elapsed_seconds
            counters["blocks"] += entry.block_count
            counters["statements"] += entry.statement_count
            counters["analyses"] += 1
        orchestrator = summary.orchestrator
        completed = max(1, int(orchestrator.get("completed", 0)))
        result_pass.sweeps.append(
            {
                "wall": wall,
                "throughput": len(stream.bytecodes) / wall,
                "overhead_s": wall - busy / jobs,
                "worker_busy_share": busy / (wall * jobs),
                "dispatched_per_completed": orchestrator.get("dispatched", 0) / completed,
                "recycles": orchestrator.get("recycles", 0),
                "ipc_batches": orchestrator.get("ipc_batches", 0),
                "dedup_share": orchestrator.get("dedup_hits", 0)
                / max(1, orchestrator.get("tasks_total", 0)),
                "retries": orchestrator.get("retries", 0),
            }
        )
    result_pass.elapsed = clock() - started
    return result_pass


def run_sweep(seed: int, seconds: float, trace: bool) -> RunResult:
    config = api.AnalyzeRequest().config()
    jobs = min(nproc(), MAX_JOBS)
    setup_probe = SpeedProbe()
    stream, generate_s = _timed_setup(
        lambda: inputs.mainnet_stream(seed), 1 if trace else SETUP_REPS, setup_probe
    )
    began = time.perf_counter()
    _warm_up(stream.cases, config)
    # The first sweep of a process runs ~20% slower than later ones; one
    # short sweep in setup keeps that out of the measured sweeps.
    api.sweep(
        stream.bytecodes[:WARMUP_SUBMISSIONS], config, jobs=jobs, executor="orchestrator"
    )
    setup_s = generate_s + time.perf_counter() - began
    info: Dict[str, object] = {
        "jobs": jobs,
        "submissions": len(stream.bytecodes),
        "unique_contracts": stream.manifest["unique"],
        "duplicate_rate": stream.manifest["duplicate_rate"],
        "inputs_sha256": inputs.digest(stream.cases),
    }
    untraced = sweep_pass(stream, config, jobs, seconds)
    result = RunResult(setup_s, setup_probe, untraced, None, None, info)
    if trace:
        tracer = Tracer()
        result.traced = sweep_pass(stream, config, jobs, seconds, tracer)
        result.tracer = tracer
        result.layer_metrics = sweep_layers(result.traced, untraced)
    return result


def sweep_layers(traced: Pass, untraced: Pass) -> Dict[str, float]:
    """Per-layer numbers for the sweep: stage split from the workers' own
    stage timings (spans cannot cross the process boundary), orchestrator
    counters per sweep (median over sweeps)."""
    counters = traced.counters
    analyses = max(1.0, counters["analyses"])
    elapsed = counters["elapsed"]
    metrics: Dict[str, float] = {}
    for stage in STAGES:
        metrics[stage + ".s"] = counters["stage." + stage] / analyses
    metrics["lift.share"] = counters["stage.lift"] / elapsed if elapsed else 0.0
    metrics["lift.blocks"] = counters["blocks"] / analyses
    metrics["lift.statements"] = counters["statements"] / analyses
    # BatchEntry does not carry unresolved jumps, and the population holds
    # no contract of 8 KiB or more: both read 0 here.
    metrics["lift.unresolved_jumps"] = 0.0
    metrics["lift.scaling_ratio"] = 0.0
    metrics.update({name: 0.0 for name in DATALOG_METRICS})
    metrics["pipeline.driver_s"] = counters["driver"] / analyses
    for name in ORCHESTRATOR_METRICS:
        key = name.split(".", 1)[1]
        metrics[name] = statistics.median([sweep[key] for sweep in traced.sweeps])
    metrics["trace.stage_coverage"] = (
        sum(counters["stage." + stage] for stage in STAGES) / elapsed
        if elapsed else 0.0
    )
    metrics["trace.overhead_share"] = _sweep_rate(untraced) / _sweep_rate(traced) - 1.0
    return metrics


WORKLOADS = {
    "corpus-python": functools.partial(run_corpus, "python"),
    "corpus-datalog": functools.partial(run_corpus, "datalog"),
    "sweep-zipf": run_sweep,
}


def _sweep_rate(measured: Pass) -> float:
    return statistics.median([sweep["throughput"] for sweep in measured.sweeps])


def end_to_end(result: RunResult, workload: str, raw: bool = False) -> Dict[str, float]:
    """The end-to-end metrics of the untraced pass, times scaled to the
    probe's nominal speed (see :mod:`perfbench.speed`) unless ``raw``."""
    measured = result.untraced
    factor = 1.0 if raw else measured.factor
    setup_factor = 1.0 if raw else result.setup_probe.factor()
    if workload == "sweep-zipf":
        throughput = _sweep_rate(measured)
    else:
        throughput = measured.completed / measured.elapsed
    p99, _ = stats.tail(measured.latencies, 99.0)
    return {
        "contracts_per_s": throughput / factor,
        "latency_p50_ms": statistics.median(measured.latencies) * 1000.0 * factor,
        "latency_p99_ms": p99 * 1000.0 * factor,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": result.setup_s * setup_factor,
    }
