#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corpus-python --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics of an untraced run; ``--trace 1`` runs untraced, then traced, and
prints the per-layer metrics beside the untraced end-to-end numbers.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"



def _declared_units():
    """Metric name -> unit, for the end-to-end and the per-layer metrics
    that BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple(
        {metric["name"]: metric["unit"] for metric in declared[kind]}
        for kind in ("end_to_end", "per_layer")
    )


def _commit() -> str:
    """The checked-out commit when the tree is a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest() -> str:
    """sha256 over every analyzer source file, so runs of a tree that is
    not a git checkout still name the code they measured."""
    hasher = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        hasher.update(str(path.relative_to(SRC)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print("perfbench: no analyzer sources under %s" % SRC, file=sys.stderr)
        return 2
    end_to_end_units, layer_units = _declared_units()
    sys.path[:0] = [str(SRC), str(ROOT)]
    began = time.perf_counter()
    from perfbench import stats, workloads

    import_s = time.perf_counter() - began
    if args.workload not in workloads.WORKLOADS:
        print(
            "perfbench: unknown workload %r (choose from %s)"
            % (args.workload, ", ".join(sorted(workloads.WORKLOADS))),
            file=sys.stderr,
        )
        return 2

    trace = bool(args.trace)
    result = workloads.WORKLOADS[args.workload](args.seed, args.seconds, trace)
    result.setup_s += import_s
    measured = [result.untraced] + ([result.traced] if trace else [])
    attempted = sum(part.attempted for part in measured)
    failures = [line for part in measured for line in part.failures]

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": workloads.nproc(),
        "samples": len(result.untraced.latencies),
        "attempted": attempted,
    }
    meta.update(result.info)
    print("# meta " + json.dumps(meta, sort_keys=True))

    e2e = workloads.end_to_end(result, args.workload)
    raw = workloads.end_to_end(result, args.workload, raw=True)
    beyond = stats.beyond(result.untraced.latencies, 99.0)
    probed = result.untraced.probe.samples
    print(
        "# untraced: %d samples, %d beyond p99; speed factor %s (setup %.4f)"
        % (
            len(result.untraced.latencies),
            beyond,
            "%.4f" % result.untraced.factor if probed else "n/a, times as measured",
            result.setup_probe.factor(),
        )
    )
    print("# %-38s %14s %14s" % ("metric", "reported", "wall-clock"))
    for name, value in e2e.items():
        print(
            "%-40s %14.4f %14.4f %s"
            % (name, value, raw[name], end_to_end_units[name])
        )
    print(
        "%-40s %14.4f ratio (%d of %d)"
        % ("failed_share", len(failures) / attempted, len(failures), attempted)
    )
    for line in failures[: workloads.MAX_PRINTED_FAILURES]:
        print("# FAILED " + line)
    if len(failures) > workloads.MAX_PRINTED_FAILURES:
        print("# ... %d more failures" % (len(failures) - workloads.MAX_PRINTED_FAILURES))

    if trace:
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        result.tracer.dump(str(spans_path))
        print("# traced: %d spans written to %s" % (
            len(result.tracer.spans), spans_path.relative_to(ROOT)))
        layer_self = workloads.layer_self_times(result.tracer)
        root = sum(layer_self.values())
        print("# self time per layer over %.3f s of traced root spans:" % root)
        for layer, seconds in sorted(layer_self.items(), key=lambda kv: -kv[1]):
            print("#   %-28s %10.4f s %6.1f%%" % (layer, seconds, 100 * seconds / root))
        for name, value in result.layer_metrics.items():
            print("%-40s %14.6f %s" % (name, value, layer_units[name]))
        reported, units = result.layer_metrics, layer_units
    else:
        reported, units = e2e, end_to_end_units
    if set(reported) != set(units):
        raise SystemExit(
            "perfbench: measured metrics %s differ from BENCHMARK.json's %s"
            % (sorted(reported), sorted(units))
        )
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in reported.items()
    }
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
