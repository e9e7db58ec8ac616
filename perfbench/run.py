#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fanin64 --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics: seconds of set-up and of
one repetition, throughput, per-operation latency percentiles and peak
memory.  ``--trace 1`` alternates untraced and traced repetitions for
``--seconds`` and prints the per-layer breakdown (self time per layer,
counts at layer boundaries, import time per package) and the tracing
overhead.  Either way the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat every metric by name with its
unit.

Every time is in host seconds scaled to a reference CPU speed (see
``perfbench/speed.py``): the host's speed drifts too much for raw clock
readings to compare between runs.

Run it from a checkout of the repository; it reads the library from
``src/`` and writes only below the checkout (``.perfbench-work/``,
removed at exit, and ``.perfbench-out/`` for the raw numbers).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.speed import PROBE_REF_S, SpeedSampler  # noqa: E402
WORKLOAD_NAMES = ("fanin64", "edge-grid", "fleet-churn", "query-fl")
#: set-up is repeated this often per run (fresh interpreters for the
#: import part); ``setup_s`` reports the medians
SETUP_SAMPLES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def metric_unit(name: str) -> str:
    """Unit of a metric, from its name."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s") or name.startswith("import_s."):
        return "s"
    if name.endswith("ns_per_event"):
        return "ns"
    if name.endswith("bytes") or name.endswith("bytes_sent"):
        return "bytes"
    if name.endswith((".share", "_ratio", ".overhead", "per_backend_batch")):
        return "ratio"
    return "count"


def load_reference(workload: str, seed: int) -> Optional[str]:
    """Digest recorded for ``(workload, seed)`` at the reference commit."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path) as handle:
        table = json.load(handle)
    return table.get("digests", {}).get(workload, {}).get(str(seed))


def score(units: Sequence[Any], expected_digest: Optional[str],
          setup_problems: Sequence[str]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` over every operation.

    An operation fails when it raised or its output check failed; every
    operation of a repetition fails when the repetition's simulated
    outputs differ from the first repetition's (non-determinism) or from
    the recorded reference digest.
    """
    attempted = len(setup_problems)
    failed = len(setup_problems)
    problems = list(setup_problems)
    first = expected_digest if expected_digest is not None else units[0].digest
    for index, unit in enumerate(units):
        attempted += len(unit.ops)
        if unit.digest != first:
            failed += len(unit.ops)
            source = "reference" if expected_digest is not None else "repetition 0"
            problems.append(f"repetition {index}: digest {unit.digest} != {source} {first}")
            continue
        for op in unit.ops:
            if not op.ok:
                failed += 1
                problems.append(op.problem)
    return attempted, failed, problems


def percentile_ms(values: Sequence[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q)) * 1000.0


def op_latencies(units, sampler) -> List[float]:
    """Every op's seconds, scaled by the host's speed around that op."""
    return [op.seconds * sampler.factor(op.start, op.start + op.seconds)
            for unit in units for op in unit.ops]


def end_to_end(units, factors: Sequence[float], sampler, setup_s: float) -> Dict[str, float]:
    """End-to-end metrics; ``factors`` scale each repetition's seconds."""
    latencies = op_latencies(units, sampler)
    walls = [unit.timed_s * f for unit, f in zip(units, factors)]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "throughput_per_s": sum(unit.work for unit in units) / sum(walls),
        "op_p50_ms": percentile_ms(latencies, 50),
        "op_p90_ms": percentile_ms(latencies, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def timed(sampler, action) -> Tuple[float, float, Any]:
    """``(host seconds without probes, scale factor, result)`` of one call.

    A full collection first, so garbage of earlier calls is not collected
    (and its memory not reused) at a random point of this one.
    """
    gc.collect()
    start = sampler.clock()
    result = action()
    end = sampler.clock()
    return end - start, sampler.factor(start, end), result


def repeat_for(seconds: float, sampler, run_unit) -> Tuple[List[Any], List[float]]:
    """Run repetitions until ``seconds`` have passed (at least one);
    returns them with their scale factors."""
    units: List[Any] = []
    factors: List[float] = []
    start = sampler.clock()
    while not units or sampler.clock() - start < seconds:
        _, factor, unit = timed(sampler, run_unit)
        units.append(unit)
        factors.append(factor)
    return units, factors


def run(args, workdir: str, sampler) -> Tuple[bool, int, int, Dict[str, float], List[str]]:
    from perfbench import importtime, scenarios, tracing

    imports = [importtime.import_once(ROOT, bool(args.trace)) for _ in range(SETUP_SAMPLES)]
    import_s = [child_s * PROBE_REF_S / probe_s for child_s, probe_s, _ in imports]
    workload = scenarios.make_workload(args.workload, args.seed, workdir,
                                       clock=sampler.clock)
    prepared = [timed(sampler, workload.prepare) for _ in range(SETUP_SAMPLES)]
    prepare_s = [elapsed * factor for elapsed, factor, _ in prepared]
    setup_problems = [problem for _, _, problems in prepared for problem in problems]
    setup_s = statistics.median(import_s) + statistics.median(prepare_s)
    expected = load_reference(args.workload, args.seed)

    if not args.trace:
        units, factors = repeat_for(args.seconds, sampler, workload.run_unit)
        attempted, failed, problems = score(units, expected, setup_problems)
        metrics = end_to_end(units, factors, sampler, setup_s)
        # no workload has ten ops beyond p99 in a run, so p99 is kept with
        # the raw numbers instead of as a metric
        extra: Dict[str, Any] = {"unit_host_s": [u.timed_s for u in units],
                                 "op_p99_ms": percentile_ms(op_latencies(units, sampler), 99),
                                 "digests": sorted({u.digest for u in units})}
    else:
        tracer = tracing.Tracer(clock=sampler.clock)

        def pair():
            """An untraced then a traced repetition, for the overhead."""
            start = sampler.clock()
            plain = workload.run_unit()
            plain_s = sampler.clock() - start
            tracer.install()
            try:
                traced = tracer.run_unit(workload.run_unit)[0]
            finally:
                tracer.uninstall()
            return plain, plain_s, traced

        pairs, factors = repeat_for(args.seconds, sampler, pair)
        units = [unit for plain, _, traced in pairs for unit in (plain, traced)]
        # traced repetitions must reproduce the untraced simulated outputs
        attempted, failed, problems = score(units, expected, setup_problems)
        untraced_wall = statistics.median(p[1] * f for p, f in zip(pairs, factors))
        metrics = tracer.metrics(untraced_wall, scale=statistics.median(factors))
        for pkg in importtime.IMPORT_PACKAGES:
            metrics[f"import_s.{pkg}"] = statistics.median(
                by_pkg[pkg] * PROBE_REF_S / probe_s for _, probe_s, by_pkg in imports)
        extra = {"trace": tracer.summary(),
                 "digests": sorted({u.digest for u in units})}
        if tracer.missing:
            problems.append("trace targets not found: " + ", ".join(tracer.missing))
    extra.update(factors=factors, import_s=import_s, prepare_s=prepare_s,
                 speed_samples=len(sampler.samples))
    write_out(args, metrics, extra)
    return failed == 0, attempted, failed, metrics, problems


def write_out(args, metrics, extra) -> None:
    """Keep the run's raw numbers (and the trace's span totals) on disk."""
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    kind = "trace" if args.trace else "run"
    path = os.path.join(out_dir, f"{kind}-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "metrics": metrics, **extra}, handle, indent=1, sort_keys=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no library at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    workdir = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    tempfile.tempdir = workdir  # journals and any library temp files stay here
    try:
        with SpeedSampler() as sampler:
            correct, attempted, failed, metrics, problems = run(args, workdir, sampler)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'})")
    for problem in problems:
        print(f"  problem: {problem}")
    print(f"  error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {metric_unit(name)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": metric_unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
