#!/usr/bin/env python3
"""Self-tests of the benchmark, at tiny sizes (seconds, not minutes).

    python3 perfbench/selftest.py

Checks, for every workload:

* a repetition passes all its output checks and repeats its digest;
* a traced repetition reproduces the untraced digest, the layer self
  times sum to the traced wall time, and uninstalling the tracer
  restores every patched function;

and that injected faults are caught (``failed`` > 0): a backend that
drops one record, and one perturbed query answer.  Exits 0 when every
check holds.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import importtime, run, scenarios, tracing  # noqa: E402

TINY = {
    "fanin64": {"devices": 4, "tasks": 5},
    "edge-grid": {"tasks": 10},
    "fleet-churn": {"devices": 8, "tasks": 10},
    "query-fl": {"clients": 4, "rounds": 2, "batch": 8},
}


def tiny(name: str, workdir: str):
    workload = scenarios.make_workload(name, 1, workdir, **TINY[name])
    problems = workload.prepare()
    assert not problems, problems
    return workload


def check_clean(name: str, workdir: str) -> None:
    workload = tiny(name, workdir)
    units = [workload.run_unit(), workload.run_unit()]
    attempted, failed, problems = run.score(units, None, [])
    assert attempted > 0 and failed == 0, problems


def check_traced(name: str, workdir: str) -> None:
    from repro.dfanalyzer.store import Table
    from repro.simkernel import Environment

    originals = (Table.update_where, Environment.process, Environment.step)
    workload = tiny(name, workdir)
    untraced = workload.run_unit()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, wall = tracer.run_unit(workload.run_unit)
    finally:
        tracer.uninstall()
    assert traced.digest == untraced.digest, (traced.digest, untraced.digest)
    assert not tracer.missing, tracer.missing
    layers = sum(tracer.layer_self_s())
    assert abs(layers - wall) <= 1e-6 * wall, (layers, wall)
    assert (Table.update_where, Environment.process, Environment.step) == originals
    metrics = tracer.metrics(wall)
    assert set(metrics) == set(tracing.layer_metrics_names())
    if name == "query-fl":
        assert metrics["dfanalyzer.query.rows_scanned"] > 0
    else:
        assert metrics["simkernel.events"] > 0 and metrics["capture.ingest_ratio"] > 0


def check_dropped_record(workdir: str) -> None:
    from repro.dfanalyzer import DfAnalyzerService

    ingest = DfAnalyzerService.ingest
    calls = [0]

    def dropping(self, payload):
        calls[0] += 1
        if calls[0] == 7:
            return 0  # one ungrouped payload = one record, silently lost
        return ingest(self, payload)

    workload = scenarios.make_workload("fanin64", 1, workdir, **TINY["fanin64"])
    DfAnalyzerService.ingest = dropping
    try:
        unit = workload.run_unit()
    finally:
        DfAnalyzerService.ingest = ingest
    attempted, failed, problems = run.score([unit], None, [])
    assert failed > 0 and any("records" in p for p in problems), problems


def check_perturbed_answer(workdir: str) -> None:
    import repro.dfanalyzer as dfa

    workload = tiny("query-fl", workdir)
    original = dfa.task_durations
    calls = [0]

    def perturbed(service, flow):
        answer = original(service, flow)
        calls[0] += 1
        if calls[0] == 1:
            answer[0] = dict(answer[0], duration=answer[0]["duration"] + 1e-9)
        return answer

    dfa.task_durations = perturbed
    try:
        unit = workload.run_unit()
    finally:
        dfa.task_durations = original
    attempted, failed, problems = run.score([unit], None, [])
    assert failed == 1 and attempted == len(unit.ops), problems


def check_import_attribution() -> None:
    seconds, probe_s, by_pkg = importtime.import_once(ROOT, attribute_imports=True)
    assert 0 < probe_s < seconds, (probe_s, seconds)
    assert set(by_pkg) == set(importtime.IMPORT_PACKAGES)
    assert by_pkg["metrics"] > 0 and by_pkg["simkernel"] > 0, by_pkg
    # -X importtime adds its own cost, so only the order of magnitude holds
    assert 0.3 * seconds < sum(by_pkg.values()) < 3 * seconds, (seconds, by_pkg)


def main() -> int:
    checks = []
    for name in TINY:
        checks.append((f"{name}: clean repetitions", lambda wd, n=name: check_clean(n, wd)))
        checks.append((f"{name}: traced = untraced", lambda wd, n=name: check_traced(n, wd)))
    checks.append(("fault: backend drops one record", check_dropped_record))
    checks.append(("fault: perturbed query answer", check_perturbed_answer))
    checks.append(("import attribution", lambda wd: check_import_attribution()))
    failures = 0
    for label, check in checks:
        os.makedirs(os.path.join(ROOT, ".perfbench-work"), exist_ok=True)
        workdir = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".perfbench-work"))
        try:
            check(workdir)
            print(f"ok    {label}")
        except Exception:  # report every check, then fail the run
            failures += 1
            print(f"FAIL  {label}")
            traceback.print_exc()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(checks) - failures} of {len(checks)} self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
