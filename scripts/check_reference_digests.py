#!/usr/bin/env python
"""Check that the capture workloads reproduce their reference digests.

Performance work must leave every simulated output bit-identical.  The
host-time benchmark (``perfbench/run.py``) compares each run's output
digest with the reference recorded for its seed, but it exits 0 even on
a mismatch (a wrong digest is a failed operation, not a crash), and the
benchmark self-test only runs tiny sizes.  This check runs the three
capture workloads at full size, seed 1, and fails unless each one
prints ``"correct": true``.

Usage::

    python scripts/check_reference_digests.py

Exit codes: 0 when every workload is correct, 1 otherwise (each failing
workload is listed with the problems its run printed).  Takes about a
minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fanin64", "edge-grid", "fleet-churn")
SEED = 1


def verdict(stdout: str) -> Optional[bool]:
    """The ``correct`` field of the run's last output line (None if absent)."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return bool(json.loads(lines[-1])["correct"])
    except (ValueError, KeyError, TypeError):
        return None


def main() -> int:
    failures: List[str] = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", workload, "--seed", str(SEED), "--seconds", "1"],
            cwd=ROOT, capture_output=True, text=True,
        )
        correct = verdict(proc.stdout) if proc.returncode == 0 else None
        print(f"{workload} seed {SEED}: "
              f"{'correct' if correct else 'NOT correct'} (exit {proc.returncode})")
        if not correct:
            problems = [line.strip() for line in proc.stdout.splitlines()
                        if line.strip().startswith("problem:")]
            tail = proc.stderr.strip().splitlines()[-1:] if proc.stderr.strip() else []
            failures.append(f"{workload}: " + ("; ".join(problems + tail) or "no verdict"))
    for failure in failures:
        print(failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
