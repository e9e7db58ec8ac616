"""Import cost of the library, measured in fresh interpreters.

Each sample starts a new ``python3`` that imports exactly the modules the
benchmark imports and reports the host seconds that took, with the
seconds of the speed probe it ran just before and after.  With
``attribute_imports=True`` the child also runs under ``-X importtime`` and every
module's self time is charged to the ``repro.<pkg>`` that first imported
it (itself included), so third-party imports such as ``scipy.stats``
count against the repro package that pulled them in.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

__all__ = ["BENCH_IMPORTS", "IMPORT_PACKAGES", "import_once", "attribute"]

#: what the benchmark (perfbench.scenarios) imports from the library
BENCH_IMPORTS = (
    "repro.capture",
    "repro.core",
    "repro.device",
    "repro.dfanalyzer",
    "repro.harness.experiments",
    "repro.harness.paper_reference",
    "repro.metrics",
    "repro.net",
    "repro.simkernel",
    "repro.workloads",
)

#: top-level entries of ``src/repro``; ``repro`` is the package's own
#: ``__init__``, ``other`` any package added later
IMPORT_PACKAGES = (
    "repro", "analysis", "baselines", "calibration", "capture", "coap",
    "core", "device", "dfanalyzer", "e2clab", "harness", "hashring", "http",
    "metrics", "mqttsn", "net", "simkernel", "workloads", "other",
)

# the child samples its own speed around the import (see speed.py)
_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, {root!r})\n"
    "from perfbench.speed import _Probe\n"
    "probe = _Probe()\n"
    "speed = [probe() for _ in range(5)]\n"
    "t = time.perf_counter()\n"
    "import {modules}\n"
    "elapsed = time.perf_counter() - t\n"
    "speed = sorted(speed + [probe() for _ in range(5)])\n"
    "print(repr(elapsed), repr(speed[len(speed) // 2]))\n"
)

_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def _run_child(root: str, attribute_imports: bool,
               timeout_s: float) -> Tuple[float, float, str]:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable]
    if attribute_imports:
        cmd += ["-X", "importtime"]
    cmd += ["-c", _CHILD.format(root=root, modules=", ".join(BENCH_IMPORTS))]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, timeout=timeout_s, check=False)
    if proc.returncode != 0:
        raise RuntimeError(
            f"import of the library failed in a fresh interpreter:\n{proc.stderr[-2000:]}")
    elapsed, probe_s = proc.stdout.strip().splitlines()[-1].split()
    return float(elapsed), float(probe_s), proc.stderr


def attribute(importtime_log: str) -> Dict[str, float]:
    """Seconds per ``IMPORT_PACKAGES`` entry from a ``-X importtime`` log.

    The log lists a module after its own imports, one indent level
    deeper per nesting, so reading it backwards visits each module's
    ancestors first.
    """
    totals = {pkg: 0.0 for pkg in IMPORT_PACKAGES}
    stack: List[Tuple[int, str]] = []
    for line in reversed(importtime_log.splitlines()):
        match = _LINE.match(line)
        if match is None:
            continue
        self_us, depth, name = int(match.group(1)), len(match.group(3)), match.group(4)
        while stack and stack[-1][0] >= depth:
            stack.pop()
        stack.append((depth, name))
        owner: Optional[str] = None
        for _, module in reversed(stack):
            parts = module.split(".")
            if parts[0] == "repro":
                owner = parts[1] if len(parts) > 1 else "repro"
                break
        if owner is None:
            continue  # interpreter start-up, outside the library's import
        if owner not in totals:
            owner = "other"
        totals[owner] += self_us / 1e6
    return totals


def import_once(root: str, attribute_imports: bool = False,
                timeout_s: float = 60.0) -> Tuple[float, float, Dict[str, float]]:
    """Import seconds of one fresh interpreter, the median seconds of the
    speed probe it ran around the import, and, when asked, the
    per-package attribution (empty otherwise)."""
    elapsed, probe_s, log = _run_child(root, attribute_imports, timeout_s)
    return elapsed, probe_s, attribute(log) if attribute_imports else {}
