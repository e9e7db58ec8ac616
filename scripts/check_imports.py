#!/usr/bin/env python
"""Import every ``repro.*`` module first, each in a fresh interpreter.

An import cycle only breaks when one particular module of the cycle is
the first to be imported, and the test suite imports modules in one
fixed order, so it can miss such a cycle.  This check starts a new
interpreter per module and imports only that module.

Usage::

    python scripts/check_imports.py

Exit codes: 0 when every module imports, 1 otherwise (each failing
module is listed with the last line of its traceback).  ``__main__``
modules are skipped: importing one runs its command line.
"""

from __future__ import annotations

import os
import subprocess
import sys
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def module_names() -> List[str]:
    """Dotted names of every module under ``src/repro``, sorted."""
    names = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        package = os.path.relpath(dirpath, SRC).replace(os.sep, ".")
        for filename in sorted(filenames):
            stem, ext = os.path.splitext(filename)
            if ext != ".py" or stem == "__main__":
                continue
            names.append(package if stem == "__init__" else f"{package}.{stem}")
    return names


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    names = module_names()
    failures = []
    for name in names:
        proc = subprocess.run(
            [sys.executable, "-c", f"import {name}"],
            env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or ["(no output)"]
            failures.append(f"{name}: {lines[-1]}")
    for failure in failures:
        print(failure)
    print(f"imported {len(names) - len(failures)}/{len(names)} modules first")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
