"""``scipy.stats`` is loaded only by :func:`mean_ci`, its one user.

Importing it is most of the library's import time, and the simulation
itself never needs it, so importing the harness must leave it out.
Checked in a fresh interpreter: the test process has long imported it.
"""

import os
import subprocess
import sys

import pytest

from repro.metrics import mean_ci

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_importing_the_harness_does_not_load_scipy_stats():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    probe = (
        "import sys\n"
        "import repro.harness.experiments\n"
        "print('scipy.stats' in sys.modules)\n"
        "from repro.metrics import mean_ci\n"
        "mean_ci([1.0, 2.0])\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


# (values, confidence) -> (mean, halfwidth), recorded with scipy.stats
# imported at module level
@pytest.mark.parametrize("values, confidence, mean, halfwidth", [
    ([1.0, 2.0, 3.5, 4.25, 10.0], 0.9, 4.15, 3.3436710322807337),
    ([1.0, 2.0, 3.5, 4.25, 10.0], 0.95, 4.15, 4.354683990665097),
    ([1.0, 2.0, 3.5, 4.25, 10.0], 0.99, 4.15, 7.221240639779469),
    ([0.5, 0.5001], 0.95, 0.50005, 0.0006353102368086646),
    ([3.0, 3.0, 3.0], 0.95, 3.0, 0.0),
    ([7.0], 0.95, 7.0, 0.0),
    ([0.001, 0.002, 0.005, 0.01, 0.1, 0.2, 0.3, 0.35, 0.4, 0.45], 0.95,
     0.1818, 0.1294287816630617),
])
def test_mean_ci_values_are_unchanged(values, confidence, mean, halfwidth):
    ci = mean_ci(values, confidence)
    assert (ci.mean, ci.halfwidth, ci.n) == (mean, halfwidth, len(values))
