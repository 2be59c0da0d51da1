"""Acceptance battery: one test per criterion, each printing its verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines, or equivalently ``mcjacobi selftest``.
"""

import subprocess
import sys

import pytest

from mcjacobi import acceptance


@pytest.mark.parametrize(
    "criterion", acceptance.ALL_CRITERIA, ids=[f.__name__ for f in acceptance.ALL_CRITERIA]
)
def test_acceptance_criterion(criterion):
    result = criterion(quick=False)
    print(result.line())
    assert result.passed, result.line()


def test_criterion_8_fails_under_optimize_when_broken(child_env):
    # python -O strips assert statements; the exact checks must not rely on them
    code = (
        "import mcjacobi.coeffs as coeffs\n"
        "from mcjacobi import acceptance\n"
        "coeffs.jack_at_ones = lambda m, p: -7\n"
        "print(acceptance.criterion_8(quick=True).passed)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=child_env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
