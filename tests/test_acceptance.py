"""Acceptance battery: one test per criterion, each printing its verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines, or equivalently ``mcjacobi selftest``.
"""

import os
import subprocess
import sys
import time

import pytest

from mcjacobi import acceptance, coeffs, orthog
from mcjacobi.cli import run
from mcjacobi.errors import McjError, ParameterError

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")


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


def _fields(results):
    return [(r.num, r.name, r.passed, r.detail) for r in results]


def test_run_all_same_results_on_one_and_two_cpus(monkeypatch):
    monkeypatch.setattr(orthog, "_cpu_count", lambda: 1)
    serial = acceptance.run_all(quick=True)
    monkeypatch.setattr(orthog, "_cpu_count", lambda: 2)
    forked = acceptance.run_all(quick=True)
    assert [r.num for r in serial] == list(range(1, 11))
    assert _fields(forked) == _fields(serial)


@needs_fork
def test_fault_in_forked_half_fails_its_criterion(capsys, monkeypatch):
    # criteria 1-4 run in a forked child, which inherits this monkeypatch
    real = coeffs.dim_dm
    monkeypatch.setattr(coeffs, "dim_dm", lambda m, p: 2 * real(m, p))
    monkeypatch.setattr(orthog, "_cpu_count", lambda: 2)
    assert run(["selftest", "--quick"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("FAIL   3 spherical degeneration")
    assert all(line.startswith("PASS") for line in lines[4:10])
    assert lines[10].startswith("FAILED suites:")


@needs_fork
def test_error_in_forked_half_exits_2(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise ParameterError("injected in criterion 4")

    monkeypatch.setattr(orthog, "conjecture_sweep", refuse)
    monkeypatch.setattr(orthog, "_cpu_count", lambda: 2)
    assert run(["selftest", "--quick"]) == 2
    captured = capsys.readouterr()
    assert "injected in criterion 4" in captured.err
    assert captured.out == ""


@needs_fork
def test_wrapped_criteria_run_once_each(monkeypatch, tmp_path):
    # a tracer replaces the list's entries in place with wrappers; the
    # battery splits by position, so each wrapper runs once, 1-4 in a child
    log = tmp_path / "calls"

    def wrap(fn):
        def wrapper(quick=False):
            with open(log, "a") as f:
                f.write(f"{fn.__name__} {os.getpid()}\n")
            return fn(quick=quick)

        return wrapper

    monkeypatch.setattr(orthog, "_cpu_count", lambda: 2)
    saved = list(acceptance.ALL_CRITERIA)
    acceptance.ALL_CRITERIA[:] = [wrap(fn) for fn in saved]
    try:
        results = acceptance.run_all(quick=True)
    finally:
        acceptance.ALL_CRITERIA[:] = saved
    calls = [line.split() for line in log.read_text().splitlines()]
    assert sorted(name for name, _ in calls) == sorted(fn.__name__ for fn in saved)
    pids = {name: int(pid) for name, pid in calls}
    child = {pids[fn.__name__] for fn in saved[:4]}
    assert len(child) == 1 and os.getpid() not in child
    assert {pids[fn.__name__] for fn in saved[4:]} == {os.getpid()}
    assert [r.num for r in results] == list(range(1, 11))


def _stub(num, action=None):
    def criterion(quick=False):
        if action is not None:
            action()
        return acceptance.CriterionResult(num, f"stub {num}", True, "", 0.0)

    return criterion


def _fail():
    raise McjError("injected in criterion 5")


@needs_fork
@pytest.mark.parametrize(
    "child_action,parent_action,message",
    [
        (None, None, None),
        # the parent's half raises while the child still runs: it is killed
        (lambda: time.sleep(60), _fail, "injected in criterion 5"),
        # the child ends without sending a result
        (lambda: os._exit(3), None, "ended without a result"),
    ],
    ids=["both-halves-pass", "parent-half-raises", "child-dies"],
)
def test_run_all_leaves_no_child(child_action, parent_action, message, monkeypatch):
    stubs = [_stub(i, child_action if i <= 4 else parent_action) for i in range(1, 11)]
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", stubs)
    monkeypatch.setattr(orthog, "_cpu_count", lambda: 2)
    t0 = time.perf_counter()
    if message is None:
        assert [r.num for r in acceptance.run_all()] == list(range(1, 11))
    else:
        with pytest.raises(McjError, match=message):
            acceptance.run_all()
    assert time.perf_counter() - t0 < 30
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_import_neither_forks_nor_loads_multiprocessing(child_env):
    code = (
        "import os, sys\n"
        "forks = []\n"
        "os.register_at_fork(before=lambda: forks.append(1))\n"
        "from mcjacobi import acceptance, orthog\n"
        "print(len(forks), 'multiprocessing' in sys.modules)\n"
        "orthog._cpu_count = lambda: 2\n"
        "last = acceptance.ALL_CRITERIA[3]\n"
        "def criterion_4(quick):\n"
        "    res = last(quick=quick)\n"
        "    res.detail += f' scipy={\"scipy\" in sys.modules}'\n"
        "    return res\n"
        "acceptance.ALL_CRITERIA[3] = criterion_4\n"
        "results = acceptance.run_all(quick=True)\n"
        "assert all(r.passed for r in results)\n"
        "print(len(forks), 'multiprocessing' in sys.modules, 'scipy' in sys.modules,\n"
        "      results[3].detail.rsplit(' ', 1)[1])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # one fork per battery; neither the parent nor the child running criteria
    # 1-4 imports scipy
    assert proc.stdout.split("\n") == ["0 False", "1 False False scipy=False", ""]
