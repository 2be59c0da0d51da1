"""Worker process of the mcjacobi benchmark.

Imports from the checkout's ``src`` the mcjacobi modules that the workload's
jobs use, prints ``ready``, runs the jobs in a closed loop with one client for
the given seconds, checks every job's output outside the timed interval, and
prints one JSON result line.  ``perfbench/run.py`` starts it; usage:

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE

MODE is ``setup`` (import, print ``ready`` and exit), ``plain`` (untraced
jobs, with set-up samples taken before and between them), ``traced`` (jobs under
``tracer.Tracer``) or ``selftest-job`` (one traced in-process selftest, used
by the traced ``selftest`` workload).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

# the package's __init__ imports every module but cli and acceptance
import mcjacobi  # noqa: E402
from mcjacobi import coeffs, mcj, orthog, partitions, sympoly  # noqa: E402
from mcjacobi.params import ParamSet  # noqa: E402

# what a workload's jobs import beyond the package, before ``ready``; for
# selftest it is what each ``python -m mcjacobi.cli selftest`` process imports
EXTRA_IMPORTS = {
    "orth-r3": ["mcjacobi.cli"],
    "exact-build": [],
    "selftest": ["mcjacobi.cli", "mcjacobi.acceptance"],
}
SETUP_SAMPLES = 5  # one before the first job, and one after each fifth of the run
# The speed of the 2-core machine the benchmark was tuned on swung by up to
# 2.5x within minutes, as other tenants' load came and went, and a whole run
# could fall into a slow spell.  So a fixed kernel is timed before and after
# every job, and each job's time is scaled by REF_NOMINAL_S over the mean of
# the two readings: it reports seconds at the speed at which the kernel takes
# REF_NOMINAL_S.  The kernel, math.fsum over boxed floats, is
# memory-bound; it tracked all three workloads, where a pure-interpreter
# kernel of Fraction and dict work over-corrected the quadrature.
REF_VALUES = 200_000
REF_NOMINAL_S = 0.02
# Most of a set-up is the import of numpy and scipy, and its speed drifted
# by up to 30% between sets of runs while the kernel's did not (process start
# and page faults, not computation).  So set-up samples are scaled in the same
# way by a bare interpreter start that imports only those libraries.
SETUP_REF_CMD = [sys.executable, "-c", "import numpy, scipy.special; print('ready', flush=True)"]
SETUP_REF_NOMINAL_S = 0.3
RSS_AT_JOB = 3  # peak_rss_mb is read after this job, which every run reaches
SPANS_DIR = ROOT / ".perfbench"
VERDICT = "all acceptance criteria passed"
VERDICT_LINE = re.compile(r"^(PASS|FAIL) |^all acceptance|^FAILED suites")
TIMING = re.compile(r" \(\d+\.\d+s\)$")


# ---------------------------------------------------------------------------
# orth-r3: quadrature-dominated orthogonality certificate
# ---------------------------------------------------------------------------


def orth_inputs(seed: int):
    rng = random.Random(f"orth-r3:{seed}")
    while True:
        nu = round(rng.uniform(-0.4, 0.4), 4)
        if nu != 0:
            yield {"r": 3, "d": "1", "alpha": 3, "nu": nu, "points": 48, "max_weight": 2}


def orth_job(inp):
    from mcjacobi import cli

    p = ParamSet(r=3, d=Fraction(inp["d"]), alpha=inp["alpha"], nu=inp["nu"])
    rule = orthog.build_rule(inp["points"], "auto", p)
    report = orthog.verify_orthogonality(p, inp["max_weight"], rule, 1e-6, 1e-6)
    return report, cli.dumps_17g(report.to_json_dict())


def orth_check(out):
    report, text = out
    return report.passed, text


# ---------------------------------------------------------------------------
# exact-build: exact construction at a fresh rational d per job
# ---------------------------------------------------------------------------


def exact_inputs(seed: int):
    # non-integer d = p/q in (0, 6); each d once, so no job rides on the
    # lru_caches an earlier job filled
    pool = sorted({Fraction(p, q) for q in range(2, 10) for p in range(1, 6 * q) if p % q})
    rng = random.Random(f"exact-build:{seed}")
    rng.shuffle(pool)
    for d in pool:
        # integer alpha > n/r = 1 + d
        alpha = math.floor(1 + d) + 1 + rng.randint(0, 2)
        yield {"r": 3, "d": str(d), "alpha": alpha, "nu": 0.3, "max_weight": 8}


def exact_job(inp):
    r = inp["r"]
    d = Fraction(inp["d"])
    pe = ParamSet(r=r, d=d, alpha=inp["alpha"], nu=0)
    pc = pe.with_(nu=inp["nu"])
    parts = partitions.enumerate_partitions(inp["max_weight"], r)
    built = []
    for m in parts:
        sph = sympoly.spherical_poly(m, d, r)
        row = [coeffs.gen_binom(m, k, pe) for k in parts]
        built.append(
            (m, sph, row, mcj.mcj_build(m, pe), mcj.mcj_build(m, pc), mcj.laguerre_build(m, pc))
        )
    return pe, built


def exact_check(out):
    pe, built = out
    ones, zeros = [1.0] * pe.r, [0.0] * pe.r
    ok = True
    texts = []
    for m, sph, row, exact, cplx, lag in built:
        # every family member takes the value d_m (alpha)_m / (n/r)_m at sigma = 1
        target = (
            coeffs.dim_dm(m, pe)
            * coeffs.gen_pochhammer(pe.alpha, m, pe)
            / coeffs.gen_pochhammer(pe.n_over_r, m, pe)
        )
        tol = 1e-12 * abs(float(target))
        ok = (
            ok
            and sph.eval_at_ones() == 1
            and sum(row) == 2 ** sum(m)
            and exact.body_exact.eval_at_ones() == target
            and abs(cplx.evaluate(ones) - float(target)) <= tol
            and abs(lag.eval_poly(zeros) - float(target)) <= tol
        )
        texts += [exact.body_exact.render(), cplx.body.render(), lag.body.render()]
    return ok, "\n".join(texts)


# ---------------------------------------------------------------------------
# selftest: the full acceptance battery in a fresh interpreter
# ---------------------------------------------------------------------------


def selftest_inputs(seed: int):
    # the battery pins its own inputs (acceptance.SEED); the seed does not apply
    while True:
        yield {"command": "mcjacobi selftest", "seed": "pinned by acceptance.SEED"}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONUNBUFFERED"] = "1"
    return env


def run_to_verdict(cmd: list) -> tuple:
    """Run one selftest process; the time runs from spawn to its verdict line.

    Returns (seconds, child cpu seconds, exit code, output lines).
    """
    before = os.times()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=_child_env(), cwd=ROOT,
    )
    elapsed = None
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            if elapsed is None and (line.startswith(VERDICT) or line.startswith("FAILED suites")):
                elapsed = time.perf_counter() - t0
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if elapsed is None:
        elapsed = time.perf_counter() - t0
    after = os.times()
    cpu = (after.children_user - before.children_user) + (
        after.children_system - before.children_system
    )
    return elapsed, cpu, code, lines


def selftest_text(lines: list) -> str:
    return "\n".join(TIMING.sub("", ln) for ln in lines if VERDICT_LINE.match(ln))


def selftest_traced_job() -> None:
    """One in-process selftest with cold caches under the tracer."""
    import tracer as tracing
    from mcjacobi import cli

    tr = tracing.Tracer()
    tr.install()
    tr.active = True
    try:
        code = cli.run(["selftest"])
    finally:
        tr.active = False
        restored = tr.restore()
    print(json.dumps(
        {"code": code, "restored": restored, "agg": tr.aggregate(), "spans": tr.rows()}
    ))


def selftest_one(seed: int, traced: bool, trace_out: dict) -> tuple:
    """Returns (seconds, cpu seconds, ok, serialized output) of one selftest."""
    if traced:
        cmd = [sys.executable, str(Path(__file__).resolve()), "selftest", str(seed), "0", "selftest-job"]
    else:
        cmd = [sys.executable, "-m", "mcjacobi.cli", "selftest"]
    elapsed, cpu, code, lines = run_to_verdict(cmd)
    if traced:
        tail = json.loads(lines.pop())
        job = len(trace_out["aggs"])
        trace_out["aggs"].append(tail["agg"])
        trace_out["restored"].append(tail["restored"])
        trace_out["rows"] += [[job] + row[1:] for row in tail["spans"]]
        code = code or tail["code"]
    return elapsed, cpu, code == 0 and VERDICT in lines, selftest_text(lines)


def setup_cmd(workload: str) -> list:
    return [sys.executable, str(Path(__file__).resolve()), workload, "0", "0", "setup"]


def spawn_to_ready(cmd: list) -> float:
    """Seconds from spawning ``cmd`` to its ``ready`` line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        first = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or code != 0:
        raise RuntimeError(f"{cmd} exited with code {code}")
    return elapsed


class Scaler:
    """Scales each measured time by a reference reading taken just before and
    just after it: ``scaled_s = s * nominal_s / mean(before, after)``."""

    def __init__(self, measure, nominal_s: float):
        self.measure = measure
        self.nominal_s = nominal_s
        self.last = measure()

    def __call__(self, record: dict) -> dict:
        after = self.measure()
        record["ref_s"] = (self.last + after) / 2
        record["scaled_s"] = record["s"] * self.nominal_s / record["ref_s"]
        self.last = after
        return record


def reference_s(values: list) -> float:
    """Seconds the reference kernel takes now."""
    t0 = time.perf_counter()
    for _ in range(3):
        math.fsum(values)
    return time.perf_counter() - t0


def in_process_one(workload: str, inp: dict, tr) -> tuple:
    """Returns (seconds, cpu seconds, ok, serialized output) of one job."""
    job, check = IN_PROCESS[workload]
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    if tr is not None:
        tr.active = True
    try:
        out = job(inp)
    finally:
        if tr is not None:
            tr.active = False
    elapsed = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    ok, text = check(out)
    return elapsed, cpu, ok, text


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


INPUTS = {"orth-r3": orth_inputs, "exact-build": exact_inputs, "selftest": selftest_inputs}
IN_PROCESS = {"orth-r3": (orth_job, orth_check), "exact-build": (exact_job, exact_check)}


def run_loop(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    tr = None
    if traced:
        import tracer as tracing

        if workload in IN_PROCESS:
            tr = tracing.Tracer()
    jobs = []
    setups = []
    trace_out = {"aggs": [], "restored": [], "rows": []}
    who = resource.RUSAGE_CHILDREN if workload == "selftest" else resource.RUSAGE_SELF
    ref_values = [math.sin(i) * 10.0 ** (i % 7) for i in range(REF_VALUES)]
    scaled = Scaler(lambda: reference_s(ref_values), REF_NOMINAL_S)
    if not traced:
        setup_scaled = Scaler(lambda: spawn_to_ready(SETUP_REF_CMD), SETUP_REF_NOMINAL_S)
    if tr is not None:
        tr.install()
    start = time.perf_counter()
    # untraced runs take set-up samples before the first job and between jobs,
    # spread through the run; the deadline moves on by the time they take, so
    # the jobs keep ``seconds``
    setup_due = [] if traced else [
        start + k * seconds / SETUP_SAMPLES for k in range(SETUP_SAMPLES)
    ]
    deadline = start + seconds
    try:
        for inp in INPUTS[workload](seed):
            while setup_due and time.perf_counter() >= setup_due[0]:
                t0 = time.perf_counter()
                setups.append(setup_scaled({"s": spawn_to_ready(setup_cmd(workload))}))
                spent = time.perf_counter() - t0
                deadline += spent
                setup_due = [t + spent for t in setup_due[1:]]
            if time.perf_counter() >= deadline:
                break
            if tr is not None:
                tr.job = len(jobs)
            t0 = time.perf_counter()
            try:
                if workload == "selftest":
                    s, cpu, ok, text = selftest_one(seed, traced, trace_out)
                else:
                    s, cpu, ok, text = in_process_one(workload, inp, tr)
            except Exception as exc:  # a failed job counts against fail_share
                s = time.perf_counter() - t0
                job = {"input": inp, "s": s, "cpu_s": 0.0, "ok": False, "error": repr(exc)}
            else:
                sha = hashlib.sha256(text.encode()).hexdigest()
                job = {"input": inp, "s": s, "cpu_s": cpu, "ok": bool(ok), "sha256": sha}
            job["rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
            jobs.append(scaled(job))
        for _ in setup_due:  # a run too short to reach every sample takes the rest now
            setups.append(setup_scaled({"s": spawn_to_ready(setup_cmd(workload))}))
    finally:
        if tr is not None:
            trace_out["restored"].append(tr.restore())
    # the peak after a fixed job, so that it does not grow with the job count
    result = {
        "jobs": jobs,
        "peak_rss_mb": jobs[min(RSS_AT_JOB, len(jobs)) - 1]["rss_mb"] if jobs else 0.0,
        "setup_s_samples": setups,
        "restored": all(trace_out["restored"]),
    }
    if tr is not None:
        trace_out["aggs"].append(tr.aggregate())
        trace_out["rows"] = tr.rows()
    if traced:
        tracing.write_spans(SPANS_DIR / f"spans-{workload}-{seed}.jsonl", trace_out["rows"])
        result["layers"] = tracing.layer_metrics(
            tracing.merge(trace_out["aggs"]), len(jobs)
        )
    return result


def environment() -> dict:
    import numpy as np
    import scipy

    cfg = np.show_config(mode="dicts")
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mcjacobi": mcjacobi.__version__,
        "blas": cfg.get("Build Dependencies", {}),
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main(argv: list) -> int:
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    if not Path(mcjacobi.__file__).resolve().is_relative_to(SRC):
        print(f"mcjacobi imported from {mcjacobi.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if mode == "selftest-job":
        selftest_traced_job()
        return 0
    for name in EXTRA_IMPORTS[workload]:
        importlib.import_module(name)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    result = run_loop(workload, seed, seconds, traced=(mode == "traced"))
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
