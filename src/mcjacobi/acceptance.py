"""Acceptance battery: every headline claim at its pinned tolerance.

Each criterion is a function returning a :class:`CriterionResult`; the CLI
``selftest`` command and the test suite both drive :func:`run_all`.  The
tolerances are fixed here and nowhere else.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import coeffs, mcj, orthog
from .params import ParamSet
from .partitions import contains, enumerate_partitions, weight
from .sympoly import jack_mono, schur, spherical_poly

SEED = 20250810


def _rng(tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=SEED + tag))


def _distinct_angles(rng, r, count, low=0.15, high=2 * math.pi - 0.15, min_gap=0.25):
    out = []
    while len(out) < count:
        th = np.sort(rng.uniform(low, high, size=r))
        if r == 1 or np.min(np.diff(th)) > min_gap:
            out.append(th)
    return out


@dataclass
class CriterionResult:
    num: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.num:2d} {self.name}: {self.detail} ({self.seconds:.2f}s)"


def _result(num, name, t0, passed, detail) -> CriterionResult:
    return CriterionResult(num, name, passed, detail, time.perf_counter() - t0)


# --------------------------------------------------------------------------


def criterion_1(quick=False) -> CriterionResult:
    """One-variable orthogonality at 1e-9."""
    t0 = time.perf_counter()
    alphas = [2.0] if quick else [1.0, 2.0, 3.5]
    nus = [0.0, 0.7]
    max_w = 4 if quick else 6
    n = 64 if quick else 96
    worst_off = worst_diag = 0.0
    for alpha in alphas:
        for nu in nus:
            p = ParamSet(r=1, d=2, alpha=alpha, nu=nu)
            rule = orthog.build_rule(n, "auto", p)
            rep = orthog.verify_orthogonality(p, max_w, rule, 1e-9, 1e-9)
            worst_off = max(worst_off, rep.off_diag_max_scaled)
            worst_diag = max(worst_diag, rep.diag_rel_max)
    elapsed = time.perf_counter() - t0
    ok = worst_off <= 1e-9 and worst_diag <= 1e-9 and elapsed < 10.0
    return _result(
        1,
        "one-variable orthogonality",
        t0,
        ok,
        f"off={worst_off:.2e} diag={worst_diag:.2e} tol=1e-9",
    )


def criterion_2(quick=False) -> CriterionResult:
    """Rank-2 orthogonality theorem at d=2, alpha=3, nu=0.5."""
    t0 = time.perf_counter()
    p = ParamSet(r=2, d=2, alpha=3, nu=0.5)
    n = 64 if quick else 120
    max_w = 2 if quick else 3
    rule = orthog.build_rule(n, "auto", p)
    rep = orthog.verify_orthogonality(p, max_w, rule, 1e-6, 1e-6)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 300.0
    return _result(
        2,
        "rank-2 orthogonality theorem",
        t0,
        ok,
        f"off={rep.off_diag_max_scaled:.2e} diag={rep.diag_rel_max:.2e} tol=1e-6",
    )


def criterion_3(quick=False) -> CriterionResult:
    """Degeneration at alpha = n/r, nu = 0."""
    t0 = time.perf_counter()
    ds = [2, 3] if quick else [1, 2, 3]
    coef_w = 3 if quick else 5
    quad_w = 2 if quick else 3
    worst_coef = 0.0
    worst_diag = 0.0
    for d in ds:
        p0 = ParamSet(r=2, d=d)
        p = p0.with_(alpha=p0.n_over_r, nu=0)
        # coefficientwise: family member == d_m * spherical
        for m in enumerate_partitions(coef_w, 2):
            body = mcj.mcj_build(m, p).body
            target = spherical_poly(m, p.d, 2).scale(coeffs.dim_dm(m, p)).to_complex()
            keys = set(body.terms) | set(target.terms)
            for k in keys:
                worst_coef = max(
                    worst_coef, abs(body.terms.get(k, 0) - target.terms.get(k, 0))
                )
        # quadrature diagonal against d_m / Gamma_Omega(n/r)
        rule = orthog.build_rule(40 if quick else 64, "auto", p)
        parts = enumerate_partitions(quad_w, 2)
        G = orthog._gram(p, parts, rule)
        inv_gamma = math.exp(-coeffs.gamma_omega_log(float(p.n_over_r), p).real)
        for i, m in enumerate(parts):
            target = float(coeffs.dim_dm(m, p)) * inv_gamma
            worst_diag = max(worst_diag, abs(G[i, i].real - target) / target)
    ok = worst_coef <= 1e-12 and worst_diag <= 1e-8
    return _result(
        3,
        "spherical degeneration",
        t0,
        ok,
        f"coef={worst_coef:.2e} (tol 1e-12) diag={worst_diag:.2e} (tol 1e-8)",
    )


def criterion_4(quick=False) -> CriterionResult:
    """Conjecture evidence at non-classical d = 2.5 plus classical controls."""
    t0 = time.perf_counter()
    n = 32 if quick else 48
    nus = [0.3] if quick else [0.0, 0.3]
    evidence = orthog.conjecture_sweep(
        [Fraction(5, 2)], [3.0], nus, r=2, max_weight=2, points_per_axis=n,
        tol_off=1e-4, tol_diag=1e-4,
    )
    ctl_ds = [3] if quick else [1, 2, 3]
    controls = orthog.conjecture_sweep(
        ctl_ds, [3.0], [0.3], r=2, max_weight=2, points_per_axis=n, oracle_tol=1e-6
    )
    ok = all(r.passed for r in evidence + controls)
    ok = ok and all(r.diagnostics["converged"] for r in evidence)
    worst_e = max(r.diag_rel_max for r in evidence)
    worst_c = max(r.diag_rel_max for r in controls)
    return _result(
        4,
        "conjecture evidence (d = 2.5)",
        t0,
        ok,
        f"evidence diag={worst_e:.2e} (tol 1e-4), controls diag={worst_c:.2e} (tol 1e-6)",
    )


def criterion_5(quick=False) -> CriterionResult:
    """d = 2 determinant formulas against the direct definitions."""
    t0 = time.perf_counter()
    ranks = [2] if quick else [2, 3]
    trials = 5 if quick else 20
    max_w = 3 if quick else 4
    worst = 0.0
    for r in ranks:
        p = ParamSet(r=r, d=2, alpha=3.5, nu=0.4)
        rng = _rng(100 + r)
        torus = _distinct_angles(rng, r, trials)
        reals = [np.tan((th - math.pi) / 2) for th in _distinct_angles(rng, r, trials)]
        for m in enumerate_partitions(max_w, r):
            poly = mcj.mcj_build(m, p)
            for th in torus:
                sigma = [cmath.exp(1j * x) for x in th]
                v_det = mcj.det_eval_phi(m, p, sigma)
                v_dir = poly.evaluate(sigma)
                worst = max(worst, abs(v_det - v_dir) / (1 + abs(v_dir)))
            for tt in reals:
                v_det = mcj.det_eval_psi(m, p, list(tt))
                v_dir = mcj.psi_eval(m, p, list(tt))
                worst = max(worst, abs(v_det - v_dir) / (1 + abs(v_dir)))
    ok = worst <= 1e-9
    return _result(
        5, "determinant formulas", t0, ok, f"rel residual={worst:.2e} (tol 1e-9)"
    )


def criterion_6(quick=False) -> CriterionResult:
    """Generating functions: closed form at r=1, determinant form at d=2."""
    t0 = time.perf_counter()
    n1 = 20 if quick else 30
    n2 = 10
    p1 = ParamSet(r=1, d=2, alpha=2, nu=0.5)
    res_phi1 = mcj.genfun_residual_phi(p1, [0.25], [cmath.exp(0.9j)], n1)
    p1b = ParamSet(r=1, d=2, alpha=1.5, nu=0.0)
    res_psi1 = mcj.genfun_residual_psi(p1b, [0.25], [0.8], n1)
    p2 = ParamSet(r=2, d=2, alpha=3, nu=0.2)
    res_phi2 = mcj.genfun_residual_phi(
        p2, [0.15, 0.05], [cmath.exp(0.7j), cmath.exp(2.6j)], n2
    )
    p2b = ParamSet(r=2, d=2, alpha=3, nu=0.0)
    res_psi2 = mcj.genfun_residual_psi(p2b, [0.1, 0.05], [0.3, -0.2], n2)
    r1 = max(res_phi1, res_psi1)
    r2 = max(res_phi2, res_psi2)
    ok = r1 < 1e-10 and r2 < 1e-6
    return _result(
        6,
        "generating functions",
        t0,
        ok,
        f"r=1 residual={r1:.2e} (tol 1e-10), d=2 residual={r2:.2e} (tol 1e-6)",
    )


def criterion_7(quick=False) -> CriterionResult:
    """Operator checks: hypergeometric ODE, rank-1 eigenrelations, Euler."""
    t0 = time.perf_counter()
    m_ode = 5 if quick else 10
    m_rank1 = 4 if quick else 8
    worst_ode = worst_r1 = 0.0
    for alpha in (1.3, 2.0, 3.5):
        for nu in (0.0, 0.7, -0.7):
            for m in range(m_ode + 1):
                worst_ode = max(worst_ode, mcj.ode_residual_onevar(m, alpha, nu))
            for m in range(m_rank1 + 1):
                r1, r2 = mcj.rank1_operator_residuals(m, alpha, nu)
                worst_r1 = max(worst_r1, r1, r2)
    euler_ok = True
    for d in (Fraction(1, 2), 1, 2, 3):
        for r in (2, 3):
            for m in enumerate_partitions(3 if quick else 5, r):
                if mcj.euler_residual(m, ParamSet(r=r, d=d)) != 0:
                    euler_ok = False
    ok = worst_ode < 1e-12 and worst_r1 < 1e-11 and euler_ok
    return _result(
        7,
        "operator checks",
        t0,
        ok,
        f"ode={worst_ode:.1e} (tol 1e-12) rank1={worst_r1:.1e} (tol 1e-11) "
        f"euler {'exact' if euler_ok else 'BROKEN'}",
    )


def criterion_8(quick=False) -> CriterionResult:
    """Exact combinatorial layer, all equalities exact."""
    t0 = time.perf_counter()
    max_w = 4 if quick else 5
    ranks = (1, 2) if quick else (1, 2, 3)
    checks = failed = 0
    for r in ranks:
        for m in enumerate_partitions(max_w, r):
            # Jack at d=2 is Schur, and spherical value at ones is 1
            failed += jack_mono(m, 2, r) != schur(m, r)
            checks += 1
            for d in (Fraction(1, 2), 1, 2, 3, Fraction(5, 2)):
                p = ParamSet(r=r, d=d)
                failed += spherical_poly(m, d, r).eval_at_ones() != 1
                failed += coeffs.jack_at_ones(m, p) != jack_mono(m, d, r).eval_at_ones()
                checks += 2
        pd = ParamSet(r=r, d=Fraction(5, 2))
        for m in enumerate_partitions(max_w, r):
            row_sum = Fraction(0)
            for k in enumerate_partitions(weight(m), r):
                b = coeffs.gen_binom(m, k, pd)
                if not contains(m, k):
                    failed += b != 0
                row_sum += b
            failed += row_sum != 2 ** weight(m)
            checks += 1
        for x in enumerate_partitions(4, r):
            for k in enumerate_partitions(4, r):
                failed += coeffs.gamma_k_partition(k, x, pd) < 0
                checks += 1
    detail = f"{checks} exact checks" + (f", {failed} failed" if failed else "")
    return _result(8, "exact combinatorial layer", t0, not failed, detail)


def criterion_9(quick=False) -> CriterionResult:
    """Meixner-Pollaczek bridge at rank 1."""
    t0 = time.perf_counter()
    rng = _rng(9)
    worst = 0.0
    for _ in range(10):
        m = int(rng.integers(0, 7))
        alpha = float(rng.uniform(0.5, 4.0))
        nu = float(rng.uniform(-1.0, 1.0))
        th = float(rng.uniform(0.0, 2 * math.pi))
        v1 = mcj.cj1_eval(m, alpha, nu, cmath.exp(1j * th))
        v2 = cmath.exp(1j * m * th / 2) * mcj.mp1_eval(m, alpha / 2, nu - 0.5j, -th / 2)
        worst = max(worst, abs(v1 - v2) / (1 + abs(v1)))
    ok = worst <= 1e-12
    return _result(
        9, "Meixner-Pollaczek relation", t0, ok, f"rel residual={worst:.2e} (tol 1e-12)"
    )


def criterion_10(quick=False) -> CriterionResult:
    """Spherical Taylor expansions, truncation at N = 14."""
    t0 = time.perf_counter()
    N = 14
    rng = _rng(10)
    worst = 0.0
    cases = []
    for r in (1, 2):
        p = ParamSet(r=r, d=Fraction(5, 2) if r == 2 else 2)
        for k in enumerate_partitions(3, r):
            if weight(k) == 0 or weight(k) > 3:
                continue
            cases.append((p, k))
        cases.append((p, (0,) * r))
    for p, k in cases[: 6 if quick else len(cases)]:
        w_pt = [
            complex(rng.uniform(-0.12, 0.12), rng.uniform(-0.05, 0.05))
            for _ in range(p.r)
        ]
        for alpha in (2.5, None):
            worst = max(
                worst, coeffs.spherical_taylor_residual(k, p, w_pt, N, alpha=alpha)
            )
    ok = worst <= 1e-8
    return _result(
        10, "spherical Taylor expansions", t0, ok, f"residual={worst:.2e} (tol 1e-8)"
    )


ALL_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
]


def run_all(quick: bool = False) -> list:
    return [fn(quick=quick) for fn in ALL_CRITERIA]
