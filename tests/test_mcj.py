import cmath
import math
import re
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, roots_genlaguerre

import fraction_oracle as oracle
import identity_oracle
import qcomplex_oracle as qc
import mcjacobi.coeffs as coeffs
import mcjacobi.mcj as mcj
from mcjacobi import acceptance
from mcjacobi.cli import _params, build_parser, run
from mcjacobi.coeffs import dim_dm, gen_pochhammer, spherical_taylor_residual
from mcjacobi.errors import ParameterError, VandermondeZeroError
from mcjacobi.mcj import (
    cauchy_kernel_det,
    cauchy_kernel_series,
    cj1_eval,
    det_eval_phi,
    det_eval_psi,
    euler_residual,
    genfun_residual_phi,
    genfun_residual_psi,
    hciz_det,
    laguerre_build,
    laguerre_genfun_residual,
    mcj_build,
    mp1_eval,
    ode_residual_onevar,
    psi_eval,
    psi_tilde_eval,
    rank1_operator_residuals,
)
from mcjacobi.params import ParamSet
from mcjacobi.partitions import contains, enumerate_partitions, pad, weight
from mcjacobi.sympoly import CSymPoly, SymPoly, spherical_poly

RNG = np.random.Generator(np.random.Philox(key=20250810))


# ---------------------------------------------------------------- mcj_build


def test_mcj_empty_is_one():
    p = ParamSet(r=2, d=Fraction(5, 2), alpha=3, nu=0.4)
    poly = mcj_build((0, 0), p)
    assert poly.body == CSymPoly(2, {(0, 0): 1})
    assert poly.degree == 0


def test_mcj_rank1_flat_case():
    p = ParamSet(r=1, d=2, alpha=1, nu=0)
    for m in range(5):
        poly = mcj_build((m,), p)
        assert poly.body == CSymPoly(1, {(m,): 1})  # sigma^m


def test_mcj_build_cache_keeps_exact_and_float_alpha_apart():
    # 4.0 == 4, but only the exact alpha gives an exact body, so a float
    # build cached first must not be handed out for the exact one
    exact = ParamSet(r=2, d=Fraction(7, 3), alpha=4, nu=0)
    floated = exact.with_(alpha=4.0)
    assert floated != exact
    assert mcj_build((2, 1), floated).body_exact is None
    poly = mcj_build((2, 1), exact)
    assert poly.body_exact is not None
    assert poly.params.alpha_is_exact


def test_family_caches_bounded_and_rebuild_bitwise():
    # past the bound the first entry is evicted, rebuilds to the same bits,
    # and an exact alpha still gets an entry apart from the equal float alpha
    exact = ParamSet(r=2, d=Fraction(7, 3), alpha=5, nu=0)
    floated = exact.with_(alpha=5.0)
    for build in (mcj_build, laguerre_build):
        bound = build.cache_info().maxsize
        assert bound is not None
        first = build((2, 1), exact)
        reprs = repr(first.body.terms), repr(getattr(first, "body_exact", None))
        for i in range(bound + 5):
            build((1,), ParamSet(r=1, d=2, alpha=3 + Fraction(i, 7), nu=0.1))
        assert build.cache_info().currsize <= bound
        again = build((2, 1), exact)
        assert again is not first
        assert (repr(again.body.terms), repr(getattr(again, "body_exact", None))) == reprs
        assert build((2, 1), floated) is not build((2, 1), exact)
        assert build((2, 1), floated).params.alpha_is_exact is False
        assert build.cache_info().currsize <= bound
    assert mcj_build((2, 1), floated).body_exact is None
    assert mcj_build((2, 1), exact).body_exact is not None


def test_mcj_degree():
    p = ParamSet(r=2, d=1, alpha=2.2, nu=0.3)
    for m in enumerate_partitions(4, 2):
        assert mcj_build(m, p).degree == weight(m)
        assert mcj_build(m, p).body.degree() == weight(m)


@pytest.mark.parametrize("d", [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)])
def test_mcj_degeneration_exact(d):
    base = ParamSet(r=2, d=d)
    p = base.with_(alpha=base.n_over_r, nu=0)
    for m in enumerate_partitions(5, 2):
        poly = mcj_build(m, p)
        target = spherical_poly(m, d, 2).scale(dim_dm(m, p))
        assert poly.body_exact == target


def test_mcj_conjugation_symmetry():
    p_plus = ParamSet(r=2, d=2, alpha=2.7, nu=0.6)
    p_minus = p_plus.with_(nu=-0.6)
    for m in enumerate_partitions(3, 2):
        t_plus = mcj_build(m, p_plus).body.terms
        t_minus = mcj_build(m, p_minus).body.terms
        assert set(t_plus) == set(t_minus)
        for k, v in t_plus.items():
            assert abs(t_minus[k] - v.conjugate()) <= 1e-13 * (1 + abs(v))


def test_mcj_zero_divisor_guard():
    p = ParamSet(r=1, d=2, alpha=-1, nu=0.2)
    with pytest.raises(ParameterError):
        mcj_build((2,), p)
    with pytest.raises(ParameterError):
        laguerre_build((2,), p)
    with pytest.raises(ParameterError):
        psi_eval((2,), p, [0.3])
    # alpha - (d/2)(2) + 1 is exactly 0 here but not in floating point
    with pytest.raises(ParameterError):
        mcj_build((2, 2, 2), ParamSet(r=3, d=Fraction(7, 3), alpha=Fraction(4, 3), nu=0))


def test_mcj_equals_cj1_at_rank_one():
    p = ParamSet(r=1, d=2, alpha=2.3, nu=0.7)
    for m in range(6):
        for th in (0.4, 2.2, 5.1):
            sigma = cmath.exp(1j * th)
            v1 = mcj_build((m,), p).evaluate([sigma])
            v2 = cj1_eval(m, 2.3, 0.7, sigma)
            assert abs(v1 - v2) <= 1e-12 * (1 + abs(v2))


# ---------------------------------------------------------------- family kernel


def _family_body_loop(m, params, *, beta, shifted, exact):
    """The family kernel before its factor tables, rebuilding every factor for
    every (m, k) from the frozen Fraction routines: the oracle of
    ``mcj._family_body``."""
    r = params.r
    mm = pad(m, r)
    mcj._check_poch_nonzero(mm, params)
    if exact:
        scalar, poch = Fraction, oracle.gen_pochhammer
        alpha = Fraction(params.alpha)
        beta_arg = (alpha + params.n_over_r) / 2
    else:
        scalar, poch = complex, coeffs._poch_complex
        alpha = complex(float(params.alpha))
        beta_arg = 0.5 * (alpha + float(params.n_over_r)) + 1j * float(params.nu)
    pref = (
        scalar(oracle.dim_dm(mm, params))
        * poch(alpha, mm, params)
        / scalar(oracle.gen_pochhammer(params.n_over_r, mm, params))
    )
    terms: dict = {}
    for k in enumerate_partitions(weight(mm), r):
        if not contains(mm, k):
            continue
        b = oracle.gen_binom(mm, k, params)
        if b == 0:
            continue
        coef = pref * (-1) ** weight(k) * scalar(b)
        if beta:
            coef = coef * poch(beta_arg, k, params)
        coef = coef / poch(alpha, k, params)
        if shifted:
            phi = oracle._phi_one_minus(k, params.d, r)
        else:
            phi = oracle.spherical_poly(k, params.d, r).terms
        for lam, c in phi.items():
            v = terms.get(lam, 0) + scalar(c) * coef
            if v == 0:
                terms.pop(lam, None)
            else:
                terms[lam] = v
    if exact:  # the complex twin and the exact body, as the kernel returns them
        return SymPoly(r, terms).to_complex(), SymPoly(r, terms)
    return CSymPoly(r, terms)


KERNEL_WEIGHT = {1: 8, 2: 5, 3: 4}
KERNEL_D = [Fraction(1), Fraction(2), Fraction(5, 2), Fraction(1, 3), Fraction(17, 3)]
KERNEL_ALPHA_NU = [(a, nu) for a in (3, Fraction(7, 2), 4.25) for nu in (0, 0.3, -0.2529)]


def _kernel_bodies(kernel, params):
    """Reprs of the complex MCJ, Laguerre and Psi bodies, and of the exact MCJ
    body and its complex twin where alpha is exact and nu = 0, for every m up to
    KERNEL_WEIGHT."""
    out = []
    for m in enumerate_partitions(KERNEL_WEIGHT[params.r], params.r):
        for beta, shifted in ((True, True), (False, False), (True, False)):
            out.append(repr(kernel(m, params, beta=beta, shifted=shifted, exact=False).terms))
        if params.nu == 0 and params.alpha_is_exact:
            twin, exact = kernel(m, params, beta=True, shifted=True, exact=True)
            out += [repr(exact.terms), repr(twin.terms)]
    return out


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("d", KERNEL_D, ids=str)
def test_family_kernel_bitwise_equals_loop(r, d):
    for alpha, nu in KERNEL_ALPHA_NU:
        p = ParamSet(r=r, d=d, alpha=alpha, nu=nu)
        assert _kernel_bodies(mcj._family_body, p) == _kernel_bodies(_family_body_loop, p)


def test_family_kernel_independent_of_build_order():
    # the factor tables are shared across families and parameter sets: what
    # one build leaves in them must not leak into another's body
    a = ParamSet(r=3, d=Fraction(5, 2), alpha=Fraction(7, 2), nu=0.3)
    b, c = a.with_(nu=-0.2529), a.with_(nu=0)
    runs = []
    for order in ((a, b, c), (c, b, a)):
        for table in (mcj._m_table, mcj._k_table, mcj._phi_table):
            table.cache_clear()
        runs.append({p: _kernel_bodies(mcj._family_body, p) for p in order})
    assert runs[0] == runs[1]
    for table in (mcj._m_table, mcj._k_table, mcj._phi_table):
        assert table.cache_info().maxsize is not None


# ---------------------------------------------------------------- cj1_eval


def test_cj1_examples():
    assert cj1_eval(0, 1.7, 0.3, 0.2 + 0.4j) == 1
    # at sigma = 1 only the k = 0 term survives
    assert cj1_eval(3, 2.5, 0.4, 1.0) == pytest.approx(2.5 * 3.5 * 4.5 / 6)
    s = cmath.exp(1j * math.pi / 3)
    assert cj1_eval(1, 2, 0, s) == pytest.approx(2 - 1.5 * (1 - s))
    with pytest.raises(ParameterError):
        cj1_eval(3, -2, 0.0, 0.5)


# ---------------------------------------------------------------- Laguerre


def test_laguerre_examples():
    p = ParamSet(r=2, d=2, alpha=3, nu=0)
    assert laguerre_build((0, 0), p).body == CSymPoly(2, {(0, 0): 1})
    p1 = ParamSet(r=1, d=2, alpha=2.7, nu=0)
    assert laguerre_build((1,), p1).body == CSymPoly(1, {(0,): 2.7, (1,): -1})
    p2 = ParamSet(r=1, d=2, alpha=1, nu=0)
    assert laguerre_build((2,), p2).body == CSymPoly(1, {(0,): 1, (1,): -2, (2,): 0.5})


def test_laguerre_rank1_against_scipy():
    alpha = 2.4
    p = ParamSet(r=1, d=2, alpha=alpha, nu=0)
    for m in range(7):
        poly = laguerre_build((m,), p)
        for x in (0.0, 0.7, 3.1):
            assert poly.eval_poly([x]) == pytest.approx(
                eval_genlaguerre(m, alpha - 1, x), rel=1e-12, abs=1e-12
            )


def test_laguerre_rank1_norms():
    # ||psi_m||^2 = (alpha)_m / m! under (2^alpha/Gamma(alpha)) u^{alpha-1} du
    alpha = 1.9
    p = ParamSet(r=1, d=2, alpha=alpha, nu=0)
    nodes, wts = roots_genlaguerre(80, alpha - 1)
    for m in range(5):
        poly = laguerre_build((m,), p)
        vals = np.array([poly.eval_poly([v]) for v in nodes])
        norm = float(np.sum(wts * np.abs(vals) ** 2)) / math.gamma(alpha)
        expect = float(gen_pochhammer(Fraction(alpha), (m,), p)) / math.factorial(m)
        assert norm == pytest.approx(expect, rel=1e-10)


def test_laguerre_generating_function():
    assert laguerre_genfun_residual(
        ParamSet(r=1, d=2, alpha=2.2, nu=0), [0.25], [0.7], 20
    ) <= 1e-8
    assert laguerre_genfun_residual(
        ParamSet(r=2, d=2, alpha=3, nu=0), [0.25, 0.1], [0.7, 0.3], 20
    ) <= 1e-8


# ---------------------------------------------------------------- Psi


def test_psi_rank1_closed_forms():
    p = ParamSet(r=1, d=2, alpha=1.8, nu=0.3)
    for t in (0.0, 0.77, -2.4):
        expect = (1 - 1j * t) ** (-(1.8 + 1) / 2 - 0.3j)
        assert psi_eval((0,), p, [t]) == pytest.approx(expect, rel=1e-14)
    p1 = ParamSet(r=1, d=2, alpha=1, nu=0)
    for t in (0.5, -1.3):
        expect = -(1 + 1j * t) * (1 - 1j * t) ** (-2)
        assert psi_eval((1,), p1, [t]) == pytest.approx(expect, rel=1e-13)


def test_psi_cayley_consistency():
    # prod_j ((1-sigma_j)/2)^{-beta} Psi(c(sigma)) with c(s) = i(1+s)/(1-s)
    # reproduces the torus family (the Delta-power prefactors cancel exactly)
    p = ParamSet(r=2, d=2, alpha=2.6, nu=0.45)
    beta = 0.5 * (2.6 + 2) + 0.45j
    for m in enumerate_partitions(3, 2):
        poly = mcj_build(m, p)
        for _ in range(10):
            th = RNG.uniform(0.3, 2 * math.pi - 0.3, size=2)
            sigma = [cmath.exp(1j * x) for x in th]
            cayley = [1j * (1 + s) / (1 - s) for s in sigma]
            pref = 1.0 + 0j
            for s in sigma:
                pref *= ((1 - s) / 2) ** (-beta)
            lhs = pref * psi_eval(m, p, cayley)
            rhs = poly.evaluate(sigma)
            assert abs(lhs - rhs) <= 1e-11 * (1 + abs(rhs))
            # equivalently, the finite sum at w = 1 - sigma is the polynomial itself
            direct = psi_tilde_eval(m, p, [1 - s for s in sigma])
            assert abs(direct - rhs) <= 1e-12 * (1 + abs(rhs))


def test_psi_body_memoized_and_bitwise_equal():
    # one Psi body per (padded m, params), bounded, and the values of a fresh build
    p = ParamSet(r=2, d=Fraction(5, 2), alpha=4.5, nu=0.3)
    w = [0.4 - 0.2j, 1.1 + 0.3j]
    assert mcj._psi_body.cache_info().maxsize is not None
    fresh = mcj._family_body((2, 1), p, beta=True, shifted=False, exact=False)
    before = mcj._psi_body.cache_info()
    assert psi_tilde_eval((2, 1), p, w) == fresh.evaluate(w)
    assert psi_tilde_eval([2, 1, 0], p, w) == fresh.evaluate(w)  # same padded key
    after = mcj._psi_body.cache_info()
    assert after.hits - before.hits >= 1
    assert after.currsize <= after.maxsize


def test_psi_function_span_matches_eval():
    # rank-1 Psi is the span sum_k c_k (1 - i t)^{-(beta + k)} of the exact
    # coefficients the operator checks read
    q, A, b_re, N = mcj._lift(1.8, 0.3)
    den, terms = mcj._rank1_coeffs(4, q, A, (b_re, N), 2)
    b = complex(b_re / q, N / q)
    p = ParamSet(r=1, d=2, alpha=1.8, nu=0.3)
    for t in (0.3, -0.9, 2.2):
        span = 0j
        for k, (x, y) in enumerate(terms):
            span += complex(x / den, y / den) * (1 - 1j * t) ** (-(b + k))
        assert span == pytest.approx(psi_eval((4,), p, [t]), rel=1e-12)


def test_beta_equals_both_float_forms_bitwise():
    # the complex beta of ``ParamSet`` replaced two spellings: from
    # complex(float(alpha)) in the family's factor table, from floats elsewhere
    rng = np.random.Generator(np.random.Philox(key=25))
    cases = [(1, 2, 3, 0.0), (1, 2, 3, -0.0), (2, Fraction(5, 2), Fraction(7, 2), -0.0),
             (3, Fraction(1, 3), -2, 0.3), (2, 1, -1.5, -0.0), (1, 2, -1, 0.0)]
    for _ in range(2000):
        alpha = [int(rng.integers(-20, 20)), Fraction(int(rng.integers(-99, 99)), 7),
                 float(rng.uniform(-1e3, 1e3))][int(rng.integers(0, 3))]
        nu = [0.0, -0.0, float(rng.uniform(-50, 50))][int(rng.integers(0, 3))]
        d = Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 9)))
        cases.append((int(rng.integers(1, 7)), d, alpha, nu))
    for r, d, alpha, nu in cases:
        p = ParamSet(r=r, d=d, alpha=alpha, nu=nu)
        table = 0.5 * (complex(float(p.alpha)) + float(p.n_over_r)) + 1j * float(p.nu)
        floats = 0.5 * (float(p.alpha) + float(p.n_over_r)) + 1j * float(p.nu)
        for old in (table, floats):
            assert (p.beta.real.hex(), p.beta.imag.hex()) == (old.real.hex(), old.imag.hex())


# ---------------------------------------------------------------- determinants


def test_det_phi_rank1_reduces_to_cj1():
    p = ParamSet(r=1, d=2, alpha=2.4, nu=0.3)
    sigma = cmath.exp(0.8j)
    assert det_eval_phi((3,), p, [sigma]) == pytest.approx(
        cj1_eval(3, 2.4, 0.3, sigma), rel=1e-13
    )


def test_det_phi_empty_partition_is_one():
    p = ParamSet(r=2, d=2, alpha=3, nu=0.4)
    for th in ([0.9, 2.7], [1.4, 5.2]):
        sigma = [cmath.exp(1j * x) for x in th]
        assert det_eval_phi((0, 0), p, sigma) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("r", [2, 3])
def test_det_formulas_match_definitions(r):
    p = ParamSet(r=r, d=2, alpha=3.5, nu=0.4)
    for m in enumerate_partitions(4, r):
        poly = mcj_build(m, p)
        for _ in range(6):
            th = np.sort(RNG.uniform(0.2, 2 * math.pi - 0.2, size=r))
            if r > 1 and np.min(np.diff(th)) < 0.3:
                continue
            sigma = [cmath.exp(1j * x) for x in th]
            v1, v2 = det_eval_phi(m, p, sigma), poly.evaluate(sigma)
            assert abs(v1 - v2) <= 1e-9 * (1 + abs(v2))
            t = list(np.tan((th - math.pi) / 2))
            v1, v2 = det_eval_psi(m, p, t), psi_eval(m, p, t)
            assert abs(v1 - v2) <= 1e-9 * (1 + abs(v2))


def test_det_coincident_points_rejected():
    p = ParamSet(r=2, d=2, alpha=3, nu=0)
    with pytest.raises(VandermondeZeroError):
        det_eval_phi((1, 0), p, [1j, 1j])
    with pytest.raises(VandermondeZeroError):
        det_eval_psi((1, 0), p, [0.4, 0.4])
    with pytest.raises(ParameterError):
        det_eval_phi((1, 0), ParamSet(r=2, d=1, alpha=3, nu=0), [1j, -1j])
    # the exponential kernel refuses them too, for lists and arrays alike
    for same in ([0.3, 0.3], np.array([0.3, 0.3])):
        with pytest.raises(VandermondeZeroError, match="coincident x values"):
            hciz_det(same, [0.1, 0.2])
        with pytest.raises(VandermondeZeroError, match="coincident y values"):
            hciz_det([0.1, 0.2], same)
    with pytest.raises(VandermondeZeroError, match="coincident y values"):
        laguerre_genfun_residual(ParamSet(r=2, d=2, alpha=3, nu=0), [0.1, 0.1], [0.5, 1.5], 2)


def test_det_refuses_points_and_delta_factorial_past_double_range():
    # distinct points whose 435 differences of 1e-5 or more multiply to 0
    x = [1e-5 * j for j in range(30)]
    with pytest.raises(VandermondeZeroError, match="product of x is past the double"):
        hciz_det(x, [0.1 * j for j in range(30)])
    # neither product alone leaves the double range, only the two together
    x, y = [0.01 * j for j in range(16)], [0.01j * j for j in range(16)]
    assert mcj._vandermonde(x) != 0 != mcj._vandermonde(y)
    with pytest.raises(VandermondeZeroError, match="product of x and y is past the double"):
        hciz_det(x, y)

    def phi_at(r):  # r equally spaced points on the circle
        sigma = [cmath.exp(2j * math.pi * j / r) for j in range(r)]
        return det_eval_phi((0,) * r, ParamSet(r=r, d=2, alpha=30, nu=0), sigma)

    # delta! first leaves the double range at r = 28
    assert cmath.isfinite(phi_at(27))
    with pytest.raises(ParameterError, match="needs delta! at r = 28 as a float, past"):
        phi_at(28)


def test_cauchy_fallback_refused_unless_its_shell_is_small():
    # the weight-30 shell |S_30 - S_29| / |S_30| is 2.3e-11 at a = 0.6 and
    # 9.5e-8 at a = 0.7 for (a, a) against (a, a/2): the first is summed, the
    # second refused, as is the point where the sum is 42% off the limit
    w, z = [0.6, 0.6], [0.6, 0.3]
    assert cauchy_kernel_det(w, z, 3) == cauchy_kernel_series(w, z, 3, 2, 30)
    for w, z in (([0.7, 0.7], [0.7, 0.35]), ([0.95, 0.95], [0.95, 0.5])):
        with pytest.raises(VandermondeZeroError, match="coincident w entries .* weight-30 shell"):
            cauchy_kernel_det(w, z, 3)
    # the refusals name the coincident vectors as the caller does
    with pytest.raises(VandermondeZeroError, match=r"coincident a \(--a\) and b \(--b\) entries"):
        cauchy_kernel_det([0.7, 0.7], [0.7, 0.7], 3, ("a (--a)", "b (--b)"))
    with pytest.raises(ParameterError, match=r"coincident b \(--b\) entries need it"):
        cauchy_kernel_det([0.1, 0.2, 0.3], [0.4, 0.4, 0.1], 3, ("a (--a)", "b (--b)"))


# ---------------------------------------------------------------- Cauchy kernel


def test_cauchy_kernel():
    assert cauchy_kernel_det([0.3], [0.2], 3.3) == pytest.approx((1 - 0.06) ** -3.3)
    assert cauchy_kernel_det([0.3, 0.1], [0.0, 0.0], 3) == pytest.approx(1.0, abs=1e-12)
    ck = cauchy_kernel_det([0.3, 0.1], [0.2, -0.25], 3)
    cs = cauchy_kernel_series([0.3, 0.1], [0.2, -0.25], 3, 2, 20)
    assert abs(ck - cs) <= 1e-9
    beta = 2.4 + 0.7j
    ck = cauchy_kernel_det([0.35, -0.2], [0.15, 0.3], beta)
    cs = cauchy_kernel_series([0.35, -0.2], [0.15, 0.3], beta, 2, 24)
    assert abs(ck - cs) <= 1e-9 * (1 + abs(ck))


# ---------------------------------------------------------------- generating functions


def test_genfun_zero_argument():
    p = ParamSet(r=1, d=2, alpha=2, nu=0.5)
    assert genfun_residual_phi(p, [0.0], [cmath.exp(1.1j)], 0) <= 1e-14
    assert genfun_residual_psi(p, [0.0], [0.8], 0) <= 1e-14
    p2 = ParamSet(r=2, d=2, alpha=3, nu=0.2)
    sigma = [cmath.exp(0.7j), cmath.exp(2.6j)]
    assert genfun_residual_phi(p2, [0.0, 0.0], sigma, 0) <= 1e-12


def test_genfun_phi_rank1():
    p = ParamSet(r=1, d=2, alpha=2, nu=0.5)
    assert genfun_residual_phi(p, [0.2], [cmath.exp(0.9j)], 30) < 1e-10


def test_genfun_phi_rank2_determinant():
    p = ParamSet(r=2, d=2, alpha=3, nu=0.2)
    sigma = [cmath.exp(0.7j), cmath.exp(2.6j)]
    assert genfun_residual_phi(p, [0.15, 0.05], sigma, 10) < 1e-6


def test_genfun_psi():
    assert genfun_residual_psi(ParamSet(r=1, d=2, alpha=1.5, nu=0), [0.25], [0.8], 30) < 1e-10
    assert genfun_residual_psi(
        ParamSet(r=2, d=2, alpha=3, nu=0), [0.1, 0.05], [0.3, -0.2], 10
    ) < 1e-6


def test_genfun_spectral_bound_enforced():
    p = ParamSet(r=1, d=2, alpha=2, nu=0)
    with pytest.raises(ParameterError):
        genfun_residual_phi(p, [0.4], [1j], 5)
    with pytest.raises(ParameterError):
        genfun_residual_phi(ParamSet(r=2, d=1, alpha=3, nu=0), [0.1, 0.1], [1j, -1j], 5)


@pytest.mark.parametrize(
    "call, symbol",
    [
        (lambda: det_eval_phi((0, 0), ParamSet(r=2, d=2, alpha=0, nu=0), [1j, -1j]),
         "((alpha - r)/2 + i nu + 1)_1"),
        (lambda: cauchy_kernel_det([0.3, 0.1], [0.2, -0.25], 1), "(beta - r + 1)_1"),
        (lambda: genfun_residual_psi(ParamSet(r=3, d=2, alpha=1, nu=0), [0.1, 0.05, 0.02],
                                     [0.1, 0.2, 0.4], 1), "((alpha - r)/2 + 1 + i nu)_1"),
    ],
)
def test_vanishing_det_prefactor_refused(call, symbol):
    with pytest.raises(ParameterError, match=re.escape(f"divides by {symbol}, which is 0")):
        call()


@pytest.mark.parametrize(
    "call, factor",
    [
        (lambda: genfun_residual_psi(ParamSet(r=1, d=2, alpha=10**6), [0.2], [0.0], 5),
         "(1 - z)^(-alpha)"),
        (lambda: genfun_residual_psi(ParamSet(r=2, d=2, alpha=10**6), [0.2, 0.1], [0.0, 0.5], 2),
         "(1 - z)^(-(alpha - r + 1))"),
        (lambda: laguerre_genfun_residual(ParamSet(r=1, d=2, alpha=10**6), [0.2], [0.8], 5),
         "(1 - z)^(-alpha)"),
    ],
)
def test_closed_form_power_past_double_range_names_its_factor(call, factor):
    # each ended in a bare "OverflowError: complex exponentiation"
    with pytest.raises(ParameterError, match=re.escape(
        f"the factor {factor} of the closed form is past the double range"
    )):
        call()


@pytest.mark.parametrize(
    "call, factor, remedy",
    [
        (lambda: spherical_taylor_residual((1,), ParamSet(r=1, d=2), [0.5], 3, alpha=1e6),
         "(1 - w)^(-alpha) of the spherical Taylor expansion", "|alpha|"),
        (lambda: cauchy_kernel_det([0.5, 0.1], [0.9, 0.3], 1e6),
         "(1 - w_p z_q)^(-(beta - r + 1)) of the Cauchy kernel at w and z", "|beta|"),
    ],
)
def test_kernel_power_past_double_range_names_its_factor(call, factor, remedy):
    # each ended in a bare "OverflowError: complex exponentiation"; the remedy names
    # the argument that overflowed, not a ParamSet's |nu| or alpha
    with pytest.raises(ParameterError) as refused:
        call()
    assert str(refused.value) == (
        f"the factor {factor} is past the double range; use a smaller {remedy}"
    )


# ---------------------------------------------------------------- frozen assemblies
#
# ``identity_oracle`` holds the determinant formulas, kernels and generating-
# function residuals as five hand-rolled determinant assemblies and three
# hand-rolled truncated sums.  The live ones must agree bit for bit and raise
# the same exceptions with the same messages, except that they refuse, on
# purpose, a prefactor these divide by zero in, the r >= 3 series fallback,
# and coincident points of the exponential kernel, which these divide by zero
# by; that coincident Cauchy entries outside the series domain are refused
# by the one determinant assembly, with its message; and that the generating-
# function residuals name their vectors by the command-line inputs.


def _outcome(fn, *args):
    try:
        return np.complex128(fn(*args)).tobytes()
    except Exception as exc:  # the comparison covers every exception
        return type(exc), str(exc)


def _identity_cases():
    rng = np.random.Generator(np.random.Philox(key=20))

    def circle(r):
        return [cmath.exp(1j * float(x)) for x in np.sort(rng.uniform(0.2, 6.0, size=r))]

    def small(r, scale):
        return [complex(*rng.uniform(-scale, scale, size=2)) for _ in range(r)]

    for r in (1, 2, 3):
        for d, alpha, nu in [(2, r - 2, 0), (2, r - 1, 0), (2, r - 1, 0.3), (2, r + 0.5, 0.3),
                             (2, 3.3, 0), (2, 1, 0), (3, 4, 0.3)]:
            p = ParamSet(r=r, d=d, alpha=alpha, nu=nu)
            for coincide in (False, True):
                for m in enumerate_partitions(2, r):
                    sigma, t = circle(r), [float(x) for x in np.sort(rng.uniform(-2, 2, size=r))]
                    if coincide and r > 1:
                        sigma[1], t[1] = sigma[0], t[0]
                    yield "det_eval_phi", (m, p, sigma)
                    yield "det_eval_psi", (m, p, t)
                for N in (0, 1, 3):
                    z, sigma = small(r, 0.25), circle(r)
                    t = [float(x) for x in np.sort(rng.uniform(-2, 2, size=r))]
                    u = [float(x) for x in rng.uniform(0, 2, size=r)]
                    if coincide and r > 1:
                        z[1], sigma[1], t[1], u[1] = z[0], sigma[0], t[0], u[0]
                    yield "genfun_residual_phi", (p, z, sigma, N)
                    yield "genfun_residual_psi", (p, z, t, N)
                    yield "laguerre_genfun_residual", (p, z, u, N)
                    # sigma is read after the domain check, and not a number
                    yield "genfun_residual_phi", (p, [0.5] * r, ["x"] * r, N)
                    yield "genfun_residual_phi", (p, z, [None] * r, N)
        for beta in (r - 1, r - 1.5, 2.5 + 0.4j, 0):
            for case in range(6):
                w, z = small(r, 0.6), small(r, 0.6)
                if case == 1:
                    z = [0j] * r  # the constant term alone
                elif case == 2 and r > 1:
                    w[1] = w[0]  # the series fallback inside its domain
                elif case == 3 and r > 1:
                    w[0] = w[1] = 2.0  # coincident outside it
                elif case == 4:
                    w[0], z[0] = 2.0, 0.5  # a branch pole
                elif case == 5:
                    yield "cauchy_kernel_series", (w, z, beta, 2, 5)
                    yield "cauchy_kernel_series", (w, z, beta, 3, 3)
                yield "cauchy_kernel_det", (w, z, beta)
        for case in range(3):
            x, y = small(r, 1.5), small(r, 1.5)
            if case == 1 and r > 1:
                x[1] = x[0]
            elif case == 2:
                y = [0j] * r
            yield "hciz_det", (x, y)


# the generating-function residuals name the vectors of their determinants by
# the command-line inputs they come from; the frozen copy by the kernel's own
_FLAGGED = {"1 - sigma (--theta)": "w", "-z/(1 - z) (--z)": "z", "z (--z)": "z", "t (--t)": "t"}


def test_identities_bitwise_equal_frozen_assemblies():
    counts = {"value": 0, "error": 0, "refused prefactor": 0, "refused fallback": 0,
              "refused coincident": 0, "coincident message": 0, "flag named": 0}
    for name, args in _identity_cases():
        live = _outcome(getattr(mcj, name), *args)
        if isinstance(live, tuple) and name.startswith("genfun_residual_"):
            message = live[1]
            for new, old in _FLAGGED.items():
                message = message.replace(f" {new} ", f" {old} ")
            if message != live[1]:
                counts["flag named"] += 1
                live = (live[0], message)
        if isinstance(live, tuple) and "N = 30 sums over more than" in live[1]:
            # the r >= 3 fallback, which the frozen copy sums for seconds
            r = len(args[0]) if name == "cauchy_kernel_det" else args[0].r
            assert live[0] is ParameterError and r >= 3
            counts["refused fallback"] += 1
            continue
        frozen = _outcome(getattr(identity_oracle, name), *args)
        if isinstance(frozen, tuple) and frozen[0] is ZeroDivisionError and (
            isinstance(live, tuple) and "determinant prefactor divides by" in live[1]
        ):
            assert live[0] is ParameterError
            counts["refused prefactor"] += 1
            continue
        if isinstance(frozen, tuple) and live != frozen:
            kind = {ZeroDivisionError: "refused coincident",
                    VandermondeZeroError: "coincident message"}[frozen[0]]
            assert name in ("hciz_det", "laguerre_genfun_residual") or (
                frozen[1] == "coincident entries outside the series domain"
            ), (name, args)
            assert live[0] is VandermondeZeroError and live[1].startswith("coincident ")
            counts[kind] += 1
            continue
        assert live == frozen, (name, args)
        counts["error" if isinstance(live, tuple) else "value"] += 1
    # the grid reaches every branch
    assert all(n >= 5 for n in counts.values()), counts
    # 25 through laguerre_genfun_residual, 4 from hciz_det; 21 through
    # genfun_residual_phi, 8 from cauchy_kernel_det
    assert counts["refused coincident"] == counts["coincident message"] == 29, counts


# ``verify-det`` and criterion 5 each compared the determinant formulas with
# the direct definitions by hand; both now call ``mcj.worst_det_residual``,
# whose values must be the frozen loops' bit for bit


def _spy_det_driver(monkeypatch) -> list:
    seen = []
    live = mcj.worst_det_residual

    def spy(*args):
        seen.append(live(*args))
        return seen[-1]

    monkeypatch.setattr(mcj, "worst_det_residual", spy)
    return seen


@pytest.mark.parametrize("argv, code", [
    ("--r 2 --alpha 3.5 --nu 0.4", 0),
    ("--r 3 --alpha 5 --nu 0.4 --max-weight 3 --trials 7", 0),
    ("--r 3 --alpha 100000 --max-weight 8 --trials 2", 1),  # 1.377e-09, over 1e-9
    ("--r 1 --alpha 2.5 --nu -0.3 --max-weight 5 --trials 4", 0),
    ("--r 2 --alpha 7/2 --nu 0 --max-weight 3 --trials 5 --seed 3", 0),
])
def test_det_driver_equals_verify_det_loop(argv, code, monkeypatch, capsys):
    seen = _spy_det_driver(monkeypatch)
    args = build_parser().parse_args(["verify-det", *argv.split()])
    assert run(["verify-det", *argv.split()]) == code
    worst, checked = identity_oracle.verify_det_worst(
        _params(args), args.max_weight, args.trials, args.seed
    )
    assert checked > 0 and len(seen) == len(enumerate_partitions(args.max_weight, args.r))
    assert max(seen).hex() == worst.hex()
    assert f"rel residual {worst:.3e}" in capsys.readouterr().out


@pytest.mark.parametrize("quick", [True, False])
def test_det_driver_equals_criterion_5_loop(quick, monkeypatch):
    seen = _spy_det_driver(monkeypatch)
    result = acceptance.criterion_5(quick=quick)
    worst = identity_oracle.criterion_5_worst(quick)
    assert result.passed and max(seen).hex() == worst.hex()
    assert f"rel residual={worst:.2e}" in result.detail


def test_det_driver_refuses_non_finite_residual(monkeypatch):
    p = ParamSet(r=2, d=2, alpha=3.5, nu=0.4)
    sigmas = [[cmath.exp(0.5j), cmath.exp(2j)]]
    ts = [[0.25, -1.5]]
    assert mcj.worst_det_residual((1,), p, sigmas, ts) < 1e-12
    # max() would drop the NaN and report the finite residuals
    monkeypatch.setattr(mcj, "det_eval_psi", lambda *args: complex("nan"))
    with pytest.raises(ParameterError, match=r"m = \(1\) and t = \(0.25, -1.5\) is not finite"):
        mcj.worst_det_residual((1,), p, sigmas, ts)
    assert mcj.worst_det_residual((1,), p, sigmas, []) < 1e-12


# ---------------------------------------------------------------- operators


def test_ode_residuals():
    assert ode_residual_onevar(0, 2.0, 0.0) == 0.0
    assert ode_residual_onevar(1, 2.0, 0.7) <= 1e-13
    assert ode_residual_onevar(6, 1.3, -0.4) <= 1e-12
    for alpha in (1.3, 2.0, 3.5):
        for nu in (0.0, 0.7, -0.7):
            for m in range(11):
                assert ode_residual_onevar(m, alpha, nu) <= 1e-12


def test_rank1_operator_residuals():
    assert rank1_operator_residuals(0, 2.0, 0.3) == (0.0, 0.0)
    for alpha in (1.3, 1.5, 2.0, 3.5):
        for nu in (0.0, 0.7):
            for m in range(9):
                r1, r2 = rank1_operator_residuals(m, alpha, nu)
                assert r1 <= 1e-11 and r2 <= 1e-11


def test_rank1_antiderivative_guard():
    # alpha = 1, nu = 0 zeroes the pseudo-differential coefficient, so the
    # gamma = 1 exponent never needs an antiderivative
    assert rank1_operator_residuals(2, 1.0, 0.0) == (0.0, 0.0)


def test_euler_residual_exact_zero():
    assert euler_residual((), ParamSet(r=2, d=2)) == 0
    assert euler_residual((2, 1), ParamSet(r=2, d=2)) == 0
    assert euler_residual((3, 1, 1), ParamSet(r=3, d=Fraction(1, 2))) == 0
    for d in (Fraction(1, 2), 1, 2, 3):
        for m in enumerate_partitions(5, 2):
            assert euler_residual(m, ParamSet(r=2, d=d)) == 0


# ---------------------------------------------------------------- Meixner-Pollaczek


def test_mp1_examples():
    assert mp1_eval(0, 1.3, 0.4, 0.9) == 1
    assert abs(mp1_eval(1, 1, 0, math.pi / 2)) <= 1e-15


def test_mp1_circular_jacobi_bridge():
    for _ in range(10):
        m = int(RNG.integers(0, 7))
        alpha = float(RNG.uniform(0.5, 4.0))
        nu = float(RNG.uniform(-1.0, 1.0))
        th = float(RNG.uniform(0.0, 2 * math.pi))
        v1 = cj1_eval(m, alpha, nu, cmath.exp(1j * th))
        v2 = cmath.exp(1j * m * th / 2) * mp1_eval(m, alpha / 2, nu - 0.5j, -th / 2)
        assert abs(v1 - v2) <= 1e-12 * (1 + abs(v1))


# ---------------------------------------------------------------- rank-1 series
#
# Frozen copies of the hand-rolled loops that ``mcj._rank1_eval`` replaced:
# the oracles of its float bits.  The exact coefficient loops are in
# ``qcomplex_oracle``, now the oracles of ``mcj._rank1_coeffs``.


def _cj1_eval_loop(m, alpha, nu, sigma):
    for t in range(m):
        if alpha + t == 0:
            raise ParameterError(f"(alpha)_k vanishes at alpha = {alpha}, k = {t + 1}")
    b = 0.5 * (alpha + 1) + 1j * nu
    pref = 1.0
    for t in range(m):
        pref *= (alpha + t) / (t + 1)
    total = 0j
    num = 1.0 + 0j
    den = 1.0 + 0j
    one_minus = 1 - sigma
    power = 1.0 + 0j
    for k in range(m + 1):
        total += (-1) ** k * comb(m, k) * num / den * power
        num *= b + k
        den *= alpha + k
        power *= one_minus
    return pref * total


def _mp1_eval_loop(m, lam, s, phi_angle):
    pref = cmath.exp(1j * m * phi_angle)
    for t in range(m):
        pref *= (2 * lam + t) / (t + 1)
    base = lam + 1j * s
    x = 1 - cmath.exp(-2j * phi_angle)
    total = 0j
    num = 1.0 + 0j
    den = 1.0 + 0j
    power = 1.0 + 0j
    for k in range(m + 1):
        total += (-1) ** k * comb(m, k) * num / den * power
        num *= base + k
        den *= 2 * lam + k
        power *= x
    return pref * total


def _bits(values):
    return np.array(values, dtype=complex).tobytes()


def test_cj1_eval_bitwise_equals_loop():
    rng = np.random.Generator(np.random.Philox(key=11))
    live, frozen = [], []
    for _ in range(3000):
        m = int(rng.integers(0, 15))
        alpha = float(rng.uniform(-3.0, 6.0))
        nu = float(rng.uniform(-1.5, 1.5))
        if rng.random() < 0.5:
            sigma = cmath.exp(1j * float(rng.uniform(0.0, 2 * math.pi)))
        else:
            sigma = complex(*rng.normal(size=2))
        live.append(cj1_eval(m, alpha, nu, sigma))
        frozen.append(_cj1_eval_loop(m, alpha, nu, sigma))
    assert _bits(live) == _bits(frozen)


def test_mp1_eval_bitwise_equals_loop():
    rng = np.random.Generator(np.random.Philox(key=12))
    live, frozen = [], []
    for _ in range(3000):
        m = int(rng.integers(0, 15))
        lam = float(rng.uniform(0.1, 3.0))
        s = complex(float(rng.uniform(-1.5, 1.5)), float(rng.choice([0.0, -0.5])))
        phi = float(rng.uniform(-math.pi, math.pi))
        live.append(mp1_eval(m, lam, s, phi))
        frozen.append(_mp1_eval_loop(m, lam, s, phi))
    assert _bits(live) == _bits(frozen)


@pytest.mark.parametrize("alpha", [1.3, 2.0, 3.5])
@pytest.mark.parametrize("nu", [0.0, 0.7, -0.7])
def test_exact_rank1_coefficients_equal_loops(alpha, nu):
    q, A, b_re, N = mcj._lift(alpha, nu)
    for m in range(11):
        den, psi = mcj._rank1_coeffs(m, q, A, (b_re, N), 2)
        psi_qc = qc.psi_coeffs(m, alpha, nu).values()
        assert qc.fraction_pairs(den, psi) == qc.pairs(psi_qc)
        lag = qc.laguerre1_coeffs(m, Fraction(alpha))
        assert qc.fraction_pairs(*mcj._rank1_coeffs(m, q, A, None, 2)) == [(c, 0) for c in lag]
        ode = mcj._rank1_coeffs(m, q, A, (b_re, N), 1)
        assert qc.fraction_pairs(*ode) == qc.pairs(qc.ode_coeffs(m, alpha, nu))


def test_rank1_series_vanishing_denominator():
    # each of these divided by zero before the shared guard
    with pytest.raises(ParameterError):
        cj1_eval(3, -2.0, 0.3, 1j)
    with pytest.raises(ParameterError):
        mp1_eval(2, 0.0, 0.3, 0.4)
    q, A, b_re, N = mcj._lift(0.0, 0.2)
    with pytest.raises(ParameterError):
        mcj._rank1_coeffs(1, q, A, (b_re, N), 2)  # the Psi coefficients
    with pytest.raises(ParameterError):
        ode_residual_onevar(3, -2.0, 0.0)
    with pytest.raises(ParameterError):
        rank1_operator_residuals(1, 0.0, 0.0)
    # (c)_k with k < m never reaches c + m, and m = 0 has no denominator; at
    # x = 0 only (c)_m / m! = (-2)(-1)/2 = 1 is left
    assert cj1_eval(2, -2.0, 0.0, 1.0) == 1
    assert mp1_eval(2, -1.0, 0.0, 0.0) == 1
    assert ode_residual_onevar(0, 0.0, 0.0) == 0.0


def test_dim_factor_budget_bounds_the_rank():
    # d_m's factors at d = 2 and weight <= 1 fit 2^20 bits up to r = 436 (437 at
    # weight 0), so high ranks are refused before any work even where their
    # orbits are small; a long d's factors count their bits
    for r, m in [(436, (1,)), (437, ())]:
        mcj.check_family_work(ParamSet(r=r, d=2), m=m)
    for r, m in [(437, (1,)), (438, ()), (10**7, ())]:
        with pytest.raises(ParameterError, match="bits of factors, over the budget"):
            mcj.check_family_work(ParamSet(r=r, d=2), m=m)
    with pytest.raises(ParameterError, match="d_m out of"):
        mcj.check_family_work(ParamSet(r=20, d=Fraction(1, 10**2000)), m=())
