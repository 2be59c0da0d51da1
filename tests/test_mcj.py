import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, roots_genlaguerre

import mcjacobi.mcj as mcj
from mcjacobi.coeffs import dim_dm, gen_pochhammer
from mcjacobi.errors import ParameterError, VandermondeZeroError
from mcjacobi.mcj import (
    PsiFunction,
    cauchy_kernel_det,
    cauchy_kernel_series,
    cj1_eval,
    det_eval_phi,
    det_eval_psi,
    euler_residual,
    genfun_residual_phi,
    genfun_residual_psi,
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
from mcjacobi.partitions import enumerate_partitions, weight
from mcjacobi.sympoly import CSymPoly, spherical_poly

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
        # psi includes the exponential and the argument doubling
        u = 0.9
        assert poly.eval_psi([u]) == pytest.approx(
            math.exp(-u) * eval_genlaguerre(m, alpha - 1, 2 * u), rel=1e-12
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
    pf = PsiFunction.build(4, 1.8, 0.3)
    p = ParamSet(r=1, d=2, alpha=1.8, nu=0.3)
    for t in (0.3, -0.9, 2.2):
        assert pf.eval(t) == pytest.approx(psi_eval((4,), p, [t]), rel=1e-12)


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
