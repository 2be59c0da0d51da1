import cmath
import copy
import math
import pickle
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gamma as scipy_gamma

import identity_oracle
from quadrature_oracle import jack_norm_torus
import mcjacobi.coeffs as coeffs
import mcjacobi.mcj as mcj
from mcjacobi import acceptance
import mcjacobi.sympoly as sympoly
from mcjacobi.coeffs import (
    c0_tilde,
    dim_dm,
    expected_norm,
    gamma_k_partition,
    gamma_omega_log,
    gen_binom,
    gen_pochhammer,
    jack_at_ones,
    spherical_taylor_residual,
)
from mcjacobi.errors import GammaPoleError, InvariantError, ParameterError
from mcjacobi.params import ParamSet
from mcjacobi.partitions import conjugate, contains, enumerate_partitions, pad, trim, weight
from mcjacobi.sympoly import affine_substitute, jack_mono, schur, spherical_poly

P22 = ParamSet(r=2, d=2, alpha=3, nu=0.5)
PR1 = ParamSet(r=1, d=2)


def test_paramset_derived():
    p = ParamSet(r=3, d=Fraction(5, 2))
    assert p.n == 3 + Fraction(5, 4) * 3 * 2
    assert p.n == p.r + (p.d / 2) * p.r * (p.r - 1)
    assert p.n_over_r * p.r == p.n
    with pytest.raises(ValueError):
        ParamSet(r=0, d=1)
    with pytest.raises(ValueError):
        ParamSet(r=1, d=0)


def test_paramset_n_over_r_survives_copies():
    # n/r and d's integers are computed once, at construction, and travel with every copy
    for r, d in ((1, 2), (3, Fraction(5, 2)), (4, Fraction(10**20 + 1, 3 * 10**19))):
        p = ParamSet(r=r, d=d, alpha=Fraction(7, 2), nu=0.3)
        for q in (p, p.with_(nu=0), p.with_(r=r + 1), copy.copy(p), pickle.loads(pickle.dumps(p))):
            assert q.n_over_r == 1 + Fraction(d) / 2 * (q.r - 1)
            assert type(q.n_over_r) is Fraction and q.n_over_r * q.r == q.n
            assert (q.d_num, q.d_den) == (Fraction(d).numerator, Fraction(d).denominator)
            assert type(q.d_num) is int and type(q.d_den) is int
        q = p.with_(d=Fraction(14, 4))
        assert (q.d_num, q.d_den) == (7, 2) and q == ParamSet(r=r, d=3.5, alpha=Fraction(7, 2), nu=0.3)


def test_paramset_hash_is_computed_once(monkeypatch):
    a = ParamSet(r=3, d=Fraction(5, 2), alpha=Fraction(7, 2), nu=0.3)
    assert a == a.with_(nu=0.3) and hash(a) == hash(a.with_(nu=0.3)) == hash(a._key())
    assert a.with_(alpha=3) == a.with_(alpha=Fraction(6, 2))
    assert a.with_(alpha=3) != a.with_(alpha=3.0)  # an exact alpha builds exact bodies
    # the factor tables hash a ParamSet per lookup; it must not rehash its key
    calls = []
    key = ParamSet._key
    monkeypatch.setattr(ParamSet, "_key", lambda self: calls.append(1) or key(self))
    hash(a), hash(a)
    assert not calls


@pytest.mark.parametrize(
    "alpha,nu", [(3, math.inf), (3, math.nan), (math.inf, 0.0), (-math.inf, 0.5), (math.nan, 0)]
)
def test_paramset_rejects_non_finite(alpha, nu):
    with pytest.raises(ValueError, match="must be finite"):
        ParamSet(r=1, d=2, alpha=alpha, nu=nu)


def test_gen_pochhammer_examples():
    assert gen_pochhammer(3, (2,), ParamSet(r=1, d=1)) == 12
    assert gen_pochhammer(3, (1, 1), P22) == 6
    assert gen_pochhammer(5, (), P22) == 1
    # exactness
    v = gen_pochhammer(Fraction(7, 3), (2, 1), ParamSet(r=2, d=Fraction(1, 2)))
    assert isinstance(v, Fraction)


def test_pochhammer_gamma_consistency():
    rng = np.random.Generator(np.random.Philox(key=7))
    p = ParamSet(r=3, d=Fraction(5, 2))
    for _ in range(20):
        s = [complex(rng.uniform(1.5, 6), rng.uniform(-2, 2)) for _ in range(3)]
        for m in [(2, 1, 0), (3, 3, 1), (1, 0, 0)]:
            lhs = cmath.exp(
                gamma_omega_log([s[j] + m[j] for j in range(3)], p)
                - gamma_omega_log(s, p)
            )
            rhs = gen_pochhammer(s, m, p)
            assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


def test_gamma_omega_examples():
    assert gamma_omega_log(5, ParamSet(r=1, d=1)) == pytest.approx(math.log(24), abs=1e-13)
    assert gamma_omega_log([2, 2], P22) == pytest.approx(math.log(2 * math.pi), abs=1e-13)
    s = [2.2 + 0.9j, 3.1 - 0.4j]
    a = gamma_omega_log([x.conjugate() for x in s], P22)
    b = gamma_omega_log(s, P22).conjugate()
    assert abs(a - b) < 1e-13
    with pytest.raises(GammaPoleError):
        gamma_omega_log([1, 1], P22)  # second argument hits 1 - 1 = 0


def _dim_dm_gamma(m, params):
    """Floating cross-check of dim_dm via the explicit Gamma-product form."""
    mm = pad(m, params.r)
    d2 = float(params.d) / 2
    lg = math.lgamma
    acc = 0.0
    for j in range(1, params.r + 1):
        acc += lg(d2) - lg(d2 * j) - lg(d2 * (j - 1) + 1)
    val = math.exp(acc)
    for p in range(params.r):
        for q in range(p + 1, params.r):
            g = q - p
            k = mm[p] - mm[q]
            val *= (k + d2 * g) * math.exp(
                lg(k + d2 * (g + 1)) - lg(k + d2 * (g - 1) + 1)
            )
    return val


def test_dim_dm():
    assert dim_dm((5,), ParamSet(r=1, d=1)) == 1
    assert dim_dm((1, 0), P22) == 4
    assert dim_dm((), P22) == 1
    # d = 2 dimension is the squared Schur value at ones
    for m in enumerate_partitions(4, 3):
        p = ParamSet(r=3, d=2)
        assert dim_dm(m, p) == schur(m, 3).eval_at_ones() ** 2
    # floating Gamma-product cross-check at non-classical d
    p = ParamSet(r=3, d=Fraction(5, 2))
    for m in enumerate_partitions(4, 3):
        assert float(dim_dm(m, p)) == pytest.approx(_dim_dm_gamma(m, p), rel=1e-12)


def test_c0_tilde_examples():
    assert c0_tilde(ParamSet(r=1, d=7)) == 1.0
    assert c0_tilde(P22) == pytest.approx(math.pi, rel=1e-15)
    expect = math.sqrt(2 * math.pi) * math.gamma(1.5) / math.gamma(2)
    assert c0_tilde(ParamSet(r=2, d=1)) == pytest.approx(expect, rel=1e-13)


def test_gen_binom_examples():
    assert gen_binom((3,), (2,), PR1) == 3
    assert gen_binom((3,), (3,), PR1) == 1
    assert gen_binom((1, 0), (0, 0), P22) == 1
    assert gen_binom((1, 0), (1, 0), P22) == 1


@pytest.mark.parametrize("r,d", [(1, Fraction(2)), (2, Fraction(5, 2)), (3, Fraction(1, 2))])
def test_binom_row_sums_and_vanishing(r, d):
    p = ParamSet(r=r, d=d)
    for m in enumerate_partitions(5 if r < 3 else 4, r):
        total = Fraction(0)
        for k in enumerate_partitions(weight(m), r):
            b = gen_binom(m, k, p)
            if not contains(m, k):
                assert b == 0
            assert gen_binom(list(trim(m)), trim(k), p) == b  # unpadded and list forms
            total += b
        assert total == 2 ** weight(m)


def _shifted_terms(k, d, r):
    """The terms of Phi_k(1 - x) as ``mcj._phi_table`` holds them, as Fractions."""
    den, lams, nums = mcj._phi_table(k, d.numerator, d.denominator, r, True, Fraction)
    return {lam: Fraction(num, den) for lam, num in zip(lams, nums)}


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("d", [Fraction(1, 3), Fraction(2), Fraction(5, 2)])
def test_phi_one_minus_matches_affine_substitute(r, d):
    # the cached shifted table Phi_k(1 - x) against the direct substitution x -> 1 - x
    for k in enumerate_partitions(6, r):
        oracle = affine_substitute(spherical_poly(k, d, r), 1, -1)
        assert _shifted_terms(k, d, r) == oracle.terms


def _row_from_substitution(m, d, r):
    """Oracle: expand Phi_m(1 + x) by direct substitution, then peel the
    spherical basis off weight by weight, largest partition first."""
    remaining = dict(affine_substitute(spherical_poly(m, d, r), 1, 1).terms)
    row = {}
    for w in range(weight(m), -1, -1):
        for k in enumerate_partitions(w, r):
            c = remaining.get(k)
            if weight(k) != w or not c:
                continue
            phi = spherical_poly(k, d, r).terms
            row[k] = c / phi[k]
            for lam, v in phi.items():
                remaining[lam] = remaining.get(lam, 0) - row[k] * v
                if remaining[lam] == 0:
                    del remaining[lam]
    assert not remaining
    return row


@pytest.mark.parametrize("r,max_w", [(2, 8), (3, 6), (4, 5)])
@pytest.mark.parametrize(
    "d", [Fraction(1, 3), Fraction(1, 2), Fraction(5, 2), Fraction(17, 3)]
)
def test_binom_row_and_phi_one_plus_match_substitution(r, max_w, d):
    # the one-box recursion against the direct substitution x -> 1 + x, exactly
    for m in enumerate_partitions(max_w, r):
        row = coeffs._binom_view(m, d.numerator, d.denominator, r)
        assert row == _row_from_substitution(m, d, r)
        oracle = affine_substitute(spherical_poly(m, d, r), 1, 1)
        # Phi_m(1 + x) is Phi_m(1 - x) with its odd-weight terms negated
        one_plus = {lam: -c if weight(lam) % 2 else c for lam, c in _shifted_terms(m, d, r).items()}
        assert one_plus == oracle.terms


def test_binom_row_weight_bound_refuses_before_recursing():
    # the one-box recursion is |m| levels deep; rows up to the bound build even
    # under the test runner's own stack, and a deeper one is refused on its miss path
    p = ParamSet(r=1, d=Fraction(7, 3))
    w = coeffs._ROW_WEIGHT
    assert gen_binom((w,), (0,), p) == 1 and gen_binom((w,), (w - 1,), p) == w
    with pytest.raises(ParameterError, match="weight"):
        gen_binom((w + 1,), (0,), p)
    with pytest.raises(ParameterError, match="weight"):
        gen_binom((w // 2 + 1, w // 2), (1,), ParamSet(r=2, d=2))


def test_exact_caches_bounded_and_rebuild_equal():
    # past the bound the first (m, d, r) entry of every exact cache, and the
    # first (m, r) entry of every d-free one, is evicted and rebuilds to an
    # equal value
    caches = (coeffs._binom_row, coeffs._binom_view, sympoly._jack_terms,
              sympoly._spherical_cached, sympoly._jack_skeleton, mcj._row_order,
              mcj._schur_at_ones)
    assert all(f.cache_info().maxsize is not None for f in caches)
    bound = max(f.cache_info().maxsize for f in caches)
    m, r = (2, 1, 0), 3

    def build():
        return (coeffs._binom_row(m, 7, 5, r), coeffs._binom_view(m, 7, 5, r),
                mcj._phi_table.__wrapped__(m, 7, 5, r, True, Fraction),
                sympoly._jack_terms(m, 7, 5, r), sympoly._spherical_cached(m, 7, 5, r),
                sympoly._jack_skeleton(m, r), mcj._row_order(m), mcj._schur_at_ones(m, r))

    first = build()
    for i in range(bound + 5):  # one entry in each cache per fresh d or m at least
        d_i = Fraction(3 + 2 * i, 2)
        mcj._phi_table.__wrapped__((1,), d_i.numerator, d_i.denominator, 1, True, Fraction)
        coeffs.gen_binom((1,), (0,), ParamSet(r=1, d=d_i))
        sympoly._jack_skeleton((i,), 1), mcj._row_order((i,)), mcj._schur_at_ones((i,), 1)
    assert all(f.cache_info().currsize <= f.cache_info().maxsize for f in caches)
    misses = [f.cache_info().misses for f in caches]
    again = build()
    assert all(f.cache_info().misses > k for f, k in zip(caches, misses))
    assert again == first
    assert all(f.cache_info().currsize <= f.cache_info().maxsize for f in caches)


def _long_first_column(m):
    # the column lengths that _one_box reads, the first one too long by one
    cols = conjugate(m)
    return (cols[0] + 1,) + cols[1:] if cols else cols


def test_binom_row_residual_raises(monkeypatch):
    # a wrong leg length breaks sum_i binom(m, m - e_i) = |m|; the plan reads the
    # column lengths once per (m, r), so it is rebuilt under the mutant, and the
    # plans and rows built under it are dropped after
    monkeypatch.setattr(coeffs, "conjugate", _long_first_column)
    coeffs._row_plan.cache_clear()
    try:
        for m in [(2, 1, 0), (3, 1, 0), (2, 2, 1)]:
            with pytest.raises(InvariantError):
                coeffs._binom_row.__wrapped__(m, 5, 2, 3)
    finally:
        monkeypatch.undo()
        coeffs._row_plan.cache_clear()
        coeffs._binom_row.cache_clear()


def test_binom_row_residual_raises_under_optimize(child_env):
    # python -O strips assert statements; the invariant check must survive it
    code = (
        "import mcjacobi.coeffs as coeffs\n"
        "from mcjacobi.errors import InvariantError\n"
        "real = coeffs.conjugate\n"
        "def long_first_column(m):\n"
        "    cols = real(m)\n"
        "    return (cols[0] + 1,) + cols[1:] if cols else cols\n"
        "coeffs.conjugate = long_first_column\n"
        "try:\n"
        "    coeffs._binom_row((2, 1, 0), 5, 2, 3)\n"
        "except InvariantError:\n"
        "    print('raised')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=child_env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def test_gamma_k_partition():
    assert gamma_k_partition((), (3, 1), P22) == 1
    assert gamma_k_partition((1,), (1,), PR1) == 1
    # rank one: gamma_k(x) is the falling factorial x (x-1) ... (x-k+1)
    for x in range(6):
        for k in range(6):
            expect = Fraction(1)
            for t in range(k):
                expect *= x - t
            assert gamma_k_partition((k,), (x,), PR1) == expect
    # positivity across multiplicities
    for d in (Fraction(1, 2), Fraction(5, 2)):
        p = ParamSet(r=2, d=d)
        for x in enumerate_partitions(4, 2):
            for k in enumerate_partitions(4, 2):
                assert gamma_k_partition(k, x, p) >= 0


def test_jack_at_ones_closed_form():
    for r in (1, 2, 3):
        for d in (Fraction(1, 2), 1, 2, 3, Fraction(5, 2)):
            p = ParamSet(r=r, d=d)
            for m in enumerate_partitions(5, r):
                assert jack_at_ones(m, p) == jack_mono(m, d, r).eval_at_ones()


def test_jack_norm_examples():
    assert jack_norm_torus((4,), ParamSet(r=1, d=1)) == 1.0
    assert jack_norm_torus((0, 0), P22) == pytest.approx(1.0, rel=1e-14)


def test_jack_norm_quadrature_cross_check():
    # (1/(2 pi)^2)(1/2!) int |P_(1,0)|^2 |e^{i a}-e^{i b}|^2 da db on a periodic grid
    n = 256
    th = 2 * math.pi * (np.arange(n) + 0.5) / n
    a, b = np.meshgrid(th, th, indexing="ij")
    za, zb = np.exp(1j * a), np.exp(1j * b)
    vals = np.abs(za + zb) ** 2 * np.abs(za - zb) ** 2  # |P_(1,0)|^2 |Delta|^2
    integral = vals.mean()  # already divided by (2 pi)^2 via the mean
    assert integral / 2 == pytest.approx(jack_norm_torus((1, 0), P22), abs=1e-10)


def test_expected_norm_examples():
    p = ParamSet(r=1, d=2, alpha=1, nu=0)
    for m in range(5):
        assert expected_norm((m,), p) == pytest.approx(1.0, rel=1e-13)
    p2 = ParamSet(r=1, d=2, alpha=2, nu=0)
    assert expected_norm((0,), p2) == pytest.approx(4 / math.pi, rel=1e-13)
    # rank-one closed form with nu
    alpha, nu = 3.5, 0.7
    p3 = ParamSet(r=1, d=2, alpha=alpha, nu=nu)
    for m in range(6):
        gam = (
            math.gamma(alpha + m)
            / math.factorial(m)
            / abs(scipy_gamma((alpha + 1) / 2 + 1j * nu)) ** 2
        )
        assert expected_norm((m,), p3) == pytest.approx(gam, rel=1e-12)
    with pytest.raises(ParameterError):
        expected_norm((0, 0), ParamSet(r=2, d=2, alpha=0.5, nu=0))


@pytest.mark.parametrize(
    "alpha", [Fraction(1, 6), Fraction(1, 6) - Fraction(1, 10**20), Fraction(1, 7)]
)
def test_exact_alpha_at_or_below_the_bound_is_refused(alpha):
    # the bound (d/2)(r-1) = 1/6 rounds below 1/6 as a double, so an exact alpha
    # at the bound, or just under it, must be compared exactly
    p = ParamSet(r=2, d=Fraction(1, 3), alpha=alpha)
    assert not p.orthogonality_ok()
    with pytest.raises(ParameterError, match=r"need alpha > \(d/2\)\(r-1\)"):
        expected_norm((0, 0), p)
    assert ParamSet(r=2, d=Fraction(1, 3), alpha=Fraction(1, 5)).orthogonality_ok()


@pytest.mark.parametrize("alpha", [2.5, None])
def test_spherical_taylor_residual(alpha):
    rng = np.random.Generator(np.random.Philox(key=11))
    worst = 0.0
    for r, d in [(1, Fraction(2)), (2, Fraction(5, 2))]:
        p = ParamSet(r=r, d=d)
        for k in enumerate_partitions(2, r):
            w_pt = [complex(rng.uniform(-0.12, 0.12), rng.uniform(-0.05, 0.05)) for _ in range(r)]
            worst = max(worst, spherical_taylor_residual(k, p, w_pt, 14, alpha=alpha))
    assert worst <= 1e-8


def test_spherical_taylor_residual_bitwise_equal_frozen_loop(monkeypatch):
    # the right-hand side is summed by ``_phi_sum`` now, skipping the x with
    # gamma_k(x - rho) = 0 as the frozen loop did; on criterion 10's cases and
    # on those of the test above the residuals are the loop's bit for bit
    cases = []
    live = coeffs.spherical_taylor_residual

    def spy(*args, **kwargs):
        cases.append((args, kwargs))
        return live(*args, **kwargs)

    monkeypatch.setattr(coeffs, "spherical_taylor_residual", spy)
    assert acceptance.criterion_10().passed
    monkeypatch.undo()
    assert len(cases) == 20  # 10 cases, each with and without alpha
    rng = np.random.Generator(np.random.Philox(key=11))
    for r, d in [(1, Fraction(2)), (2, Fraction(5, 2))]:
        for k in enumerate_partitions(2, r):
            w_pt = [complex(rng.uniform(-0.12, 0.12), rng.uniform(-0.05, 0.05)) for _ in range(r)]
            cases += [((k, ParamSet(r=r, d=d), w_pt, 14), {"alpha": a}) for a in (2.5, None)]
    for args, kwargs in cases:
        frozen = identity_oracle.spherical_taylor_residual(*args, **kwargs)
        assert live(*args, **kwargs).hex() == frozen.hex(), (args, kwargs)
