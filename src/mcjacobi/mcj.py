"""The circular-Jacobi polynomial families and their closed-form identities.

Families:

* ``mcj_build``      -- the multivariate circular Jacobi polynomial, a
  two-parameter (alpha, nu) deformation of the spherical polynomial, for any
  multiplicity d > 0;
* ``laguerre_build`` -- the multivariate Laguerre polynomial the family is
  the boundary transform of;
* ``psi_eval``       -- the modified Fourier transform side, a finite span of
  powers (1 - i t)^{-gamma}.

All three are one finite sum over k contained in m, written once in
``_family_body``; they differ only in the Pochhammer numerator and in the
argument of Phi_k (1 - sigma, or the variable itself).

Identities implemented for verification: degree-one determinant formulas at
d = 2, generating functions, the one-variable hypergeometric ODE, rank-1
(pseudo-)differential eigenrelations, and the Meixner-Pollaczek bridge.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import comb, factorial, gcd, isfinite, isqrt, lcm
from operator import le, mul
from typing import Optional, Sequence

import numpy as np

from . import coeffs
from .coeffs import _power, delta_factorial, dim_dm, gen_pochhammer
from .errors import ParameterError, VandermondeZeroError
from .params import ParamSet
from .partitions import (
    Partition, count_contained, count_partitions, enumerate_partitions, format_partition, pad,
    weight,
)
from .sympoly import CSymPoly, SymPoly, _jack_skeleton, _lowest, _spherical_cached, spherical_poly

# work budgets, checked before any work, each ~10 s of the worst case measured on a
# 2-core x86 machine: exact operator units, partitions a genfun truncation sums, bits
# of the factors of d_m, exact units of the family builds and monomial units of the
# float evaluations (``check_family_work``); the orbit exponents, kept in a cache
# without bound, are sized by memory instead: 2^24 of them take ~170 MB and ~1.3 s
_OPERATOR_BUDGET = 1 << 22
_GENFUN_BUDGET = 400
_DIM_BUDGET = 1 << 20
_BUILD_BUDGET = 1 << 20
_ORBIT_BUDGET = 1 << 24
_EVAL_BUDGET = 1 << 24


def check_family_work(params: ParamSet, max_weight: int = 0, m=None, evaluations: int = 0) -> None:
    """Refuse, before any work, building the family members of weight <= max_weight
    (only m, when given) and ``evaluations`` float evaluations of each:

    * the binomial rows recurse |m| levels deep (``coeffs.check_row_weight``);
    * the orbits of the P monomials of weight <= |m| have C(|m| + r, r)
      elements in all, each a tuple of r exponents, which
      ``sympoly._orbit_cached`` builds and keeps: the bound counts the exponents;
    * d_m (``coeffs.dim_dm``) multiplies r(r-1)/2 pair factors and at most (r-1)|m|
      rising-factorial ones, each of at most c + bit_length(r + |m|) bits for the bit
      length c of d's numerator times denominator; products and gcd take time as the
      square of the bits, which the bound counts (at 2^20, ``print-poly`` at r = 436,
      |m| = 1 takes ~3.5 s and ``verify-genfun`` at r = 300, N = 2 ~5 s);
    * the exact build costs K P units, for the K partitions contained in m (K = P
      without m), times max(1, b/20)^1.2 for the bit length b of d's, or an exact
      alpha's, numerator times denominator;
    * an evaluation runs over at most C(|m| + r, r) monomials, plus 64 units of
      overhead.
    """
    r = params.r
    w = max_weight if m is None else weight(m)
    coeffs.check_row_weight(w)
    orbits = comb(w + r, r)
    if r * orbits > _ORBIT_BUDGET:
        raise ParameterError(
            f"rank r = {r} has {orbits:,} monomial orbit elements of weight <= {w}, each of "
            f"r exponents, over the budget of {_ORBIT_BUDGET:,} exponents; use a smaller r "
            f"or weight"
        )
    c = (params.d_num * params.d_den).bit_length()
    dim_bits = (r * (r - 1) // 2 + (r - 1) * w) * (c + (r + w).bit_length())
    if dim_bits > _DIM_BUDGET:
        raise ParameterError(
            f"rank r = {r} at weight <= {w} multiplies d_m out of ~{dim_bits:,} bits of "
            f"factors, over the budget of {_DIM_BUDGET:,}; use a smaller r or weight"
        )
    if m is None:
        K = P = count_partitions(w, r, isqrt(_BUILD_BUDGET) + 1)
    else:
        K = count_contained(pad(m, r))
        P = count_partitions(w, r, _BUILD_BUDGET // K + 1)
    exact = [params.d] + ([Fraction(params.alpha)] if params.alpha_is_exact else [])
    bits = max(abs(x.numerator) * x.denominator for x in exact).bit_length()
    units = K * P * max(1.0, bits / 20) ** 1.2
    if units > _BUILD_BUDGET:
        raise ParameterError(
            f"the exact family builds at weight <= {w} and r = {r} need ~{units:.3g} units "
            f"of work, over the budget of {_BUILD_BUDGET:,}; use a smaller weight"
        )
    units = evaluations * (1 if m is not None else P) * (orbits + 64)
    if units > _EVAL_BUDGET:
        raise ParameterError(
            f"{evaluations:,} evaluations of each family member at weight <= {w} and r = {r} "
            f"need ~{units:.3g} units of work, over the budget of {_EVAL_BUDGET:,}; "
            f"use fewer evaluations or a smaller weight"
        )


def _check_poch_nonzero(m: Sequence[int], params: ParamSet) -> None:
    """(alpha)_k must be nonzero for every k contained in m; tested exactly
    when alpha is exact, since a float test misses zeros such as 4/3 - 7/3 + 1:
    axis j vanishes iff t = (d/2) j - alpha is an integer with 0 <= t < m_j."""
    mm = pad(m, params.r)
    if params.alpha_is_exact:
        a_num, a_den = params.alpha.numerator, params.alpha.denominator
        d_num, d_den = params.d_num, params.d_den
        D = 2 * d_den * a_den
        for j in range(params.r):
            t, rest = divmod(d_num * j * a_den - 2 * d_den * a_num, D)
            if not rest and 0 <= t < mm[j]:
                raise ParameterError(f"(alpha)_k vanishes: alpha - (d/2)({j}) + {t} = 0")
        return
    alpha, d2 = float(params.alpha), float(params.d) / 2
    for j in range(params.r):
        base = alpha - d2 * j
        for t in range(mm[j]):
            if base + t == 0:
                raise ParameterError(
                    f"(alpha)_k vanishes: alpha - (d/2)({j}) + {t} = 0"
                )


@lru_cache(maxsize=64, typed=True)
def _param_set(r: int, d_num: int, d_den: int, alpha=0, nu=0.0) -> ParamSet:
    """ParamSet(r, d_num/d_den, alpha, nu), built once per arguments (per (d, r) for
    ``_m_table``, per (alpha, nu) for ``psi1_eval``); keyed by d's integers, so no
    lookup hashes a Fraction, and typed, so alpha = 2 and 2.0 keep unequal ParamSets."""
    return ParamSet(r=r, d=Fraction(d_num, d_den), alpha=alpha, nu=nu)


@lru_cache(maxsize=1024)
def _row_order(m: tuple) -> tuple:
    """The partitions k contained in the padded m, in ``_sort_key`` order: the row
    of ``_m_table`` at every d, and each k's position in ``coeffs._binom_row``."""
    ks = tuple(k for k in enumerate_partitions(weight(m), len(m)) if all(map(le, k, m)))
    at = {k: i for i, k in enumerate((m, *coeffs._row_plan(m, len(m))[1]))}
    return ks, tuple([at[k] for k in ks])


@lru_cache(maxsize=4096)
def _m_table(m: tuple, d_num: int, d_den: int, r: int, scalar: type) -> tuple:
    """The factors of ``_family_body`` that depend only on m at d = d_num/d_den:
    d_m, (n/r)_m, the k contained in m (``_row_order``) and binom(m,k) of each.
    Exact, they are integers, the two symbols in lowest terms and the binomials
    over one denominator, (dim_num, dim_den, poch_num, poch_den, ks, b_den, b_nums);
    complex, (dim, poch, ks, bs), each value the correctly rounded ``num / den`` of
    the exact one.  The row holds exactly the k contained in m, since binom(m,k) > 0
    there and 0 elsewhere."""
    if scalar is complex:
        dim_n, dim_d, poch_n, poch_d, ks, b_den, b_nums = _m_table(m, d_num, d_den, r, Fraction)
        bs = tuple([complex(b / b_den) for b in b_nums])
        return complex(dim_n / dim_d), complex(poch_n / poch_d), ks, bs
    p = _param_set(r, d_num, d_den)
    b_den, row = coeffs._binom_row(m, d_num, d_den, r)
    ks, at = _row_order(m)
    return (
        *_lowest(*coeffs._dim_ratio(m, p)),
        *_lowest(*coeffs._poch_ratio([p.n_over_r] * r, m, p)),
        ks,
        b_den,
        tuple([row[i] for i in at]),
    )


@lru_cache(maxsize=4096)
def _k_table(k: tuple, params: ParamSet, scalar: type) -> tuple:
    """The factors of ``_family_body`` that depend only on k and the
    parameters: (-1)^{|k|}, (beta)_k and (alpha)_k.  Exact, the two symbols
    are integers in lowest terms, (sign, beta_num, beta_den, alpha_num,
    alpha_den); complex, (sign, beta_k, alpha_k)."""
    sign = (-1) ** weight(k)
    if scalar is Fraction:
        return (
            sign,
            *_lowest(*coeffs._poch_ratio([params.beta_exact] * params.r, k, params)),
            *_lowest(*coeffs._poch_ratio([params.alpha] * params.r, k, params)),
        )
    alpha = complex(float(params.alpha))
    return sign, gen_pochhammer(params.beta, k, params), gen_pochhammer(alpha, k, params)


@lru_cache(maxsize=4096)
def _phi_table(k: tuple, d_num: int, d_den: int, r: int, shifted: bool, scalar: type) -> tuple:
    """The monomial terms of Phi_k(1 - sigma) when ``shifted``, of Phi_k
    otherwise, at d = d_num/d_den, as (den, lams, values): exact values are
    integer numerators over their lcm den, complex values are over den = 1,
    each ``num / den`` of the exact table, which rounds correctly, as
    complex(Fraction) does.  The two tables of one key share lams."""
    if scalar is complex:
        den, lams, nums = _phi_table(k, d_num, d_den, r, shifted, Fraction)
        return 1, lams, tuple([complex(num / den) for num in nums])
    if not shifted:
        phi = _spherical_cached(k, d_num, d_den, r).terms
        den = lcm(*(c.denominator for c in phi.values()))
        return den, tuple(phi), tuple([c.numerator * (den // c.denominator) for c in phi.values()])
    # Phi_k(1 - x) = sum_j binom(k, j) Phi_j(-x) in integer numerators over D = the
    # row's den times lcm(den_j), into the slots of ``_shift_plan``, odd weights negated
    # as m_lam(-x) = (-1)^{|lam|} m_lam(x); dividing by gcd(D, *nums) leaves the reduced
    # terms' lcm, since lcm_i(D / gcd(D, a_i)) = D / gcd(D, a_1, ..., a_n)
    b_den, row = coeffs._binom_row(k, d_num, d_den, r)
    lams, ats, odd = _shift_plan(k, r)
    js = (k, *coeffs._row_plan(k, r)[1])
    tables = [_phi_table(j, d_num, d_den, r, False, Fraction) for j in js]
    coeffs._check_plan([nums for _, _, nums in tables], ats, k)
    den = lcm(*(e for e, _, _ in tables))
    acc = [0] * len(lams)
    for b, (e, _, nums), at in zip(row, tables, ats):
        scale = b * (den // e)
        for i, c in zip(at, nums):
            acc[i] += c * scale
    for i in odd:
        acc[i] = -acc[i]
    den *= b_den
    g = gcd(den, *acc)
    return den // g, lams, tuple([v // g for v in acc])


@lru_cache(maxsize=1024)
def _shift_plan(k: tuple, r: int) -> tuple:
    """The d-free part of the shifted ``_phi_table``, (lams, ats, odd): the monomials
    of the Phi_j, j in the row's order (``coeffs._row_plan``), in order of first
    appearance (no sum of positive terms cancels, so at every d), each Phi_j's
    positions in them, and the positions of the odd-weight ones."""
    row = (k, *coeffs._row_plan(k, r)[1])
    lams, ats = coeffs._first_appearance(_jack_skeleton(j, r)[0] for j in row)
    return lams, ats, tuple([i for i, lam in enumerate(lams) if weight(lam) % 2])


@lru_cache(maxsize=1024)
def _body_plan(m: tuple, r: int, shifted: bool) -> tuple:
    """The d-free part of ``_family_body``, (lams, ats): the monomials of the Phi_k,
    k in ``_row_order(m)``, in order of first appearance, and each k's positions."""
    plan = _shift_plan if shifted else _jack_skeleton
    return coeffs._first_appearance(plan(k, r)[0] for k in _row_order(m)[0])


def _family_body(
    m: Sequence[int], params: ParamSet, *, beta: bool, shifted: bool, exact: bool
):
    """The finite sum behind all three families, as a monomial-basis body:

        d_m (alpha)_m / (n/r)_m
            sum_{k subset m} (-1)^{|k|} binom(m,k) (beta)_k / (alpha)_k  Phi_k(X)

    with beta = (alpha + n/r)/2 + i nu, or no numerator when ``beta`` is false
    (Laguerre), and X = 1 - sigma when ``shifted``, the variable itself otherwise;
    complex doubles (``CSymPoly``), or when ``exact`` the pair (its ``CSymPoly``, ``SymPoly``).
    The factors come from the bounded tables ``_m_table``, ``_k_table`` (its k = m
    entry is (alpha)_m) and ``_phi_table``, and each term goes to its slot of
    ``_body_plan``.  Exact, the k-th coefficient is an integer over E_k, which holds
    its Phi table's den, a term adds numerator * (L / E_k) * c, L = lcm E_k, and the
    m-only prefactor multiplies each slot's sum at the end.  The
    terms keep the order of a dict of the partial sums that pops a zero one, as the
    rational sums did: an integer sum is zero exactly when the rational one is.
    """
    r = params.r
    mm = pad(m, r)
    _check_poch_nonzero(mm, params)
    d_num, d_den = params.d_num, params.d_den
    steps = []
    if exact:
        dim_n, dim_d, poch_n, poch_d, ks, b_den, b_nums = _m_table(mm, d_num, d_den, r, Fraction)
        am_n, am_d = _k_table(mm, params, Fraction)[3:]
        # pref = d_m (alpha)_m / (n/r)_m / b_den = pref_num / pref_den, once per slot
        pref_num = dim_n * am_n * poch_d
        pref_den = dim_d * am_d * poch_n * b_den
        for k, b_n in zip(ks, b_nums):
            sign, bk_n, bk_d, ak_n, ak_d = _k_table(k, params, Fraction)
            k_num = sign * b_n * ak_d
            k_den = ak_n
            if beta:
                k_num *= bk_n
                k_den *= bk_d
            phi_den, _, phi = _phi_table(k, d_num, d_den, r, shifted, Fraction)
            steps.append((k_num, k_den * phi_den, phi))
        den = lcm(*(e for _, e, _ in steps))
        steps = [(num * (den // e), phi) for num, e, phi in steps]
    else:
        dim, nr_poch, ks, bs = _m_table(mm, d_num, d_den, r, complex)
        pref = dim * _k_table(mm, params, complex)[2] / nr_poch
        for k, b in zip(ks, bs):
            sign, beta_k, alpha_k = _k_table(k, params, complex)
            # complex coefficients are ((pref * sign * b) * (beta)_k) / (alpha)_k
            # in this order, and the terms accumulate k by k in enumeration order:
            # the rounding of the body feeds the byte-identical orthogonality reports
            coef = pref * sign * b
            if beta:
                coef = coef * beta_k
            steps.append((coef / alpha_k, _phi_table(k, d_num, d_den, r, shifted, complex)[2]))
    lams, ats = _body_plan(mm, r, shifted)
    coeffs._check_plan([phi for _, phi in steps], ats, mm)
    acc, order = [0] * len(lams), []  # order: the slots as a dict of the sums holds them
    for (coef, phi), at in zip(steps, ats):
        for i, c in zip(at, phi):
            v = acc[i]
            if v:
                acc[i] = v + c * coef
            else:  # a new or popped slot: the dict inserts it at the end, from the 0
                acc[i] = 0 + c * coef  # of dict.get, so complex signed zeros agree
                order.append(i)
    if len(order) > len(lams):  # a sum cancelled: each slot at its last insertion
        order = reversed(dict.fromkeys(reversed(order)))
    if not exact:
        return CSymPoly._trusted(r, {lams[i]: acc[i] for i in order if acc[i]})
    # the complex twin from the same sums: int true division rounds correctly, as the
    # reduced Fraction's double does, and a value that rounds to 0.0 is dropped
    den, terms = den * pref_den, [(lams[i], pref_num * acc[i]) for i in order if acc[i]]
    body = SymPoly._trusted(r, {lam: Fraction(v, den) for lam, v in terms})
    return CSymPoly._trusted(r, {lam: c for lam, v in terms if (c := complex(v / den))}), body


# ---------------------------------------------------------------------------
# MCJ polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCJPolynomial:
    index: Partition
    params: ParamSet
    body: CSymPoly
    body_exact: Optional[SymPoly] = None

    @property
    def degree(self) -> int:
        return weight(self.index)

    def evaluate(self, sigma: Sequence[complex]) -> complex:
        return self.body.evaluate(sigma)

    def evaluate_points(self, pts: np.ndarray) -> np.ndarray:
        return self.body.evaluate_points(pts)


@lru_cache(maxsize=1024)
def mcj_build(m: tuple, params: ParamSet) -> MCJPolynomial:
    """Construct the circular-Jacobi polynomial indexed by the partition m.

        d_m (alpha)_m / (n/r)_m
            sum_{k subset m} (-1)^{|k|} binom(m,k)
                ((alpha + n/r)/2 + i nu)_k / (alpha)_k  Phi_k(1 - sigma)

    assembled exactly when nu = 0 and alpha is rational, in complex doubles
    otherwise.
    """
    mm = pad(m, params.r)
    exact = params.nu_is_zero and params.alpha_is_exact
    body = _family_body(mm, params, beta=True, shifted=True, exact=exact)
    return MCJPolynomial(mm, params, *body) if exact else MCJPolynomial(mm, params, body)


def _check_series_den(m: int, c) -> None:
    """(c)_k, k <= m, is the denominator of the rank-1 series; refuse a zero."""
    for t in range(m):
        if c + t == 0:
            raise ParameterError(
                f"the rank-1 series denominator (c)_k vanishes at c = {c}, k = {t + 1}"
            )


def _lift(alpha, nu) -> tuple:
    """(q, A, B_re, N): alpha = A/q, beta = (alpha + 1)/2 + i nu = (B_re + i N)/q
    over one q, a power of two for floats, which lift to their exact binary values."""
    a, n = Fraction(alpha), Fraction(nu)
    b = (a + 1) / 2
    q = lcm(a.denominator, b.denominator, n.denominator)
    return (q, *(x.numerator * (q // x.denominator) for x in (a, b, n)))


def _rank1_coeffs(m: int, q: int, A: int, B: Optional[tuple], scale: int) -> tuple:
    """The exact coefficients (a)_m / m! scale^k (-1)^k C(m,k) (b)_k / (a)_k,
    k = 0..m, of the rank-1 series with c = a = A/q and b = (B_re + i B_im)/q,
    as (den, [(re, im), ...]).  Since (a)_m / (a)_k = (a+k)_{m-k}, the k-th
    is the Gaussian integer

        (-1)^k C(m,k) scale^k prod_{j<k} (B + jq) prod_{k<=j<m} (A + jq)

    over den = m! q^m; B = None drops (b)_k, which leaves q^k for the first
    product."""
    _check_series_den(m, Fraction(A, q))
    tail = [1] * (m + 1)  # tail[k] = prod_{k<=j<m} (A + jq)
    for j in range(m - 1, -1, -1):
        tail[j] = tail[j + 1] * (A + j * q)
    out = []
    x, y = 1, 0  # prod_{j<k} (B + jq), or q^k
    for k in range(m + 1):
        c = (-1) ** k * comb(m, k) * scale**k * tail[k]
        out.append((c * x, c * y))
        bx, by = (q, 0) if B is None else (B[0] + k * q, B[1])
        x, y = x * bx - y * by, x * by + y * bx
    return factorial(m) * q**m, out


def _deriv(vec: list) -> list:
    """The derivative of a polynomial with Gaussian-integer coefficients."""
    return [(x * k, y * k) for k, (x, y) in enumerate(vec) if k]


def _apply(res: list, vec: list, shift: int, c: tuple) -> None:
    """res[k + shift] += c vec[k], for Gaussian integers (re, im)."""
    for k, (x, y) in enumerate(vec, shift):
        res[k][0] += x * c[0] - y * c[1]
        res[k][1] += x * c[1] + y * c[0]


def _max_abs(values, den: int) -> float:
    """max |x + i y| / den; each part rounds once, as the float of its Fraction would."""
    return max((abs(complex(x / den, y / den)) for x, y in values), default=0.0)


def _rank1_eval(m: int, b, c, x, pref) -> complex:
    """pref (c)_m / m! sum_k (-1)^k C(m,k) (b)_k / (c)_k x^k, the series behind
    ``cj1_eval`` and ``mp1_eval``, in complex doubles (``_rank1_coeffs`` is the exact
    one): pref times each (c + t) / (t + 1) in turn, then the terms, on which the
    callers' rounding depends, ``(-1)**k * comb(m, k) * (b)_k / (c)_k * x**k`` added k by k."""
    _check_series_den(m, c)
    for t in range(m):
        pref *= (c + t) / (t + 1)
    total = 0j
    num = den = power = 1.0 + 0j
    for k in range(m + 1):
        total += (-1) ** k * comb(m, k) * num / den * power
        num *= b + k
        den *= c + k
        power *= x
    return pref * total


def cj1_eval(m: int, alpha: float, nu: float, sigma: complex) -> complex:
    """One-variable circular Jacobi value, as the terminating sum

        (alpha)_m / m! sum_k (-1)^k C(m,k) ((alpha+1)/2 + i nu)_k / (alpha)_k (1-sigma)^k.
    """
    return _rank1_eval(m, 0.5 * (alpha + 1) + 1j * nu, alpha, 1 - sigma, 1.0)


# ---------------------------------------------------------------------------
# Laguerre side
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaguerrePolynomial:
    index: Partition
    params: ParamSet
    body: CSymPoly  # polynomial in u

    def eval_poly(self, u: Sequence[complex]) -> complex:
        return self.body.evaluate(u)


@lru_cache(maxsize=1024)
def laguerre_build(m: tuple, params: ParamSet) -> LaguerrePolynomial:
    """Multivariate Laguerre polynomial with parameter alpha - n/r:

        d_m (alpha)_m / (n/r)_m
            sum_{k subset m} (-1)^{|k|} binom(m,k) / (alpha)_k  Phi_k(u).
    """
    mm = pad(m, params.r)
    body = _family_body(mm, params, beta=False, shifted=False, exact=False)
    return LaguerrePolynomial(mm, params, body)


# ---------------------------------------------------------------------------
# Psi: the modified Fourier transform side
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _psi_body(m: tuple, params: ParamSet) -> CSymPoly:
    """The Psi finite sum as a polynomial in w, built once per (padded m, params)."""
    return _family_body(m, params, beta=True, shifted=False, exact=False)


def psi_tilde_eval(m: Sequence[int], params: ParamSet, w: Sequence[complex]) -> complex:
    """The finite sum part of Psi, as a function of w = 2 (e - i t)^{-1}."""
    return _psi_body(pad(m, params.r), params).evaluate(w)


def psi_eval(m: Sequence[int], params: ParamSet, t: Sequence[float], refuse_zero=False) -> complex:
    """Psi_m(t) = prod_j (1 - i t_j)^{-beta} * psi_tilde(2/(1 - i t)).

    Principal powers throughout; the prefactor equals 1 at t = 0.  With ``refuse_zero``
    a prefactor that underflows to 0, which would read as a value of 0, is refused.
    """
    if len(t) != params.r:
        raise ParameterError("t must have length r")
    pref = 1.0 + 0j
    w = []
    for tj in t:
        base = 1 - 1j * tj
        pref *= _power(base, -params.beta, "(1 - i t)^(-beta) of Psi")
        w.append(2.0 / base)
    if refuse_zero and not pref:
        raise ParameterError("the factor (1 - i t)^(-beta) of Psi underflows to 0 in doubles; "
                             "use a smaller |nu| (--nu), |t| (--t) or alpha (--alpha)")
    return pref * psi_tilde_eval(m, params, w)


def psi1_eval(m: int, alpha: float, nu: float, t: float) -> complex:
    """One-variable Psi value (rank-1 case of psi_eval)."""
    return psi_eval((m,), _param_set(1, 2, 1, alpha, nu), [t])


# ---------------------------------------------------------------------------
# operator residuals (all exact, Gaussian integers over one denominator)
# ---------------------------------------------------------------------------


def rank1_operator_residuals(m: int, alpha: float, nu: float):
    """Residuals of the two rank-1 eigenrelations, computed exactly.

    First: tr(-u d^2 - alpha d + u - alpha) on exp(-u) L_m^{(alpha-1)}(2u)
    minus 2m times it; on the module exp(-u) * polynomials this reduces to
    -u p'' + (2u - alpha) p' - 2m p.

    Second: the pseudo-differential operator
        -i (1 + t^2) d_t + (2 nu - i) t - alpha + i ((alpha-1)^2/4 + nu^2) d_t^{-1}
    on Psi_m, acting termwise on the span of (1 - i t)^{-gamma} with
        d_t   : (1-it)^{-gamma} -> i gamma (1-it)^{-gamma-1}
        t *   : (1-it)^{-gamma} -> i (1-it)^{-gamma+1} - i (1-it)^{-gamma}
        d_t^{-1}: (1-it)^{-gamma} -> (1-it)^{-gamma+1} / (i (gamma - 1)).

    Returns (residual_laguerre, residual_psi) as max absolute coefficients.
    """
    q, A, b_re, N = _lift(alpha, nu)

    # Laguerre side: the coefficients of L_m^{(alpha-1)}(2u) in powers of u,
    # integers over den; the residual is over q den, which clears alpha = A/q
    den, p = _rank1_coeffs(m, q, A, None, 2)
    p1 = _deriv(p)
    res = [[0, 0] for _ in range(m + 2)]
    _apply(res, _deriv(p1), 1, (-q, 0))  # -u p''
    _apply(res, p1, 1, (2 * q, 0))  # 2u p'
    _apply(res, p1, 0, (-A, 0))  # -alpha p'
    _apply(res, p, 0, (-2 * m * q, 0))  # -2m p

    # Psi side: with c = C/den and gamma - 1 = g/q, the potential term
    # c pot / (gamma - 1) is C P conj(g) / (4 q |g|^2 den) for
    # pot = P / (4 q^2); every other term is over q den, so all of them
    # share the denominator 4 L q den, with L the lcm of the norms |g|^2
    psi_den, psi = _rank1_coeffs(m, q, A, (b_re, N), 2)
    P = (A - q) ** 2 + 4 * N * N
    norms = [(b_re + (k - 1) * q) ** 2 + N * N for k in range(m + 1)]
    if P and 0 in norms:
        raise ParameterError("antiderivative undefined: exponent gamma = 1")
    L = lcm(*norms) if P else 1
    out = [[0, 0] for _ in range(m + 2)]  # the exponent k - 1 at out[k]
    for k, c in enumerate(psi):
        gx, gy = b_re + k * q, N  # gamma = (gx + i gy) / q
        # -i (1+t^2) d_t : gamma (2 (.)^{-g} - (.)^{-g+1}); (2 nu - i) t, which
        # is (1 + 2 nu i) ((.)^{-g+1} - (.)^{-g}); -alpha; the eigenvalue -2m
        _apply(out, [c], k + 1, (4 * L * (2 * gx - q - A - 2 * m * q), 4 * L * (2 * gy - 2 * N)))
        _apply(out, [c], k, (4 * L * (q - gx), 4 * L * (2 * N - gy)))
        if P:  # i pot d_t^{-1} -> pot / (gamma - 1) at exponent k - 1
            s = P * (L // norms[k])
            _apply(out, [c], k, (s * (gx - q), -s * gy))

    return _max_abs(res, q * den), _max_abs(out, 4 * L * q * psi_den)


def ode_residual_onevar(m: int, alpha: float, nu: float) -> float:
    """Apply the one-variable hypergeometric annihilator

        sigma (1-sigma) p'' + ((3/2 - m + i nu)(1 - sigma) - (alpha/2)(1 + sigma)) p'
            + m ((alpha+1)/2 + i nu) p

    to the exact coefficient vector of the degree-m family member; returns
    the largest residual coefficient (exactly zero in exact arithmetic).
    """
    q, A, b_re, N = _lift(alpha, nu)
    den, a_k = _rank1_coeffs(m, q, A, (b_re, N), 1)

    # expand sum_k a_k (1-sigma)^k into the power basis, over den
    p = [[0, 0] for _ in range(m + 1)]
    for k, a in enumerate(a_k):
        for t in range(k + 1):
            _apply(p, [a], t, ((-1) ** t * comb(k, t), 0))
    p1 = _deriv(p)
    p2 = _deriv(p1)

    # over q den, with beta = (b_re + i N)/q = (alpha+1)/2 + i nu:
    # 3/2 - m + i nu - alpha/2 = (2 - m) - conj(beta) and
    # 3/2 - m + i nu + alpha/2 = (1 - m) + beta
    res = [[0, 0] for _ in range(m + 3)]
    _apply(res, p2, 1, (q, 0))  # sigma (1-sigma) p''
    _apply(res, p2, 2, (-q, 0))
    _apply(res, p1, 0, ((2 - m) * q - b_re, N))  # the p' terms
    _apply(res, p1, 1, ((m - 1) * q - b_re, -N))
    _apply(res, p, 0, (m * b_re, m * N))  # + m beta p
    return _max_abs(res, q * den)


def _check_operator_grid(alphas: Sequence[float], nus: Sequence[float], m_max: int) -> None:
    """Refuse an operator grid before any work: every m <= m_max costs about (m_max + 1)^3
    big-integer operations per grid point, on integers that grow with the bit length b
    of the lifted parameters, so a point counts (m_max + 1)^3 max(1, b/64)^1.5 units."""
    cube = min(m_max + 1, _OPERATOR_BUDGET) ** 3
    units = cube * len(alphas) * len(nus)  # a lower bound, so a huge grid is refused unread
    if units <= _OPERATOR_BUDGET:
        units = cube * sum(
            max(1.0, max(map(abs, _lift(a, n))).bit_length() / 64) ** 1.5 for a in alphas for n in nus
        )
    if units > _OPERATOR_BUDGET:
        raise ParameterError(
            f"operator checks for m <= {m_max} on {len(alphas) * len(nus)} (alpha, nu) points "
            f"need ~{units:.3g} units of work, over the budget of {_OPERATOR_BUDGET:,}; "
            f"use a smaller m or grid"
        )


def worst_operator_residuals(
    alphas: Sequence[float], nus: Sequence[float], m_ode: int, m_rank1: int
) -> tuple:
    """The largest ``ode_residual_onevar`` over m <= m_ode and the largest
    ``rank1_operator_residuals`` entry over m <= m_rank1, on the (alpha, nu)
    grid; for each m the ODE is checked before the rank-1 relations.

    Returns (worst_ode, worst_rank1).  A negative degree bound would check
    nothing, so it is refused, as is a grid over the work budget.
    """
    if min(m_ode, m_rank1) < 0:
        raise ParameterError(f"need a degree bound m >= 0, got {min(m_ode, m_rank1)}")
    _check_operator_grid(alphas, nus, max(m_ode, m_rank1))
    worst_ode = worst_r1 = 0.0
    for alpha in alphas:
        for nu in nus:
            for m in range(max(m_ode, m_rank1) + 1):
                if m <= m_ode:
                    worst_ode = max(worst_ode, ode_residual_onevar(m, alpha, nu))
                if m <= m_rank1:
                    worst_r1 = max(worst_r1, *rank1_operator_residuals(m, alpha, nu))
    return worst_ode, worst_r1


def euler_residual(m: Sequence[int], params: ParamSet) -> Fraction:
    """Exact residual of sum_j sigma_j d_j Phi_m = |m| Phi_m (homogeneity)."""
    mm = pad(m, params.r)
    phi = spherical_poly(mm, params.d, params.r)
    w = weight(mm)
    residual = Fraction(0)
    for lam, c in phi.terms.items():
        # the Euler operator multiplies each monomial orbit by its weight
        residual = max(residual, abs(c * (weight(lam) - w)))
    return residual


# ---------------------------------------------------------------------------
# determinant formulas (d = 2)
# ---------------------------------------------------------------------------


def _require_d2(params: ParamSet):
    if params.d != 2:
        raise ParameterError("determinant formulas require multiplicity d = 2")


def _vandermonde(v: Sequence[complex]) -> complex:
    out = 1.0 + 0j
    for p, q in combinations(range(len(v)), 2):
        out *= v[p] - v[q]
    return out


def _coincident(v: Sequence[complex]) -> Optional[tuple]:
    """The first pair (p, q), p < q, with |v_p - v_q| < 1e-12, or None."""
    pairs = combinations(range(len(v)), 2)
    return next(((p, q) for p, q in pairs if abs(v[p] - v[q]) < 1e-12), None)


def _div_poch_product(pref: complex, x: complex, r: int, name: str) -> complex:
    """pref * prod_{j=1..r} (x)_{j-1}^{-1}, one division per j; a vanishing
    (x)_{j-1} is refused, naming x as ``name``."""
    for j in range(1, r + 1):
        acc = 1.0 + 0j
        for t in range(j - 1):
            acc *= x + t
        if acc == 0:
            raise ParameterError(
                f"the determinant prefactor divides by ({name})_{j - 1}, which is 0 at "
                f"{name} = {x:g}"
            )
        pref /= acc
    return pref


def _delta_factorial_float(r: int, s: int = 1) -> complex:
    """s delta! as a complex double; past the double range it is refused."""
    try:
        return complex(s * delta_factorial(r))
    except OverflowError:
        raise ParameterError(
            f"the determinant formula needs delta!{f' times {s}' if s != 1 else ''} at r = {r} "
            f"as a float, past the double range; use a smaller r"
        ) from None


def _det_formula(r: int, entry, vectors: dict, pref=lambda c: c, s: int = 1) -> complex:
    """pref(s delta!) det[entry(p, q)]_{p,q < r} / (V(v_1) V(v_2) ...), the assembly of
    every determinant formula at d = 2, for the named vectors v_i.  A coincident pair
    in a vector and a Vandermonde product that is 0 in doubles are refused, naming the
    vector (the vectors whose own products are 0, or else all), before any entry is
    computed; the matrix is filled entry by entry before s delta! is
    converted, so an entry's error wins over the prefactor's."""
    for name, v in vectors.items():
        pair = _coincident(v)
        if pair:
            raise VandermondeZeroError(f"coincident {name} values: {v[pair[0]]} ~ {v[pair[1]]}")
    dets = [_vandermonde(v) for v in vectors.values()]
    den = reduce(mul, dets)
    if den == 0:  # distinct points whose differences multiply past the double range
        names = " and ".join([n for n, v in zip(vectors, dets) if v == 0] or vectors)
        raise VandermondeZeroError(
            f"the Vandermonde product of {names} is past the double range; use values "
            f"further apart"
        )
    mat = np.empty((r, r), dtype=complex)
    for p in range(r):
        for q in range(r):
            mat[p, q] = entry(p, q)
    return pref(_delta_factorial_float(r, s)) * complex(np.linalg.det(mat)) / den


def _family_det(m, params: ParamSet, one_var, x, name: str, turn: bool) -> complex:
    """The d = 2 determinant formula of the family (``one_var`` = cj1_eval at x = sigma) or
    of Psi (psi1_eval at real x = t, ``turn`` adding (-2i)^{-r(r-1)/2}), x named ``name``:

        s_m(1..1) delta! prod_j ((alpha-r)/2 + i nu + 1)_{j-1}^{-1}
            det( one_var[(alpha-r+1, nu)]_{m_p + r - p}(x_q) ) / V(x).
    """
    _require_d2(params)
    mm = pad(m, params.r)
    r = params.r
    a1, nu = float(params.alpha) - r + 1, float(params.nu)
    base = 0.5 * (float(params.alpha) - r) + 1j * nu + 1

    def pref(c):
        c = _div_poch_product(c, base, r, "(alpha - r)/2 + i nu + 1")
        return c / (-2j) ** (r * (r - 1) // 2) if turn else c

    return _det_formula(
        r, lambda p, q: one_var(mm[p] + r - (p + 1), a1, nu, x[q]),
        {name: [complex(v) for v in x]}, pref, _schur_at_ones(mm, r),
    )


@lru_cache(maxsize=1024)
def _schur_at_ones(m: tuple, r: int) -> int:
    """s_m(1, ..., 1), the Jack value at ones at d = 2 (``coeffs.jack_at_ones``),
    an integer the same at every alpha and nu, so computed once per (padded m, r)."""
    return int(coeffs.jack_at_ones(m, _param_set(r, 2, 1)))


def det_eval_phi(m: Sequence[int], params: ParamSet, sigma: Sequence[complex]) -> complex:
    """Degree-shifted determinant formula for the d = 2 family (``_family_det``)."""
    return _family_det(m, params, cj1_eval, sigma, "sigma", False)


def det_eval_psi(m: Sequence[int], params: ParamSet, t: Sequence[float]) -> complex:
    """Determinant formula for Psi at d = 2 (real nodes t, pairwise distinct)."""
    return _family_det(m, params, psi1_eval, t, "t", True)


def worst_det_residual(m: Sequence[int], params: ParamSet, sigmas, ts) -> float:
    """The largest |det - direct| / (1 + |direct|): ``det_eval_phi`` against the member
    m, built once, at each point of ``sigmas``, then ``det_eval_psi`` against
    ``psi_eval`` at each point of ``ts``.  A non-finite residual, which max() would
    drop, is refused, naming m and the point."""
    poly = mcj_build(m, params)
    worst = 0.0
    for name, points, det, direct in (
        ("sigma", sigmas, det_eval_phi, poly.evaluate),
        ("t", ts, det_eval_psi, lambda t: psi_eval(m, params, t)),
    ):
        for x in points:
            v_det, v_dir = det(m, params, x), direct(x)
            res = abs(v_det - v_dir) / (1 + abs(v_dir))
            if not isfinite(res):
                raise ParameterError(
                    f"the determinant check at m = ({format_partition(m)}) and {name} = "
                    f"({', '.join(f'{v:.6g}' for v in x)}) is not finite (det {v_det:.6g}, "
                    f"direct {v_dir:.6g}); use a smaller alpha, |nu| or weight"
                )
            worst = max(worst, res)
    return worst


# ---------------------------------------------------------------------------
# Cauchy kernel
# ---------------------------------------------------------------------------


def cauchy_kernel_series(
    w: Sequence[complex], z: Sequence[complex], beta: complex, d, N: int
) -> complex:
    """Truncated spherical expansion sum_m d_m (beta)_m/(n/r)_m Phi_m(w) Phi_m(z)."""
    p = ParamSet(r=len(w), d=d)

    def coef(m):
        c = complex(dim_dm(m, p)) * coeffs._poch_complex(complex(beta), m, p) / complex(
            gen_pochhammer(p.n_over_r, m, p)
        )
        return c * spherical_poly(m, p.d, p.r).evaluate(w)

    return coeffs._phi_sum(coef, p, z, N)


def cauchy_kernel_det(
    w: Sequence[complex], z: Sequence[complex], beta: complex, names: tuple = ("w", "z"),
    remedy: str = "use a smaller |beta|",
) -> complex:
    """Determinant form of the spherical Cauchy kernel at multiplicity 2:

        delta! prod_j (beta - r + 1)_{j-1}^{-1}
            det((1 - w_p z_q)^{-(beta - r + 1)}) / (V(w) V(z)).

    Falls back to the series truncated at weight 30 when entries coincide (for
    example in the z -> 0 limit), provided both spectral norms are below 1, the
    series is within the truncation budget (at r <= 2) and its weight-30 shell is
    |S_30 - S_29| <= 1e-8 |S_30|, for the sums S_N to weight N: the norms alone do
    not bound the tail, which grows with beta.  Refusals, an entry past the double
    range among them, name w and z as ``names``; an entry past it ends in ``remedy``.
    """
    if len(w) != len(z):
        raise ParameterError("w and z must have the same length")
    r = len(w)
    w = [complex(x) for x in w]
    z = [complex(x) for x in z]
    if all(x == 0 for x in w) or all(x == 0 for x in z):
        return 1.0 + 0j  # only the constant term of the expansion survives
    same = " and ".join(name for name, v in zip(names, (w, z)) if _coincident(v))
    if same and max(map(abs, w + z)) < 1:
        _check_truncation(30, r, f"coincident {same} entries need it, so use distinct ones")
        s30, s29 = (cauchy_kernel_series(w, z, beta, 2, N) for N in (30, 29))
        if not abs(s30 - s29) <= 1e-8 * abs(s30):
            raise VandermondeZeroError(
                f"coincident {same} entries need the series fallback, whose weight-30 shell "
                f"{abs(s30 - s29):.2g} is over 1e-8 |S_30| = {1e-8 * abs(s30):.2g}; use "
                f"distinct or smaller entries"
            )
        return s30
    expo = complex(beta) - r + 1
    factor = f"(1 - w_p z_q)^(-(beta - r + 1)) of the Cauchy kernel at {names[0]} and {names[1]}"

    def entry(p, q):
        base = 1 - w[p] * z[q]
        if base == 0:
            raise ParameterError("branch pole: 1 - w_p z_q = 0")
        return _power(base, -expo, factor, remedy)

    return _det_formula(
        r, entry, dict(zip(names, (w, z))), lambda c: _div_poch_product(c, expo, r, "beta - r + 1")
    )


def hciz_det(x: Sequence[complex], y: Sequence[complex]) -> complex:
    """Rank-r exponential kernel at multiplicity 2:

        delta! det(exp(x_p y_q)) / (V(x) V(y)),

    the determinant form of the average of exp over the isotropy group.
    """
    r = len(x)
    if r == 1:
        return cmath.exp(x[0] * y[0])
    return _det_formula(r, lambda p, q: cmath.exp(x[p] * y[q]), {"x": x, "y": y})


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------


def _check_float_range(params: ParamSet, N: int, what: str, knob: str, beta: bool = True):
    """Refuse ``what``, a sum over the partitions of weight <= N, when its
    float body factors would leave the double range: the generalized
    Pochhammer symbols (n/r)_m, (alpha)_m and, when ``beta``, (beta)_m are
    largest at the partitions of weight N.  The message says to use a
    smaller ``knob``."""
    symbols = {"n/r": float(params.n_over_r), "alpha": float(params.alpha)}
    if beta:
        symbols["beta"] = params.beta
    top = [m for m in enumerate_partitions(N, params.r) if weight(m) == N]
    for name, a in symbols.items():
        for m in top:
            if not cmath.isfinite(coeffs._poch_complex(a, m, params)):
                raise ParameterError(
                    f"{what} needs ({name})_m at m = {format_partition(m)} as a float, "
                    f"past the double range; use a smaller {knob}"
                )


def _check_truncation(N: int, r: int, remedy: str):
    """Refuse a truncated sum over more than ``_GENFUN_BUDGET`` partitions."""
    if count_partitions(N, r, _GENFUN_BUDGET + 1) > _GENFUN_BUDGET:
        raise ParameterError(
            f"a truncation at N = {N} sums over more than {_GENFUN_BUDGET} partitions at "
            f"r = {r}, over the budget (the work grows as their square); {remedy}"
        )


def _check_genfun_domain(params: ParamSet, z: Sequence[complex], N: int, beta: bool = True):
    """Refuse a truncation at N outside the closed forms' domain, over the
    partition budget, or past the float range (``_check_float_range``, and the
    d = 2 closed forms' delta!)."""
    if len(z) != params.r:
        raise ParameterError("z must have length r")
    if max(abs(complex(x)) for x in z) >= 1 / 3:
        raise ParameterError("spectral bound violated: need max |z_j| < 1/3")
    if params.r != 1 and params.d != 2:
        raise ParameterError("closed generating forms need r = 1 or d = 2")
    _check_truncation(N, params.r, "use a smaller N")
    check_family_work(params, N, evaluations=4)  # the member and Phi_m, on both sides
    _check_float_range(params, N, f"a truncation at N = {N}", "N", beta)
    _delta_factorial_float(params.r)


def _genfun_residual(params: ParamSet, z, N: int, member, closed, has_beta=True) -> float:
    """|sum_{|m| <= N} member(m) Phi_m(z) - closed(z, alpha, beta)|, the truncation
    residual of a generating function at complex z, with beta = (alpha + n/r)/2 + i nu,
    inside ``_check_genfun_domain`` (``has_beta``: the member has a beta numerator)."""
    _check_genfun_domain(params, z, N, has_beta)
    z = [complex(x) for x in z]
    lhs = coeffs._phi_sum(member, params, z, N)
    return abs(lhs - closed(z, float(params.alpha), params.beta))


def genfun_residual_phi(
    params: ParamSet, z: Sequence[complex], sigma: Sequence[complex], N: int
) -> float:
    """Truncation residual of sum_m phi_m(sigma) Phi_m(z) against the closed form.

    r = 1:  (1-z)^{beta - alpha} (1 - sigma z)^{-beta},  beta = (alpha+1)/2 + i nu.
    d = 2:  prod_j (1-z_j)^{-alpha} times the determinant Cauchy kernel at
            (w, z') = (1 - sigma, -z/(1-z)), whose refusals name the command-line
            inputs, ``--theta`` (sigma = e^{i theta}) and ``--z``.
    """

    def closed(z, alpha, beta):
        s = [complex(x) for x in sigma]
        if params.r == 1:
            lead = _power(1 - z[0], beta - alpha, "(1 - z)^(beta - alpha) of the closed form")
            return lead * _power(1 - s[0] * z[0], -beta, "(1 - sigma z)^(-beta) of the closed form")
        rhs = cauchy_kernel_det(
            [1 - x for x in s], [-x / (1 - x) for x in z], beta,
            ("1 - sigma (--theta)", "-z/(1 - z) (--z)"), "use a smaller |nu| or alpha",
        )
        for x in z:
            rhs *= _power(1 - x, -alpha, "(1 - z)^(-alpha) of the closed form")
        return rhs

    return _genfun_residual(params, z, N, lambda m: mcj_build(m, params).evaluate(sigma), closed)


def genfun_residual_psi(
    params: ParamSet, z: Sequence[complex], t: Sequence[float], N: int
) -> float:
    """Truncation residual of sum_m Psi_m(t) Phi_m(z) against the closed form.

    r = 1: (1-z)^{-alpha} ((1+z)/(1-z) - i t)^{-beta}.
    d = 2: the determinant assembly with one-variable factors
           (1-z_p)^{-(alpha-r+1)} ((1+z_p)/(1-z_p) - i t_q)^{-((alpha-r)/2 + 1 + i nu)},
           whose refusals name the command-line inputs ``--z`` and ``--t``.
    """

    def closed(z, alpha, beta):
        r = params.r
        if r == 1:
            lead = _power(1 - z[0], -alpha, "(1 - z)^(-alpha) of the closed form")
            w = (1 + z[0]) / (1 - z[0]) - 1j * t[0]
            return lead * _power(w, -beta, "((1 + z)/(1 - z) - i t)^(-beta) of the closed form")
        expo = 0.5 * (alpha - r) + 1 + 1j * float(params.nu)
        return _det_formula(
            r,
            lambda p, q: _power(
                1 - z[p], -(alpha - r + 1), "(1 - z)^(-(alpha - r + 1)) of the closed form"
            ) * _power((1 + z[p]) / (1 - z[p]) - 1j * t[q], -expo,
                       "((1 + z)/(1 - z) - i t)^(-((alpha - r)/2 + 1 + i nu)) of the closed form"),
            {"z (--z)": z, "t (--t)": [complex(x) for x in t]},
            lambda c: _div_poch_product(
                c / (-2j) ** (r * (r - 1) // 2), expo, r, "(alpha - r)/2 + 1 + i nu"
            ),
        )

    residual = _genfun_residual(params, z, N, lambda m: psi_eval(m, params, t), closed)
    psi_eval((0,) * params.r, params, t, refuse_zero=True)  # Psi_0(t) is the prefactor
    return residual


def laguerre_genfun_residual(
    params: ParamSet, z: Sequence[complex], u: Sequence[float], N: int
) -> float:
    """Truncation residual of sum_m L_m(u) Phi_m(z) against the closed form.

    r = 1: (1-z)^{-alpha} exp(-u z/(1-z));  d = 2: the exponential-kernel
    determinant with arguments (-u, z/(1-z)).
    """

    def closed(z, alpha, beta):
        pref = 1.0 + 0j
        for x in z:
            pref *= _power(1 - x, -alpha, "(1 - z)^(-alpha) of the closed form")
        if params.r == 1:
            return pref * cmath.exp(-u[0] * z[0] / (1 - z[0]))
        y = [x / (1 - x) for x in z]
        return pref * hciz_det([-complex(v) for v in u], y)

    return _genfun_residual(
        params, z, N, lambda m: laguerre_build(m, params).eval_poly(u), closed, has_beta=False
    )


# ---------------------------------------------------------------------------
# Meixner-Pollaczek bridge (rank 1)
# ---------------------------------------------------------------------------


def mp1_eval(m: int, lam: float, s: complex, phi_angle: float) -> complex:
    """Rank-1 Meixner-Pollaczek value

        e^{i m phi} (2 lam)_m / m! sum_k (-1)^k C(m,k)
            (lam + i s)_k / (2 lam)_k (1 - e^{-2 i phi})^k.
    """
    x = 1 - cmath.exp(-2j * phi_angle)
    return _rank1_eval(m, lam + 1j * s, 2 * lam, x, cmath.exp(1j * m * phi_angle))
