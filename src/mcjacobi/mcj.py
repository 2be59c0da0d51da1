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
from functools import lru_cache
from math import comb
from typing import Optional, Sequence

import numpy as np

from . import coeffs
from .coeffs import delta_factorial, dim_dm, gen_binom, gen_pochhammer
from .errors import ParameterError, VandermondeZeroError
from .exact import QC_I, QC_ONE, QC_ZERO, QComplex
from .params import ParamSet
from .partitions import Partition, contains, enumerate_partitions, pad, weight
from .sympoly import CSymPoly, SymPoly, spherical_poly


def _check_poch_nonzero(m: Sequence[int], params: ParamSet) -> None:
    """(alpha)_k must be nonzero for every k contained in m; tested exactly
    when alpha is exact, since a float test misses zeros such as 4/3 - 7/3 + 1."""
    mm = pad(m, params.r)
    if params.alpha_is_exact:
        alpha, d2 = Fraction(params.alpha), params.d / 2
    else:
        alpha, d2 = float(params.alpha), float(params.d) / 2
    for j in range(params.r):
        base = alpha - d2 * j
        for t in range(mm[j]):
            if base + t == 0:
                raise ParameterError(
                    f"(alpha)_k vanishes: alpha - (d/2)({j}) + {t} = 0"
                )


def _family_body(
    m: Sequence[int], params: ParamSet, *, beta: bool, shifted: bool, exact: bool
):
    """The finite sum behind all three families, as a monomial-basis body:

        d_m (alpha)_m / (n/r)_m
            sum_{k subset m} (-1)^{|k|} binom(m,k) (beta)_k / (alpha)_k  Phi_k(X)

    with beta = (alpha + n/r)/2 + i nu, or no numerator at all when ``beta``
    is false (Laguerre), and X = 1 - sigma when ``shifted``, the variable
    itself otherwise.  Exact rationals (``SymPoly``) when ``exact``, complex
    doubles (``CSymPoly``) otherwise.
    """
    r = params.r
    mm = pad(m, r)
    _check_poch_nonzero(mm, params)
    if exact:
        scalar, poch = Fraction, gen_pochhammer
        alpha = Fraction(params.alpha)
        beta_arg = (alpha + params.n_over_r) / 2
    else:
        scalar, poch = complex, coeffs._poch_complex
        alpha = complex(float(params.alpha))
        beta_arg = 0.5 * (alpha + float(params.n_over_r)) + 1j * float(params.nu)
    pref = (
        scalar(dim_dm(mm, params))
        * poch(alpha, mm, params)
        / scalar(gen_pochhammer(params.n_over_r, mm, params))
    )
    terms: dict = {}
    for k in enumerate_partitions(weight(mm), r):
        if not contains(mm, k):
            continue
        b = gen_binom(mm, k, params)
        if b == 0:
            continue
        coef = pref * (-1) ** weight(k) * scalar(b)
        if beta:
            coef = coef * poch(beta_arg, k, params)
        coef = coef / poch(alpha, k, params)
        if shifted:
            phi = coeffs._phi_one_minus(k, params.d, r)
        else:
            phi = spherical_poly(k, params.d, r).terms
        # complex terms accumulate k by k in enumeration order: the rounding of
        # the body feeds the byte-identical orthogonality reports
        for lam, c in phi.items():
            v = terms.get(lam, 0) + scalar(c) * coef
            if v == 0:
                terms.pop(lam, None)
            else:
                terms[lam] = v
    return (SymPoly if exact else CSymPoly)(r, terms)


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


@lru_cache(maxsize=None)
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
    if exact:
        return MCJPolynomial(mm, params, body.to_complex(), body)
    return MCJPolynomial(mm, params, body, None)


def cj1_eval(m: int, alpha: float, nu: float, sigma: complex) -> complex:
    """One-variable circular Jacobi value, as the terminating sum

        (alpha)_m / m! sum_k (-1)^k C(m,k) ((alpha+1)/2 + i nu)_k / (alpha)_k (1-sigma)^k.
    """
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

    def eval_psi(self, u: Sequence[float]) -> complex:
        """exp(-tr u) * L(2u)."""
        return cmath.exp(-sum(u)) * self.body.evaluate([2 * x for x in u])


@lru_cache(maxsize=None)
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


def psi_eval(m: Sequence[int], params: ParamSet, t: Sequence[float]) -> complex:
    """Psi_m(t) = prod_j (1 - i t_j)^{-beta} * psi_tilde(2/(1 - i t)).

    Principal powers throughout; the prefactor equals 1 at t = 0.
    """
    if len(t) != params.r:
        raise ParameterError("t must have length r")
    beta = 0.5 * (float(params.alpha) + float(params.n_over_r)) + 1j * float(params.nu)
    pref = 1.0 + 0j
    w = []
    for tj in t:
        base = 1 - 1j * tj
        pref *= base ** (-beta)
        w.append(2.0 / base)
    return pref * psi_tilde_eval(m, params, w)


def psi1_eval(m: int, alpha: float, nu: float, t: float) -> complex:
    """One-variable Psi value (rank-1 case of psi_eval)."""
    p = ParamSet(r=1, d=2, alpha=alpha, nu=nu)
    return psi_eval((m,), p, [t])


@dataclass(frozen=True)
class PsiFunction:
    """Rank-1 Psi as a finite span of powers (1 - i t)^{-(beta + k)}.

    ``coeffs[k]`` multiplies (1 - i t)^{-(beta + k)}; exact Gaussian-rational
    coefficients so that operator identities can be checked symbolically.
    """

    m: int
    alpha: float
    nu: float
    beta: QComplex
    coeffs: dict  # k -> QComplex

    @staticmethod
    def build(m: int, alpha: float, nu: float) -> "PsiFunction":
        a = Fraction(alpha)
        beta = QComplex((a + 1) / 2, Fraction(nu))
        pref = QC_ONE
        for tt in range(m):
            pref = pref * QComplex(Fraction(a + tt) / (tt + 1), Fraction(0))
        terms = {}
        num = QC_ONE
        den = QC_ONE
        for k in range(m + 1):
            c = pref * ((-1) ** k * comb(m, k)) * (2**k) * num / den
            terms[k] = c
            num = num * (beta + k)
            den = den * QComplex(a + k, Fraction(0))
        return PsiFunction(m, alpha, nu, beta, terms)

    def eval(self, t: float) -> complex:
        b = self.beta.to_complex()
        total = 0j
        for k, c in sorted(self.coeffs.items()):
            total += c.to_complex() * (1 - 1j * t) ** (-(b + k))
        return total


# ---------------------------------------------------------------------------
# operator residuals (all exact)
# ---------------------------------------------------------------------------


def _laguerre1_coeffs(m: int, alpha: Fraction) -> list:
    """Exact coefficients of L_m^{(alpha-1)}(2u) in powers of u."""
    pref = Fraction(1)
    for t in range(m):
        pref *= Fraction(alpha + t, t + 1)
    out = []
    den = Fraction(1)  # (alpha)_k
    for k in range(m + 1):
        if k > 0:
            den *= alpha + (k - 1)
        out.append(pref * (-1) ** k * comb(m, k) * Fraction(2) ** k / den)
    return out


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
    a = Fraction(alpha)
    nu_f = Fraction(nu)

    # Laguerre side, exact rational polynomial algebra in u
    p = _laguerre1_coeffs(m, a)

    def dcoef(c):  # derivative
        return [c[k] * k for k in range(1, len(c))]

    p1 = dcoef(p)
    p2 = dcoef(p1)

    res = [Fraction(0)] * (m + 2)
    for k, c in enumerate(p2):  # -u p''
        res[k + 1] -= c
    for k, c in enumerate(p1):  # 2u p' - alpha p'
        res[k + 1] += 2 * c
        res[k] -= a * c
    for k, c in enumerate(p):  # -2m p
        res[k] -= 2 * m * c
    res1 = max((abs(c) for c in res), default=Fraction(0))

    # Psi side, exact Gaussian-rational span algebra
    psi = PsiFunction.build(m, alpha, nu)
    beta = psi.beta
    pot = QComplex((a - 1) ** 2 / 4 + nu_f**2, Fraction(0))
    two_nu_minus_i = QComplex(2 * nu_f, Fraction(-1))
    out: dict = {}

    def add(idx, val):
        out[idx] = out.get(idx, QC_ZERO) + val

    for k, c in psi.coeffs.items():
        gamma = beta + k
        # -i (1+t^2) d_t : gamma * (2 (.)^{-g} - (.)^{-g+1})
        add(k, c * gamma * 2)
        add(k - 1, -(c * gamma))
        # (2 nu - i) t
        add(k - 1, c * two_nu_minus_i * QC_I)
        add(k, -(c * two_nu_minus_i * QC_I))
        # -alpha
        add(k, -(c * QComplex(a, Fraction(0))))
        # i * pot * d_t^{-1} -> pot / (gamma - 1) at exponent k-1
        if not pot.is_zero():
            gm1 = gamma - 1
            if gm1.is_zero():
                raise ParameterError("antiderivative undefined: exponent gamma = 1")
            add(k - 1, c * pot / gm1)
        # eigenvalue
        add(k, -(c * (2 * m)))

    res2 = max((v.abs_float() for v in out.values()), default=0.0)
    return float(res1), res2


def ode_residual_onevar(m: int, alpha: float, nu: float) -> float:
    """Apply the one-variable hypergeometric annihilator

        sigma (1-sigma) p'' + ((3/2 - m + i nu)(1 - sigma) - (alpha/2)(1 + sigma)) p'
            + m ((alpha+1)/2 + i nu) p

    to the exact coefficient vector of the degree-m family member; returns
    the largest residual coefficient (exactly zero in exact arithmetic).
    """
    a = Fraction(alpha)
    b1 = QComplex((a + 1) / 2, Fraction(nu))
    pref = QC_ONE
    for t in range(m):
        pref = pref * QComplex(Fraction(a + t) / (t + 1), Fraction(0))

    # expand sum_k a_k (1-sigma)^k into the power basis
    p = [QC_ZERO] * (m + 1)
    num = QC_ONE
    den = QC_ONE
    for k in range(m + 1):
        a_k = pref * ((-1) ** k * comb(m, k)) * num / den
        for t in range(k + 1):
            p[t] = p[t] + a_k * ((-1) ** t * comb(k, t))
        num = num * (b1 + k)
        den = den * QComplex(a + k, Fraction(0))

    def deriv(c):
        return [c[k] * k for k in range(1, len(c))]

    p1 = deriv(p)
    p2 = deriv(p1)
    c_lin = QComplex(Fraction(3, 2) - m, Fraction(nu))  # 3/2 - m + i nu
    half_a = QComplex(a / 2, Fraction(0))

    res = [QC_ZERO] * (m + 3)
    for k, c in enumerate(p2):  # sigma(1-sigma) p''
        res[k + 1] = res[k + 1] + c
        res[k + 2] = res[k + 2] - c
    for k, c in enumerate(p1):  # (c_lin (1-sigma) - a/2 (1+sigma)) p'
        res[k] = res[k] + c * (c_lin - half_a)
        res[k + 1] = res[k + 1] - c * (c_lin + half_a)
    for k, c in enumerate(p):  # + m b1 p
        res[k] = res[k] + c * b1 * m
    return max((c.abs_float() for c in res), default=0.0)


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
    n = len(v)
    for p in range(n):
        for q in range(p + 1, n):
            out *= v[p] - v[q]
    return out


def _check_distinct(v: Sequence[complex], what: str, tol: float = 1e-12):
    n = len(v)
    for p in range(n):
        for q in range(p + 1, n):
            if abs(v[p] - v[q]) < tol:
                raise VandermondeZeroError(f"coincident {what} values: {v[p]} ~ {v[q]}")


def _schur_at_ones(m: Sequence[int], r: int) -> int:
    val = Fraction(1)
    mm = pad(m, r)
    for p in range(r):
        for q in range(p + 1, r):
            val *= Fraction(mm[p] - mm[q] + q - p, q - p)
    return int(val)


def _div_poch_product(pref: complex, x: complex, r: int) -> complex:
    """pref * prod_{j=1..r} (x)_{j-1}^{-1}, one division per j."""
    for j in range(1, r + 1):
        acc = 1.0 + 0j
        for t in range(j - 1):
            acc *= x + t
        pref /= acc
    return pref


def _det_prefactor(m, params: ParamSet) -> complex:
    r = params.r
    alpha = float(params.alpha)
    nu = float(params.nu)
    base = 0.5 * (alpha - r) + 1j * nu + 1
    return _div_poch_product(complex(_schur_at_ones(m, r) * delta_factorial(r)), base, r)


def det_eval_phi(m: Sequence[int], params: ParamSet, sigma: Sequence[complex]) -> complex:
    """Degree-shifted determinant formula for the d = 2 family:

        s_m(1..1) delta! prod_j ((alpha-r)/2 + i nu + 1)_{j-1}^{-1}
            det( cj1[(alpha-r+1, nu)]_{m_p + r - p}(sigma_q) ) / V(sigma).
    """
    _require_d2(params)
    mm = pad(m, params.r)
    r = params.r
    _check_distinct(sigma, "sigma")
    a1 = float(params.alpha) - r + 1
    mat = np.empty((r, r), dtype=complex)
    for p in range(r):
        deg = mm[p] + r - (p + 1)
        for q in range(r):
            mat[p, q] = cj1_eval(deg, a1, float(params.nu), sigma[q])
    return _det_prefactor(mm, params) * complex(np.linalg.det(mat)) / _vandermonde(sigma)


def det_eval_psi(m: Sequence[int], params: ParamSet, t: Sequence[float]) -> complex:
    """Determinant formula for Psi at d = 2 (real nodes t, pairwise distinct)."""
    _require_d2(params)
    mm = pad(m, params.r)
    r = params.r
    _check_distinct([complex(x) for x in t], "t")
    a1 = float(params.alpha) - r + 1
    mat = np.empty((r, r), dtype=complex)
    for p in range(r):
        deg = mm[p] + r - (p + 1)
        for q in range(r):
            mat[p, q] = psi1_eval(deg, a1, float(params.nu), t[q])
    pref = _det_prefactor(mm, params) / (-2j) ** (r * (r - 1) // 2)
    return pref * complex(np.linalg.det(mat)) / _vandermonde([complex(x) for x in t])


# ---------------------------------------------------------------------------
# Cauchy kernel
# ---------------------------------------------------------------------------


def cauchy_kernel_series(
    w: Sequence[complex], z: Sequence[complex], beta: complex, d, N: int
) -> complex:
    """Truncated spherical expansion sum_m d_m (beta)_m/(n/r)_m Phi_m(w) Phi_m(z)."""
    r = len(w)
    p = ParamSet(r=r, d=d)
    total = 0j
    for m in enumerate_partitions(N, r):
        coef = complex(dim_dm(m, p)) * coeffs._poch_complex(complex(beta), m, p) / complex(
            gen_pochhammer(p.n_over_r, m, p)
        )
        total += (
            coef
            * spherical_poly(m, p.d, r).evaluate(w)
            * spherical_poly(m, p.d, r).evaluate(z)
        )
    return total


def cauchy_kernel_det(
    w: Sequence[complex], z: Sequence[complex], beta: complex
) -> complex:
    """Determinant form of the spherical Cauchy kernel at multiplicity 2:

        delta! prod_j (beta - r + 1)_{j-1}^{-1}
            det((1 - w_p z_q)^{-(beta - r + 1)}) / (V(w) V(z)).

    Falls back to the truncated series when entries coincide (for example in
    the z -> 0 limit), provided both spectral norms are below 1.
    """
    if len(w) != len(z):
        raise ParameterError("w and z must have the same length")
    r = len(w)
    w = [complex(x) for x in w]
    z = [complex(x) for x in z]
    if all(x == 0 for x in w) or all(x == 0 for x in z):
        return 1.0 + 0j  # only the constant term of the expansion survives
    coincident = False
    for v in (w, z):
        for p in range(r):
            for q in range(p + 1, r):
                if abs(v[p] - v[q]) < 1e-12:
                    coincident = True
    if coincident:
        if max(abs(x) for x in w) < 1 and max(abs(x) for x in z) < 1:
            return cauchy_kernel_series(w, z, beta, 2, 30)
        raise VandermondeZeroError("coincident entries outside the series domain")
    expo = complex(beta) - r + 1
    mat = np.empty((r, r), dtype=complex)
    for p in range(r):
        for q in range(r):
            base = 1 - w[p] * z[q]
            if base == 0:
                raise ParameterError("branch pole: 1 - w_p z_q = 0")
            mat[p, q] = base ** (-expo)
    pref = _div_poch_product(complex(delta_factorial(r)), expo, r)
    return pref * complex(np.linalg.det(mat)) / (_vandermonde(w) * _vandermonde(z))


def hciz_det(x: Sequence[complex], y: Sequence[complex]) -> complex:
    """Rank-r exponential kernel at multiplicity 2:

        delta! det(exp(x_p y_q)) / (V(x) V(y)),

    the determinant form of the average of exp over the isotropy group.
    """
    r = len(x)
    if r == 1:
        return cmath.exp(x[0] * y[0])
    mat = np.empty((r, r), dtype=complex)
    for p in range(r):
        for q in range(r):
            mat[p, q] = cmath.exp(x[p] * y[q])
    return (
        complex(delta_factorial(r))
        * complex(np.linalg.det(mat))
        / (_vandermonde(list(x)) * _vandermonde(list(y)))
    )


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------


def _check_genfun_domain(params: ParamSet, z: Sequence[complex]):
    if len(z) != params.r:
        raise ParameterError("z must have length r")
    if max(abs(complex(x)) for x in z) >= 1 / 3:
        raise ParameterError("spectral bound violated: need max |z_j| < 1/3")
    if params.r != 1 and params.d != 2:
        raise ParameterError("closed generating forms need r = 1 or d = 2")


def genfun_residual_phi(
    params: ParamSet, z: Sequence[complex], sigma: Sequence[complex], N: int
) -> float:
    """Truncation residual of sum_m phi_m(sigma) Phi_m(z) against the closed form.

    r = 1:  (1-z)^{beta - alpha} (1 - sigma z)^{-beta},  beta = (alpha+1)/2 + i nu.
    d = 2:  prod_j (1-z_j)^{-alpha} times the determinant Cauchy kernel at
            (w, z') = (1 - sigma, -z/(1-z)).
    """
    _check_genfun_domain(params, z)
    r = params.r
    z = [complex(x) for x in z]
    sigma = [complex(x) for x in sigma]
    alpha = float(params.alpha)
    beta = 0.5 * (alpha + float(params.n_over_r)) + 1j * float(params.nu)

    lhs = 0j
    for m in enumerate_partitions(N, r):
        lhs += mcj_build(m, params).evaluate(sigma) * spherical_poly(
            m, params.d, r
        ).evaluate(z)

    if r == 1:
        rhs = (1 - z[0]) ** (beta - alpha) * (1 - sigma[0] * z[0]) ** (-beta)
    else:
        w = [1 - s for s in sigma]
        zp = [-x / (1 - x) for x in z]
        rhs = cauchy_kernel_det(w, zp, beta)
        for x in z:
            rhs *= (1 - x) ** (-alpha)
    return abs(lhs - rhs)


def genfun_residual_psi(
    params: ParamSet, z: Sequence[complex], t: Sequence[float], N: int
) -> float:
    """Truncation residual of sum_m Psi_m(t) Phi_m(z) against the closed form.

    r = 1: (1-z)^{-alpha} ((1+z)/(1-z) - i t)^{-beta}.
    d = 2: the determinant assembly with one-variable factors
           (1-z_p)^{-(alpha-r+1)} ((1+z_p)/(1-z_p) - i t_q)^{-((alpha-r)/2 + 1 + i nu)}.
    """
    _check_genfun_domain(params, z)
    r = params.r
    z = [complex(x) for x in z]
    alpha = float(params.alpha)
    nu = float(params.nu)
    beta = 0.5 * (alpha + float(params.n_over_r)) + 1j * nu

    lhs = 0j
    for m in enumerate_partitions(N, r):
        lhs += psi_eval(m, params, t) * spherical_poly(m, params.d, r).evaluate(z)

    if r == 1:
        rhs = (1 - z[0]) ** (-alpha) * ((1 + z[0]) / (1 - z[0]) - 1j * t[0]) ** (-beta)
    else:
        _check_distinct(z, "z")
        _check_distinct([complex(x) for x in t], "t")
        expo = 0.5 * (alpha - r) + 1 + 1j * nu
        mat = np.empty((r, r), dtype=complex)
        for p in range(r):
            for q in range(r):
                mat[p, q] = (1 - z[p]) ** (-(alpha - r + 1)) * (
                    (1 + z[p]) / (1 - z[p]) - 1j * t[q]
                ) ** (-expo)
        pref = _div_poch_product(
            complex(delta_factorial(r)) / (-2j) ** (r * (r - 1) // 2), expo, r
        )
        rhs = (
            pref
            * complex(np.linalg.det(mat))
            / (_vandermonde(z) * _vandermonde([complex(x) for x in t]))
        )
    return abs(lhs - rhs)


def laguerre_genfun_residual(
    params: ParamSet, z: Sequence[complex], u: Sequence[float], N: int
) -> float:
    """Truncation residual of sum_m L_m(u) Phi_m(z) against the closed form.

    r = 1: (1-z)^{-alpha} exp(-u z/(1-z));  d = 2: the exponential-kernel
    determinant with arguments (-u, z/(1-z)).
    """
    _check_genfun_domain(params, z)
    r = params.r
    z = [complex(x) for x in z]
    alpha = float(params.alpha)

    lhs = 0j
    for m in enumerate_partitions(N, r):
        lhs += laguerre_build(m, params).eval_poly(u) * spherical_poly(
            m, params.d, r
        ).evaluate(z)

    pref = 1.0 + 0j
    for x in z:
        pref *= (1 - x) ** (-alpha)
    if r == 1:
        rhs = pref * cmath.exp(-u[0] * z[0] / (1 - z[0]))
    else:
        y = [x / (1 - x) for x in z]
        rhs = pref * hciz_det([-complex(v) for v in u], y)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Meixner-Pollaczek bridge (rank 1)
# ---------------------------------------------------------------------------


def mp1_eval(m: int, lam: float, s: complex, phi_angle: float) -> complex:
    """Rank-1 Meixner-Pollaczek value

        e^{i m phi} (2 lam)_m / m! sum_k (-1)^k C(m,k)
            (lam + i s)_k / (2 lam)_k (1 - e^{-2 i phi})^k.
    """
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
