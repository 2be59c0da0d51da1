"""Frozen Gaussian-rational (``QComplex``) versions of the exact operator
checks: the oracles of the Gaussian-integer routines in ``mcj``.

``QComplex`` is a pair of ``Fraction``s that normalizes after every
operation, as the library's operator layer did before its coefficients and
residuals moved to Gaussian integers over one denominator.  The coefficient
loops are the hand-rolled ones that preceded ``mcj._rank1_coeffs``; the
residuals apply the same operators term by term.  Nothing here calls the
library's arithmetic, so an oracle shares none of it with the code it checks.

Each residual takes ``double``: the index of one series coefficient to
double before the operator is applied, a mutation whose non-zero residual
the live code must reproduce to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from mcjacobi.errors import ParameterError


@dataclass(frozen=True)
class QComplex:
    re: Fraction
    im: Fraction

    @staticmethod
    def lift(x) -> "QComplex":
        if isinstance(x, QComplex):
            return x
        return QComplex(Fraction(x), Fraction(0))

    def __add__(self, other):
        o = QComplex.lift(other)
        return QComplex(self.re + o.re, self.im + o.im)

    def __neg__(self):
        return QComplex(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-QComplex.lift(other))

    def __mul__(self, other):
        o = QComplex.lift(other)
        return QComplex(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = QComplex.lift(other)
        den = o.re * o.re + o.im * o.im
        if den == 0:
            raise ZeroDivisionError("division by exact zero")
        return QComplex(
            (self.re * o.re + self.im * o.im) / den,
            (self.im * o.re - self.re * o.im) / den,
        )

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def abs_float(self) -> float:
        return abs(complex(float(self.re), float(self.im)))


QC_ZERO = QComplex(Fraction(0), Fraction(0))
QC_ONE = QComplex(Fraction(1), Fraction(0))
QC_I = QComplex(Fraction(0), Fraction(1))


def pairs(values) -> list:
    """QComplex values as (re, im) Fraction pairs."""
    return [(c.re, c.im) for c in values]


def fraction_pairs(den: int, terms) -> list:
    """Gaussian-integer numerators (re, im) over den as (re, im) Fraction pairs."""
    return [(Fraction(x, den), Fraction(y, den)) for x, y in terms]


def _doubled(values: list, double: Optional[int]) -> list:
    if double is not None:
        values = list(values)
        values[double] = values[double] * 2
    return values


def psi_coeffs(m, alpha, nu):
    """k -> the coefficient of (1 - i t)^{-(beta + k)} in rank-1 Psi."""
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
    return terms


def laguerre1_coeffs(m, alpha):
    """The coefficients of L_m^{(alpha-1)}(2u) in powers of u."""
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


def ode_coeffs(m, alpha, nu):
    """The coefficients a_k of sum_k a_k (1 - sigma)^k in the one-variable ODE."""
    a = Fraction(alpha)
    b1 = QComplex((a + 1) / 2, Fraction(nu))
    pref = QC_ONE
    for t in range(m):
        pref = pref * QComplex(Fraction(a + t) / (t + 1), Fraction(0))
    out = []
    num = QC_ONE
    den = QC_ONE
    for k in range(m + 1):
        out.append(pref * ((-1) ** k * comb(m, k)) * num / den)
        num = num * (b1 + k)
        den = den * QComplex(a + k, Fraction(0))
    return out


def rank1_operator_residuals(m: int, alpha: float, nu: float, double: Optional[int] = None):
    """(residual_laguerre, residual_psi) of the two rank-1 eigenrelations."""
    a = Fraction(alpha)
    nu_f = Fraction(nu)

    p = _doubled(laguerre1_coeffs(m, a), double)

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

    coeffs = _doubled(list(psi_coeffs(m, alpha, nu).values()), double)
    beta = QComplex((a + 1) / 2, nu_f)
    pot = QComplex((a - 1) ** 2 / 4 + nu_f**2, Fraction(0))
    two_nu_minus_i = QComplex(2 * nu_f, Fraction(-1))
    out: dict = {}

    def add(idx, val):
        out[idx] = out.get(idx, QC_ZERO) + val

    for k, c in enumerate(coeffs):
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


def ode_residual_onevar(m: int, alpha: float, nu: float, double: Optional[int] = None) -> float:
    """The largest coefficient of the one-variable hypergeometric annihilator
    applied to the degree-m family member."""
    a = Fraction(alpha)
    b1 = QComplex((a + 1) / 2, Fraction(nu))

    # expand sum_k a_k (1-sigma)^k into the power basis
    p = [QC_ZERO] * (m + 1)
    for k, a_k in enumerate(_doubled(ode_coeffs(m, alpha, nu), double)):
        for t in range(k + 1):
            p[t] = p[t] + a_k * ((-1) ** t * comb(k, t))

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
