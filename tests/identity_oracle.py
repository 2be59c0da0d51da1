"""Frozen copies of the d = 2 determinant formulas, the Cauchy and exponential
kernels and the three generating-function residuals as they stood when each
was assembled by hand: five copies of ``pref det[f(p, q)] / V(x) V(y)`` and
three copies of the truncated sum over |m| <= N.  The package's versions must
give these values, exceptions and messages bit for bit, except where they
refuse on purpose what these divide by zero or sum without bound, where
the one determinant assembly words the refusal of coincident Cauchy entries,
and where the generating-function residuals name their vectors by the
command-line inputs (``--theta``, ``--z``, ``--t``).

The family members, the rank-1 series and the domain check are the
package's; each of those has its own oracle.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

import numpy as np

from mcjacobi import coeffs
from mcjacobi.coeffs import delta_factorial, dim_dm, gen_pochhammer
from mcjacobi.errors import ParameterError, VandermondeZeroError
from mcjacobi.mcj import (
    _check_genfun_domain, _require_d2, cj1_eval, laguerre_build, mcj_build, psi1_eval, psi_eval,
)
from mcjacobi.params import ParamSet
from mcjacobi.partitions import enumerate_partitions, pad
from mcjacobi.sympoly import spherical_poly


def _vandermonde(v):
    out = 1.0 + 0j
    n = len(v)
    for p in range(n):
        for q in range(p + 1, n):
            out *= v[p] - v[q]
    return out


def _check_distinct(v, what, tol=1e-12):
    n = len(v)
    for p in range(n):
        for q in range(p + 1, n):
            if abs(v[p] - v[q]) < tol:
                raise VandermondeZeroError(f"coincident {what} values: {v[p]} ~ {v[q]}")


def _schur_at_ones(m, r):
    val = Fraction(1)
    mm = pad(m, r)
    for p in range(r):
        for q in range(p + 1, r):
            val *= Fraction(mm[p] - mm[q] + q - p, q - p)
    return int(val)


def _div_poch_product(pref, x, r):
    for j in range(1, r + 1):
        acc = 1.0 + 0j
        for t in range(j - 1):
            acc *= x + t
        pref /= acc
    return pref


def _det_prefactor(m, params):
    r = params.r
    alpha = float(params.alpha)
    nu = float(params.nu)
    base = 0.5 * (alpha - r) + 1j * nu + 1
    return _div_poch_product(complex(_schur_at_ones(m, r) * delta_factorial(r)), base, r)


def det_eval_phi(m, params, sigma):
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


def det_eval_psi(m, params, t):
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


def cauchy_kernel_series(w, z, beta, d, N):
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


def cauchy_kernel_det(w, z, beta):
    if len(w) != len(z):
        raise ParameterError("w and z must have the same length")
    r = len(w)
    w = [complex(x) for x in w]
    z = [complex(x) for x in z]
    if all(x == 0 for x in w) or all(x == 0 for x in z):
        return 1.0 + 0j
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


def hciz_det(x, y):
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


def genfun_residual_phi(params, z, sigma, N):
    _check_genfun_domain(params, z, N)
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


def genfun_residual_psi(params, z, t, N):
    _check_genfun_domain(params, z, N)
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


def laguerre_genfun_residual(params, z, u, N):
    _check_genfun_domain(params, z, N, False)
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
