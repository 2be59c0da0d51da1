"""Scalar combinatorial constants for the circular-Jacobi families.

Everything with Gamma-ratio structure at integer shifts is reduced
symbolically to rising factorials and evaluated in exact rational
arithmetic; floating Gamma functions only enter where a value is genuinely
transcendental (cone gamma function, torus norms).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import GammaPoleError, InvariantError, ParameterError
from .params import ParamSet
from .partitions import conjugate, enumerate_partitions, pad, weight
from .sympoly import _int_sum, spherical_poly

TWO_PI = 2.0 * math.pi

# the one-box recursions of ``_binom_row`` and ``_row_plan`` are |m| levels deep, about
# three frames each, so rows stop well short of the interpreter's 1000-frame recursion limit
_ROW_WEIGHT = 200


def _rising_num(n: int, q: int, k: int) -> int:
    """The integer numerator n (n + q) ... (n + (k-1) q) of (n/q)_k q^k."""
    out = 1
    for t in range(k):
        out *= n + t * q
    return out


def rising(x, k: int) -> Fraction:
    """Rising factorial x (x+1) ... (x+k-1) of an exact x = n/q, as one
    Fraction of the integer product n (n + q) ... (n + (k-1) q) over q^k."""
    return Fraction(_rising_num(x.numerator, x.denominator, k), x.denominator**k)


def _broadcast(s, r: int) -> list:
    if isinstance(s, (list, tuple)):
        if len(s) != r:
            raise ParameterError(f"argument vector has length {len(s)}, expected {r}")
        return list(s)
    return [s] * r


def _power(base: complex, expo: complex, factor: str, remedy="use a smaller |nu| or alpha"):
    """base ** expo; a power past the double range is refused, naming ``factor`` and
    the caller's ``remedy``, by default for an exponent made of a ParamSet's inputs."""
    try:
        return base ** expo
    except OverflowError:
        raise ParameterError(f"the factor {factor} is past the double range; {remedy}") from None


def _poch_ratio(sv: list, mm: tuple, params: ParamSet) -> tuple:
    """(s)_m of exact s_j as integers (num, den), den > 0, not reduced:
    s_j - (d/2) j = (s_n 2 d_q - s_q d_n j) / (s_q 2 d_q), one integer
    numerator and one integer denominator across every factor."""
    d_n, d_q = params.d_num, 2 * params.d_den
    num = den = 1
    for j in range(params.r):
        s_n, s_q = sv[j].numerator, sv[j].denominator
        q = s_q * d_q
        num *= _rising_num(s_n * d_q - s_q * d_n * j, q, mm[j])
        den *= q ** mm[j]
    return num, den


def gen_pochhammer(s, m: Sequence[int], params: ParamSet):
    """Generalized shifted factorial (s)_m = prod_j (s_j - (d/2)(j-1))_{m_j}.

    Scalar s broadcasts to (s, ..., s).  Exact when every input is rational
    (``_poch_ratio``), a complex double (``_poch_complex``) otherwise.
    """
    sv = _broadcast(s, params.r)
    if all(isinstance(x, (int, Fraction)) for x in sv):
        return Fraction(*_poch_ratio(sv, pad(m, params.r), params))
    return _poch_complex(sv, m, params)


# B_2k / (2k (2k - 1)), k = 1..8: the Stirling series of log Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)
_HALF_LOG_2PI_OVER_E = 0.5 * math.log(TWO_PI) - 0.5  # log(2 pi / e) / 2
# zeta(k) - 1, k = 2..46
_ZETA_1 = (
    0.64493406684822644, 0.20205690315959429, 0.082323233711138192, 0.036927755143369926,
    0.01734306198444914, 0.0083492773819228268, 0.0040773561979443394,
    0.0020083928260822144, 0.00099457512781808534, 0.00049418860411946456,
    0.0002460865533080483, 0.00012271334757848915, 6.1248135058704829e-5,
    3.0588236307020494e-5, 1.5282259408651872e-5, 7.6371976378997623e-6,
    3.8172932649998399e-6, 1.9082127165539389e-6, 9.5396203387279611e-7,
    4.7693298678780646e-7, 2.3845050272773299e-7, 1.1921992596531107e-7,
    5.960818905125948e-8, 2.980350351465228e-8, 1.4901554828365041e-8,
    7.4507117898354295e-9, 3.7253340247884571e-9, 1.862659723513049e-9,
    9.3132743241966818e-10, 4.6566290650337841e-10, 2.3283118336765055e-10,
    1.164155017270052e-10, 5.8207720879027009e-11, 2.9103850444970997e-11,
    1.4551921891041984e-11, 7.275959835057481e-12, 3.6379795473786512e-12,
    1.8189896503070659e-12, 9.0949478402638893e-13, 4.547473783042154e-13,
    2.2737368458246525e-13, 1.1368684076802278e-13, 5.6843419876275856e-14,
    2.8421709768893019e-14, 1.4210854828031607e-14,
)
# log Gamma(2 + w) = (1 - Euler's gamma) w + sum_k (-1)^k (zeta(k) - 1) w^k / k
# (Abramowitz & Stegun 6.1.33), to double precision for |w| <= 0.9
_AT_TWO = (1 - 0.57721566490153286061, *[(-1) ** k * c / k for k, c in enumerate(_ZETA_1, 2)])


def _poly(coefs: tuple, w: complex) -> complex:
    out = 0j
    for c in reversed(coefs):
        out = out * w + c
    return out


def _sinpi(z: complex) -> complex:
    """sin(pi z), with the real part reduced exactly to [-1/2, 1/2] first."""
    x = math.fmod(z.real, 2.0)  # exact; sin(pi (x + 2k)) = sin(pi x)
    if abs(x) > 0.5:  # sin(pi x) = sin(pi (1 - x)), cos(pi x) = -cos(pi (1 - x))
        x, sign = math.copysign(1.0, x) - x, -1.0
    else:
        sign = 1.0
    y = math.pi * z.imag
    return complex(math.sin(math.pi * x) * math.cosh(y), sign * math.cos(math.pi * x) * math.sinh(y))


def _loggamma(z: complex) -> complex:
    """log Gamma(z) on the branch that is continuous off the negative real
    axis and real on the positive one: a sum of logs, not the principal log
    of Gamma (Hare, "Computing the principal branch of log-Gamma", J.
    Algorithms 25, 1997).  On the positive real axis it is libm's lgamma;
    below it, the conjugate of the value above.  Within 0.9 of the zeros at 2
    and 1, the series of log Gamma(2 + w), with log Gamma(z) = log Gamma(z + 1)
    - log z about 1; for Re z < 1/2 the reflection formula with its branch
    term (while sin(pi z) stays in the double range); else the Stirling
    series, after the recurrence log Gamma(z) = log Gamma(z + k) - log(z (z +
    1) ... (z + k - 1)) has carried z past |z| = 7, the log of the product
    taken once and moved onto the branch by 2 pi i per turn of the product's
    argument past pi."""
    if math.copysign(1.0, z.imag) < 0:
        return _loggamma(z.conjugate()).conjugate()
    if z.imag == 0 and z.real > 0:
        return complex(math.lgamma(z.real))
    if abs(z - 2) <= 0.9:
        return _poly(_AT_TWO, z - 2) * (z - 2)
    if abs(z - 1) <= 0.9:
        return _poly(_AT_TWO, z - 1) * (z - 1) - cmath.log(z)
    if z.real < 0.5 and z.imag <= 200:
        # log Gamma(z) + log Gamma(1 - z) = log pi - log sin(pi z) + 2 pi i k,
        # with k jumping where sin(pi z) crosses the negative real axis
        branch = complex(math.log(math.pi), TWO_PI * math.floor(0.5 * z.real + 0.25))
        return branch - cmath.log(_sinpi(z)) - _loggamma(1 - z)
    prod, turns = 1 + 0j, 0
    while abs(z) < 7 and z.real < 7:
        # each factor's argument is in [0, pi), so the product's passes pi
        # exactly when its imaginary part turns negative
        nxt = prod * z
        turns += prod.imag >= 0 > nxt.imag
        prod, z = nxt, z + 1
    zr = 1 / z
    # (z - 1/2) log z - z + log(2 pi) / 2, with the z and the 1/2 folded in
    return (
        (z - 0.5) * (cmath.log(z) - 1) + _HALF_LOG_2PI_OVER_E + zr * _poly(_STIRLING, zr * zr)
        - cmath.log(prod) - complex(0, TWO_PI * turns)
    )


def gamma_omega_log(s, params: ParamSet) -> complex:
    """Log of the cone gamma function, on the branch of ``_loggamma``.

    Gamma_Omega(s) = (2 pi)^{(n-r)/2} prod_j Gamma(s_j - (d/2)(j-1)); the
    squared modulus |Gamma_Omega(x+iy)|^2 is exp(2 Re log Gamma_Omega).
    """
    sv = _broadcast(s, params.r)
    total = float((params.n - params.r) / 2) * math.log(TWO_PI) + 0j
    for j in range(params.r):
        a = complex(sv[j]) - float(params.d) / 2 * j
        if a.imag == 0.0 and a.real <= 0.0 and a.real == round(a.real):
            raise GammaPoleError(f"gamma pole at argument {a.real} (axis {j + 1})")
        total += _loggamma(a)
    return total


def _dim_ratio(mm: tuple, params: ParamSet) -> tuple:
    """d_m of a padded m as integers (num, den), den > 0, not reduced (``dim_dm``)."""
    a, b = params.d_num, 2 * params.d_den  # d/2 = a/b
    num = den = 1
    for p in range(params.r):
        for q in range(p + 1, params.r):
            g = q - p
            k = mm[p] - mm[q]
            # the b^k of the two rising factorials cancel
            num *= (k * b + a * g) * _rising_num(a * (g + 1), b, k)
            den *= a * g * _rising_num(a * (g - 1) + b, b, k)
    return num, den


def dim_dm(m: Sequence[int], params: ParamSet) -> Fraction:
    """Dimension d_m of the degree-m component, as an exact rational.

    Gamma-product form reduced to rising factorials (``_dim_ratio``):
        d_m = prod_{p<q} (k + (d/2)(q-p)) / ((d/2)(q-p))
              * ((d/2)(q-p+1))_k / ((d/2)(q-p-1) + 1)_k,   k = m_p - m_q.
    Well defined for every partition (including repeated parts) and every
    rational d > 0.
    """
    return Fraction(*_dim_ratio(pad(m, params.r), params))


def c0_tilde(params: ParamSet) -> float:
    """(2 pi)^{(n-r)/2} prod_j Gamma(d/2 + 1) / Gamma((d/2) j + 1) as a double;
    the Gamma ratio is an exact rational when it reduces (d even, or r = 1),
    a float Gamma product otherwise."""
    power = (params.n - params.r) / 2
    d2 = params.d / 2
    if params.r == 1 or d2.denominator == 1:
        factor = Fraction(1)
        for j in range(1, params.r + 1):
            # Gamma(d/2+1)/Gamma((d/2)j+1) = 1 / (d/2+1)_{(d/2)(j-1)}
            shift = d2 * (j - 1)
            factor /= rising(d2 + 1, int(shift))
    else:
        acc = 0.0
        for j in range(1, params.r + 1):
            acc += math.lgamma(float(d2) + 1) - math.lgamma(float(d2) * j + 1)
        factor = math.exp(acc)
    return float(factor) * TWO_PI ** float(power)


# ---------------------------------------------------------------------------
# generalized binomial coefficients
# ---------------------------------------------------------------------------


def _first_appearance(parts) -> tuple:
    """The keys of the key sequences ``parts`` in order of first appearance, and
    each part's positions in them: the d-free layout of a sum over the parts."""
    at: dict = {}
    ats = tuple(tuple(at.setdefault(key, len(at)) for key in part) for part in parts)
    return tuple(at), ats


def _check_plan(tables: list, ats: tuple, key: tuple) -> None:
    """Refuse per-d tables of ``key`` that do not fit their plan's positions ``ats``."""
    if [*map(len, tables)] != [*map(len, ats)]:
        raise InvariantError(f"the tables of {key} do not fit their d-free plan")


@lru_cache(maxsize=1024)
def _row_plan(m: tuple, r: int) -> tuple:
    """The d-free part of ``_one_box`` and ``_binom_row``, (peels, keys, ats, muls):
    each m - e_i, lex-largest first, with its boxes (a, l, a', l'), each a factor
    (d_num l' + 2 d_den a') / (d_num l + 2 d_den a) of the closed form times d; the
    row's keys after m in order of first appearance over the rows of the m - e_i
    (at every d, as binomials are positive), each of those rows' positions in them
    and, for L = lcm(1, ..., |m|), L and each L / (|m| - |k|)."""
    cols, w, peels = conjugate(m), weight(m), []
    for i in range(r - 1, -1, -1):  # the partitions m - e_i, lex-largest first
        mi = m[i]
        if mi > (m[i + 1] if i + 1 < r else 0):
            boxes = [(mi - 1 - c, cols[c] - 1 - i, mi - c, cols[c] - 1 - i) for c in range(mi - 1)]
            boxes += [(m[p] - mi, i - p, m[p] - mi, i - p + 1) for p in range(i)]  # above it
            peels.append((m[:i] + (mi - 1,) + m[i + 1:], tuple(boxes)))
    keys, ats = _first_appearance([(kappa, *_row_plan(kappa, r)[1]) for kappa, _ in peels])
    L = lcm(*range(1, w + 1))
    return tuple(peels), keys, ats, (L, *[L // (w - weight(k)) for k in keys])


def _one_box(m: tuple, d_num: int, d_den: int, r: int) -> list:
    """The one-box binomials binom(m, m - e_i), lex-largest m - e_i first, as
    [(m - e_i, num, den), ...] in integers; uncached, as ``_binom_row`` is cached.
    Lassalle's closed form (C. R. Acad. Sci. Paris 1990): with alpha = 2/d and the box
    at the end of row i removed, a factor (l + alpha (a + 1)) / (l + alpha a) for
    each other box of row i and (l + 1 + alpha a) / (l + alpha a) for each box above
    it, a and l the box's arm and leg in m, which ``_row_plan`` holds.  Checked:
    sum_i binom(m, m - e_i) = |m|."""
    two = 2 * d_den
    peeled: list = []
    for kappa, boxes in _row_plan(m, r)[0]:
        num = den = 1
        for a, leg, a1, leg1 in boxes:
            num *= d_num * leg1 + two * a1
            den *= d_num * leg + two * a
        peeled.append((kappa, num, den))
    total, den = _int_sum([(num, den) for _, num, den in peeled])
    if total != weight(m) * den:
        raise InvariantError("one-box binomials do not sum to |m|")
    return peeled


def check_row_weight(w: int) -> None:
    """Refuse binomial rows past weight ``_ROW_WEIGHT``."""
    if w > _ROW_WEIGHT:
        raise ParameterError(
            f"binomial rows at weight {w} recurse {w} levels deep, over the budget of "
            f"{_ROW_WEIGHT}; use a smaller weight"
        )


@lru_cache(maxsize=1024)
def _binom_row(m: tuple, d_num: int, d_den: int, r: int) -> tuple:
    """Coefficients of Phi_k in the expansion of Phi_m(1 + x), all k, at d = d_num/d_den
    in lowest terms, as (den, nums): binom(m, m) = 1, then the k in ``_row_plan``'s
    order, as integers over one denominator, by the one-box recursion (Lassalle 1990;
    Dumitriu, Edelman & Shuman 2007)
        (|m| - |k|) binom(m,k) = sum_i binom(m, m - e_i) binom(m - e_i, k),
    binom(m, m - e_i) in closed form (``_one_box``), the right side in integer
    numerators over D = lcm of its products' denominators, summed into the slots of
    ``_row_plan``, and the row over D lcm(1, ..., |m|) reduced by one gcd."""
    check_row_weight(weight(m))
    _, keys, ats, (L, *muls) = _row_plan(m, r)
    steps = [(b, e, _binom_row(kap, d_num, d_den, r)) for kap, b, e in _one_box(m, d_num, d_den, r)]
    _check_plan([sub for _, _, (_, sub) in steps], ats, m)
    den = lcm(*(e * sub_den for _, e, (sub_den, _) in steps))
    acc = [0] * len(keys)
    for (b, e, (sub_den, sub)), at in zip(steps, ats):
        scale = b * (den // (e * sub_den))
        for i, c in zip(at, sub):
            acc[i] += c * scale
    nums = [den * L, *[v * e for v, e in zip(acc, muls)]]
    g = gcd(*nums)
    return nums[0] // g, tuple([v // g for v in nums])


@lru_cache(maxsize=1024)
def _binom_view(m: tuple, d_num: int, d_den: int, r: int) -> dict:
    """The row of ``_binom_row`` as {k: Fraction}, made once per row for ``gen_binom``."""
    den, nums = _binom_row(m, d_num, d_den, r)
    return dict(zip((m, *_row_plan(m, r)[1]), [Fraction(v, den) for v in nums]))


_ZERO = Fraction(0)


def gen_binom(m: Sequence[int], k: Sequence[int], params: ParamSet) -> Fraction:
    """Generalized binomial coefficient: coefficient of Phi_k in Phi_m(1+x).

    Vanishes whenever k is not contained in m: the row of m holds exactly
    the k contained in m.
    """
    r = params.r
    # padded tuples, as the grid loops pass them, skip pad
    m = m if type(m) is tuple and len(m) == r else pad(m, r)
    k = k if type(k) is tuple and len(k) == r else pad(k, r)
    return _binom_view(m, params.d_num, params.d_den, r).get(k, _ZERO)


def gamma_k_partition(k: Sequence[int], x: Sequence[int], params: ParamSet) -> Fraction:
    """Shifted-Jack eigenvalue gamma_k at the partition argument x - rho.

    Recovered exactly from the binomial coefficients through
    binom(x, k) = d_k gamma_k(x - rho) / (n/r)_k.
    """
    nr_poch = gen_pochhammer(params.n_over_r, k, params)
    return gen_binom(x, k, params) * nr_poch / dim_dm(k, params)


# ---------------------------------------------------------------------------
# closed-form Jack evaluations and norms
# ---------------------------------------------------------------------------


def jack_at_ones(m: Sequence[int], params: ParamSet) -> Fraction:
    """Closed form for P_m^(2/d)(1,...,1), reduced to an exact rational.

    The Gamma-product form telescopes to
        prod_{p<q} ((d/2)(q-p+1))_{m_p - m_q} / ((d/2)(q-p))_{m_p - m_q}.
    Must agree with direct evaluation of the monomial expansion at ones.
    """
    mm = pad(m, params.r)
    d2 = params.d / 2
    out = Fraction(1)
    for p in range(params.r):
        for q in range(p + 1, params.r):
            k = mm[p] - mm[q]
            g = q - p
            out *= rising(d2 * (g + 1), k) / rising(d2 * g, k)
    return out


def expected_norm(m: Sequence[int], params: ParamSet) -> float:
    """Norm constant of the circular-Jacobi family member indexed by m:

        d_m Gamma_Omega(alpha + m) / (n/r)_m / |Gamma_Omega((alpha + n/r)/2 + i nu)|^2

    computed through log-gamma to avoid overflow.
    """
    if not params.orthogonality_ok():
        raise ParameterError(
            f"need alpha > (d/2)(r-1) = {float(params.d) / 2 * (params.r - 1)}, "
            f"got alpha = {params.alpha}"
        )
    mm = pad(m, params.r)
    alpha = float(params.alpha)
    lg_num = gamma_omega_log([alpha + mj for mj in mm], params)
    lg_den = gamma_omega_log(params.beta, params)
    nr_poch = float(gen_pochhammer(params.n_over_r, mm, params))
    return (
        float(dim_dm(mm, params))
        / nr_poch
        * math.exp(lg_num.real - 2.0 * lg_den.real)
    )


def delta_factorial(r: int) -> int:
    """delta! = (r-1)! (r-2)! ... 1! 0!"""
    out = 1
    for i in range(r):
        out *= math.factorial(i)
    return out


# ---------------------------------------------------------------------------
# truncated spherical sums and the spherical Taylor expansions
# ---------------------------------------------------------------------------


def _phi_sum(c, params: ParamSet, z: Sequence[complex], N: int) -> complex:
    """The truncated sum sum_{|m| <= N} c(m) Phi_m(z), added term by term in
    ``enumerate_partitions`` order; a partition whose c(m) is None is skipped,
    and its Phi_m not evaluated."""
    total = 0j
    for m in enumerate_partitions(N, params.r):
        coef = c(m)
        if coef is not None:
            total += coef * spherical_poly(m, params.d, params.r).evaluate(z)
    return total


def spherical_taylor_residual(
    k: Sequence[int],
    params: ParamSet,
    w_point: Sequence[complex],
    N: int,
    alpha: Optional[complex] = None,
) -> float:
    """Truncation residual of the two spherical Taylor expansions.

    With alpha given:
        (alpha)_k prod_j (1-w_j)^{-alpha} Phi_k(w/(1-w))
            = sum_{|x| <= N} d_x (alpha)_x / (n/r)_x gamma_k(x - rho) Phi_x(w) + tail.
    With alpha None (the exponential limit):
        exp(sum w_j) Phi_k(w)
            = sum_{|x| <= N} d_x / (n/r)_x gamma_k(x - rho) Phi_x(w) + tail.

    Returns |tail| at the given point.
    """
    r = params.r
    kk = pad(k, r)
    wv = [complex(x) for x in w_point]
    if len(wv) != r:
        raise ParameterError("point length must equal rank")

    def coef(x):  # None where gamma_k(x - rho) = 0, so Phi_x is not evaluated
        gk = gamma_k_partition(kk, x, params)
        if gk == 0:
            return None
        c = complex(dim_dm(x, params) * gk) / complex(gen_pochhammer(params.n_over_r, x, params))
        if alpha is not None:
            c *= _poch_complex(alpha, x, params)
        return c

    rhs = _phi_sum(coef, params, wv, N)
    phi_k = spherical_poly(kk, params.d, r)
    if alpha is not None:
        pref = _poch_complex(alpha, kk, params)
        for wj in wv:
            pref *= _power(1 - wj, -alpha, "(1 - w)^(-alpha) of the spherical Taylor expansion",
                           "use a smaller |alpha|")
        lhs = pref * phi_k.evaluate([wj / (1 - wj) for wj in wv])
    else:
        lhs = cmath.exp(sum(wv)) * phi_k.evaluate(wv)
    return abs(lhs - rhs)


def _poch_complex(s, m: Sequence[int], params: ParamSet) -> complex:
    """The generalized Pochhammer symbol (s)_m in complex doubles; a vector
    s as in ``gen_pochhammer``."""
    mm = pad(m, params.r)
    sv = _broadcast(s, params.r)
    out = 1.0 + 0j
    for j in range(params.r):
        base = complex(sv[j]) - float(params.d) / 2 * j
        for t in range(mm[j]):
            out *= base + t
    return out
