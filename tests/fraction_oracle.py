"""Frozen ``Fraction`` versions of the exact construction layer: the
oracles of the integer-numerator routines in ``coeffs``, ``sympoly`` and
``mcj``.

Each routine normalizes after every operation, as the library did before its
sums moved to integer numerators over one denominator.  The copies call only
each other and the library's containers (``SymPoly``, ``ParamSet``) and
partition helpers, so an oracle shares no arithmetic with the code it checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from mcjacobi.errors import InvariantError
from mcjacobi.params import ParamSet
from mcjacobi.partitions import _parts_desc, pad, weight
from mcjacobi.sympoly import SymPoly, _sort_key


def rising(x, k: int):
    """Rising factorial x (x+1) ... (x+k-1); exact for exact x."""
    out = x * 0 + 1 if not isinstance(x, (int, Fraction)) else Fraction(1)
    for t in range(k):
        out = out * (x + t)
    return out


def gen_pochhammer(s, m, params: ParamSet):
    """(s)_m = prod_j (s_j - (d/2)(j-1))_{m_j}, exact for rational s."""
    mm = pad(m, params.r)
    sv = list(s) if isinstance(s, (list, tuple)) else [s] * params.r
    out = Fraction(1)
    for j in range(params.r):
        out = out * rising(sv[j] - params.d / 2 * j, mm[j])
    return out


def dim_dm(m, params: ParamSet) -> Fraction:
    mm = pad(m, params.r)
    d2 = params.d / 2
    out = Fraction(1)
    for p in range(params.r):
        for q in range(p + 1, params.r):
            g = q - p
            k = mm[p] - mm[q]
            out *= (k + d2 * g) / (d2 * g)
            out *= rising(d2 * (g + 1), k)
            out /= rising(d2 * (g - 1) + 1, k)
    return out


def dominance_leq(a: tuple, b: tuple) -> bool:
    """a <= b in dominance order: equal weights, and no partial sum of a
    exceeds b's, for partitions padded to one length; the support of a
    Jack polynomial P_m is dominated by m."""
    return sum(a) == sum(b) and all(x <= y for x, y in zip(accumulate(a), accumulate(b)))


def _lb_eigenvalue(lam: tuple, alpha: Fraction, r: int) -> Fraction:
    return sum(
        (Fraction(li) * (alpha * (li - 1) / 2 + (r - 1 - idx)) for idx, li in enumerate(lam)),
        start=Fraction(0),
    )


@lru_cache(maxsize=None)
def _jack_terms(m: tuple, alpha: Fraction, r: int) -> tuple:
    w = weight(m)
    e_m = _lb_eigenvalue(m, alpha, r)
    coefs = {m: Fraction(1)}
    order = (pad(p, r) for p in _parts_desc(w, w, r))
    for mu in order:
        if mu == m:
            break
    for mu in order:
        num = Fraction(0)
        for i in range(r):
            for j in range(i + 1, r):
                for t in range(1, mu[j] + 1):
                    nu = list(mu)
                    nu[i] += t
                    nu[j] -= t
                    c_nu = coefs.get(tuple(sorted(nu, reverse=True)))
                    if c_nu:
                        num += (mu[i] - mu[j] + 2 * t) * c_nu
        if num:
            coefs[mu] = num / (e_m - _lb_eigenvalue(mu, alpha, r))
    return tuple(sorted(coefs.items(), key=lambda kv: _sort_key(kv[0])))


@lru_cache(maxsize=None)
def spherical_poly(m: tuple, d: Fraction, r: int) -> SymPoly:
    p = SymPoly(r, dict(_jack_terms(pad(m, r), Fraction(2, 1) / d, r)))
    return p.scale(Fraction(1) / p.eval_at_ones())


def _one_box(m: tuple, d: Fraction, r: int) -> list:
    phi = spherical_poly(m, d, r).terms
    peeled: list = []
    for i in range(r - 1, -1, -1):
        if m[i] == (m[i + 1] if i + 1 < r else 0):
            continue
        kappa = m[:i] + (m[i] - 1,) + m[i + 1:]
        c = Fraction(0)
        for j in range(r):
            up = list(kappa)
            up[j] += 1
            c += (kappa[j] + 1) * phi.get(tuple(sorted(up, reverse=True)), 0)
        for prev, b in peeled:
            c -= b * spherical_poly(prev, d, r).terms.get(kappa, 0)
        peeled.append((kappa, c / spherical_poly(kappa, d, r).terms[kappa]))
    if sum(b for _, b in peeled) != weight(m):
        raise InvariantError("one-box binomials do not sum to |m|")
    return peeled


@lru_cache(maxsize=None)
def _binom_row(m: tuple, d: Fraction, r: int) -> dict:
    acc: dict = {}
    for kappa, b in _one_box(m, d, r):
        for k, v in _binom_row(kappa, d, r).items():
            acc[k] = acc.get(k, 0) + b * v
    w = weight(m)
    row = {m: Fraction(1)}
    row.update((k, v / (w - weight(k))) for k, v in acc.items() if v)
    return row


@lru_cache(maxsize=None)
def _phi_one_plus(m: tuple, d: Fraction, r: int) -> SymPoly:
    terms: dict = {}
    for k, b in _binom_row(m, d, r).items():
        for lam, c in spherical_poly(k, d, r).terms.items():
            terms[lam] = terms.get(lam, 0) + b * c
    return SymPoly(r, terms)


def _phi_one_minus(m: tuple, d: Fraction, r: int) -> dict:
    return {
        lam: -c if weight(lam) % 2 else c
        for lam, c in _phi_one_plus(m, d, r).terms.items()
    }


def gen_binom(m, k, params: ParamSet) -> Fraction:
    row = _binom_row(pad(m, params.r), params.d, params.r)
    return row.get(pad(k, params.r), Fraction(0))


def family_body_exact(m, params: ParamSet, *, beta: bool, shifted: bool) -> SymPoly:
    """The exact family body as the kernel built it from Fraction factor
    tables: every product and every partial sum a normalized Fraction, the
    terms accumulated k by k in enumeration order with pop-on-zero."""
    r = params.r
    mm = pad(m, r)
    alpha = Fraction(params.alpha)
    beta_arg = (alpha + params.n_over_r) / 2
    row = sorted(_binom_row(mm, params.d, r).items(), key=lambda kb: _sort_key(kb[0]))
    pref = dim_dm(mm, params) * gen_pochhammer(alpha, mm, params)
    pref = pref / gen_pochhammer(params.n_over_r, mm, params)
    terms: dict = {}
    for k, b in row:
        coef = pref * (-1) ** weight(k) * b
        if beta:
            coef = coef * gen_pochhammer(beta_arg, k, params)
        coef = coef / gen_pochhammer(alpha, k, params)
        phi = _phi_one_minus(k, params.d, r) if shifted else spherical_poly(k, params.d, r).terms
        for lam, c in phi.items():
            v = terms.get(lam, 0) + c * coef
            if v == 0:
                terms.pop(lam, None)
            else:
                terms[lam] = v
    return SymPoly(r, terms)
