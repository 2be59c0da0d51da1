"""Exact symmetric-polynomial algebra in r variables, monomial basis.

``SymPoly`` carries exact rational coefficients (``fractions.Fraction``);
``CSymPoly`` carries complex doubles.  Promotion is one-way, exact -> complex.
A polynomial is a finite sum  sum_lambda c_lambda m_lambda  where m_lambda is
the monomial symmetric polynomial over the orbit of the exponent vector
lambda (zero-padded to the arity).  ``evaluate_points_many`` evaluates a
list of polynomials at a node set, given as one column per coordinate, with
one pass over the union of their monomials, computing each m_lambda once.

The module also provides the three polynomial families everything else is
built from:

* ``jack_mono``   -- Jack polynomial P_m^(alpha), alpha = 2/d, monic in m_m,
  constructed as the dominance-triangular eigenvector of the alpha-deformed
  Laplace-Beltrami operator, all in exact rational arithmetic: the operator's
  closed-form action on the monomial basis turns the eigen-equation into a
  recurrence that fills in one coefficient at a time, from m downwards;
* ``schur``       -- Schur polynomial via the Jacobi-Trudi determinant;
* ``spherical_poly`` -- Jack normalized to take the value 1 at (1,...,1).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, gcd, lcm
from typing import NamedTuple, Sequence, Union

import numpy as np

from .errors import ArityMismatchError, InvariantError
from .partitions import _parts_desc, pad, trim, weight

AnyCoef = Union[int, Fraction, float, complex]


@lru_cache(maxsize=None)
def _orbit_cached(lam: tuple) -> tuple:
    """Distinct permutations of the exponent vector, in lexicographic order,
    by the multiset next-permutation step, at the orbit's size, not r!."""
    a = sorted(lam)
    orbit = [tuple(a)]
    while True:
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return tuple(orbit)
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = a[:i:-1]
        orbit.append(tuple(a))


def _int_sum(parts: list) -> tuple:
    """sum_j a_j / b_j over integer pairs [(a_j, b_j), ...] with every b_j > 0,
    as (numerator, lcm of the b_j)."""
    den = lcm(*(b for _, b in parts))
    return sum(a * (den // b) for a, b in parts), den


def _lowest(num: int, den: int) -> tuple:
    """num/den in lowest terms, for den > 0, as the integers (numerator, denominator)."""
    g = gcd(num, den)
    return num // g, den // g


def _sort_key(lam: tuple):
    # (weight, reverse-lexicographic): the fixed deterministic term order.
    return (sum(lam), tuple(-p for p in lam))


class _BasePoly:
    """Common machinery for SymPoly / CSymPoly."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: dict):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.arity = arity
        self.terms = {pad(k, arity): v for k, v in terms.items() if v != 0}

    @classmethod
    def _trusted(cls, arity: int, terms: dict):
        """A polynomial whose terms are the dict a kernel built, taken as it
        is: every key padded to the arity, every value of the class's scalar
        type (``Fraction`` or ``complex``) and non-zero, and the dict mutated
        by no one after.  The public constructors check and convert each term
        instead."""
        poly = cls.__new__(cls)
        poly.arity = arity
        poly.terms = terms
        return poly

    # -- ring operations ---------------------------------------------------

    def _check_arity(self, other):
        if self.arity != other.arity:
            raise ArityMismatchError(f"arity {self.arity} != {other.arity}")

    def __add__(self, other):
        self._check_arity(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            w = out.get(k, 0) + v
            if w == 0:
                out.pop(k, None)
            else:
                out[k] = w
        return type(self)(self.arity, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        if c == 0:
            return type(self)(self.arity, {})
        return type(self)(self.arity, {k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((type(self).__name__, self.arity, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((weight(k) for k in self.terms), default=0)

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: _sort_key(kv[0]))

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, point: Sequence[complex]) -> complex:
        """Numeric value at a point; deterministic summation order."""
        if len(point) != self.arity:
            raise ArityMismatchError(
                f"point length {len(point)} != arity {self.arity}"
            )
        z = [complex(p) for p in point]
        total = 0j
        for lam, c in self.sorted_terms():
            s = 0j
            for perm in _orbit_cached(lam):
                prod = 1.0 + 0j
                for zj, e in zip(z, perm):
                    if e:
                        prod *= zj ** e
                s += prod
            total += complex(c) * s
        return total

    def evaluate_points(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at an (N, arity) array of complex points."""
        pts = np.asarray(pts, dtype=complex)
        if pts.ndim == 1:
            pts = pts[None, :]
        return evaluate_points_many([self], np.ascontiguousarray(pts.T))[0]

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Text form "c * m[2,1] + ..." in the fixed term order."""
        if not self.terms:
            return "0"
        chunks = []
        for lam, c in self.sorted_terms():
            mono = "m[" + ",".join(str(p) for p in trim(lam)) + "]"
            cs = self._fmt_coef(c)
            chunks.append(cs if lam == (0,) * self.arity else f"{cs} * {mono}")
        return " + ".join(chunks)

    def __repr__(self):
        return f"{type(self).__name__}(r={self.arity}, {self.render()})"

    @staticmethod
    def _fmt_coef(c) -> str:
        return str(c)


class SymPoly(_BasePoly):
    """Symmetric polynomial with exact rational coefficients."""

    def __init__(self, arity: int, terms: dict):
        super().__init__(arity, {k: Fraction(v) for k, v in terms.items()})

    @classmethod
    def zero(cls, r: int) -> "SymPoly":
        return cls(r, {})

    @classmethod
    def one(cls, r: int) -> "SymPoly":
        return cls(r, {(0,) * r: Fraction(1)})

    @classmethod
    def msym(cls, lam: Sequence[int], r: int) -> "SymPoly":
        """The monomial symmetric polynomial m_lambda."""
        return cls(r, {pad(lam, r): Fraction(1)})

    def to_complex(self) -> "CSymPoly":
        # a coefficient whose double rounds to 0.0 is dropped, as CSymPoly() drops it
        return CSymPoly._trusted(
            self.arity, {k: c for k, v in self.terms.items() if (c := _as_complex(v))}
        )

    def eval_at_ones(self) -> Fraction:
        """Exact value at (1,...,1) = sum of coefficients times orbit sizes,
        summed by ``_int_sum``."""
        parts = [
            (c.numerator * len(_orbit_cached(lam)), c.denominator)
            for lam, c in self.terms.items()
        ]
        return Fraction(*_int_sum(parts))


class CSymPoly(_BasePoly):
    """Symmetric polynomial with complex double coefficients."""

    def __init__(self, arity: int, terms: dict):
        super().__init__(arity, {k: complex(v) for k, v in terms.items()})

    @staticmethod
    def _fmt_coef(c) -> str:
        return f"({c.real:.12g}{c.imag:+.12g}j)"


AnyPoly = Union[SymPoly, CSymPoly]


# numpy evaluates ``named * temp`` as ``temp *= named`` once the temporary
# holds 256 KiB (16,384 complex values), and its FMA complex multiply is not
# bitwise commutative, so the operand order is part of the result's bits
_ELIDE_BYTES = 1 << 18


def _mul(named: np.ndarray, temp: np.ndarray, out=None) -> np.ndarray:
    """named * temp in the operand order numpy uses when temp is a fresh
    temporary: temp first from 256 KiB on, named first below."""
    if temp.nbytes >= _ELIDE_BYTES:
        return np.multiply(temp, named, out=out)
    return np.multiply(named, temp, out=out)


def _power(x: np.ndarray, e, out=None) -> np.ndarray:
    """x ** e as numpy computes it: np.square at e = 2, np.power otherwise."""
    if e == 2:
        return np.square(x, out=out)
    return np.power(x, e, out=out)


def _as_complex(c) -> complex:
    """complex(c) of an exact rational, without the Python-level
    ``numbers.Real.__complex__``: the same correctly rounded double, and the
    same OverflowError past the double range."""
    return complex(c.numerator / c.denominator)


class _Plan(NamedTuple):
    count: int  # polynomials
    fills: list  # (i, k): polynomial i starts as k everywhere
    terms: list  # (orbit, [(i, complex(c), first term of i?), ...]) in term order


def _plan_evaluation(polys: Sequence[_BasePoly], arity: int) -> _Plan:
    """The union of the monomials in the fixed term order, with orbits and
    coefficients.  A finite constant c is a fill with 0 + c (1 + 0j), the value
    the node pass would compute: each step is exact, so FMA or not the bits agree."""
    for poly in polys:
        if poly.arity != arity:
            raise ArityMismatchError(f"points have {arity} coordinates, arity is {poly.arity}")
    zero, fills, terms, started = (0,) * arity, [], [], set()
    for lam in sorted(set().union(*(poly.terms for poly in polys)), key=_sort_key):
        pairs = [(i, complex(p.terms[lam])) for i, p in enumerate(polys) if lam in p.terms]
        if lam == zero:
            ks = [0j + c * (1.0 + 0j) for _, c in pairs]
            fills = [(i, k) for (i, _), k in zip(pairs, ks) if cmath.isfinite(k)]
            pairs = [pair for pair, k in zip(pairs, ks) if not cmath.isfinite(k)]
            started.update(i for i, _ in fills)
        if pairs:
            terms.append((_orbit_cached(lam), [(i, c, i not in started) for i, c in pairs]))
            started.update(i for i, _ in pairs)
    fills += [(i, 0j) for i, poly in enumerate(polys) if not poly.terms]
    return _Plan(len(polys), fills, terms)


def evaluate_points_many(polys, cols: Sequence[np.ndarray], out=None, take=None) -> list:
    """Values of every polynomial at N complex points given by columns:
    cols[j] holds coordinate j of every point, one length-N array per axis.
    polys may be their ``_plan_evaluation``, built once for many node sets.

    The union of the monomials is walked in the fixed term order and each
    m_lambda is evaluated once, then added, times its coefficient, into every
    polynomial that has it.  Each power z_j^e is computed once per call (an
    e = 1 factor is the column itself) and each orbit product starts from its
    first power; the products keep the operand order of the product over an
    all-ones start, so the values are bitwise those of evaluating each term
    on its own and summing onto zeros; no array is zero-filled, since x + 0.0
    is 0 + x bitwise.  Each polynomial still sums its own terms in its own
    order, so its values do not depend on which others share the pass.

    The values go into out, one length-N complex array per polynomial, new
    ones by default.  The powers, orbit sums and products go into arrays from
    take(), new ones by default; they are not used once the call returns, so
    a caller that reuses its arrays may hand them out again.
    """
    cols = [np.asarray(c, dtype=complex) for c in cols]
    plan = polys if isinstance(polys, _Plan) else _plan_evaluation(polys, len(cols))
    n = len(cols[0])
    take = take or (lambda: np.empty(n, dtype=complex))
    totals = out if out is not None else [np.empty(n, dtype=complex) for _ in range(plan.count)]
    for i, k in plan.fills:
        totals[i].fill(k)
    powers = {}
    s, work = take(), take()  # the orbit sum; one orbit product, then c * s
    for orbit, pairs in plan.terms:
        for t, perm in enumerate(orbit):
            prod = None
            for j, e in enumerate(perm):
                if e:
                    zj_e = powers.get((j, e))
                    if zj_e is None:
                        zj_e = powers[j, e] = cols[j] if e == 1 else _power(cols[j], e, take())
                    prod = zj_e if prod is None else _mul(prod, zj_e, work)
            term = 1.0 if prod is None else prod  # lambda = 0: the empty product
            if t:
                s += term
            else:
                np.add(term, 0.0, out=s)
        for i, c, first in pairs:
            if first:
                np.add(np.multiply(c, s, out=work), 0.0, out=totals[i])
            else:
                totals[i] += np.multiply(c, s, out=work)
    return totals


# ---------------------------------------------------------------------------
# plain (non-symmetric) exponent-dict helpers, used by multiplication and
# substitution
# ---------------------------------------------------------------------------


def _expand_plain(poly: _BasePoly) -> dict:
    out: dict = {}
    for lam, c in poly.terms.items():
        for perm in _orbit_cached(lam):
            out[perm] = out.get(perm, 0) + c
    return out


def _collect(plain: dict, arity: int, cls) -> AnyPoly:
    """Read off monomial-basis coefficients from a symmetric plain dict."""
    terms = {}
    for e, c in plain.items():
        lam = tuple(sorted(e, reverse=True))
        if e == lam and c != 0:
            terms[lam] = c
    return cls(arity, terms)


def _plain_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            v = out.get(e, 0) + ca * cb
            if v == 0:
                out.pop(e, None)
            else:
                out[e] = v
    return out


def msym_mul(a: AnyPoly, b: AnyPoly) -> AnyPoly:
    """Exact product in the monomial basis.

    Each factor is expanded into its orbit of plain monomials, multiplied
    densely, and re-symmetrized; correct over exact coefficients at the
    small degrees this package works with.
    """
    if a.arity != b.arity:
        raise ArityMismatchError(f"arity {a.arity} != {b.arity}")
    cls = SymPoly if isinstance(a, SymPoly) and isinstance(b, SymPoly) else CSymPoly
    return _collect(_plain_mul(_expand_plain(a), _expand_plain(b)), a.arity, cls)


def affine_substitute(p: AnyPoly, a: AnyCoef, b: AnyCoef) -> AnyPoly:
    """Replace every variable x_j by a + b*x_j.

    Exact for rational inputs on a SymPoly; otherwise the result is complex.
    Implemented by binomial expansion per plain monomial, then
    re-symmetrization.
    """
    exact = isinstance(p, SymPoly) and isinstance(a, (int, Fraction)) and isinstance(
        b, (int, Fraction)
    )
    cls = SymPoly if exact else CSymPoly
    if exact:
        a, b = Fraction(a), Fraction(b)
    else:
        a, b = complex(a), complex(b)
    r = p.arity
    zero_exp = (0,) * r
    out: dict = {}
    for lam, c in p.terms.items():
        for perm in _orbit_cached(lam):
            # expand prod_j (a + b x_j)^{e_j} axis by axis
            acc = {zero_exp: c}
            for j, e in enumerate(perm):
                if e == 0:
                    continue
                factor = {}
                for t in range(e + 1):
                    coef = comb(e, t) * a ** (e - t) * b**t
                    if coef != 0:
                        exp = list(zero_exp)
                        exp[j] = t
                        factor[tuple(exp)] = coef
                acc = _plain_mul(acc, factor)
            for e, v in acc.items():
                w = out.get(e, 0) + v
                if w == 0:
                    out.pop(e, None)
                else:
                    out[e] = w
    return _collect(out, r, cls)


# ---------------------------------------------------------------------------
# Jack polynomials
# ---------------------------------------------------------------------------


def _lb_parts(lam: tuple, r: int) -> tuple:
    """The integers (A, B) of the eigenvalue e_lam = (alpha/2) A + B of the
    deformed Laplace-Beltrami operator on m_lam:
        A = sum_i lam_i (lam_i - 1),   B = sum_i lam_i (r - 1 - i)."""
    return (
        sum(li * (li - 1) for li in lam),
        sum(li * (r - 1 - i) for i, li in enumerate(lam)),
    )


@lru_cache(maxsize=1024)
def _jack_skeleton(m: tuple, r: int) -> tuple:
    """The part of ``_jack_terms`` that does not depend on d, as (lams, rows):
    the support of P_m in the class order (which is ``_sort_key`` order), m
    first, and for each later mu in it a row (A_m - A_mu, B_m - B_mu, at, fs)
    of the integers of ``_lb_parts`` and of the moves: the positions ``at`` in
    lams of the nu that mu's moves reach and the summed factors ``fs`` of the
    moves to each, in order of first appearance.

    A mu no move links to the support is not in it: every factor is positive
    and every coefficient of the support is positive at alpha > 0, so the
    support is {mu dominated by m}, the same at every d."""
    w = weight(m)
    a_m, b_m = _lb_parts(m, r)
    at = {m: 0}
    rows = []
    order = (pad(lam, r) for lam in _parts_desc(w, w, r))
    for mu in order:  # skip to m: the coefficients above it vanish
        if mu == m:
            break
    for mu in order:
        moves: dict = {}
        for i in range(r):
            for j in range(i + 1, r):
                for t in range(1, mu[j] + 1):
                    nu = list(mu)
                    nu[i] += t
                    nu[j] -= t
                    k = at.get(tuple(sorted(nu, reverse=True)))
                    if k is not None:
                        moves[k] = moves.get(k, 0) + mu[i] - mu[j] + 2 * t
        if moves:
            a_mu, b_mu = _lb_parts(mu, r)
            at[mu] = len(at)
            rows.append((a_m - a_mu, b_m - b_mu, tuple(moves), tuple(moves.values())))
    return tuple(at), tuple(rows)


@lru_cache(maxsize=1024)
def _jack_terms(m: tuple, d_num: int, d_den: int, r: int) -> tuple:
    """Monomial expansion of P_m^(alpha), alpha = 2/d at d = d_num/d_den in
    lowest terms, as (lams, nums, dens): the coefficient of m_lams[i] is
    nums[i] / dens[i] in lowest terms, dens[i] > 0, lams from
    ``_jack_skeleton``.

    The alpha-deformed Laplace-Beltrami operator
        D = (alpha/2) sum_i x_i^2 d_i^2 + sum_{i<j} (x_i^2 d_i - x_j^2 d_j)/(x_i - x_j)
    acts on the monomial basis as D m_nu = e_nu m_nu + sum_mu c_{nu mu} m_mu,
    where c_{nu mu} sums (mu_i - mu_j + 2t) over position pairs i < j of mu
    and t = 1..mu_j with sort(mu + t e_i - t e_j) = nu (Stanley 1989).  So
    D P_m = e_m P_m gives, for every mu after m in the reverse-lex class
    order,
        c_mu (e_m - e_mu) = sum_{i<j} sum_{t=1}^{mu_j} (mu_i - mu_j + 2t) c_nu,
        nu = sort(mu + t e_i - t e_j),
    where every nu dominates mu, so it comes earlier in the order and its
    coefficient is already known.

    With alpha/2 = 1/d = p/q, e_m - e_mu = (p (A_m - A_mu) + q (B_m - B_mu)) / q
    in the integers of ``_lb_parts``, and the right-hand side is summed as
    integer numerators over the lcm of the c_nu denominators, so each
    coefficient is one division.  The skeleton holds everything else.
    """
    lams, rows = _jack_skeleton(m, r)
    p, q = d_den, d_num
    nums, dens = [1], [1]
    for da, db, at, fs in rows:
        den = lcm(*[dens[k] for k in at])
        num = q * sum([f * nums[k] * (den // dens[k]) for k, f in zip(at, fs)])
        den *= p * da + q * db
        if num <= 0 or den <= 0:
            raise InvariantError(f"a coefficient of P_{m} at d = {d_num}/{d_den} is not positive")
        num, den = _lowest(num, den)
        nums.append(num)
        dens.append(den)
    return lams, tuple(nums), tuple(dens)


def _ratio(d) -> tuple:
    """The key (numerator, denominator) of d > 0 in lowest terms, under which
    every exact table is cached: two ints hash in C, where a Fraction key runs
    the Python-level ``Fraction.__hash__`` on every lookup."""
    if not isinstance(d, Fraction):
        d = Fraction(d)
    if d.numerator <= 0:
        raise ValueError("multiplicity d must be > 0")
    return d.numerator, d.denominator


def jack_mono(m: Sequence[int], d, r: int) -> SymPoly:
    """Jack polynomial P_m with parameter alpha = 2/d, monic in m_m.

    Exact; the support is contained in {lambda : lambda dominated by m}.
    """
    lams, nums, dens = _jack_terms(pad(m, r), *_ratio(d), r)
    return SymPoly._trusted(r, {lam: Fraction(n, e) for lam, n, e in zip(lams, nums, dens)})


# ---------------------------------------------------------------------------
# Schur polynomials (Jacobi-Trudi) -- the d = 2 oracle
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _complete_homogeneous(k: int, r: int) -> SymPoly:
    if k < 0:
        return SymPoly.zero(r)
    if k == 0:
        return SymPoly.one(r)
    terms = {pad(p, r): Fraction(1) for p in _parts_desc(k, k, r)}
    return SymPoly(r, terms)


@lru_cache(maxsize=None)
def _schur_cached(m: tuple, r: int) -> SymPoly:
    n = len(m)
    total = SymPoly.zero(r)
    for perm in permutations(range(n)):
        sign = _perm_sign(perm)
        prod = SymPoly.one(r)
        ok = True
        for i in range(n):
            h = _complete_homogeneous(m[i] - i + perm[i], r)
            if h.is_zero():
                ok = False
                break
            prod = msym_mul(prod, h)
        if ok:
            total = total + prod.scale(sign)
    return total


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def schur(m: Sequence[int], r: int) -> SymPoly:
    """Schur polynomial via the Jacobi-Trudi determinant over the h basis."""
    return _schur_cached(pad(m, r), r)


# ---------------------------------------------------------------------------
# spherical normalization
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)
def _spherical_cached(m: tuple, d_num: int, d_den: int, r: int) -> SymPoly:
    """Phi_m at d = d_num/d_den.  Each coefficient c of P_m becomes
    c / P_m(1) as one Fraction of integers, with P_m(1) = a / b summed by
    ``_int_sum`` over the orbit sizes."""
    lams, nums, dens = _jack_terms(m, d_num, d_den, r)
    terms = list(zip(lams, nums, dens))
    a, b = _lowest(*_int_sum([(n * len(_orbit_cached(lam)), e) for lam, n, e in terms]))
    return SymPoly._trusted(r, {lam: Fraction(n * b, e * a) for lam, n, e in terms})


def spherical_poly(m: Sequence[int], d, r: int) -> SymPoly:
    """Spherical polynomial: Jack rescaled so the value at (1,...,1) is 1."""
    return _spherical_cached(pad(m, r), *_ratio(d), r)
