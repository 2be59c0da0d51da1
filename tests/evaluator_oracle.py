"""Frozen copy of the column evaluator as it stood before planning and
without zero fills: every total and every orbit sum starts as zeros, the
constant monomial is an orbit sum of 1.0 times its coefficient, and the
orbits come from all r! permutations.  The package's
``sympoly.evaluate_points_many`` must give these values bit for bit."""

from itertools import permutations

import numpy as np

_ELIDE_BYTES = 1 << 18


def _orbit(lam):
    return tuple(sorted(set(permutations(lam))))


def _sort_key(lam):
    return (sum(lam), tuple(-p for p in lam))


def _mul(named, temp, out=None):
    if temp.nbytes >= _ELIDE_BYTES:
        return np.multiply(temp, named, out=out)
    return np.multiply(named, temp, out=out)


def _power(x, e, out=None):
    if e == 2:
        return np.square(x, out=out)
    return np.power(x, e, out=out)


def evaluate_points_many(polys, cols):
    cols = [np.asarray(c, dtype=complex) for c in cols]
    n = len(cols[0])
    take = lambda: np.empty(n, dtype=complex)  # noqa: E731
    totals = [np.empty(n, dtype=complex) for _ in polys]
    for total in totals:
        total.fill(0)
    powers = {}
    s, work = take(), take()
    for lam in sorted(set().union(*(poly.terms for poly in polys)), key=_sort_key):
        s.fill(0)
        for perm in _orbit(lam):
            prod = None
            for j, e in enumerate(perm):
                if e:
                    zj_e = powers.get((j, e))
                    if zj_e is None:
                        zj_e = powers[j, e] = cols[j] if e == 1 else _power(cols[j], e, take())
                    prod = zj_e if prod is None else _mul(prod, zj_e, work)
            s += 1.0 if prod is None else prod
        for total, poly in zip(totals, polys):
            c = poly.terms.get(lam)
            if c is not None:
                total += np.multiply(complex(c), s, out=work)
    return totals
