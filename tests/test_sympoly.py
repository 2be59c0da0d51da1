import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from mcjacobi.errors import ArityMismatchError, InvariantError
from mcjacobi.partitions import dominance_leq, enumerate_partitions, weight
from mcjacobi.sympoly import (
    CSymPoly,
    SymPoly,
    _divide_diff,
    affine_substitute,
    jack_mono,
    msym_mul,
    schur,
    spherical_poly,
)

D_VALUES = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3), Fraction(5, 2)]


def test_msym_mul_examples():
    m1 = SymPoly.msym((1,), 2)
    assert msym_mul(m1, m1) == SymPoly(2, {(2, 0): 1, (1, 1): 2})
    p = SymPoly(2, {(2, 0): Fraction(3, 7), (1, 1): -2})
    assert msym_mul(p, SymPoly.one(2)) == p
    u = SymPoly.msym((1,), 1)
    assert msym_mul(u, u) == SymPoly.msym((2,), 1)


def test_msym_mul_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        msym_mul(SymPoly.one(2), SymPoly.one(3))


def test_affine_substitute_examples():
    # (1-x) + (1-y) = 2 - (x+y)
    q = affine_substitute(SymPoly.msym((1,), 2), 1, -1)
    assert q == SymPoly(2, {(0, 0): 2, (1, 0): -1})
    p = SymPoly(2, {(2, 1): Fraction(5, 3), (1, 0): 1})
    assert affine_substitute(p, 0, 1) == p
    assert affine_substitute(SymPoly.msym((1,), 1), 1, 1) == SymPoly(1, {(0,): 1, (1,): 1})


def test_affine_substitute_total_degree_identity():
    # substituting then evaluating equals evaluating at the shifted point
    p = jack_mono((2, 1), Fraction(5, 2), 2)
    q = affine_substitute(p, Fraction(1, 3), Fraction(-2, 5))
    for pt in ([0.4, -1.1], [2.0, 0.25]):
        shifted = [Fraction(1, 3) + Fraction(-2, 5) * Fraction(x) for x in pt]
        assert abs(q.evaluate(pt) - p.evaluate([float(s) for s in shifted])) < 1e-12


def test_evaluate_examples():
    assert SymPoly.msym((1, 1), 2).evaluate([2, 3]) == 6
    p = jack_mono((3, 1), Fraction(3), 2)
    v1 = p.evaluate([0.3 + 0.4j, -1.2])
    v2 = p.evaluate([-1.2, 0.3 + 0.4j])
    assert v1 == pytest.approx(v2, abs=1e-14)
    assert msym_mul(SymPoly.msym((1,), 2), SymPoly.msym((1,), 2)).evaluate([1, 1]) == 4


def test_evaluate_length_mismatch():
    with pytest.raises(ArityMismatchError):
        SymPoly.msym((1,), 2).evaluate([1.0])


def test_evaluate_points_matches_scalar():
    p = jack_mono((2, 2, 1), Fraction(5, 2), 3)
    pts = np.array([[0.2 + 0.1j, -0.5, 1.1j], [1.0, 2.0, 3.0]])
    vals = p.evaluate_points(pts)
    for row, v in zip(pts, vals):
        assert abs(p.evaluate(list(row)) - v) < 1e-12


def test_jack_degree_one_and_weight_two():
    for d in D_VALUES:
        assert jack_mono((1, 0), d, 2) == SymPoly.msym((1,), 2)
        alpha = Fraction(2) / d
        expected = SymPoly(2, {(2, 0): 1, (1, 1): Fraction(2) / (1 + alpha)})
        assert jack_mono((2, 0), d, 2) == expected


def test_jack_schur_agreement():
    for r in (1, 2, 3):
        for m in enumerate_partitions(5, r):
            assert jack_mono(m, 2, r) == schur(m, r)


def test_jack_dominance_triangularity():
    for d in D_VALUES:
        for m in enumerate_partitions(5, 3):
            p = jack_mono(m, d, 3)
            assert p.terms[m] == 1  # monic
            for lam in p.terms:
                if weight(lam) == weight(m):
                    assert dominance_leq(lam, m)


def test_jack_stability_under_restriction():
    for d in D_VALUES:
        for m in enumerate_partitions(4, 2):
            big = jack_mono(m, d, 3)
            small = jack_mono(m, d, 2)
            restricted = {
                lam[:2]: c for lam, c in big.terms.items() if lam[2] == 0
            }
            assert restricted == {lam: c for lam, c in small.terms.items()}


def test_schur_examples():
    assert schur((1,), 3) == SymPoly.msym((1,), 3)
    assert schur((2, 1), 2) == SymPoly.msym((2, 1), 2)
    assert schur((1, 1), 2) == SymPoly.msym((1, 1), 2)
    # bialternant cross-check at a numeric point
    s = schur((3, 1), 2)
    x, y = 1.3, -0.4
    num = x**4 * y - y**4 * x  # det([[x^4, y^4],[x, y]])
    assert s.evaluate([x, y]) == pytest.approx(num / (x - y), rel=1e-12)


def test_spherical_normalization():
    for d in D_VALUES:
        for m in enumerate_partitions(4, 2):
            assert spherical_poly(m, d, 2).eval_at_ones() == 1
    assert spherical_poly((1, 0), Fraction(5, 2), 2) == SymPoly(2, {(1, 0): Fraction(1, 2)})
    assert spherical_poly((2, 1), 2, 2) == SymPoly(2, {(2, 1): Fraction(1, 2)})


def _hyp2f1_terminating(neg_m: int, b: float, c: float, x: complex) -> complex:
    total = 0j
    poch_a = poch_b = poch_c = fact = 1.0
    power = 1.0 + 0j
    for k in range(-neg_m + 1):
        total += poch_a * poch_b / poch_c / fact * power
        poch_a *= neg_m + k
        poch_b *= b + k
        poch_c *= c + k
        fact *= k + 1
        power *= x
    return total


def test_spherical_rank2_hypergeometric_closed_form():
    # independent oracle at arbitrary multiplicity:
    # Phi_(m1,m2)(l1,l2) = l1^m1 l2^m2 2F1(-(m1-m2), d/2; d; (l1-l2)/l1)
    l1, l2 = 1.3 + 0.2j, -0.7 + 0.5j
    for d in (Fraction(1, 2), Fraction(1), Fraction(5, 2), Fraction(3)):
        for m1, m2 in [(1, 0), (2, 0), (2, 1), (3, 1), (4, 2)]:
            phi = spherical_poly((m1, m2), d, 2).evaluate([l1, l2])
            rhs = (
                l1**m1
                * l2**m2
                * _hyp2f1_terminating(-(m1 - m2), float(d) / 2, float(d), (l1 - l2) / l1)
            )
            assert abs(phi - rhs) <= 1e-12 * (1 + abs(rhs))


def test_render():
    p = SymPoly(2, {(0, 0): 2, (1, 0): -1})
    assert p.render() == "2 + -1 * m[1]"
    assert SymPoly.zero(2).render() == "0"


def test_complex_promotion():
    p = jack_mono((2, 0), 3, 2)
    c = p.to_complex()
    assert isinstance(c, CSymPoly)
    assert c.evaluate([1.0, 1.0]) == pytest.approx(float(p.eval_at_ones()))


def test_divide_diff_remainder_raises():
    # x_0 is not divisible by (x_0 - x_1)
    with pytest.raises(InvariantError):
        _divide_diff({(1, 0): Fraction(1)}, 0, 1)


def test_divide_diff_remainder_raises_under_optimize(child_env):
    # python -O strips assert statements; the check must survive it
    code = (
        "from fractions import Fraction\n"
        "from mcjacobi.errors import InvariantError\n"
        "from mcjacobi.sympoly import _divide_diff\n"
        "try:\n"
        "    _divide_diff({(1, 0): Fraction(1)}, 0, 1)\n"
        "except InvariantError:\n"
        "    print('raised')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=child_env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"
