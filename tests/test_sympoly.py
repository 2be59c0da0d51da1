from fractions import Fraction
from itertools import permutations, product
from math import prod

import numpy as np
import pytest

import evaluator_oracle
from fraction_oracle import dominance_leq
from mcjacobi.errors import ArityMismatchError
from mcjacobi.mcj import mcj_build
from mcjacobi.params import ParamSet
from mcjacobi.partitions import enumerate_partitions, weight
from mcjacobi.sympoly import (
    CSymPoly,
    SymPoly,
    _mul,
    _orbit_cached,
    _plan_evaluation,
    affine_substitute,
    evaluate_points_many,
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


def _evaluate_points_reference(poly, pts):
    """One polynomial, term by term in the fixed order, each orbit summed in turn."""
    total = np.zeros(pts.shape[0], dtype=complex)
    for lam, c in poly.sorted_terms():
        s = np.zeros(pts.shape[0], dtype=complex)
        for perm in sorted(set(permutations(lam))):
            term = np.ones(pts.shape[0], dtype=complex)
            for j, e in enumerate(perm):
                if e:
                    term = term * pts[:, j] ** e
            s += term
        total += complex(c) * s
    return total


@pytest.mark.parametrize("exact", [False, True])
def test_evaluate_points_many_matches_one_at_a_time(exact):
    # one shared monomial pass must leave every polynomial's values bitwise
    # equal to evaluating it alone
    params = ParamSet(r=3, d=Fraction(5, 2), alpha=6, nu=0 if exact else 0.3)
    polys = []
    for m in enumerate_partitions(4, 3):
        poly = mcj_build(m, params)
        polys.append(poly.body_exact.to_complex() if exact else poly.body)
    rng = np.random.default_rng(7)
    pts = np.exp(1j * rng.uniform(0, 2 * np.pi, (200, 3))) * rng.uniform(0.5, 1.5, (200, 3))
    many = evaluate_points_many(polys, np.ascontiguousarray(pts.T))
    assert len(many) == len(polys)
    for poly, vals in zip(polys, many):
        assert np.array_equal(vals, poly.evaluate_points(pts))
        assert np.array_equal(vals, _evaluate_points_reference(poly, pts))


def _points_with_signed_zeros(n, r, seed):
    """n points in r coordinates: every r-tuple of +-1, +-i with either sign
    of zero in the other component, and 0, then random points."""
    special = [1, -1, 1j, -1j, complex(1, -0.0), complex(-1, -0.0),
               complex(0.0, 1), complex(-0.0, 1), complex(-0.0, -1), complex(-0.0, -0.0)]
    rows = np.array(list(product(special, repeat=r)), dtype=complex)
    rng = np.random.default_rng(seed)
    m = n - len(rows)
    rand = np.exp(1j * rng.uniform(0, 2 * np.pi, (m, r))) * rng.uniform(0.5, 1.5, (m, r))
    return np.concatenate([rows, rand])


@pytest.mark.parametrize("n", [1_200, 20_000])
@pytest.mark.parametrize("exact", [False, True])
def test_evaluate_points_bitwise_equals_ones_start_reference(exact, n):
    # below and above numpy's 16,384-value elision size, each power computed
    # once and each product started from its first power must give the bits
    # of the all-ones start, signs of zeros included
    params = ParamSet(r=3, d=Fraction(5, 2), alpha=6, nu=0 if exact else 0.3)
    polys = []
    for m in enumerate_partitions(4, 3):
        poly = mcj_build(m, params)
        polys.append(poly.body_exact.to_complex() if exact else poly.body)
    lams = set().union(*(poly.terms for poly in polys))
    assert (0, 0, 0) in lams and max(max(lam) for lam in lams) >= 3
    pts = _points_with_signed_zeros(n, 3, seed=n)
    many = evaluate_points_many(polys, np.ascontiguousarray(pts.T))
    for poly, vals in zip(polys, many):
        ref = _evaluate_points_reference(poly, pts)
        assert vals.tobytes() == ref.tobytes()
        assert poly.evaluate_points(pts).tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [16_383, 16_384, 32_768])
def test_mul_keeps_numpys_order_for_a_fresh_temporary(n):
    # numpy evaluates a * <temporary> as <temporary> *= a from 256 KiB on,
    # and complex a * b and b * a differ in the last bit on about a third
    # of the elements; _mul must match numpy's own choice either side
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    # outside the assert: pytest's rewriting would hold a reference to it
    fresh = a * b.copy()
    assert _mul(a, b).tobytes() == fresh.tobytes()


def test_orbits_equal_sorted_set_of_all_permutations():
    # generated one distinct permutation at a time, in the same order
    for r in range(1, 8):
        for m in enumerate_partitions(8, r):
            lam = tuple(m) + (0,) * (r - len(m))
            assert _orbit_cached.__wrapped__(lam) == tuple(sorted(set(permutations(lam))))


def _oracle_cases(n, seed):
    """Columns at n points in 3 coordinates, the first 1,000 rows of every
    kind of +-1, +-i, +-0 component, the rest on the unit circle but for
    some exact zeros; and
    polynomials: family bodies, a constant-only one, one with no constant
    term, constants with zero or non-finite parts, a non-finite term and
    an empty one."""
    pts = _points_with_signed_zeros(n, 3, seed)
    rng = np.random.default_rng(seed)
    pts[1_000:] = np.exp(1j * rng.uniform(0, 2 * np.pi, (n - 1_000, 3)))
    pts[1_000:1_100, 0] = 0
    pts[1_050:1_150, 2] = complex(0.0, -0.0)
    params = ParamSet(r=3, d=Fraction(5, 2), alpha=6, nu=0.3)
    polys = [mcj_build(m, params).body for m in enumerate_partitions(3, 3)]
    polys += [
        CSymPoly(3, {(0, 0, 0): 2.5 - 1j}),
        CSymPoly(3, {(0, 0, 0): complex(-0.0, -1)}),  # 0 + c (1 + 0j) is +0.0 + ...
        CSymPoly(3, {(1, 0, 0): -1}),  # -1 * (+0) is -0.0, 0 + that +0.0
        CSymPoly(3, {(1, 0, 0): -0.5j, (1, 1, 0): 3}),
        CSymPoly(3, {(0, 0, 0): complex(-0.0, 2), (2, 1, 0): 1}),
        CSymPoly(3, {(0, 0, 0): complex(1e-310, -0.0), (1, 0, 0): 1}),
        CSymPoly(3, {(0, 0, 0): complex("inf"), (1, 0, 0): 2}),
        CSymPoly(3, {(0, 0, 0): complex(1, float("nan")), (2, 0, 0): -1}),
        CSymPoly(3, {(0, 0, 0): 1, (2, 1, 0): complex("nan"),
                     (1, 1, 1): complex(0, float("-inf"))}),
        CSymPoly(3, {}),
    ]
    return np.ascontiguousarray(pts.T), polys


@pytest.mark.parametrize("n", [1_200, 20_000])
def test_evaluator_bitwise_equals_frozen_copy(n):
    # below and above numpy's 16,384-value elision size; fills of 0 replaced
    # by first terms plus 0.0 and constants by one value must keep every bit,
    # NaN payloads and signs of zeros included
    cols, polys = _oracle_cases(n, seed=n)
    with np.errstate(all="ignore"):
        ref = evaluator_oracle.evaluate_points_many(polys, cols)
        out = [np.full(n, np.nan + 0j) for _ in polys]  # no value may survive
        many = evaluate_points_many(polys, cols, out)
        planned = _plan_evaluation(polys, 3)
        again = [evaluate_points_many(planned, cols)[i] for i in range(2)]
    assert many is out
    for vals, want in zip(many, ref):
        assert vals.tobytes() == want.tobytes()
    assert [v.tobytes() for v in again] == [v.tobytes() for v in ref[:2]]


def test_plan_checks_arity_and_holds_finite_constants_as_fills():
    polys = [CSymPoly(2, {(0, 0): 3j, (1, 0): 1}), CSymPoly(2, {(0, 0): complex("inf")})]
    plan = _plan_evaluation(polys, 2)
    assert [i for i, _ in plan.fills] == [0] and plan.count == 2
    assert [[(i, first) for i, _, first in pairs] for _, pairs in plan.terms] == [
        [(1, True)], [(0, False)]
    ]
    with pytest.raises(ArityMismatchError):
        _plan_evaluation(polys, 3)


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


@pytest.mark.parametrize("r", [3, 4])
def test_jack_satisfies_eigen_equation(r):
    # D P_m = e_m P_m exactly at a rational point with distinct coordinates, with
    # D = (alpha/2) sum_i x_i^2 d_i^2 + sum_{i<j} (x_i^2 d_i - x_j^2 d_j)/(x_i - x_j)
    # applied to each plain monomial of the orbit expansion:
    # x_i^2 d_i^2 x^e = e_i (e_i - 1) x^e and x_i^2 d_i x^e = e_i x_i x^e.
    x = [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5), Fraction(7, 4)][:r]
    for d in (Fraction(1, 2), Fraction(5, 2), Fraction(7, 3)):
        alpha = 2 / d
        for m in enumerate_partitions(5, r):
            p_val = dp_val = Fraction(0)
            for lam, c in jack_mono(m, d, r).terms.items():
                for e in set(permutations(lam)):
                    mono = c * prod(xi**ei for xi, ei in zip(x, e))
                    p_val += mono
                    dp_val += mono * alpha / 2 * sum(ei * (ei - 1) for ei in e)
                    for i in range(r):
                        for j in range(i + 1, r):
                            dp_val += mono * (e[i] * x[i] - e[j] * x[j]) / (x[i] - x[j])
            e_m = sum(mi * (alpha * (mi - 1) / 2 + r - 1 - i) for i, mi in enumerate(m))
            assert dp_val == e_m * p_val, (m, d)


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


@pytest.mark.parametrize("d", [0, -1, Fraction(-1, 3), 0.0])
@pytest.mark.parametrize("build", [spherical_poly, jack_mono])
def test_nonpositive_multiplicity_raises(build, d):
    # the public builders check d > 0 before they reach the exact tables
    for m in ((1, 0), (3, 1)):
        with pytest.raises(ValueError, match="must be > 0"):
            build(m, d, 2)


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
