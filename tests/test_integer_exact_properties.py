"""Property tests: the exact construction layer, which sums integer
numerators over one denominator, equals the frozen Fraction routines of
``fraction_oracle`` in value and in dict key order."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import fraction_oracle as oracle  # noqa: E402
import mcjacobi.coeffs as coeffs  # noqa: E402
import mcjacobi.mcj as mcj  # noqa: E402
import mcjacobi.sympoly as sympoly  # noqa: E402
from mcjacobi.params import ParamSet  # noqa: E402
from mcjacobi.partitions import enumerate_partitions, weight  # noqa: E402

MAX_WEIGHT = 6
rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def rank_d_partition(draw):
    """(ParamSet with an exact alpha > (d/2)(r-1), a partition of it), with
    d = p/q, q <= 12, r in 1..4 and weight <= 6."""
    r = draw(st.integers(min_value=1, max_value=4))
    d = draw(st.fractions(min_value=Fraction(1, 12), max_value=8, max_denominator=12))
    w = draw(st.integers(min_value=0, max_value=MAX_WEIGHT))
    m = draw(st.sampled_from([p for p in enumerate_partitions(w, r) if weight(p) == w]))
    excess = draw(st.fractions(min_value=Fraction(1, 12), max_value=6, max_denominator=12))
    return ParamSet(r=r, d=d, alpha=d / 2 * (r - 1) + excess, nu=0), m


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@PROPERTY_SETTINGS
@given(rationals | st.integers(min_value=-6, max_value=6), st.integers(min_value=0, max_value=8))
def test_rising_matches_oracle(x, k):
    assert coeffs.rising(x, k) == oracle.rising(x, k)


@PROPERTY_SETTINGS
@given(rank_d_partition(), rationals, st.lists(rationals, min_size=4, max_size=4))
def test_pochhammer_and_dimension_match_oracle(case, s, sv):
    p, m = case
    assert coeffs.gen_pochhammer(s, m, p) == oracle.gen_pochhammer(s, m, p)
    assert coeffs.gen_pochhammer(sv[:p.r], m, p) == oracle.gen_pochhammer(sv[:p.r], m, p)
    assert coeffs.dim_dm(m, p) == oracle.dim_dm(m, p)


@PROPERTY_SETTINGS
@given(rank_d_partition())
def test_eigenvalue_parts_match_oracle(case):
    # e_lam = (alpha/2) A + B with the integers (A, B) of _lb_parts
    p, m = case
    alpha = 2 / p.d
    for lam in enumerate_partitions(weight(m), p.r):
        a, b = sympoly._lb_parts(lam, p.r)
        assert alpha / 2 * a + b == oracle._lb_eigenvalue(lam, alpha, p.r)


@PROPERTY_SETTINGS
@given(rank_d_partition())
def test_jack_rows_and_phi_one_plus_match_oracle(case):
    p, m = case
    d, r = p.d, p.r
    key = (d.numerator, d.denominator)
    assert sympoly._jack_terms(m, *key, r) == oracle._jack_terms(m, 2 / d, r)
    new_row, old_row = coeffs._binom_row(m, *key, r), oracle._binom_row(m, d, r)
    assert list(new_row.items()) == list(old_row.items())
    new_phi, old_phi = coeffs._phi_one_plus(m, *key, r), oracle._phi_one_plus(m, d, r)
    assert list(new_phi.terms.items()) == list(old_phi.terms.items())


@PROPERTY_SETTINGS
@given(rank_d_partition())
def test_exact_family_body_matches_oracle(case):
    p, m = case
    for beta, shifted in ((True, True), (False, False), (True, False)):
        new = mcj._family_body(m, p, beta=beta, shifted=shifted, exact=True)
        old = oracle.family_body_exact(m, p, beta=beta, shifted=shifted)
        assert list(new.terms.items()) == list(old.terms.items())


@pytest.mark.parametrize(
    "r,d,alpha,m",
    [
        (2, Fraction(1), Fraction(4), (2, 2)),
        (2, Fraction(5, 2), Fraction(5, 2), (2, 1)),
        (3, Fraction(1), Fraction(5), (2, 2, 0)),
        (3, Fraction(1, 2), Fraction(11, 4), (2, 2, 0)),
    ],
)
def test_exact_family_body_keeps_key_order_where_a_partial_sum_cancels(r, d, alpha, m):
    # in these bodies a monomial's partial sum is exactly zero before a later k
    # adds to it again, so it is popped and re-inserted at the end
    p = ParamSet(r=r, d=d, alpha=alpha, nu=0)
    new = mcj._family_body(m, p, beta=True, shifted=True, exact=True)
    old = oracle.family_body_exact(m, p, beta=True, shifted=True)
    assert list(new.terms.items()) == list(old.terms.items())
