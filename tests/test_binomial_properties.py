"""Property tests for the generalized binomial coefficients binom(m, k)."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mcjacobi.coeffs import _binom_row  # noqa: E402
from mcjacobi.params import ParamSet  # noqa: E402
from mcjacobi.partitions import contains, enumerate_partitions, weight  # noqa: E402

MAX_WEIGHT = {1: 8, 2: 7, 3: 6, 4: 5}


@st.composite
def rank_d_partition(draw):
    r = draw(st.integers(min_value=1, max_value=4))
    d = draw(st.fractions(min_value=Fraction(1, 6), max_value=8, max_denominator=6))
    w = draw(st.integers(min_value=0, max_value=MAX_WEIGHT[r]))
    m = draw(st.sampled_from([p for p in enumerate_partitions(w, r) if weight(p) == w]))
    return ParamSet(r=r, d=d), m


PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@PROPERTY_SETTINGS
@given(rank_d_partition())
def test_row_sums_to_two_to_the_weight(case):
    # Phi_m(1 + 1) = 2^{|m|}
    p, m = case
    assert sum(_binom_row(m, p.d.numerator, p.d.denominator, p.r).values()) == 2 ** weight(m)


@PROPERTY_SETTINGS
@given(rank_d_partition())
def test_one_box_binomials_sum_to_weight(case):
    # d/dt Phi_m(1 + t 1) at t = 0 is |m|, and E Phi_m = sum_i binom(m, m - e_i) Phi_{m - e_i}
    p, m = case
    row = _binom_row(m, p.d.numerator, p.d.denominator, p.r)
    assert sum(b for k, b in row.items() if weight(k) == weight(m) - 1) == weight(m)


@PROPERTY_SETTINGS
@given(rank_d_partition())
def test_binom_vanishes_exactly_off_containment(case):
    # binom(m, k) = 0 unless k is contained in m, and is positive when it is
    p, m = case
    row = _binom_row(m, p.d.numerator, p.d.denominator, p.r)
    for k in enumerate_partitions(weight(m) + 1, p.r):
        b = row.get(k, 0)
        assert (b > 0) if contains(m, k) else (b == 0)
