"""Property tests for partitions and for the Jack polynomials P_m."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fraction_oracle import dominance_leq  # noqa: E402
from mcjacobi.partitions import (  # noqa: E402
    enumerate_partitions,
    format_partition,
    parse_partition,
    weight,
)
from mcjacobi.sympoly import jack_mono  # noqa: E402

MAX_WEIGHT = {1: 8, 2: 7, 3: 6, 4: 5}

partitions = st.lists(st.integers(min_value=0, max_value=40), max_size=8).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)


@settings(max_examples=200, deadline=None)
@given(partitions)
def test_format_parse_round_trip(m):
    text = format_partition(m)
    assert parse_partition(text) == m
    assert format_partition(parse_partition(text)) == text


@st.composite
def jack_case(draw):
    r = draw(st.integers(min_value=1, max_value=4))
    d = draw(st.fractions(min_value=Fraction(1, 6), max_value=8, max_denominator=6))
    w = draw(st.integers(min_value=0, max_value=MAX_WEIGHT[r]))
    m = draw(st.sampled_from([p for p in enumerate_partitions(w, r) if weight(p) == w]))
    return m, d, r


@settings(max_examples=60, deadline=None)
@given(jack_case())
def test_jack_is_dominance_triangular_and_monic(case):
    # P_m = m_m + sum_{lambda < m} c_lambda m_lambda in dominance order
    m, d, r = case
    terms = jack_mono(m, d, r).terms
    assert terms[m] == 1
    for lam in terms:
        assert dominance_leq(lam, m)
