"""Property tests: the exact construction layer, which sums integer
numerators over one denominator, equals the frozen Fraction routines of
``fraction_oracle`` in value and in dict key order."""

import math
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


def _jack_fractions(m, d_num, d_den, r):
    """``sympoly._jack_terms`` as the oracle's ((lambda, Fraction), ...)."""
    lams, nums, dens = sympoly._jack_terms(m, d_num, d_den, r)
    return tuple(zip(lams, map(Fraction, nums, dens)))


@PROPERTY_SETTINGS
@given(rank_d_partition())
def test_jack_rows_and_phi_one_plus_match_oracle(case):
    p, m = case
    d, r = p.d, p.r
    key = (d.numerator, d.denominator)
    assert _jack_fractions(m, *key, r) == oracle._jack_terms(m, 2 / d, r)
    assert _row_items(m, *key, r) == list(oracle._binom_row(m, d, r).items())
    # Phi_m(1 + x) is Phi_m(1 - x) with its odd-weight terms negated
    den, lams, nums = mcj._phi_table(m, *key, r, True, Fraction)
    new_phi = [
        (lam, Fraction(-num if weight(lam) % 2 else num, den)) for lam, num in zip(lams, nums)
    ]
    assert new_phi == list(oracle._phi_one_plus(m, d, r).terms.items())


def _row_items(m, d_num, d_den, r):
    """The integer row of ``coeffs._binom_row`` as the oracle's [(k, Fraction), ...],
    after checking that it is reduced: positive integers over the lcm of the reduced
    values' denominators, binom(m, m) = 1 first."""
    den, nums = coeffs._binom_row(m, d_num, d_den, r)
    assert type(den) is int and nums[0] == den and math.gcd(*nums) == 1
    assert all(type(v) is int and v > 0 for v in nums)
    values = [Fraction(v, den) for v in nums]
    assert den == math.lcm(*(b.denominator for b in values))
    return list(zip((m, *coeffs._row_plan(m, r)[1]), values))


def _hex(z):
    return float.hex(z.real), float.hex(z.imag)


def _oracle_table(k, d, r, shifted):
    """The exact Phi table built from the frozen Fraction routines: the reduced
    terms' numerators over their lcm, in the oracle's key order."""
    phi = oracle._phi_one_minus(k, d, r) if shifted else oracle.spherical_poly(k, d, r).terms
    den = math.lcm(*(c.denominator for c in phi.values()))
    return den, tuple(phi), tuple(c.numerator * (den // c.denominator) for c in phi.values())


@st.composite
def long_or_short_d_partition(draw):
    """(d, r, a partition of weight <= 6): d = p/q in (0, 8], with q <= 12 or with
    a numerator and denominator of 21 to 41 digits; r in 1..4."""
    r = draw(st.integers(min_value=1, max_value=4))
    q = draw(st.integers(min_value=1, max_value=12) | st.integers(min_value=10**20, max_value=10**40))
    d = Fraction(draw(st.integers(min_value=1, max_value=8 * q)), q)
    m = draw(st.sampled_from(enumerate_partitions(MAX_WEIGHT, r)))
    return d, r, m


@settings(max_examples=80, deadline=None, derandomize=True)
@given(long_or_short_d_partition())
def test_phi_tables_match_oracle(case):
    # both tables, exact and complex: the same den, numerators and key order as the
    # oracle's; each complex value the correctly rounded oracle Fraction
    d, r, k = case
    for shifted in (True, False):
        table = _oracle_table(k, d, r, shifted)
        assert mcj._phi_table(k, d.numerator, d.denominator, r, shifted, Fraction) == table
        one, lams, terms = mcj._phi_table(k, d.numerator, d.denominator, r, shifted, complex)
        den, keys, nums = table
        expected = [(lam, complex(Fraction(num, den))) for lam, num in zip(keys, nums)]
        assert one == 1 and [(lam, _hex(c)) for lam, c in zip(lams, terms)] == [
            (lam, _hex(c)) for lam, c in expected
        ]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(long_or_short_d_partition())
def test_jack_terms_from_skeleton_match_oracle(case):
    # a fresh d runs only the integer arithmetic over the d-free skeleton, which
    # rebuilds to the same terms once its cache is cleared
    d, r, m = case
    expected = oracle._jack_terms(m, 2 / d, r)
    for _ in range(2):
        lams, nums, dens = sympoly._jack_terms.__wrapped__(m, d.numerator, d.denominator, r)
        assert all(type(e) is int and e > 0 and math.gcd(n, e) == 1 for n, e in zip(nums, dens))
        assert tuple(zip(lams, map(Fraction, nums, dens))) == expected
        sympoly._jack_skeleton.cache_clear()


@PROPERTY_SETTINGS
@given(rank_d_partition())
def test_exact_family_body_matches_oracle(case):
    p, m = case
    for beta, shifted in ((True, True), (False, False), (True, False)):
        new = mcj._family_body(m, p, beta=beta, shifted=shifted, exact=True)[1]
        old = oracle.family_body_exact(m, p, beta=beta, shifted=shifted)
        assert list(new.terms.items()) == list(old.terms.items())


# in these bodies a monomial's partial sum is exactly zero before a later k adds to it
CANCELLING = [
    (2, Fraction(1), Fraction(4), (2, 2)),
    (2, Fraction(5, 2), Fraction(5, 2), (2, 1)),
    (3, Fraction(1), Fraction(5), (2, 2, 0)),
    (3, Fraction(1, 2), Fraction(11, 4), (2, 2, 0)),
]


@pytest.mark.parametrize("r,d,alpha,m", CANCELLING)
def test_exact_family_body_keeps_key_order_where_a_partial_sum_cancels(r, d, alpha, m):
    # in these bodies a monomial's partial sum is exactly zero before a later k
    # adds to it again, so it is popped and re-inserted at the end
    p = ParamSet(r=r, d=d, alpha=alpha, nu=0)
    new = mcj._family_body(m, p, beta=True, shifted=True, exact=True)[1]
    old = oracle.family_body_exact(m, p, beta=True, shifted=True)
    assert list(new.terms.items()) == list(old.terms.items())


# the d-free plans, and every per-d table whose build reads one
PLANS = (coeffs._row_plan, mcj._shift_plan, mcj._body_plan)
PER_D = (coeffs._binom_row, coeffs._binom_view, mcj._phi_table, mcj._m_table, sympoly._jack_terms,
         sympoly._spherical_cached)


def _clear(caches):
    for cache in caches:
        cache.cache_clear()


def _per_d_tables(m, d, r):
    """Every table a plan lays out at d, built afresh: the one-box binomials, the
    row, both Phi tables and the exact and complex bodies, as (key, value) lists
    in key order, each complex value as ``float.hex``."""
    key = (d.numerator, d.denominator)
    pe = ParamSet(r=r, d=d, alpha=d / 2 * (r - 1) + 1, nu=0)
    pc = pe.with_(nu=0.3)
    out = [coeffs._one_box(m, *key, r), coeffs._binom_row(m, *key, r)]
    for shifted in (True, False):
        out.append(mcj._phi_table(m, *key, r, shifted, Fraction))
        out.append([_hex(c) for c in mcj._phi_table(m, *key, r, shifted, complex)[2]])
    for beta, shifted in ((True, True), (False, False), (True, False)):
        twin, exact = mcj._family_body(m, pe, beta=beta, shifted=shifted, exact=True)
        cplx = mcj._family_body(m, pc, beta=beta, shifted=shifted, exact=False)
        out.append(list(exact.terms.items()))
        out += [[(lam, _hex(c)) for lam, c in body.terms.items()] for body in (twin, cplx)]
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(long_or_short_d_partition(), long_or_short_d_partition())
def test_plans_built_at_one_d_serve_another(first, second):
    # plans warmed at d1 give the tables of d2 that plans built at d2 give, in value,
    # key order and bits; the per-d caches are cleared so each build is fresh
    (d1, r, m), d2 = first, second[0]
    _clear(PLANS + PER_D)
    _per_d_tables(m, d1, r)
    warm = _per_d_tables(m, d2, r)
    _clear(PLANS + PER_D)
    assert _per_d_tables(m, d2, r) == warm


@pytest.mark.parametrize("r,d,alpha,m", CANCELLING)
def test_cancelling_bodies_keep_key_order_on_plans_built_at_another_d(r, d, alpha, m):
    # the insertions a cancelled sum makes are the same on plans warmed at another d
    _clear(PLANS)
    warm_at = ParamSet(r=r, d=d + Fraction(1, 7), alpha=alpha + 1, nu=0)
    mcj._family_body(m, warm_at, beta=True, shifted=True, exact=True)
    p = ParamSet(r=r, d=d, alpha=alpha, nu=0)
    new = mcj._family_body(m, p, beta=True, shifted=True, exact=True)[1]
    old = oracle.family_body_exact(m, p, beta=True, shifted=True)
    assert list(new.terms.items()) == list(old.terms.items())


def test_plan_caches_are_bounded():
    assert all(plan.cache_info().maxsize is not None for plan in PLANS)


@st.composite
def wide_d_partition(draw):
    """(d, r, a partition): r in 1..6, weight <= 6 (<= 5 from r = 5 on), d = p/q in
    (0, 8] with q <= 12 or with a numerator and denominator of 20 to 41 digits."""
    r = draw(st.integers(min_value=1, max_value=6))
    long_q = st.integers(min_value=10**19, max_value=10**41 - 1)
    q = draw(st.integers(min_value=1, max_value=12) | long_q)
    if q <= 12:
        p = draw(st.integers(min_value=1, max_value=8 * q))
    else:  # the next numerator prime to q, so both parts keep their digits in lowest terms
        p = draw(st.integers(min_value=10**19, max_value=min(8 * q, 10**41 - 2)))
        while math.gcd(p, q) != 1:
            p += 1
    m = draw(st.sampled_from(enumerate_partitions(MAX_WEIGHT if r <= 4 else 5, r)))
    return Fraction(p, q), r, m


@settings(max_examples=60, deadline=None, derandomize=True)
@given(wide_d_partition(), wide_d_partition())
def test_integer_rows_on_plans_warmed_at_another_d_match_oracle(case, other):
    # the row's numerators over one reduced denominator, in the plan's key order, are
    # the oracle's Fraction row, whatever d the plans were built at
    (d, r, m), warm = case, other[0]
    _clear(PLANS + PER_D)
    coeffs._binom_row(m, warm.numerator, warm.denominator, r)
    coeffs._binom_row.cache_clear()
    assert _row_items(m, d.numerator, d.denominator, r) == list(oracle._binom_row(m, d, r).items())


def _hex_items(poly):
    return [(lam, _hex(c)) for lam, c in poly.terms.items()]


# the exact-build pool: every non-integer d = p/q, q <= 9, d < 6
POOL = sorted({Fraction(p, q) for q in range(2, 10) for p in range(1, 6 * q) if p % q})


def test_complex_mcj_bodies_are_their_exact_bodies_to_complex():
    # the complex body is emitted from the exact body's integer sums: it is what
    # to_complex() makes of the exact body, in values, key order and bits
    parts = enumerate_partitions(8, 3)
    assert len(POOL) == 162 and len(parts) == 41
    for d in POOL:
        p = ParamSet(r=3, d=d, alpha=math.floor(1 + d) + 2, nu=0)
        for m in parts:
            poly = mcj.mcj_build(m, p)
            assert _hex_items(poly.body) == _hex_items(poly.body_exact.to_complex())


@pytest.mark.parametrize("r,d,alpha,m", CANCELLING)
def test_complex_twin_keeps_key_order_where_a_partial_sum_cancels(r, d, alpha, m):
    p = ParamSet(r=r, d=d, alpha=alpha, nu=0)
    for beta, shifted in ((True, True), (False, False), (True, False)):
        twin, exact = mcj._family_body(m, p, beta=beta, shifted=shifted, exact=True)
        assert _hex_items(twin) == _hex_items(exact.to_complex())
    poly = mcj.mcj_build.__wrapped__(m, p)
    assert _hex_items(poly.body) == _hex_items(poly.body_exact.to_complex())
