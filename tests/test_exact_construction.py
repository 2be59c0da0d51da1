"""The exact construction layer without per-term Fraction work: kernel-built
polynomials equal their validated copies, bodies are pinned, and warm
lookups hash no Fraction."""

import hashlib
from fractions import Fraction

import pytest

import fraction_oracle as oracle
import mcjacobi.coeffs as coeffs
import mcjacobi.mcj as mcj
import mcjacobi.sympoly as sympoly
from mcjacobi.errors import ParameterError
from mcjacobi.params import ParamSet
from mcjacobi.partitions import enumerate_partitions, pad
from mcjacobi.sympoly import CSymPoly, SymPoly

# (r, d, alpha, max weight): exact alpha > (d/2)(r-1), integer and non-integer d
CASES = [
    (1, Fraction(2), Fraction(3), 6),
    (2, Fraction(1, 3), Fraction(7, 3), 5),
    (2, Fraction(5, 2), Fraction(3), 5),
    (3, Fraction(7, 3), Fraction(11, 2), 4),
    (4, Fraction(1, 2), Fraction(9, 4), 3),
]


def _assert_as_validated(poly):
    """``poly`` is what its public constructor makes of its own terms: same
    values in the same key order, padded keys, non-zero values of the
    class's scalar type."""
    scalar = Fraction if type(poly) is SymPoly else complex
    again = type(poly)(poly.arity, poly.terms)
    assert list(poly.terms.items()) == list(again.terms.items())
    for lam, c in poly.terms.items():
        assert len(lam) == poly.arity and type(c) is scalar and c != 0


@pytest.mark.parametrize("r,d,alpha,w", CASES)
def test_kernel_built_polynomials_equal_validated_copies(r, d, alpha, w):
    pe = ParamSet(r=r, d=d, alpha=alpha, nu=0)
    pc = pe.with_(nu=0.3)
    for m in enumerate_partitions(w, r):
        built = [
            sympoly.jack_mono(m, d, r),
            sympoly.spherical_poly(m, d, r),
            coeffs._phi_one_plus(m, d.numerator, d.denominator, r),
            mcj.mcj_build(m, pe).body_exact,
            mcj.mcj_build(m, pe).body,
            mcj.mcj_build(m, pc).body,
            mcj.laguerre_build(m, pc).body,
            mcj._psi_body(m, pc),
        ]
        for beta, shifted in ((True, True), (False, False), (True, False)):
            built.append(mcj._family_body(m, pe, beta=beta, shifted=shifted, exact=True))
        for poly in built:
            _assert_as_validated(poly)


@pytest.mark.parametrize("r,d,alpha,w", CASES)
def test_spherical_normalization_matches_oracle(r, d, alpha, w):
    # the integer sum at (1,...,1) and the one-Fraction-per-term scale
    for m in enumerate_partitions(w, r):
        new, old = sympoly.spherical_poly(m, d, r), oracle.spherical_poly(m, d, r)
        assert list(new.terms.items()) == list(old.terms.items())
        jack = sympoly.jack_mono(m, d, r)
        total = sum(c * len(sympoly._orbit_cached(lam)) for lam, c in jack.terms.items())
        assert jack.eval_at_ones() == total


def test_to_complex_drops_a_coefficient_that_rounds_to_zero():
    exact = SymPoly(2, {(0, 0): Fraction(1), (1, 0): Fraction(1, 10**400),
                        (2, 1): Fraction(-3, 7)})
    cplx = exact.to_complex()
    assert list(cplx.terms.items()) == [((0, 0), 1 + 0j), ((2, 1), complex(Fraction(-3, 7)))]
    assert cplx == CSymPoly(2, {k: complex(v) for k, v in exact.terms.items()})


def test_exact_bodies_pinned():
    # sha256 of the 41 rendered exact bodies of weight <= 8 at r = 3, d = 7/3,
    # as the Fraction-per-term construction rendered them
    p = ParamSet(r=3, d=Fraction(7, 3), alpha=Fraction(11, 2), nu=0)
    parts = enumerate_partitions(8, 3)
    text = "\n".join(mcj.mcj_build(m, p).body_exact.render() for m in parts)
    assert len(parts) == 41
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "57343e6bd382fbee42dfb8c2fb61a367c82e8ebed49876a1d6047602e29dcf8a"
    )


def _poch_zero_oracle(m, params):
    """The first (j, t) with alpha - (d/2) j + t = 0 and t < m_j, in Fractions."""
    alpha, d2 = Fraction(params.alpha), params.d / 2
    for j in range(params.r):
        for t in range(pad(m, params.r)[j]):
            if alpha - d2 * j + t == 0:
                return j, t
    return None


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("d", [Fraction(1, 3), Fraction(1), Fraction(5, 2), Fraction(7, 3)])
def test_poch_zero_divisibility_test_matches_fraction_loop(r, d):
    for j in range(r):
        for t in range(-1, 5):
            for shift in (0, Fraction(1, 9)):
                alpha = d / 2 * j - t + shift
                if alpha == 0:
                    continue
                p = ParamSet(r=r, d=d, alpha=alpha, nu=0)
                for m in enumerate_partitions(5, r):
                    hit = _poch_zero_oracle(m, p)
                    if hit is None:
                        mcj._check_poch_nonzero(m, p)
                        continue
                    with pytest.raises(ParameterError) as exc:
                        mcj._check_poch_nonzero(m, p)
                    assert str(exc.value) == (
                        f"(alpha)_k vanishes: alpha - (d/2)({hit[0]}) + {hit[1]} = 0"
                    )


def test_warm_lookups_hash_no_fraction(monkeypatch):
    r, d = 3, Fraction(11, 7)
    pe = ParamSet(r=r, d=d, alpha=5, nu=0)
    pc = pe.with_(nu=0.3)
    parts = enumerate_partitions(5, r)

    def job():
        for m in parts:
            sympoly.spherical_poly(m, d, r)
            for k in parts:
                coeffs.gen_binom(m, k, pe)
            # the uncached builds read only the warm factor tables
            mcj.mcj_build.__wrapped__(m, pe)
            mcj.mcj_build.__wrapped__(m, pc)
            mcj.laguerre_build.__wrapped__(m, pc)

    job()
    calls = []
    real_hash = Fraction.__hash__

    def counting_hash(self):
        calls.append(self)
        return real_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    job()
    # cold lookups at fresh values of d, which no other test uses: every exact
    # table is keyed by d's numerator and denominator, down to its recursions
    coeffs.gen_binom((2, 1), (1,), ParamSet(r=r, d=Fraction(1031, 997)))
    sympoly.spherical_poly((3, 1), Fraction(1033, 997), r)
    sympoly.jack_mono((2, 2), Fraction(1039, 997), r)
    cold = ParamSet(r=r, d=Fraction(1049, 997), alpha=5, nu=0)
    mcj.mcj_build((2, 1), cold)
    mcj.mcj_build((2, 1), cold.with_(nu=0.3))
    mcj.laguerre_build((2, 1), cold.with_(nu=0.3))
    monkeypatch.undo()
    assert len(calls) == 0
    # the count sees a Fraction hash
    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    hash(Fraction(13, 7))
    monkeypatch.undo()
    assert len(calls) == 1


def _hex(z):
    return float.hex(z.real), float.hex(z.imag)


def test_exact_to_complex_is_complex_of_fraction():
    # every exact value the exact-build job converts: the m- and k-tables and
    # the spherical and shifted Phi terms of weight <= 8 at r = 3, two values of d
    convert = sympoly._as_complex
    for d in (Fraction(7, 3), Fraction(11, 7)):
        p = ParamSet(r=3, d=d, alpha=5, nu=0)
        parts = enumerate_partitions(8, 3)
        values = []
        for m in parts:
            dim, nr_poch, row = mcj._m_table(m, d.numerator, d.denominator, 3, Fraction)
            values += [dim, nr_poch] + [b for _, b in row]
            values += list(sympoly.spherical_poly(m, d, 3).terms.values())
            values += list(coeffs._phi_one_minus(m, d.numerator, d.denominator, 3).values())
            values += list(mcj.mcj_build(m, p).body_exact.terms.values())
            cdim, cpoch, crow = mcj._m_table(m, d.numerator, d.denominator, 3, complex)
            assert _hex(cdim) == _hex(complex(dim)) and _hex(cpoch) == _hex(complex(nr_poch))
            assert [_hex(b) for _, b in crow] == [_hex(complex(b)) for _, b in row]
        assert len(values) > 2000
        for c in values:
            assert type(convert(c)) is complex and _hex(convert(c)) == _hex(complex(c))
    huge = Fraction(3**2000 + 1, 7**1100)
    tiny = Fraction(1, 10**400)
    for c in (huge, -huge, tiny, -tiny, Fraction(0), Fraction(-3, 7), Fraction(2**60 + 1, 3)):
        assert _hex(convert(c)) == _hex(complex(c))
    assert convert(tiny) == 0 and not convert(tiny)  # what to_complex drops
    for c in (Fraction(10**400, 3), Fraction(-(10**400), 3)):
        with pytest.raises(OverflowError) as new:
            convert(c)
        with pytest.raises(OverflowError) as old:
            complex(c)
        assert str(new.value) == str(old.value)


def test_complex_phi_table_is_complex_of_fraction(monkeypatch):
    # the complex table is the exact one converted entry by entry, bitwise complex(Fraction)
    for d in (Fraction(7, 3), Fraction(11, 7)):
        for m in enumerate_partitions(6, 3):
            for shifted in (True, False):
                if shifted:
                    phi = coeffs._phi_one_minus(m, d.numerator, d.denominator, 3)
                else:
                    phi = sympoly.spherical_poly(m, d, 3).terms
                one, terms = mcj._phi_table(m, d.numerator, d.denominator, 3, shifted, complex)
                assert one == 1
                assert [(lam, _hex(c)) for lam, c in terms] == [
                    (lam, _hex(complex(c))) for lam, c in phi.items()
                ]
    # values no spherical polynomial reaches, from a stand-in table at an unused d
    huge, tiny = Fraction(3**2000 + 1, 7**1100), Fraction(1, 10**400)
    stand_in = {
        (2, 0): {(2, 0): huge, (1, 1): -tiny, (0, 0): Fraction(-3, 7)},
        (1, 0): {(1, 0): Fraction(10**400, 3), (0, 0): Fraction(1)},
    }
    monkeypatch.setattr(mcj, "_spherical_cached", lambda k, n, q, r: SymPoly(r, stand_in[k]))
    try:
        one, terms = mcj._phi_table((2, 0), 1051, 997, 2, False, complex)
        assert [(lam, _hex(c)) for lam, c in terms] == [
            (lam, _hex(complex(c))) for lam, c in stand_in[(2, 0)].items()
        ]
        assert terms[1][1] == 0
        with pytest.raises(OverflowError) as new:
            mcj._phi_table((1, 0), 1051, 997, 2, False, complex)
        with pytest.raises(OverflowError) as old:
            complex(stand_in[(1, 0)][(1, 0)])
        assert str(new.value) == str(old.value)
    finally:
        mcj._phi_table.cache_clear()  # drop the stand-in's exact entries
