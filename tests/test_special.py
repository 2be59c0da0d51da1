"""The package's own Gauss-Jacobi rules (``orthog.roots_jacobi``) and complex
log-gamma (``coeffs._loggamma``): closed forms, exactness, and errors against
the 50-digit values of ``special_reference`` no worse than scipy's, which is
a test-only oracle here."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mcjacobi.coeffs import _loggamma
from mcjacobi.orthog import roots_jacobi
from special_reference import GAUSS_JACOBI, LOGGAMMA


def _err(value: float, ref: str) -> Fraction:
    """|value - ref|, exactly: the double and the 50-digit decimal as Fractions."""
    return abs(Fraction(value) - Fraction(ref))


# ---------------------------------------------------------------- Gauss-Jacobi


@pytest.mark.parametrize("n", [1, 5, 96, 2048])
def test_chebyshev_second_kind_closed_form(n):
    # a = b = 1/2: nodes cos(k pi/(n+1)), weights pi/(n+1) sin^2(k pi/(n+1)), in
    # doubles to about 4e-16; an endpoint weight's relative error is at least its
    # node's rounding over 1 - |x| ~ (pi/(n+1))^2 / 2, ~4.5e-11 at n = 2048
    x, w = roots_jacobi(n, 0.5, 0.5)
    k = np.arange(n, 0, -1)
    assert np.max(np.abs(x - np.cos(k * math.pi / (n + 1)))) <= 1e-15
    ref_w = math.pi / (n + 1) * np.sin(k * math.pi / (n + 1)) ** 2
    assert np.max(np.abs(w / ref_w - 1)) <= (2e-13 if n <= 96 else 1e-10)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


@pytest.mark.parametrize("n", [1, 5, 96, 2048])
def test_chebyshev_first_kind_closed_form(n):
    # a = b = -1/2: nodes cos((2k - 1) pi/(2n)), every weight pi/n
    x, w = roots_jacobi(n, -0.5, -0.5)
    k = np.arange(n, 0, -1)
    assert np.max(np.abs(x - np.cos((2 * k - 1) * math.pi / (2 * n)))) <= 1e-15
    assert np.all(w == math.pi / n)
    assert np.array_equal(x, -x[::-1])


@pytest.mark.parametrize("n,a,b", [
    (20, 0.3, -0.3),  # a + b = 0: the textbook alpha_0 is 0/0
    (20, -0.25, -0.75),  # a + b = -1: the textbook beta_1 is 0/0
    (13, -0.5, -0.5),
    (17, 0.7, -0.7),
    (24, 1.5, -0.5),
    (30, 2.5, 0.25),
    (12, -0.9, 3.7),
    (9, 40.0, 0.0),
    (15, 2.5, 2.5),  # a = b: the half-size problem, odd n with a node at 0
    (16, -0.9, -0.9),
])
def test_rule_exact_to_degree_2n_minus_1(n, a, b):
    # int ((1+x)/2)^k (1-x)^a (1+x)^b dx = 2^(a+b+1) B(a+1, b+k+1), k < 2n: the
    # terms are positive, so the sums carry the weights' relative error
    x, w = roots_jacobi(n, a, b)
    assert np.all(np.diff(x) > 0) and np.all(w > 0) and -1 < x[0] and x[-1] < 1
    u = (1 + x) / 2
    for k in range(2 * n):
        log_moment = (
            (a + b + 1) * math.log(2)
            + math.lgamma(a + 1) + math.lgamma(b + k + 1) - math.lgamma(a + b + k + 2)
        )
        rel = abs(math.fsum((w * u**k).tolist()) / math.exp(log_moment) - 1)
        assert rel <= 1e-13, (k, rel)


def test_rule_errors_no_worse_than_scipy():
    roots_ref = pytest.importorskip("scipy.special").roots_jacobi
    for (n, a, b), (nodes, weights) in GAUSS_JACOBI.items():
        x, w = roots_jacobi(n, a, b)
        with np.errstate(invalid="ignore"):  # scipy's 0/0 at a + b = -1, discarded by np.where
            sx, sw = roots_ref(n, a, b)
        ours = [max(_err(v, r) for v, r in zip(x.tolist(), nodes)),
                max(_err(v, r) / Fraction(r) for v, r in zip(w.tolist(), weights))]
        theirs = [max(_err(v, r) for v, r in zip(sx.tolist(), nodes)),
                  max(_err(v, r) / Fraction(r) for v, r in zip(sw.tolist(), weights))]
        # nodes within a unit in the last place of 1, weights to 1e-12
        assert ours[0] <= 2**-52 and ours[1] <= Fraction(1, 10**12), ((n, a, b), ours)
        assert ours[0] <= theirs[0] and ours[1] <= theirs[1], ((n, a, b), ours, theirs)


# ---------------------------------------------------------------- log-gamma


def _lg_err(f, re, im, ref_re, ref_im) -> Fraction:
    """|f(z) - ref| / max(1, |ref|) in the max norm: the error of log Gamma, which
    is the relative error of Gamma where |log Gamma| < 1, near its zeros at 1 and 2."""
    v = complex(f(complex(re, im)))
    scale = max(1, abs(Fraction(ref_re)), abs(Fraction(ref_im)))
    return max(_err(v.real, ref_re), _err(v.imag, ref_im)) / scale


@pytest.mark.parametrize("region", sorted(LOGGAMMA))
def test_loggamma_errors_no_worse_than_scipy(region):
    loggamma = pytest.importorskip("scipy.special").loggamma
    points = LOGGAMMA[region]
    ours = max(_lg_err(_loggamma, *p) for p in points)
    theirs = max(_lg_err(loggamma, *p) for p in points)
    assert ours <= Fraction(4, 10**15), float(ours)
    assert ours <= theirs, (float(ours), float(theirs))


def test_loggamma_branch_and_symmetry():
    # the branch is continuous across the negative real axis' gaps from above,
    # and conjugation mirrors it; real arguments stay real
    assert _loggamma(complex(5)) == pytest.approx(math.log(24), rel=1e-15)
    assert _loggamma(complex(5)).imag == _loggamma(complex(0.5)).imag == 0.0
    for z in (complex(-2.5, 1e-9), complex(-7.3, 0.4), complex(3.2, -5.5), complex(-40, 250)):
        assert _loggamma(z.conjugate()) == _loggamma(z).conjugate()
    # on the branch, Im log Gamma(x + i0) = -pi ceil(-x) for x < 0 not an integer
    for x in (-0.5, -1.5, -2.25, -7.75):
        assert _loggamma(complex(x, 0.0)).imag == pytest.approx(-math.pi * math.ceil(-x), abs=1e-12)
        assert _loggamma(complex(x, 1e-9)).imag == pytest.approx(-math.pi * math.ceil(-x), abs=1e-7)
    # log Gamma(z + 1) = log Gamma(z) + log z on the branch, across the real axis' gaps
    for z in (complex(-3.7, 0.2), complex(-0.3, 2.0), complex(0.8, -9.0), complex(-12.2, 0.01)):
        step = _loggamma(z + 1) - _loggamma(z) - np.log(z)
        assert abs(step) <= 1e-12 * max(1, abs(_loggamma(z)))
