"""Differential tests: the exact operator layer, which computes on Gaussian
integers over one denominator, against the frozen ``QComplex`` routines of
``qcomplex_oracle``, in value and in the floats it reports.

The residuals of the true family are exactly zero, so a path that always
returned 0.0 would pass the first comparison; the mutation tests double one
series coefficient in both paths and require the same non-zero floats.
"""

from fractions import Fraction

import pytest

import mcjacobi.mcj as mcj
import qcomplex_oracle as oracle
from mcjacobi.errors import ParameterError
from mcjacobi.params import ParamSet

# the criterion-7 grid, and nu = 0.3 at two more alphas
GRID = [(a, n) for a in (1.3, 2.0, 3.5) for n in (0.0, 0.7, -0.7)] + [(1.8, 0.3), (6.0, 0.3)]
M_MAX = 12


@pytest.mark.parametrize("alpha, nu", GRID)
def test_coefficients_equal_oracle(alpha, nu):
    q, A, b_re, N = mcj._lift(alpha, nu)
    assert (Fraction(A, q), Fraction(b_re, q), Fraction(N, q)) == (
        Fraction(alpha), (Fraction(alpha) + 1) / 2, Fraction(nu)
    )
    for m in range(M_MAX + 1):
        den, psi = mcj._rank1_coeffs(m, q, A, (b_re, N), 2)
        psi_qc = oracle.psi_coeffs(m, alpha, nu).values()
        assert oracle.fraction_pairs(den, psi) == oracle.pairs(psi_qc)
        lag = oracle.laguerre1_coeffs(m, Fraction(alpha))
        assert oracle.fraction_pairs(*mcj._rank1_coeffs(m, q, A, None, 2)) == [(c, 0) for c in lag]
        ode = mcj._rank1_coeffs(m, q, A, (b_re, N), 1)
        assert oracle.fraction_pairs(*ode) == oracle.pairs(oracle.ode_coeffs(m, alpha, nu))


@pytest.mark.parametrize("alpha, nu", GRID)
def test_residuals_equal_oracle(alpha, nu):
    for m in range(M_MAX + 1):
        assert mcj.ode_residual_onevar(m, alpha, nu) == oracle.ode_residual_onevar(m, alpha, nu)
        assert mcj.rank1_operator_residuals(m, alpha, nu) == oracle.rank1_operator_residuals(
            m, alpha, nu
        )


@pytest.fixture
def doubled(monkeypatch):
    """Make ``mcj._rank1_coeffs`` double its coefficient of index j."""

    def patch(j):
        live = mcj._rank1_coeffs

        def mutated(m, *args):
            den, terms = live(m, *args)
            terms = list(terms)
            x, y = terms[j]
            terms[j] = (2 * x, 2 * y)
            return den, terms

        monkeypatch.setattr(mcj, "_rank1_coeffs", mutated)

    return patch


@pytest.mark.parametrize("alpha, nu", GRID)
def test_mutated_residuals_equal_oracle(alpha, nu, doubled, monkeypatch):
    for m in range(1, 9):
        for j in (0, m // 2, m):
            monkeypatch.undo()
            doubled(j)
            ode = mcj.ode_residual_onevar(m, alpha, nu)
            assert ode > 0
            assert ode == oracle.ode_residual_onevar(m, alpha, nu, double=j)
            lag, psi = mcj.rank1_operator_residuals(m, alpha, nu)
            assert lag > 0 and psi > 0
            assert (lag, psi) == oracle.rank1_operator_residuals(m, alpha, nu, double=j)


def test_psi_eval_equals_oracle_coefficients():
    # psi_eval at r = 1 is the span of the oracle's exact coefficients
    p = ParamSet(r=1, d=2, alpha=1.8, nu=0.3)
    coeffs = oracle.psi_coeffs(6, 1.8, 0.3)
    b = complex((Fraction(1.8) + 1) / 2, 0.3)
    for t in (0.3, -0.9, 2.2):
        want = 0j
        for k, c in coeffs.items():
            want += complex(float(c.re), float(c.im)) * (1 - 1j * t) ** (-(b + k))
        assert abs(mcj.psi_eval((6,), p, [t]) - want) <= 1e-12 * abs(want)


def test_parameter_errors_still_raise():
    # (alpha)_k vanishes for some k <= m
    for call in (
        lambda: mcj._rank1_coeffs(1, 10, 0, (5, 2), 2),  # Psi's at alpha = 0, nu = 0.2
        lambda: mcj.ode_residual_onevar(3, -2.0, 0.0),
        lambda: mcj.rank1_operator_residuals(1, 0.0, 0.0),
        lambda: mcj._rank1_coeffs(2, 4, -4, None, 2),
    ):
        with pytest.raises(ParameterError, match="vanishes"):
            call()
    # gamma = 1 at k = 1 needs the antiderivative of (1 - i t)^{-1}; the
    # oracle divides by the same exact zero
    with pytest.raises(ParameterError, match="antiderivative"):
        mcj.rank1_operator_residuals(1, -1.0, 0.0)
    with pytest.raises(ParameterError, match="antiderivative"):
        oracle.rank1_operator_residuals(1, -1.0, 0.0)
    # alpha = 1, nu = 0 zeroes the potential, so gamma = 1 is never divided by
    assert mcj.rank1_operator_residuals(2, 1.0, 0.0) == (0.0, 0.0)
