"""The public surface: what ``__all__`` exports resolves, and names deleted
as code that no command, acceptance criterion or benchmark reached stay gone."""

import importlib
import pkgutil

import mcjacobi
from mcjacobi.mcj import LaguerrePolynomial
from mcjacobi.params import ParamSet
from mcjacobi.sympoly import CSymPoly, SymPoly

DELETED = [
    "weight_eval", "inner_product", "SingularPointError", "WeightMismatchError",
    "dominance_leq", "as_fraction", "C0Tilde", "jack_norm_torus",
]
DELETED_MEMBERS = [
    (ParamSet, "rho"), (ParamSet, "delta"), (LaguerrePolynomial, "eval_psi"),
    (SymPoly, "_make"), (CSymPoly, "_make"), (CSymPoly, "zero"),
]


def test_public_surface():
    assert len(set(mcjacobi.__all__)) == len(mcjacobi.__all__)
    for name in mcjacobi.__all__:
        assert getattr(mcjacobi, name) is not None
    modules = [mcjacobi] + [
        importlib.import_module(f"mcjacobi.{info.name}")
        for info in pkgutil.iter_modules(mcjacobi.__path__)
    ]
    assert len(modules) == 10
    gone = [(owner, name) for owner in modules for name in DELETED] + DELETED_MEMBERS
    still = [f"{owner.__name__}.{name}" for owner, name in gone if hasattr(owner, name)]
    assert not still
