"""Multivariate circular Jacobi polynomials.

Exact construction of the two-parameter deformation of spherical (Jack)
polynomials, its closed-form identities at desk scale, and numerical
certification of the torus orthogonality relations, including evidence runs
at non-classical multiplicities.
"""

from .coeffs import (
    c0_tilde,
    dim_dm,
    expected_norm,
    gamma_k_partition,
    gamma_omega_log,
    gen_binom,
    gen_pochhammer,
    jack_at_ones,
    spherical_taylor_residual,
)
from .errors import (
    ArityMismatchError,
    GammaPoleError,
    McjError,
    ParameterError,
    VandermondeZeroError,
)
from .mcj import (
    LaguerrePolynomial,
    MCJPolynomial,
    cauchy_kernel_det,
    cauchy_kernel_series,
    cj1_eval,
    det_eval_phi,
    det_eval_psi,
    euler_residual,
    genfun_residual_phi,
    genfun_residual_psi,
    laguerre_build,
    laguerre_genfun_residual,
    mcj_build,
    mp1_eval,
    ode_residual_onevar,
    psi_eval,
    rank1_operator_residuals,
)
from .orthog import (
    OrthReport,
    QuadratureRule,
    build_rule,
    conjecture_sweep,
    verify_orthogonality,
)
from .params import ParamSet
from .partitions import (
    contains,
    enumerate_partitions,
    format_partition,
    parse_partition,
)
from .sympoly import (
    CSymPoly,
    SymPoly,
    affine_substitute,
    jack_mono,
    msym_mul,
    schur,
    spherical_poly,
)

__version__ = "0.1.0"

__all__ = [
    "ParamSet",
    "SymPoly",
    "CSymPoly",
    "MCJPolynomial",
    "LaguerrePolynomial",
    "OrthReport",
    "QuadratureRule",
    "enumerate_partitions",
    "contains",
    "parse_partition",
    "format_partition",
    "msym_mul",
    "affine_substitute",
    "jack_mono",
    "schur",
    "spherical_poly",
    "gen_pochhammer",
    "gamma_omega_log",
    "dim_dm",
    "c0_tilde",
    "gen_binom",
    "gamma_k_partition",
    "jack_at_ones",
    "expected_norm",
    "spherical_taylor_residual",
    "mcj_build",
    "cj1_eval",
    "laguerre_build",
    "psi_eval",
    "det_eval_phi",
    "det_eval_psi",
    "cauchy_kernel_det",
    "cauchy_kernel_series",
    "genfun_residual_phi",
    "genfun_residual_psi",
    "laguerre_genfun_residual",
    "ode_residual_onevar",
    "rank1_operator_residuals",
    "euler_residual",
    "mp1_eval",
    "build_rule",
    "verify_orthogonality",
    "conjecture_sweep",
    "McjError",
    "ArityMismatchError",
    "ParameterError",
    "GammaPoleError",
    "VandermondeZeroError",
]
