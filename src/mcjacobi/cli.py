"""Command-line surface: construction, evaluation, and verification suites.

Exit codes: 0 all checks passed, 1 a tolerance check failed, 2 usage or
parameter error.  Reports are deterministic: identical invocations produce
byte-identical JSON (numbers serialized with 17 significant digits).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import acceptance, mcj, orthog
from .errors import McjError
from .params import ParamSet
from .partitions import enumerate_partitions, parse_partition

__version__ = "0.1.0"


# ---------------------------------------------------------------------------
# deterministic JSON with 17 significant digits
# ---------------------------------------------------------------------------


def _fmt_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def dumps_17g(obj) -> str:
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{dumps_17g(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_17g(v) for v in obj) + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    return _fmt_number(obj)


def format_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.17g}{sign}{abs(z.imag):.17g}i"


def _write_out(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
        print(f"wrote {out}")
    else:
        print(text)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_params(p: argparse.ArgumentParser):
    p.add_argument("--r", type=int, default=1, help="rank (number of variables)")
    p.add_argument("--d", type=_multiplicity, default=Fraction(2), help="multiplicity d > 0 (exact, e.g. 5/2 or 2.5)")
    p.add_argument("--alpha", type=_alpha, default=2.0, help="deformation parameter alpha (p/q is exact)")
    p.add_argument("--nu", type=float, default=0.0, help="deformation parameter nu")


def _multiplicity(text: str) -> Fraction:
    """Argument type of a multiplicity: an exact Fraction, e.g. 5/2 or 2.5."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"d must be a number or p/q, got {text!r}")


def _alpha(text: str):
    """Argument type of --alpha: p/q is an exact Fraction, anything else a float."""
    try:
        return Fraction(text) if "/" in text else float(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"alpha must be a number or p/q, got {text!r}")


def _params(args) -> ParamSet:
    alpha = args.alpha
    if isinstance(alpha, float) and alpha.is_integer():
        alpha = int(alpha)
    return ParamSet(r=args.r, d=args.d, alpha=alpha, nu=args.nu)


def _floats(text: str) -> list:
    """Comma-separated finite floats: angles, coordinates and parameter grids."""
    out = [float(tok) for tok in text.split(",") if tok.strip()]
    if not out:
        raise ValueError(f"need at least one value, got {text!r}")
    if not all(math.isfinite(x) for x in out):
        raise ValueError(f"values must be finite, got {text!r}")
    return out


def _tolerance(text: str) -> float:
    """Argument type of every tolerance flag: a non-negative number, not NaN."""
    tol = float(text)
    if not tol >= 0:
        raise argparse.ArgumentTypeError(
            f"tolerances must be non-negative numbers, got {text!r}"
        )
    return tol


def _fractions(text: str) -> list:
    """Argument type of a comma-separated list of multiplicities."""
    out = [_multiplicity(tok) for tok in text.split(",") if tok.strip()]
    if not out:
        raise argparse.ArgumentTypeError(f"need at least one multiplicity, got {text!r}")
    return out


def _load_config_defaults(argv: list) -> tuple:
    """Optional plain key=value file sets defaults; flags always win."""
    if "--config" not in argv:
        return argv, {}
    i = argv.index("--config")
    if i + 1 == len(argv):
        raise ValueError("--config needs a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    defaults = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#") or "=" not in line:
            continue
        key, val = line.split("=", 1)
        defaults[key.strip().replace("-", "_")] = val.strip()
    return rest, defaults


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_print_poly(args) -> int:
    params = _params(args)
    m = parse_partition(args.m)
    mcj.check_family_work(params, m=m)
    if args.family == "mcj":
        poly = mcj.mcj_build(m, params)
        body = poly.body if poly.body_exact is None else poly.body_exact
    else:
        body = mcj.laguerre_build(m, params).body
    print(body.render())
    return 0


def _cmd_eval(args) -> int:
    params = _params(args)
    m = parse_partition(args.m)
    mcj.check_family_work(params, m=m, evaluations=1)
    if args.family == "psi":
        t = _floats(args.t)
        value = mcj.psi_eval(m, params, t, mcj.PSI_REMEDY)
    else:
        theta = _floats(args.theta)
        sigma = [cmath.exp(1j * th) for th in theta]
        value = mcj.mcj_build(m, params).evaluate(sigma)
    print(format_complex(value))
    return 0


def _cmd_verify_orth(args) -> int:
    params = _params(args)
    rule = orthog.build_rule(args.points, args.rule, params)
    rep = orthog.verify_orthogonality(
        params, args.max_weight, rule, args.tol, args.tol
    )
    print(rep.one_line())
    if args.format == "csv":
        _write_out(rep.gram_modulus_csv(), args.out)
    elif args.format == "json" or args.out:
        _write_out(dumps_17g(rep.to_json_dict()), args.out)
    return 0 if rep.passed else 1


def _cmd_verify_det(args) -> int:
    params = _params(args)
    if params.d != 2:
        print("verify-det requires d = 2", file=sys.stderr)
        return 2
    if args.trials < 1:
        print("verify-det needs --trials >= 1", file=sys.stderr)
        return 2
    # a trial evaluates the member and Psi, and r^2 rank-1 entries of each determinant
    mcj.check_family_work(params, args.max_weight, evaluations=args.trials * (2 + 2 * params.r**2))
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    worst = 0.0
    checked = 0
    for m in enumerate_partitions(args.max_weight, params.r):
        draws = [np.sort(rng.uniform(0.15, 2 * math.pi - 0.15, size=params.r))
                 for _ in range(args.trials)]
        angles = [th for th in draws if params.r == 1 or np.min(np.diff(th)) >= 0.2]
        checked += len(angles)
        sigmas = [[cmath.exp(1j * x) for x in th] for th in angles]
        ts = [list(np.tan((th - math.pi) / 2)) for th in angles]
        worst = max(worst, mcj.worst_det_residual(m, params, sigmas, ts))
    if not checked:
        print(
            f"verify-det checked nothing: every trial drew angles closer than 0.2 "
            f"(seed {args.seed}); use more --trials or another --seed",
            file=sys.stderr,
        )
        return 2
    ok = worst <= args.tol
    print(
        f"{'pass' if ok else 'FAIL'} determinant formulas: rel residual {worst:.3e} "
        f"(tol {args.tol:g}, seed {args.seed})"
    )
    return 0 if ok else 1


def _cmd_verify_genfun(args) -> int:
    params = _params(args)
    z = [complex(x) for x in _floats(args.z)]
    theta = _floats(args.theta)
    sigma = [cmath.exp(1j * th) for th in theta]
    t = _floats(args.t)
    res_phi = mcj.genfun_residual_phi(params, z, sigma, args.N)
    res_psi = mcj.genfun_residual_psi(params, z, t, args.N)
    ok = res_phi <= args.tol and res_psi <= args.tol  # a NaN residual fails
    print(
        f"{'pass' if ok else 'FAIL'} generating functions: phi {res_phi:.3e} "
        f"psi {res_psi:.3e} (tol {args.tol:g}, N={args.N})"
    )
    return 0 if ok else 1


def _cmd_verify_ode(args) -> int:
    worst_ode, worst_r1 = mcj.worst_operator_residuals(
        _floats(args.alpha_grid), _floats(args.nu_grid), args.m_max, args.m_max
    )
    ok = worst_ode <= args.tol and worst_r1 <= args.tol_rank1
    print(
        f"{'pass' if ok else 'FAIL'} operator residuals: ode {worst_ode:.3e} "
        f"(tol {args.tol:g}) rank-1 {worst_r1:.3e} (tol {args.tol_rank1:g})"
    )
    return 0 if ok else 1


def _cmd_conjecture_sweep(args) -> int:
    reports = orthog.conjecture_sweep(
        args.d,
        _floats(args.alpha),
        _floats(args.nu),
        r=args.r,
        max_weight=args.max_weight,
        points_per_axis=args.points,
        kind=args.rule,
        tol_off=args.tol,
        tol_diag=args.tol,
        oracle_tol=args.oracle_tol,
    )
    if not reports:
        print("conjecture-sweep checked nothing: every point was skipped", file=sys.stderr)
        return 2
    for rep in reports:
        print(rep.one_line())
    doc = {
        "schema": "mcjacobi-sweep-report-v1",
        "reports": [rep.to_json_dict() for rep in reports],
    }
    if args.out:
        _write_out(dumps_17g(doc), args.out)
    return 0 if all(rep.passed for rep in reports) else 1


def _cmd_selftest(args) -> int:
    results = acceptance.run_all(quick=args.quick)
    for res in results:
        print(res.line())
    failed = [res for res in results if not res.passed]
    if failed:
        names = ", ".join(res.name for res in failed)
        print(f"FAILED suites: {names}")
        return 1
    print("all acceptance criteria passed")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mcjacobi",
        description="multivariate circular Jacobi polynomials: construction, "
        "evaluation, and verification",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("print-poly", help="render a polynomial body")
    _add_params(p)
    p.add_argument("--m", required=True, help="partition, e.g. 2,1")
    p.add_argument("--family", choices=["mcj", "laguerre"], default="mcj")
    p.set_defaults(fn=_cmd_print_poly)

    p = sub.add_parser("eval", help="evaluate at a point")
    _add_params(p)
    p.add_argument("--m", required=True)
    p.add_argument("--family", choices=["mcj", "psi"], default="mcj")
    p.add_argument("--theta", default="1.0", help="torus angles (mcj family)")
    p.add_argument("--t", default="0.5", help="real coordinates (psi family)")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("verify-orth", help="quadrature Gram matrix vs predicted norms")
    _add_params(p)
    p.add_argument("--max-weight", type=int, default=3)
    p.add_argument("--points", type=int, default=64)
    p.add_argument("--rule", default="auto",
                   choices=["auto", "tanh_sinh", "gauss_gegenbauer"])
    p.add_argument("--tol", type=_tolerance, default=1e-6)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p.set_defaults(fn=_cmd_verify_orth)

    p = sub.add_parser("verify-det", help="determinant formulas vs direct definitions (d=2)")
    _add_params(p)
    p.add_argument("--max-weight", type=int, default=3)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=acceptance.SEED)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.set_defaults(fn=_cmd_verify_det)

    p = sub.add_parser("verify-genfun", help="generating-function truncation residuals")
    _add_params(p)
    p.add_argument("--N", type=int, default=20)
    p.add_argument("--z", default="0.2")
    p.add_argument("--theta", default="0.9")
    p.add_argument("--t", default="0.8")
    p.add_argument("--tol", type=_tolerance, default=1e-8)
    p.set_defaults(fn=_cmd_verify_genfun)

    p = sub.add_parser("verify-ode", help="one-variable ODE and rank-1 operator residuals")
    p.add_argument("--m-max", type=int, default=10)
    p.add_argument("--alpha-grid", default="1.3,2,3.5")
    p.add_argument("--nu-grid", default="0,0.7,-0.7")
    p.add_argument("--tol", type=_tolerance, default=1e-12)
    p.add_argument("--tol-rank1", type=_tolerance, default=1e-11)
    p.set_defaults(fn=_cmd_verify_ode)

    p = sub.add_parser("conjecture-sweep", help="orthogonality evidence over a d grid")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--d", type=_fractions, default="5/2", help="comma list of multiplicities")
    p.add_argument("--alpha", default="3")
    p.add_argument("--nu", default="0,0.3")
    p.add_argument("--max-weight", type=int, default=2)
    p.add_argument("--points", type=int, default=48)
    p.add_argument("--rule", default="auto",
                   choices=["auto", "tanh_sinh", "gauss_gegenbauer"])
    p.add_argument("--tol", type=_tolerance, default=1e-4)
    p.add_argument("--oracle-tol", type=_tolerance, default=1e-6)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_conjecture_sweep)

    p = sub.add_parser("selftest", help="run the acceptance battery")
    p.add_argument("--quick", action="store_true", help="reduced sizes, < 30 s")
    p.set_defaults(fn=_cmd_selftest)

    return ap


def run(argv: list) -> int:
    try:
        argv, defaults = _load_config_defaults(list(argv))
        ap = build_parser()
        for action in ap._subparsers._group_actions[0].choices.values():  # type: ignore[union-attr]
            known = {a.dest for a in action._actions}
            action.set_defaults(**{k: v for k, v in defaults.items() if k in known})
        args = ap.parse_args(argv)
        return args.fn(args)
    except McjError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, OverflowError) as exc:
        # an OverflowError is a float evaluation pushed past the double range
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
