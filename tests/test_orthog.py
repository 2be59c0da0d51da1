import dataclasses
import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import roots_jacobi

import mcjacobi.coeffs as coeffs_mod
import mcjacobi.orthog as orthog
from mcjacobi.coeffs import (
    c0_tilde,
    dim_dm,
    expected_norm,
    gamma_omega_log,
    jack_at_ones,
    jack_norm_torus,
)
from mcjacobi.errors import ParameterError, SingularPointError
from mcjacobi.mcj import mcj_build
from mcjacobi.cli import run
from mcjacobi.orthog import (
    _NODE_BUDGET,
    _geometry,
    _gram,
    _pairwise,
    _weights,
    build_rule,
    conjecture_sweep,
    inner_product,
    resolve_rule_kind,
    verify_orthogonality,
    weight_eval,
)
from mcjacobi.params import ParamSet
from mcjacobi.partitions import enumerate_partitions
from quadrature_oracle import coords, points_weights

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------- weight


def test_weight_eval_examples():
    p = ParamSet(r=1, d=1, alpha=2, nu=0)
    assert weight_eval([math.pi], p) == pytest.approx(2.0)  # 2^{alpha-1}
    p35 = ParamSet(r=1, d=1, alpha=3.5, nu=0)
    assert weight_eval([math.pi], p35) == pytest.approx(2 ** 2.5)
    flat = ParamSet(r=1, d=1, alpha=1, nu=0)
    for th in (0.3, 2.0, 5.9):
        assert weight_eval([th], flat) == pytest.approx(1.0)
    # alpha = n/r, nu = 0 leaves only the pair coupling
    p2 = ParamSet(r=2, d=2, alpha=2, nu=0)
    th = [1.1, 2.6]
    expect = abs(2 * math.sin((th[0] - th[1]) / 2)) ** 2
    assert weight_eval(th, p2) == pytest.approx(expect)


def test_weight_eval_singular_points():
    p = ParamSet(r=1, d=1, alpha=2, nu=0)
    with pytest.raises(SingularPointError):
        weight_eval([0.0], p)
    with pytest.raises(SingularPointError):
        weight_eval([TWO_PI], p)


# ---------------------------------------------------------------- rules


@pytest.mark.parametrize("kind", ["tanh_sinh", "gauss_gegenbauer"])
def test_rule_integrates_constants(kind):
    p = ParamSet(r=1, d=1, alpha=1, nu=0)  # s = 0
    rule = build_rule(40, kind, p)
    assert math.fsum(rule.weights.tolist()) == pytest.approx(TWO_PI, abs=1e-12)
    assert np.all(rule.weights > 0)
    assert np.all((rule.nodes > 0) & (rule.nodes < TWO_PI))


@pytest.mark.parametrize("kind", ["tanh_sinh", "gauss_gegenbauer"])
def test_rule_folds_singular_factor(kind):
    # int_0^{2pi} 2 sin(theta/2) dtheta = 8
    p = ParamSet(r=1, d=1, alpha=2, nu=0)
    rule = build_rule(48, kind, p)
    assert math.fsum(rule.weights.tolist()) == pytest.approx(8.0, abs=1e-12)


def test_rule_validation():
    p = ParamSet(r=1, d=1, alpha=2, nu=0)
    with pytest.raises(ParameterError):
        build_rule(3, "tanh_sinh", p)
    with pytest.raises(ParameterError):
        build_rule(16, "gauss_gegenbauer", ParamSet(r=2, d=2, alpha=0.9, nu=0))
    with pytest.raises(ParameterError):
        build_rule(16, "no_such_rule", p)


def test_rule_kind_resolution():
    assert resolve_rule_kind(ParamSet(r=1, d=2, alpha=2, nu=0)) == "gauss_gegenbauer"
    assert resolve_rule_kind(ParamSet(r=2, d=2, alpha=3, nu=0)) == "gauss_gegenbauer"
    assert resolve_rule_kind(ParamSet(r=2, d=2, alpha=3, nu=0.5)) == "tanh_sinh"
    assert resolve_rule_kind(ParamSet(r=2, d=Fraction(5, 2), alpha=3, nu=0)) == "tanh_sinh"


def test_rule_params_mismatch_rejected():
    p = ParamSet(r=1, d=1, alpha=2, nu=0)
    rule = build_rule(16, "tanh_sinh", p)
    other = ParamSet(r=1, d=1, alpha=3, nu=0)
    with pytest.raises(ParameterError):
        inner_product((0,), (0,), other, rule)


def test_quadrature_rank_cap():
    p = ParamSet(r=4, d=2, alpha=4, nu=0)
    rule = build_rule(8, "auto", p)
    with pytest.raises(ParameterError, match="r <= 3"):
        inner_product((0,) * 4, (0,) * 4, p, rule)


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("d", [Fraction(1), Fraction(5, 2)])
def test_nested_weights_match_dyson_constant_term(r, d):
    # alpha = n/r, nu = 0 leaves prod_{p<q} |e^{i theta_p} - e^{i theta_q}|^d,
    # whose torus integral is (2 pi)^r Gamma(1 + r d/2) / Gamma(1 + d/2)^r
    base = ParamSet(r=r, d=d)
    p = base.with_(alpha=base.n_over_r, nu=0)
    rule = build_rule(32, "tanh_sinh", p)
    _, w = _weights(p, rule)
    half = float(d) / 2
    dyson = TWO_PI ** r * math.gamma(1 + r * half) / math.gamma(1 + half) ** r
    assert math.fsum(w.tolist()) == pytest.approx(dyson, rel=1e-10)


def _nested_reference(params, rule):
    """Per-prefix nested construction, one outer prefix at a time in Python floats.

    Returns (pts, w, merged), merged counting the prefixes in which two outer
    angles closer than 1e-12 became one cut with exponent 2d.
    """
    two_s, d, nu = 2.0 * rule.s, float(params.d), float(params.nu)
    n = rule.points_per_axis

    def nu_fac(t):
        return np.exp(-nu * (t - math.pi))

    def sc(y):
        return np.sinc(np.asarray(y) / TWO_PI)

    def segments(outer):
        cuts = []
        for a in sorted(outer):
            if cuts and a - cuts[-1][0] < 1e-12:
                cuts[-1] = (0.5 * (cuts[-1][0] + a), cuts[-1][1] + d)
            else:
                cuts.append((a, d))
        ends = [(0.0, two_s)] + cuts + [(TWO_PI, two_s)]
        last = len(cuts)
        for i in range(last + 1):
            (lo, e_lo), (hi, e_hi) = ends[i], ends[i + 1]
            x, wj = roots_jacobi(n, float(e_hi), float(e_lo))
            half = 0.5 * (hi - lo)
            t = lo + half * (1.0 + x)
            w = half ** (e_hi + e_lo + 1.0) * wj
            if i == 0:
                w = w * sc(t) ** two_s * sc(hi - t) ** e_hi
            elif i == last:
                w = w * sc(TWO_PI - t) ** two_s * sc(t - lo) ** e_lo
            else:
                w = w * (2.0 * np.sin(t / 2.0)) ** two_s * sc(t - lo) ** e_lo * sc(hi - t) ** e_hi
            for j, (a, e) in enumerate(cuts):
                if j < i - 1:
                    w = w * (2.0 * np.sin((t - a) / 2.0)) ** e
                elif j > i:
                    w = w * (2.0 * np.sin((a - t) / 2.0)) ** e
            yield t, w * nu_fac(t), len(cuts) < len(outer)

    prefix = [((t,), wt) for t, wt in zip(rule.nodes.tolist(), (rule.weights * nu_fac(rule.nodes)).tolist())]
    for _ in range(params.r - 2):
        prefix = [
            (angles + (t,), w0 * wt)
            for angles, w0 in prefix
            for ts, ws, _ in segments(angles)
            for t, wt in zip(ts.tolist(), ws.tolist())
        ]
    pts, w, merged = [], [], set()
    for k, (angles, w0) in enumerate(prefix):
        for t, ws, was_merged in segments(angles):
            pts.append(np.column_stack([np.full_like(t, a) for a in angles] + [t]))
            w.append(w0 * ws)
            if was_merged:
                merged.add(k)
    return np.vstack(pts), np.concatenate(w), len(merged)


@pytest.mark.parametrize("r,points", [(2, 24), (3, 16)])
@pytest.mark.parametrize("d", [Fraction(1), Fraction(5, 2), Fraction(1, 3)])
@pytest.mark.parametrize("kind,nu", [("tanh_sinh", -0.25), ("gauss_gegenbauer", 0.0)])
def test_nested_nodes_match_per_prefix_reference(r, points, d, kind, nu):
    base = ParamSet(r=r, d=d)
    p = base.with_(alpha=float(base.n_over_r) + 0.7, nu=nu)
    rule = build_rule(points, kind, p)
    geom, w = _weights(p, rule)
    pts = coords(geom, 0, len(w))
    ref_pts, ref_w, merged = _nested_reference(p, rule)
    assert np.array_equal(pts, ref_pts)
    assert np.array_equal(w, ref_w)
    if r == 3 and kind == "tanh_sinh":
        # the tanh-sinh first axis puts nodes within 1e-12 of 0, so some
        # second-axis angles merge with their first-axis angle
        assert merged > 0


# ---------------------------------------------------------------- inner products


def test_rank1_flat_orthonormality():
    p = ParamSet(r=1, d=2, alpha=1, nu=0)
    rule = build_rule(48, "auto", p)
    for m in range(4):
        for n in range(4):
            v = inner_product((m,), (n,), p, rule)
            assert abs(v - (1.0 if m == n else 0.0)) <= 1e-12


def test_rank1_norm_value():
    p = ParamSet(r=1, d=2, alpha=2, nu=0)
    rule = build_rule(60, "auto", p)
    v = inner_product((0,), (0,), p, rule)
    assert v.real == pytest.approx(4 / math.pi, rel=1e-10)
    assert abs(v.imag) <= 1e-14


def test_rank2_spherical_norm_value():
    # alpha = n/r, nu = 0: diagonal is d_m / Gamma_Omega(n/r)
    p = ParamSet(r=2, d=2, alpha=2, nu=0)
    rule = build_rule(32, "auto", p)
    v = inner_product((1, 0), (1, 0), p, rule)
    assert v.real == pytest.approx(4 / (2 * math.pi), rel=1e-10)


def test_hermitian_symmetry():
    p = ParamSet(r=2, d=Fraction(5, 2), alpha=3, nu=0.3)
    rule = build_rule(32, "auto", p)
    a = inner_product((2, 0), (1, 1), p, rule)
    b = inner_product((1, 1), (2, 0), p, rule)
    assert abs(a - b.conjugate()) <= 1e-13


def test_nu_reflection():
    p = ParamSet(r=2, d=Fraction(5, 2), alpha=3, nu=0.3)
    pm = p.with_(nu=-0.3)
    ra, rb = build_rule(40, "auto", p), build_rule(40, "auto", pm)
    a = inner_product((2, 0), (1, 1), p, ra)
    b = inner_product((1, 1), (2, 0), pm, rb)
    assert abs(a - b.conjugate()) <= 1e-10


@pytest.mark.parametrize(
    "r,d", [(1, Fraction(1)), (1, Fraction(2)), (2, Fraction(1)), (2, Fraction(2))]
)
def test_rule_convergence_doubling(r, d):
    p = ParamSet(r=r, d=d, alpha=float(ParamSet(r=r, d=d).n_over_r) + 0.7, nu=0.3)
    expect = expected_norm((0,) * r, p)
    errs = []
    for n in (12, 24, 48):
        rule = build_rule(n, "tanh_sinh", p)
        v = inner_product((0,) * r, (0,) * r, p, rule)
        errs.append(abs(v.real - expect) / expect)
    for e1, e2 in zip(errs, errs[1:]):
        assert e2 <= e1 / 10 or e2 < 1e-12


def test_jack_norm_route_consistency():
    # alpha = n/r, nu = 0: three independent values of the diagonal must agree:
    # quadrature, d_m/Gamma_Omega(n/r), and the torus Jack-norm route
    for d in (Fraction(1), Fraction(2), Fraction(5, 2)):
        base = ParamSet(r=2, d=d)
        p = base.with_(alpha=base.n_over_r, nu=0)
        rule = build_rule(48, "auto", p)
        parts = enumerate_partitions(2, 2)
        G = _gram(p, parts, rule)
        inv_gamma = math.exp(-gamma_omega_log(float(p.n_over_r), p).real)
        pref = c0_tilde(p).value() / TWO_PI ** float(p.n)
        for i, m in enumerate(parts):
            target = float(dim_dm(m, p)) * inv_gamma
            assert G[i, i].real == pytest.approx(target, rel=1e-8)
            dm = float(dim_dm(m, p))
            p1 = float(jack_at_ones(m, p))
            route = (
                pref
                * TWO_PI ** 2
                * 2
                * dm ** 2
                / p1 ** 2
                * jack_norm_torus(m, p)
            )
            assert route == pytest.approx(target, rel=1e-8)


def _fsum_gram(params, parts, rule):
    """Reference Gram matrix: every entry reduced by the correctly rounded math.fsum."""
    pts, w = points_weights(params, rule)
    z = np.exp(1j * pts)
    vals = [mcj_build(m, params).evaluate_points(z) for m in parts]
    pref = c0_tilde(params).value() / TWO_PI ** float(params.n)
    G = np.empty((len(parts), len(parts)), dtype=complex)
    for i, vi in enumerate(vals):
        for j, vj in enumerate(vals):
            arr = w * vi * np.conj(vj)
            G[i, j] = pref * complex(math.fsum(arr.real.tolist()), math.fsum(arr.imag.tolist()))
    return G


@pytest.mark.parametrize(
    "p,points",
    [
        (ParamSet(r=2, d=Fraction(5, 2), alpha=3, nu=0.3), 32),
        (ParamSet(r=3, d=1, alpha=3, nu=-0.25), 16),
    ],
)
def test_gram_matches_fsum_reference(p, points):
    rule = build_rule(points, "auto", p)
    parts = enumerate_partitions(2, p.r)
    G = _gram(p, parts, rule)
    ref = _fsum_gram(p, parts, rule)
    E = np.array([expected_norm(m, p) for m in parts])
    assert np.all(np.abs(G - ref) <= 1e-14 * np.sqrt(np.outer(E, E)))
    assert inner_product(parts[1], parts[2], p, rule) == G[1, 2]


def _reference_evaluate(polys, pts):
    """Frozen whole-array evaluator at an (N, r) point array: every orbit
    product starts from ones and multiplies in pts[:, j] ** e factor by
    factor, every orbit sum starts from zeros.  numpy's operand order for
    these expressions is what the column pass must reproduce bit for bit."""
    totals = [np.zeros(pts.shape[0], dtype=complex) for _ in polys]
    lams = set().union(*(p.terms for p in polys))
    for lam in sorted(lams, key=lambda lam: (sum(lam), [-e for e in lam])):
        s = np.zeros(pts.shape[0], dtype=complex)
        for perm in sorted(set(itertools.permutations(lam))):
            prod = np.ones(pts.shape[0], dtype=complex)
            for j, e in enumerate(perm):
                if e:
                    prod = prod * pts[:, j] ** e
            s += prod
        for total, p in zip(totals, polys):
            c = p.terms.get(lam)
            if c is not None:
                total += complex(c) * s
    return totals


def _whole_array_gram(params, parts, rule):
    """Reference Gram matrix: the frozen evaluator and ``wv * np.conj(vj)``
    reduced by np.sum over all nodes at once."""
    pts, w = points_weights(params, rule)
    z = np.exp(1j * pts)
    vals = _reference_evaluate([mcj_build(tuple(m), params).body for m in parts], z)
    pref = c0_tilde(params).value() / TWO_PI ** float(params.n)
    G = np.empty((len(parts), len(parts)), dtype=complex)
    for i, vi in enumerate(vals):
        wv = w * vi
        for j, vj in enumerate(vals):
            G[i, j] = pref * np.sum(wv * np.conj(vj))
    return G


@pytest.mark.parametrize(
    "p,points,nodes,leaves",
    [
        # one leaf below 16,384 nodes, where numpy keeps the named operand
        # first: 14,400 and 4,608; one leaf from 16,384 on, where it puts the
        # temporary first: 32,768; then 2 (the tensor branch), 4 and 32 leaves
        # (the last is the benchmark's orth-r3 input)
        (ParamSet(r=2, d=2, alpha=3, nu=0.3), 120, 14_400, 1),
        (ParamSet(r=3, d=8, alpha=13, nu=0), 32, 32_768, 1),
        (ParamSet(r=3, d=2, alpha=5, nu=0), 40, 64_000, 2),
        (ParamSet(r=3, d=Fraction(5, 2), alpha=6, nu=0.3), 24, 81_216, 4),
        (ParamSet(r=2, d=Fraction(5, 2), alpha=3, nu=0.3), 48, 4_608, 1),
        (ParamSet(r=3, d=1, alpha=3, nu=0.2), 48, 651_456, 32),
    ],
)
def test_leaf_gram_bitwise_equals_whole_array(p, points, nodes, leaves, monkeypatch):
    rule = build_rule(points, "auto", p)
    parts = enumerate_partitions(2, p.r)
    _, w = _weights(p, rule)
    assert len(w) == nodes
    # the last axis' weights, filled in leaf-sized runs, are the whole-array ones
    assert np.array_equal(w, points_weights(p, rule)[1])
    assert len(_pairwise(0, nodes, lambda lo, hi: [(lo, hi)])) == leaves
    ref = _whole_array_gram(p, parts, rule).tobytes()
    threads = set()
    real = orthog.evaluate_points_many

    def spy(*args):
        threads.add(threading.current_thread().name)
        return real(*args)

    monkeypatch.setattr(orthog, "evaluate_points_many", spy)
    for cpus in (1, 2):  # one leaf at a time, then two in flight on the pool
        monkeypatch.setattr(orthog, "_cpu_count", lambda: cpus)
        threads.clear()
        assert _gram(p, parts, rule).tobytes() == ref
        assert {name.startswith("mcjacobi-gram") for name in threads} == {cpus == 2 and leaves > 1}


def test_non_finite_weight_refused_in_multi_leaf_pass(monkeypatch):
    # a NaN in the last first-axis weight reaches only the last run of the
    # nested last axis
    monkeypatch.setattr(orthog, "_cpu_count", lambda: 2)
    p = ParamSet(r=3, d=1, alpha=3, nu=0.2)
    rule = build_rule(48, "auto", p)
    weights = rule.weights.copy()
    weights[-1] = math.nan
    bad = dataclasses.replace(rule, weights=weights)
    with pytest.raises(ParameterError, match="non-finite"):
        _gram(p, enumerate_partitions(2, 3), bad)


def test_import_and_single_leaf_pass_start_no_threads(child_env):
    # scipy.special imports concurrent.futures itself, so the single-leaf
    # command is checked for the pool and its threads instead
    script = """
import sys, threading
import mcjacobi
assert "concurrent.futures" not in sys.modules, "import mcjacobi"
from mcjacobi import orthog
from mcjacobi.cli import run
from mcjacobi.params import ParamSet
from mcjacobi.partitions import enumerate_partitions
orthog._cpu_count = lambda: 2
p = ParamSet(r=2, d=2, alpha=3, nu=0.5)
orthog._gram(p, enumerate_partitions(2, 2), orthog.build_rule(64, "tanh_sinh", p))
assert "concurrent.futures" not in sys.modules, "single-leaf Gram pass"
assert run(["verify-orth", "--r", "2", "--d", "2", "--alpha", "3", "--nu", "0.5",
            "--max-weight", "2"]) == 0
assert orthog._pool.cache_info().currsize == 0, "single-leaf verify-orth"
assert not [t for t in threading.enumerate() if t.name.startswith("mcjacobi-gram")]
p = ParamSet(r=3, d=2, alpha=5, nu=0.1)  # two leaves
orthog._gram(p, enumerate_partitions(1, 3), orthog.build_rule(40, "auto", p))
assert orthog._pool.cache_info().currsize == 1, "two-leaf Gram pass"
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "base,points", [(ParamSet(r=3, d=1, alpha=3), 24), (ParamSet(r=2, d=Fraction(5, 2), alpha=3), 48)]
)
def test_gram_warm_geometry_equals_cold_bitwise(base, points):
    # the nu-free geometry built at one nu serves the others bit for bit
    parts = enumerate_partitions(2, base.r)
    nus = (0.3, -0.2, 0.0)
    cold = {}
    for nu in nus:
        _geometry.cache_clear()
        p = base.with_(nu=nu)
        cold[nu] = _gram(p, parts, build_rule(points, "tanh_sinh", p))
    hits = _geometry.cache_info().hits
    for nu in nus:  # each reuses the geometry that the last cold call built
        p = base.with_(nu=nu)
        assert np.array_equal(_gram(p, parts, build_rule(points, "tanh_sinh", p)), cold[nu])
    assert _geometry.cache_info().hits == hits + len(nus)


def _arrays(obj):
    """Every numpy array held by a dataclass, through its fields and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))


def test_geometry_cache_bounded_and_holds_no_node_array():
    cases = [
        (ParamSet(r=3, d=1, alpha=3, nu=0.2), 16),
        (ParamSet(r=3, d=2, alpha=5, nu=0.1), 12),
        (ParamSet(r=2, d=Fraction(5, 2), alpha=3, nu=0.3), 32),
        (ParamSet(r=2, d=2, alpha=3, nu=0.4), 24),
    ]
    for p, points in cases:
        rule = build_rule(points, "auto", p)
        geom, w = _weights(p, rule)
        assert _geometry.cache_info().currsize <= _geometry.cache_info().maxsize
        # per-axis arrays only: nothing of N * r elements is kept
        arrays = list(_arrays(geom))
        assert arrays and all(a.ndim == 1 and a.size != len(w) * p.r for a in arrays)
        pts, ref_w = points_weights(p, rule)
        assert np.array_equal(orthog._points_weights(p, rule)[0], pts)
        assert np.array_equal(w, ref_w)


def test_node_budget_refused_before_assembly(capsys):
    # 400 points at r = 3, nested: up to 400^3 * 3! nodes, far past the budget
    misses = _geometry.cache_info().misses
    code = run(["verify-orth", "--r", "3", "--d", "1", "--alpha", "3", "--nu", "0.2",
                "--max-weight", "1", "--points", "400"])
    assert code == 2
    assert "budget" in capsys.readouterr().err
    assert _geometry.cache_info().misses == misses
    # r = 2, nested: the fewest points whose n^2 * 2! nodes exceed the budget
    p = ParamSet(r=2, d=Fraction(5, 2), alpha=3, nu=0.3)
    n = math.isqrt(_NODE_BUDGET // 2) + 1
    with pytest.raises(ParameterError, match="budget"):
        _weights(p, build_rule(n, "tanh_sinh", p))


@pytest.mark.parametrize(
    "argv",
    [
        # tensor branch: 100,000^2 nodes, and roots_jacobi(100000) alone takes minutes
        ["--r", "2", "--d", "2", "--alpha", "3", "--nu", "0", "--points", "100000"],
        # r = 1: 3,000 nodes, but a 3,000-point Gauss-Jacobi rule costs 3,000^2
        ["--r", "1", "--d", "2", "--alpha", "3", "--nu", "0", "--points", "3000"],
    ],
)
def test_node_budget_refused_before_the_axis_rule(argv, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("roots_jacobi called past the budget")

    monkeypatch.setattr(orthog, "roots_jacobi", refuse)
    assert run(["verify-orth", "--max-weight", "1"] + argv) == 2
    assert "budget" in capsys.readouterr().err
    # 2,048 points per axis is the largest Gauss-Jacobi rule within the budget
    p = ParamSet(r=1, d=2, alpha=3, nu=0)
    with pytest.raises(AssertionError, match="past the budget"):
        build_rule(2048, "gauss_gegenbauer", p)
    with pytest.raises(ParameterError, match="budget"):
        build_rule(2049, "gauss_gegenbauer", p)


@pytest.mark.parametrize("n", [1, 5, 32_768, 32_769, 32_775, 65_536, 100_001, 651_456, 1_545_088])
def test_pairwise_leaves_tile_and_stay_within_bounds(n):
    leaves = _pairwise(0, n, lambda lo, hi: [(lo, hi)])
    assert leaves[0][0] == 0 and leaves[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(leaves, leaves[1:]))
    sizes = [hi - lo for lo, hi in leaves]
    assert sum(sizes) == n
    if n <= 32_768:
        assert sizes == [n]
    else:
        # below 16,384 nodes numpy's elementwise kernels round differently
        assert all(16_384 <= s <= 32_768 for s in sizes)


@pytest.mark.parametrize("n", [5, 32_769, 100_001, 651_456])
def test_pairwise_leaf_sums_equal_np_sum_bitwise(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    tree = _pairwise(0, n, lambda lo, hi: np.sum(a[lo:hi]))
    assert np.complex128(tree).tobytes() == np.sum(a).tobytes()


def test_gram_memory_bounded_on_orth_r3_input(monkeypatch):
    # the benchmark's orth-r3 job: 651,456 nodes, 4 partitions; a whole-array
    # pass peaks near 100 MB, the leaf pass at a few leaf-sized arrays per
    # leaf in flight, here the most there can be
    monkeypatch.setattr(orthog, "_cpu_count", lambda: orthog._IN_FLIGHT)
    p = ParamSet(r=3, d=1, alpha=3, nu=0.2)
    rule = build_rule(48, "auto", p)
    parts = enumerate_partitions(2, 3)
    # the geometry and the bodies are cached before the traced call
    _weights(p, rule)
    for m in parts:
        mcj_build(m, p)
    tracemalloc.start()
    try:
        _gram(p, parts, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_forked_child_makes_its_own_pool(child_env):
    # the parent's pool threads do not exist in a forked child; reusing the
    # pool there would wait forever
    script = """
import os
from mcjacobi import orthog
from mcjacobi.params import ParamSet
from mcjacobi.partitions import enumerate_partitions
orthog._cpu_count = lambda: 2
p = ParamSet(r=3, d=2, alpha=5, nu=0.1)  # two leaves
args = (p, enumerate_partitions(1, 3), orthog.build_rule(40, "auto", p))
G = orthog._gram(*args)
pid = os.fork()
if pid == 0:
    os._exit(0 if orthog._gram(*args).tobytes() == G.tobytes() else 1)
assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------- reports


def test_verify_orthogonality_rank1():
    p = ParamSet(r=1, d=2, alpha=3.5, nu=0.7)
    rule = build_rule(96, "auto", p)
    rep = verify_orthogonality(p, 6, rule, 1e-9, 1e-9)
    assert rep.passed
    assert rep.hermiticity <= 1e-12
    assert len(rep.partitions) == 7
    doc = rep.to_json_dict()
    assert doc["verdict"] == "pass"
    assert len(doc["gram"]) == 7 and len(doc["gram"][0][0]) == 2
    assert "wall_clock" not in str(doc)
    csv_text = rep.gram_modulus_csv()
    assert csv_text.count("\n") == 8


@pytest.mark.parametrize("tol_off,tol_diag", [(math.nan, 1e-6), (1e-6, math.nan), (-1e-6, 1e-6)])
def test_verify_orthogonality_rejects_bad_tolerance(tol_off, tol_diag):
    p = ParamSet(r=1, d=2, alpha=2, nu=0)
    rule = build_rule(16, "auto", p)
    with pytest.raises(ParameterError, match="tolerances"):
        verify_orthogonality(p, 1, rule, tol_off, tol_diag)


def test_verify_orthogonality_rank2_theorem():
    p = ParamSet(r=2, d=2, alpha=3, nu=0.5)
    rule = build_rule(80, "auto", p)
    rep = verify_orthogonality(p, 3, rule, 1e-6, 1e-6)
    assert rep.passed


def test_verify_orthogonality_nonclassical_d():
    p = ParamSet(r=2, d=Fraction(5, 2), alpha=3, nu=0.3)
    rule = build_rule(48, "auto", p)
    rep = verify_orthogonality(p, 2, rule, 1e-4, 1e-4)
    assert rep.passed


def test_conjecture_sweep_flags_and_skip(capsys):
    reports = conjecture_sweep(
        [Fraction(1), Fraction(5, 2)],
        [3.0, 0.5],
        [0.0],
        r=2,
        max_weight=1,
        points_per_axis=24,
    )
    # alpha = 0.5 violates alpha > (d/2)(r-1) for d = 5/2 and is skipped
    captured = capsys.readouterr()
    assert "skipping" in captured.err
    assert "skipping" not in captured.out
    flags = {(str(rep.params.d), float(rep.params.alpha)): rep.flag for rep in reports}
    assert flags[("1", 3.0)] == "oracle"
    assert flags[("5/2", 3.0)] == "evidence"
    for rep in reports:
        assert rep.diagnostics["converged"]
        assert rep.passed


def test_r3_d8_classical_point():
    # the exceptional rank-3 cone: d = 8 is theorem-covered
    p = ParamSet(r=3, d=8, alpha=9, nu=0.4)
    rule = build_rule(64, "auto", p)
    rep = verify_orthogonality(p, 1, rule, 1e-6, 1e-6)
    assert rep.passed


def test_sweep_reports_stable_residual_as_finding(monkeypatch):
    # if the true diagonal genuinely differed from the predicted norm, the
    # residual would survive refinement; that must surface as a reproducible
    # finding, not a quadrature artifact
    real = coeffs_mod.expected_norm
    monkeypatch.setattr(coeffs_mod, "expected_norm", lambda m, p: 1.02 * real(m, p))
    reports = conjecture_sweep([Fraction(5, 2)], [3.0], [0.0], r=2, max_weight=0,
                               points_per_axis=16)
    rep = reports[0]
    assert not rep.passed
    assert rep.diagnostics["converged"]          # stable under refinement
    assert rep.diagnostics["refinement_ratio"] < 4
    assert any("reproducible" in note for note in rep.notes)


def test_sweep_flags_quadrature_limited_run(capsys):
    reports = conjecture_sweep([8], [9.0], [0.4], r=3, max_weight=1,
                               points_per_axis=16, oracle_tol=1e-6)
    rep = reports[0]
    assert rep.flag == "oracle"
    assert not rep.passed
    assert not rep.diagnostics["converged"]
    assert rep.diagnostics["refinement_ratio"] > 4
    assert any("quadrature-limited" in note for note in rep.notes)


def test_r3_even_d_tensor_smoke():
    base = ParamSet(r=3, d=2)
    p = base.with_(alpha=base.n_over_r, nu=0)
    rule = build_rule(12, "auto", p)
    v = inner_product((1, 0, 0), (1, 0, 0), p, rule)
    target = float(dim_dm((1, 0, 0), p)) * math.exp(
        -gamma_omega_log(float(p.n_over_r), p).real
    )
    assert v.real == pytest.approx(target, rel=1e-8)
    w = inner_product((1, 0, 0), (0, 0, 0), p, rule)
    assert abs(w) <= 1e-10


def test_r3_nested_smoke():
    base = ParamSet(r=3, d=1)
    p = base.with_(alpha=base.n_over_r, nu=0)
    rule = build_rule(16, "auto", p)
    v = inner_product((1, 0, 0), (1, 0, 0), p, rule)
    target = float(dim_dm((1, 0, 0), p)) * math.exp(
        -gamma_omega_log(float(p.n_over_r), p).real
    )
    assert v.real == pytest.approx(target, rel=1e-6)
