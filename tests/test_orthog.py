import dataclasses
import gc
import itertools
import math
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest

import mcjacobi.coeffs as coeffs_mod
import mcjacobi.orthog as orthog
from mcjacobi.coeffs import (
    c0_tilde,
    dim_dm,
    expected_norm,
    gamma_omega_log,
    jack_at_ones,
)
from mcjacobi.errors import ParameterError
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
    resolve_rule_kind,
    verify_orthogonality,
)
from mcjacobi.params import ParamSet
from mcjacobi.partitions import enumerate_partitions
from quadrature_oracle import coords, jack_norm_torus, points_weights

TWO_PI = 2 * math.pi


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
        _gram(other, [(0,), (0,)], rule)[0, 1]


def test_quadrature_rank_cap():
    p = ParamSet(r=4, d=2, alpha=4, nu=0)
    rule = build_rule(8, "auto", p)
    with pytest.raises(ParameterError, match="r <= 3"):
        _gram(p, [(0,) * 4, (0,) * 4], rule)[0, 1]


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
            x, wj = orthog.roots_jacobi(n, float(e_hi), float(e_lo))
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
            v = _gram(p, [(m,), (n,)], rule)[0, 1]
            assert abs(v - (1.0 if m == n else 0.0)) <= 1e-12


def test_rank1_norm_value():
    p = ParamSet(r=1, d=2, alpha=2, nu=0)
    rule = build_rule(60, "auto", p)
    v = _gram(p, [(0,), (0,)], rule)[0, 1]
    assert v.real == pytest.approx(4 / math.pi, rel=1e-10)
    assert abs(v.imag) <= 1e-14


def test_rank2_spherical_norm_value():
    # alpha = n/r, nu = 0: diagonal is d_m / Gamma_Omega(n/r)
    p = ParamSet(r=2, d=2, alpha=2, nu=0)
    rule = build_rule(32, "auto", p)
    v = _gram(p, [(1, 0), (1, 0)], rule)[0, 1]
    assert v.real == pytest.approx(4 / (2 * math.pi), rel=1e-10)


def test_hermitian_symmetry():
    p = ParamSet(r=2, d=Fraction(5, 2), alpha=3, nu=0.3)
    rule = build_rule(32, "auto", p)
    a = _gram(p, [(2, 0), (1, 1)], rule)[0, 1]
    b = _gram(p, [(1, 1), (2, 0)], rule)[0, 1]
    assert abs(a - b.conjugate()) <= 1e-13


def test_nu_reflection():
    p = ParamSet(r=2, d=Fraction(5, 2), alpha=3, nu=0.3)
    pm = p.with_(nu=-0.3)
    ra, rb = build_rule(40, "auto", p), build_rule(40, "auto", pm)
    a = _gram(p, [(2, 0), (1, 1)], ra)[0, 1]
    b = _gram(pm, [(1, 1), (2, 0)], rb)[0, 1]
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
        v = _gram(p, [(0,) * r, (0,) * r], rule)[0, 1]
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
        pref = c0_tilde(p) / TWO_PI ** float(p.n)
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
    pref = c0_tilde(params) / TWO_PI ** float(params.n)
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
    assert _gram(p, [parts[1], parts[2]], rule)[0, 1] == G[1, 2]


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
    pref = c0_tilde(params) / TWO_PI ** float(params.n)
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


@pytest.mark.parametrize("cpus", [1, 2])
def test_non_finite_weight_refused_with_the_same_message_after_the_sums(cpus, monkeypatch):
    # the leaf scans its weights only when its sums are not all finite; a NaN
    # weight in one leaf (the tensor branch, four leaves) still raises, and
    # so does the whole-weight assembly for inspection
    monkeypatch.setattr(orthog, "_cpu_count", lambda: cpus)
    p = ParamSet(r=3, d=Fraction(5, 2), alpha=6, nu=0.3)
    rule = build_rule(24, "auto", p)
    weights = rule.weights.copy()
    weights[3] = math.nan
    bad = dataclasses.replace(rule, weights=weights)
    message = "^quadrature weight assembly produced non-finite values$"
    with pytest.raises(ParameterError, match=message):
        _gram(p, enumerate_partitions(1, 3), bad)
    with pytest.raises(ParameterError, match=message):
        _weights(p, bad)


def test_non_finite_sums_from_finite_weights_raise_nothing(monkeypatch):
    # bodies of 1e200 overflow |phi|^2 w on finite weights: the sums are inf
    # or NaN and nothing is refused, as before the scan was deferred; a pass
    # of finite sums never scans its weights
    scans = []
    real_check = orthog._check_finite
    monkeypatch.setattr(orthog, "_check_finite", lambda w: scans.append(len(w)) or real_check(w))
    p = ParamSet(r=3, d=1, alpha=3, nu=0.2)
    rule = build_rule(16, "auto", p)
    parts = enumerate_partitions(1, 3)
    G = _gram(p, parts, rule)
    assert np.isfinite(G).all() and not scans
    huge = {m: dataclasses.replace(mcj_build(m, p), body=mcj_build(m, p).body.scale(1e200))
            for m in parts}
    monkeypatch.setattr(orthog, "mcj_build", lambda m, params: huge[m])
    with np.errstate(over="ignore", invalid="ignore"):
        G = _gram(p, parts, rule)
    assert not np.isfinite(G).all() and scans


def test_one_evaluation_plan_per_gram_pass(monkeypatch):
    # the 32 leaves of the orth-r3 input run one plan, on one CPU or two
    import mcjacobi.sympoly as sympoly_mod

    plans, real = [], sympoly_mod._plan_evaluation

    def spy(polys, arity):
        plans.append(arity)
        return real(polys, arity)

    monkeypatch.setattr(sympoly_mod, "_plan_evaluation", spy)
    monkeypatch.setattr(orthog, "_plan_evaluation", spy)
    p = ParamSet(r=3, d=1, alpha=3, nu=0.2)
    rule = build_rule(48, "auto", p)
    parts = enumerate_partitions(2, 3)
    for cpus in (1, 2):
        monkeypatch.setattr(orthog, "_cpu_count", lambda: cpus)
        plans.clear()
        _gram(p, parts, rule)
        assert plans == [3]


def test_leaf_error_stops_both_pull_loop_tasks(monkeypatch):
    # two tasks pull from one iterator; once a leaf raises, neither pulls
    # another, both have stopped when the error is raised, and it is the
    # error of the first failed leaf
    monkeypatch.setattr(orthog, "_cpu_count", lambda: 2)
    spans = [(k, k + 1) for k in range(32)]
    started, ended, threads = [], [], set()

    def leaf(lo, hi):
        started.append(lo)
        threads.add(threading.current_thread().name)
        try:
            if lo in (1, 2):
                raise ParameterError(f"leaf {lo}")
            threading.Event().wait(0.02)
            return lo
        finally:
            ended.append(lo)

    with pytest.raises(ParameterError, match="^leaf 1$"):
        orthog._map_leaves(leaf, spans)
    assert sorted(started) == sorted(ended) and len(started) <= 4
    assert all(name.startswith("mcjacobi-gram") for name in threads)
    assert orthog._map_leaves(lambda lo, hi: lo, spans) == list(range(32))


def test_import_and_single_leaf_pass_start_no_threads(child_env):
    # the pool is made on first use, and it is what imports concurrent.futures
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
assert "concurrent.futures" not in sys.modules, "single-leaf verify-orth"
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


def test_largest_gauss_jacobi_rule_builds():
    # 2,048 points per axis, the most within the budget, at s = 1: the weight
    # (2 sin(theta/2))^2 integrates to 4 pi
    p = ParamSet(r=1, d=2, alpha=3, nu=0)
    rule = build_rule(2048, "gauss_gegenbauer", p)
    assert rule.s == 1 and len(rule.nodes) == 2048
    assert np.all(np.diff(rule.nodes) > 0) and 0 < rule.nodes[0] and rule.nodes[-1] < TWO_PI
    assert np.all(rule.weights > 0)
    assert math.fsum(rule.weights.tolist()) == pytest.approx(4 * math.pi, rel=1e-13)


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


def _traced_gram_peak(in_flight, monkeypatch):
    """tracemalloc peak of one _gram on the benchmark's orth-r3 input (651,456
    nodes, 4 partitions) with in_flight leaves at once, its scratch sets made
    inside the traced call."""
    monkeypatch.setattr(orthog, "_cpu_count", lambda: in_flight)
    p = ParamSet(r=3, d=1, alpha=3, nu=0.2)
    rule = build_rule(48, "auto", p)
    parts = enumerate_partitions(2, 3)
    # the geometry, the bodies and the pool are made before the traced call
    _gram(p, parts, rule)
    orthog._SCRATCH.clear()
    tracemalloc.start()
    try:
        _gram(p, parts, rule)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gram_memory_bounded_on_orth_r3_input(monkeypatch):
    # a whole-array pass peaks near 100 MB, the leaf pass at its scratch sets
    # (10 arrays of ~20,400 complex values, 3.1 MiB a set) and the outer
    # columns of each leaf in flight: 7.8 MiB with two leaves in flight
    assert _traced_gram_peak(orthog._IN_FLIGHT, monkeypatch) <= 8.5 * 2**20


def test_gram_memory_bounded_one_leaf_at_a_time(monkeypatch):
    # one scratch set and one leaf's outer columns: 3.9 MiB
    assert _traced_gram_peak(1, monkeypatch) <= 4.5 * 2**20


def test_gram_scratch_kept_bounded(monkeypatch):
    # 25 partitions, two leaves of 25,600 nodes: a leaf takes 52 arrays, more
    # than a set keeps
    monkeypatch.setattr(orthog, "_cpu_count", lambda: 2)
    p = ParamSet(r=2, d=Fraction(5, 2), alpha=3, nu=0.3)
    rule = build_rule(160, "auto", p)
    parts = enumerate_partitions(8, 2)
    most = []
    real = orthog._Scratch.take

    def counting_take(self, dtype=complex):
        most.append(self.used + 1)
        return real(self, dtype)

    monkeypatch.setattr(orthog._Scratch, "take", counting_take)
    _gram(p, parts, rule)
    assert max(most) > orthog._KEEP
    idle = orthog._SCRATCH
    assert 1 <= len(idle) <= orthog._IN_FLIGHT
    kept = sum(a.nbytes for scratch in idle for a in scratch.arrays)
    assert kept <= orthog._IN_FLIGHT * orthog._KEEP * orthog._LEAF * 16 == 16 * 2**20


def test_gram_scratch_kept_for_warm_passes_only(monkeypatch):
    # warm passes reuse the sets; a new node set drops them.  On one CPU the
    # leaves run in turn, so the warm pass has the cold pass's sets and no other
    monkeypatch.setattr(orthog, "_cpu_count", lambda: 1)
    orthog._geometry.cache_clear()
    p = ParamSet(r=2, d=Fraction(5, 2), alpha=3, nu=0.3)
    rule = build_rule(160, "auto", p)
    parts = enumerate_partitions(2, 2)
    warm = (p.with_(nu=-0.2), parts, build_rule(160, "auto", p.with_(nu=-0.2)))
    _gram(p, parts, rule)
    sets = weakref.WeakSet(orthog._SCRATCH)
    assert len(sets) >= 1
    _gram(*warm)
    assert set(orthog._SCRATCH) <= set(sets)
    _weights(p, build_rule(24, "auto", p))
    gc.collect()
    assert not orthog._SCRATCH and len(sets) == 0
    # on two CPUs the cold pass may run both its leaves on one task and the
    # warm pass then make a second set; every cold set survives the warm pass,
    # and no more sets exist than leaves in flight
    monkeypatch.setattr(orthog, "_cpu_count", lambda: 2)
    _gram(p, parts, rule)
    sets = weakref.WeakSet(orthog._SCRATCH)
    _gram(*warm)
    assert set(sets) <= set(orthog._SCRATCH)
    assert 1 <= len(orthog._SCRATCH) <= orthog._IN_FLIGHT


def test_pool_pass_on_one_set_leaves_a_warm_set_per_leaf_in_flight(monkeypatch):
    # a cold pass whose leaves all ran on one set is topped up, so a warm pass
    # running two leaves at once finds two full sets and makes none
    monkeypatch.setattr(orthog, "_cpu_count", lambda: 2)
    orthog._geometry.cache_clear()
    p = ParamSet(r=2, d=Fraction(5, 2), alpha=3, nu=0.3)
    args = (p, enumerate_partitions(2, 2), build_rule(160, "auto", p))
    real = orthog._map_leaves
    monkeypatch.setattr(orthog, "_map_leaves", lambda leaf, spans: [leaf(*s) for s in spans])
    cold = _gram(*args)
    sets = list(orthog._SCRATCH)
    assert len(sets) == len(orthog._MADE) == orthog._IN_FLIGHT
    assert [[a.shape for a in s.arrays] for s in sets[1:]] == [[a.shape for a in sets[0].arrays]]
    monkeypatch.setattr(orthog, "_map_leaves", real)
    assert np.array_equal(_gram(*args), cold)
    assert len(orthog._MADE) == orthog._IN_FLIGHT and set(orthog._SCRATCH) == set(sets)


def test_scratch_sets_never_shared_under_thread_stress(monkeypatch):
    # two callers at once on the two-thread pool, with a short switch
    # interval: a set handed to two leaves at once would corrupt a Gram
    monkeypatch.setattr(orthog, "_cpu_count", lambda: 2)
    base = ParamSet(r=3, d=Fraction(5, 2), alpha=6)
    parts = enumerate_partitions(2, 3)
    runs = []
    for nu in (0.1, 0.2, 0.3, 0.4):
        p = base.with_(nu=nu)
        for m in parts:
            mcj_build(m, p)
        runs.append((p, build_rule(24, "auto", p)))
    ref = {p.nu: _gram(p, parts, rule).tobytes() for p, rule in runs}
    same, errors = [], []

    def caller(k):
        try:
            for p, rule in runs[k::2] * 3:
                same.append(_gram(p, parts, rule).tobytes() == ref[p.nu])
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k,)) for k in range(2)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers) and not errors
    assert len(same) == 12 and all(same)
    assert len(orthog._SCRATCH) <= orthog._IN_FLIGHT  # the pool runs two leaves at once


def test_scratch_frame_hands_out_again_only_what_it_took():
    scratch = orthog._Scratch()
    take = scratch.start(5, 8)
    kept = take()
    with scratch.frame():
        inner = [take(), take(float)]
    again = take()
    assert len(kept) == len(again) == 5 and inner[1].dtype == float
    assert not np.shares_memory(kept, again) and np.shares_memory(again, inner[0])
    for _ in range(orthog._KEEP + 3):
        take()
    scratch.keep()
    assert len(scratch.arrays) == orthog._KEEP


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="page-fault counts are those of Linux and glibc's malloc",
)
def test_warm_gram_passes_take_no_fresh_pages(child_env):
    # warm passes at new nu values reuse the geometry, the e^{i theta} columns
    # and the scratch sets: at 81,216 nodes a pass that allocated its leaf
    # arrays faulted ~3,300 pages in, since glibc handed them back to the OS,
    # and at 651,456 nodes ~39,000 once no whole weight array was freed
    script = """
import resource
from fractions import Fraction
from mcjacobi import orthog
from mcjacobi.mcj import mcj_build
from mcjacobi.params import ParamSet
from mcjacobi.partitions import enumerate_partitions
orthog._cpu_count = lambda: 2
for base, points in [(ParamSet(r=3, d=Fraction(5, 2), alpha=6), 24),
                     (ParamSet(r=3, d=1, alpha=3), 48)]:
    parts = enumerate_partitions(2, 3)
    runs = []
    for k in range(6):
        p = base.with_(nu=0.1 + 0.05 * k)
        for m in parts:
            mcj_build(m, p)
        runs.append((p, parts, orthog.build_rule(points, "auto", p)))
    orthog._gram(*runs[0])
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for args in runs[1:]:
        orthog._gram(*args)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults <= 5 * 64, (points, faults)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "p,points",
    [
        (ParamSet(r=3, d=1, alpha=3, nu=0.2), 16),
        (ParamSet(r=3, d=Fraction(5, 2), alpha=6, nu=0.3), 24),
        (ParamSet(r=2, d=Fraction(1, 3), alpha=2, nu=-0.4), 40),
        (ParamSet(r=3, d=2, alpha=5, nu=0.1), 12),
        (ParamSet(r=1, d=Fraction(7, 3), alpha=3, nu=0.5), 32),
    ],
)
def test_geometry_exponentials_are_np_exp_bitwise(p, points):
    rule = build_rule(points, "auto", p)
    geom, _ = _weights(p, rule)
    assert len(geom.z_axes) == len(geom.axes)
    for t, z in zip(geom.axes, geom.z_axes):
        assert z.tobytes() == np.exp(1j * t).tobytes()
    if geom.levels:
        assert geom.z_axes[-1].tobytes() == np.exp(1j * geom.levels[-1].t).tobytes()


@pytest.mark.parametrize(
    "p,points",
    [
        (ParamSet(r=3, d=1, alpha=3, nu=0.2), 48),
        (ParamSet(r=3, d=Fraction(5, 2), alpha=6, nu=0.3), 24),
        (ParamSet(r=3, d=2, alpha=5, nu=0.1), 40),
        (ParamSet(r=2, d=Fraction(1, 3), alpha=2, nu=-0.4), 200),
    ],
)
def test_weights_equal_the_leaves_weights(p, points):
    # the Gram leaves' edges fall off _weights' _LEAF-sized runs; odd runs too
    rule = build_rule(points, "auto", p)
    geom, weigh = orthog._weigher(p, rule)
    _, w = _weights(p, rule)
    spans = _pairwise(0, len(w), lambda lo, hi: [(lo, hi)])
    assert len(spans) > 1 and any(lo % orthog._LEAF for lo, _ in spans)
    spans += [(0, 1), (7, 8_200), (len(w) - 3, len(w))]
    for lo, hi in spans:
        # a scratch set as a leaf uses it, its arrays dirty from an earlier leaf
        scratch = orthog._Scratch()
        take = scratch.start(hi - lo, hi - lo)
        for _ in range(8):
            take().fill(np.nan)
        take = scratch.start(hi - lo, hi - lo)
        at = geom.index(lo, hi, take)
        out = take(float)
        with scratch.frame():
            weigh(lo, hi, at, out, take)
        assert out.tobytes() == w[lo:hi].tobytes()
        cols = geom.exp_i(lo, hi, at, take)
        ref = np.exp(1j * coords(geom, lo, hi))
        assert all(c.tobytes() == ref[:, j].tobytes() for j, c in enumerate(cols))


def test_axis_level_does_not_depend_on_row_runs(monkeypatch):
    # the nested axes are built a run of rows at a time; one row per run gives
    # the same bits
    rng = np.random.default_rng(3)
    outer = np.sort(rng.uniform(0, TWO_PI, (40, 2)), axis=1)
    outer[5, 1] = outer[5, 0] + 1e-13  # a merged cut
    whole = orthog._axis_level(outer, 24, 1.3, 2.5)
    monkeypatch.setattr(orthog, "_LEAF", 24)
    runs = orthog._axis_level(outer, 24, 1.3, 2.5)
    for a, b in zip(dataclasses.astuple(whole), dataclasses.astuple(runs)):
        assert a.tobytes() == b.tobytes()


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
    v = _gram(p, [(1, 0, 0), (1, 0, 0)], rule)[0, 1]
    target = float(dim_dm((1, 0, 0), p)) * math.exp(
        -gamma_omega_log(float(p.n_over_r), p).real
    )
    assert v.real == pytest.approx(target, rel=1e-8)
    w = _gram(p, [(1, 0, 0), (0, 0, 0)], rule)[0, 1]
    assert abs(w) <= 1e-10


def test_r3_nested_smoke():
    base = ParamSet(r=3, d=1)
    p = base.with_(alpha=base.n_over_r, nu=0)
    rule = build_rule(16, "auto", p)
    v = _gram(p, [(1, 0, 0), (1, 0, 0)], rule)[0, 1]
    target = float(dim_dm((1, 0, 0), p)) * math.exp(
        -gamma_omega_log(float(p.n_over_r), p).real
    )
    assert v.real == pytest.approx(target, rel=1e-6)
