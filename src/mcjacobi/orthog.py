"""Singular-weight quadrature on the r-torus and Gram-matrix certification.

The orthogonality measure per axis is (2 sin(theta/2))^{2s} e^{-nu (theta-pi)}
with s = (alpha - n/r)/2, coupled across axes by prod_{p<q} |e^{i theta_p} -
e^{i theta_q}|^d.  Per-axis rules fold the algebraic endpoint factor into the
weights:

* ``tanh_sinh``        -- double-exponential transform of (0, 2 pi); handles
  any integrable endpoint exponent and the non-periodic e^{-nu theta} factor
  with double-exponential convergence;
* ``gauss_gegenbauer`` -- Gauss-Jacobi nodes in x = cos(theta/2); by symmetry
  of the nodes this integrates trigonometric-polynomial integrands exactly,
  which makes it the sharp choice for nu = 0.

For even integer d the pair coupling is a trigonometric polynomial and a
tensor rule applies.  For non-even d one nested construction serves every rank:
axis by axis, each new axis is cut at 0, 2 pi and the angles already chosen,
and each segment gets a Gauss-Jacobi rule whose exponents match the
algebraic factors at the segment ends exactly.  Each axis is built for every
prefix of outer angles at once, in groups of prefixes that share a merged-cut
pattern; the steps are elementwise, so the nodes and weights do not depend on
how the prefixes are batched.  At r = 1 either branch is the per-axis rule.

Only the per-axis factors e^{-nu (theta - pi)} depend on nu, so a node set is
split in two.  Its nu-free geometry (``_geometry``) is cached per (r, d, s,
points per axis, first-axis nodes), two entries at most, enough for the
coarse and fine rules of a sweep point across its nu values: the per-axis
angles and, for non-even d, for each nested axis the new nodes per prefix,
their angles and their weights before the nu factor.  Each call applies nu
with the same elementwise products as a fresh build (``_weights``), so the
weights are bitwise the same.  The geometry holds no (N, r) node array: each
Gram leaf rebuilds its own rows of e^{i theta} from the levels, in the C
layout of the full array, with the outer axes' exponentials taken from the
geometry.  Before anything of node size is allocated, the node count is
bounded from the points per axis n, n^r on the tensor branch and n^r r! on
the nested one; past ``_NODE_BUDGET`` nodes the call raises ParameterError.

The Gram matrix is one pass over the leaves of numpy's pairwise-summation
tree on the nodes (``_pairwise``), which halves n complex values at
(n - n % 8) // 2 as np.sum does, down to leaves of at most ``_LEAF`` = 32768
nodes.  Each leaf computes z = e^{i theta} for its own nodes, evaluates the
polynomials there in one shared pass over their monomials
(``sympoly.evaluate_points_many``) and reduces its P^2 sums; adding the leaf
matrices in the tree's order makes every entry np.sum over all nodes, bit for
bit, with only a few leaf-sized arrays in memory.  No BLAS is called, so
reports are byte-identical whatever the BLAS thread count.

The leaves never hold fewer than 16384 nodes (when there is more than one),
and that floor is load-bearing.  numpy's complex multiply uses FMA in its
SIMD kernel and is not bitwise commutative, and numpy evaluates ``a * temp``
as ``temp *= a`` once the temporary reaches 256 KiB, i.e. 16384 complex
values.  The elementwise bits therefore depend on the array length: leaves of
16384 to 32768 nodes round like the whole array, while leaves of 8192 to
16384 nodes move the r = 3, d = 1, 48-point Gram by up to 7e-17.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy.special import roots_jacobi

from . import coeffs
from .errors import ParameterError, SingularPointError
from .mcj import mcj_build
from .params import ParamSet
from .partitions import enumerate_partitions, format_partition
from .sympoly import evaluate_points_many

TWO_PI = 2.0 * math.pi
# nodes per leaf of the Gram pass; see the module docstring for the floor
_LEAF = 32768
# most nodes a rule may ask for, estimated before anything is allocated
_NODE_BUDGET = 1 << 22


def _axis_exponent(params: ParamSet) -> float:
    """s = (alpha - n/r)/2; the per-axis factor is (2 sin(theta/2))^{2s}."""
    return 0.5 * (float(params.alpha) - float(params.n_over_r))


def weight_eval(theta: Sequence[float], params: ParamSet) -> float:
    """Orthogonality weight at a point of (0, 2 pi)^r.

    Uses 1 - e^{i theta} = 2 sin(theta/2) e^{i (theta - pi)/2}, so the
    squared modulus of (1 - e^{i theta})^{s + i nu} is
    (2 sin(theta/2))^{2 s} e^{-nu (theta - pi)}.
    """
    if len(theta) != params.r:
        raise ParameterError("theta must have length r")
    s2 = 2.0 * _axis_exponent(params)
    nu = float(params.nu)
    d = float(params.d)
    out = 1.0
    for th in theta:
        if not 0.0 < th < TWO_PI:
            raise SingularPointError(f"theta = {th} outside (0, 2*pi)")
        out *= (2.0 * math.sin(th / 2)) ** s2 * math.exp(-nu * (th - math.pi))
    for p in range(params.r):
        for q in range(p + 1, params.r):
            out *= abs(2.0 * math.sin((theta[p] - theta[q]) / 2)) ** d
    return out


# ---------------------------------------------------------------------------
# per-axis rules
# ---------------------------------------------------------------------------


@dataclass
class QuadratureRule:
    """Per-axis nodes/weights on (0, 2 pi) with the singular factor folded in.

    Contract: sum_i weights[i] g(nodes[i]) ~ int_0^{2pi} (2 sin(t/2))^{2s} g(t) dt
    for g smooth on the closed interval.
    """

    kind: str
    points_per_axis: int
    s: float
    nodes: np.ndarray
    weights: np.ndarray
    meta: dict = field(default_factory=dict)


def _tanh_sinh_axis(n: int, s: float) -> tuple:
    """Double-exponential rule for int_0^{2pi} (2 sin(t/2))^{2s} g(t) dt."""
    one_plus = 1.0 + 2.0 * s  # endpoint integrability exponent, > 0
    if one_plus <= 0:
        raise ParameterError("axis exponent must satisfy alpha - n/r > -1")
    # truncation point: contribution beyond theta(T) is ~ theta^{1+2s}
    x_max = (16 * math.log(10) + one_plus * math.log(TWO_PI)) / (2 * one_plus)
    x_max = min(max(x_max, 19.0), 320.0)
    T = math.asinh(2.0 * x_max / math.pi)
    h = 2.0 * T / (n - 1)
    ts = -T + h * np.arange(n)
    x = 0.5 * math.pi * np.sinh(ts)
    ax = np.abs(x)
    u = TWO_PI / (1.0 + np.exp(2.0 * ax))  # distance to the nearer endpoint
    theta = np.where(ts < 0, u, TWO_PI - u)
    dtheta = 0.5 * math.pi**2 * np.cosh(ts) / np.cosh(ax) ** 2
    sinhalf = np.sin(u / 2.0)
    w = h * dtheta * (2.0 * sinhalf) ** (2.0 * s)
    good = (w > 0) & np.isfinite(w)
    # keep nodes strictly inside (0, 2 pi); extreme nodes round onto the
    # boundary but their mass is real, so nudge instead of dropping
    theta = np.clip(theta[good], np.nextafter(0.0, 1.0), np.nextafter(TWO_PI, 0.0))
    return theta, w[good], {"T": T, "h": h}


def _gegenbauer_axis(n: int, s: float) -> tuple:
    """Gauss-Jacobi in x = cos(theta/2): weight (1-x^2)^{s-1/2} after folding."""
    if s <= -0.5:
        raise ParameterError("gauss_gegenbauer needs alpha - n/r > -1")
    x, w = roots_jacobi(n, s - 0.5, s - 0.5)
    theta = 2.0 * np.arccos(x[::-1])
    weights = 2.0 ** (2.0 * s + 1.0) * w[::-1]
    return theta, weights, {}


def resolve_rule_kind(params: ParamSet, kind: str = "auto") -> str:
    """Pick the per-axis rule.

    The half-angle map behind gauss_gegenbauer has square-root branch points
    at the endpoints, so exactness only survives for trig-polynomial
    integrands; that means nu = 0 and either r = 1 or even d.  Everything
    else goes to tanh_sinh.
    """
    if kind != "auto":
        return kind
    d = params.d
    even_d = d.denominator == 1 and d.numerator % 2 == 0
    if params.nu == 0 and (params.r == 1 or even_d):
        return "gauss_gegenbauer"
    return "tanh_sinh"


def build_rule(points_per_axis: int, kind: str, params: ParamSet) -> QuadratureRule:
    """Per-axis rule with the (2 sin(theta/2))^{2s} factor folded in."""
    if points_per_axis < 4:
        raise ParameterError("points_per_axis must be >= 4")
    kind = resolve_rule_kind(params, kind)
    s = _axis_exponent(params)
    if kind == "tanh_sinh":
        nodes, weights, meta = _tanh_sinh_axis(points_per_axis, s)
    elif kind == "gauss_gegenbauer":
        nodes, weights, meta = _gegenbauer_axis(points_per_axis, s)
    else:
        raise ParameterError(f"unknown rule kind: {kind}")
    return QuadratureRule(kind, points_per_axis, s, nodes, weights, meta)


# ---------------------------------------------------------------------------
# multivariate point assembly
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _jacobi_base(n: int, a: float, b: float) -> tuple:
    if min(a, b) <= -1:
        raise ParameterError("segment exponent fell below -1")
    x, w = roots_jacobi(n, a, b)
    return x, w


def _sc(y):
    """2 sin(y/2) / y, smooth and positive on [0, 2 pi)."""
    return np.sinc(np.asarray(y) / TWO_PI)


def _is_even_d(d: Fraction) -> bool:
    return d.denominator == 1 and d.numerator % 2 == 0


def _segment(n, e_hi, e_lo, lo, hi):
    """Gauss-Jacobi points on (lo, hi) for weight (hi-t)^{e_hi} (t-lo)^{e_lo}.

    lo and hi are (rows,) arrays of interval ends.  Returns (t, w) of shape
    (rows, n) with the pure power factors folded into w.
    """
    x, w = _jacobi_base(n, float(e_hi), float(e_lo))
    half = 0.5 * (hi - lo)
    t = lo[:, None] + half[:, None] * (1.0 + x)
    # libm pow row by row: numpy's array power rounds differently on a few
    # inputs, and the nodes and weights must not depend on how rows batch
    power = e_hi + e_lo + 1.0
    scale = np.array([h ** power for h in half.tolist()])
    return t, scale[:, None] * w


@dataclass(frozen=True)
class _Level:
    """One nested axis: row p of the axes before it gets size[p] new nodes,
    ending at end[p], with angles t and nu-free weights wpre."""

    size: np.ndarray
    end: np.ndarray
    t: np.ndarray
    wpre: np.ndarray


@dataclass(frozen=True)
class _Geometry:
    """The nu-free part of a node set: the per-axis angles (the rule's nodes,
    then for non-even d one level per further axis) and e^{i theta} on every
    axis but a nested last one.  The (N, r) nodes are never stored; a run of
    them is rebuilt on demand, bitwise the rows of the full node array."""

    r: int
    axes: tuple  # per-axis angles; only the rule's nodes on the tensor branch
    levels: tuple  # nested axes 1..r-1; empty on the even-d tensor branch
    z_axes: tuple  # e^{i theta} of every axis but a nested last one

    def coords(self, lo: int, hi: int) -> np.ndarray:
        """(hi - lo, r) angles of nodes lo..hi-1."""
        last = self.levels[-1].t[lo:hi] if self.levels else None
        return self._rows(lo, hi, self.axes, last)

    def exp_i(self, lo: int, hi: int) -> np.ndarray:
        """np.exp(1j * coords(lo, hi)), with the outer axes' exponentials
        taken from the geometry; the map is elementwise, so the bits agree."""
        last = np.exp(1j * self.levels[-1].t[lo:hi]) if self.levels else None
        return self._rows(lo, hi, self.z_axes, last)

    def _rows(self, lo, hi, axes, last):
        out = np.empty((hi - lo, self.r), dtype=axes[0].dtype)
        if not self.levels:  # tensor grid in "ij" order
            idx = np.arange(lo, hi)
            for j in range(self.r - 1, -1, -1):
                idx, at = np.divmod(idx, len(axes[0]))
                out[:, j] = axes[0][at]
            return out
        out[:, -1] = last
        # the run of parents on the axis before the last, and how many of
        # the nodes each one has; their own parents map one for one
        level = self.levels[-1]
        p0, p1 = np.searchsorted(level.end, [lo, hi - 1], side="right")
        run = np.arange(p0, p1 + 1)
        start = level.end[run] - level.size[run]
        counts = np.minimum(level.end[run], hi) - np.maximum(start, lo)
        for j in range(self.r - 2, -1, -1):
            out[:, j] = np.repeat(axes[j][run], counts)
            if j:
                run = np.searchsorted(self.levels[j - 1].end, run, side="right")
        return out


def _axis_level(outer, n, two_s, d) -> _Level:
    """The next axis for every row of outer angles at once, before nu.

    outer is a (rows, k) array of the angles already chosen.  Each row's axis
    is cut at its sorted outer angles and at 0, 2 pi; outer angles closer
    than 1e-12 are merged at their midpoint with the summed exponent.  Rows
    are grouped by that merge pattern, so within a group every row has the
    same segments and end exponents.  Each segment gets a Gauss-Jacobi rule
    whose end exponents are 2s at 0 or 2 pi and d per outer angle at a cut;
    the remaining nu-free factors of the weight are multiplied into the
    segment weights.  A row's new nodes stay together, in segment then node
    order, and each group's segments are written straight into place.
    """
    srt = np.sort(outer, axis=1)
    k = srt.shape[1]
    # merged[:, j]: angle j joins the cut before it, compared with that
    # cut's (possibly already merged) angle
    merged = np.zeros(srt.shape, dtype=bool)
    cut = srt[:, 0]
    for j in range(1, k):
        merged[:, j] = srt[:, j] - cut < 1e-12
        cut = np.where(merged[:, j], 0.5 * (cut + srt[:, j]), srt[:, j])
    patterns, group = np.unique(merged, axis=0, return_inverse=True)
    group = group.ravel()
    size = ((k + 1 - patterns.sum(axis=1)) * n)[group]  # new nodes per row
    end = np.cumsum(size)
    start = end - size
    t_all = np.empty(end[-1])
    w_all = np.empty(end[-1])
    for g, pattern in enumerate(patterns):
        rows = np.flatnonzero(group == g)
        a = srt[rows]
        cuts = []  # (angles, exponent)
        for j in range(k):
            if pattern[j]:
                prev, e = cuts[-1]
                cuts[-1] = (0.5 * (prev + a[:, j]), e + d)
            else:
                cuts.append((a[:, j], d))
        ends = [(np.zeros(len(rows)), two_s)] + cuts + [(np.full(len(rows), TWO_PI), two_s)]
        last = len(cuts)
        for i in range(last + 1):
            (lo, e_lo), (hi, e_hi) = ends[i], ends[i + 1]
            t, w = _segment(n, e_hi, e_lo, lo, hi)
            lo, hi = lo[:, None], hi[:, None]
            # the 0 / 2 pi factor, then the adjacent cuts: _sc keeps the
            # smooth part of the power already folded into the segment rule
            if i == 0:
                w = w * _sc(t) ** two_s * _sc(hi - t) ** e_hi
            elif i == last:
                w = w * _sc(TWO_PI - t) ** two_s * _sc(t - lo) ** e_lo
            else:
                w = (
                    w * (2.0 * np.sin(t / 2.0)) ** two_s
                    * _sc(t - lo) ** e_lo
                    * _sc(hi - t) ** e_hi
                )
            for j, (aj, e) in enumerate(cuts):
                if j < i - 1:
                    w = w * (2.0 * np.sin((t - aj[:, None]) / 2.0)) ** e
                elif j > i:
                    w = w * (2.0 * np.sin((aj[:, None] - t) / 2.0)) ** e
            at = start[rows, None] + (i * n + np.arange(n))
            t_all[at] = t
            w_all[at] = w
    return _Level(size, end, t_all, w_all)


@lru_cache(maxsize=2)
def _geometry(r: int, d: Fraction, s: float, n: int, nodes: bytes) -> _Geometry:
    """Nu-free geometry of the rule with these first-axis nodes; two entries
    hold the coarse and fine rules of a sweep point across its nu values."""
    axes = [np.frombuffer(nodes)]
    levels = []
    if not _is_even_d(d):
        pts = axes[0][:, None]
        for k in range(1, r):
            level = _axis_level(pts, n, 2.0 * s, float(d))
            levels.append(level)
            axes.append(level.t)
            if k < r - 1:
                pts = np.column_stack([np.repeat(pts, level.size, axis=0), level.t])
    gathered = axes[:-1] if levels else axes
    return _Geometry(r, tuple(axes), tuple(levels), tuple(np.exp(1j * a) for a in gathered))


def _weights(params: ParamSet, rule: QuadratureRule) -> tuple:
    """(geometry, w): the cached nu-free geometry of the node set and the
    total measure weights at its nodes.

    Weights include the per-axis singular factors, the e^{-nu (theta - pi)}
    factors and the pair coupling; the polynomials are the only thing left
    for the integrand.  The node budget is checked before anything of node
    size is allocated.
    """
    s = _axis_exponent(params)
    if abs(rule.s - s) > 1e-12:
        raise ParameterError("rule was built for different parameters")
    r = params.r
    if r > 3:
        raise ParameterError("quadrature supports r <= 3 (cost grows as n^r)")
    even = _is_even_d(params.d)
    n = rule.points_per_axis
    bound = n**r * (1 if even else math.factorial(r))
    if bound > _NODE_BUDGET:
        raise ParameterError(
            f"{n} points per axis at r = {r} may need {bound:,} quadrature nodes, "
            f"over the budget of {_NODE_BUDGET:,}; use fewer points"
        )
    geom = _geometry(r, params.d, s, n, rule.nodes.tobytes())
    nu = float(params.nu)

    def nu_fac(th):
        return np.exp(-nu * (th - math.pi))

    w = rule.weights * nu_fac(rule.nodes)
    if even:
        grids = np.meshgrid(*[rule.nodes] * r, indexing="ij")
        wgrid = np.ones_like(grids[0])
        for j in range(r):
            shape = [1] * r
            shape[j] = -1
            wgrid = wgrid * w.reshape(shape)
        d = float(params.d)
        for p in range(r):
            for q in range(p + 1, r):
                wgrid = wgrid * (
                    2.0 * np.abs(np.sin((grids[p] - grids[q]) / 2.0))
                ) ** d
        w = wgrid.ravel()
    else:
        # the same elementwise products as a per-prefix build, axis by axis
        for level in geom.levels:
            w = np.repeat(w, level.size) * (level.wpre * nu_fac(level.t))
    if not np.all(np.isfinite(w)):
        raise ParameterError("quadrature weight assembly produced non-finite values")
    return geom, w


def _points_weights(params: ParamSet, rule: QuadratureRule) -> tuple:
    """The full (N, r) node array and the weights; the Gram pass never
    materializes the nodes, this is for inspection and reference checks."""
    geom, w = _weights(params, rule)
    return geom.coords(0, len(w)), w


def _prefactor(params: ParamSet) -> float:
    return coeffs.c0_tilde(params).value() / TWO_PI ** float(params.n)


def inner_product(
    m: Sequence[int], n: Sequence[int], params: ParamSet, rule: QuadratureRule
) -> complex:
    """Quadrature value of (c0~/(2 pi)^n) int phi_m conj(phi_n) d(weight)."""
    return complex(_gram(params, [m, n], rule)[0, 1])


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class OrthReport:
    params: ParamSet
    max_weight: int
    partitions: list
    gram: np.ndarray
    expected: list
    rule_info: dict
    off_diag_max_scaled: float
    diag_rel_max: float
    hermiticity: float
    tol_off: float
    tol_diag: float
    passed: bool
    flag: Optional[str] = None
    diagnostics: Optional[dict] = None
    notes: list = field(default_factory=list)
    wall_clock_s: float = 0.0

    def one_line(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        flag = f" [{self.flag}]" if self.flag else ""
        return (
            f"{verdict}{flag} r={self.params.r} d={self.params.d} "
            f"alpha={float(self.params.alpha):g} nu={float(self.params.nu):g} "
            f"w<={self.max_weight}: off={self.off_diag_max_scaled:.3e} "
            f"diag={self.diag_rel_max:.3e} ({self.wall_clock_s:.2f}s)"
        )

    def to_json_dict(self) -> dict:
        # wall clock is intentionally omitted: identical configurations must
        # serialize to byte-identical reports
        doc = {
            "schema": "mcjacobi-orth-report-v1",
            "params": self.params.describe(),
            "max_weight": self.max_weight,
            "partitions": [format_partition(p) for p in self.partitions],
            "rule": self.rule_info,
            "tolerances": {"off_diag": self.tol_off, "diag_rel": self.tol_diag},
            "gram": [
                [[z.real, z.imag] for z in row] for row in np.asarray(self.gram)
            ],
            "expected": list(self.expected),
            "residuals": {
                "off_diag_max_scaled": self.off_diag_max_scaled,
                "diag_rel_max": self.diag_rel_max,
                "hermiticity": self.hermiticity,
            },
            "verdict": "pass" if self.passed else "fail",
        }
        if self.flag is not None:
            doc["flag"] = self.flag
        if self.diagnostics is not None:
            doc["diagnostics"] = self.diagnostics
        if self.notes:
            doc["notes"] = list(self.notes)
        return doc

    def gram_modulus_csv(self) -> str:
        lines = [",".join(["partition"] + [format_partition(p) for p in self.partitions])]
        for i, p in enumerate(self.partitions):
            row = [format_partition(p)] + [
                f"{abs(self.gram[i, j]):.17g}" for j in range(len(self.partitions))
            ]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def _pairwise(lo: int, hi: int, leaf):
    """Sum of leaf(lo', hi') over the leaves of numpy's pairwise-summation
    tree on [lo, hi), in the tree's order; with leaf = np.sum over the slice
    it is np.sum over [lo, hi), bit for bit.  For hi - lo > _LEAF every leaf
    holds between _LEAF / 2 and _LEAF values.
    """
    n = hi - lo
    if n <= _LEAF:
        return leaf(lo, hi)
    mid = lo + (n - n % 8) // 2
    return _pairwise(lo, mid, leaf) + _pairwise(mid, hi, leaf)


def _gram(params: ParamSet, parts: list, rule: QuadratureRule) -> np.ndarray:
    """All P^2 entries pref * sum_k w_k phi_i(z_k) conj(phi_j(z_k)).

    One pass over the leaves of the pairwise-summation tree: each leaf
    evaluates the polynomials at its own nodes and reduces its P^2 sums, so
    no array spans all the nodes.  numpy's pairwise summation, with no BLAS
    call, so the result does not depend on the thread count; hermiticity
    stays a measured diagnostic.
    """
    geom, w = _weights(params, rule)
    bodies = [mcj_build(tuple(m), params).body for m in parts]
    P = len(parts)

    def leaf(lo, hi):
        vals = evaluate_points_many(bodies, geom.exp_i(lo, hi))
        S = np.empty((P, P), dtype=complex)
        for i in range(P):
            wv = w[lo:hi] * vals[i]
            for j in range(P):
                S[i, j] = np.sum(wv * np.conj(vals[j]))
        return S

    return _prefactor(params) * _pairwise(0, len(w), leaf)


def verify_orthogonality(
    params: ParamSet,
    max_weight: int,
    rule: QuadratureRule,
    tol_off: float,
    tol_diag: float,
) -> OrthReport:
    """Assemble the Gram matrix over all partitions of weight <= max_weight
    and compare with the predicted diagonal norms."""
    if not (tol_off >= 0 and tol_diag >= 0):
        raise ParameterError("tolerances must be non-negative numbers")
    t0 = time.perf_counter()
    parts = enumerate_partitions(max_weight, params.r)
    G = _gram(params, parts, rule)
    expected = [coeffs.expected_norm(m, params) for m in parts]
    P = len(parts)
    off = 0.0
    herm = 0.0
    diag = 0.0
    for i in range(P):
        diag = max(diag, abs(G[i, i].real - expected[i]) / expected[i])
        for j in range(P):
            if i == j:
                continue
            scale = math.sqrt(expected[i] * expected[j])
            off = max(off, abs(G[i, j]) / scale)
            herm = max(herm, abs(G[i, j] - G[j, i].conjugate()) / scale)
    off, diag, herm = float(off), float(diag), float(herm)
    passed = off <= tol_off and diag <= tol_diag
    info = {
        "kind": rule.kind,
        "points_per_axis": rule.points_per_axis,
        "axis_exponent": rule.s,
    }
    return OrthReport(
        params=params,
        max_weight=max_weight,
        partitions=parts,
        gram=G,
        expected=expected,
        rule_info=info,
        off_diag_max_scaled=off,
        diag_rel_max=diag,
        hermiticity=herm,
        tol_off=tol_off,
        tol_diag=tol_diag,
        passed=passed,
        wall_clock_s=time.perf_counter() - t0,
    )


def _theorem_covered(params: ParamSet) -> bool:
    d = params.d
    if d in (1, 2, 4):
        return True
    if params.r == 2 and d.denominator == 1:
        return True
    if params.r == 3 and d == 8:
        return True
    if params.nu == 0 and Fraction(params.alpha) == params.n_over_r:
        return True
    return False


def conjecture_sweep(
    d_values: Sequence,
    alpha_values: Sequence[float],
    nu_values: Sequence[float],
    r: int,
    max_weight: int,
    points_per_axis: int = 48,
    kind: str = "auto",
    tol_off: float = 1e-4,
    tol_diag: float = 1e-4,
    oracle_tol: float = 1e-6,
) -> list:
    """Orthogonality evidence over a parameter grid.

    Theorem-covered parameter points are flagged "oracle" and held to the
    tighter tolerance; the rest are "evidence" rows.  Each report carries a
    two-resolution convergence diagnostic; an evidence row that converges to
    a nonzero residual is a finding, not a numerical artifact.
    """
    reports = []
    for d in d_values:
        for alpha in alpha_values:
            for nu in nu_values:
                params = ParamSet(r=r, d=d, alpha=alpha, nu=nu)
                if not params.orthogonality_ok():
                    print(
                        f"notice: skipping d={d} alpha={alpha} nu={nu}: "
                        f"requires alpha > (d/2)(r-1)",
                        file=sys.stderr,
                    )
                    continue
                t0 = time.perf_counter()
                oracle = _theorem_covered(params)
                t_off = oracle_tol if oracle else tol_off
                t_diag = oracle_tol if oracle else tol_diag
                coarse = build_rule(points_per_axis, kind, params)
                fine = build_rule(2 * points_per_axis, kind, params)
                rep_c = verify_orthogonality(params, max_weight, coarse, t_off, t_diag)
                rep = verify_orthogonality(params, max_weight, fine, t_off, t_diag)
                floor = 1e-12
                err_c = max(rep_c.diag_rel_max, rep_c.off_diag_max_scaled)
                err_f = max(rep.diag_rel_max, rep.off_diag_max_scaled)
                ratio = err_c / max(err_f, floor)
                if rep.passed:
                    # tolerance met; trustworthy if refinement behaved like
                    # quadrature error (shrank, hit the floor, or was already
                    # below tolerance at the coarse rule)
                    converged = ratio >= 4.0 or err_f <= 10 * floor or err_c <= min(t_off, t_diag)
                    stable_residual = False
                else:
                    # tolerance failed; the failure is reportable only when
                    # the residual survives refinement unchanged
                    stable_residual = ratio < 4.0 and err_f > floor
                    converged = stable_residual
                rep.flag = "oracle" if oracle else "evidence"
                rep.diagnostics = {
                    "points_per_axis": [points_per_axis, 2 * points_per_axis],
                    "diag_rel": [float(rep_c.diag_rel_max), float(rep.diag_rel_max)],
                    "off_scaled": [
                        float(rep_c.off_diag_max_scaled),
                        float(rep.off_diag_max_scaled),
                    ],
                    "refinement_ratio": float(ratio),
                    "converged": bool(converged),
                }
                rep.passed = rep.passed and converged
                if stable_residual:
                    where = "non-classical d" if not oracle else "a theorem-covered point (numerical defect?)"
                    rep.notes.append(
                        f"residual stable under refinement at {where}: "
                        "reproducible, not a quadrature artifact"
                    )
                elif not rep.passed:
                    rep.notes.append(
                        "quadrature-limited: residual still shrinking, "
                        "increase points_per_axis before drawing conclusions"
                    )
                rep.wall_clock_s = time.perf_counter() - t0
                reports.append(rep)
    return reports
