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
angles and their e^{i theta} (built in place, bitwise np.exp(1j * theta)),
and, for non-even d, for each nested axis the new nodes per prefix and their
weights before the nu factor, and for the last axis each node's row (the
node of the axis before it that it was cut for, int32) and each row's outer
angles and e^{i theta}: 36 bytes per node of the last axis (8 of angle, 8 of
weight, 16 of e^{i theta}, 4 of row), and the rows' arrays, r - 1 of them
and each 1/n as long or less, 24 bytes an entry.  A nested
axis is built in runs of rows of about ``_LEAF`` new nodes per segment, so no
temporary of the build spans all the nodes.  Each call applies nu
(``_weigher``) with the same elementwise products as a fresh build, run by
run, so the weights are bitwise the same whatever the runs: each Gram leaf
forms the weights of its own nodes, and no array of all N weights exists
during a pass (``_weights`` assembles one, for inspection and the tests).
The geometry holds no (N, r) node array: each Gram leaf takes its r
contiguous columns of e^{i theta} from the geometry, the last axis by
slicing and the outer axes gathered (np.take into its scratch arrays) by the
same node index as its weights (``_Geometry.index``: the tensor grid's
per-axis indices, or the nested nodes' rows); only ``_points_weights``, for
inspection, stacks the angle columns.

Before any rule is built, ``build_rule`` bounds the node count from the
points per axis n, n^r on the tensor branch and n^r r! on the nested one,
and the n^2 entries of an n-point Gauss-Jacobi rule's Jacobi matrix; past
``_NODE_BUDGET`` either way it raises ParameterError.  Before any polynomial is built,
``verify_orthogonality`` bounds the partition count P and the Gram work
P^2 N, and refuses a max weight whose float body factors would pass the
double range (``_check_work``).

The Gram matrix is one pass over the leaves of numpy's pairwise-summation
tree on the nodes (``_pairwise``), which halves n complex values at
(n - n % 8) // 2 as np.sum does, down to leaves of at most ``_LEAF`` = 32768
nodes.  Each leaf forms its weights (widened to complex once), takes the r
columns of z = e^{i theta} for its own nodes, evaluates the polynomials there
in one shared pass over their monomials (``sympoly.evaluate_points_many`` on
a plan the pass built once, each power z_j^e computed once) and reduces its
P^2 sums against the conjugates, formed once per leaf; adding the leaf
matrices in the tree's order makes every entry np.sum over all nodes, bit for
bit, with only a few leaf-sized arrays in memory.  A non-finite weight makes
some sum non-finite, so a leaf scans its weights only then.  The leaves are
independent: a pass of more than one leaf computes them on a thread pool,
made on first use, with at most one leaf per available CPU and
``_IN_FLIGHT`` = 2 at once (numpy releases the GIL in its loops), as
``_IN_FLIGHT`` tasks pulling leaves from one iterator, and adds them in the
tree's order once all are done, so the entries do not depend on the CPU
count.  No BLAS is called, so reports are byte-identical whatever the BLAS
thread count.

A leaf writes its leaf-sized arrays (grid indices, weights, gathered
columns, values, conjugates, products) with ufunc out= into a scratch set
(``_Scratch``): it takes one from a shared list and gives it back.  A callee
(the weights, ``sympoly.evaluate_points_many``) writes its results into
arrays the leaf took before and takes only its temporaries, which the leaf
hands out again once it returns (``_Scratch.frame``).  There are as many
sets as leaves ever ran at once, ``_IN_FLIGHT`` at most, each keeping at
most ``_KEEP`` arrays of at most ``_LEAF`` complex values, so at most 16 MiB
stay between passes; building a new geometry drops them all, so they serve
only the cached node sets.  A pass on the pool may run all its leaves on one
set where a later pass runs two at once, so after it the sets are topped up
to as many as its leaves could run at once (``_top_up``).  A warm pass then
allocates nothing leaf-sized, so it takes no fresh pages from the OS
whatever malloc's trim and mmap thresholds (glibc serves a large array by
mmap, with fresh pages, until freeing one raises its threshold).

The bits are those of the whole-array expressions ``prod * z_j**e`` and
``wv * np.conj(v_j)``, whose right operands are fresh temporaries.  numpy's
complex multiply uses FMA in its SIMD kernel and is not bitwise commutative,
and numpy evaluates ``named * temp`` as ``temp *= named`` once the temporary
reaches 256 KiB, i.e. 16384 complex values.  The leaf multiplies arrays it
keeps (the powers, the conjugates), so it states that order explicitly
(``sympoly._mul``): temporary first from 16384 values on, named first below.
The order follows the length of the arrays multiplied, so the leaves never
hold fewer than 16384 nodes (when there is more than one): a leaf of 8192 to
16383 nodes would multiply named first where the whole array multiplies the
temporary first, which moved the r = 3, d = 1, 48-point Gram by up to 7e-17.
"""

from __future__ import annotations

import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import coeffs
from .errors import ParameterError
from .mcj import _check_float_range, mcj_build
from .params import ParamSet
from .partitions import count_partitions, enumerate_partitions, format_partition
from .sympoly import _mul, _plan_evaluation, _power, evaluate_points_many

TWO_PI = 2.0 * math.pi
# nodes per leaf of the Gram pass; see the module docstring for the floor
_LEAF = 32768
# most nodes a rule may ask for, estimated before anything is allocated
_NODE_BUDGET = 1 << 22
# work budgets of one certificate, checked before anything is built, each
# ~10 s of the worst case measured on a 2-core x86 machine: partitions (the
# exact build), and Gram entry-nodes P^2 N (evaluation and reduction)
_PARTITION_BUDGET = 400
_GRAM_BUDGET = 1 << 30
# most Gram leaves computed at once: each holds a few leaf-sized arrays
_IN_FLIGHT = 2
# leaf-sized arrays a scratch set keeps between leaves: with _IN_FLIGHT sets,
# at most _IN_FLIGHT * _KEEP * _LEAF complex values, 16 MiB, stay
_KEEP = 16


def _axis_exponent(params: ParamSet) -> float:
    """s = (alpha - n/r)/2; the per-axis factor is (2 sin(theta/2))^{2s}."""
    return 0.5 * (float(params.alpha) - float(params.n_over_r))


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
    return theta, w[good]


def _jacobi_matrix(n: int, a: float, b: float) -> tuple:
    """(diag, off): the Jacobi matrix of the weight (1-x)^a (1+x)^b, diag[k] =
    alpha_k and off[k] = sqrt(beta_k) for k = 1..n-1 (off[0] = 0), the
    coefficients of the orthonormal recurrence.  The textbook entries are 0/0
    where a + b is 0 (alpha_0) or -1 (beta_1), so alpha_0 and beta_1 take
    their cancelled forms."""
    k = np.arange(n, dtype=float)
    s = 2.0 * k + (a + b)
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b - a) * (b + a) / (s[1:] * (s[1:] + 2.0))
    # beta_k = 4 k (k + a) (k + b) (k + a + b) / (s^2 (s + 1) (s - 1)); at k = 1
    # the factors k + a + b and s - 1 are both 1 + a + b
    off = np.zeros(n)
    off[1:] = 2.0 / s[1:] * np.sqrt((k[1:] + a) * (k[1:] + b) / (s[1:] + 1.0))
    off[2:] *= np.sqrt(k[2:] * (k[2:] + a + b) / (s[2:] - 1.0))
    return diag, off


def _jacobi_values(x: np.ndarray, diag: np.ndarray, off: np.ndarray) -> tuple:
    """(q, dq, norm) at x, by the orthonormal three-term recurrence from p_0 = 1:
    q and dq a constant multiple of the degree-n Jacobi polynomial and of its
    derivative, norm = p_0^2 + ... + p_{n-1}^2."""
    p0, p1 = np.zeros_like(x), np.ones_like(x)
    d0, d1 = np.zeros_like(x), np.zeros_like(x)
    norm = np.zeros_like(x)
    n = len(diag)
    for k in range(n):
        norm += p1 * p1
        u = x - diag[k]
        q = u * p1 - off[k] * p0
        dq = u * d1 + p1 - off[k] * d0
        if k + 1 < n:  # the last division would only rescale
            q /= off[k + 1]
            dq /= off[k + 1]
        p0, p1, d0, d1 = p1, q, d1, dq
    return p1, d1, norm


def roots_jacobi(n: int, a: float, b: float) -> tuple:
    """Nodes and weights of the n-point Gauss-Jacobi rule for the weight
    (1-x)^a (1+x)^b on (-1, 1), nodes ascending, a, b > -1.

    The nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix
    (Golub & Welsch, Math. Comp. 23, 1969), polished by a Newton step on the
    three-term recurrence.  The weights are Golub & Welsch's, mu_0 v_i0^2 for
    the first components of the normalised eigenvectors, in the Christoffel
    form mu_0 / (p_0^2 + ... + p_{n-1}^2) at the node, p_k orthonormal, with
    mu_0 = 2^{a+b+1} B(a+1, b+1) the integral of the weight; a sum of
    positive terms, it was more accurate than the derivative formula
    1 / ((1 - x^2) P_n'(x)^2) on 13 of 15 rules measured against 50-digit
    values, and within 7% on the other two.  At a = b the nodes x >= 0 come
    from a matrix half the size, an eighth of the n^3 work (Meurant &
    Sommariva, Numer. Algorithms 67, 2014), and are mirrored, so the rule is
    symmetric; at a = b = -1/2 it is Chebyshev's closed form.  The
    eigenvalues are LAPACK's (dsyevd: a Householder reduction, whose
    reflections are the identity on a tridiagonal matrix, then the serial
    dsterf), so the rule does not depend on the BLAS thread count.
    """
    if a == b == -0.5:  # x = sin(pi t), t = k / (2n), reduced to |pi t| <= pi/4 first
        t = np.arange(1 - n, n, 2) / (2 * n)
        u = np.abs(t)
        x = np.where(u <= 0.25, np.sin(math.pi * u), np.cos(math.pi * (0.5 - u)))
        return np.copysign(x, t), np.full(n, math.pi / n)
    diag, off = _jacobi_matrix(n, a, b)
    if a == b:
        # the diagonal is 0, so J^2 splits by index parity: the squares of the
        # nodes x >= 0 are the eigenvalues of its even-indexed block
        e = np.zeros(n + n % 2)
        e[:n] = off  # e[k] couples k - 1 and k
        squares = _eigvalsh_tridiagonal(e[0::2] ** 2 + e[1::2] ** 2, e[1:-1:2] * e[2::2])
        squares[: n % 2] = 0.0  # an odd rule's middle node, which rounding may make negative
        x = np.sqrt(squares)
    else:
        x = _eigvalsh_tridiagonal(diag, off[1:])
    q, dq, _ = _jacobi_values(x, diag, off)
    x = x - q / dq  # one Newton step: a second moved no node error measured
    log_mu0 = (a + b + 1.0) * math.log(2.0) + math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)
    w = math.exp(log_mu0) / _jacobi_values(x, diag, off)[2]
    if a == b:  # each p_k is odd or even, bit for bit: -x gets what the mirror gives
        return np.concatenate((-x[n % 2 :][::-1], x)), np.concatenate((w[n % 2 :][::-1], w))
    return x, w


def _eigvalsh_tridiagonal(diag: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal matrix with this
    diagonal and sub-diagonal, by LAPACK on the dense matrix (numpy has no
    tridiagonal eigensolver)."""
    jac = np.diag(diag)
    k = np.arange(1, len(diag))
    jac[k, k - 1] = sub  # eigvalsh reads the lower triangle
    return np.linalg.eigvalsh(jac)


def _gegenbauer_axis(n: int, s: float) -> tuple:
    """Gauss-Jacobi in x = cos(theta/2): weight (1-x^2)^{s-1/2} after folding."""
    if s <= -0.5:
        raise ParameterError("gauss_gegenbauer needs alpha - n/r > -1")
    x, w = roots_jacobi(n, s - 0.5, s - 0.5)
    theta = 2.0 * np.arccos(x[::-1])
    weights = 2.0 ** (2.0 * s + 1.0) * w[::-1]
    return theta, weights


def _is_even_d(d: Fraction) -> bool:
    return d.denominator == 1 and d.numerator % 2 == 0


def resolve_rule_kind(params: ParamSet, kind: str = "auto") -> str:
    """Pick the per-axis rule.

    The half-angle map behind gauss_gegenbauer has square-root branch points
    at the endpoints, so exactness only survives for trig-polynomial
    integrands; that means nu = 0 and either r = 1 or even d.  Everything
    else goes to tanh_sinh.
    """
    if kind != "auto":
        return kind
    if params.nu == 0 and (params.r == 1 or _is_even_d(params.d)):
        return "gauss_gegenbauer"
    return "tanh_sinh"


def _node_bound(n: int, params: ParamSet) -> int:
    """Most nodes of an n-point rule: n^r on the even-d tensor branch, n^r r!
    on the nested one."""
    return n**params.r * (1 if _is_even_d(params.d) else math.factorial(params.r))


def _check_budget(n: int, params: ParamSet) -> None:
    """Refuse n points per axis before anything is built: a rule may need up
    to ``_node_bound`` nodes, and an n-point Gauss-Jacobi rule's dense Jacobi
    matrix has n^2 entries (its eigenvalues cost n^3)."""
    r = params.r
    nodes = _node_bound(n, params)
    if max(nodes, n * n) > _NODE_BUDGET:
        raise ParameterError(
            f"{n} points per axis at r = {r} may need {nodes:,} quadrature nodes "
            f"and a {n}-point Gauss-Jacobi rule (n^2 = {n * n:,} matrix entries), over "
            f"the budget of {_NODE_BUDGET:,}; use fewer points"
        )


def _check_work(params: ParamSet, max_weight: int, n: int) -> None:
    """Refuse a certificate over partitions of weight <= max_weight with an
    n-point rule before anything is built, from the partition count P (the
    exact build), P^2 times the nodes (the Gram pass) and the float range of
    the bodies' factors."""
    P = count_partitions(max_weight, params.r, _PARTITION_BUDGET + 1)
    units = P * P * _node_bound(n, params)
    if P > _PARTITION_BUDGET:
        need = f"more than {_PARTITION_BUDGET} partitions"
    elif units > _GRAM_BUDGET:
        need = f"{P} partitions and up to {units:,} Gram entry-nodes (P^2 times the nodes)"
    else:
        what = f"max weight {max_weight} at r = {params.r}"
        return _check_float_range(params, max_weight, what, "max weight")
    raise ParameterError(
        f"max weight {max_weight} at r = {params.r} with {n} points per axis needs {need}, "
        f"over the budget of {_PARTITION_BUDGET} partitions and {_GRAM_BUDGET:,} "
        "entry-nodes; use a smaller max weight or fewer points"
    )


def build_rule(points_per_axis: int, kind: str, params: ParamSet) -> QuadratureRule:
    """Per-axis rule with the (2 sin(theta/2))^{2s} factor folded in; the
    node budget is checked before the rule is built."""
    if points_per_axis < 4:
        raise ParameterError("points_per_axis must be >= 4")
    _check_budget(points_per_axis, params)
    kind = resolve_rule_kind(params, kind)
    s = _axis_exponent(params)
    if kind == "tanh_sinh":
        nodes, weights = _tanh_sinh_axis(points_per_axis, s)
    elif kind == "gauss_gegenbauer":
        nodes, weights = _gegenbauer_axis(points_per_axis, s)
    else:
        raise ParameterError(f"unknown rule kind: {kind}")
    return QuadratureRule(kind, points_per_axis, s, nodes, weights)


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
    with angles t and nu-free weights wpre."""

    size: np.ndarray
    t: np.ndarray
    wpre: np.ndarray


def _fresh(n: int):
    """take() for callers that keep nothing: a new length-n array each call."""
    return lambda dtype=complex: np.empty(n, dtype)


class _Scratch:
    """Arrays that one Gram leaf at a time writes with ufunc out=, kept
    across leaves and passes, so a warm pass takes no fresh pages whatever
    the allocator's thresholds.  start(n, cap) begins a leaf of n nodes, with
    the arrays grown to cap complex values, the largest leaf of the pass;
    take(dtype) then hands out the next array as an n-long view.  The arrays
    taken inside ``with frame():`` are handed out again once it closes, so a
    callee there gets only its temporaries from take and writes its results
    into arrays the caller took before."""

    def __init__(self):
        self.arrays = []

    def start(self, n: int, cap: int):
        self.n, self.cap, self.used = n, cap, 0
        return self.take

    def take(self, dtype=complex) -> np.ndarray:
        if self.used == len(self.arrays):
            self.arrays.append(np.empty(self.cap, dtype=complex))
        elif len(self.arrays[self.used]) < self.cap:
            self.arrays[self.used] = np.empty(self.cap, dtype=complex)
        self.used += 1
        return self.arrays[self.used - 1].view(dtype)[: self.n]

    @contextmanager
    def frame(self):
        used = self.used
        try:
            yield
        finally:
            self.used = used

    def keep(self) -> None:
        """End a leaf, keeping at most _KEEP arrays."""
        del self.arrays[_KEEP:]


# idle scratch sets, as many as leaves ever ran at once (list.pop and
# list.append hold no lock a forked child could inherit held); they serve
# warm passes, so building a new geometry drops them
_SCRATCH = []
# one entry per scratch set made since then (list.append is atomic)
_MADE = []


def _take_scratch() -> _Scratch:
    try:
        return _SCRATCH.pop()
    except IndexError:
        _MADE.append(None)
        return _Scratch()


def _top_up(count: int) -> None:
    """Make idle scratch sets until count were made, each a copy of the
    fullest idle one, so its pages are written now: the leaves of a pass on
    the pool may all run on one set while a later warm pass runs two at once,
    and a set made then would take fresh pages."""
    while len(_MADE) < count and _SCRATCH:
        _MADE.append(None)
        spare = _Scratch()
        spare.arrays = [a.copy() for a in max(_SCRATCH, key=lambda s: len(s.arrays)).arrays]
        _SCRATCH.append(spare)


def _exp_i(t: np.ndarray) -> np.ndarray:
    """np.exp(1j * t), bitwise for t in (0, 2 pi), built in place: no
    temporary of twice its size."""
    z = np.zeros(len(t), dtype=complex)
    z.imag = t
    return np.exp(z, out=z)


@dataclass(frozen=True)
class _Geometry:
    """The nu-free part of a node set: the per-axis angles (the rule's nodes,
    then for non-even d one level per further axis) and e^{i theta} on every
    axis.  The (N, r) nodes are never stored; a run of them is rebuilt on
    demand as r columns, bitwise the columns of the full node array.  Nested,
    the last axis' nodes are grouped in rows, one per node of the axis before
    it: ``row`` holds each node's row (int32) and ``rows`` and ``z_rows``
    each row's outer angles and their e^{i theta}, so a run's outer columns
    are gathered by row."""

    r: int
    axes: tuple  # per-axis angles; only the rule's nodes on the tensor branch
    levels: tuple  # nested axes 1..r-1; empty on the even-d tensor branch
    z_axes: tuple  # e^{i theta} of each entry of axes
    row: Optional[np.ndarray] = None  # nested: the row of each last-axis node
    rows: tuple = ()  # nested: axes 0..r-2's angles at each row
    z_rows: tuple = ()  # e^{i theta} of each entry of rows

    @property
    def size(self) -> int:
        """N, the number of nodes."""
        return len(self.axes[-1]) if self.levels else len(self.axes[0]) ** self.r

    def index(self, lo: int, hi: int, take=None):
        """Where nodes lo..hi-1 sit, for their weights and their columns, in
        arrays from take: on a tensor grid the per-axis indices in "ij"
        order; nested, their rows."""
        take = take or _fresh(hi - lo)
        if self.levels:
            at = take(np.intp)
            np.copyto(at, self.row[lo:hi])  # widened once: np.take would copy int32
            return at
        at = [take(np.intp) for _ in range(self.r)]
        idx = at[0]  # lo..hi-1, divided down to the first axis' index
        idx.fill(1)
        idx[0] = lo
        np.cumsum(idx, out=idx)
        for j in range(self.r - 1, 0, -1):
            np.divmod(idx, len(self.axes[0]), out=(idx, at[j]))
        return tuple(at)

    def exp_i(self, lo: int, hi: int, at, take=None) -> list:
        """The r columns of np.exp(1j * theta) at nodes lo..hi-1 (at =
        index(lo, hi)), each contiguous, from the geometry's exponentials;
        the map is elementwise, so the bits agree.  Columns not sliced from
        the last axis are gathered into arrays from take."""
        return self._columns(lo, hi, self.z_axes, self.z_rows, at, take)

    def angles(self, lo: int, hi: int, at, take=None) -> list:
        """The r columns of the angles at nodes lo..hi-1, as ``exp_i``."""
        return self._columns(lo, hi, self.axes, self.rows, at, take)

    def _columns(self, lo, hi, axes, rows, at, take):
        take = take or _fresh(hi - lo)
        # mode="clip" spares np.take a copy; at is in range
        if not self.levels:
            return [np.take(axes[0], a, out=take(axes[0].dtype), mode="clip") for a in at]
        return [np.take(c, at, out=take(c.dtype), mode="clip") for c in rows] + [axes[-1][lo:hi]]


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
    order, and each group's segments are written straight into place, a run
    of about ``_LEAF`` new nodes per segment at a time.
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
    chunk = max(1, _LEAF // n)  # rows per run: one segment is about a leaf
    for g, pattern in enumerate(patterns):
        members = np.flatnonzero(group == g)
        for c in range(0, len(members), chunk):
            rows = members[c : c + chunk]
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
    return _Level(size, t_all, w_all)


@lru_cache(maxsize=2)
def _geometry(r: int, d: Fraction, s: float, n: int, nodes: bytes) -> _Geometry:
    """Nu-free geometry of the rule with these first-axis nodes; two entries
    hold the coarse and fine rules of a sweep point across its nu values.
    A new node set makes the next pass a cold one: the scratch sets kept for
    warm passes go, so none outlives the node sets it served."""
    _SCRATCH.clear()
    _MADE.clear()
    axes = [np.frombuffer(nodes)]
    if _is_even_d(d) or r == 1:
        return _Geometry(r, tuple(axes), (), (_exp_i(axes[0]),))
    levels = []
    pts = axes[0][:, None]  # the outer angles of each row of the next axis
    for k in range(1, r):
        level = _axis_level(pts, n, 2.0 * s, float(d))
        levels.append(level)
        axes.append(level.t)
        if k < r - 1:
            pts = np.column_stack([np.repeat(pts, level.size, axis=0), level.t])
    rows = tuple(np.ascontiguousarray(c) for c in pts.T)
    row = np.repeat(np.arange(len(pts), dtype=np.int32), levels[-1].size)
    z_axes = tuple(_exp_i(a) for a in axes)
    return _Geometry(r, tuple(axes), tuple(levels), z_axes, row, rows, tuple(_exp_i(c) for c in rows))


def _weigher(params: ParamSet, rule: QuadratureRule) -> tuple:
    """(geometry, weigh): the cached nu-free geometry of the node set and
    weigh(lo, hi, at, out, take), which writes the total measure weights at
    nodes lo..hi-1 (at = geometry.index(lo, hi)) into out, with its
    temporaries from take.

    Weights include the per-axis singular factors, the e^{-nu (theta - pi)}
    factors and the pair coupling; the polynomials are the only thing left
    for the integrand.  weigh forms its run with the same elementwise
    products as a whole-array build, so the bits do not depend on the run;
    its callers refuse non-finite values (``_check_finite``).  The node
    budget is checked before anything of node size is allocated.
    """
    s = _axis_exponent(params)
    if abs(rule.s - s) > 1e-12:
        raise ParameterError("rule was built for different parameters")
    r = params.r
    if r > 3:
        raise ParameterError("quadrature supports r <= 3 (cost grows as n^r)")
    n = rule.points_per_axis
    _check_budget(n, params)
    geom = _geometry(r, params.d, s, n, rule.nodes.tobytes())
    nu, d = float(params.nu), float(params.d)

    def nu_fac(th, out=None):
        out = np.subtract(th, math.pi, out=out)
        return np.exp(np.multiply(-nu, out, out=out), out=out)

    # per pass, one array per axis before a nested last one
    w = rule.weights * nu_fac(rule.nodes)
    for level in geom.levels[:-1]:
        w = np.repeat(w, level.size) * (level.wpre * nu_fac(level.t))

    def weigh(lo, hi, at, out, take):
        if geom.levels:  # at holds the nodes' rows
            last = geom.levels[-1]
            nu_fac(last.t[lo:hi], out)
            np.multiply(last.wpre[lo:hi], out, out=out)
            np.multiply(np.take(w, at, out=take(float), mode="clip"), out, out=out)
        else:  # the product of the axes' weights, then the pair coupling
            x, tmp, pair = geom.axes[0], take(float), take(float)
            np.take(w, at[0], out=out, mode="clip")
            for j in range(1, r):
                np.multiply(out, np.take(w, at[j], out=tmp, mode="clip"), out=out)
            for p in range(r):
                for q in range(p + 1, r):
                    np.take(x, at[p], out=pair, mode="clip")
                    np.subtract(pair, np.take(x, at[q], out=tmp, mode="clip"), out=pair)
                    np.sin(np.divide(pair, 2.0, out=pair), out=pair)
                    np.multiply(2.0, np.abs(pair, out=pair), out=pair)
                    np.multiply(out, _power(pair, d, pair), out=out)

    return geom, weigh


def _check_finite(w: np.ndarray) -> None:
    if not np.all(np.isfinite(w)):
        raise ParameterError("quadrature weight assembly produced non-finite values")


def _weights(params: ParamSet, rule: QuadratureRule) -> tuple:
    """(geometry, w): the geometry and all N weights, for inspection and the
    tests, assembled from ``_weigher``'s runs; the Gram pass never holds
    them all."""
    geom, weigh = _weigher(params, rule)
    w = np.empty(geom.size)
    for lo in range(0, len(w), _LEAF):
        hi = min(lo + _LEAF, len(w))
        take = _fresh(hi - lo)
        weigh(lo, hi, geom.index(lo, hi, take), w[lo:hi], take)
    _check_finite(w)
    return geom, w


def _points_weights(params: ParamSet, rule: QuadratureRule) -> tuple:
    """The full (N, r) node array and the weights, for inspection: the Gram
    pass never materializes the nodes.  Kept because perfbench/tracer.py
    wraps it by name; the tests use their own copy."""
    geom, w = _weights(params, rule)
    return np.column_stack(geom.angles(0, len(w), geom.index(0, len(w)))), w


def _prefactor(params: ParamSet) -> float:
    return coeffs.c0_tilde(params) / TWO_PI ** float(params.n)


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


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@lru_cache(maxsize=1)
def _pool(pid: int):
    """Threads for the Gram leaves, made on first use in each process: a
    forked child has none of its parent's threads."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_IN_FLIGHT, thread_name_prefix="mcjacobi-gram")


def _map_leaves(leaf, spans: list) -> list:
    """[leaf(lo, hi) for (lo, hi) in spans], at most one leaf per CPU and
    _IN_FLIGHT leaves in flight; numpy releases the GIL in its loops.  A pool
    task pulls leaves until none is left or one has raised; the caller's
    thread runs none, so two callers still have _IN_FLIGHT in flight."""
    if min(len(spans), _cpu_count()) < 2:
        return [leaf(lo, hi) for lo, hi in spans]
    out, failed = [None] * len(spans), []
    todo = iter(range(len(spans)))  # its next() runs under the GIL

    def task():
        for k in todo:
            if failed:
                return
            try:
                out[k] = leaf(*spans[k])
            except BaseException as exc:
                failed.append((k, exc))

    tasks = [_pool(os.getpid()).submit(task) for _ in range(_IN_FLIGHT)]
    for t in tasks:
        t.result()
    if failed:
        raise min(failed)[1]  # the leaf indices differ
    return out


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

    One pass over the leaves of the pairwise-summation tree: each leaf forms
    the weights and the e^{i theta} columns of its own nodes, evaluates the
    polynomials there and reduces its P^2 sums, so no array spans all the
    nodes.  numpy's pairwise summation, with no BLAS call, so the result does
    not depend on the thread count; hermiticity stays a measured diagnostic.
    """
    geom, weigh = _weigher(params, rule)
    plan = _plan_evaluation([mcj_build(tuple(m), params).body for m in parts], params.r)
    P = len(parts)
    spans = _pairwise(0, geom.size, lambda lo, hi: [(lo, hi)])
    cap = max(hi - lo for lo, hi in spans)

    def leaf(lo, hi):
        scratch = _take_scratch()
        take = scratch.start(hi - lo, cap)
        try:
            at = geom.index(lo, hi, take)
            w = take()  # the weights, widened once, not cast in each product
            with scratch.frame():
                real = take(float)
                weigh(lo, hi, at, real, take)
                np.copyto(w, real)
            cols = geom.exp_i(lo, hi, at, take)
            vals = [take() for _ in parts]
            with scratch.frame():
                evaluate_points_many(plan, cols, vals, take)
            conj = [np.conj(v, out=take()) for v in vals]
            prod = take()
            S = np.empty((P, P), dtype=complex)
            for i, v in enumerate(vals):
                wv = np.multiply(w, v, out=v)  # v is not needed again
                for j in range(P):
                    S[i, j] = np.add.reduce(_mul(wv, conj[j], prod))  # np.sum
            # a non-finite weight makes some sum non-finite, so w, still
            # intact, is scanned only then
            if not np.isfinite(S).all():
                _check_finite(w)
            return S
        finally:
            scratch.keep()
            _SCRATCH.append(scratch)

    sums = dict(zip(spans, _map_leaves(leaf, spans)))
    if min(len(spans), _cpu_count()) > 1:  # the leaves ran on the pool
        _top_up(min(len(spans), _IN_FLIGHT))
    return _prefactor(params) * _pairwise(0, geom.size, lambda lo, hi: sums[lo, hi])


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
    _check_work(params, max_weight, rule.points_per_axis)
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


def _sweep_grid(d_values, alpha_values, nu_values, r, max_weight, points_per_axis) -> list:
    """The sweep's parameter points, every one checked before any certificate
    runs: its values, and the node and work budgets of its finer rule.
    Points outside alpha > (d/2)(r-1) are skipped with a notice."""
    grid = []
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
                _check_budget(2 * points_per_axis, params)
                _check_work(params, max_weight, 2 * points_per_axis)
                grid.append(params)
    return grid


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
    a nonzero residual is a finding, not a numerical artifact.  The whole
    grid is checked first (``_sweep_grid``), so a bad point late in it is
    refused before any certificate runs.
    """
    reports = []
    for params in _sweep_grid(d_values, alpha_values, nu_values, r, max_weight, points_per_axis):
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
