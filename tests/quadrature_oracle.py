"""Whole-array quadrature helpers, kept for the tests: the (N, r) node array,
which the Gram pass never materializes, and the weights formed over all the
nodes at once, one product per nested axis or one meshgrid product on the
tensor branch, as the library did before each Gram leaf formed its own.
They are the oracles of ``orthog._weights`` and of the leaf-by-leaf Gram
pass.
"""

from __future__ import annotations

import math

import numpy as np

from mcjacobi.orthog import _weights


def coords(geom, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, r) angles of nodes lo..hi-1 of a geometry."""
    return np.column_stack(geom._columns(lo, hi, geom.axes, geom.index(lo, hi)))


def points_weights(params, rule) -> tuple:
    """The full (N, r) node array and the weights; a nested axis' weights are
    one whole-array product of the repeated outer weights, the nu-free
    weights and the nu factor; a tensor grid's are the product of the axes'
    weights over the grid, then of the pair couplings."""
    geom, _ = _weights(params, rule)
    nu = float(params.nu)
    w = rule.weights * np.exp(-nu * (rule.nodes - math.pi))
    if geom.levels:
        for level in geom.levels:
            w = np.repeat(w, level.size) * (level.wpre * np.exp(-nu * (level.t - math.pi)))
    else:
        r = params.r
        grids = np.meshgrid(*[rule.nodes] * r, indexing="ij")
        wgrid = np.ones_like(grids[0])
        for j in range(r):
            shape = [1] * r
            shape[j] = -1
            wgrid = wgrid * w.reshape(shape)
        d = float(params.d)
        for p in range(r):
            for q in range(p + 1, r):
                wgrid = wgrid * (2.0 * np.abs(np.sin((grids[p] - grids[q]) / 2.0))) ** d
        w = wgrid.ravel()
    return coords(geom, 0, len(w)), w
