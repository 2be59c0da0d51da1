"""Whole-array quadrature helpers, kept for the tests: the (N, r) node array,
which the Gram pass never materializes, and the weights formed over all the
nodes at once, one product per nested axis, as the library did before it
filled the last axis in leaf-sized runs.  They are the oracles of
``orthog._weights`` and of the leaf-by-leaf Gram pass.
"""

from __future__ import annotations

import math

import numpy as np

from mcjacobi.orthog import _weights


def coords(geom, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, r) angles of nodes lo..hi-1 of a geometry."""
    last = geom.levels[-1].t[lo:hi] if geom.levels else None
    return np.column_stack(geom._columns(lo, hi, geom.axes, last))


def points_weights(params, rule) -> tuple:
    """The full (N, r) node array and the weights; a nested axis' weights are
    one whole-array product of the repeated outer weights, the nu-free
    weights and the nu factor."""
    geom, w = _weights(params, rule)
    if geom.levels:
        nu = float(params.nu)
        w = rule.weights * np.exp(-nu * (rule.nodes - math.pi))
        for level in geom.levels:
            w = np.repeat(w, level.size) * (level.wpre * np.exp(-nu * (level.t - math.pi)))
    return coords(geom, 0, len(w)), w
