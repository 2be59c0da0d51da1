"""Per-layer tracing of mcjacobi from outside the package.

``Tracer.install`` wraps the public entry points of each module in timing
wrappers.  A name bound by ``from ... import`` in another module (for example
``orthog.mcj_build``) is a separate binding, so every binding of the original
object in every loaded ``mcjacobi`` module is replaced, including list entries
such as ``acceptance.ALL_CRITERIA``.  ``Tracer.restore`` puts every original
back, then scans the modules again and reports whether any wrapper is still
reachable from them.

Spans are kept in memory as ``[name, start, end, parent, extra, job]`` and
written out at the end.  A layer's self time is its span minus the time
covered by its child spans.  Cache hit ratios are deltas of ``cache_info()`` read through the
original ``lru_cache`` wrappers.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from mcjacobi import acceptance, cli, coeffs, mcj, orthog, partitions, sympoly


def _node_terms(args, result):
    # evaluate_points(self, pts): N points times the orbit monomials summed over
    pts = args[1]
    n = len(pts) if getattr(pts, "ndim", 2) == 2 else 1
    return n * sum(len(sympoly._orbit_cached(lam)) for lam in args[0].terms)


def _body_terms(args, result):
    return len(result.body.terms)


def _node_count(args, result):
    return len(result[1])


def _partition_count(args, result):
    return len(args[1])


# (owner, attribute, span name, count of work done by one call)
TARGETS = [
    (partitions, "enumerate_partitions", "partitions.enumerate_partitions", None),
    (sympoly, "spherical_poly", "sympoly.spherical_poly", None),
    (sympoly, "affine_substitute", "sympoly.affine_substitute", None),
    (sympoly._BasePoly, "evaluate_points", "sympoly.evaluate_points", _node_terms),
    (sympoly._BasePoly, "evaluate", "sympoly.evaluate", None),
    (coeffs, "gen_binom", "coeffs.gen_binom", None),
    (coeffs, "expected_norm", "coeffs.expected_norm", None),
    (coeffs, "spherical_taylor_residual", "coeffs.spherical_taylor_residual", None),
    (mcj, "mcj_build", "mcj.mcj_build", _body_terms),
    (mcj, "laguerre_build", "mcj.laguerre_build", None),
    (mcj, "psi_eval", "mcj.psi_eval", None),
    (mcj, "det_eval_phi", "mcj.det_eval", None),
    (mcj, "det_eval_psi", "mcj.det_eval", None),
    (mcj, "genfun_residual_phi", "mcj.genfun_residual", None),
    (mcj, "genfun_residual_psi", "mcj.genfun_residual", None),
    (mcj, "laguerre_genfun_residual", "mcj.genfun_residual", None),
    # the exact Gaussian-rational (exact.QComplex) work happens in these two
    (mcj, "rank1_operator_residuals", "mcj.operator_residuals", None),
    (mcj, "ode_residual_onevar", "mcj.operator_residuals", None),
    (orthog, "build_rule", "orthog.build_rule", None),
    (orthog, "_points_weights", "orthog.points_weights", _node_count),
    (orthog, "_gram", "orthog.gram", _partition_count),
    (orthog, "verify_orthogonality", "orthog.verify_orthogonality", None),
    (orthog, "conjecture_sweep", "orthog.conjecture_sweep", None),
    (cli, "dumps_17g", "cli.dumps_17g", None),
] + [
    (acceptance, f"criterion_{i}", f"acceptance.criterion_{i}", None)
    for i in range(1, 11)
]

# read through the original lru_cache objects, captured before any patching
CACHES = {
    "sympoly.spherical_poly": sympoly._spherical_cached,
    "sympoly.jack_terms": sympoly._jack_terms,
    "coeffs.binom_row": coeffs._binom_row,
    "mcj.mcj_build": mcj.mcj_build,
    "orthog.jacobi_roots": orthog._jacobi_base,
}

# bytes read per Gram entry and node: w (float64) and two complex128 values
GRAM_BYTES_PER_ENTRY_NODE = 40


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.active = False  # spans are recorded only while a job runs
        self.job = 0  # identifier shared by the spans of one job
        self._stack: list = []
        self._patches: list = []
        self._wrappers: list = []
        self._cache_before: dict = {}

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            # calls made outside a job, and recursive calls, are not spans of their own
            if not tracer.active or (stack and tracer.spans[stack[-1]][0] == name):
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, tracer.job]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        self._wrappers.append(wrapper)
        return wrapper

    def install(self) -> None:
        self._cache_before = {k: f.cache_info() for k, f in CACHES.items()}
        modules = [
            mod for key, mod in sys.modules.items()
            if key == "mcjacobi" or key.startswith("mcjacobi.")
        ]
        for owner, attr, name, count in TARGETS:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._set(owner, attr, original, self._wrap(name, original, count))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, original, wrapper)
                    elif type(value) is list:
                        for i, item in enumerate(value):
                            if item is original:
                                self._set(value, i, original, wrapper)

    def _set(self, container, key, original, new) -> None:
        self._patches.append((container, key, original))
        if isinstance(container, list):
            container[key] = new
        else:
            setattr(container, key, new)

    def restore(self) -> bool:
        """Put every original back; True when no wrapper is reachable any more."""
        for container, key, original in reversed(self._patches):
            if isinstance(container, list):
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()
        return not (_reachable() & {id(w) for w in self._wrappers})

    def aggregate(self) -> dict:
        """Additive per-layer sums: spans, work counts and cache deltas."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        per_name: dict = {}
        counts = {
            "sympoly.evaluate_points.node_terms": 0,
            "mcj.mcj_build.terms": 0,
            "orthog.points_weights.nodes": 0,
            "orthog.gram.entry_nodes": 0,
        }
        for i, (name, t0, t1, parent, extra, _) in enumerate(spans):
            agg = per_name.setdefault(name, {"calls": 0, "self_s": 0.0, "s": 0.0})
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += t1 - t0 - covered[i]
            if extra is None:
                continue
            if name == "sympoly.evaluate_points":
                counts["sympoly.evaluate_points.node_terms"] += extra
            elif name == "mcj.mcj_build":
                counts["mcj.mcj_build.terms"] += extra
            elif name == "orthog.points_weights":
                counts["orthog.points_weights.nodes"] += extra
                if parent >= 0 and spans[parent][0] == "orthog.gram":
                    counts["orthog.gram.entry_nodes"] += spans[parent][4] ** 2 * extra
        cache = {}
        for key, fn in CACHES.items():
            now, before = fn.cache_info(), self._cache_before[key]
            cache[key] = [now.hits - before.hits, now.misses - before.misses]
        return {"spans": per_name, "counts": counts, "cache": cache}

    def rows(self) -> list:
        """Spans as ``[job, name, start, end, parent]``."""
        return [[job, name, t0, t1, parent] for name, t0, t1, parent, _, job in self.spans]


def _reachable() -> set:
    """Ids of the objects bound in each loaded mcjacobi module, in the lists
    those modules hold, and in the classes they define."""
    seen = set()
    for key, mod in list(sys.modules.items()):
        if key != "mcjacobi" and not key.startswith("mcjacobi."):
            continue
        for value in vars(mod).values():
            seen.add(id(value))
            if type(value) is list:
                seen.update(id(item) for item in value)
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                seen.update(id(v) for v in vars(value).values())
    return seen


def write_spans(path, rows: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def merge(aggs: list) -> dict:
    """Sum the additive aggregates of several traced processes."""
    out: dict = {"spans": {}, "counts": {}, "cache": {}}
    for agg in aggs:
        for name, vals in agg["spans"].items():
            acc = out["spans"].setdefault(name, {"calls": 0, "self_s": 0.0, "s": 0.0})
            for k, v in vals.items():
                acc[k] += v
        for name, v in agg["counts"].items():
            out["counts"][name] = out["counts"].get(name, 0) + v
        for name, (hits, misses) in agg["cache"].items():
            acc = out["cache"].setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses
    return out


def layer_metrics(agg: dict, jobs: int) -> dict:
    """Flat ``<module>.<entry>.<quantity>`` values, per traced job."""
    out = {}
    for _, _, name, _ in TARGETS:
        vals = agg["spans"].get(name, {"calls": 0, "self_s": 0.0, "s": 0.0})
        out[f"{name}.calls"] = vals["calls"] / jobs
        out[f"{name}.self_s"] = vals["self_s"] / jobs
        out[f"{name}.s"] = vals["s"] / jobs
    for name, v in agg["counts"].items():
        out[name] = v / jobs
    out["orthog.gram.bytes_computed"] = (
        out["orthog.gram.entry_nodes"] * GRAM_BYTES_PER_ENTRY_NODE
    )
    for name, (hits, misses) in agg["cache"].items():
        out[f"{name}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out
