"""Spans around calls into the cyclicity modules, installed from outside.

The benchmark never edits the library. A traced pass rebinds public
functions in the modules whose callers look them up (for example
`cyclicity.indices.solve_least_squares`, which `index_sweep` calls by its
module-global name) and restores the originals afterwards, so untraced
passes run the unmodified code. Spans stay in memory until the run writes
them out.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter
from contextlib import contextmanager

# Span names are "<layer>.<call>". A layer's self time is the sum of its
# spans' durations minus the time their direct child spans cover.
LAYERS = ("cli", "spaces", "poly", "indices", "solver", "freespace", "capacity", "mixednorm")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        """Return fn recording one span per call; attrs(result, bound) adds attributes."""
        signature = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
                "end": None,
                "attrs": {},
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["attrs"] = attrs(result, bound.arguments)
            return result

        return traced

    @contextmanager
    def installed(self, command: str | None = None):
        """Rebind the library's public functions to traced versions, then restore."""
        patches = _patches(self, command)
        saved = [(owner, attr, _get(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, value in patches:
                _set(owner, attr, value)
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                _set(owner, attr, value)


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _solver_attrs(out, args):
    rows, cols = args["design"].shape
    return {
        "rows": rows,
        "cols": cols,
        "method": out.method,
        "gram_condition": out.gram_condition,
    }


def _equilibrium_attrs(out, args):
    cloud = args["cloud"]
    return {
        "points": cloud.size,
        "d": cloud.dimension,
        "iterations": out.iterations,
        "kkt_gap": out.kkt_gap,
        "unconverged": out.iterations == args["max_iter"] and out.kkt_gap > args["tol"],
        # the n x n x 2d float64 difference tensor the solver builds
        "kernel_bytes": cloud.size * cloud.size * 2 * cloud.dimension * 8,
    }


def _patches(tracer: Tracer, command: str | None):
    """(owner, attribute, replacement) for every module whose callers look it up."""
    from cyclicity import capacity, cli, freespace, indices, mixednorm, poly, spaces

    def spread(name, fn, owners, attrs=None):
        wrapped = tracer.wrap(name, fn, attrs)
        return [(owner, fn.__name__, wrapped) for owner in owners]

    def write_attrs(_, args):
        return {"bytes": args["path"].stat().st_size}

    def build_attrs(_, args):
        space = args["self"]
        return {"d": space.d, "max_degree": space.max_degree, "weights": len(space._weights)}

    patches = []
    if command is not None:
        patches.append(
            (cli.COMMANDS, command, tracer.wrap("cli.handler", cli.COMMANDS[command]))
        )
    patches += spread("cli.write", cli.write_json, [cli], write_attrs)
    patches.append(
        (spaces.SpaceSpec, "__init__",
         tracer.wrap("spaces.build", spaces.SpaceSpec.__init__, build_attrs))
    )
    patches.append(
        (poly.Polynomial, "__mul__", tracer.wrap("poly.mul", poly.Polynomial.__mul__))
    )
    patches += spread("poly.section", poly.mult_operator_section, [poly, indices])
    patches += spread("poly.invert", poly.invert_power_series, [poly, indices])
    patches += spread("indices.sweep", indices.index_sweep, [indices, capacity])
    patches += spread(
        "indices.distance", indices.subspace_distance, [indices, freespace, mixednorm]
    )
    patches += spread(
        "solver.solve", indices.solve_least_squares, [indices, freespace], _solver_attrs
    )
    patches += spread("freespace.distance", freespace.free_subspace_distance, [freespace])
    patches.append(
        (freespace.FreePolynomial, "__mul__",
         tracer.wrap("freespace.mul", freespace.FreePolynomial.__mul__))
    )
    patches += spread(
        "capacity.equilibrium", capacity.riesz_equilibrium, [capacity], _equilibrium_attrs
    )
    patches += spread(
        "capacity.zero_set", capacity.sample_zero_set, [capacity],
        lambda cloud, _: {"points": cloud.size},
    )
    patches += spread("capacity.nbhd", capacity.neighborhood_capacity, [capacity])
    patches += spread("capacity.dimension", capacity.box_dimension, [capacity])
    patches += spread("capacity.report", capacity.obstruction_report, [capacity])
    patches += spread(
        "mixednorm.index", mixednorm.mixed_index, [mixednorm],
        lambda out, _: {"iterations": out.iterations, "converged": bool(out.converged)},
    )
    patches += spread("mixednorm.norm", mixednorm.mixed_norm, [mixednorm])
    patches += spread("mixednorm.norm", mixednorm.luxemburg_norm, [mixednorm])
    return patches


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(groups: list[list[dict]]) -> dict[str, float]:
    """Per-layer totals over span lists, one list per process or operation."""
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    attr_sum: Counter = Counter()
    gram_max = 0.0
    kkt_max = 0.0
    kernel_max = 0
    fallbacks = 0
    for spans in groups:
        for span, self_s in zip(spans, self_times(spans)):
            name, attrs = span["name"], span["attrs"]
            total[name] += span["end"] - span["start"]
            own[name] += self_s
            own["layer." + name.split(".")[0]] += self_s
            calls[name] += 1
            if name == "cli.write":
                attr_sum["bytes"] += attrs["bytes"]
            elif name == "spaces.build":
                attr_sum["weights"] += attrs["weights"]
            elif name == "solver.solve":
                attr_sum["cells"] += attrs["rows"] * attrs["cols"]
                fallbacks += attrs["method"] != "cholesky"
                gram_max = max(gram_max, attrs["gram_condition"])
            elif name == "capacity.equilibrium":
                attr_sum["iterations"] += attrs["iterations"]
                attr_sum["eq_unconverged"] += attrs["unconverged"]
                kkt_max = max(kkt_max, attrs["kkt_gap"])
                kernel_max = max(kernel_max, attrs["kernel_bytes"])
            elif name == "capacity.zero_set":
                attr_sum["zero_points"] += attrs["points"]
            elif name == "mixednorm.index":
                attr_sum["irls"] += attrs["iterations"]
                attr_sum["mx_unconverged"] += not attrs["converged"]
    out = {
        "cli.handler_s": total["cli.handler"],
        "cli.write_s": total["cli.write"],
        "cli.bytes_written": attr_sum["bytes"],
        "spaces.build_s": total["spaces.build"],
        "spaces.build_calls": calls["spaces.build"],
        "spaces.weights": attr_sum["weights"],
        "poly.mul_calls": calls["poly.mul"],
        "poly.mul_s": total["poly.mul"],
        "poly.section_s": total["poly.section"],
        "poly.invert_s": total["poly.invert"],
        "indices.sweep_s": total["indices.sweep"],
        "indices.sweep_self_s": own["indices.sweep"],
        "indices.distance_s": total["indices.distance"],
        "indices.distance_self_s": own["indices.distance"],
        "indices.distance_calls": calls["indices.distance"],
        "solver.calls": calls["solver.solve"],
        "solver.s": total["solver.solve"],
        "solver.design_cells": attr_sum["cells"],
        "solver.design_bytes": 16 * attr_sum["cells"],
        "solver.fallback_ratio": fallbacks / calls["solver.solve"] if calls["solver.solve"] else 0.0,
        "solver.max_gram_condition": gram_max,
        "freespace.distance_s": total["freespace.distance"],
        "freespace.distance_self_s": own["freespace.distance"],
        "freespace.mul_calls": calls["freespace.mul"],
        "capacity.equilibrium_s": total["capacity.equilibrium"],
        "capacity.equilibrium_calls": calls["capacity.equilibrium"],
        "capacity.equilibrium_iterations": attr_sum["iterations"],
        "capacity.kkt_gap_max": kkt_max,
        "capacity.unconverged": attr_sum["eq_unconverged"],
        "capacity.kernel_bytes": kernel_max,
        "capacity.zero_set_s": total["capacity.zero_set"],
        "capacity.zero_set_points": attr_sum["zero_points"],
        "capacity.nbhd_s": total["capacity.nbhd"],
        "capacity.dimension_s": total["capacity.dimension"],
        "capacity.report_s": total["capacity.report"],
        "mixednorm.index_s": total["mixednorm.index"],
        "mixednorm.irls_iterations": attr_sum["irls"],
        "mixednorm.unconverged": attr_sum["mx_unconverged"],
        "mixednorm.norm_s": total["mixednorm.norm"],
        "trace.spans": sum(calls.values()),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = own["layer." + layer]
    return out
