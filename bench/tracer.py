"""Spans around sclab's public functions, installed from outside.

`Tracer.install` replaces every attribute of the sclab modules that is
bound to a public function defined in sclab (and every public method
of sclab's classes, and scipy's `dijkstra` as bound in sclab.systole)
with a timing wrapper.  The modules call each other through their
module globals, so internal calls are caught as well.  Spans stay in
memory until `write` dumps them; `layer_metrics` folds one round of
spans into the per-layer metrics of BENCHMARK.json.

A span's self time is its duration minus the durations of its child
spans and minus the time the tracer spent reading counts off them.
"""

from __future__ import annotations

import functools
import json
import os
import time
import types

MODULES = ("charts", "models", "expressions", "curvature", "flow",
           "hypersurface", "spectral", "systole", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _dijkstra_counts(args, kwargs, result):
    dist = result[0] if isinstance(result, tuple) else result
    return {"settled_nodes": int((dist < float("inf")).sum()),
            "cover_nodes": int(dist.size)}


def _bundle_counts(args, kwargs, result):
    grid = _arg(args, kwargs, 0, "metric").grid
    return {"nodes": grid.node_count,
            "nodes_3d": grid.node_count if grid.dim == 3 else 0}


def _embed_counts(args, kwargs, result):
    nodes = result.slice_grid.node_count
    return {"nodes": nodes,
            "nodes_in_3d": nodes if result.ambient_grid.dim == 3 else 0}


# Counts read off a span's arguments or result, by span name.
COUNTERS = {
    "curvature.curvature_bundle": _bundle_counts,
    "curvature.potential_derivatives": lambda a, k, r: {
        "nodes": _arg(a, k, 0, "bundle").grid.node_count},
    "charts.write_snapshot": lambda a, k, r: {
        "bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "hypersurface.embed_graph": _embed_counts,
    "spectral.assemble_drift_operator": lambda a, k, r: {
        "nnz": int(r.operator.nnz)},
    "spectral.principal_eigenpair": lambda a, k, r: {
        "iterations": int(r.iterations)},
    "systole.dijkstra": _dijkstra_counts,
    "systole.build_winding_graph": lambda a, k, r: {
        "edges": int(r.tail.size)},
    "flow.run_flow": lambda a, k, r: {"states_held": len(r.states)},
}

# (span, field) pairs reported as "<span>.<field>"; field "calls"
# counts spans, "self_s" sums self time, anything else sums a count.
SPAN_METRICS = (
    ("charts.diff_array", "calls"), ("charts.diff_array", "self_s"),
    ("charts.write_snapshot", "bytes"), ("charts.write_snapshot", "self_s"),
    ("charts.integrate", "calls"),
    ("curvature.curvature_bundle", "calls"),
    ("curvature.curvature_bundle", "nodes"),
    ("curvature.curvature_bundle", "self_s"),
    ("curvature.potential_derivatives", "calls"),
    ("curvature.potential_derivatives", "nodes"),
    ("curvature.potential_derivatives", "self_s"),
    ("flow.step_coupled_flow", "calls"), ("flow.step_coupled_flow", "self_s"),
    ("flow.monotonicity_report", "calls"),
    ("flow.monotonicity_report", "self_s"),
    ("flow.evolution_identity_residual", "calls"),
    ("flow.evolution_identity_residual", "self_s"),
    ("flow.write_trajectory_series", "calls"),
    ("flow.write_trajectory_series", "self_s"),
    ("flow.run_flow", "states_held"),
    ("hypersurface.embed_graph", "calls"),
    ("hypersurface.embed_graph", "nodes"),
    ("hypersurface.embed_graph", "self_s"),
    ("hypersurface.make_graph_foliation", "self_s"),
    ("hypersurface.weighted_area_variation", "self_s"),
    ("spectral.assemble_jacobi", "self_s"),
    ("spectral.assemble_drift_operator", "self_s"),
    ("spectral.assemble_drift_operator", "nnz"),
    ("spectral.principal_eigenpair", "self_s"),
    ("spectral.principal_eigenpair", "iterations"),
    ("spectral.lapse_residual", "self_s"),
    ("systole.dijkstra", "calls"), ("systole.dijkstra", "settled_nodes"),
    ("systole.dijkstra", "self_s"),
    ("systole.build_winding_graph", "self_s"),
    ("systole.build_winding_graph", "edges"),
    ("systole.systole_sigma", "self_s"), ("systole.edge_table", "self_s"),
    ("cli.emit_series", "self_s"), ("cli.main", "self_s"),
    ("expressions.parse_expression", "calls"),
)

# (name, unit) of the metrics layer_metrics derives from several spans.
DERIVED_METRICS = (
    ("flow.potential_derivatives_per_state", "ratio"),
    ("hypersurface.ambient_nodes_per_leaf_node", "ratio"),
    ("systole.settled_share", "ratio"),
    ("models.self_s", "s"),
)


def metric_unit(field: str) -> str:
    if field == "self_s":
        return "s"
    return "bytes" if field == "bytes" else "count"


class Tracer:
    """Wraps sclab's public callables; records one span per call."""

    def __init__(self, package):
        self.package = package
        self.spans = []          # [name, start, end, parent, counts, read_s]
        self._stack = []
        self._patched = []       # (owner, attribute, original)

    def install(self) -> None:
        wrappers = {}
        classes = set()
        for short in MODULES:
            module = getattr(self.package, short)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not _is_ours(value):
                    continue
                if isinstance(value, type) and value not in classes:
                    classes.add(value)
                    for method, fn in list(vars(value).items()):
                        if not method.startswith("_") \
                                and isinstance(fn, types.FunctionType):
                            self._patch(value, method, fn, wrappers)
                elif isinstance(value, types.FunctionType):
                    self._patch(module, attr, value, wrappers)
        self._patch(self.package.systole, "dijkstra",
                    self.package.systole.dijkstra, wrappers,
                    "systole.dijkstra")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def reset(self) -> list:
        """Hand over the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def _patch(self, owner, attr, original, wrappers, name=None) -> None:
        if original not in wrappers:
            wrappers[original] = self._wrapper(original,
                                               name or _span_name(original))
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrappers[original])

    def _wrapper(self, fn, name):
        stack = self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = tracer.spans
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
                span[5] = clock() - span[2]
            return result

        return wrapper


def _is_ours(obj) -> bool:
    return getattr(obj, "__module__", "").startswith("sclab.")


def _span_name(fn) -> str:
    """`<module>.<function>`; methods drop their class name."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def self_times(spans) -> list:
    """Self time of every span, in span order."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, read_s in spans:
        if parent >= 0:
            own[parent] -= end - start + read_s
    return own


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one round of spans, by BENCHMARK.json name."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        name, counts = span[0], span[4]
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value

    def get(name, field):
        return totals.get(name, {}).get(field, 0)

    out = {f"{name}.{field}": get(name, field)
           for name, field in SPAN_METRICS}
    states = get("flow.make_flow_state", "calls")
    out["flow.potential_derivatives_per_state"] = (
        get("curvature.potential_derivatives", "calls") / states
        if states else 0.0)
    leaf = get("hypersurface.embed_graph", "nodes_in_3d")
    out["hypersurface.ambient_nodes_per_leaf_node"] = (
        get("curvature.curvature_bundle", "nodes_3d") / leaf if leaf else 0.0)
    cover = get("systole.dijkstra", "cover_nodes")
    out["systole.settled_share"] = (
        get("systole.dijkstra", "settled_nodes") / cover if cover else 0.0)
    out["models.self_s"] = sum(entry["self_s"]
                               for name, entry in totals.items()
                               if name.startswith("models."))
    return out


def write(path, rounds) -> None:
    """Dump the spans of every traced round as JSON lines."""
    with open(path, "w") as fh:
        for number, spans in rounds:
            own = self_times(spans)
            for k, (name, start, end, parent, counts, _) in enumerate(spans):
                fh.write(json.dumps({
                    "round": number, "span": k, "name": name,
                    "parent": parent, "start": start, "end": end,
                    "self_s": own[k], "counts": counts or {}}) + "\n")
