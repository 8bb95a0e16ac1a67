"""Batch front end: strict flat configs, one job table, dispatch, output.

The domain modules compute and return records; this module alone
writes the job outputs: every CSV goes through `emit_series` with its
columns named by the caller, certificates are written one
`certificate_line` each, and the torus flow's snapshots go through
`charts.write_snapshot` as its states stream past.

Configuration is one `key=value` per line (or per command-line
argument), `#` comments, no nesting.  `_JOBS` lists, per command and
geometry, exactly the keys that job reads, each with a converter that
carries its range rule and a default.  A key the job does not read, an
out-of-range value, or a required key left unset is rejected, and the
message names the offending location.  Exit codes: 0 success, 2
when any verification verdict in the run says fail, 1 on operational
errors (bad config, unwritable output, aborted flow).
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

import numpy as np

from .charts import ScalarField, TensorField, sample_field, write_snapshot
from .expressions import parse_expression
from .flow import (adjoint_supersolution_residual, cfl_bound, chart_measures,
                   evolution_identity_residual, flow_states, make_flow_state,
                   monotonicity_report, profile_states, round_profile)
from .hypersurface import embed_graph
from .models import (TWO_PI, conformal_torus, flat_torus, sphere_band,
                     torus_surface)
from .spectral import assemble_jacobi, principal_eigenpair
from .systole import (DiskCylinder, FlatTorus, SphereCylinder,
                      build_winding_graph, certificate_line,
                      equality_certificate, quantization_bound, systole_sigma)


class ConfigError(ValueError):
    """Config rejection; the message names the offending location."""


def _float(text):
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a number") from None


def _int(text):
    try:
        return int(text, 10)
    except ValueError:
        raise ValueError(f"{text!r} is not an integer") from None


def _ruled(convert, holds, rule):
    """`convert`, then reject a value for which `holds` is false."""
    def checked(text):
        value = convert(text)
        if not holds(value):
            raise ValueError(f"{rule}, got {text!r}")
        return value
    return checked


def _res_list(text):
    res = tuple(map(_int, text.split(",")))
    if min(res) < 8:
        raise ValueError(f"entries must be at least 8, got {text!r}")
    return res


def _res(text):
    res = _res_list(text)
    if len(res) != 1:
        raise ValueError(f"takes a single resolution, got {len(res)}")
    return res[0]


def _phi(text):
    bad = parse_expression(text).variables - {"x1", "x2"}
    if bad:
        raise ValueError(f"uses {sorted(bad)}; surface charts provide x1 "
                         "and x2 only")
    return text


_POSITIVE = _ruled(_float, lambda x: x > 0.0, "must be positive")
_COUNT = _ruled(_int, lambda n: n >= 1, "must be at least 1")
_NONNEGATIVE = _ruled(_int, lambda n: n >= 0, "must be nonnegative")
_CONNECTIVITY = _ruled(_int, lambda n: n in (4, 8, 16), "must be 4, 8 or 16")
_RES_ORDER = _ruled(_res_list, lambda res: len(set(res)) == len(res) >= 2,
                    "needs at least two distinct resolutions for an order")
_LENGTHS = _ruled(lambda text: tuple(map(_float, text.split(","))),
                  lambda ls: len(ls) <= 3 and all(l > 0.0 for l in ls),
                  "takes 1 to 3 positive entries")
_ANISO_AMPLITUDE = _ruled(_float, lambda a: -1.0 < a < 1.0,
                          "must lie in (-1, 1) to keep the metric "
                          "positive definite")
_REQUIRED = object()   # the default of a key that has none


@dataclass(frozen=True)
class ExperimentConfig:
    """One job: its command, its geometry, and a value for every key
    the job reads (the table's default where the config sets none)."""

    command: str
    geometry: str
    values: dict


def parse_config_lines(text: str):
    """key=value pairs with their (line, column) locations."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if "=" not in line:
            col = len(line) - len(line.lstrip()) + 1
            raise ConfigError(f"line {lineno}, column {col}: "
                              f"expected key=value, got {line.strip()!r}")
        key, value = line.split("=", 1)
        if not key.strip():
            raise ConfigError(f"line {lineno}, column 1: empty key")
        col = line.index("=") + 2
        pairs.append((key.strip(), value.strip(),
                      f"line {lineno}, column {col}"))
    return pairs


def build_config(command: str, geometry: str, pairs) -> ExperimentConfig:
    if command not in _JOBS:
        raise ConfigError(f"unknown command {command!r}; choose from "
                          f"{', '.join(sorted(_JOBS))}")
    geometries = _JOBS[command][1]
    if geometry not in geometries:
        raise ConfigError(f"unknown geometry {geometry!r} for {command}; "
                          f"choose from {', '.join(geometries)}")
    keys = geometries[geometry]
    values = {key: default for key, (_, default) in keys.items()}
    provided = set()
    for key, text, where in pairs:
        if key not in keys:
            raise ConfigError(f"{where}: key {key!r} has no meaning for "
                              f"{command} {geometry} "
                              f"(allowed: {', '.join(sorted(keys))})")
        if key in provided:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        provided.add(key)
        try:
            values[key] = keys[key][0](text)
        except ValueError as exc:
            raise ConfigError(f"{where}: {key} {exc}") from None
    missing = [key for key, value in values.items() if value is _REQUIRED]
    if missing:
        raise ConfigError(f"{command} {geometry} needs a value for "
                          f"{' and '.join(missing)}")
    return ExperimentConfig(command, geometry, values)


def emit_series(records, path, columns) -> None:
    """Records holding exactly the given columns as CSV, in that order:
    17-significant-digit floats, LF line endings."""
    lines = [",".join(columns)]
    for rec in records:
        if set(rec) != set(columns):
            raise ValueError("records are not homogeneous")
        lines.append(",".join(_format_cell(rec[c]) for c in columns))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _resolve_output(name: str) -> str:
    root = os.environ.get("SCL_OUTPUT_DIR", "")
    path = name if os.path.isabs(name) else os.path.join(root, name)
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise OSError(f"output directory {directory!r} does not exist")
    return path


def _phi_field(grid, phi_text):
    if phi_text is None:
        return ScalarField(grid, np.zeros(grid.shape))
    expr = parse_expression(phi_text)
    return sample_field(grid, lambda x1, x2: np.broadcast_to(
        np.asarray(expr(x1=x1, x2=x2), dtype=float), x1.shape))


def _random_torus(res, amplitude, seed):
    """Conformal torus whose factor is a seeded low-mode trig field."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((2, 2, 2))
    grid, _ = flat_torus(res, (TWO_PI, TWO_PI))

    def u_fn(x1, x2):
        out = np.zeros(x1.shape)
        for k1 in (1, 2):
            for k2 in (1, 2):
                out += coeffs[0, k1 - 1, k2 - 1] * np.sin(k1 * x1) \
                    * np.cos(k2 * x2)
                out += coeffs[1, k1 - 1, k2 - 1] * np.cos(k1 * x1) \
                    * np.sin(k2 * x2)
        return amplitude * out / 8.0

    u = sample_field(grid, u_fn)
    conf = np.exp(2.0 * u.values)
    vals = np.zeros(grid.shape + (2, 2))
    vals[..., 0, 0] = conf
    vals[..., 1, 1] = conf
    return grid, TensorField(grid, 2, vals)


def _build_surface(geometry, values, res):
    if geometry == "flat-torus":
        return flat_torus(res, (TWO_PI, TWO_PI))
    if geometry == "conformal-torus":
        grid, metric, _ = conformal_torus(res, values["amplitude"])
        return grid, metric
    if geometry == "random-torus":
        return _random_torus(res, values["amplitude"], values["seed"])
    return sphere_band(res | 1, res)


def _run_curvature(config) -> int:
    values = config.values
    rows = []
    for res in values["res"]:
        grid, metric = _build_surface(config.geometry, values, res)
        phi = _phi_field(grid, values["phi"])
        state = make_flow_state(0.0, metric, phi)
        inf_s, f, gap = chart_measures(state)
        rows.append({"resolution": res, "inf_S": inf_s,
                     "sup_S": state.stabilized.values.max(), "F": f,
                     "max_ricci_hessian_gap": gap})
    path = _resolve_output(values["output"])
    emit_series(rows, path, ["resolution", "inf_S", "sup_S", "F",
                             "max_ricci_hessian_gap"])
    print(f"curvature: {len(rows)} resolutions -> {path}")
    return 0


def _snapshots(states, every, directory):
    """Pass the states on, writing every `every`-th stepped one to
    `state_{k:06d}.snap` in `directory` as it streams past."""
    for k, state in enumerate(states):
        if k and k % every == 0:
            write_snapshot(os.path.join(directory, f"state_{k:06d}.snap"),
                           state.metric.grid,
                           {"metric": state.metric, "phi": state.phi})
        yield state


def _run_flow(config) -> int:
    values = config.values
    path = _resolve_output(values["output"])
    dt = values["dt"]
    if config.geometry == "sphere":
        states = profile_states(round_profile(values["res"], values["r0"]),
                                dt, values["steps"])
    else:
        grid, metric, _ = conformal_torus(values["res"], values["amplitude"])
        phi = _phi_field(grid, values["phi"])
        states = flow_states(make_flow_state(0.0, metric, phi), dt,
                             values["steps"])
        if values["snapshot_every"]:
            states = _snapshots(states, values["snapshot_every"],
                                os.path.dirname(path) or ".")
    # the report folds the stream through a three-state window, so the
    # run holds three states however many steps it takes
    report = monotonicity_report(states, dt)
    columns = ["t", "inf_S", "F", "max_ricci_hessian_gap",
               "identity_residual_maxnorm"]
    emit_series([dict(zip(columns, row)) for row in zip(
        report.times, report.inf_s, report.f_values, report.gap_norms,
        report.identity_residuals)], path, columns)
    verdict = "pass" if report.monotone else "fail"
    print(f"flow: {len(report.times)} states, inf_S "
          f"{report.inf_s[0]:.6g} -> {report.inf_s[-1]:.6g}, "
          f"monotone={verdict} -> {path}")
    return 0 if report.monotone else 2


def _run_identity(config) -> int:
    values = config.values
    states = []
    for res in values["res"]:
        grid, metric, _ = conformal_torus(res, values["amplitude"])
        phi = _phi_field(grid, values["phi"])
        states.append(make_flow_state(0.0, metric, phi))
    # default dt: half the tightest step bound across the list, so one
    # shared dt works on every level and its error stays far below h^2
    dt = values["dt"]
    if dt is None:
        dt = 0.5 * min(cfl_bound(s) for s in states)
    rows = []
    for res, state in zip(values["res"], states):
        # midpoint states keep the time-slope error at O(dt^2), far
        # below the h^2 signal the order fit is after
        prev, mid, nxt = flow_states(state, dt, 2, scheme="midpoint")
        evo = float(np.abs(evolution_identity_residual(prev, mid, nxt,
                                                       dt)).max())
        adj = float(np.abs(adjoint_supersolution_residual(state).values).max())
        rows.append({"resolution": res, "evolution_residual_maxnorm": evo,
                     "adjoint_residual_maxnorm": adj})
    path = _resolve_output(values["output"])
    emit_series(rows, path, ["resolution", "evolution_residual_maxnorm",
                             "adjoint_residual_maxnorm"])
    levels = np.log2([float(r["resolution"]) for r in rows])
    orders = []
    for column in ("evolution_residual_maxnorm", "adjoint_residual_maxnorm"):
        errs = [r[column] for r in rows]
        orders.append(-np.polyfit(levels, np.log2(errs), 1)[0] if any(errs)
                      else None)    # 0 at every level: holds exactly
    good = all(o is None or o >= values["min_order"] for o in orders)
    shown = ["exact" if o is None else f"{o:.3f}" for o in orders]
    print(f"identity: order_evolution={shown[0]} "
          f"order_adjoint={shown[1]} "
          f"(min {values['min_order']:g}) "
          f"verdict={'pass' if good else 'fail'} -> {path}")
    return 0 if good else 2


def _run_jacobi(config) -> int:
    res = config.values["res"]
    grid, metric = sphere_band(65, res)
    emb = embed_graph(metric, lambda p: np.full(p.shape, np.pi / 2),
                      graph_axis=0)
    problem = assemble_jacobi(emb, ScalarField(grid, np.ones(grid.shape)))
    pair = principal_eigenpair(problem)
    path = _resolve_output(config.values["output"])
    u = pair.eigenfunction.values
    emit_series([{"problem": f"equator-{res}", "eigenvalue": pair.eigenvalue,
                  "residual": pair.residual, "iterations": pair.iterations,
                  "u_min": u.min(), "u_max": u.max()}],
                path, ["problem", "eigenvalue", "residual", "iterations",
                       "u_min", "u_max"])
    tol = config.values["tolerance"]
    gap = abs(pair.eigenvalue + 1.0)
    positive = bool(u.min() > 0.0)
    good = gap <= tol and positive
    print(f"jacobi: eigenvalue={pair.eigenvalue:.10g} gap={gap:.3e} "
          f"(tol {tol:g}) positive={positive} "
          f"verdict={'pass' if good else 'fail'} -> {path}")
    return 0 if good else 2


def _aniso_metric_fn(amplitude):
    def fn(x1, x2):
        out = np.zeros(np.shape(x1) + (2, 2))
        out[..., 0, 0] = 1.0 + amplitude * np.sin(x2)
        out[..., 1, 1] = 1.0
        return out
    return fn


def _run_systole(config) -> int:
    values = config.values
    res, conn = values["res"], values["connectivity"]
    if config.geometry == "product-torus":
        grid, metric = torus_surface(res, res, radius=values["r"],
                                     fiber_len=values["fiber"])
    else:
        grid, _ = flat_torus(res, (TWO_PI, TWO_PI))
        metric = _aniso_metric_fn(values["amplitude"])
    graph = build_winding_graph(grid, metric, xi_axis=0, connectivity=conn)
    sigma, cycle = systole_sigma(graph)
    path = _resolve_output(values["output"])
    emit_series([{"resolution": res, "connectivity": conn, "sigma": sigma,
                  "cycle_nodes": len(cycle) - 1,
                  "quantization_bound": quantization_bound(conn)}],
                path, ["resolution", "connectivity", "sigma", "cycle_nodes",
                       "quantization_bound"])
    print(f"systole: sigma={sigma:.10g} (upper bound, quantization "
          f"<= {quantization_bound(conn):.2%}) -> {path}")
    return 0


# Certify geometry -> its model, built from the job's values.
_MODELS = {
    "disk-cylinder": lambda v: DiskCylinder(v["r"], (v["fiber"],)),
    "sphere-cylinder": lambda v: SphereCylinder(v["r"], (v["fiber"],)),
    "flat-torus": lambda v: FlatTorus(v["lengths"]),
}


def _run_certify(config) -> int:
    values = config.values
    names = list(_MODELS) if config.geometry == "all" else [config.geometry]
    # the connectivity is listed only where a disk cylinder's systole
    # reads it
    options = {"connectivity": values["connectivity"]} \
        if "connectivity" in values else {}
    certs = [equality_certificate(_MODELS[name](values),
                                  resolution=values["res"], **options)
             for name in names]
    path = _resolve_output(values["output"])
    with open(path, "w", newline="\n") as fh:
        fh.writelines(certificate_line(cert) + "\n" for cert in certs)
    failures = [c for c in certs if c.verdict != "pass"]
    for cert in certs:
        print(f"certify: {type(cert.model).__name__} "
              f"relative_gap={cert.relative_gap:.3e} verdict={cert.verdict}")
    print(f"certify: {len(certs)} certificates -> {path}")
    return 2 if failures else 0


# The one job table: command -> (runner, geometry -> {key: (converter,
# default)}).  Each geometry lists exactly the keys its job reads; a
# converter carries the key's range rule, and _REQUIRED marks a key
# the config must set.
_SURFACE = {"res": (_res_list, (33,)), "phi": (_phi, None),
            "output": (str, "curvature.csv")}
_FLOW = {"dt": (_POSITIVE, _REQUIRED), "steps": (_COUNT, _REQUIRED),
         "output": (str, "flow.csv")}
_CYLINDER = {"r": (_POSITIVE, 1.0), "fiber": (_POSITIVE, 10.0)}
_SYSTOLE = {"res": (_res, 128), "connectivity": (_CONNECTIVITY, 16),
            "output": (str, "systole.csv")}
_CERTIFY = {"res": (_res, 128), "output": (str, "certificates.txt")}
_LENGTHS_KEY = {"lengths": (_LENGTHS, (TWO_PI, TWO_PI))}

_JOBS = {
    "curvature": (_run_curvature, {
        "flat-torus": _SURFACE,
        "conformal-torus": {**_SURFACE, "amplitude": (_float, 0.1)},
        "random-torus": {**_SURFACE, "amplitude": (_float, 0.1),
                         "seed": (_NONNEGATIVE, 0)},
        "sphere": _SURFACE}),
    "flow": (_run_flow, {
        "torus": {**_FLOW, "res": (_res, 32), "amplitude": (_float, 0.1),
                  "phi": (_phi, None), "snapshot_every": (_NONNEGATIVE, 0)},
        "sphere": {**_FLOW, "res": (_res, 65), "r0": (_POSITIVE, 1.0)}}),
    "identity": (_run_identity, {
        "torus": {"res": (_RES_ORDER, (32, 64)),
                  "phi": (_phi, "0.2*sin(x1)"), "amplitude": (_float, 0.1),
                  "dt": (_POSITIVE, None), "min_order": (_float, 1.8),
                  "output": (str, "identity.csv")}}),
    "jacobi": (_run_jacobi, {
        "equator": {"res": (_res, 512), "tolerance": (_POSITIVE, 1e-3),
                    "output": (str, "jacobi.csv")}}),
    "systole": (_run_systole, {
        "product-torus": {**_SYSTOLE, **_CYLINDER},
        "anisotropic-torus": {**_SYSTOLE,
                              "amplitude": (_ANISO_AMPLITUDE, 0.3)}}),
    "certify": (_run_certify, {
        "disk-cylinder": {**_CERTIFY, **_CYLINDER,
                          "connectivity": (_CONNECTIVITY, 16)},
        "sphere-cylinder": {**_CERTIFY, **_CYLINDER},
        "flat-torus": {**_CERTIFY, **_LENGTHS_KEY},
        "all": {**_CERTIFY, **_CYLINDER, **_LENGTHS_KEY,
                "connectivity": (_CONNECTIVITY, 16)}}),
}


def run(config: ExperimentConfig) -> int:
    return _JOBS[config.command][0](config)


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        if not args:
            raise ConfigError(
                "usage: scl <command> <geometry> key=value... "
                "or scl --config <path>")
        if args[0] == "--config":
            if len(args) != 2:
                raise ConfigError("--config takes exactly one path")
            with open(args[1]) as fh:
                pairs = parse_config_lines(fh.read())
            head, rest = {}, []
            for key, value, where in pairs:
                if key not in ("command", "geometry"):
                    rest.append((key, value, where))
                elif key in head:
                    raise ConfigError(f"{where}: duplicate key {key!r}")
                else:
                    head[key] = value
            if len(head) < 2:
                raise ConfigError("config file must set command= and "
                                  "geometry=")
            config = build_config(head["command"], head["geometry"], rest)
        else:
            if len(args) < 2 or "=" in args[1]:
                raise ConfigError("usage: scl <command> <geometry> "
                                  "key=value...")
            rest = []
            for k, arg in enumerate(args[2:], start=3):
                if "=" not in arg:
                    raise ConfigError(f"argument {k}: expected key=value, "
                                      f"got {arg!r}")
                key, value = arg.split("=", 1)
                rest.append((key, value, f"argument {k}"))
            config = build_config(args[0], args[1], rest)
        return run(config)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
