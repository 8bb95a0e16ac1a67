"""Batch front end: strict flat configs, dispatch, CSV/report emission.

The domain modules compute and return records; this module alone
writes the job outputs (snapshots aside, which `charts` writes):
every CSV goes through `emit_series` with its columns named by the
caller, and certificates are written one `certificate_line` each.

Configuration is one `key=value` per line (or per command-line
argument), `#` comments, no nesting.  Parsing is strict: unknown keys,
out-of-range values, and keys that the chosen geometry cannot use are
all rejected with the offending location.  Exit codes: 0 success, 2
when any verification verdict in the run says fail, 1 on operational
errors (bad config, unwritable output, aborted flow).
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .charts import ScalarField, TensorField, sample_field
from .curvature import f_functional
from .expressions import ExpressionError, parse_expression
from .flow import (adjoint_supersolution_residual, cfl_bound,
                   evolution_identity_residual, flow_states, make_flow_state,
                   monotonicity_report, profile_state, profile_states,
                   ricci_hessian_gap, round_profile)
from .hypersurface import embed_graph
from .models import (TWO_PI, conformal_torus, flat_torus, sphere_band,
                     torus_surface)
from .spectral import assemble_jacobi, principal_eigenpair
from .systole import (DiskCylinder, FlatTorus, SphereCylinder,
                      build_winding_graph, certificate_line,
                      equality_certificate, quantization_bound, systole_sigma)


class ConfigError(ValueError):
    """Config rejection; the message names the offending location."""


def _float(text, where):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{where}: {text!r} is not a number") from None


def _int(text, where):
    try:
        return int(text, 10)
    except ValueError:
        raise ConfigError(f"{where}: {text!r} is not an integer") from None


def _ints(text, where):
    return tuple(_int(part, where) for part in text.split(","))


def _floats(text, where):
    return tuple(_float(part, where) for part in text.split(","))


def _str(text, where):
    return text


# Per-command key tables: name -> (converter, default).  `res` accepts
# a comma list everywhere; commands that need a single value say so.
_SCHEMAS = {
    "curvature": {"res": (_ints, (33,)), "amplitude": (_float, 0.1),
                  "phi": (_str, None), "seed": (_int, 0),
                  "output": (_str, "curvature.csv")},
    "flow": {"res": (_ints, None), "dt": (_float, None),
             "steps": (_int, None), "amplitude": (_float, 0.1),
             "phi": (_str, None), "r0": (_float, 1.0),
             "snapshot_every": (_int, 0), "output": (_str, "flow.csv")},
    "identity": {"res": (_ints, (32, 64)), "phi": (_str, "0.2*sin(x1)"),
                 "amplitude": (_float, 0.1), "dt": (_float, None),
                 "min_order": (_float, 1.8),
                 "output": (_str, "identity.csv")},
    "jacobi": {"res": (_ints, (512,)), "tolerance": (_float, 1e-3),
               "output": (_str, "jacobi.csv")},
    "systole": {"res": (_ints, (128,)), "r": (_float, 1.0),
                "fiber": (_float, 10.0), "connectivity": (_int, 16),
                "amplitude": (_float, 0.3),
                "output": (_str, "systole.csv")},
    "certify": {"res": (_ints, (128,)), "r": (_float, 1.0),
                "fiber": (_float, 10.0), "connectivity": (_int, 16),
                "lengths": (_floats, (TWO_PI, TWO_PI)),
                "output": (_str, "certificates.txt")},
}

_GEOMETRIES = {
    "curvature": ("flat-torus", "conformal-torus", "random-torus", "sphere"),
    "flow": ("torus", "sphere"),
    "identity": ("torus",),
    "jacobi": ("equator",),
    "systole": ("product-torus", "anisotropic-torus"),
    "certify": ("disk-cylinder", "sphere-cylinder", "flat-torus", "all"),
}

# Keys whose explicit presence contradicts the chosen geometry.
_MEANINGLESS = {
    ("flow", "sphere"): ("amplitude", "phi", "snapshot_every"),
    ("flow", "torus"): ("r0",),
    ("systole", "product-torus"): ("amplitude",),
    ("systole", "anisotropic-torus"): ("r", "fiber"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    geometry: str
    phi: str | None
    resolutions: tuple
    dt: float | None
    steps: int | None
    output_path: str
    seed: int
    options: dict


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
    if command not in _SCHEMAS:
        raise ConfigError(f"unknown command {command!r}; choose from "
                          f"{', '.join(sorted(_SCHEMAS))}")
    if geometry not in _GEOMETRIES[command]:
        raise ConfigError(f"unknown geometry {geometry!r} for {command}; "
                          f"choose from {', '.join(_GEOMETRIES[command])}")
    schema = _SCHEMAS[command]
    values = {name: default for name, (_, default) in schema.items()}
    provided = set()
    for key, value, where in pairs:
        if key not in schema:
            raise ConfigError(f"{where}: unknown key {key!r} for {command} "
                              f"(allowed: {', '.join(sorted(schema))})")
        if key in provided:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        provided.add(key)
        values[key] = schema[key][0](value, where)
    for key in _MEANINGLESS.get((command, geometry), ()):
        if key in provided:
            raise ConfigError(f"key {key!r} has no meaning for "
                              f"{command} {geometry}")

    _validate(command, geometry, values, provided)
    phi = values.pop("phi", None)
    if phi is not None:
        expr = parse_expression(phi)
        bad = expr.variables - {"x1", "x2"}
        if bad:
            raise ConfigError(f"phi uses {sorted(bad)}; surface charts "
                              "provide x1 and x2 only")
    res = values.pop("res")
    return ExperimentConfig(
        command, geometry, phi, res,
        values.pop("dt", None), values.pop("steps", None),
        values.pop("output"), values.pop("seed", 0), values)


def _validate(command, geometry, values, provided):
    res = values["res"]
    if command == "flow":
        if values["dt"] is None or values["steps"] is None:
            raise ConfigError("flow needs both dt and steps")
        if values["res"] is None:
            values["res"] = (65,) if geometry == "sphere" else (32,)
        res = values["res"]
    if any(r < 8 for r in res):
        raise ConfigError(f"res entries must be at least 8, got {res}")
    if command in ("flow", "jacobi", "systole", "certify") and len(res) != 1:
        raise ConfigError(f"{command} takes a single res, got {len(res)}")
    if command == "identity" and len(res) < 2:
        raise ConfigError("identity needs at least two resolutions "
                          "to measure an order")
    if values.get("dt") is not None and not values["dt"] > 0.0:
        raise ConfigError("dt must be positive")
    if values.get("steps") is not None and values["steps"] < 1:
        raise ConfigError("steps must be at least 1")
    if values.get("connectivity") not in (None, 4, 8, 16):
        raise ConfigError("connectivity must be 4, 8 or 16")
    if values.get("tolerance") is not None and not values["tolerance"] > 0.0:
        raise ConfigError("tolerance must be positive")
    for key in ("r", "r0", "fiber"):
        if values.get(key) is not None and not values[key] > 0.0:
            raise ConfigError(f"{key} must be positive")
    lengths = values.get("lengths", ())
    if any(not l > 0.0 for l in lengths):
        raise ConfigError("lengths must be positive")
    if len(lengths) > 3:
        raise ConfigError(f"lengths takes 1 to 3 entries, got {len(lengths)}")
    if values.get("seed", 0) < 0:
        raise ConfigError("seed must be nonnegative")
    if geometry == "anisotropic-torus" \
            and not -1.0 < values["amplitude"] < 1.0:
        raise ConfigError("amplitude must lie in (-1, 1) to keep the "
                          "metric positive definite")
    if values.get("snapshot_every", 0) < 0:
        raise ConfigError("snapshot_every must be nonnegative")


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


def _build_surface(config, res):
    geometry = config.geometry
    if geometry == "flat-torus":
        return flat_torus(res, (TWO_PI, TWO_PI))
    if geometry == "conformal-torus":
        grid, metric, _ = conformal_torus(res, config.options["amplitude"])
        return grid, metric
    if geometry == "random-torus":
        return _random_torus(res, config.options["amplitude"], config.seed)
    return sphere_band(res | 1, res)


def _run_curvature(config) -> int:
    rows = []
    for res in config.resolutions:
        grid, metric = _build_surface(config, res)
        phi = _phi_field(grid, config.phi)
        state = make_flow_state(0.0, metric, phi)
        gap = float(np.abs(ricci_hessian_gap(state)).max())
        rows.append({"resolution": res,
                     "inf_S": float(state.stabilized.values.min()),
                     "sup_S": float(state.stabilized.values.max()),
                     "F": f_functional(metric, phi,
                                       stabilized=state.stabilized),
                     "max_ricci_hessian_gap": gap})
    path = _resolve_output(config.output_path)
    emit_series(rows, path, ["resolution", "inf_S", "sup_S", "F",
                             "max_ricci_hessian_gap"])
    print(f"curvature: {len(rows)} resolutions -> {path}")
    return 0


def _run_flow(config) -> int:
    res = config.resolutions[0]
    path = _resolve_output(config.output_path)
    if config.geometry == "sphere":
        # about 17 of the steps + 1 profiles, lifted as they stream past
        stride = max((config.steps + 1) // 17, 1)
        profiles = profile_states(round_profile(res, config.options["r0"]),
                                  config.dt, config.steps)
        states = map(profile_state, islice(profiles, 0, None, stride))
        dt = config.dt * stride
    else:
        grid, metric, _ = conformal_torus(res, config.options["amplitude"])
        phi = _phi_field(grid, config.phi)
        states = flow_states(make_flow_state(0.0, metric, phi), config.dt,
                             config.steps,
                             snapshot_every=config.options["snapshot_every"],
                             snapshot_dir=os.path.dirname(path) or ".")
        dt = config.dt
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
    states = []
    for res in config.resolutions:
        grid, metric, _ = conformal_torus(res, config.options["amplitude"])
        phi = _phi_field(grid, config.phi)
        states.append(make_flow_state(0.0, metric, phi))
    # default dt: half the tightest step bound across the list, so one
    # shared dt works on every level and its error stays far below h^2
    dt = config.dt
    if dt is None:
        dt = 0.5 * min(cfl_bound(s) for s in states)
    rows = []
    for res, state in zip(config.resolutions, states):
        # midpoint states keep the time-slope error at O(dt^2), far
        # below the h^2 signal the order fit is after
        prev, mid, nxt = flow_states(state, dt, 2, scheme="midpoint")
        evo = float(np.abs(evolution_identity_residual(prev, mid, nxt,
                                                       dt)).max())
        adj = float(np.abs(adjoint_supersolution_residual(state).values).max())
        rows.append({"resolution": res, "evolution_residual_maxnorm": evo,
                     "adjoint_residual_maxnorm": adj})
    path = _resolve_output(config.output_path)
    emit_series(rows, path, ["resolution", "evolution_residual_maxnorm",
                             "adjoint_residual_maxnorm"])
    levels = np.log2([float(r["resolution"]) for r in rows])
    orders = []
    for column in ("evolution_residual_maxnorm", "adjoint_residual_maxnorm"):
        errs = np.log2([r[column] for r in rows])
        orders.append(-np.polyfit(levels, errs, 1)[0])
    good = all(o >= config.options["min_order"] for o in orders)
    print(f"identity: order_evolution={orders[0]:.3f} "
          f"order_adjoint={orders[1]:.3f} "
          f"(min {config.options['min_order']:g}) "
          f"verdict={'pass' if good else 'fail'} -> {path}")
    return 0 if good else 2


def _run_jacobi(config) -> int:
    res = config.resolutions[0]
    grid, metric = sphere_band(65, res)
    emb = embed_graph(metric, lambda p: np.full(p.shape, np.pi / 2),
                      graph_axis=0)
    problem = assemble_jacobi(emb, ScalarField(grid, np.ones(grid.shape)))
    pair = principal_eigenpair(problem)
    path = _resolve_output(config.output_path)
    u = pair.eigenfunction.values
    emit_series([{"problem": f"equator-{res}", "eigenvalue": pair.eigenvalue,
                  "residual": pair.residual, "iterations": pair.iterations,
                  "u_min": u.min(), "u_max": u.max()}],
                path, ["problem", "eigenvalue", "residual", "iterations",
                       "u_min", "u_max"])
    tol = config.options["tolerance"]
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
    res = config.resolutions[0]
    conn = config.options["connectivity"]
    if config.geometry == "product-torus":
        grid, metric = torus_surface(res, res, radius=config.options["r"],
                                     fiber_len=config.options["fiber"])
        graph = build_winding_graph(grid, metric, xi_axis=0,
                                    connectivity=conn)
    else:
        amp = config.options["amplitude"]
        grid, _ = flat_torus(res, (TWO_PI, TWO_PI))
        graph = build_winding_graph(grid, _aniso_metric_fn(amp), xi_axis=0,
                                    connectivity=conn)
    sigma, cycle = systole_sigma(graph)
    path = _resolve_output(config.output_path)
    emit_series([{"resolution": res, "connectivity": conn, "sigma": sigma,
                  "cycle_nodes": len(cycle) - 1,
                  "quantization_bound": quantization_bound(conn)}],
                path, ["resolution", "connectivity", "sigma", "cycle_nodes",
                       "quantization_bound"])
    print(f"systole: sigma={sigma:.10g} (upper bound, quantization "
          f"<= {quantization_bound(conn):.2%}) -> {path}")
    return 0


def _run_certify(config) -> int:
    res = config.resolutions[0]
    conn = config.options["connectivity"]
    wanted = {
        "disk-cylinder": [DiskCylinder(config.options["r"],
                                       (config.options["fiber"],))],
        "sphere-cylinder": [SphereCylinder(config.options["r"],
                                           (config.options["fiber"],))],
        "flat-torus": [FlatTorus(tuple(config.options["lengths"]))],
    }
    models = wanted.get(config.geometry) or \
        [m for group in wanted.values() for m in group]
    certs = [equality_certificate(m, resolution=res, connectivity=conn)
             for m in models]
    path = _resolve_output(config.output_path)
    with open(path, "w", newline="\n") as fh:
        fh.writelines(certificate_line(cert) + "\n" for cert in certs)
    failures = [c for c in certs if c.verdict != "pass"]
    for cert in certs:
        print(f"certify: {type(cert.model).__name__} "
              f"relative_gap={cert.relative_gap:.3e} verdict={cert.verdict}")
    print(f"certify: {len(certs)} certificates -> {path}")
    return 2 if failures else 0


_RUNNERS = {"curvature": _run_curvature, "flow": _run_flow,
            "identity": _run_identity, "jacobi": _run_jacobi,
            "systole": _run_systole, "certify": _run_certify}


def run(config: ExperimentConfig) -> int:
    return _RUNNERS[config.command](config)


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
    except (ConfigError, ExpressionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
