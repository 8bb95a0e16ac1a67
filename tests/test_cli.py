"""Front-end contract: config strictness, CSV format, exit codes.

Oracles, independent of the dispatch code under test:
  - closed forms for the bundled geometries (flat torus S = 0, unit
    sphere S = 2, product torus sigma = 2*pi*r, trough-row sigma =
    2*pi*sqrt(1 - |amplitude|)),
  - direct in-process recomputation with the library API, compared
    bit for bit against what the CSV files round-trip to,
  - integration by parts: F = integral of e^phi |grad phi|^2 on a
    flat background, so F > 0 for any nonconstant phi,
  - byte equality of repeated runs for the determinism contract.
"""

import math
import os
import shlex
import subprocess
import sys
import weakref

import numpy as np
import pytest

from helpers import cli_env, patch_every_binding
from sclab.cli import (
    ConfigError,
    ExperimentConfig,
    build_config,
    emit_series,
    main,
    parse_config_lines,
)
from sclab.charts import ScalarField, read_snapshot
from sclab.flow import (SphereProfile, flow_states, make_flow_state,
                        monotonicity_report)
from sclab.hypersurface import embed_graph
from sclab.models import TWO_PI, conformal_torus, sphere_band, torus_surface
from sclab.spectral import assemble_jacobi, principal_eigenpair
from sclab.systole import build_winding_graph, systole_sigma


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("SCL_OUTPUT_DIR", str(tmp_path))
    return tmp_path


def read_csv(path):
    lines = path.read_text().splitlines()
    columns = lines[0].split(",")
    rows = [dict(zip(columns, line.split(","))) for line in lines[1:]]
    return columns, rows


def column(path, name):
    _, rows = read_csv(path)
    return np.array([float(r[name]) for r in rows])


class TestConfigParsing:
    def test_comments_and_blanks_skipped(self):
        pairs = parse_config_lines("# header\n\n  a = 1  # trailing\nb=2\n")
        assert [(k, v) for k, v, _ in pairs] == [("a", "1"), ("b", "2")]

    def test_locations_recorded(self):
        # the reported column points at the value, one past the "="
        pairs = parse_config_lines("a=1\nkey = value\n")
        assert pairs[0][2] == "line 1, column 3"
        assert pairs[1][2] == "line 2, column 6"

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 2, column 3"):
            parse_config_lines("a=1\n  broken line\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError, match="line 1, column 1: empty key"):
            parse_config_lines("=5\n")

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="unknown command 'ricci'"):
            build_config("ricci", "torus", [])

    def test_unknown_geometry_lists_choices(self):
        with pytest.raises(ConfigError, match="sphere"):
            build_config("flow", "klein-bottle", [])

    def test_unknown_key_names_location_and_choices(self):
        with pytest.raises(ConfigError, match="line 3, column 1.*allowed.*dt"):
            build_config("flow", "torus",
                         [("dtx", "1e-3", "line 3, column 1")])

    def test_duplicate_key_rejected(self):
        pairs = [("res", "16", "argument 3"), ("res", "32", "argument 4")]
        with pytest.raises(ConfigError, match="argument 4: duplicate"):
            build_config("curvature", "flat-torus", pairs)

    def test_meaningless_key_for_geometry(self):
        with pytest.raises(ConfigError, match="no meaning for flow sphere"):
            build_config("flow", "sphere",
                         [("dt", "1e-4", "a"), ("steps", "5", "b"),
                          ("phi", "x1", "c")])

    def test_defaults_applied(self):
        # a value for exactly the keys the job reads, defaults included
        config = build_config("curvature", "flat-torus", [])
        assert config == ExperimentConfig(
            "curvature", "flat-torus",
            {"res": (33,), "phi": None, "output": "curvature.csv"})

    def test_flow_default_res_per_geometry(self):
        pairs = [("dt", "1e-4", "a"), ("steps", "5", "b")]
        assert build_config("flow", "torus", pairs).values["res"] == 32
        assert build_config("flow", "sphere", pairs).values["res"] == 65

    def test_res_list_parsed(self):
        config = build_config("identity", "torus",
                              [("res", "32,64,128", "a")])
        assert config.values["res"] == (32, 64, 128)

    def test_res_floor(self):
        with pytest.raises(ConfigError, match="at least 8"):
            build_config("curvature", "flat-torus", [("res", "4", "a")])

    def test_flow_needs_dt_and_steps(self):
        with pytest.raises(ConfigError,
                           match="flow torus needs a value for steps$"):
            build_config("flow", "torus", [("dt", "1e-4", "a")])
        with pytest.raises(ConfigError,
                           match="flow sphere needs a value for dt and steps"):
            build_config("flow", "sphere", [])

    def test_single_res_commands_reject_lists(self):
        with pytest.raises(ConfigError, match="single res"):
            build_config("jacobi", "equator", [("res", "64,128", "a")])

    def test_identity_needs_two_resolutions(self):
        with pytest.raises(ConfigError, match="at least two"):
            build_config("identity", "torus", [("res", "64", "a")])

    def test_phi_limited_to_surface_coordinates(self):
        with pytest.raises(ConfigError, match="x1 and x2 only"):
            build_config("curvature", "flat-torus", [("phi", "x3", "a")])

    def test_number_conversion_error_carries_location(self):
        with pytest.raises(ConfigError, match="argument 5.*not a number"):
            build_config("flow", "torus",
                         [("dt", "fast", "argument 5"),
                          ("steps", "5", "argument 6")])

    def test_range_checks(self):
        # each rejection names its location, then the key
        with pytest.raises(ConfigError, match="^a: dt must be positive"):
            build_config("flow", "torus",
                         [("dt", "-1e-4", "a"), ("steps", "5", "b")])
        with pytest.raises(ConfigError,
                           match="^b: steps must be at least 1"):
            build_config("flow", "torus",
                         [("dt", "1e-4", "a"), ("steps", "0", "b")])
        with pytest.raises(ConfigError,
                           match="^a: connectivity must be 4, 8 or 16"):
            build_config("systole", "product-torus",
                         [("connectivity", "6", "a")])
        with pytest.raises(ConfigError,
                           match="^a: seed must be nonnegative"):
            build_config("curvature", "random-torus", [("seed", "-1", "a")])
        with pytest.raises(ConfigError, match="^a: amplitude must lie"):
            build_config("systole", "anisotropic-torus",
                         [("amplitude", "1.5", "a")])
        with pytest.raises(ConfigError,
                           match="^a: res needs at least two distinct"):
            build_config("identity", "torus", [("res", "16,32,16", "a")])


# (command, geometry, key=value) where the job does not read the key
UNREAD_KEYS = [
    ("curvature", "flat-torus", "amplitude=0.2"),
    ("curvature", "flat-torus", "seed=3"),
    ("curvature", "conformal-torus", "seed=3"),
    ("curvature", "sphere", "amplitude=0.2"),
    ("curvature", "sphere", "seed=3"),
    ("certify", "disk-cylinder", "lengths=1,2"),
    ("certify", "sphere-cylinder", "connectivity=8"),
    ("certify", "sphere-cylinder", "lengths=1,2"),
    ("certify", "all", "lengths=1,2"),
]


@pytest.mark.parametrize("command,geometry,setting", UNREAD_KEYS,
                         ids=[":".join(job) for job in UNREAD_KEYS])
def test_unread_key_rejected(out_dir, capsys, command, geometry, setting):
    assert main([command, geometry, "res=16", setting]) == 1
    err = capsys.readouterr().err
    key = setting.split("=")[0]
    assert err.startswith(f"error: argument 4: key {key!r} has no meaning "
                          f"for {command} {geometry} (allowed: ")
    assert os.listdir(out_dir) == []


class TestEmitSeries:
    def test_floats_round_trip_exactly(self, tmp_path):
        values = [math.pi, 1.0 / 3.0, 1e-300, 2.0 ** -52, -0.0, 6.0]
        path = tmp_path / "series.csv"
        emit_series([{"v": v} for v in values], path, ["v"])
        got = column(path, "v")
        assert got.tolist() == values

    def test_header_only_when_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_series([], path, ["t", "inf_S"])
        assert path.read_text() == "t,inf_S\n"

    def test_inhomogeneous_records_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="homogeneous"):
            emit_series([{"a": 1.0}, {"b": 2.0}], tmp_path / "x.csv",
                        ["a"])

    def test_int_and_bool_cells(self, tmp_path):
        path = tmp_path / "mixed.csv"
        emit_series([{"n": 128, "ok": True}, {"n": np.int64(4), "ok": False}],
                    path, ["n", "ok"])
        assert path.read_text() == "n,ok\n128,true\n4,false\n"

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        emit_series([{"a": 1.0}], path, ["a"])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_column_order_is_explicit(self, tmp_path):
        path = tmp_path / "order.csv"
        emit_series([{"b": 2.0, "a": 1.0}], path, ["a", "b"])
        assert path.read_text().splitlines()[0] == "a,b"


class TestCurvatureCommand:
    def test_flat_torus_is_flat(self, out_dir):
        assert main(["curvature", "flat-torus", "res=16"]) == 0
        _, rows = read_csv(out_dir / "curvature.csv")
        assert abs(float(rows[0]["inf_S"])) < 1e-12
        assert abs(float(rows[0]["sup_S"])) < 1e-12
        assert abs(float(rows[0]["F"])) < 1e-10

    def test_sphere_reports_constant_curvature(self, out_dir):
        assert main(["curvature", "sphere", "res=33"]) == 0
        _, rows = read_csv(out_dir / "curvature.csv")
        assert float(rows[0]["inf_S"]) == pytest.approx(2.0, abs=0.05)
        assert float(rows[0]["sup_S"]) == pytest.approx(2.0, abs=0.05)

    def test_potential_contributes_positive_f(self, out_dir):
        # on a flat background F integrates to e^phi |grad phi|^2 >= 0
        assert main(["curvature", "flat-torus", "res=32",
                     "phi=0.1*sin(x1)"]) == 0
        _, rows = read_csv(out_dir / "curvature.csv")
        assert float(rows[0]["F"]) > 0.0

    def test_resolution_list_and_columns(self, out_dir):
        assert main(["curvature", "random-torus", "res=16,32", "seed=3",
                     "amplitude=0.2"]) == 0
        columns, rows = read_csv(out_dir / "curvature.csv")
        assert columns == ["resolution", "inf_S", "sup_S", "F",
                           "max_ricci_hessian_gap"]
        assert [int(r["resolution"]) for r in rows] == [16, 32]

    def test_seeded_rerun_is_byte_identical(self, out_dir):
        argv = ["curvature", "random-torus", "res=24", "seed=7",
                "amplitude=0.3", "output=a.csv"]
        assert main(argv) == 0
        assert main(argv[:-1] + ["output=b.csv"]) == 0
        assert (out_dir / "a.csv").read_bytes() == \
            (out_dir / "b.csv").read_bytes()

    def test_different_seeds_differ(self, out_dir):
        main(["curvature", "random-torus", "res=24", "seed=1",
              "output=a.csv"])
        main(["curvature", "random-torus", "res=24", "seed=2",
              "output=b.csv"])
        assert (out_dir / "a.csv").read_text() != \
            (out_dir / "b.csv").read_text()


class TestFlowCommand:
    def test_round_sphere_inf_s_increases(self, out_dir, capsys):
        assert main(["flow", "sphere", "r0=1", "dt=1e-4", "steps=1000"]) == 0
        path = out_dir / "flow.csv"
        columns, _ = read_csv(path)
        assert columns == ["t", "inf_S", "F", "max_ricci_hessian_gap",
                           "identity_residual_maxnorm"]
        inf_s = column(path, "inf_S")
        assert np.all(np.diff(inf_s) > 0.0)
        # one row per profile, the last one included
        t = column(path, "t")
        assert len(t) == 1001 and t[0] == 0.0
        assert t[-1] == pytest.approx(0.1, rel=1e-12)
        assert f"flow: 1001 states, inf_S {inf_s[0]:.6g} -> " \
            f"{inf_s[-1]:.6g}, monotone=pass" in capsys.readouterr().out
        # every row follows the shrinking sphere: S = 2/(1 - 2t), F = 8 pi
        # (Gauss-Bonnet) and Ric - D^2 phi = K g with |K a| = 1
        np.testing.assert_allclose(inf_s, 2.0 / (1.0 - 2.0 * t), rtol=1e-3)
        np.testing.assert_allclose(column(path, "F"), 8.0 * math.pi,
                                   rtol=1e-3)
        np.testing.assert_allclose(column(path, "max_ricci_hessian_gap"),
                                   1.0, rtol=0.0, atol=1e-3)
        residuals = column(path, "identity_residual_maxnorm")
        assert np.isnan(residuals[[0, -1]]).all()
        assert residuals[1:-1].max() <= 1e-6

    def test_sphere_run_builds_no_chart(self, out_dir, monkeypatch):
        from sclab import curvature, flow

        def refuse(*args, **kwargs):
            raise AssertionError("the sphere flow built a chart state")

        for real in (flow.make_flow_state, curvature.curvature_bundle):
            patch_every_binding(monkeypatch, real, refuse)
        assert main(["flow", "sphere", "res=33", "dt=1e-4", "steps=20"]) == 0
        assert len(column(out_dir / "flow.csv", "t")) == 21

    def test_torus_run_writes_snapshots(self, out_dir):
        assert main(["flow", "torus", "res=16", "amplitude=0.1", "dt=1e-3",
                     "steps=20", "snapshot_every=10"]) == 0
        names = sorted(p.name for p in out_dir.glob("state_*.snap"))
        assert names == ["state_000010.snap", "state_000020.snap"]
        t = column(out_dir / "flow.csv", "t")
        assert len(t) == 21
        assert t[-1] == pytest.approx(0.02, rel=1e-12)

    def test_snapshots_round_trip(self, out_dir):
        # the CLI writes every second stepped state as it streams past;
        # each snapshot holds that state of the library run bit for bit
        assert main(["flow", "torus", "res=16", "dt=1e-3", "steps=6",
                     "snapshot_every=2"]) == 0
        names = sorted(p.name for p in out_dir.glob("state_*.snap"))
        assert names == ["state_000002.snap", "state_000004.snap",
                         "state_000006.snap"]
        grid, metric, _ = conformal_torus(16, 0.1)
        state = make_flow_state(0.0, metric,
                                ScalarField(grid, np.zeros(grid.shape)))
        states = tuple(flow_states(state, 1e-3, 6))
        _, fields = read_snapshot(out_dir / "state_000004.snap")
        assert np.array_equal(fields["metric"].values,
                              states[4].metric.values)
        assert np.array_equal(fields["phi"].values, states[4].phi.values)

    def test_negative_snapshot_interval_rejected(self, out_dir, capsys):
        assert main(["flow", "torus", "res=16", "dt=1e-3", "steps=4",
                     "snapshot_every=-1"]) == 1
        assert "error: argument 6: snapshot_every must be nonnegative" \
            in capsys.readouterr().err
        assert os.listdir(out_dir) == []

    def test_series_cells_match_report_bit_for_bit(self, out_dir):
        assert main(["flow", "torus", "res=16", "amplitude=0.1", "dt=1e-3",
                     "steps=4"]) == 0
        grid, metric, _ = conformal_torus(16, 0.1)
        state = make_flow_state(0.0, metric,
                                ScalarField(grid, np.zeros(grid.shape)))
        report = monotonicity_report(flow_states(state, 1e-3, 4), 1e-3)
        path = out_dir / "flow.csv"
        fields = {"t": report.times, "inf_S": report.inf_s,
                  "F": report.f_values,
                  "max_ricci_hessian_gap": report.gap_norms,
                  "identity_residual_maxnorm": report.identity_residuals}
        columns, rows = read_csv(path)
        assert columns == list(fields)
        assert len(rows) == 5
        for name, values in fields.items():
            assert np.array_equal(column(path, name), values, equal_nan=True)
        residuals = [r["identity_residual_maxnorm"] for r in rows]
        assert residuals[0] == residuals[-1] == "nan"
        assert not np.isnan(report.identity_residuals[1:-1]).any()

    def test_sphere_run_holds_three_profiles(self, out_dir, monkeypatch):
        # profiles stream into the report's three-profile window, so the
        # run holds three of them however many steps it takes
        from sclab import flow
        refs = []
        counts = []

        def tracking(real):
            def wrapper(*args, **kwargs):
                profile = real(*args, **kwargs)
                assert isinstance(profile, SphereProfile)
                refs.append(weakref.ref(profile))
                counts.append(sum(ref() is not None for ref in refs))
                return profile
            return wrapper

        for real in (flow.round_profile, flow.step_profile_flow):
            patch_every_binding(monkeypatch, real, tracking(real))
        assert main(["flow", "sphere", "r0=1", "dt=1e-4", "steps=1000"]) == 0
        assert len(counts) == 1001
        assert max(counts) <= 3

    def test_torus_run_builds_one_report(self, out_dir, monkeypatch):
        # the report written to the series is the one the verdict reads
        from sclab import flow
        real = flow.monotonicity_report
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        patch_every_binding(monkeypatch, real, counting)
        assert main(["flow", "torus", "res=16", "amplitude=0.1", "dt=1e-3",
                     "steps=5"]) == 0
        assert len(calls) == 1

    def test_torus_run_holds_three_states(self, out_dir, monkeypatch):
        # the series is folded through a (prev, state, next) window, so
        # the number of live states does not grow with the step count
        from sclab import flow
        real = flow.make_flow_state
        refs = []   # weak references: FlowState holds arrays, so no hash
        counts = []

        def tracking(*args, **kwargs):
            state = real(*args, **kwargs)
            refs.append(weakref.ref(state))
            counts.append(sum(ref() is not None for ref in refs))
            return state

        patch_every_binding(monkeypatch, real, tracking)
        assert main(["flow", "torus", "res=16", "amplitude=0.1", "dt=1e-3",
                     "steps=40"]) == 0
        assert len(counts) == 41
        assert max(counts) <= 3

    def test_torus_run_derives_phi_once_per_state(self, out_dir,
                                                  monkeypatch):
        # one potential_derivatives call for phi per state, one more for
        # Lap S in the identity residual at interior states
        from sclab import curvature, flow
        calls = {}

        def counting(real):
            def wrapper(*args, **kwargs):
                calls[real.__name__] = calls.get(real.__name__, 0) + 1
                return real(*args, **kwargs)
            return wrapper

        for real in (flow.make_flow_state, curvature.potential_derivatives):
            patch_every_binding(monkeypatch, real, counting(real))
        assert main(["flow", "torus", "res=16", "amplitude=0.1", "dt=1e-3",
                     "steps=40"]) == 0
        assert calls["make_flow_state"] == 41
        assert calls["potential_derivatives"] <= 2 * calls["make_flow_state"]

    def test_cfl_violation_is_operational_error(self, out_dir, capsys):
        assert main(["flow", "torus", "res=16", "dt=1.0", "steps=2"]) == 1
        assert "violates" in capsys.readouterr().err


class TestIdentityCommand:
    def test_orders_reach_two(self, out_dir, capsys):
        assert main(["identity", "torus", "phi=0.2*sin(x1)",
                     "res=32,64"]) == 0
        out = capsys.readouterr().out
        assert "verdict=pass" in out
        _, rows = read_csv(out_dir / "identity.csv")
        evo = [float(r["evolution_residual_maxnorm"]) for r in rows]
        adj = [float(r["adjoint_residual_maxnorm"]) for r in rows]
        # halving h divides both residuals by about four
        assert evo[0] / evo[1] > 2.0 ** 1.8
        assert adj[0] / adj[1] > 2.0 ** 1.8

    def test_constant_division_by_zero_is_operational_error(self, out_dir):
        # same path as phi="x1/(x1-x1)": an inf field, not a traceback;
        # run as a process so an uncaught exception shows on stderr
        proc = subprocess.run(
            [sys.executable, "-m", "sclab.cli", "identity", "torus",
             "phi=1/(1-1)", "res=16,32"],
            env=cli_env(SCL_OUTPUT_DIR=str(out_dir)),
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "error: non-finite field value at node (0, 0)" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_flat_torus_holds_exactly(self, out_dir):
        # amplitude=0 phi=0 is the flat control: both residuals are 0
        # at every level, which passes without fitting a log of zero;
        # run as a process so a numpy warning shows on stderr
        proc = subprocess.run(
            [sys.executable, "-m", "sclab.cli", "identity", "torus",
             "amplitude=0", "phi=0", "res=16,32"],
            env=cli_env(SCL_OUTPUT_DIR=str(out_dir)),
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert ("order_evolution=exact order_adjoint=exact"
                in proc.stdout)
        assert "verdict=pass" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr

    def test_unreachable_order_fails_verdict(self, out_dir, capsys):
        assert main(["identity", "torus", "res=32,64", "min_order=5"]) == 2
        assert "verdict=fail" in capsys.readouterr().out


class TestJacobiCommand:
    def test_equator_eigenvalue(self, out_dir, capsys):
        assert main(["jacobi", "equator", "res=128", "tolerance=2e-2"]) == 0
        out = capsys.readouterr().out
        assert "verdict=pass" in out
        report = (out_dir / "jacobi.csv").read_text()
        assert "equator-128" in report

    def test_tight_tolerance_fails_verdict(self, out_dir):
        assert main(["jacobi", "equator", "res=128", "tolerance=1e-4"]) == 2

    def test_csv_fields_match_library_bit_for_bit(self, out_dir):
        assert main(["jacobi", "equator", "res=64", "tolerance=1"]) == 0
        grid, metric = sphere_band(65, 64)
        emb = embed_graph(metric, lambda p: np.full(p.shape, np.pi / 2),
                          graph_axis=0)
        pair = principal_eigenpair(
            assemble_jacobi(emb, ScalarField(grid, np.ones(grid.shape))))
        columns, rows = read_csv(out_dir / "jacobi.csv")
        assert columns == ["problem", "eigenvalue", "residual",
                           "iterations", "u_min", "u_max"]
        assert len(rows) == 1
        row = rows[0]
        assert row["problem"] == "equator-64"
        assert float(row["eigenvalue"]) == pair.eigenvalue
        assert float(row["residual"]) == pair.residual
        assert int(row["iterations"]) == pair.iterations
        assert float(row["u_min"]) == pair.eigenfunction.values.min()
        assert float(row["u_max"]) == pair.eigenfunction.values.max()


class TestSystoleCommand:
    def test_product_torus_matches_circumference(self, out_dir):
        assert main(["systole", "product-torus", "res=32", "r=1",
                     "fiber=10", "connectivity=8"]) == 0
        path = out_dir / "systole.csv"
        assert column(path, "sigma")[0] == pytest.approx(TWO_PI, rel=1e-12)
        assert int(column(path, "cycle_nodes")[0]) == 32

    def test_trough_row_sigma(self, out_dir):
        assert main(["systole", "anisotropic-torus", "res=32",
                     "amplitude=0.3", "connectivity=8"]) == 0
        sigma = column(out_dir / "systole.csv", "sigma")[0]
        assert sigma == pytest.approx(TWO_PI * math.sqrt(0.7), rel=1e-12)

    def test_csv_value_matches_library_bit_for_bit(self, out_dir):
        assert main(["systole", "product-torus", "res=24", "r=2",
                     "fiber=9", "connectivity=4"]) == 0
        grid, metric = torus_surface(24, 24, radius=2.0, fiber_len=9.0)
        graph = build_winding_graph(grid, metric, xi_axis=0, connectivity=4)
        sigma, _ = systole_sigma(graph)
        assert column(out_dir / "systole.csv", "sigma")[0] == sigma

    def test_degenerate_amplitude_rejected(self, out_dir, capsys):
        assert main(["systole", "anisotropic-torus", "res=16",
                     "amplitude=1.5"]) == 1
        assert "positive definite" in capsys.readouterr().err


class TestCertifyCommand:
    def test_all_models_pass(self, out_dir, capsys):
        # res >= 64 so the sphere-band inf S lands inside the 1% gate
        assert main(["certify", "all", "res=64", "connectivity=8"]) == 0
        out = capsys.readouterr().out
        assert out.count("verdict=pass") == 2
        lines = (out_dir / "certificates.txt").read_text().splitlines()
        assert len(lines) == 2
        fields = dict(part.split("=", 1) for part in shlex.split(lines[0]))
        assert fields["verdict"] == "pass"
        assert float(fields["rhs"]) == pytest.approx(TWO_PI, rel=1e-15)

    def test_under_resolved_sphere_fails_gate(self, out_dir, capsys):
        # a 33-latitude band cannot place inf S within 1%, and the
        # measured lhs must carry that gap into the verdict
        assert main(["certify", "sphere-cylinder", "res=32"]) == 2
        assert "verdict=fail" in capsys.readouterr().out

    def test_lf_lines_one_certificate_line_per_model(self, out_dir):
        # the sphere band fails its gate at res 16; its line is written
        assert main(["certify", "all", "res=16", "connectivity=4"]) == 2
        raw = (out_dir / "certificates.txt").read_bytes()
        assert b"\r" not in raw
        assert raw.decode() == (
            'model=DiskCylinder radius=1 fibers=10 lhs=6.283185307179588 '
            'rhs=6.2831853071795862 relative_gap=2.827e-16 verdict=pass '
            'note="sigma is a lattice upper bound; direction quantization '
            '<= 41.42%"\n'
            'model=SphereCylinder radius=1 fibers=10 '
            'lhs=24.505177362282119 rhs=25.132741228718345 '
            'relative_gap=2.497e-02 verdict=fail note="inf S on a latitude '
            'band times the quadrature area of the round factor; both '
            'sides measured"\n')

    def test_single_model_selection(self, out_dir):
        assert main(["certify", "disk-cylinder", "res=16",
                     "connectivity=4"]) == 0
        lines = (out_dir / "certificates.txt").read_text().splitlines()
        assert len(lines) == 1
        assert "DiskCylinder" in lines[0]

    def test_flat_torus_is_not_a_certify_geometry(self, out_dir, capsys):
        assert main(["certify", "flat-torus", "res=16"]) == 1
        assert ("unknown geometry 'flat-torus' for certify; choose from "
                "disk-cylinder, sphere-cylinder, all"
                in capsys.readouterr().err)
        assert os.listdir(out_dir) == []


class TestConfigFileForm:
    def test_file_run(self, out_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# nightly check\ncommand=identity\ngeometry=torus\n"
                       "phi = 0.1*cos(x2)\nres = 32,64\n")
        assert main(["--config", str(cfg)]) == 0
        assert "verdict=pass" in capsys.readouterr().out

    def test_file_error_carries_location(self, out_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("command=flow\ngeometry=torus\n  dtx=1e-3\n")
        assert main(["--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "line 3, column 7" in err
        assert "dtx" in err

    def test_file_must_name_command_and_geometry(self, out_dir, tmp_path):
        cfg = tmp_path / "incomplete.cfg"
        cfg.write_text("command=flow\ndt=1e-4\nsteps=5\n")
        assert main(["--config", str(cfg)]) == 1

    @pytest.mark.parametrize("text,where", [
        ("command=certify\ngeometry=flat-torus\ncommand=curvature\n"
         "res=16\n", "line 3, column 9: duplicate key 'command'"),
        ("command=curvature\ngeometry=flat-torus\n"
         "geometry=conformal-torus\nres=16\n",
         "line 3, column 10: duplicate key 'geometry'")],
        ids=["command", "geometry"])
    def test_repeated_command_or_geometry_rejected(self, out_dir, capsys,
                                                  text, where):
        # the last repeat must not silently pick the run
        cfg = out_dir / "twice.cfg"
        cfg.write_text(text)
        assert main(["--config", str(cfg)]) == 1
        assert where in capsys.readouterr().err
        assert os.listdir(out_dir) == ["twice.cfg"]

    def test_config_takes_one_path(self, out_dir):
        assert main(["--config"]) == 1
        assert main(["--config", "a", "b"]) == 1

    def test_missing_file_is_operational_error(self, out_dir, capsys):
        assert main(["--config", "/nonexistent/run.cfg"]) == 1
        assert "error:" in capsys.readouterr().err


class TestArgvForm:
    def test_usage_errors(self, out_dir):
        assert main([]) == 1
        assert main(["curvature"]) == 1
        assert main(["curvature", "res=16"]) == 1

    def test_positional_argument_positions(self, out_dir, capsys):
        assert main(["curvature", "flat-torus", "res=16", "junk"]) == 1
        assert "argument 4" in capsys.readouterr().err

    def test_unknown_key_position(self, out_dir, capsys):
        assert main(["certify", "disk-cylinder", "r=1", "fibre=10"]) == 1
        err = capsys.readouterr().err
        assert "argument 4" in err and "fibre" in err

    def test_bad_expression_position(self, out_dir, capsys):
        assert main(["identity", "torus", "phi=0.2*sin(y1)"]) == 1
        assert "position 8" in capsys.readouterr().err


class TestOutputResolution:
    def test_missing_output_dir_is_operational_error(self, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.setenv("SCL_OUTPUT_DIR", str(tmp_path / "absent"))
        assert main(["curvature", "flat-torus", "res=16"]) == 1
        err = capsys.readouterr().err
        assert "does not exist" in err
        assert not (tmp_path / "absent").exists()

    def test_absolute_output_ignores_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SCL_OUTPUT_DIR", str(tmp_path / "absent"))
        target = tmp_path / "direct.csv"
        assert main(["curvature", "flat-torus", "res=16",
                     f"output={target}"]) == 0
        assert target.exists()

    def test_unset_root_means_cwd(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SCL_OUTPUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["curvature", "flat-torus", "res=16"]) == 0
        assert (tmp_path / "curvature.csv").exists()
