"""The benchmark's own tests: each checker rejects a doctored output.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

Good outputs are built from the closed forms, not by running sclab, so
each test pins what a checker accepts and what it must refuse.
"""

import math

import numpy as np
import pytest
from scipy.special import i0

import checks
import tracer


# --- flow-torus -------------------------------------------------------------

A, RES = 0.15, 64
H = 2.0 * math.pi / RES


def _flow_outputs():
    inf_s = np.linspace(-1.0, -0.4, 301)
    area = 4.0 * math.pi ** 2 * float(i0(2.0 * A))
    return inf_s, [(0.1, area), (0.2, area), (0.3, area)]


def test_flow_accepts_closed_form():
    inf_s, snaps = _flow_outputs()
    assert checks.check_flow(inf_s, snaps, A, H) == []


def test_flow_rejects_dropping_inf_s():
    inf_s, snaps = _flow_outputs()
    inf_s[150] = inf_s[149] - 1e-6
    (error,) = checks.check_flow(inf_s, snaps, A, H)
    assert "inf_S drops" in error and "state 149" in error


def test_flow_rejects_area_off_by_one_percent():
    inf_s, snaps = _flow_outputs()
    snaps[1] = (snaps[1][0], snaps[1][1] * 1.01)
    (error,) = checks.check_flow(inf_s, snaps, A, H)
    assert "t = 0.2" in error


def test_snapshot_reader_recovers_torus_area(tmp_path):
    x1 = np.arange(RES) * H
    conf = np.exp(2.0 * A * np.sin(x1))[:, None] * np.ones((RES, RES))
    g = np.zeros((RES, RES, 2, 2))
    g[..., 0, 0] = conf
    g[..., 1, 1] = conf
    flat = [format(v, ".17g") for v in g.reshape(-1)]
    lines = ["chartsnap 1", "dim 2", f"resolution {RES} {RES}",
             f"extent {2 * math.pi!r} {2 * math.pi!r}",
             "topology periodic periodic", "origin 0 0", "fields 1",
             "field metric 2"]
    lines += [" ".join(flat[k:k + 8]) for k in range(0, len(flat), 8)]
    path = tmp_path / "state.snap"
    path.write_text("\n".join(lines) + "\n")
    area = checks.periodic_area(*checks.read_snapshot_metric(path))
    assert area == pytest.approx(4.0 * math.pi ** 2 * i0(2.0 * A), rel=1e-13)


# --- systole-aniso ----------------------------------------------------------

def _loop(res, a):
    """The straight loop at x2 = 3 pi / 2, summed edge by edge."""
    edge = 2.0 * math.pi / res * math.sqrt(1.0 - a)
    return sum([edge] * res), edge


def test_systole_accepts_straight_loop():
    sigma, _ = _loop(128, 0.3)
    assert checks.check_systole(sigma, 128, 128, 0.3) == []


def test_systole_rejects_one_edge_too_long():
    sigma, edge = _loop(128, 0.3)
    (error,) = checks.check_systole(sigma + edge, 128, 128, 0.3)
    assert "sigma" in error


def test_systole_rejects_wrong_cycle_length():
    sigma, _ = _loop(128, 0.3)
    (error,) = checks.check_systole(sigma, 129, 128, 0.3)
    assert "129 edges" in error


# --- shell-leaves -----------------------------------------------------------

RADII = tuple(1.0075 + 0.07 * k for k in range(-2, 3))
C = 0.3
H_LAT = (math.pi - math.pi / 4.0) / 40
H_RAD = 0.6 / 40


def _shell_outputs():
    radii = np.array(RADII)
    mu = 2.0 / radii + 2.0 * C * radii
    area = np.array([checks.shell_band_area(r, C) for r in RADII])
    rate = np.gradient(area, radii, edge_order=2)
    variation = mu * area
    eigenvalue = -2.0 / RADII[2] ** 2 + 2.0 * C
    return dict(mu=mu, areas=area, area_rate=rate, variation=variation,
                eigenvalue=eigenvalue, eigenfunction_min=0.25)


def _check_shell(out):
    return checks.check_shell(RADII, C, H_LAT, H_RAD, middle=2, **out)


def test_shell_accepts_closed_form():
    assert _check_shell(_shell_outputs()) == []


def test_shell_rejects_eigenvalue_off_by_1e_2():
    out = _shell_outputs()
    out["eigenvalue"] += 1e-2
    (error,) = _check_shell(out)
    assert "principal eigenvalue" in error


def test_shell_rejects_area_off_by_one_percent():
    out = _shell_outputs()
    out["areas"] = out["areas"].copy()
    out["areas"][3] *= 1.01
    (error,) = _check_shell(out)
    assert error.startswith("leaf 3: weighted area")


def test_shell_rejects_nonpositive_eigenfunction():
    out = _shell_outputs()
    out["eigenfunction_min"] = -1e-3
    (error,) = _check_shell(out)
    assert "not positive" in error


def test_shell_rejects_mu_and_variation_off():
    out = _shell_outputs()
    out["mu"] = out["mu"] + 1e-3
    out["variation"] = out["variation"] * 1.02
    errors = _check_shell(out)
    assert sum("mu" in e for e in errors) == 5
    assert sum("first variation" in e for e in errors) == 5


# --- tracer -----------------------------------------------------------------

def test_self_time_subtracts_children_and_counter_reads():
    spans = [["a", 0.0, 10.0, -1, None, 0.0],
             ["b", 1.0, 4.0, 0, None, 0.5],
             ["c", 2.0, 3.0, 1, None, 0.0],
             ["d", 5.0, 6.0, 0, None, 0.0]]
    assert tracer.self_times(spans) == [10.0 - 3.5 - 1.0, 2.0, 1.0, 1.0]


def test_tracer_catches_internal_calls_and_restores():
    pytest.importorskip("sclab.cli")
    import sclab
    from sclab import charts, curvature, models
    original = curvature.curvature_bundle
    trace = tracer.Tracer(sclab)
    trace.install()
    try:
        _, metric = models.flat_torus(16)
        phi = charts.ScalarField(metric.grid, np.zeros(metric.grid.shape))
        curvature.stabilized_scalar(metric, phi)
    finally:
        trace.uninstall()
    assert curvature.curvature_bundle is original
    metrics = tracer.layer_metrics(trace.reset())
    assert metrics["curvature.curvature_bundle.calls"] == 1
    assert metrics["curvature.curvature_bundle.nodes"] == 256
    assert metrics["curvature.potential_derivatives.calls"] == 1
    assert metrics["charts.diff_array.calls"] > 0
