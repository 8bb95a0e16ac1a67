"""Release gates: one test per shipped guarantee, with runtime budgets.

Every numbered check prints a single PASS line when its assertions and
its wall-clock budget both hold (run with -s or read captured output);
a failure surfaces as the usual pytest report for exactly that number.
Tolerances are the shipped contract, not aspirations: closed-form
model spaces decide correctness, dyadic refinements decide orders, an
exhaustive cycle enumeration decides the systole search, and byte
comparison across process reruns and thread counts decides determinism.
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from helpers import ambient_weight, cli_env, constant_metric, \
    dense_principal_eigenvalue, drift_problem
from sclab.charts import PERIODIC, ScalarField, make_chart, sample_field
from sclab.curvature import curvature_bundle, f_functional, warped_residual
from sclab.flow import (
    adjoint_supersolution_residual,
    cfl_bound,
    evolution_identity_residual,
    flow_states,
    make_flow_state,
    monotonicity_report,
    profile_cfl_bound,
    profile_scalar_curvature,
    profile_states,
    round_profile,
)
from sclab.hypersurface import (
    embed_graph,
    gauss_identity_residual,
    gauss_identity_sides,
    make_graph_foliation,
)
from sclab.models import (
    TWO_PI,
    conformal_torus,
    cylindrical_shell,
    flat_box3,
    flat_torus,
    sphere_band,
    spherical_shell,
)
from sclab.spectral import (
    assemble_jacobi,
    lapse_residual,
    principal_eigenpair,
)
from sclab.systole import (
    PASS_TOL,
    DiskCylinder,
    SphereCylinder,
    equality_certificate,
    systole_sigma,
)
from test_systole import aniso_graph, brute_force_sigma

BAND_PAD = np.pi / 8


@contextmanager
def criterion(number, label, budget=None):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    if budget is not None:
        assert elapsed <= budget, (f"criterion {number} exceeded its "
                                   f"{budget:g}s budget: {elapsed:.2f}s")
    cap = "untimed" if budget is None else f"budget {budget:g}s"
    print(f"criterion {number:>2} ({label}): PASS [{elapsed:.2f}s, {cap}]")


def observed_orders(errs):
    return [float(np.log2(errs[k] / errs[k + 1]))
            for k in range(len(errs) - 1)]


def band_window(grid, cells=32):
    width = (np.pi - 2 * BAND_PAD) / cells
    theta = grid.coords()[0]
    return (theta >= BAND_PAD + width - 1e-12) \
        & (theta <= np.pi - BAND_PAD - width + 1e-12)


def ones_on(grid):
    return ScalarField(grid, np.ones(grid.shape))


def zeros_on(grid):
    return ScalarField(grid, np.zeros(grid.shape))


def circle_metric(resolution):
    grid = make_chart(1, (resolution,), (TWO_PI,), (PERIODIC,))
    return grid, sample_field(grid, lambda x: np.ones(x.shape + (1, 1)),
                              rank=2)


def perturbed_torus_state(res, phi_axis=1):
    grid, metric, _ = conformal_torus((res, res), amplitude=0.1)
    phi = ScalarField(grid, 0.2 * np.sin(grid.coords()[phi_axis]))
    return make_flow_state(0.0, metric, phi)


def pointwise_forcing(state):
    gap = state.ricci_hessian_gap
    inv = state.bundle.inverse
    return 2.0 * np.einsum("...ia,...jb,...ij,...ab->...",
                           inv, inv, gap, gap, optimize=False)


def test_01_flat_stationarity():
    with criterion(1, "flat stationarity", budget=1.0):
        grid, metric = flat_torus((32, 32))
        phi = ScalarField(grid, np.full(grid.shape, 0.3))
        state = make_flow_state(0.0, metric, phi)
        assert np.abs(state.stabilized.values).max() <= 1e-12
        assert abs(f_functional(state.bundle, phi,
                                state.stabilized)) <= 1e-10
        states = tuple(flow_states(state, 1.0e-3, 10))
        for a, b in zip(states, states[1:]):
            assert np.abs(b.metric.values - a.metric.values).max() <= 1e-12
            assert np.abs(b.phi.values - a.phi.values).max() <= 1e-12


def test_02_sphere_curvature_and_flow():
    with criterion(2, "sphere curvature and flow", budget=10.0):
        errs = []
        for lat in (33, 65, 129):
            grid, metric = sphere_band(lat, 16)
            gap = np.abs(curvature_bundle(metric).scalar.values - 2.0)
            errs.append(float(gap[band_window(grid)].max()))
        assert min(observed_orders(errs)) >= 1.9

        p = round_profile(33)
        horizon = 0.2
        steps = int(np.ceil(horizon / (0.5 * profile_cfl_bound(p))))
        profiles = tuple(profile_states(p, horizon / steps, steps))
        for q in profiles[:: max(1, steps // 16)] + (profiles[-1],):
            expect = 2.0 / (1.0 - 2.0 * q.t)
            rel = np.abs(profile_scalar_curvature(q) - expect).max() / expect
            assert rel <= 1e-2


def test_03_warped_product_relation():
    with criterion(3, "warped product relation", budget=30.0):
        grid, metric = flat_torus((32, 32))
        phi = ScalarField(grid, np.full(grid.shape, 0.37))
        assert np.abs(warped_residual(metric, phi, 1).residual.values).max() \
            <= 1e-10
        for fibers in (1, 2):
            errs = []
            for n in (64, 128, 256):
                grid, metric = circle_metric(n)
                phi = sample_field(grid, lambda x: 0.2 * np.sin(x))
                out = warped_residual(metric, phi, fibers)
                errs.append(float(np.abs(out.residual.values).max()))
            assert min(observed_orders(errs)) >= 1.9


def test_04_gauss_identity():
    with criterion(4, "Gauss identity", budget=30.0):
        grid, metric = flat_box3((16, 16, 16))
        emb = embed_graph(metric, lambda x, y: np.full(x.shape, np.pi),
                          graph_axis=2)
        res = gauss_identity_residual(
            emb, ambient_weight(emb, zeros_on(grid)), ones_on(emb.slice_grid))
        assert np.abs(res.values).max() <= 1e-9

        lhs_err, rhs_err = [], []
        for lat in (33, 65, 129):
            grid, metric = sphere_band(lat, 16)
            emb = embed_graph(metric,
                              lambda ph: np.full_like(ph, np.pi / 2),
                              graph_axis=0)
            lhs, rhs = gauss_identity_sides(
                emb, ambient_weight(emb, zeros_on(grid)),
                ones_on(emb.slice_grid))
            lhs_err.append(float(np.abs(lhs.values + 2.0).max()))
            rhs_err.append(float(np.abs(rhs.values + 2.0).max()))
        assert min(observed_orders(lhs_err)) >= 1.9
        assert min(observed_orders(rhs_err)) >= 1.9

        errs = []
        for n in (16, 32, 64):
            grid, metric = flat_box3((n, n, n))
            emb = embed_graph(metric, lambda a, b: 0.05 * np.sin(a) + np.pi,
                              graph_axis=2)
            phi = sample_field(grid, lambda x1, x2, x3: 0.2 * np.sin(x2))
            u = sample_field(emb.slice_grid,
                             lambda a, b: 1 + 0.1 * np.cos(a))
            res = gauss_identity_residual(emb, ambient_weight(emb, phi), u)
            errs.append(float(np.abs(res.values).max()))
        assert min(observed_orders(errs)) >= 1.8


def test_05_jacobi_spectra():
    with criterion(5, "Jacobi spectra", budget=10.0):
        grid, metric = flat_box3((16, 16, 16))
        emb = embed_graph(metric, lambda x, y: np.full(x.shape, np.pi),
                          graph_axis=2)
        flat_pair = principal_eigenpair(assemble_jacobi(emb, ones_on(grid)))
        assert abs(flat_pair.eigenvalue) <= 1e-9

        grid, metric = sphere_band(65, 512)
        emb = embed_graph(metric, lambda p: np.full(p.shape, np.pi / 2),
                          graph_axis=0)
        equator_pair = principal_eigenpair(
            assemble_jacobi(emb, ones_on(grid)))
        assert abs(equator_pair.eigenvalue + 1.0) <= 1e-3

        grid = make_chart(1, (128,), (TWO_PI,), PERIODIC)
        s = grid.coords()[0]
        drift_prob = drift_problem(
            grid, constant_metric(grid, [[1.0]]),
            ScalarField(grid, np.exp(0.3 * np.sin(s))),
            -1.0 + 0.5 * np.cos(s), {})
        drift_pair = principal_eigenpair(drift_prob)
        assert abs(drift_pair.eigenvalue
                   - dense_principal_eigenvalue(drift_prob)) <= 1e-8

        for pair in (flat_pair, equator_pair, drift_pair):
            assert pair.eigenfunction.values.min() > 0.0


def test_06_lapse_equation():
    with criterion(6, "lapse equation", budget=10.0):
        charts = [lambda l, r: spherical_shell(l, 12, r, rel_width=0.3),
                  lambda l, r: cylindrical_shell(l, 8, r, rel_width=0.5)]
        for chart in charts:
            errs = []
            for lat, rad in ((17, 17), (33, 33)):
                grid, metric = chart(lat, rad)
                times = grid.axis_coords(2)[2:rad - 2]
                fol = make_graph_foliation(
                    metric, times,
                    [lambda a, b, t=t: np.full(a.shape, t) for t in times],
                    ScalarField(grid, np.zeros(grid.shape)), graph_axis=2)
                check = lapse_residual(fol)
                mid = len(check.times) // 2
                errs.append(float(np.abs(check.residuals[mid].values).max()))
            assert errs[-1] < errs[0]
            assert np.log2(errs[0] / errs[1]) >= 0.9


def test_07_evolution_and_adjoint_identities():
    with criterion(7, "evolution and adjoint identities", budget=60.0):
        # the budgeted workload: 200 coupled steps on the 64^2 torus
        state = perturbed_torus_state(64)
        states = tuple(flow_states(state, 0.45 * cfl_bound(state), 200))
        for s in states[::50]:
            assert pointwise_forcing(s).min() >= 0.0

        # declared order in dt is one (forward Euler): Richardson
        # differences of the residual field at a fixed grid
        fields = []
        for halvings in range(3):
            dt = 2.0e-3 / 2 ** halvings
            steps = 4 * 2 ** halvings
            tr = tuple(flow_states(perturbed_torus_state(32), dt, steps))
            mid = steps // 2
            fields.append(evolution_identity_residual(*tr[mid - 1:mid + 2],
                                                      dt))
        d1 = np.abs(fields[0] - fields[1]).max()
        d2 = np.abs(fields[1] - fields[2]).max()
        assert np.log2(d1 / d2) >= 0.9

        # declared order in h is two for the adjoint residual
        errs = []
        for n in (33, 65, 129):
            grid, metric, _ = conformal_torus((n, n), amplitude=0.1)
            x1, x2 = grid.coords()
            phi = ScalarField(grid, 0.15 * np.sin(x1) * np.cos(x2))
            res = adjoint_supersolution_residual(
                make_flow_state(0.0, metric, phi))
            errs.append(float(np.abs(res.values).max()))
        assert min(observed_orders(errs)) >= 1.8


def test_08_monotonicity_and_rigidity():
    with criterion(8, "monotonicity and rigidity", budget=60.0):
        grid, metric = flat_torus((16, 16))
        flat_state = make_flow_state(
            0.0, metric, ScalarField(grid, np.full(grid.shape, 0.25)))
        flat_report = monotonicity_report(
            flow_states(flat_state, 1.0e-3, 10), 1.0e-3)
        assert flat_report.monotone and flat_report.violations == ()
        assert flat_report.rigidity.all()

        curved_reports = []
        for axis in (0, 1):
            state = perturbed_torus_state(24, phi_axis=axis)
            dt = 0.45 * cfl_bound(state)
            curved_reports.append(monotonicity_report(
                flow_states(state, dt, 200), dt))
        p = round_profile(33)
        dt = 0.5 * profile_cfl_bound(p)
        sphere_report = monotonicity_report(profile_states(p, dt, 220), dt)
        # the sphere is reported from its own profile stencils: S and the
        # gap K a follow Hamilton's shrinking solution to the h^2 of
        # res 33, and the identity holds to the centered slope's O(dt^2)
        exact = 2.0 / (1.0 - 2.0 * sphere_report.times)
        assert np.abs(sphere_report.inf_s / exact - 1.0).max() <= 2e-3
        assert np.abs(sphere_report.gap_norms - 1.0).max() <= 1e-3
        assert np.nanmax(sphere_report.identity_residuals) <= 2e-4
        curved_reports.append(sphere_report)
        for report in curved_reports:
            assert report.monotone and report.violations == ()
            # the flag must fire exactly on the flat constant run above
            assert not report.rigidity.any()


def test_09_equality_certificates():
    with criterion(9, "equality certificates", budget=30.0):
        disk = equality_certificate(DiskCylinder(1.0, 10.0),
                                    resolution=128, connectivity=16)
        assert disk.verdict == "pass"
        assert abs(disk.lhs - TWO_PI) <= 0.02 * TWO_PI

        sphere = equality_certificate(SphereCylinder(1.0, 10.0),
                                      resolution=128)
        assert abs(sphere.lhs - 8.0 * math.pi) <= PASS_TOL * 8.0 * math.pi
        assert sphere.verdict == "pass"
        assert 0.0 < sphere.relative_gap <= 1e-2

        for axis, conn in ((0, 4), (1, 4), (0, 8), (0, 16)):
            graph = aniso_graph(8, conn, axis)
            sigma, cycle = systole_sigma(graph)
            assert sigma == brute_force_sigma(graph)
            assert len(cycle) >= 2


def test_10_determinism(tmp_path):
    with criterion(10, "determinism"):
        jobs = [
            ("curvature", ["curvature", "random-torus", "res=32", "seed=11",
                           "amplitude=0.25"], ("curvature.csv",)),
            ("flow", ["flow", "torus", "res=16", "dt=1e-3", "steps=30",
                      "snapshot_every=15"],
             ("flow.csv", "state_000015.snap", "state_000030.snap")),
            ("certify", ["certify", "all", "res=64", "connectivity=8"],
             ("certificates.txt",)),
            ("identity", ["identity", "torus", "res=16,32"],
             ("identity.csv",)),
            ("flow-sphere", ["flow", "sphere", "res=33", "dt=1e-4",
                             "steps=200"], ("flow.csv",)),
        ]
        blobs = {}
        for threads in ("1", "8"):
            for rerun in range(2):
                for name, argv, files in jobs:
                    outdir = tmp_path / f"run-{threads}-{rerun}" / name
                    outdir.mkdir(parents=True)
                    env = cli_env(SCL_OUTPUT_DIR=str(outdir),
                                  OMP_NUM_THREADS=threads,
                                  OPENBLAS_NUM_THREADS=threads,
                                  MKL_NUM_THREADS=threads)
                    proc = subprocess.run(
                        [sys.executable, "-m", "sclab.cli", *argv],
                        env=env, capture_output=True, text=True)
                    assert proc.returncode == 0, proc.stderr
                    for fname in files:
                        blobs.setdefault((name, fname), set()).add(
                            (outdir / fname).read_bytes())
        for (name, fname), versions in blobs.items():
            assert len(versions) == 1, \
                f"{name}/{fname} varies across reruns or thread counts"
