"""Stability-operator assembly, principal eigenpairs, lapse residuals.

Oracles, independent of the assembly under test:
  - a 5-point Laplacian built here from Kronecker products,
  - the annulus drift-free Robin problem whose principal pair is
    (0, u = s) exactly: u' = u/s holds at both walls for u = s,
  - separation of variables on the flat strip with Robin datum b on
    both walls: u = cosh(m(x - 1/2)) with m tanh(m/2) = b, lambda=-m^2,
  - dense generalized eigensolves at small node counts.
"""

import dataclasses
import traceback

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from helpers import box_bundle_foliation, dense_principal_eigenvalue, \
    drift_coefficients, drift_problem, patch_every_binding
from sclab import charts, curvature, spectral
from sclab.charts import (BOUNDARY, PERIODIC, ScalarField, TensorField,
                          make_chart, restrict, sample_field, tree_sum)
from sclab.hypersurface import (
    boundary_trace_identity,
    embed_graph,
    gauss_identity_sides,
    make_graph_foliation,
    weighted_area_variation,
)
from sclab.models import (
    _diag_metric,
    cylindrical_shell,
    flat_box3,
    solid_cylinder_band,
    sphere_band,
    spherical_shell,
)
from sclab.spectral import (
    assemble_jacobi,
    lapse_residual,
    principal_eigenpair,
)

_CACHE = {}


def cached(key, build):
    if key not in _CACHE:
        _CACHE[key] = build()
    return _CACHE[key]


def flat_slice_problem(res=16, density=None):
    """Constant-height slice of the flat 3-torus."""
    grid, metric = flat_box3((res, res, res))
    emb = embed_graph(metric, lambda x, y: np.full(x.shape, np.pi),
                      graph_axis=2)
    if density is None:
        rho = ScalarField(grid, np.ones(grid.shape))
    else:
        rho = ScalarField(grid, density(*grid.coords()))
    return emb, assemble_jacobi(emb, rho)


def annulus_problem(rad_res=33, ang_res=8, r_in=0.5, r_out=1.5):
    """Flat annulus strip with the Robin data of the rotation foliation.

    The datum 1/s at the outer wall and -1/s at the inner wall makes
    u = s an exact positive eigenfunction with eigenvalue zero.
    """
    grid = make_chart(2, (rad_res, ang_res), (r_out - r_in, 2 * np.pi),
                      (BOUNDARY, PERIODIC), origin=(r_in, 0.0))
    metric = _diag_metric(grid, [1.0, 1.0])
    weight = ScalarField(grid, np.ones(grid.shape))
    robin = {(0, 0): -1.0 / r_in, (0, 1): 1.0 / r_out}
    return grid, drift_problem(grid, metric, weight, np.zeros(grid.shape),
                               robin)


def circle_problem(res=128, amplitude=0.3, potential=-1.0):
    grid = make_chart(1, (res,), (2 * np.pi,), PERIODIC)
    metric = _diag_metric(grid, [1.0])
    rho = ScalarField(grid, np.exp(amplitude * np.sin(grid.coords()[0])))
    pot = np.broadcast_to(potential, grid.shape).astype(float)
    return drift_problem(grid, metric, rho, pot, {})


def apply(problem, values):
    """The operator's action on nodal values, in the grid's shape."""
    return (problem.operator @ values.reshape(-1)).reshape(problem.grid.shape)


def inner(problem, u, v):
    """The rho-weighted inner product the operator is self-adjoint in."""
    return tree_sum(u.reshape(-1) * v.reshape(-1) * problem.mass)


def adjointness_gap(problem, seed):
    rng = np.random.default_rng(seed)
    n = problem.operator.shape[0]
    u = rng.standard_normal(n).reshape(problem.grid.shape)
    v = rng.standard_normal(n).reshape(problem.grid.shape)
    gap = abs(inner(problem, apply(problem, u), v)
              - inner(problem, u, apply(problem, v)))
    return gap, np.linalg.norm(u) * np.linalg.norm(v)


class TestAssembly:
    def test_flat_torus_slice_is_pure_laplacian(self):
        emb, prob = flat_slice_problem(16)
        n = 16
        h = 2 * np.pi / n
        main = sparse.diags(np.full(n, 2.0 / (h * h)))
        off = np.full(n - 1, -1.0 / (h * h))
        one = (main + sparse.diags(off, 1) + sparse.diags(off, -1)).tolil()
        one[0, n - 1] = -1.0 / (h * h)
        one[n - 1, 0] = -1.0 / (h * h)
        ref = (sparse.kron(one.tocsr(), sparse.identity(n))
               + sparse.kron(sparse.identity(n), one.tocsr())).tocsr()
        diff = prob.operator - ref
        diff.eliminate_zeros()
        assert diff.nnz == 0

    def test_equator_operator_coefficients(self):
        # ric(nu,nu) = 1 and h = 0 on the equator, so the operator is
        # the circle Laplacian shifted by -1
        grid, metric = sphere_band(65, 256)
        emb = embed_graph(metric, lambda p: np.full(p.shape, np.pi / 2),
                          graph_axis=0)
        prob = assemble_jacobi(emb, ScalarField(grid, np.ones(grid.shape)))
        s = prob.grid.coords()[0]
        u = np.cos(3 * s)
        exact = (9.0 - 1.0) * u
        h = prob.grid.spacing[0]
        # discrete second difference of cos(3s) carries its own O(h^2)
        # error; compare against the stencil's exact symbol instead
        symbol = 2.0 * (1.0 - np.cos(3 * h)) / (h * h)
        stencil = (symbol - 1.0) * u
        assert np.abs(apply(prob, u) - stencil).max() <= 1e-3
        assert np.abs(apply(prob, u) - exact).max() <= 2e-2

    def test_geometric_robin_data(self):
        # half-plane slice {angle = const} of the solid cylinder: the
        # outer wall contributes h(nu,nu) = 1/r, the inner wall -1/r_in
        grid, metric = solid_cylinder_band(17, 16, 8)
        ang = grid.axis_coords(1)[4]
        emb = embed_graph(metric, lambda s, z: np.full(s.shape, ang),
                          graph_axis=1)
        prob = assemble_jacobi(emb, ScalarField(grid, np.ones(grid.shape)))
        assert sorted(prob.robin.keys()) == [(0, 0), (0, 1)]
        assert np.abs(prob.robin[(0, 1)] - 1.0).max() <= 1e-10
        assert np.abs(prob.robin[(0, 0)] + 2.0).max() <= 1e-10

    def test_walls_reuse_the_ambient_bundle(self, bundle_grids):
        # a leaf with two chart walls: assembly builds no curvature
        # bundle of its own, not even for the wall embeddings
        grid, metric = solid_cylinder_band(17, 16, 8)
        ang = grid.axis_coords(1)[4]
        emb = embed_graph(metric, lambda s, z: np.full(s.shape, ang),
                          graph_axis=1)
        bundle_grids.clear()
        prob = assemble_jacobi(emb, ScalarField(grid, np.ones(grid.shape)))
        assert sorted(prob.robin.keys()) == [(0, 0), (0, 1)]
        assert bundle_grids == []

    def test_rejects_nonpositive_density(self):
        grid, metric = flat_box3((8, 8, 8))
        emb = embed_graph(metric, lambda x, y: np.full(x.shape, np.pi),
                          graph_axis=2)
        rho = ScalarField(grid, np.zeros(grid.shape))
        with pytest.raises(ValueError, match="positive"):
            assemble_jacobi(emb, rho)
        zero = ScalarField(emb.slice_grid, np.zeros(emb.slice_grid.shape))
        with pytest.raises(ValueError, match="density must be positive"):
            drift_problem(emb.slice_grid, emb.induced_metric, zero,
                          zero.values, {})

    def test_rejects_density_on_wrong_grid(self):
        emb, _ = flat_slice_problem(8)
        other, _ = flat_box3((10, 10, 10))
        with pytest.raises(ValueError, match="ambient"):
            assemble_jacobi(emb, ScalarField(other, np.ones(other.shape)))

    def test_rejects_missing_robin_data(self):
        grid = make_chart(2, (9, 8), (1.0, 2 * np.pi),
                          (BOUNDARY, PERIODIC))
        metric = _diag_metric(grid, [1.0, 1.0])
        weight = ScalarField(grid, np.ones(grid.shape))
        with pytest.raises(ValueError, match="missing Robin"):
            drift_problem(grid, metric, weight, np.zeros(grid.shape), {})

    def test_mixed_metric_terms_stay_weighted_self_adjoint(self):
        # a non-diagonal metric reaches the variational cross pairs,
        # next to Robin walls and a non-constant weight
        grid = make_chart(2, (13, 16), (1.0, 2 * np.pi),
                          (BOUNDARY, PERIODIC), origin=(0.5, 0.0))
        s, a = grid.coords()
        g = np.zeros(grid.shape + (2, 2))
        g[..., 0, 0] = 1.0 + 0.2 * s
        g[..., 1, 1] = s * s
        g[..., 0, 1] = g[..., 1, 0] = 0.1 * s * np.sin(a)
        prob = drift_problem(
            grid, TensorField(grid, 2, g),
            ScalarField(grid, np.exp(0.3 * s * np.cos(a))),
            np.zeros(grid.shape), {(0, 0): -1.0, (0, 1): 0.5})
        for seed in range(5):
            gap, scale = adjointness_gap(prob, seed)
            assert gap <= 1e-9 * scale

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_drift_self_adjointness(self, seed):
        # slice of T^3 with the density e^{0.2 sin x1}: the drift term
        # must stay self-adjoint in the rho-weighted inner product
        prob = cached("drift", lambda: flat_slice_problem(
            12, density=lambda x, y, z: np.exp(0.2 * np.sin(x)))[1])
        gap, scale = adjointness_gap(prob, seed)
        assert gap <= 1e-9 * scale

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_robin_self_adjointness(self, seed):
        prob = cached("annulus", lambda: annulus_problem()[1])
        gap, scale = adjointness_gap(prob, seed)
        assert gap <= 1e-9 * scale


class TestPrincipalEigenpair:
    def test_flat_torus_constants(self):
        _, prob = flat_slice_problem(16)
        pair = principal_eigenpair(prob)
        assert abs(pair.eigenvalue) <= 1e-9
        u = pair.eigenfunction.values
        assert np.ptp(u) <= 1e-9 * np.abs(u).max()
        assert abs(inner(prob, u, u) - 1.0) <= 1e-12

    def test_equator_bottom_eigenvalue(self):
        grid, metric = sphere_band(65, 512)
        emb = embed_graph(metric, lambda p: np.full(p.shape, np.pi / 2),
                          graph_axis=0)
        prob = assemble_jacobi(emb, ScalarField(grid, np.ones(grid.shape)))
        pair = principal_eigenpair(prob)
        assert abs(pair.eigenvalue + 1.0) <= 1e-3
        assert np.ptp(pair.eigenfunction.values) <= 1e-9

    def test_annulus_rotation_mode(self):
        # the exact discrete eigenpair (0, u = s): interior rows kill
        # linear functions, the Robin closure kills them at both walls
        grid, prob = annulus_problem()
        pair = principal_eigenpair(prob)
        assert abs(pair.eigenvalue) <= 1e-9
        s = grid.axis_coords(0)[:, None]
        ratio = pair.eigenfunction.values / s
        assert np.ptp(ratio) <= 1e-8 * ratio.max()

    def test_solid_cylinder_slice_lambda_zero(self):
        # geometric build of the same problem: Robin data come from the
        # wall curvature instead of being prescribed
        grid, metric = solid_cylinder_band(33, 16, 8)
        ang = grid.axis_coords(1)[4]
        emb = embed_graph(metric, lambda s, z: np.full(s.shape, ang),
                          graph_axis=1)
        prob = assemble_jacobi(emb, ScalarField(grid, np.ones(grid.shape)))
        pair = principal_eigenpair(prob)
        assert abs(pair.eigenvalue) <= 1e-9
        s = grid.axis_coords(0)[:, None]
        ratio = pair.eigenfunction.values / s
        assert np.ptp(ratio) <= 1e-8 * ratio.max()

    def test_strip_robin_transcendental(self):
        # both walls with datum b = 1/2; separation gives
        # u = cosh(m(x - 1/2)) with m tanh(m/2) = 1/2, lambda = -m^2
        m_root = brentq(lambda m: m * np.tanh(m / 2) - 0.5, 1e-8, 10.0)
        exact = -m_root**2
        errs = []
        for n in (65, 257):
            grid = make_chart(2, (n, 8), (1.0, 2 * np.pi),
                              (BOUNDARY, PERIODIC))
            metric = _diag_metric(grid, [1.0, 1.0])
            weight = ScalarField(grid, np.ones(grid.shape))
            prob = drift_problem(grid, metric, weight, np.zeros(grid.shape),
                                 {(0, 0): 0.5, (0, 1): 0.5})
            errs.append(abs(principal_eigenpair(prob).eigenvalue - exact))
        assert errs[0] <= 1e-4
        assert np.log(errs[0] / errs[1]) / np.log(4.0) >= 1.9

    def test_circle_drift_matches_dense_oracle(self):
        prob = circle_problem(128)
        pair = principal_eigenpair(prob)
        assert abs(pair.eigenvalue - dense_principal_eigenvalue(prob)) <= 1e-8

    def test_nonconstant_mode_matches_dense_oracle(self):
        # an angular potential well forces a genuinely nonconstant
        # principal eigenfunction
        grid = make_chart(1, (128,), (2 * np.pi,), PERIODIC)
        metric = _diag_metric(grid, [1.0])
        s = grid.coords()[0]
        rho = ScalarField(grid, np.exp(0.3 * np.sin(s)))
        prob = drift_problem(grid, metric, rho, -1.0 + 0.5 * np.cos(s), {})
        pair = principal_eigenpair(prob)
        assert np.ptp(pair.eigenfunction.values) > 0.1
        assert abs(pair.eigenvalue - dense_principal_eigenvalue(prob)) <= 1e-8

    def test_positivity_across_corpus(self):
        problems = [flat_slice_problem(12)[1], annulus_problem()[1],
                    circle_problem(64)]
        for prob in problems:
            pair = principal_eigenpair(prob)
            assert pair.eigenfunction.values.min() > 0.0

    def test_shift_equivariance(self):
        # the identity shift is exact in the matrix, so eigenvalues
        # move by exactly that constant
        prob = circle_problem(128)
        base = principal_eigenpair(prob)
        eye = sparse.identity(prob.operator.shape[0], format="csr")
        shifted = principal_eigenpair(dataclasses.replace(
            prob, operator=prob.operator + 0.37 * eye,
            potential=prob.potential + 0.37))
        assert abs(shifted.eigenvalue - base.eigenvalue - 0.37) <= 1e-10

    def test_nonconvergence_reports_residual(self):
        _, prob = annulus_problem()
        with pytest.raises(RuntimeError, match="did not converge"):
            principal_eigenpair(prob, max_iterations=2)

    @pytest.mark.parametrize("count", [0, -3])
    def test_rejects_fewer_than_one_iteration(self, count):
        # a zero cap once reached the error message with no residual
        with pytest.raises(ValueError, match=f"got {count}"):
            principal_eigenpair(circle_problem(16), max_iterations=count)

    def test_dense_oracle_cap(self):
        grid = make_chart(2, (64, 64), (1.0, 1.0), PERIODIC)
        metric = _diag_metric(grid, [1.0, 1.0])
        weight = ScalarField(grid, np.ones(grid.shape))
        prob = drift_problem(grid, metric, weight, np.zeros(grid.shape), {})
        with pytest.raises(ValueError, match="1024"):
            dense_principal_eigenvalue(prob)


def zero_field(grid):
    return ScalarField(grid, np.zeros(grid.shape))


def radial_foliation(chart, res_pair, window):
    grid, metric = chart(*res_pair)
    times = grid.axis_coords(2)[window]
    heights = [lambda a, b, t=t: np.full(a.shape, t) for t in times]
    return make_graph_foliation(metric, times, heights, zero_field(grid),
                                graph_axis=2)


def walled_warped_foliation(n):
    """phi = 0 slices z = t of dx^2 + dy^2 + 2e dx dy + a(x, y)^2 dz^2
    between walls x = const, y and z periodic: totally geodesic leaves
    (mu = 0) that meet the walls orthogonally, whose lapse is a, not
    constant, and whose induced metric couples the wall axis to y."""
    grid = make_chart(3, (n, n, n), (2.0, 2 * np.pi, 2 * np.pi),
                      (BOUNDARY, PERIODIC, PERIODIC), origin=(0.3, 0.0, 0.0))

    def warped(x, y, z):
        g = np.zeros(x.shape + (3, 3))
        g[..., 0, 0] = g[..., 1, 1] = 1.0
        g[..., 0, 1] = g[..., 1, 0] = 0.1 * np.sin(x + y)
        g[..., 2, 2] = (1.0 + 0.2 * np.sin(x) * np.cos(y)) ** 2
        return g

    times = grid.axis_coords(2)[n // 4:n // 4 + 3]
    return make_graph_foliation(
        sample_field(grid, warped, rank=2), times,
        [lambda x, y, t=t: np.full(x.shape, t) for t in times],
        zero_field(grid), graph_axis=2)


class TestLapseResidual:
    def test_parallel_flat_slices(self):
        grid, metric = flat_box3((12, 12, 12))
        times = grid.axis_coords(2)[3:10]
        fol = make_graph_foliation(
            metric, times,
            [lambda x, y, t=t: np.full(x.shape, t) for t in times],
            zero_field(grid), graph_axis=2)
        check = lapse_residual(fol)
        assert max(np.abs(r.values).max() for r in check.residuals) <= 1e-9
        assert np.abs(check.mu).max() <= 1e-9
        assert check.mu_spread.max() <= 1e-9

    @pytest.mark.parametrize("chart,expected_h2", [
        (lambda l, r: spherical_shell(l, 12, r, rel_width=0.3), 2.0),
        (lambda l, r: cylindrical_shell(l, 8, r, rel_width=0.5), 1.0),
    ], ids=["spheres", "cylinders"])
    def test_concentric_model_foliations(self, chart, expected_h2):
        # f = 1: the Jacobi equation reduces to |h|^2 = -mu'(t), exact
        # for spheres (2/t^2) and cylinders (1/t^2)
        errs = []
        for lat, rad in ((17, 17), (33, 33)):
            fol = radial_foliation(chart, (lat, rad), slice(2, rad - 2))
            check = lapse_residual(fol)
            assert check.mu_spread.max() <= 1e-10
            t0 = check.times[0]
            assert abs(check.mu[0] - expected_h2 / t0) <= 1e-10
            mid = len(check.times) // 2
            errs.append(np.abs(check.residuals[mid].values).max())
        assert errs[1] <= 5e-3
        assert np.log2(errs[0] / errs[1]) >= 1.8

    def test_reads_phi_derivatives_off_the_foliation(self, monkeypatch):
        # phi's ambient derivatives and the curvature bundle come with
        # the foliation; the lapse check differentiates only the lapse
        # and the induced metric's coefficients, with chart stencils
        fol = radial_foliation(
            lambda l, r: spherical_shell(l, 12, r, rel_width=0.3),
            (17, 17), slice(2, 15))

        def forbidden(*args):
            raise AssertionError("the lapse check differentiated a field")

        for real in (curvature.curvature_bundle,
                     curvature.potential_derivatives):
            patch_every_binding(monkeypatch, real, forbidden)
        assert len(lapse_residual(fol).residuals) == len(fol.slices)

    def test_converges_next_to_walls_the_metric_couples(self):
        # the exact lapse solves the Jacobi equation with mu' = 0 and
        # the free-boundary condition; both residuals, wall rows
        # included, fall at second order although the induced metric
        # couples the wall axis to the periodic one
        errs, robin_errs = [], []
        for n in (12, 24):
            fol = walled_warped_foliation(n)
            check = lapse_residual(fol)
            assert np.ptp(fol.lapse[1].values) >= 0.3
            assert sorted(check.robin[1]) == [(0, 0), (0, 1)]
            errs.append(np.abs(check.residuals[1].values).max())
            robin_errs.append(max(np.abs(r).max()
                                  for r in check.robin[1].values()))
        grid = fol.log_density.grid
        datum = assemble_jacobi(fol.slices[1],
                                ScalarField(grid, np.ones(grid.shape))).robin
        assert min(np.abs(b).max() for b in datum.values()) >= 0.1
        assert errs[1] <= 2e-3 and robin_errs[1] <= 5e-4
        assert np.log2(errs[0] / errs[1]) >= 1.8
        assert np.log2(robin_errs[0] / robin_errs[1]) >= 1.8

    def test_eigenpair_converges_next_to_walls_the_metric_couples(self):
        # the middle leaf's exact principal pair is (0, its lapse); the
        # assembled cross-term rows miss the operator by O(1/h) within
        # two nodes of the walls, yet lambda_1 falls at second order
        # and the eigenfunction closes in on the lapse
        values, gaps = [], []
        for n in (12, 24, 48):
            fol = walled_warped_foliation(n)
            grid = fol.log_density.grid
            pair = principal_eigenpair(assemble_jacobi(
                fol.slices[1], ScalarField(grid, np.ones(grid.shape))))
            lapse = fol.lapse[1].values / np.linalg.norm(fol.lapse[1].values)
            u = pair.eigenfunction.values
            values.append(pair.eigenvalue)
            gaps.append(np.abs(u / np.linalg.norm(u) - lapse).max()
                        / lapse.max())
        assert 0.0 < values[-1] <= 1e-4
        assert all(np.log2(values[k] / values[k + 1]) >= 1.8
                   for k in range(2))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_leaves_leaning_on_a_wall_name_the_contact_node(self):
        # tilted planes of flat space are minimal, so the foliation
        # passes the constant-mu check; they meet the walls x = const
        # at an angle, and the lapse check reads the walls' Robin data
        grid = make_chart(3, (9, 8, 16), (1.0, 2 * np.pi, 2 * np.pi),
                          (BOUNDARY, PERIODIC, PERIODIC))
        metric = _diag_metric(grid, [1.0, 1.0, 1.0])
        times = grid.axis_coords(2)[5:9]
        fol = make_graph_foliation(
            metric, times,
            [lambda x, y, t=t: t + 0.1 * x for t in times],
            zero_field(grid), graph_axis=2)
        with pytest.raises(ValueError, match=r"chart wall \(axis 0, side "
                                             r"0\) at slice node \(0, 0\) "
                                             r"with contact residual"):
            lapse_residual(fol)

    def test_flags_non_cmc_foliation(self):
        grid, metric = cylindrical_shell(128, 16, 17, z_len=np.pi / 4,
                                         rel_width=0.5)
        times = grid.axis_coords(2)[6:13]
        fol = make_graph_foliation(
            metric, times,
            [lambda a, z, t=t: t + 0.2 * np.sin(a) for t in times],
            zero_field(grid), graph_axis=2)
        with pytest.raises(ValueError, match="not a constant"):
            lapse_residual(fol)


def leaf_strand(fol, rho, middle):
    """Every leaf-strand output of a foliation, as plain arrays."""
    check = lapse_residual(fol)
    var = weighted_area_variation(fol)
    leaf = fol.slices[middle]
    pair = principal_eigenpair(assemble_jacobi(leaf, rho))
    traces = boundary_trace_identity(leaf, fol.log_density)
    out = {"mu": check.mu, "area": var.area, "area_rate": var.area_rate,
           "variation": var.variation, "eigenvalue": pair.eigenvalue,
           "eigenfunction": pair.eigenfunction.values}
    for k, residual in enumerate(check.residuals):
        out[f"lapse_residual_{k}"] = residual.values
    for (axis, side), face in traces.items():
        out[f"trace_{axis}_{side}"] = np.stack([face.lhs, face.rhs])
    return out


class TestAmbientSlab:
    """Leaves read curvature on the slab of rows they need plus a halo,
    and every output equals the whole-chart bundle's bit for bit."""

    C = 0.3

    def shell(self):
        grid, metric = spherical_shell(17, 16, 33, rel_width=0.3)
        phi = ScalarField(grid, self.C * grid.coords()[2] ** 2)
        return grid, metric, phi, ScalarField(grid, np.exp(phi.values))

    @pytest.mark.parametrize("radii,cut", [
        ((0.96, 1.0075, 1.04), (True, True)),     # inside the shell
        ((0.7, 0.73, 0.76), (False, True)),       # clipped at the low end
        ((0.7, 1.0, 1.3), (False, False)),        # spanning: whole chart
    ], ids=["inside", "low-end", "spanning"])
    def test_slab_outputs_equal_the_box_bundle(self, radii, cut):
        grid, metric, phi, rho = self.shell()
        heights = [lambda t, p, r=r: np.full(t.shape, r) for r in radii]
        fol = make_graph_foliation(metric, radii, heights, phi,
                                   graph_axis=2)
        slab = fol.slices[0].ambient_grid
        last = slab.resolution[2] - 1
        assert slab.full_chart == grid
        assert slab.halo_rows(2) == tuple(
            row for row, is_cut in zip((0, last), cut) if is_cut)
        assert (slab == grid) == (cut == (False, False))
        assert all(emb.ambient_grid == slab for emb in fol.slices)
        ref = box_bundle_foliation(metric, radii, heights, phi, 2)
        for k, (emb, box) in enumerate(zip(fol.slices, ref.slices)):
            assert np.array_equal(fol.weighted_H[k].values,
                                  ref.weighted_H[k].values)
            assert np.array_equal(fol.lapse[k].values, ref.lapse[k].values)
            assert np.array_equal(emb.mean_curvature.values,
                                  box.mean_curvature.values)
        got, want = leaf_strand(fol, rho, 1), leaf_strand(ref, rho, 1)
        assert got.keys() == want.keys()
        for name in want:
            assert np.array_equal(got[name], want[name]), name

    def test_tilted_leaves_on_a_generic_metric_equal_the_box_bundle(self):
        # cross terms and a non-constant height reach every Christoffel
        # symbol and Hessian entry; the contact residual rules out the
        # Jacobi operator here, the rest of the strand is compared
        grid, metric = spherical_shell(17, 16, 33, rel_width=0.3)
        t, p, r = grid.coords()
        g = metric.values * (1.0 + 0.1 * np.sin(t) * np.cos(p) * r)[
            ..., None, None]
        g[..., 0, 2] = g[..., 2, 0] = 0.02 * np.cos(t) * np.sin(p)
        metric = TensorField(grid, 2, g)
        phi = ScalarField(grid, 0.3 * r * r + 0.1 * np.sin(t + p))
        rho = ScalarField(grid, np.exp(phi.values))
        times = (0.95, 1.0, 1.05)
        heights = [lambda t, p, c=c: c + 0.02 * np.sin(p) * np.cos(t)
                   for c in times]
        fol = make_graph_foliation(metric, times, heights, phi,
                                   graph_axis=2)
        slab = fol.slices[0].ambient_grid
        assert slab.halo_rows(2) == (0, slab.resolution[2] - 1)
        ref = box_bundle_foliation(metric, times, heights, phi, 2)
        var, ref_var = (weighted_area_variation(f) for f in (fol, ref))
        assert np.array_equal(var.area, ref_var.area)
        assert np.array_equal(var.variation, ref_var.variation)
        leaf, box = fol.slices[1], ref.slices[1]
        for a, b in zip(gauss_identity_sides(leaf, rho, ScalarField(
                leaf.slice_grid, np.ones(leaf.slice_grid.shape))),
                gauss_identity_sides(box, rho, ScalarField(
                    box.slice_grid, np.ones(box.slice_grid.shape)))):
            assert np.array_equal(a.values, b.values)
        traces = boundary_trace_identity(leaf, phi)
        for key, face in boundary_trace_identity(box, phi).items():
            assert np.array_equal(traces[key].lhs, face.lhs)
            assert np.array_equal(traces[key].rhs, face.rhs)

    def test_benchmark_shell_builds_one_slab_bundle(self, monkeypatch):
        # 41 x 80 x 41 shell, leaves r = 1.0075 + 0.07 k: the radial
        # interpolation reads rows 11..30, so the one 3-d bundle of a
        # whole leaf strand has 20 + 2 halo rows
        grid, metric = spherical_shell(41, 80, 41, rel_width=0.3)
        phi = ScalarField(grid, self.C * grid.coords()[2] ** 2)
        rho = ScalarField(grid, np.exp(phi.values))
        radii = tuple(1.0075 + 0.07 * k for k in range(-2, 3))
        real, shapes = curvature.curvature_bundle, []

        def recording(metric):
            shapes.append(metric.grid.shape)
            return real(metric)

        patch_every_binding(monkeypatch, real, recording)
        fol = make_graph_foliation(
            metric, radii,
            [lambda t, p, r=r: np.full(t.shape, r) for r in radii], phi,
            graph_axis=2)
        lapse_residual(fol)
        weighted_area_variation(fol)
        principal_eigenpair(assemble_jacobi(fol.slices[2], rho))
        assert [s for s in shapes if len(s) == 3] == [(41, 80, 22)]

    def test_sampling_a_halo_row_names_the_slice_node(self):
        grid, metric, phi, _ = self.shell()
        radii = (0.96, 1.0075, 1.04)
        fol = make_graph_foliation(
            metric, radii,
            [lambda t, p, r=r: np.full(t.shape, r) for r in radii], phi,
            graph_axis=2)
        leaf = fol.slices[1]
        slab = leaf.ambient_grid
        rows = slab.axis_coords(2)
        height = np.full(leaf.slice_grid.shape, rows[3])
        height[4, 9] = rows[0] + 0.25 * slab.spacing[2]
        with pytest.raises(ValueError, match=r"halo row 0 .*slice node "
                                             r"\(4, 9\)"):
            embed_graph(leaf.ambient_metric,
                        ScalarField(leaf.slice_grid, height.copy()),
                        graph_axis=2, bundle=leaf.ambient_bundle)
        height[4, 9] = rows[-2] + 0.5 * slab.spacing[2]
        with pytest.raises(ValueError, match=rf"halo row {rows.size - 1} "
                                             r".*slice node \(4, 9\)"):
            embed_graph(leaf.ambient_metric,
                        ScalarField(leaf.slice_grid, height.copy()),
                        graph_axis=2, bundle=leaf.ambient_bundle)
        height[4, 9] = rows[1]
        embed_graph(leaf.ambient_metric,
                    ScalarField(leaf.slice_grid, height.copy()),
                    graph_axis=2, bundle=leaf.ambient_bundle)


class TestWallContact:
    def test_tilted_leaf_names_the_contact_node(self):
        # angle = ang + 0.1 s leans against the radial walls: its normal
        # has a radial component there, and the inner wall comes first
        grid, metric = solid_cylinder_band(17, 16, 8)
        ang = grid.axis_coords(1)[4]
        emb = embed_graph(metric, lambda s, z: ang + 0.1 * s, graph_axis=1)
        with pytest.raises(ValueError, match=r"slice node \(0, 0\) with "
                                             r"contact residual"):
            assemble_jacobi(emb, ScalarField(grid, np.ones(grid.shape)))

    def test_leaf_tilted_along_the_wall_meets_it_orthogonally(self):
        # angle = ang + 0.1 z still contains the radial direction, so
        # it meets both radial walls at right angles: residual 0
        grid, metric = solid_cylinder_band(17, 16, 8)
        ang = grid.axis_coords(1)[4]
        emb = embed_graph(metric, lambda s, z: ang + 0.1 * z, graph_axis=1)
        prob = assemble_jacobi(emb, ScalarField(grid, np.ones(grid.shape)))
        assert sorted(prob.robin) == [(0, 0), (0, 1)]


class TestHeldInverse:
    """The Jacobi operator, the lapse check and the leaf faces read the
    inverse and the volume embed_graph keeps from its one inversion."""

    def walled_foliation(self):
        # constant-radius leaves meet the latitude walls at right angles
        grid, metric = spherical_shell(17, 16, 33, rel_width=0.3)
        phi = ScalarField(grid, 0.3 * grid.coords()[2] ** 2)
        radii = (0.96, 1.0075, 1.04)
        fol = make_graph_foliation(
            metric, radii,
            [lambda t, p, r=r: np.full(t.shape, r) for r in radii], phi,
            graph_axis=2)
        return fol, ScalarField(grid, np.exp(phi.values))

    def test_only_chart_walls_invert_their_metrics(self, monkeypatch):
        # each wall inverts its sampled 3x3 metric and its 2x2 face
        # block; a leaf face inverts only its own 1x1 length element.
        # The leaf's intrinsic bundle is its one cached inversion,
        # shared with the Gauss identity, and is built before counting
        fol, rho = self.walled_foliation()
        leaf = fol.slices[1]
        leaf.intrinsic
        real, calls = charts.inverse_and_determinant, []

        def counted(g):
            callers = {frame.name for frame in traceback.extract_stack()}
            calls.append(("chart_wall" in callers, g.shape[-1]))
            return real(g)

        patch_every_binding(monkeypatch, real, counted)
        lapse_residual(fol)
        assemble_jacobi(leaf, rho)
        wall = [(True, 3), (True, 2)]
        assert calls == wall * 2 * (len(fol.slices) + 1)
        calls.clear()
        assert len(boundary_trace_identity(leaf, fol.log_density)) == 2
        assert calls == ([(False, 1)] + wall) * 2

    def test_held_coefficients_equal_the_inversion_route(self):
        fol, rho = self.walled_foliation()
        leaf = fol.slices[1]
        prob = assemble_jacobi(leaf, rho)
        log_rho = ScalarField(leaf.ambient_grid, np.log(
            restrict(rho, leaf.ambient_grid)))
        hessian = curvature.potential_derivatives(leaf.ambient_bundle,
                                                  log_rho).hessian
        weight = ScalarField(leaf.slice_grid, leaf.sample(rho))
        grid, _, _, potential, robin = spectral._jacobi_coefficients(
            leaf, weight.values, hessian)
        ref = drift_problem(grid, leaf.induced_metric, weight, potential,
                            robin)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(prob.operator, part),
                                  getattr(ref.operator, part))
        assert np.array_equal(prob.mass, ref.mass)

        check = lapse_residual(fol)
        for k, emb in enumerate(fol.slices):
            weight = ScalarField(emb.slice_grid,
                                 np.exp(emb.sample(fol.log_density)))
            grid, _, _, potential, robin = spectral._jacobi_coefficients(
                emb, weight.values, fol.potential.hessian)
            value, faces = spectral._pointwise_drift_operator(
                grid, *drift_coefficients(emb.induced_metric, weight),
                potential, robin, fol.lapse[k].values)
            assert np.array_equal(check.residuals[k].values,
                                  value - check.mu_rate[k])
            assert faces.keys() == check.robin[k].keys()
            for face, residual in faces.items():
                assert np.array_equal(check.robin[k][face], residual)
