"""Graph hypersurfaces against closed-form extrinsic geometry.

The mean-curvature sign convention is pinned by round spheres (outward
normal, H = +2/r); the sinusoidal graph is checked against a symbolic
derivation of the same definition, so stencil and assembly errors
cannot hide in a convention flip.
"""

import tracemalloc

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    constant_metric,
    einsum_second_fundamental,
    patch_every_binding,
    random_spd_metric,
    reference_weighted_mean_curvature,
)
from sclab import charts
from sclab.charts import (
    BOUNDARY,
    PERIODIC,
    ScalarField,
    TensorField,
    inverse_and_determinant,
    make_chart,
    sample_field,
    tree_sum,
)
from sclab.curvature import curvature_bundle, potential_derivatives
from sclab.hypersurface import (
    boundary_trace_identity,
    chart_wall,
    embed_graph,
    gauss_identity_residual,
    gauss_identity_sides,
    make_graph_foliation,
    weighted_area,
    weighted_area_variation,
    weighted_mean_curvature,
)
from sclab.models import flat_box3, solid_cylinder_band, sphere_band, spherical_shell

BAND_PAD = np.pi / 8


def observed_orders(errors):
    return [np.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]


def band_window(grid, cells=32):
    width = (np.pi - 2 * BAND_PAD) / cells
    theta = grid.coords()[0]
    return (theta >= BAND_PAD + width - 1e-12) & (
        theta <= np.pi - BAND_PAD - width + 1e-12)


def ones_on(grid):
    return sample_field(grid, lambda *x: np.ones_like(x[0]))


def zeros_on(grid):
    return sample_field(grid, lambda *x: np.zeros_like(x[0]))


def graph_h_oracle():
    """Symbolic mean curvature of x3 = sin(x1)/20 in flat space.

    Derived from the same definition the code uses: unit normal toward
    increasing x3, h(X, Y) = g(grad_X nu, Y) = -nu . (d^2 embedding).
    """
    x = sp.symbols("x")
    w = sp.sin(x) / 20
    wx = sp.diff(w, x)
    normal_scale = sp.sqrt(1 + wx**2)
    h11 = -sp.diff(w, x, 2) / normal_scale
    g11 = 1 + wx**2
    return sp.lambdify(x, sp.simplify(h11 / g11), "numpy")


class TestEmbedGraph:
    def test_flat_coordinate_slice_is_totally_geodesic(self):
        grid, metric = flat_box3((16, 16, 16))
        emb = embed_graph(metric, lambda a, b: np.full_like(a, 3.0),
                          graph_axis=2)
        assert not np.any(emb.second_fundamental.values)
        assert not np.any(emb.mean_curvature.values)
        assert np.array_equal(emb.normal[..., 2], np.ones(emb.slice_grid.shape))

    @pytest.mark.parametrize("radius", [1.0, 1.3])
    def test_round_sphere_mean_curvature(self, radius):
        grid, metric = spherical_shell(33, 16, 9, radius)
        emb = embed_graph(metric, lambda th, ph: np.full_like(th, radius),
                          graph_axis=2)
        gap = np.abs(emb.mean_curvature.values - 2.0 / radius)
        assert np.max(gap) < 1e-12

    def test_sinusoidal_graph_matches_symbolic_oracle(self):
        exact = graph_h_oracle()
        errors = []
        for n in (16, 32, 64):
            grid, metric = flat_box3((n, n, n))
            emb = embed_graph(metric,
                              lambda a, b: 0.05 * np.sin(a) + np.pi,
                              graph_axis=2)
            a = emb.slice_grid.coords()[0]
            errors.append(np.max(np.abs(emb.mean_curvature.values - exact(a))))
        assert min(observed_orders(errors)) > 1.9

    def test_normal_is_unit_and_tangent_free(self):
        grid, metric = spherical_shell(17, 16, 9, 1.0)
        emb = embed_graph(metric,
                          lambda th, ph: 1.0 + 0.05 * np.cos(th),
                          graph_axis=2)
        g_at = emb.sample(metric)
        unit = np.einsum("...ij,...i,...j->...", g_at, emb.normal, emb.normal)
        assert np.max(np.abs(unit - 1.0)) < 1e-10
        tangency = np.einsum("...i,...ia->...a", emb.normal_covector,
                             emb.tangent_frame)
        assert np.max(np.abs(tangency)) < 1e-10

    def test_periodic_height_shift_is_invisible(self):
        # adding one full period to the height lands on the same nodes
        grid, metric = flat_box3((16, 16, 16))
        base = embed_graph(metric, lambda a, b: 1.0 + 0.05 * np.sin(a),
                           graph_axis=2)
        moved = embed_graph(metric,
                            lambda a, b: 1.0 + 2 * np.pi + 0.05 * np.sin(a),
                            graph_axis=2)
        assert np.max(np.abs(base.mean_curvature.values
                             - moved.mean_curvature.values)) < 1e-10

    def test_second_fundamental_matches_the_generic_einsum(self):
        # no Christoffel symbol vanishes on the perturbed shell, and the
        # tilted leaf makes every frame and normal component nonzero;
        # the random box embeds a graph along each of its axes
        grid, metric = perturbed_shell(17, 16, 17)
        leaves = [embed_graph(metric,
                              lambda t, p: 1.0 + 0.02 * np.sin(p) * np.cos(t),
                              graph_axis=2)]
        box = make_chart(3, (8, 9, 10), (1.0, 1.2, 1.5), BOUNDARY)
        metric = random_spd_metric(box, 5)
        leaves += [embed_graph(metric, lambda x, y, a=axis: 0.6 + 0.05
                               * np.sin(3 * x + a) * np.cos(2 * y),
                               graph_axis=axis) for axis in range(3)]
        for emb in leaves:
            assert np.array_equal(emb.second_fundamental.values,
                                  einsum_second_fundamental(emb))

    def test_rejects_graph_leaving_boundary_axis(self):
        grid, metric = solid_cylinder_band(17, 24, 8, 1.0, 2 * np.pi)
        with pytest.raises(ValueError, match="leaves the ambient chart"):
            embed_graph(metric, lambda s, al: np.full_like(s, 2.0),
                        graph_axis=0)

    def test_rejects_bad_orientation(self):
        grid, metric = flat_box3((8, 8, 8))
        with pytest.raises(ValueError, match="orientation"):
            embed_graph(metric, lambda a, b: np.full_like(a, 1.0),
                        graph_axis=2, orientation=0)

    @settings(max_examples=15, deadline=None)
    @given(a=st.floats(-1, 1, allow_nan=False), b=st.floats(-1, 1, allow_nan=False))
    def test_orientation_flip_negates_extrinsic_data(self, a, b):
        grid, metric = flat_box3((16, 16, 16))
        bundle = curvature_bundle(metric)

        def height(x1, x2):
            return np.pi + 0.1 * (a * np.sin(x1) + b * np.cos(x2))

        up = embed_graph(metric, height, graph_axis=2, orientation=1,
                         bundle=bundle)
        down = embed_graph(metric, height, graph_axis=2, orientation=-1,
                           bundle=bundle)
        assert np.array_equal(up.normal, -down.normal)
        assert np.max(np.abs(up.second_fundamental.values
                             + down.second_fundamental.values)) < 1e-12
        assert np.max(np.abs(up.mean_curvature.values
                             + down.mean_curvature.values)) < 1e-12
        assert (weighted_area(up, zeros_on(grid))
                == weighted_area(down, zeros_on(grid)))


class TestWeightedMeanCurvature:
    def test_constant_potential_reduces_to_h(self):
        grid, metric = spherical_shell(17, 16, 9, 1.0)
        emb = embed_graph(metric, lambda th, ph: np.full_like(th, 1.0),
                          graph_axis=2)
        phi = sample_field(grid, lambda *x: np.full_like(x[0], 0.8))
        wh = weighted_mean_curvature(
            emb, potential_derivatives(emb.ambient_bundle, phi))
        assert np.array_equal(wh.values, emb.mean_curvature.values)

    def test_flat_slice_normal_derivative_order(self):
        # slice x3 = pi/4 (a shared node of every resolution), with
        # phi = sin(x3)/5: weighted H = cos(pi/4)/5
        errors = []
        for n in (16, 32, 64):
            grid, metric = flat_box3((n, n, n))
            t = grid.axis_coords(2)[n // 8]
            phi = sample_field(grid, lambda x1, x2, x3: 0.2 * np.sin(x3))
            emb = embed_graph(metric, lambda a, b: np.full_like(a, t),
                              graph_axis=2)
            wh = weighted_mean_curvature(
                emb, potential_derivatives(emb.ambient_bundle, phi))
            errors.append(np.max(np.abs(wh.values - 0.2 * np.cos(t))))
        assert min(observed_orders(errors)) > 1.9

    def test_rejects_wrong_grid(self):
        grid, metric = flat_box3((8, 8, 8))
        emb = embed_graph(metric, lambda a, b: np.full_like(a, 1.0),
                          graph_axis=2)
        on_slice = potential_derivatives(
            curvature_bundle(emb.induced_metric), ones_on(emb.slice_grid))
        with pytest.raises(ValueError, match="ambient"):
            weighted_mean_curvature(emb, on_slice)


class TestGaussIdentity:
    def test_flat_slice_with_unit_weights_vanishes(self):
        grid, metric = flat_box3((16, 16, 16))
        emb = embed_graph(metric, lambda a, b: np.full_like(a, 1.0),
                          graph_axis=2)
        res = gauss_identity_residual(emb, ones_on(grid),
                                      ones_on(emb.slice_grid))
        assert np.max(np.abs(res.values)) < 1e-12

    def test_equator_pins_both_sides(self):
        # equator of the unit sphere: each side independently equals
        # -2 = -R_ambient = -2 ric(nu, nu); this is the transcription
        # check for the right-hand side of the identity
        lhs_err, rhs_err = [], []
        for lat in (33, 65, 129):
            grid, metric = sphere_band(lat, 32)
            emb = embed_graph(metric, lambda ph: np.full_like(ph, np.pi / 2),
                              graph_axis=0)
            lhs, rhs = gauss_identity_sides(emb, ones_on(grid),
                                            ones_on(emb.slice_grid))
            lhs_err.append(np.max(np.abs(lhs.values + 2.0)))
            rhs_err.append(np.max(np.abs(rhs.values + 2.0)))
        assert lhs_err[-1] < 5e-4 and rhs_err[-1] < 5e-4
        assert min(observed_orders(lhs_err)) > 1.9
        assert min(observed_orders(rhs_err)) > 1.9

    def test_generic_graph_residual_order(self):
        errors = []
        for n in (16, 32, 64):
            grid, metric = flat_box3((n, n, n))
            emb = embed_graph(metric,
                              lambda a, b: 0.05 * np.sin(a) + np.pi,
                              graph_axis=2)
            rho = sample_field(grid,
                               lambda x1, x2, x3: np.exp(0.2 * np.sin(x2)))
            u = sample_field(emb.slice_grid,
                             lambda a, b: 1 + 0.1 * np.cos(a))
            res = gauss_identity_residual(emb, rho, u)
            errors.append(np.max(np.abs(res.values)))
        assert min(observed_orders(errors)) > 1.8

    def test_rejects_nonpositive_weights(self):
        grid, metric = flat_box3((8, 8, 8))
        emb = embed_graph(metric, lambda a, b: np.full_like(a, 1.0),
                          graph_axis=2)
        bad_rho = sample_field(grid, lambda x1, x2, x3: np.cos(x1))
        with pytest.raises(ValueError, match="positive"):
            gauss_identity_residual(emb, bad_rho, ones_on(emb.slice_grid))
        bad_u = sample_field(emb.slice_grid, lambda a, b: np.cos(a))
        with pytest.raises(ValueError, match="positive"):
            gauss_identity_residual(emb, ones_on(grid), bad_u)


class TestWeightedArea:
    def test_round_sphere_collar_area(self):
        # the lat-long collar chart covers 4 pi r^2 cos(pad)
        radius = 1.3
        grid, metric = spherical_shell(33, 16, 9, radius)
        emb = embed_graph(metric, lambda th, ph: np.full_like(th, radius),
                          graph_axis=2)
        exact = 4 * np.pi * radius**2 * np.cos(BAND_PAD)
        area = weighted_area(emb, zeros_on(grid))
        assert abs(area - exact) / exact < 1e-3

    def test_flat_slice_weighted_area_is_exact(self):
        grid, metric = flat_box3((16, 16, 16))
        t = grid.axis_coords(2)[5]
        phi = sample_field(grid, lambda x1, x2, x3: 0.2 * np.sin(x3))
        emb = embed_graph(metric, lambda a, b: np.full_like(a, t),
                          graph_axis=2)
        exact = np.exp(0.2 * np.sin(t)) * (2 * np.pi) ** 2
        assert abs(weighted_area(emb, phi) - exact) / exact < 1e-13


class TestAreaVariation:
    def test_flat_parallel_slices_stationary(self):
        grid, metric = flat_box3((16, 16, 16))
        times = grid.axis_coords(2)[3:10]
        heights = [lambda a, b, t=t: np.full_like(a, t) for t in times]
        fol = make_graph_foliation(metric, times, heights, zeros_on(grid),
                                   graph_axis=2)
        var = weighted_area_variation(fol)
        assert np.max(np.abs(var.area_rate)) < 1e-9
        assert np.max(np.abs(var.variation)) < 1e-9
        assert np.max(np.abs(var.gap)) < 1e-9

    def test_flat_weighted_variation_order(self):
        # slice times sit on ambient nodes, otherwise interpolation
        # error aliases into the time derivative
        gaps = []
        for n, step in ((16, 1), (32, 2), (64, 4)):
            grid, metric = flat_box3((n, n, n))
            phi = sample_field(grid, lambda x1, x2, x3: 0.2 * np.sin(x3))
            times = grid.axis_coords(2)[3 * step:12 * step + 1]
            heights = [lambda a, b, t=t: np.full_like(a, t) for t in times]
            fol = make_graph_foliation(metric, times, heights, phi,
                                       graph_axis=2)
            var = weighted_area_variation(fol)
            gaps.append(np.max(np.abs(var.gap[1:-1])))
        assert min(observed_orders(gaps)) > 1.8

    def test_concentric_spheres_match_closed_form(self):
        grid, metric = spherical_shell(33, 16, 17, 1.0, rel_width=0.3)
        times = grid.axis_coords(2)[4:13]
        heights = [lambda th, ph, t=t: np.full_like(th, t) for t in times]
        fol = make_graph_foliation(metric, times, heights, zeros_on(grid),
                                   graph_axis=2)
        var = weighted_area_variation(fol)
        exact = 8 * np.pi * times * np.cos(BAND_PAD)
        rel = np.abs(var.area_rate[1:-1] - exact[1:-1]) / exact[1:-1]
        assert np.max(rel) < 5e-3
        # area is quadratic in the radius, so the centered difference
        # and the variation integral agree to roundoff
        assert np.max(np.abs(var.gap[1:-1])) < 1e-9

    def test_rejects_bad_foliations(self):
        grid, metric = flat_box3((8, 8, 8))
        mk = lambda t: (lambda a, b, tt=t: np.full_like(a, tt))
        with pytest.raises(ValueError, match="at least 3"):
            make_graph_foliation(metric, [0.0, 0.1], [mk(0.0), mk(0.1)],
                                 zeros_on(grid), graph_axis=2)
        with pytest.raises(ValueError, match="strictly increasing"):
            make_graph_foliation(metric, [0.0, 0.2, 0.1],
                                 [mk(0.0), mk(0.2), mk(0.1)], zeros_on(grid),
                                 graph_axis=2)
        with pytest.raises(ValueError, match="lapse"):
            make_graph_foliation(metric, [0.0, 0.1, 0.2],
                                 [mk(0.0), mk(0.1), mk(0.2)], zeros_on(grid),
                                 graph_axis=2, orientation=-1)

    def test_matches_the_inversion_route_bit_for_bit(self):
        # the leaf integrals read the embedding's induced volume; rebuilt
        # here the way integrate used to take it, from a second
        # inversion of the induced metric
        grid, metric = perturbed_shell(17, 16, 17)
        phi = sample_field(grid, lambda t, p, r: 0.3 * r * r)
        times = (0.95, 1.0, 1.05)
        heights = [lambda t, p, c=c: c + 0.02 * np.sin(p) * np.cos(t)
                   for c in times]
        fol = make_graph_foliation(metric, times, heights, phi, graph_axis=2)
        var = weighted_area_variation(fol)
        for k, emb in enumerate(fol.slices):
            root = np.sqrt(
                inverse_and_determinant(emb.induced_metric.values)[1])
            assert (emb.induced_volume.values == root).all()
            cells = emb.slice_grid.cell_weights()
            density = np.exp(emb.sample(phi))
            area = tree_sum(density * root * cells)
            assert weighted_area(emb, phi) == area == var.area[k]
            flux = fol.weighted_H[k].values * density * fol.lapse[k].values
            assert var.variation[k] == tree_sum(flux * root * cells)


def perturbed_shell(lat, lon, rad):
    """spherical_shell with a conformal bump and radial cross terms, so
    no Christoffel symbol or Hessian entry vanishes identically."""
    grid, metric = spherical_shell(lat, lon, rad, rel_width=0.3)
    t, p, r = grid.coords()
    bump = 1.0 + 0.1 * np.sin(t) * np.cos(p) * r
    g = metric.values * bump[..., None, None]
    g[..., 0, 2] = g[..., 2, 0] = 0.02 * np.cos(t) * np.sin(p)
    g[..., 1, 2] = g[..., 2, 1] = 0.03 * np.sin(2 * t) * r
    return grid, TensorField(grid, 2, g)


class TestFoliationPotential:
    def test_weighted_H_matches_the_per_leaf_formula(self):
        grid, metric = perturbed_shell(17, 16, 17)
        phi = sample_field(grid,
                           lambda t, p, r: 0.3 * r * r + 0.1 * np.sin(t + p))
        times = (0.95, 1.0, 1.05)
        heights = [lambda t, p, c=c: c + 0.02 * np.sin(p) * np.cos(t)
                   for c in times]
        fol = make_graph_foliation(metric, times, heights, phi, graph_axis=2)
        assert fol.potential.grid.full_chart == grid
        for emb, wh in zip(fol.slices, fol.weighted_H):
            assert np.array_equal(wh.values,
                                  reference_weighted_mean_curvature(emb, phi))

    def test_ambient_stencils_do_not_grow_with_leaves(self, monkeypatch):
        # phi is differentiated on the ambient grid once per foliation,
        # not once per leaf
        grid, metric = spherical_shell(9, 8, 17, rel_width=0.3)
        phi = sample_field(grid, lambda t, p, r: 0.3 * r * r)
        on_ambient = []
        real = charts.diff_array

        def recording(values, on_grid, *rest):
            on_ambient.append(on_grid.full_chart == grid)
            return real(values, on_grid, *rest)

        patch_every_binding(monkeypatch, real, recording)
        counts = []
        for leaves in (3, 5):
            times = grid.axis_coords(2)[4:4 + leaves]
            heights = [lambda t, p, c=c: np.full(t.shape, c) for c in times]
            on_ambient.clear()
            make_graph_foliation(metric, times, heights, phi, graph_axis=2)
            counts.append(sum(on_ambient))
        assert counts[0] == counts[1] > 0


class TestChartWall:
    def test_closed_form_equals_the_embedded_wall_at_on_node_contacts(self):
        # the reference embeds the whole wall as a constant graph and
        # reads it at the contact rows; the closed form samples g and
        # Gamma on the wall's node row first, and at on-node contact
        # heights both must agree on a non-diagonal metric
        grid = make_chart(3, (8, 9, 10), (1.0, 1.2, 1.5), BOUNDARY)
        metric = random_spd_metric(grid, 5)
        bundle = curvature_bundle(metric)
        i, j = np.indices((8, 9))
        rows = 3 + (i + j) % 3
        leaf = embed_graph(
            metric, ScalarField(grid.drop_axis(2), grid.axis_coords(2)[rows]),
            graph_axis=2, bundle=bundle)
        for axis in (0, 1):
            for side in (0, 1):
                wall = chart_wall(leaf, axis, side)
                coord = grid.axis_coords(axis)[-1 if side else 0]
                ref = embed_graph(
                    metric, lambda *ys: np.full(ys[0].shape, coord),
                    graph_axis=axis, orientation=1 if side else -1,
                    bundle=bundle)
                # graph axis 2 is the last axis of the wall's grid
                contact = np.take(rows, -1 if side else 0, axis=axis)
                at = (np.arange(contact.size), contact)
                assert wall.axis == axis
                for got, want in (
                        (wall.normal_covector, ref.normal_covector),
                        (wall.second_fundamental,
                         ref.second_fundamental.values),
                        (wall.mean_curvature, ref.mean_curvature.values)):
                    assert got.shape == want[at].shape
                    assert np.abs(got - want[at]).max() <= 1e-12

    def test_reads_one_row_of_the_slab_bundle(self):
        # the wall samples g and Gamma on one node row; copying the
        # bundle's whole Christoffel array to cut that row out would
        # put the peak above the array itself
        grid, metric = spherical_shell(21, 40, 21, rel_width=0.3)
        times = grid.axis_coords(2)[8:13]
        heights = [lambda t, p, c=c: np.full_like(t, c) for c in times]
        fol = make_graph_foliation(metric, times, heights, zeros_on(grid),
                                   graph_axis=2)
        emb = fol.slices[2]
        chart_wall(emb, 0, 1)
        tracemalloc.start()
        try:
            chart_wall(emb, 0, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < emb.ambient_bundle.christoffel.nbytes / 10


class TestBoundaryTrace:
    def test_flat_strip_vanishes(self):
        grid = make_chart(3, (17, 16, 16), (1.0, 2 * np.pi, 2 * np.pi),
                          (BOUNDARY, PERIODIC, PERIODIC))
        metric = constant_metric(grid, np.eye(3))
        emb = embed_graph(metric, lambda a, b: np.full_like(a, np.pi),
                          graph_axis=2)
        traces = boundary_trace_identity(emb, zeros_on(grid))
        assert set(traces) == {(0, 0), (0, 1)}
        for face in traces.values():
            assert np.max(np.abs(face.lhs)) < 1e-12
            assert np.max(np.abs(face.rhs)) < 1e-12

    def test_disk_cross_circle_walls(self):
        # annulus slice of B^2(r) x S^1: outer wall curves at +1/r on
        # both sides of the identity, inner wall at -1/(inner r)
        radius, inner = 1.0, 0.5
        grid, metric = solid_cylinder_band(17, 24, 8, radius, 2 * np.pi,
                                           inner=inner)
        emb = embed_graph(metric, lambda s, al: np.full_like(s, np.pi),
                          graph_axis=2)
        traces = boundary_trace_identity(emb, zeros_on(grid))
        outer = traces[(0, 1)]
        assert np.max(np.abs(outer.lhs - 1.0 / radius)) < 1e-10
        assert np.max(np.abs(outer.rhs - 1.0 / radius)) < 1e-10
        inner_face = traces[(0, 0)]
        assert np.max(np.abs(inner_face.lhs + 1.0 / (inner * radius))) < 1e-10
        assert np.max(np.abs(inner_face.residual)) < 1e-10

    def test_constant_log_density_drops_out(self):
        radius = 1.0
        grid, metric = solid_cylinder_band(17, 24, 8, radius, 2 * np.pi)
        emb = embed_graph(metric, lambda s, al: np.full_like(s, np.pi),
                          graph_axis=2)
        phi = sample_field(grid, lambda *x: np.full_like(x[0], 0.7))
        traces = boundary_trace_identity(emb, phi)
        for face in traces.values():
            assert np.max(np.abs(face.residual)) < 1e-10

    def test_builds_only_the_slice_bundle_once(self, bundle_grids):
        # the walls reuse the leaf's ambient bundle, and the Gauss
        # identity and the face curvatures share the leaf's one bundle
        # of the induced metric
        grid, metric = solid_cylinder_band(17, 24, 8, 1.0, 2 * np.pi)
        emb = embed_graph(metric, lambda s, al: np.full_like(s, np.pi),
                          graph_axis=2)
        bundle_grids.clear()
        u = ones_on(emb.slice_grid)
        gauss_identity_sides(emb, ones_on(grid), u)
        gauss_identity_residual(emb, ones_on(grid), u)
        traces = boundary_trace_identity(emb, zeros_on(grid))
        assert len(traces) == 2
        assert bundle_grids == [emb.slice_grid]

    def test_rejects_closed_slice(self):
        grid, metric = flat_box3((8, 8, 8))
        emb = embed_graph(metric, lambda a, b: np.full_like(a, 1.0),
                          graph_axis=2)
        with pytest.raises(ValueError, match="no boundary"):
            boundary_trace_identity(emb, zeros_on(grid))
