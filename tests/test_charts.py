import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import differentiate, reduce_min
from sclab.charts import (BOUNDARY, PERIODIC, ScalarField, TensorField,
                          diff_array, integrate, make_chart, read_snapshot,
                          sample_field, tree_sum, write_snapshot)
from sclab.models import flat_torus, sphere_full

TWO_PI = 2.0 * np.pi


def circle(n, length=TWO_PI):
    return make_chart(1, (n,), (length,), PERIODIC)


def observed_orders(errors):
    return [np.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]


class TestMakeChart:
    def test_periodic_spacing(self):
        grid = make_chart(2, (32, 64), (1.0, 2.0), PERIODIC)
        assert grid.spacing == (1.0 / 32, 2.0 / 64)
        assert grid.axis_coords(0)[-1] == pytest.approx(1.0 - 1.0 / 32)

    def test_boundary_spacing_includes_endpoints(self):
        grid = make_chart(1, (9,), (1.0,), BOUNDARY)
        assert grid.spacing == (0.125,)
        assert grid.axis_coords(0)[0] == 0.0
        assert grid.axis_coords(0)[-1] == 1.0

    def test_latlong_chart_has_polar_boundary_rows(self):
        grid = make_chart(2, (33, 64), (np.pi, TWO_PI),
                          (BOUNDARY, PERIODIC))
        assert grid.topology[0] == BOUNDARY
        lat = grid.axis_coords(0)
        assert lat[0] == 0.0
        assert lat[-1] == pytest.approx(np.pi)
        interior = grid.interior_mask()
        assert not interior[0].any() and not interior[-1].any()
        assert interior[1:-1].all()

    @pytest.mark.parametrize("bad", [
        dict(dim=2, resolution=(7, 16), extent=(1.0, 1.0),
             topology=PERIODIC),
        dict(dim=2, resolution=(16, 16), extent=(0.0, 1.0),
             topology=PERIODIC),
        dict(dim=2, resolution=(16, 16), extent=(1.0, 1.0),
             topology=("periodic", "moebius")),
        dict(dim=4, resolution=(16,) * 4, extent=(1.0,) * 4,
             topology=PERIODIC),
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            make_chart(**bad)

    def test_origin_offsets_coordinates(self):
        grid = make_chart(1, (9,), (2.0,), BOUNDARY, origin=(3.0,))
        assert grid.axis_coords(0)[0] == 3.0
        assert grid.axis_coords(0)[-1] == 5.0


class TestSampleField:
    def test_scalar_values(self):
        grid = circle(16)
        f = sample_field(grid, np.sin)
        assert np.allclose(f.values, np.sin(grid.axis_coords(0)))

    def test_non_finite_reports_node(self):
        grid = make_chart(1, (9,), (1.0,), BOUNDARY)
        with pytest.raises(ValueError, match=r"node \(4,\)"):
            sample_field(grid, lambda x: np.where(x == 0.5, np.inf, x))

    def test_tensor_shape_checked(self):
        grid = circle(8)
        with pytest.raises(ValueError, match="shape"):
            sample_field(grid, lambda x: np.sin(x), rank=2)

    def test_fields_are_immutable(self):
        grid = circle(8)
        f = sample_field(grid, np.sin)
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestDifferentiate:
    @pytest.mark.parametrize("order,exact", [
        (1, np.cos),
        (2, lambda x: -np.sin(x)),
    ])
    def test_periodic_convergence(self, order, exact):
        errors = []
        for n in (64, 128, 256):
            grid = circle(n)
            x = grid.axis_coords(0)
            got = diff_array(np.sin(x), grid, 0, order)
            errors.append(np.max(np.abs(got - exact(x))))
        assert all(p > 1.9 for p in observed_orders(errors))

    @pytest.mark.parametrize("order,exact", [
        (1, np.exp),
        (2, np.exp),
    ])
    def test_boundary_one_sided_convergence(self, order, exact):
        # one-sided closures at the edges must hold the global order
        errors = []
        for n in (33, 65, 129):
            grid = make_chart(1, (n,), (1.0,), BOUNDARY)
            x = grid.axis_coords(0)
            got = diff_array(np.exp(x), grid, 0, order)
            errors.append(np.max(np.abs(got - exact(x))))
        assert all(p > 1.9 for p in observed_orders(errors))

    @pytest.mark.parametrize("topology", [PERIODIC, BOUNDARY])
    @pytest.mark.parametrize("order", [1, 2])
    def test_constant_differentiates_to_bit_zero(self, topology, order):
        # 0.9 is not exactly representable; the closure must cancel it
        # structurally, not through lucky rounding of the coefficients
        grid = make_chart(1, (16,), (1.0,), topology)
        got = diff_array(np.full(16, 0.9), grid, 0, order)
        assert (got == 0.0).all()

    def test_mixed_axis_on_tensor_components(self):
        grid = make_chart(2, (64, 64), (TWO_PI, TWO_PI), PERIODIC)
        x1, x2 = grid.coords()
        vals = np.stack([np.sin(x1), np.cos(x2)], axis=-1)
        f = TensorField(grid, 1, vals)
        df = differentiate(f, 1, 1)
        assert np.max(np.abs(df.values[..., 0])) < 1e-12
        assert np.max(np.abs(df.values[..., 1] + np.sin(x2))) < 2e-3

    @given(a=st.floats(-8, 8), b=st.floats(-8, 8))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b):
        grid = circle(32)
        x = grid.axis_coords(0)
        f, g = np.sin(x), np.cos(2.0 * x)
        lhs = diff_array(a * f + b * g, grid, 0, 1)
        rhs = a * diff_array(f, grid, 0, 1) + b * diff_array(g, grid, 0, 1)
        assert np.max(np.abs(lhs - rhs)) <= 1e-11 * (1.0 + abs(a) + abs(b))

    def test_rejects_bad_axis_and_order(self):
        grid = circle(8)
        with pytest.raises(ValueError, match="axis"):
            diff_array(np.zeros(8), grid, 1, 1)
        with pytest.raises(ValueError, match="order"):
            diff_array(np.zeros(8), grid, 0, 3)


class TestIntegrate:
    def test_flat_torus_unit_volume(self):
        grid, metric = flat_torus((32, 32), lengths=(1.0, 1.0))
        one = sample_field(grid, lambda x1, x2: np.ones_like(x1))
        assert integrate(one, metric) == pytest.approx(1.0, abs=1e-13)

    def test_boundary_axes_use_trapezoid_weights(self):
        grid = make_chart(2, (9, 17), (1.0, 1.0), BOUNDARY)
        metric = sample_field(
            grid, lambda x1, x2: np.broadcast_to(np.eye(2), x1.shape + (2, 2)),
            rank=2)
        one = sample_field(grid, lambda x1, x2: np.ones_like(x1))
        assert integrate(one, metric) == pytest.approx(1.0, abs=1e-13)

    def test_sphere_area(self):
        # closed-form area of the unit sphere
        grid, metric = sphere_full(65, 128)
        one = sample_field(grid, lambda t, p: np.ones_like(t))
        area = integrate(one, metric)
        assert abs(area - 4.0 * np.pi) / (4.0 * np.pi) < 1e-3

    def test_non_positive_determinant_aborts(self):
        grid = circle(8)
        vals = np.ones(8).reshape(8, 1, 1)
        vals[3, 0, 0] = 0.0
        metric = TensorField(grid, 2, vals)
        one = sample_field(grid, np.ones_like)
        with pytest.raises(ValueError, match=r"node \(3,\)"):
            integrate(one, metric)

    def test_bit_identical_across_memory_layouts(self):
        rng = np.random.default_rng(7)
        grid, metric = flat_torus((32, 48))
        vals = rng.normal(size=grid.shape)
        a = integrate(ScalarField(grid, vals), metric)
        b = integrate(ScalarField(grid, np.asfortranarray(vals)), metric)
        assert a == b

    def test_tree_sum_matches_math_sum(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=1000)
        assert tree_sum(vals) == pytest.approx(float(np.sum(vals)),
                                               rel=1e-12)
        assert tree_sum(np.zeros(0)) == 0.0


class TestReduceMin:
    def test_sine_minimum_on_circle(self):
        grid = circle(64)
        f = sample_field(grid, np.sin)
        value, node = reduce_min(f)
        assert node == (48,)  # 3 pi / 2 lands on a node
        assert value == pytest.approx(-1.0, abs=1e-12)

    def test_tie_breaks_lexicographically(self):
        grid = make_chart(2, (8, 8), (1.0, 1.0), PERIODIC)
        vals = np.ones((8, 8))
        vals[5, 2] = -3.0
        vals[2, 6] = -3.0
        value, node = reduce_min(ScalarField(grid, vals))
        assert value == -3.0
        assert node == (2, 6)


class TestSnapshot:
    def test_round_trip_bits(self, tmp_path):
        rng = np.random.default_rng(11)
        grid = make_chart(2, (8, 12), (1.0, TWO_PI),
                          (BOUNDARY, PERIODIC), origin=(0.25, 0.0))
        phi = ScalarField(grid, rng.normal(size=grid.shape))
        g = TensorField(grid, 2, rng.normal(size=grid.shape + (2, 2)))
        path = tmp_path / "state.snap"
        write_snapshot(path, grid, {"phi": phi, "metric": g})
        grid2, fields = read_snapshot(path)
        assert grid2 == grid
        assert (fields["phi"].values == phi.values).all()
        assert (fields["metric"].values == g.values).all()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a snapshot\n")
        with pytest.raises(ValueError, match="snapshot"):
            read_snapshot(path)
