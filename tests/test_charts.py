import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import differentiate, random_spd_metric, reduce_min
from sclab.charts import (BOUNDARY, MIN_RESOLUTION, PERIODIC, ScalarField,
                          TensorField, derivative_matrix, diff_array,
                          gradient_and_hessian, integrate,
                          inverse_and_determinant, make_chart, read_snapshot,
                          restrict, sample_field, tree_sum, write_snapshot)
from sclab.models import flat_torus, sphere_full, spherical_shell

TWO_PI = 2.0 * np.pi
EPS = np.finfo(float).eps


def circle(n, length=TWO_PI):
    return make_chart(1, (n,), (length,), PERIODIC)


def observed_orders(errors):
    return [np.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]


def volume(metric):
    """sqrt(det g) of a metric, the density `integrate` weights by."""
    det = inverse_and_determinant(metric.values)[1]
    return ScalarField(metric.grid, np.sqrt(det))


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

    @pytest.mark.parametrize("name,short", [
        ("resolution", dict(resolution=(16,))),
        ("extent", dict(extent=(1.0,))),
        ("topology", dict(topology=(PERIODIC,))),
        ("origin", dict(origin=(0.0,))),
    ])
    def test_short_axis_argument_names_it(self, name, short):
        args = dict(dim=2, resolution=(16, 16), extent=(1.0, 1.0),
                    topology=(PERIODIC, PERIODIC), origin=(0.0, 0.0))
        args.update(short)
        with pytest.raises(ValueError,
                           match=rf"expected 2 {name} entries, got 1"):
            make_chart(**args)

    def test_origin_offsets_coordinates(self):
        grid = make_chart(1, (9,), (2.0,), BOUNDARY, origin=(3.0,))
        assert grid.axis_coords(0)[0] == 3.0
        assert grid.axis_coords(0)[-1] == 5.0


class TestSlab:
    def shell(self):
        return spherical_shell(9, 8, 41, rel_width=0.3)

    def test_keeps_spacing_and_coordinates_bit_for_bit(self):
        grid, _ = self.shell()
        slab = grid.slab(2, 10, 31)
        assert slab.shape == (9, 8, 22)
        assert slab.spacing == grid.spacing
        assert slab.offset == (0, 0, 10)
        assert slab.full_chart == grid
        assert np.array_equal(slab.axis_coords(2),
                              grid.axis_coords(2)[10:32])
        for full, cut in zip(grid.coords(), slab.coords()):
            assert np.array_equal(full[..., 10:32], cut)
        assert np.array_equal(slab.cell_weights(),
                              grid.cell_weights()[..., 10:32])
        assert np.array_equal(slab.interior_mask(),
                              grid.interior_mask()[..., 10:32])
        assert slab.halo_rows(2) == (0, 21)
        assert slab.halo_rows(0) == ()

    def test_clips_at_chart_ends_and_pads_to_the_minimum(self):
        grid, _ = self.shell()
        low = grid.slab(2, -1, 4)
        assert (low.offset[2], low.shape[2]) == (0, MIN_RESOLUTION)
        assert low.halo_rows(2) == (MIN_RESOLUTION - 1,)
        high = grid.slab(2, 38, 41)
        assert (high.offset[2], high.shape[2]) == (33, MIN_RESOLUTION)
        assert high.halo_rows(2) == (0,)
        mid = grid.slab(2, 20, 22)
        assert mid.shape[2] == MIN_RESOLUTION
        assert mid.offset[2] <= 20 and mid.offset[2] + 7 >= 22
        assert grid.slab(2, -1, 41) is grid

    def test_dropping_the_cut_axis_gives_the_full_slice_grid(self):
        grid, _ = self.shell()
        slab = grid.slab(2, 10, 31)
        assert slab.drop_axis(2) == grid.drop_axis(2)
        wall = slab.drop_axis(0)
        assert wall.offset == (0, 10)
        assert wall.full_chart == grid.drop_axis(0)

    def test_rejects_periodic_axes_and_slabs_of_slabs(self):
        grid, _ = self.shell()
        with pytest.raises(ValueError, match="boundary axis"):
            grid.slab(1, 0, 3)
        with pytest.raises(ValueError, match="full chart"):
            grid.slab(2, 10, 31).slab(2, 2, 12)

    def test_restrict_slices_parent_fields_and_rejects_others(self):
        grid, metric = self.shell()
        slab = grid.slab(2, 10, 31)
        view = restrict(metric, slab)
        assert np.shares_memory(view, metric.values)
        assert np.array_equal(view, metric.values[:, :, 10:32])
        on_slab = TensorField(slab, 2, view)
        assert restrict(on_slab, slab) is on_slab.values
        other = grid.slab(2, 0, 21)
        with pytest.raises(ValueError, match="different ambient grid"):
            restrict(on_slab, other)
        with pytest.raises(ValueError, match="different ambient grid"):
            restrict(ScalarField(circle(16), np.zeros(16)), slab)


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

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("data", ["random", "huge", "signed-zeros"])
    def test_periodic_stencil_matches_rolled_formula(self, dim, data):
        # the stencil written as whole-array rolls, operation for
        # operation: results and the sign bits of zeros must agree
        grid = make_chart(dim, (8, 9, 10)[:dim], (1.0, 2.0, 3.0)[:dim],
                          PERIODIC)
        rng = np.random.default_rng(dim)
        v = rng.standard_normal(grid.shape + (dim, dim))
        if data == "huge":
            v *= 1e307
        if data == "signed-zeros":
            v = np.where(v < 0.0, -0.0, 0.0)
            v[rng.random(v.shape) < 0.2] = 1.5
        for axis in range(dim):
            h = grid.spacing[axis]
            up = np.roll(v, -1, axis=axis)
            dn = np.roll(v, 1, axis=axis)
            with np.errstate(over="ignore", invalid="ignore"):
                wants = {1: (up - dn) / (2.0 * h),
                         2: (up - 2.0 * v + dn) / (h * h)}
                for order, want in wants.items():
                    got = diff_array(v, grid, axis, order)
                    assert np.array_equal(got, want, equal_nan=True)
                    assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_hessian_pairs_difference_the_held_gradient(self):
        grid = make_chart(3, (8, 9, 10), (1.0, 2.0, 3.0),
                          (PERIODIC, BOUNDARY, PERIODIC))
        v = random_spd_metric(grid, 2).values
        first, second = gradient_and_hessian(v, grid)
        assert first.shape == v.shape + (3,)
        assert sorted(second) == [(a, b) for a in range(3) for b in range(3)]
        for a in range(3):
            assert np.array_equal(first[..., a], diff_array(v, grid, a, 1))
            assert np.array_equal(second[a, a], diff_array(v, grid, a, 2))
            for b in range(a + 1, 3):
                assert second[b, a] is second[a, b]
                assert np.array_equal(
                    second[a, b],
                    diff_array(diff_array(v, grid, a, 1), grid, b, 1))

    @pytest.mark.parametrize("grid", [
        make_chart(1, (9,), (1.0,), BOUNDARY),
        make_chart(1, (10,), (2.0,), PERIODIC),
        make_chart(2, (9, 12), (1.0, 2.0), (BOUNDARY, PERIODIC)),
        make_chart(3, (8, 9, 10), (1.0, 2.0, 3.0),
                   (PERIODIC, BOUNDARY, BOUNDARY)),
        # the cut rows 0 and 7 of axis 0 take the one-sided stencil
        make_chart(3, (20, 9, 8), (1.0, 2.0, 3.0),
                   (BOUNDARY, PERIODIC, BOUNDARY)).slab(0, 5, 12),
    ], ids=["boundary-1d", "periodic-1d", "2d", "3d", "slab"])
    def test_derivative_matrix_applies_the_first_derivative(self, grid):
        u = np.random.default_rng(grid.dim).standard_normal(grid.shape)
        for axis in range(grid.dim):
            want = diff_array(u, grid, axis, 1)
            got = derivative_matrix(grid, axis) @ u.ravel()
            assert np.abs(got.reshape(grid.shape) - want).max() \
                <= 1e-12 * np.abs(want).max()

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
        assert integrate(one, volume(metric)) == pytest.approx(1.0,
                                                               abs=1e-13)

    def test_boundary_axes_use_trapezoid_weights(self):
        grid = make_chart(2, (9, 17), (1.0, 1.0), BOUNDARY)
        metric = sample_field(
            grid, lambda x1, x2: np.broadcast_to(np.eye(2), x1.shape + (2, 2)),
            rank=2)
        one = sample_field(grid, lambda x1, x2: np.ones_like(x1))
        assert integrate(one, volume(metric)) == pytest.approx(1.0,
                                                               abs=1e-13)

    def test_sphere_area(self):
        # closed-form area of the unit sphere
        grid, metric = sphere_full(65, 128)
        one = sample_field(grid, lambda t, p: np.ones_like(t))
        area = integrate(one, volume(metric))
        assert abs(area - 4.0 * np.pi) / (4.0 * np.pi) < 1e-3

    def test_rejects_a_volume_on_another_grid(self):
        grid, metric = flat_torus((16, 16))
        _, other_metric = flat_torus((16, 24))
        one = sample_field(grid, lambda x1, x2: np.ones_like(x1))
        with pytest.raises(ValueError, match="different grids"):
            integrate(one, volume(other_metric))

    def test_bit_identical_across_memory_layouts(self):
        rng = np.random.default_rng(7)
        grid, metric = flat_torus((32, 48))
        vals = rng.normal(size=grid.shape)
        a = integrate(ScalarField(grid, vals), volume(metric))
        b = integrate(ScalarField(grid, np.asfortranarray(vals)),
                      volume(metric))
        assert a == b

    def test_tree_sum_matches_math_sum(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=1000)
        assert tree_sum(vals) == pytest.approx(float(np.sum(vals)),
                                               rel=1e-12)
        assert tree_sum(np.zeros(0)) == 0.0


def _near_singular_2d():
    # condition numbers from about 20 up to 2e8
    delta = np.logspace(-1, -8, 64).reshape(8, 8)
    g = np.ones((8, 8, 2, 2))
    g[..., 0, 1] = g[..., 1, 0] = 1.0 - delta
    return g


def _near_rank_one_3d():
    # v v^T + e I: condition numbers up to about 6e6, where the
    # cofactor sums cancel hardest
    rng = np.random.default_rng(5)
    v = rng.standard_normal((8, 8, 3))
    e = np.logspace(-1, -6, 64).reshape(8, 8, 1, 1)
    return v[..., :, None] * v[..., None, :] + e * np.eye(3)


def _diagonal_3d():
    rng = np.random.default_rng(4)
    return np.eye(3) * np.exp(rng.uniform(-6.0, 6.0, (8, 9, 10, 3)))[
        ..., None, :]


def _nonsymmetric(d):
    # strictly diagonally dominant with a positive diagonal, so every
    # leading minor is positive
    rng = np.random.default_rng(6 + d)
    return np.eye(d) + (0.4 / d) * rng.uniform(-1.0, 1.0, (8, 9, d, d))


KERNEL_CASES = {
    "random-1d": lambda: random_spd_metric(circle(16), 1).values,
    "random-2d": lambda: random_spd_metric(
        make_chart(2, (16, 12), (1.0, 1.0), PERIODIC), 2).values,
    "random-3d": lambda: random_spd_metric(
        make_chart(3, (8, 9, 10), (1.0, 1.0, 1.0), PERIODIC), 3).values,
    "spherical-shell": lambda: spherical_shell(9, 12, 9,
                                               rel_width=0.3)[1].values,
    "diagonal": _diagonal_3d,
    "near-singular-2d": _near_singular_2d,
    "near-rank-one-3d": _near_rank_one_3d,
    "nonsymmetric-2d": lambda: _nonsymmetric(2),
    "nonsymmetric-3d": lambda: _nonsymmetric(3),
}


class TestInverseAndDeterminant:
    """The closed-form kernel against LAPACK's inv and det.

    Per node, with k the 2-norm condition number of the block: LAPACK's
    LU route has residual and relative forward error of order eps k.
    The kernel sums products of entries, and for a positive-definite
    block those products reach about k^(d-1) times det g (each is at
    most prod g_ii <= lambda_max^d), so its determinant, and through it
    g g^-1 - I, carry relative rounding error up to a small multiple of
    eps k^(d-1).  Every bound below is 8 d eps max(k, k^(d-1)).
    """

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_matches_lapack_within_conditioning(self, case):
        g = KERNEL_CASES[case]()
        d = g.shape[-1]
        inv, det = inverse_and_determinant(g)
        kappa = np.linalg.cond(g)
        bound = 8 * d * EPS * np.maximum(kappa, kappa ** (d - 1))
        residual = np.abs(g @ inv - np.eye(d)).max(axis=(-2, -1))
        assert np.all(residual <= bound)
        ref = np.linalg.inv(g)
        gap = (np.abs(inv - ref).max(axis=(-2, -1))
               / np.abs(ref).max(axis=(-2, -1)))
        assert np.all(gap <= bound)
        ref_det = np.linalg.det(g)
        assert np.all(np.abs(det - ref_det) <= bound * ref_det)

    def test_one_dimensional_blocks_are_exact(self):
        g = KERNEL_CASES["random-1d"]()
        inv, det = inverse_and_determinant(g)
        assert np.array_equal(det, g[..., 0, 0])
        assert np.array_equal(inv[..., 0, 0], 1.0 / g[..., 0, 0])

    def test_diagonal_blocks_keep_exact_zeros(self):
        g = _diagonal_3d()
        inv, _ = inverse_and_determinant(g)
        off = ~np.eye(3, dtype=bool)
        assert not np.any(inv[..., off])

    def test_symmetric_blocks_give_symmetric_inverses(self):
        g = KERNEL_CASES["random-3d"]()
        inv, _ = inverse_and_determinant(g)
        assert np.array_equal(inv, np.swapaxes(inv, -1, -2))

    @pytest.mark.parametrize("block, node, order", [
        ([[0.0]], (5,), 1),
        ([[1.0, 1.0], [1.0, 1.0]], (3, 6), 2),
        ([[-1.0, 0.0], [0.0, -1.0]], (7, 0), 1),
        ([[1.0, 0.0, 0.9], [0.0, 1.0, 0.9], [0.9, 0.9, 1.0]], (2, 5, 1), 3),
        ([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1e-300]],
         (0, 7, 3), 3),
    ])
    def test_non_positive_minor_raises_naming_the_node(self, block, node,
                                                       order):
        # singular, negative-definite with det > 0, and indefinite blocks
        # at one node of an otherwise Euclidean grid
        d = len(block)
        g = np.broadcast_to(np.eye(d), (8,) * d + (d, d)).copy()
        g[node] = block
        with pytest.raises(ValueError) as info:
            inverse_and_determinant(g)
        assert f"at node {node} (order-{order} leading minor" in \
            str(info.value)


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

    def test_renamed_record_names_path_and_record(self, tmp_path):
        grid = make_chart(2, (8, 12), (1.0, TWO_PI), PERIODIC)
        path = tmp_path / "state.snap"
        write_snapshot(path, grid, {})
        path.write_text(path.read_text().replace("\ndim ", "\ndims ", 1))
        with pytest.raises(ValueError, match=r"state\.snap: snapshot: "
                                             r"expected 'dim' record, "
                                             r"got 'dims 2'"):
            read_snapshot(path)

    @pytest.mark.parametrize("mark,extra,expected", [
        ("extent ", 3, "the 'extent' record"),        # inside a line
        ("resolution 8 12\n", 0, "the 'extent' record"),    # at its end
        ("field metric 2\n", 200, "more values of field 'metric'"),
    ], ids=["header-mid-line", "header-line-end", "values"])
    def test_truncated_file_names_path_and_record(self, tmp_path, mark,
                                                  extra, expected):
        # a cut must raise a ValueError, not run the line iterator dry
        grid = make_chart(2, (8, 12), (1.0, TWO_PI), PERIODIC)
        g = TensorField(grid, 2, np.ones(grid.shape + (2, 2)))
        path = tmp_path / "state.snap"
        write_snapshot(path, grid, {"metric": g})
        text = path.read_text()
        path.write_text(text[:text.index(mark) + len(mark) + extra])
        with pytest.raises(ValueError, match=rf"state\.snap: snapshot is "
                                             rf"truncated: expected .*"
                                             rf"{expected}"):
            read_snapshot(path)

    @pytest.mark.parametrize("record,short", [
        ("extent", "extent 1"), ("topology", "topology periodic")])
    def test_short_axis_record_names_it(self, tmp_path, record, short):
        grid = make_chart(2, (8, 12), (1.0, TWO_PI), PERIODIC)
        path = tmp_path / "state.snap"
        write_snapshot(path, grid, {})
        lines = path.read_text().split("\n")
        at = next(k for k, line in enumerate(lines)
                  if line.startswith(record + " "))
        lines[at] = short
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError,
                           match=rf"state\.snap: snapshot: expected 2 "
                                 rf"{record} entries, got 1"):
            read_snapshot(path)
