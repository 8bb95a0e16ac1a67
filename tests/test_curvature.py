"""Curvature pipeline against closed-form geometry.

Oracles are analytic throughout: round spheres, conformally flat tori,
and warped products whose curvature follows from the base potential.
Pointwise sphere checks are restricted to a fixed angular window so the
measured error sits at the same latitude on every resolution.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_curvature, random_spd_metric
from sclab.charts import (
    PERIODIC,
    ScalarField,
    TensorField,
    diff_array,
    integrate,
    inverse_and_determinant,
    make_chart,
    restrict,
    sample_field,
)
from sclab.curvature import (
    curvature_bundle,
    f_functional,
    potential_derivatives,
    stabilized_scalar,
    warped_residual,
)
from sclab.models import (conformal_torus, flat_torus, sphere_band,
                          sphere_full, spherical_shell)

BAND_PAD = np.pi / 8


def observed_orders(errors):
    return [np.log2(errors[k] / errors[k + 1]) for k in range(len(errors) - 1)]


def band_window(grid, cells=32):
    """Latitude mask one coarse cell inside the band on nested grids."""
    width = (np.pi - 2 * BAND_PAD) / cells
    theta = grid.coords()[0]
    lo = BAND_PAD + width - 1e-12
    hi = np.pi - BAND_PAD - width + 1e-12
    return (theta >= lo) & (theta <= hi)


def circle_metric(resolution):
    grid = make_chart(1, (resolution,), (2 * np.pi,), (PERIODIC,))
    metric = sample_field(grid, lambda x: np.ones(x.shape + (1, 1)), rank=2)
    return grid, metric


class TestCurvatureBundle:
    def test_flat_torus_is_exactly_flat(self):
        grid, metric = flat_torus((16, 16))
        bundle = curvature_bundle(metric)
        assert not np.any(bundle.christoffel)
        assert not np.any(bundle.ricci.values)
        assert not np.any(bundle.scalar.values)

    def test_sphere_band_scalar_value(self):
        grid, metric = sphere_band(65, 16)
        bundle = curvature_bundle(metric)
        gap = np.abs(bundle.scalar.values - 2.0)
        assert np.max(gap[band_window(grid)]) < 2e-2

    def test_sphere_band_scalar_order(self):
        errors = []
        for lat in (33, 65, 129):
            grid, metric = sphere_band(lat, 16)
            bundle = curvature_bundle(metric)
            gap = np.abs(bundle.scalar.values - 2.0)
            errors.append(np.max(gap[band_window(grid)]))
        assert min(observed_orders(errors)) > 1.9

    def test_sphere_band_ricci_matches_metric(self):
        # unit round sphere: ric = g componentwise
        grid, metric = sphere_band(65, 16)
        bundle = curvature_bundle(metric)
        gap = np.abs(bundle.ricci.values - metric.values)
        gap = np.max(gap, axis=(-2, -1))
        assert np.max(gap[band_window(grid)]) < 3e-2

    def test_conformal_torus_order(self):
        # g = exp(2u) delta with u = a sin x1 gives R = 2a sin(x1) exp(-2u)
        errors = []
        for n in (32, 64, 128):
            grid, metric, u = conformal_torus((n, n))
            bundle = curvature_bundle(metric)
            x1 = grid.coords()[0]
            exact = 2 * 0.1 * np.sin(x1) * np.exp(-2 * u.values)
            errors.append(np.max(np.abs(bundle.scalar.values - exact)))
        assert min(observed_orders(errors)) > 1.9

    def test_scaling_covariance_is_exact(self):
        # c^2 g multiplies every stencil input by a power of two, so
        # ric is reproduced bit for bit and R picks up the exact factor
        for grid, metric in (sphere_band(33, 16)[:2], conformal_torus((32, 32))[:2]):
            scaled = TensorField(grid, 2, 4.0 * metric.values)
            base = curvature_bundle(metric)
            big = curvature_bundle(scaled)
            assert np.array_equal(big.ricci.values, base.ricci.values)
            assert np.array_equal(4.0 * big.scalar.values, base.scalar.values)

    def test_rejects_asymmetric_metric(self):
        grid, metric = flat_torus((8, 8))
        values = metric.values.copy()
        values[..., 0, 1] = 0.1
        with pytest.raises(ValueError, match="symmetr"):
            curvature_bundle(TensorField(grid, 2, values))

    def test_non_positive_determinant_aborts(self):
        # the bundle's one inversion is where its volume density comes
        # from, so a degenerate node stops the bundle, not an integral
        grid, metric = circle_metric(8)
        vals = metric.values.copy()
        vals[3, 0, 0] = 0.0
        with pytest.raises(ValueError, match=r"node \(3,\)"):
            curvature_bundle(TensorField(grid, 2, vals))

    def test_volume_is_the_root_determinant(self):
        grid, metric = sphere_full(17, 16)
        det = inverse_and_determinant(metric.values)[1]
        volume = curvature_bundle(metric).volume
        assert volume.grid == grid
        assert (volume.values == np.sqrt(det)).all()

    def test_rejects_indefinite_metric(self):
        grid, metric = flat_torus((8, 8))
        values = metric.values.copy()
        values[3, 4, 1, 1] = -1.0
        with pytest.raises(ValueError, match=r"\(3, 4\)"):
            curvature_bundle(TensorField(grid, 2, values))

    @pytest.mark.parametrize("matrix, order", [
        ([[1.0, 2.0], [2.0, 1.0]], 2),
        ([[1.0, 0.0, 0.9], [0.0, 1.0, 0.9], [0.9, 0.9, 1.0]], 3),
    ])
    def test_negative_leading_minor_names_node_and_order(self, matrix, order):
        # positive diagonal, positive lower minors, one bad node
        d = order
        grid = make_chart(d, (8,) * d, (1.0,) * d, (PERIODIC,) * d)
        values = np.broadcast_to(np.eye(d), grid.shape + (d, d)).copy()
        node = (3, 5, 1)[:d]
        values[node] = matrix
        with pytest.raises(ValueError) as info:
            inverse_and_determinant(values)
        assert f"at node {node}" in str(info.value)
        assert f"order-{order} leading minor" in str(info.value)


class TestDenseReference:
    """curvature_bundle agrees bit for bit with the dense Riemann path."""

    @pytest.mark.parametrize("resolution", [(64, 64), (33, 65)])
    def test_random_2d_metric(self, resolution):
        grid = make_chart(2, resolution, (2 * np.pi, 2 * np.pi),
                          (PERIODIC, PERIODIC))
        self._check(random_spd_metric(grid, seed=sum(resolution)))

    @pytest.mark.parametrize("randomize", [False, True])
    def test_spherical_shell(self, randomize):
        grid, metric = spherical_shell(9, 12, 9, rel_width=0.3)
        if randomize:
            metric = random_spd_metric(grid, seed=3)
        self._check(metric)

    def test_flat_torus(self):
        # exact zeros: their sign bits must match too
        self._check(flat_torus((8, 8))[1])

    def test_random_shell_slab(self):
        # the shell-leaves case: a cut radial slab with a halo row at
        # each end, its metric a strided view of the full chart's
        grid, _ = spherical_shell(9, 12, 20, rel_width=0.3)
        slab = grid.slab(2, 5, 12)
        assert slab.halo_rows(2) == (0, slab.resolution[2] - 1)
        metric = random_spd_metric(grid, seed=7)
        self._check(TensorField(slab, 2, restrict(metric, slab)))

    @staticmethod
    def _check(metric):
        bundle = curvature_bundle(metric)
        gamma, ric, scal = dense_curvature(metric)
        for got, want in ((bundle.christoffel, gamma),
                          (bundle.ricci.values, ric),
                          (bundle.scalar.values, scal)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_bundle_peak_memory_per_node():
    """No d^4 array: the bundle's peak stays under 150 doubles a node."""
    grid, metric = spherical_shell(21, 40, 21, rel_width=0.3)
    tracemalloc.start()
    try:
        curvature_bundle(metric)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 8 / grid.node_count < 150


class TestPotentialDerivatives:
    def test_constant_potential_vanishes(self):
        grid, metric = flat_torus((16, 16))
        bundle = curvature_bundle(metric)
        phi = sample_field(grid, lambda x1, x2: np.full_like(x1, 1.7))
        pot = potential_derivatives(bundle, phi)
        assert not np.any(pot.gradient)
        assert not np.any(pot.gradient_sq.values)
        assert not np.any(pot.hessian.values)
        assert not np.any(pot.laplacian.values)

    def test_flat_torus_sine_potential(self):
        grid, metric = flat_torus((64, 64))
        bundle = curvature_bundle(metric)
        phi = sample_field(grid, lambda x1, x2: np.sin(x1))
        pot = potential_derivatives(bundle, phi)
        x1 = grid.coords()[0]
        assert np.max(np.abs(pot.laplacian.values + np.sin(x1))) < 2e-3
        assert np.max(np.abs(pot.gradient_sq.values - np.cos(x1) ** 2)) < 5e-3
        assert np.max(np.abs(pot.hessian.values[..., 0, 0] + np.sin(x1))) < 2e-3

    def test_sphere_band_laplacian_order(self):
        # Laplacian of cos(theta) on the unit sphere is -2 cos(theta)
        errors = []
        for lat in (33, 65, 129):
            grid, metric = sphere_band(lat, 16)
            bundle = curvature_bundle(metric)
            phi = sample_field(grid, lambda th, ph: np.cos(th))
            pot = potential_derivatives(bundle, phi)
            theta = grid.coords()[0]
            gap = np.abs(pot.laplacian.values + 2 * np.cos(theta))
            errors.append(np.max(gap[band_window(grid)]))
        assert min(observed_orders(errors)) > 1.9

    def test_hessian_is_exactly_symmetric(self):
        grid, metric, _ = conformal_torus((32, 32))
        bundle = curvature_bundle(metric)
        phi = sample_field(grid, lambda x1, x2: np.sin(x1) * np.cos(2 * x2))
        pot = potential_derivatives(bundle, phi)
        hess = pot.hessian.values
        assert np.array_equal(hess[..., 0, 1], hess[..., 1, 0])


class TestStabilizedScalar:
    def test_constant_potential_reduces_to_scalar(self):
        grid, metric = sphere_band(33, 16)
        bundle = curvature_bundle(metric)
        phi = sample_field(grid, lambda th, ph: np.full_like(th, 0.9))
        out = stabilized_scalar(metric, phi, bundle=bundle)
        assert np.array_equal(out.values, bundle.scalar.values)

    def test_flat_torus_order(self):
        # phi = eps sin x1 on flat T^2: S = 2 eps sin x1 - eps^2 cos^2 x1
        eps = 0.3
        errors = []
        for n in (32, 64, 128):
            grid, metric = flat_torus((n, n))
            phi = sample_field(grid, lambda x1, x2: eps * np.sin(x1))
            x1 = grid.coords()[0]
            exact = 2 * eps * np.sin(x1) - eps**2 * np.cos(x1) ** 2
            out = stabilized_scalar(metric, phi)
            errors.append(np.max(np.abs(out.values - exact)))
        assert min(observed_orders(errors)) > 1.9

    def test_sphere_band_order(self):
        # phi = c cos(theta): S = 4c cos(theta) - c^2 sin^2(theta) + 2
        c = 0.2
        errors = []
        for lat in (33, 65, 129):
            grid, metric = sphere_band(lat, 16)
            phi = sample_field(grid, lambda th, ph: c * np.cos(th))
            theta = grid.coords()[0]
            exact = 4 * c * np.cos(theta) - c**2 * np.sin(theta) ** 2 + 2
            out = stabilized_scalar(metric, phi)
            gap = np.abs(out.values - exact)
            errors.append(np.max(gap[band_window(grid)]))
        assert min(observed_orders(errors)) > 1.9

    def test_invariant_under_constant_shift(self):
        grid, metric = sphere_band(33, 16)
        phi = sample_field(grid, lambda th, ph: 0.2 * np.cos(th))
        shifted = ScalarField(grid, phi.values + 5.0)
        gap = stabilized_scalar(metric, shifted).values - stabilized_scalar(metric, phi).values
        assert np.max(np.abs(gap)) < 1e-12


def f_of(metric, phi):
    """F of (metric, phi) through the metric's own bundle."""
    bundle = curvature_bundle(metric)
    return f_functional(bundle, phi,
                        stabilized_scalar(metric, phi, bundle=bundle))


class TestFFunctional:
    def test_flat_zero_potential_is_zero(self):
        grid, metric = flat_torus((16, 16))
        phi = sample_field(grid, lambda x1, x2: np.zeros_like(x1))
        assert f_of(metric, phi) == 0.0

    def test_sphere_matches_total_curvature(self):
        # F(g, 0) = int R dA = 8 pi on the unit sphere
        grid, metric = sphere_full(65, 128)
        phi = sample_field(grid, lambda th, ph: np.zeros_like(th))
        value = f_of(metric, phi)
        assert abs(value - 8 * np.pi) / (8 * np.pi) < 1e-2

    def test_flat_metric_dirichlet_route(self):
        # on flat metrics F equals int |grad phi|^2 e^phi, computed here
        # from raw differences without touching the curvature pipeline
        gaps = []
        for n in (32, 64, 128):
            grid, metric = flat_torus((n, n))
            phi = sample_field(grid, lambda x1, x2: 0.3 * np.sin(x1) + 0.2 * np.cos(x2))
            d1 = diff_array(phi.values, grid, 0, 1)
            d2 = diff_array(phi.values, grid, 1, 1)
            dirichlet = ScalarField(grid, (d1**2 + d2**2) * np.exp(phi.values))
            value = f_of(metric, phi)
            gaps.append(abs(value - integrate(
                dirichlet, curvature_bundle(metric).volume)))
        assert gaps[-1] < 5e-3
        assert min(observed_orders(gaps)) > 1.8

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(-1.5, 1.5, allow_nan=False),
        b=st.floats(-1.5, 1.5, allow_nan=False),
    )
    def test_nonnegative_on_flat_metrics(self, a, b):
        grid, metric = flat_torus((32, 32))
        phi = sample_field(grid, lambda x1, x2: a * np.sin(x1) + b * np.cos(x2))
        value = f_of(metric, phi)
        assert value >= -1e-9 * (1 + a * a + b * b)


class TestWarpedResidual:
    def test_constant_potential_is_exact(self):
        grid, metric = flat_torus((32, 32))
        phi = sample_field(grid, lambda x1, x2: np.full_like(x1, 0.37))
        out = warped_residual(metric, phi, 1)
        assert not np.any(out.residual.values)
        assert out.fiber_spread == 0.0

    @pytest.mark.parametrize("fibers", [1, 2])
    def test_circle_base_order(self, fibers):
        errors = []
        for n in (64, 128, 256):
            grid, metric = circle_metric(n)
            phi = sample_field(grid, lambda x: 0.2 * np.sin(x))
            out = warped_residual(metric, phi, fibers)
            assert out.fiber_spread < 1e-10
            errors.append(np.max(np.abs(out.residual.values)))
        assert min(observed_orders(errors)) > 1.9

    def test_torus_base_order(self):
        errors = []
        for n in (32, 64, 128):
            grid, metric = flat_torus((n, n))
            phi = sample_field(grid, lambda x1, x2: 0.1 * np.sin(x1) * np.cos(x2))
            out = warped_residual(metric, phi, 1)
            errors.append(np.max(np.abs(out.residual.values)))
        assert min(observed_orders(errors)) > 1.9

    def test_rejects_excess_dimension(self):
        grid, metric = flat_torus((8, 8))
        phi = sample_field(grid, lambda x1, x2: np.sin(x1))
        with pytest.raises(ValueError, match="chart cap"):
            warped_residual(metric, phi, 2)
