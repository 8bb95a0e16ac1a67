"""Curvature assembly and stabilized scalar curvature.

The bundle path is the standard coordinate one: metric derivatives give
Christoffel symbols, their derivatives give the Ricci tensor, and the
trace gives scalar curvature, all with the chart stencils.  On top of
that sit the potential operators for a weight exponent phi and the
stabilized scalar curvature

    S = -2 lap(phi) - |grad(phi)|^2 + R,

which is the scalar curvature the warped product over phi sees in the
fiber-count limit.  `warped_residual` checks the finite-fiber statement
directly by assembling the product metric on an extended chart and
comparing its scalar curvature with the dimensional-reduction formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import (PERIODIC, ChartGrid, ScalarField, TensorField,
                     gradient_and_hessian, integrate,
                     inverse_and_determinant, make_chart, restrict)


@dataclass(frozen=True)
class CurvatureBundle:
    """Christoffel symbols, Ricci tensor and scalar curvature of a metric."""

    grid: ChartGrid
    metric: TensorField
    inverse: np.ndarray       # g^{ij} per node
    volume: ScalarField       # sqrt(det g), the density `integrate` reads
    christoffel: np.ndarray   # Gamma^k_{ij} per node, symmetric in (i, j)
    ricci: TensorField
    scalar: ScalarField


def curvature_bundle(metric: TensorField) -> CurvatureBundle:
    """Assemble Christoffels, Ricci and R from metric stencil derivatives.

    Ricci is contracted from the fully lowered Riemann tensor (second
    metric derivatives plus lowered Christoffel products) rather than
    from derivatives of the Christoffel field: near chart degeneracies
    such as lat-long polar collars the Christoffels blow up while the
    lowered products stay tame, and this form keeps the error bounded
    there instead of amplifying it by inverse metric factors.

    Assembly is component-major: G[i, j], I[k, l], DG[i, j, a], gamma[k,
    i, j] (`christoffel` is its node-indexed view), each i < k, l < m
    Riemann block and Ric[k, m] are one contiguous grid-shaped array
    each; a lowered bracket d_i g_lj + d_j g_il - d_l g_ij is formed
    once per (i, j). DG goes once Gamma is built; d2g (per unordered
    axis pair, no d^4 array) and G after the Riemann loop. Gamma sums
    over l and Ric_km = g^{il} R_iklm over i then l, from zero; Riemann
    adds its products over n then p: a generic einsum's order over the
    dense arrays, so all match it bit for bit; keep the order. Ricci
    goes node-major and contiguous before R's einsum: nditer reorders
    strided sums.
    """
    grid = metric.grid
    d = grid.dim
    g = metric.values
    sym_gap = np.max(np.abs(g - np.swapaxes(g, -1, -2)))
    if sym_gap > 1e-12:
        raise ValueError(f"metric is not symmetric (gap {sym_gap:.3e})")
    inv, det = inverse_and_determinant(g)

    # DG[i, j, a] = d_a g_{ij}; d2g[k, l][..., i, j] = d_k d_l g_{ij}
    DG, d2g = gradient_and_hessian(g, grid)
    DG, I = _component_major(DG, 3), _component_major(inv, 2)
    gamma = np.zeros((d, d, d) + grid.shape)
    for i in range(d):
        for j in range(i, d):
            bracket = [DG[l, j, i] + DG[i, l, j] - DG[i, j, l]
                       for l in range(d)]
            for k in range(d):
                acc = gamma[k, i, j]
                for l in range(d):
                    acc += I[k, l] * bracket[l]
                acc *= 0.5
                gamma[k, j, i] = acc
    del DG, bracket

    # R_{iklm}, antisymmetric in (i, k) and in (l, m): only the i < k,
    # l < m blocks are assembled; the others follow by sign.
    G = _component_major(g, 2)
    riemann = {}
    for i in range(d):
        for k in range(i + 1, d):
            for l in range(d):
                for m in range(l + 1, d):
                    comp = 0.5 * (d2g[k, l][..., i, m] + d2g[i, m][..., k, l]
                                  - d2g[k, m][..., i, l]
                                  - d2g[i, l][..., k, m])
                    for n in range(d):
                        for p in range(d):
                            comp += G[n, p] * (
                                gamma[n, k, l] * gamma[p, i, m]
                                - gamma[n, k, m] * gamma[p, i, l])
                    riemann[i, k, l, m] = comp
    del d2g, G

    # R_{iklm} vanishes for i == k or l == m; skipping its zero product
    # changes no bit of an accumulator that starts at +0
    ric = np.zeros((d, d) + grid.shape)
    for k, m, i, l in np.ndindex(d, d, d, d):
        if i != k and l != m:
            block = riemann[min(i, k), max(i, k), min(l, m), max(l, m)]
            (np.add if (i < k) == (l < m) else np.subtract)(
                ric[k, m], I[i, l] * block, out=ric[k, m])
    ric = np.ascontiguousarray(np.moveaxis(
        0.5 * (ric + np.swapaxes(ric, 0, 1)), (0, 1), (-2, -1)))

    scal = np.einsum("...ij,...ij->...", inv, ric, optimize=False)
    return CurvatureBundle(grid, metric, inv,
                           ScalarField(grid, np.sqrt(det)),
                           np.moveaxis(gamma, (0, 1, 2), (-3, -2, -1)),
                           TensorField(grid, 2, ric),
                           ScalarField(grid, scal))


def _component_major(a: np.ndarray, rank: int) -> np.ndarray:
    """Trailing component axes moved first, as one contiguous array."""
    return np.ascontiguousarray(np.moveaxis(a, range(-rank, 0), range(rank)))


@dataclass(frozen=True)
class PotentialDerivatives:
    """First and second covariant derivatives of a scalar potential,
    with the potential itself: the one record of a weight e^phi."""

    grid: ChartGrid
    field: ScalarField        # phi as given, on grid or its full chart
    gradient: np.ndarray      # covariant components d_a phi
    gradient_sq: ScalarField  # |grad phi|^2 = g^{ab} d_a phi d_b phi
    hessian: TensorField      # D^2 phi, the ambient covariant Hessian
    laplacian: ScalarField    # trace of the Hessian against g^{ab}


def potential_derivatives(bundle: CurvatureBundle,
                          phi: ScalarField) -> PotentialDerivatives:
    """Derivatives of phi on the bundle's grid; phi may live there or on
    the full chart that grid was cut from."""
    grid = bundle.grid
    d = grid.dim
    dphi, d2phi = gradient_and_hessian(restrict(phi, grid), grid)

    hess = np.zeros(grid.shape + (d, d))
    for i in range(d):
        for j in range(i, d):
            corr = np.zeros(grid.shape)
            for k in range(d):
                corr += bundle.christoffel[..., k, i, j] * dphi[..., k]
            hess[..., i, j] = hess[..., j, i] = d2phi[i, j] - corr

    inv = bundle.inverse
    grad_sq = np.einsum("...ab,...a,...b->...", inv, dphi, dphi,
                        optimize=False)
    lap = np.einsum("...ab,...ab->...", inv, hess, optimize=False)
    return PotentialDerivatives(grid, phi, dphi,
                                ScalarField(grid, grad_sq),
                                TensorField(grid, 2, hess),
                                ScalarField(grid, lap))


def stabilized_scalar(metric: TensorField, phi: ScalarField,
                      bundle: CurvatureBundle | None = None,
                      potential: PotentialDerivatives | None = None
                      ) -> ScalarField:
    """S = -2 lap(phi) - |grad phi|^2 + R on the metric's grid."""
    if bundle is None:
        bundle = curvature_bundle(metric)
    if potential is None:
        potential = potential_derivatives(bundle, phi)
    s = (-2.0 * potential.laplacian.values
         - potential.gradient_sq.values
         + bundle.scalar.values)
    return ScalarField(metric.grid, s)


def f_functional(bundle: CurvatureBundle, phi: ScalarField,
                 stabilized: ScalarField) -> float:
    """Weighted total stabilized curvature: integral of S e^phi dvol,
    given the metric's bundle and stabilized = S of (metric, phi)."""
    weighted = ScalarField(bundle.grid,
                           stabilized.values * np.exp(phi.values))
    return integrate(weighted, bundle.volume)


@dataclass(frozen=True)
class WarpedResidual:
    residual: ScalarField   # product scalar curvature minus reduction formula
    fiber_spread: float     # max over base nodes of fiber-direction spread


FIBER_SPREAD_TOL = 1e-10
FIBER_RES = 8   # nodes along each fiber axis of the product chart


def warped_residual(metric: TensorField, phi: ScalarField,
                    fiber_count: int) -> WarpedResidual:
    """Scalar-curvature defect of the torus-fiber warped product.

    Builds g + e^{2 phi / N} (flat N-torus) on a product chart, takes its
    scalar curvature with the same stencils, and subtracts

        R - 2 lap(phi) - (N + 1)/N |grad phi|^2

    pulled up from the base.  The product fields are constant along the
    fibers, so any fiber-direction spread beyond rounding means the
    product assembly is broken and the run aborts.
    """
    base = metric.grid
    if fiber_count not in (1, 2):
        raise ValueError("fiber_count must be 1 or 2")
    if base.dim + fiber_count > 3:
        raise ValueError("base dim + fiber count exceeds the chart cap of 3")

    prod = make_chart(
        base.dim + fiber_count,
        base.resolution + (FIBER_RES,) * fiber_count,
        base.extent + (2.0 * np.pi,) * fiber_count,
        base.topology + (PERIODIC,) * fiber_count,
        origin=base.origin + (0.0,) * fiber_count)

    d = base.dim
    dp = prod.dim
    lift = base.shape + (1,) * fiber_count   # constant along the fibers
    warp = np.exp(2.0 * phi.values / fiber_count)
    vals = np.zeros(prod.shape + (dp, dp))
    vals[..., :d, :d] = metric.values.reshape(lift + (d, d))
    for a in range(d, dp):
        vals[..., a, a] = warp.reshape(lift)
    prod_scal = curvature_bundle(TensorField(prod, 2, vals)).scalar.values

    spread = float(np.ptp(prod_scal.reshape(base.shape + (-1,)), -1).max())
    if spread > FIBER_SPREAD_TOL:
        raise ValueError(f"fiber-direction spread {spread:.3e} exceeds "
                         f"{FIBER_SPREAD_TOL:.1e}; product assembly is "
                         f"inconsistent")

    bundle = curvature_bundle(metric)
    pot = potential_derivatives(bundle, phi)
    ratio = (fiber_count + 1.0) / fiber_count
    formula = (bundle.scalar.values - 2.0 * pot.laplacian.values
               - ratio * pot.gradient_sq.values)
    base_scal = prod_scal[(...,) + (0,) * fiber_count]
    return WarpedResidual(ScalarField(base, base_scal - formula), spread)

