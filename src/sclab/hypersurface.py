"""Graph hypersurfaces inside a chart: extrinsic geometry and identities.

A hypersurface is the graph of a height field over the chart obtained by
deleting one ambient axis.  Ambient quantities are carried to the graph
by linear interpolation along that single axis (the slice coordinates
stay on-node), then differentiated on the slice grid, so every term in
an identity shares the same second-order accuracy budget.

Ambient curvature lives on a slab of the chart, not the whole box: the
graph-axis rows the graphs' interpolation reads, plus one halo row on
each side, clipped at the chart ends and widened to MIN_RESOLUTION rows
(a periodic graph axis is read whole).  A foliation builds one slab
over all its leaves, and the chart walls of a leaf live on it too.  A
halo row is one whose graph-axis stencil is one-sided only because of
the cut; every row inside the halo carries the whole chart's stencil
values bit for bit, so a sampler that would read a halo row raises
instead.  Ambient fields given on the whole chart are restricted to the
slab by `charts.restrict`.

Sign conventions: h(X, Y) = g(grad_X nu, Y), so the round sphere with
outward normal has H = +2/r, and a convex boundary circle of radius r
has curvature +1/r.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .charts import (
    BOUNDARY,
    PERIODIC,
    ChartGrid,
    ScalarField,
    TensorField,
    gradient,
    gradient_and_hessian,
    integrate,
    inverse_and_determinant,
    node_tuple,
    restrict,
    sample_field,
)
from .curvature import (
    CurvatureBundle,
    PotentialDerivatives,
    curvature_bundle,
    potential_derivatives,
)


@dataclass(frozen=True)
class GraphSampler:
    """Linear interpolation of ambient node data along one axis.

    For boundary axes the height must stay inside the node range; for
    periodic axes it wraps.  Index arrays live on the slice grid.
    """

    ambient: ChartGrid
    axis: int
    index_low: np.ndarray
    index_high: np.ndarray
    weight_high: np.ndarray

    def take(self, values: np.ndarray) -> np.ndarray:
        """Sample an ambient nodal array at the graph points.

        Trailing component axes ride along untouched.
        """
        if values.shape[:self.ambient.dim] != self.ambient.shape:
            raise ValueError(f"nodal array of shape "
                             f"{values.shape[:self.ambient.dim]} does not "
                             f"live on the {self.ambient.shape} ambient grid")
        base = np.indices(self.index_low.shape)
        rows = list(base)
        rows.insert(self.axis, self.index_low)
        low = values[tuple(rows)]
        rows[self.axis] = self.index_high
        high = values[tuple(rows)]
        w = self.weight_high.reshape(
            self.weight_high.shape + (1,) * (values.ndim - self.ambient.dim))
        return (1.0 - w) * low + w * high


def _make_sampler(ambient: ChartGrid, axis: int,
                  heights: np.ndarray) -> GraphSampler:
    h = ambient.spacing[axis]
    n = ambient.resolution[axis]
    # rows count from the slab's first one; taking the integer offset off
    # the full chart's row coordinate is exact, so the weights are the
    # full chart's bit for bit
    t = (heights - ambient.origin[axis]) / h - ambient.offset[axis]
    if ambient.topology[axis] == BOUNDARY:
        slack = 1e-9
        if np.any(t < -slack) or np.any(t > n - 1 + slack):
            nodes = ambient.axis_coords(axis)
            raise ValueError(
                f"graph leaves the ambient chart along axis {axis}: "
                f"height range [{heights.min():.6g}, {heights.max():.6g}] "
                f"vs node range [{nodes[0]:.6g}, {nodes[-1]:.6g}]")
        t = np.clip(t, 0.0, float(n - 1))
        low = np.minimum(np.floor(t).astype(int), n - 2)
        high = low + 1
        for row in ambient.halo_rows(axis):
            reads = (low == row) | (high == row)
            if reads.any():
                node = node_tuple(np.argmax(reads), reads.shape)
                raise ValueError(
                    f"graph reads halo row {row} of the ambient slab along "
                    f"axis {axis} at slice node {node} (height "
                    f"{heights[node]:.6g}); build the slab around the new "
                    "heights")
    else:
        cell = np.floor(t).astype(int)
        low = cell % n
        high = (cell + 1) % n
        t = t - np.floor(t) + low  # weight below is t - low
    return GraphSampler(ambient, axis, low, high, t - low)


def _graph_axis(grid: ChartGrid, graph_axis: int | None) -> int:
    if graph_axis is None:
        return grid.dim - 1
    if not 0 <= graph_axis < grid.dim:
        raise ValueError(f"graph axis {graph_axis} out of range for dim "
                         f"{grid.dim}")
    return graph_axis


def _height_field(slice_grid: ChartGrid, height) -> ScalarField:
    if callable(height):
        height = sample_field(slice_grid, height)
    if height.grid != slice_grid:
        raise ValueError("height field does not live on the slice grid "
                         "of the chosen graph axis")
    return height


def _slab_bundle(metric: TensorField, axis: int,
                 heights: list) -> CurvatureBundle:
    """The metric's curvature bundle on the slab that graphs of these
    heights over `axis` read (see the module docstring).  A grid that
    is already a slab is taken as it is."""
    grid = metric.grid
    ambient = grid
    if grid.topology[axis] != PERIODIC and grid.full_chart is grid:
        samplers = [_make_sampler(grid, axis, w) for w in heights]
        ambient = grid.slab(
            axis, min(int(s.index_low.min()) for s in samplers) - 1,
            max(int(s.index_high.max()) for s in samplers) + 1)
    return curvature_bundle(TensorField(ambient, 2,
                                        restrict(metric, ambient)))


@dataclass(frozen=True)
class HypersurfaceEmbedding:
    """Graph of a height field, with its first and second fundamental data.

    ambient_bundle, with its grid and metric, lives on the slab of the
    chart the graph reads (or on the whole chart); induced_volume is
    sqrt(det) of the induced metric, from its one inversion.  normal /
    normal_covector are the g-unit normal in ambient components
    (contravariant / covariant).  tangent_frame holds the pushforward
    E^i_a of the slice coordinate vectors.  boundary_normal maps a
    boundary slice axis and side (0 low, 1 high) to the outward unit
    conormal of that face inside the hypersurface, in slice components.
    """

    ambient_bundle: CurvatureBundle
    graph_axis: int
    slice_grid: ChartGrid
    graph_height: ScalarField
    sampler: GraphSampler
    tangent_frame: np.ndarray
    normal: np.ndarray
    normal_covector: np.ndarray
    induced_metric: TensorField
    induced_inverse: np.ndarray
    induced_volume: ScalarField
    second_fundamental: TensorField
    mean_curvature: ScalarField
    boundary_normal: dict

    @property
    def ambient_grid(self) -> ChartGrid:
        return self.ambient_bundle.grid

    @property
    def ambient_metric(self) -> TensorField:
        return self.ambient_bundle.metric

    @cached_property
    def intrinsic(self) -> CurvatureBundle:
        """The bundle of the induced metric, built when first read."""
        return curvature_bundle(self.induced_metric)

    def sample(self, values) -> np.ndarray:
        """Ambient nodal array, or a field on the ambient slab or on the
        full chart, sampled at the graph points."""
        if isinstance(values, (ScalarField, TensorField)):
            values = restrict(values, self.ambient_grid)
        return self.sampler.take(values)

    def sample_nn(self, tensor) -> np.ndarray:
        """Ambient 2-tensor sampled at the graph points, on (nu, nu)."""
        return np.einsum("...ij,...i,...j->...", self.sample(tensor),
                         self.normal, self.normal, optimize=False)


def embed_graph(metric: TensorField, height, graph_axis: int | None = None,
                orientation: int = 1,
                bundle: CurvatureBundle | None = None) -> HypersurfaceEmbedding:
    """Build the graph hypersurface x_axis = height(slice coordinates).

    orientation +1 points the unit normal toward increasing graph
    coordinate, -1 toward decreasing.  The ambient chart is the grid of
    `bundle`, a slab of the metric's chart or the chart itself; without
    one, the bundle is built on the slab this graph reads.
    """
    graph_axis = _graph_axis(metric.grid, graph_axis)
    if orientation not in (1, -1):
        raise ValueError(f"orientation must be +1 or -1, got {orientation}")
    if bundle is None:
        height = _height_field(metric.grid.drop_axis(graph_axis), height)
        bundle = _slab_bundle(metric, graph_axis, [height.values])
    elif bundle.grid.full_chart != metric.grid.full_chart:
        raise ValueError("curvature bundle lives on a different chart")
    grid, metric = bundle.grid, bundle.metric
    d = grid.dim

    slice_grid = grid.drop_axis(graph_axis)
    height = _height_field(slice_grid, height)
    kept = [a for a in range(d) if a != graph_axis]
    ds = d - 1

    w = height.values
    sampler = _make_sampler(grid, graph_axis, w)

    dw, d2w = gradient_and_hessian(w, slice_grid)

    frame = np.zeros(slice_grid.shape + (d, ds))
    for a, amb in enumerate(kept):
        frame[..., amb, a] = 1.0
        frame[..., graph_axis, a] = dw[..., a]

    # invert the interpolated metric rather than interpolating the
    # inverse: the two differ at off-node points, and the unit-normal
    # normalization must be consistent with g_at to machine precision
    g_at = sampler.take(metric.values)
    inv_at = inverse_and_determinant(g_at)[0]
    induced = np.einsum("...ij,...ia,...jb->...ab", g_at, frame, frame,
                        optimize=False)
    induced = TensorField(slice_grid, 2, 0.5 * (induced + np.swapaxes(induced, -1, -2)))
    induced_inv, induced_det = inverse_and_determinant(induced.values)

    co = np.zeros(slice_grid.shape + (d,))
    co[..., graph_axis] = 1.0
    for a, amb in enumerate(kept):
        co[..., amb] = -dw[..., a]
    co *= float(orientation)
    norm = np.sqrt(np.einsum("...ij,...i,...j->...", inv_at, co, co,
                             optimize=False))
    co = co / norm[..., None]
    nu = np.einsum("...ij,...j->...i", inv_at, co, optimize=False)

    unit_gap = np.abs(np.einsum("...ij,...i,...j->...", g_at, nu, nu,
                                optimize=False) - 1.0)
    tangency = np.abs(np.einsum("...i,...ia->...a", co, frame,
                                optimize=False))
    if unit_gap.max() > 1e-10 or tangency.max() > 1e-10:
        raise ValueError("unit-normal construction lost orthonormality; "
                         f"unit gap {unit_gap.max():.3e}, "
                         f"tangency {tangency.max():.3e}")

    # co_k Gamma^k_ij E^i_a E^j_b, summed over k, i, j (outer to inner)
    # from zero, each term multiplied left to right: the order of the
    # generic four-operand einsum, so the sum matches it bit for bit;
    # keep the order
    weighted = co[..., :, None, None] * sampler.take(bundle.christoffel)
    second = np.empty(slice_grid.shape + (ds, ds))
    for a in range(ds):
        for b in range(ds):
            acc = np.zeros(slice_grid.shape)
            for k in range(d):
                for i in range(d):
                    for j in range(d):
                        acc += (weighted[..., k, i, j] * frame[..., i, a]
                                * frame[..., j, b])
            second[..., a, b] = acc
    for (a, b), d2w_ab in d2w.items():
        second[..., a, b] = -(co[..., graph_axis] * d2w_ab + second[..., a, b])
    second = TensorField(slice_grid, 2,
                         0.5 * (second + np.swapaxes(second, -1, -2)))

    mean = np.einsum("...ab,...ab->...", induced_inv, second.values,
                     optimize=False)

    boundary_normal = {}
    for a in range(ds):
        if slice_grid.topology[a] != BOUNDARY:
            continue
        for side, row, sign in ((0, 0, -1.0), (1, -1, 1.0)):
            inv_face = np.moveaxis(induced_inv, a, 0)[row]
            eta = sign * inv_face[..., :, a] / np.sqrt(inv_face[..., a, a])[..., None]
            boundary_normal[(a, side)] = eta

    return HypersurfaceEmbedding(
        bundle, graph_axis, slice_grid, height, sampler, frame, nu, co,
        induced, induced_inv, ScalarField(slice_grid, np.sqrt(induced_det)),
        second, ScalarField(slice_grid, mean), boundary_normal)


def weighted_mean_curvature(emb: HypersurfaceEmbedding,
                            potential: PotentialDerivatives) -> ScalarField:
    """H + <grad phi, nu> at each graph node, with grad phi read off the
    log-density's ambient `potential_derivatives` (on the ambient slab
    or on the full chart)."""
    grad = TensorField(potential.grid, 1, potential.gradient)
    normal_part = np.einsum("...i,...i->...", emb.sample(grad),
                            emb.normal, optimize=False)
    return ScalarField(emb.slice_grid,
                       emb.mean_curvature.values + normal_part)


def second_fundamental_norm_sq(emb: HypersurfaceEmbedding) -> np.ndarray:
    h = emb.second_fundamental.values
    gi = emb.induced_inverse
    return np.einsum("...ac,...bd,...ab,...cd->...", gi, gi, h, h,
                     optimize=False)


def gauss_identity_sides(emb: HypersurfaceEmbedding, rho: ScalarField,
                         u: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Both sides of the weighted Gauss identity, evaluated separately.

    The two sides share no finite-difference work: the left side runs
    through ambient and intrinsic curvature pipelines, the right side
    through the stability-operator terms, so their agreement is a real
    cross-check rather than an algebraic tautology.
    """
    rho_amb = restrict(rho, emb.ambient_grid)
    if u.grid != emb.slice_grid:
        raise ValueError("surface weight lives on a different slice grid")
    if np.any(rho.values <= 0.0):
        raise ValueError("density must be positive on the ambient chart")
    if np.any(u.values <= 0.0):
        raise ValueError("surface weight must be positive")

    amb = emb.ambient_bundle
    log_rho = ScalarField(emb.ambient_grid, np.log(rho_amb))
    amb_pot = potential_derivatives(amb, log_rho)

    rho_s = emb.sample(rho)
    log_rho_s = np.log(rho_s)
    log_u = np.log(u.values)
    log_v = log_rho_s + log_u

    sb = emb.intrinsic
    p_v = potential_derivatives(sb, ScalarField(emb.slice_grid, log_v))
    p_u = potential_derivatives(sb, u)
    p_logu = potential_derivatives(sb, ScalarField(emb.slice_grid, log_u))
    p_logrho = potential_derivatives(sb, ScalarField(emb.slice_grid, log_rho_s))

    weighted_h = weighted_mean_curvature(emb, amb_pot).values
    h_sq = second_fundamental_norm_sq(emb)

    lhs = (-2.0 * p_v.laplacian.values
           - p_v.gradient_sq.values
           + sb.scalar.values
           - weighted_h ** 2
           + 2.0 * emb.sample(amb_pot.laplacian)
           + emb.sample(amb_pot.gradient_sq)
           - emb.sample(amb.scalar)
           - p_logu.gradient_sq.values
           - h_sq)

    ric_nn = emb.sample_nn(amb.ricci)
    hess_nn = emb.sample_nn(amb_pot.hessian)
    cross = np.einsum("...ab,...a,...b->...", sb.inverse,
                      p_logrho.gradient, p_logu.gradient, optimize=False)

    rhs = (-2.0 * p_u.laplacian.values / u.values
           - 2.0 * ric_nn * u.values
           - 2.0 * h_sq
           + hess_nn
           - cross)
    return (ScalarField(emb.slice_grid, lhs),
            ScalarField(emb.slice_grid, rhs))


def gauss_identity_residual(emb: HypersurfaceEmbedding, rho: ScalarField,
                            u: ScalarField) -> ScalarField:
    """Left minus right side of the weighted Gauss identity per node."""
    lhs, rhs = gauss_identity_sides(emb, rho, u)
    return ScalarField(emb.slice_grid, lhs.values - rhs.values)


def weighted_area(emb: HypersurfaceEmbedding, phi: ScalarField) -> float:
    """Integral of e^phi over the hypersurface in its induced metric."""
    return integrate(ScalarField(emb.slice_grid, np.exp(emb.sample(phi))),
                     emb.induced_volume)


@dataclass(frozen=True)
class GraphFoliation:
    """Family of graph hypersurfaces over a shared slice grid.

    lapse is the normal speed <nu, d/dt graph>, required positive.
    weighted_H is H + <grad phi, nu> per slice, for the log-density phi
    the foliation was built with; an unweighted foliation carries the
    zero field, which gives weighted_H = H.  potential holds phi's
    ambient derivatives on the slices' shared ambient bundle, on the one
    slab all leaves read, computed once with the foliation; every
    leaf-level check reads them here.
    """

    times: tuple
    slices: tuple
    lapse: tuple
    weighted_H: tuple
    log_density: ScalarField
    potential: PotentialDerivatives


def make_graph_foliation(metric: TensorField, times, heights,
                         phi: ScalarField, graph_axis: int | None = None,
                         orientation: int = 1) -> GraphFoliation:
    times = [float(t) for t in times]
    if len(times) != len(heights):
        raise ValueError(f"{len(times)} times against {len(heights)} heights")
    if len(times) < 3:
        raise ValueError("a foliation needs at least 3 slices")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("slice parameters must be strictly increasing")

    graph_axis = _graph_axis(metric.grid, graph_axis)
    slice_grid = metric.grid.drop_axis(graph_axis)
    heights = [_height_field(slice_grid, h) for h in heights]
    bundle = _slab_bundle(metric, graph_axis, [h.values for h in heights])
    potential = potential_derivatives(bundle, phi)
    slices = [embed_graph(metric, h, graph_axis, orientation, bundle=bundle)
              for h in heights]

    stack = np.stack([s.graph_height.values for s in slices])
    speed = np.gradient(stack, np.asarray(times), axis=0, edge_order=2)

    lapse, weighted = [], []
    for k, emb in enumerate(slices):
        f = speed[k] * emb.normal_covector[..., emb.graph_axis]
        if np.any(f <= 0.0):
            raise ValueError(f"lapse is not positive on slice {k} "
                             f"(t = {times[k]:.6g}); flip the orientation "
                             "or reorder the slices")
        lapse.append(ScalarField(emb.slice_grid, f))
        weighted.append(weighted_mean_curvature(emb, potential))
    return GraphFoliation(tuple(times), tuple(slices), tuple(lapse),
                          tuple(weighted), phi, potential)


@dataclass(frozen=True)
class AreaVariation:
    """First-variation ledger for a foliation, one entry per slice."""

    times: np.ndarray
    area: np.ndarray
    area_rate: np.ndarray       # d(weighted area)/dt by finite differences
    variation: np.ndarray       # integral of (H + <grad phi, nu>) e^phi f
    gap: np.ndarray             # area_rate - variation


def weighted_area_variation(fol: GraphFoliation) -> AreaVariation:
    """Compare the finite-difference area rate with the variation integral.

    Both sides use the foliation's own log-density and its stored
    weighted mean curvature.
    """
    phi = fol.log_density
    areas = np.array([weighted_area(s, phi) for s in fol.slices])
    rate = np.gradient(areas, np.asarray(fol.times), edge_order=2)
    variation = np.array([
        integrate(ScalarField(emb.slice_grid, wh.values
                              * np.exp(emb.sample(phi)) * f.values),
                  emb.induced_volume)
        for emb, wh, f in zip(fol.slices, fol.weighted_H, fol.lapse)])
    return AreaVariation(np.asarray(fol.times), areas, rate, variation,
                         rate - variation)


@dataclass(frozen=True)
class CoordinateFace:
    """A coordinate face {x_axis = c} at points on it: outward unit
    normal covector (all ambient components), second fundamental form
    on the face's axes, and mean curvature."""

    axis: int
    normal_covector: np.ndarray
    second_fundamental: np.ndarray
    mean_curvature: np.ndarray


def _coordinate_face(metric: np.ndarray, inverse: np.ndarray,
                     christoffel: np.ndarray, axis: int,
                     side: int) -> CoordinateFace:
    """The face through the first (side 0) or last (side 1) row of an
    axis, from g, the caller's g^-1 and Gamma at points of it: N_axis =
    +-1/sqrt(g^{axis axis}), h_bc = -N_axis Gamma^axis_bc, H = (g|face)^{bc}
    h_bc, which is embed_graph's constant graph (no height derivatives)."""
    face = [i for i in range(metric.shape[-1]) if i != axis]
    n_axis = (1.0 if side else -1.0) / np.sqrt(inverse[..., axis, axis])
    co = np.zeros(metric.shape[:-1])
    co[..., axis] = n_axis
    second = -(n_axis[..., None, None]
               * christoffel[..., axis, :, :][..., face, :][..., face])
    face_inv = inverse_and_determinant(metric[..., face, :][..., face])[0]
    mean = np.einsum("...ab,...ab->...", face_inv, second, optimize=False)
    return CoordinateFace(axis, co, second, mean)


def chart_wall(emb: HypersurfaceEmbedding, axis: int,
               side: int) -> CoordinateFace:
    """The chart wall through one boundary face of the slice grid, read
    in closed form where the hypersurface meets it: g (the wall's own,
    inverted here) and Gamma on the wall's node row of the ambient
    bundle, sampled at the contact heights."""
    amb_axis = axis + (axis >= emb.graph_axis)    # slice axis -> ambient
    row = -1 if side else 0
    axis_in_wall = emb.graph_axis - (1 if amb_axis < emb.graph_axis else 0)
    sampler = _make_sampler(emb.ambient_grid.drop_axis(amb_axis),
                            axis_in_wall,
                            np.moveaxis(emb.graph_height.values, axis, 0)[row])
    metric = sampler.take(
        np.moveaxis(emb.ambient_metric.values, amb_axis, 0)[row])
    return _coordinate_face(
        metric, inverse_and_determinant(metric)[0],
        sampler.take(
            np.moveaxis(emb.ambient_bundle.christoffel, amb_axis, 0)[row]),
        amb_axis, side)


@dataclass(frozen=True)
class FaceTrace:
    """Boundary identity sides on one face of the slice grid."""

    axis: int
    side: int
    lhs: np.ndarray   # <grad_Sigma phi, eta> + H of the face in Sigma
    rhs: np.ndarray   # <grad phi, eta> + H of the ambient wall
    residual: np.ndarray


def boundary_trace_identity(emb: HypersurfaceEmbedding,
                            phi: ScalarField) -> dict:
    """Residual of the boundary trace relation on every boundary face,
    for the weight rho = e^phi.

    Face curvatures are read in closed form with outward normals: the
    face inside the hypersurface from the induced metric, its held
    inverse and its Christoffel symbols on its row, and the matching
    chart wall inside the ambient manifold from `chart_wall`.
    """
    if not emb.boundary_normal:
        raise ValueError("hypersurface has no boundary faces")
    if emb.slice_grid.dim < 2:
        raise ValueError("boundary faces of a 1-d slice are points; "
                         "no face curvature is defined")
    grad_phi_s = gradient(emb.sample(phi), emb.slice_grid)
    dphi_s = emb.sample(gradient(restrict(phi, emb.ambient_grid),
                                 emb.ambient_grid))

    out = {}
    for (a, side), eta in emb.boundary_normal.items():
        row = -1 if side else 0
        h_face = _coordinate_face(
            np.moveaxis(emb.induced_metric.values, a, 0)[row],
            np.moveaxis(emb.induced_inverse, a, 0)[row],
            np.moveaxis(emb.intrinsic.christoffel, a, 0)[row], a,
            side).mean_curvature
        h_wall = chart_wall(emb, a, side).mean_curvature
        lhs = np.einsum("...b,...b->...", np.moveaxis(grad_phi_s, a, 0)[row],
                        eta, optimize=False) + h_face
        eta_amb = np.einsum("...ib,...b->...i",
                            np.moveaxis(emb.tangent_frame, a, 0)[row], eta,
                            optimize=False)
        rhs = np.einsum("...i,...i->...", np.moveaxis(dphi_s, a, 0)[row],
                        eta_amb, optimize=False) + h_wall
        out[(a, side)] = FaceTrace(a, side, lhs, rhs, lhs - rhs)
    return out
