"""Weighted stability operator: assembly, principal eigenpair, lapse check.

The operator -Lap_Sigma - ric(nu,nu) - |h|^2 + (D^2 log rho)(nu,nu)
- <grad_Sigma log rho, grad_Sigma .> is assembled in weighted-divergence
form: the Laplacian and the drift term together equal
-(1/(rho sqrt g)) d_a (rho sqrt g g^{ab} d_b .), so a flux discretization
is self-adjoint in the rho-weighted inner product by construction
rather than after the fact.  Boundary rows eliminate the ghost node
through the Robin condition <grad u, eta> = b u against half-cell
masses, which keeps the weighted matrix symmetric.

Off-diagonal metric terms are assembled variationally (D^T C D pairs),
exactly symmetric for any chart; their pointwise truncation at boundary
rows is first order, which does not disturb eigenvalue accuracy.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg

from .charts import (
    BOUNDARY,
    PERIODIC,
    ChartGrid,
    ScalarField,
    TensorField,
    inverse_and_determinant,
    node_tuple,
    restrict,
    tree_sum,
)
from .curvature import curvature_bundle, potential_derivatives
from .hypersurface import (
    GraphFoliation,
    HypersurfaceEmbedding,
    chart_wall,
    second_fundamental_norm_sq,
)


@dataclass(frozen=True)
class SpectralProblem:
    """Discrete weighted stability operator on a slice grid.

    operator is the sparse action matrix; mass is the rho-weighted node
    measure defining the inner product in which the operator is
    self-adjoint.  robin maps (axis, side) to the per-face Robin datum.
    """

    grid: ChartGrid
    operator: sparse.csr_matrix
    mass: np.ndarray
    weight: ScalarField
    potential: np.ndarray
    robin: dict


def _axis_derivative_matrix(grid: ChartGrid, axis: int) -> sparse.csr_matrix:
    """Sparse first derivative along one axis, one-sided at boundaries."""
    n_total = grid.node_count
    h = grid.spacing[axis]
    n = grid.resolution[axis]
    idx = np.arange(n_total).reshape(grid.shape)
    rows, cols, vals = [], [], []

    def couple(target, source, coeff):
        rows.append(idx[target].reshape(-1))
        cols.append(idx[source].reshape(-1))
        vals.append(np.full(rows[-1].size, coeff))

    sl = [slice(None)] * grid.dim

    def at(i):
        out = list(sl)
        out[axis] = i
        return tuple(out)

    if grid.topology[axis] == PERIODIC:
        shifted_up = np.roll(np.arange(n), -1)
        shifted_dn = np.roll(np.arange(n), 1)
        couple(at(slice(None)), at(shifted_up), 1.0 / (2 * h))
        couple(at(slice(None)), at(shifted_dn), -1.0 / (2 * h))
    else:
        couple(at(slice(1, n - 1)), at(slice(2, n)), 1.0 / (2 * h))
        couple(at(slice(1, n - 1)), at(slice(0, n - 2)), -1.0 / (2 * h))
        for row, sign in ((0, 1.0), (n - 1, -1.0)):
            step = 1 if row == 0 else -1
            couple(at(row), at(row), sign * -3.0 / (2 * h))
            couple(at(row), at(row + step), sign * 4.0 / (2 * h))
            couple(at(row), at(row + 2 * step), sign * -1.0 / (2 * h))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return sparse.coo_matrix((vals, (rows, cols)),
                             shape=(n_total, n_total)).tocsr()


def assemble_drift_operator(grid: ChartGrid, metric: TensorField,
                            weight: ScalarField, potential: np.ndarray,
                            robin: dict) -> SpectralProblem:
    """Assemble the weighted operator from explicit coefficient data.

    robin must provide an entry (axis, side) for every boundary face of
    the grid; values are per-face arrays (or scalars) of the Robin
    datum b in <grad u, eta> = b u, eta outward.
    """
    if np.any(weight.values <= 0.0):
        raise ValueError("weight must be positive everywhere")
    d = grid.dim
    inv, det = inverse_and_determinant(metric.values)
    dens = weight.values * np.sqrt(det)        # rho sqrt(g) per node
    cellw = grid.cell_weights()
    mass = (dens * cellw).reshape(-1)

    for a in range(d):
        if grid.topology[a] == BOUNDARY:
            for side in (0, 1):
                if (a, side) not in robin:
                    raise ValueError(
                        f"missing Robin data for boundary face "
                        f"(axis {a}, side {side})")

    n_total = grid.node_count
    idx = np.arange(n_total).reshape(grid.shape)
    rows, cols, vals = [], [], []

    def couple(target_idx, source_idx, coeff):
        rows.append(target_idx.reshape(-1))
        cols.append(source_idx.reshape(-1))
        vals.append(np.asarray(coeff).reshape(-1))

    sl = [slice(None)] * d

    def at(i):
        out = list(sl)
        out[axis] = i
        return tuple(out)

    for axis in range(d):
        h = grid.spacing[axis]
        n = grid.resolution[axis]
        kappa = dens * inv[..., axis, axis]
        # the diagonal is accumulated per axis before insertion so the
        # trivial-coefficient case reproduces 2/h^2 exactly
        if grid.topology[axis] == PERIODIC:
            up = np.roll(np.arange(n), -1)
            dn = np.roll(np.arange(n), 1)
            k_up = 0.5 * (kappa + kappa[at(up)])     # edge i, i+1
            k_dn = k_up[at(dn)]
            couple(idx, idx, (k_up + k_dn) / dens / (h * h))
            couple(idx, idx[at(up)], -(k_up / dens / (h * h)))
            couple(idx, idx[at(dn)], -(k_dn / dens / (h * h)))
        else:
            k_edge = 0.5 * (kappa[at(slice(0, n - 1))]
                            + kappa[at(slice(1, n))])
            mid = at(slice(1, n - 1))
            k_up = k_edge[at(slice(1, n - 1))]
            k_dn = k_edge[at(slice(0, n - 2))]
            couple(idx[mid], idx[mid], (k_up + k_dn) / dens[mid] / (h * h))
            couple(idx[mid], idx[at(slice(2, n))],
                   -(k_up / dens[mid] / (h * h)))
            couple(idx[mid], idx[at(slice(0, n - 2))],
                   -(k_dn / dens[mid] / (h * h)))

            # half-cell closure: interior flux plus the Robin wall flux
            for side, row, inner_row, edge_row in ((0, 0, 1, 0),
                                                   (1, n - 1, n - 2, n - 2)):
                b = np.broadcast_to(
                    np.asarray(robin[(axis, side)], dtype=float),
                    idx[at(row)].shape)
                coeff = 2.0 * k_edge[at(edge_row)] / dens[at(row)] / (h * h)
                couple(idx[at(row)], idx[at(row)], coeff)
                couple(idx[at(row)], idx[at(inner_row)], -coeff)
                wall = -2.0 * np.sqrt(inv[at(row)][..., axis, axis]) * b / h
                couple(idx[at(row)], idx[at(row)], wall)

    operator = sparse.coo_matrix(
        (np.concatenate(vals),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_total, n_total)).tocsr()

    # mixed metric terms, variational so the weighted matrix stays
    # exactly symmetric; zero matrices are skipped entirely
    for a in range(d):
        for b_ax in range(a + 1, d):
            cross = dens * inv[..., a, b_ax] * cellw
            if not np.any(cross):
                continue
            da = _axis_derivative_matrix(grid, a)
            db = _axis_derivative_matrix(grid, b_ax)
            w = da.T @ sparse.diags(cross.reshape(-1)) @ db
            form = w + w.T
            operator = operator + sparse.diags(1.0 / mass) @ form

    operator = operator + sparse.diags(np.asarray(potential).reshape(-1))
    return SpectralProblem(grid, operator.tocsr(), mass, weight,
                           np.asarray(potential, dtype=float), robin)


# Largest contact residual |<N_wall, nu>| the Robin datum admits.  It
# is an inner product of unit (co)vectors, like the orthonormality gaps
# embed_graph bounds by 1e-10, and an orthogonal contact leaves only
# rounding in it (exactly 0 for a constant-height leaf of a diagonal
# metric).  The datum drops that component of nu, which moves
# h_wall(nu, nu) by O(residual): at 1e-10 that stays two orders under
# the 1e-8 residual bound of the principal eigenpair.
CONTACT_TOL = 1e-10


def _wall_robin_data(emb: HypersurfaceEmbedding, axis: int,
                     side: int) -> np.ndarray:
    """h_wall(nu, nu) on one boundary face of the slice grid.

    The hypersurface normal is carried into wall coordinates by dropping
    its wall-normal component, which is exact when the hypersurface
    meets the wall orthogonally.  That component, the contact residual
    |<N_wall, nu>| against the wall's unit normal covector at the
    contact points, is measured first; above CONTACT_TOL the first
    offending node of the face raises ValueError.
    """
    wall, sampler = chart_wall(emb, axis, side)
    nu_face = np.take(emb.normal, -1 if side else 0, axis=axis)
    contact = np.abs(np.einsum("...i,...i->...",
                               sampler.take(wall.normal_covector), nu_face,
                               optimize=False))
    if contact.max() > CONTACT_TOL:
        at = int(np.argmax(contact > CONTACT_TOL))
        face = node_tuple(at, contact.shape)
        node = face[:axis] + (emb.slice_grid.shape[axis] - 1 if side
                              else 0,) + face[axis:]
        raise ValueError(
            f"hypersurface meets the chart wall (axis {axis}, side {side}) "
            f"at slice node {node} with contact residual "
            f"{contact[face]:.3e} > {CONTACT_TOL:.0e}: not a free-boundary "
            "contact")
    h_wall = sampler.take(wall.second_fundamental.values)
    wall_axes = [i for i in range(emb.ambient_grid.dim)
                 if i != wall.graph_axis]
    nu_wall = nu_face[..., wall_axes]
    return np.einsum("...cd,...c,...d->...", h_wall, nu_wall, nu_wall,
                     optimize=False)


def assemble_jacobi(emb: HypersurfaceEmbedding,
                    rho: ScalarField) -> SpectralProblem:
    """Stability operator of a hypersurface for the ambient density rho.

    Zeroth order: -ric(nu,nu) - |h|^2 + (D^2 log rho)(nu,nu); first
    order: the log-rho drift, folded into the weighted divergence; the
    Robin datum on each chart wall is the wall's second fundamental
    form on (nu, nu).
    """
    rho_amb = restrict(rho, emb.ambient_grid)
    if np.any(rho.values <= 0.0):
        raise ValueError("density must be positive")

    log_rho = ScalarField(emb.ambient_grid, np.log(rho_amb))
    amb_pot = potential_derivatives(emb.ambient_bundle, log_rho)
    potential = (-emb.sample_nn(emb.ambient_bundle.ricci)
                 - second_fundamental_norm_sq(emb)
                 + emb.sample_nn(amb_pot.hessian))

    robin = {}
    for a in range(emb.slice_grid.dim):
        if emb.slice_grid.topology[a] == BOUNDARY:
            for side in (0, 1):
                robin[(a, side)] = _wall_robin_data(emb, a, side)

    weight = ScalarField(emb.slice_grid, emb.sample(rho))
    return assemble_drift_operator(emb.slice_grid, emb.induced_metric,
                                   weight, potential, robin)


@dataclass(frozen=True)
class EigenPair:
    eigenvalue: float
    eigenfunction: ScalarField
    residual: float
    iterations: int


def _finalize_pair(problem: SpectralProblem, value: float, vector: np.ndarray,
                   iterations: int) -> EigenPair:
    vector = vector / np.sqrt(tree_sum(vector * vector * problem.mass))
    if vector[0] < 0:
        vector = -vector
    res = (problem.operator @ vector) - value * vector
    res_norm = float(np.sqrt(tree_sum(res * res * problem.mass)))
    if res_norm > 1e-8:
        raise RuntimeError(f"eigenpair residual {res_norm:.3e} exceeds 1e-8 "
                           f"after {iterations} iterations")
    if np.any(vector <= 0.0):
        raise RuntimeError("principal eigenfunction is not strictly "
                           "positive; the discretization lost the Perron "
                           "property")
    field = ScalarField(problem.grid, vector.reshape(problem.grid.shape))
    return EigenPair(float(value), field, res_norm, iterations)


def principal_eigenpair(problem: SpectralProblem, tol: float = 1e-10,
                        max_iterations: int = 10000) -> EigenPair:
    """Smallest eigenvalue by shifted inverse iteration.

    The shift sits below the Gershgorin lower bound of the coupling
    table, so the shifted matrix is positive definite in the weighted
    inner product and the iteration converges to the bottom of the
    spectrum from the all-ones start.
    """
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got "
                         f"{max_iterations}")
    op = problem.operator.tocsr()
    diag = op.diagonal()
    row_abs = np.abs(op) @ np.ones(op.shape[0]) - np.abs(diag)
    bound = float(np.min(diag - row_abs))
    shift = bound - 1e-3 * (1.0 + abs(bound))

    m = problem.mass
    eye = sparse.identity(op.shape[0])
    solve = splinalg.splu((op - shift * eye).tocsc())

    y = np.ones(op.shape[0])
    y /= np.sqrt(tree_sum(y * y * m))
    value = tree_sum(y * (op @ y) * m)
    refined = False
    for iteration in range(1, max_iterations + 1):
        z = solve.solve(y)
        z /= np.sqrt(tree_sum(z * z * m))
        new_value = tree_sum(z * (op @ z) * m)
        y = z
        res = (op @ y) - new_value * y
        res_norm = float(np.sqrt(tree_sum(res * res * m)))
        if abs(new_value - value) <= tol:
            if res_norm <= 1e-8:
                return _finalize_pair(problem, new_value, y, iteration)
            # a pessimistic Gershgorin shift contracts slowly enough
            # that Rayleigh increments stall before the vector settles;
            # refactor once right below the current estimate
            if not refined:
                refined = True
                near = new_value - 1e-5 * (1.0 + abs(new_value))
                solve = splinalg.splu((op - near * eye).tocsc())
        value = new_value
    raise RuntimeError(f"inverse iteration did not converge in "
                       f"{max_iterations} iterations; last residual "
                       f"{res_norm:.3e}")


@dataclass(frozen=True)
class LapseCheck:
    """Jacobi-equation residual of a foliation's lapse, slice by slice."""

    times: np.ndarray
    residuals: tuple
    mu: np.ndarray          # slice means of H + <grad phi, nu>
    mu_rate: np.ndarray     # centered d mu / dt
    mu_spread: np.ndarray   # max - min of mu per slice


def lapse_residual(fol: GraphFoliation) -> LapseCheck:
    """Residual of the Jacobi equation satisfied by the lapse.

    The drift and Hessian terms use the log-density the foliation was
    built with, the same weight its stored mu comes from.  Foliations
    whose weighted mean curvature is not constant on each slice (beyond
    stencil error) are rejected: the mu'(t) coupling is only meaningful
    in the constant case.
    """
    phi = fol.log_density
    times = np.asarray(fol.times)
    mu = np.array([float(np.mean(w.values)) for w in fol.weighted_H])
    spread = np.array([float(np.ptp(w.values)) for w in fol.weighted_H])
    h_max = max(fol.slices[0].slice_grid.spacing)
    expected = (1.0 + np.abs(mu)) * h_max**2
    bad = spread > 10.0 * expected
    if np.any(bad):
        k = int(np.argmax(bad))
        raise ValueError(
            f"weighted mean curvature varies by {spread[k]:.3e} on slice "
            f"{k} (t = {times[k]:.6g}), beyond stencil error "
            f"{expected[k]:.3e}: not a constant-mu foliation")
    mu_rate = np.gradient(mu, times, edge_order=2)

    residuals = []
    for k, emb in enumerate(fol.slices):
        f = fol.lapse[k]
        sb = curvature_bundle(emb.induced_metric)
        pot_f = potential_derivatives(sb, f)
        value = (-pot_f.laplacian.values
                 - emb.sample_nn(emb.ambient_bundle.ricci) * f.values
                 - second_fundamental_norm_sq(emb) * f.values)
        pot_phi = potential_derivatives(
            sb, ScalarField(emb.slice_grid, emb.sample(phi)))
        drift = np.einsum("...ab,...a,...b->...", sb.inverse,
                          pot_phi.gradient, pot_f.gradient, optimize=False)
        value = (value + emb.sample_nn(fol.potential.hessian) * f.values
                 - drift)
        residuals.append(ScalarField(emb.slice_grid, value - mu_rate[k]))
    return LapseCheck(times, tuple(residuals), mu, mu_rate, spread)
