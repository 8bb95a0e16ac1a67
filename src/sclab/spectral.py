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
exactly symmetric for any chart but consistent only weakly next to a
boundary: on a smooth function the rows within two nodes of a wall
miss by O(1/h) wherever the metric couples the wall axis to another.
So the lapse check takes the same coefficients (`_jacobi_coefficients`)
and applies the operator pointwise (`_pointwise_drift_operator`), with
the Robin condition as its own residual.  The assembled eigenpair still
converges at second order there: on a leaf whose exact pair is (0, its
lapse), lambda_1 is 1.43e-3, 3.59e-4, 8.83e-5 at n = 12, 24, 48.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg

from .charts import (
    PERIODIC,
    ChartGrid,
    ScalarField,
    derivative_matrix,
    gradient,
    gradient_and_hessian,
    node_tuple,
    restrict,
    tree_sum,
)
from .curvature import PotentialDerivatives, potential_derivatives
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
    potential: np.ndarray
    robin: dict


def assemble_drift_operator(grid: ChartGrid, inverse: np.ndarray,
                            density: ScalarField, potential: np.ndarray,
                            robin: dict) -> SpectralProblem:
    """Assemble the weighted operator from g^{ab} and rho sqrt(g) per node.

    robin must provide an entry (axis, side) for every boundary face of
    the grid; values are per-face arrays (or scalars) of the Robin
    datum b in <grad u, eta> = b u, eta outward.
    """
    if np.any(density.values <= 0.0):
        raise ValueError("density must be positive everywhere")
    d = grid.dim
    inv, dens = inverse, density.values
    cellw = grid.cell_weights()
    mass = (dens * cellw).reshape(-1)

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
            mid, up, dn = (at(slice(None)), at(np.roll(np.arange(n), -1)),
                           at(np.roll(np.arange(n), 1)))
            k_up = 0.5 * (kappa + kappa[up])     # edge i, i+1
            k_dn = k_up[dn]
        else:
            k_edge = 0.5 * (kappa[at(slice(0, n - 1))]
                            + kappa[at(slice(1, n))])
            mid, up, dn = (at(slice(1, n - 1)), at(slice(2, n)),
                           at(slice(0, n - 2)))
            k_up, k_dn = k_edge[mid], k_edge[dn]
        couple(idx[mid], idx[mid], (k_up + k_dn) / dens[mid] / (h * h))
        couple(idx[mid], idx[up], -(k_up / dens[mid] / (h * h)))
        couple(idx[mid], idx[dn], -(k_dn / dens[mid] / (h * h)))
        if grid.topology[axis] == PERIODIC:
            continue

        # half-cell closure: interior flux plus the Robin wall flux
        for side, row, inner_row, edge_row in ((0, 0, 1, 0),
                                               (1, n - 1, n - 2, n - 2)):
            if (axis, side) not in robin:
                raise ValueError(f"missing Robin data for boundary face "
                                 f"(axis {axis}, side {side})")
            b = np.broadcast_to(np.asarray(robin[(axis, side)], dtype=float),
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
            da = derivative_matrix(grid, a)
            db = derivative_matrix(grid, b_ax)
            w = da.T @ sparse.diags(cross.reshape(-1)) @ db
            form = w + w.T
            operator = operator + sparse.diags(1.0 / mass) @ form

    operator = operator + sparse.diags(np.asarray(potential).reshape(-1))
    return SpectralProblem(grid, operator.tocsr(), mass,
                           np.asarray(potential, dtype=float), robin)


# Largest contact residual |<N_wall, nu>| the Robin datum admits.  It
# is an inner product of unit (co)vectors, like the orthonormality gaps
# embed_graph bounds by 1e-10, and an orthogonal contact leaves only
# rounding in it (exactly 0 for a constant-height leaf of a diagonal
# metric).  The datum drops that component of nu, which moves
# h_wall(nu, nu) by O(residual): at 1e-10 that stays two orders under
# the 1e-8 residual bound of the principal eigenpair.
CONTACT_TOL = 1e-10
# inverse iteration stops once its Rayleigh quotient moves by at most
# this and its residual is within that 1e-8 bound
EIGENVALUE_TOL = 1e-10


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
    wall = chart_wall(emb, axis, side)
    nu_face = np.moveaxis(emb.normal, axis, 0)[-1 if side else 0]
    contact = np.abs(np.einsum("...i,...i->...", wall.normal_covector,
                               nu_face, optimize=False))
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
    nu_wall = np.delete(nu_face, wall.axis, axis=-1)
    return np.einsum("...cd,...c,...d->...", wall.second_fundamental,
                     nu_wall, nu_wall, optimize=False)


def _pointwise_drift_operator(grid: ChartGrid, inverse: np.ndarray,
                              density: ScalarField, potential: np.ndarray,
                              robin: dict, u: np.ndarray) -> tuple:
    """The operator `assemble_drift_operator` assembles, applied to u
    pointwise with the chart stencils, and its Robin residuals.

    -(1/dens) d_a (C^{ab} d_b u) + potential u, with dens = rho sqrt(g)
    and C = dens g^{ab}, is expanded to C^{ab} d_a d_b u + d_a C^{ab}
    d_b u, so every row, boundary rows included, is second order.  On
    each boundary face the residual is <grad u, eta> - b u, where
    <grad u, eta> = +-g^{aj} d_j u / sqrt(g^{aa}) for the outward unit
    conormal eta.  Returns (values, {(axis, side): face residual}).
    """
    inv, dens = inverse, density.values
    flux = dens[..., None, None] * inv
    d_flux = gradient(flux, grid)           # [..., a, b, c] = d_c C^{ab}
    du, d2u = gradient_and_hessian(u, grid)
    acc = np.zeros(grid.shape)
    for a in range(grid.dim):
        for b in range(grid.dim):
            acc += (flux[..., a, b] * d2u[a, b]
                    + d_flux[..., a, b, a] * du[..., b])
    faces = {}
    for a in sorted({a for a, _ in robin}):
        # both faces of wall axis a at once, on a copy of its two end
        # rows: a face keeps those two rows alive, not the whole leaf
        inv_e, du_e, u_e = (np.moveaxis(x, a, 0)[[0, -1]]
                            for x in (inv, du, u))
        sign = np.reshape([-1.0, 1.0], (2,) + (1,) * (u_e.ndim - 1))
        conormal = np.einsum("...j,...j->...", inv_e[..., a, :], du_e,
                             optimize=False) / np.sqrt(inv_e[..., a, a])
        faces[(a, 0)], faces[(a, 1)] = (
            sign * conormal - np.stack([robin[(a, 0)], robin[(a, 1)]]) * u_e)
    return potential * u - acc / dens, faces


def _jacobi_coefficients(emb: HypersurfaceEmbedding,
                         weight: PotentialDerivatives) -> tuple:
    """The coefficients of a leaf's stability operator for a density
    rho = e^phi, given phi's derivatives on the leaf's ambient slab or
    chart (weight), as the leading arguments of both
    `assemble_drift_operator` and `_pointwise_drift_operator`.  The leaf
    density is e^phi sampled on the leaf, for both.

    Second order: the held g^{ab} and sqrt(g); zeroth: -ric(nu,nu) - |h|^2
    + (D^2 log rho)(nu,nu); first: the log-rho drift, folded into the
    weighted divergence; the Robin datum on each wall is h_wall(nu, nu).
    """
    potential = (-emb.sample_nn(emb.ambient_bundle.ricci)
                 - second_fundamental_norm_sq(emb)
                 + emb.sample_nn(weight.hessian))
    robin = {face: _wall_robin_data(emb, *face)
             for face in emb.boundary_normal}
    density = ScalarField(emb.slice_grid, np.exp(emb.sample(weight.field))
                          * emb.induced_volume.values)
    return emb.slice_grid, emb.induced_inverse, density, potential, robin


def assemble_jacobi(emb: HypersurfaceEmbedding,
                    rho: ScalarField) -> SpectralProblem:
    """Stability operator of a hypersurface for the ambient density rho,
    with log rho differentiated once on the leaf's ambient slab."""
    rho_amb = restrict(rho, emb.ambient_grid)
    if np.any(rho.values <= 0.0):
        raise ValueError("density must be positive")
    log_rho = ScalarField(emb.ambient_grid, np.log(rho_amb))
    return assemble_drift_operator(*_jacobi_coefficients(
        emb, potential_derivatives(emb.ambient_bundle, log_rho)))


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


def principal_eigenpair(problem: SpectralProblem,
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
        if abs(new_value - value) <= EIGENVALUE_TOL:
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
    robin: tuple            # per slice: (axis, side) -> <grad f, eta> - b f
    mu: np.ndarray          # slice means of H + <grad phi, nu>
    mu_rate: np.ndarray     # centered d mu / dt
    mu_spread: np.ndarray   # max - min of mu per slice


def lapse_residual(fol: GraphFoliation) -> LapseCheck:
    """Residual L f - mu'(t) of the Jacobi equation satisfied by the
    lapse f, with L the operator `assemble_jacobi` assembles, applied
    pointwise, and on each chart wall the residual of the free-boundary
    condition <grad f, eta> = h_wall(nu, nu) f.

    L uses the foliation's weight record, the same weight its stored mu
    comes from.  The walls' Robin data need every leaf to meet the walls
    orthogonally.
    Foliations whose weighted mean curvature is not constant on each
    slice (beyond stencil error) are rejected: the mu'(t) coupling is
    only meaningful in the constant case.
    """
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

    residuals, robin = [], []
    for k, emb in enumerate(fol.slices):
        value, faces = _pointwise_drift_operator(
            *_jacobi_coefficients(emb, fol.potential), fol.lapse[k].values)
        residuals.append(ScalarField(emb.slice_grid, value - mu_rate[k]))
        robin.append(faces)
    return LapseCheck(times, tuple(residuals), tuple(robin), mu, mu_rate,
                      spread)
