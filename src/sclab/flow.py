"""Coupled metric/potential flow and its pointwise identities.

The system evolves the metric by -2 Ric and the potential by the heat
equation.  Along it the stabilized scalar satisfies
(d/dt - Lap) S = 2 |Ric - D^2 phi|^2, which is what the residual and
monotonicity checks below verify; the forcing is a squared norm, so
inf S cannot decrease under the explicit schemes within their CFL
bound.

Explicit Euler and midpoint steppers only: identity checks want plain
state sequences that can be differenced in time, and desk-scale runs
do not need implicit solvers.

Both flows stream: `flow_states` (chart states) and `profile_states`
(sphere profiles) yield one state at a time, and `monotonicity_report`
folds either stream once through a three-state window into every
per-state series, the identity residual included.  This module writes
no files: the CLI writes the torus flow's snapshots as they stream past.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .charts import ScalarField, TensorField
from .curvature import (
    CurvatureBundle,
    PotentialDerivatives,
    curvature_bundle,
    f_functional,
    potential_derivatives,
    stabilized_scalar,
)

CFL_FACTOR = 0.2
RIGIDITY_TOL = 1e-8


@dataclass(frozen=True)
class FlowState:
    """One instant of the coupled flow with its derived quantities.

    The bundle, phi's derivatives and S are computed once from (metric,
    phi) when a state is built, Ric - D^2 phi once when first read.
    """

    t: float
    metric: TensorField
    phi: ScalarField
    bundle: CurvatureBundle
    potential: PotentialDerivatives
    stabilized: ScalarField

    @cached_property
    def ricci_hessian_gap(self) -> np.ndarray:
        """Pointwise components of Ric - D^2 phi, the rigidity defect."""
        return self.bundle.ricci.values - self.potential.hessian.values


def make_flow_state(t: float, metric: TensorField,
                    phi: ScalarField) -> FlowState:
    if phi.grid != metric.grid:
        raise ValueError("potential and metric live on different grids")
    try:
        bundle = curvature_bundle(metric)
    except ValueError as exc:
        raise RuntimeError(
            f"flow state at t = {t:.6g} is not a metric: {exc}") from exc
    pot = potential_derivatives(bundle, phi)
    s = stabilized_scalar(metric, phi, bundle=bundle, potential=pot)
    return FlowState(float(t), metric, phi, bundle, pot, s)


def cfl_bound(state: FlowState) -> float:
    """Largest admissible explicit step for the current metric."""
    h_min = min(state.metric.grid.spacing)
    return CFL_FACTOR * h_min * h_min / np.abs(state.bundle.inverse).max()


def _slopes(state: FlowState):
    return -2.0 * state.bundle.ricci.values, state.potential.laplacian.values


def step_coupled_flow(state: FlowState, dt: float,
                      scheme: str = "euler") -> FlowState:
    bound = cfl_bound(state)
    if dt > bound:
        raise ValueError(f"dt = {dt:.3e} violates the CFL bound "
                         f"{bound:.3e} at t = {state.t:.6g}")
    if scheme not in ("euler", "midpoint"):
        raise ValueError(f"unknown scheme {scheme!r}; "
                         "use 'euler' or 'midpoint'")
    g_rate, phi_rate = _slopes(state)
    if scheme == "midpoint":
        half = make_flow_state(
            state.t + 0.5 * dt,
            TensorField(state.metric.grid, 2,
                        state.metric.values + 0.5 * dt * g_rate),
            ScalarField(state.phi.grid,
                        state.phi.values + 0.5 * dt * phi_rate))
        g_rate, phi_rate = _slopes(half)
    metric = TensorField(state.metric.grid, 2,
                         state.metric.values + dt * g_rate)
    phi = ScalarField(state.phi.grid, state.phi.values + dt * phi_rate)
    return make_flow_state(state.t + dt, metric, phi)


def flow_states(state: FlowState, dt: float, steps: int,
                scheme: str = "euler"):
    """Yield the given state, then each stepped state; only the latest
    state is held here."""
    if steps < 1:
        raise ValueError("need at least one step")
    yield state
    for _ in range(steps):
        state = step_coupled_flow(state, dt, scheme)
        yield state


def _tensor_norm_sq(inverse: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """|T|^2 = g^{ia} g^{jb} T_ij T_ab for a symmetric 2-tensor.

    Summed over i, a, j, b (outer to inner) from zero, each term
    multiplied left to right: the order of the generic four-operand
    einsum, so the sum matches it bit for bit; keep the order.
    """
    d = tensor.shape[-1]
    acc = np.zeros(tensor.shape[:-2])
    for i in range(d):
        for a in range(d):
            for j in range(d):
                for b in range(d):
                    acc += (inverse[..., i, a] * inverse[..., j, b]
                            * tensor[..., i, j] * tensor[..., a, b])
    return acc


def evolution_identity_residual(prev: FlowState, state: FlowState,
                                nxt: FlowState, dt: float) -> np.ndarray:
    """dS/dt - Lap S - 2|Ric - D^2 phi|^2 at the middle of three states
    spaced dt apart: a centered time slope of the neighbors' cached
    stabilized scalars, all spatial terms from the middle state alone."""
    rate = (nxt.stabilized.values - prev.stabilized.values) / (2.0 * dt)
    lap_s = potential_derivatives(state.bundle,
                                  state.stabilized).laplacian.values
    forcing = 2.0 * _tensor_norm_sq(state.bundle.inverse,
                                    state.ricci_hessian_gap)
    return rate - lap_s - forcing


@dataclass(frozen=True)
class MonotonicityReport:
    """Per-state series for the maximum-principle and rigidity checks.

    identity_residuals holds the max norm of the evolution identity
    residual, nan at the two end states, which have no centered time
    slope.  violations lists indices k where inf S dropped by more than
    1e-8 from state k to k+1; rigidity marks states whose Ric - D^2 phi
    gap is at most RIGIDITY_TOL (the equality mechanism).
    """

    times: np.ndarray
    inf_s: np.ndarray
    f_values: np.ndarray
    gap_norms: np.ndarray
    identity_residuals: np.ndarray
    violations: tuple
    rigidity: np.ndarray

    @property
    def monotone(self) -> bool:
        return not self.violations


def chart_measures(state: FlowState):
    """inf S, F and the largest component of Ric - D^2 phi."""
    return (state.stabilized.values.min(),
            f_functional(state.bundle, state.phi,
                         stabilized=state.stabilized),
            np.abs(state.ricci_hessian_gap).max())


def monotonicity_report(states, dt: float) -> MonotonicityReport:
    """Fold chart states or sphere profiles (the first decides which)
    spaced dt apart into the report.  They are read once through a
    (prev, state, nxt) window, so a generator keeps at most three live."""
    stream = iter(states)
    rows = []
    prev, state = None, next(stream, None)
    measures, identity = ((profile_measures, profile_identity_residual)
                          if isinstance(state, SphereProfile) else
                          (chart_measures, evolution_identity_residual))
    while state is not None:
        nxt = next(stream, None)
        residual = np.nan
        if prev is not None and nxt is not None:
            residual = np.abs(identity(prev, state, nxt, dt)).max()
        rows.append((state.t, *measures(state), residual))
        prev, state = state, nxt
    if len(rows) < 2:
        raise ValueError("need at least two states")
    times, inf_s, f_vals, gaps, residuals = (np.array(col)
                                             for col in zip(*rows))
    violations = tuple(int(k) for k in range(len(rows) - 1)
                       if inf_s[k + 1] < inf_s[k] - 1e-8)
    return MonotonicityReport(times, inf_s, f_vals, gaps, residuals,
                              violations, gaps <= RIGIDITY_TOL)


def adjoint_supersolution_residual(state: FlowState) -> ScalarField:
    """Pointwise check of the backward-density identity at one state.

    With P = S e^{phi} and the backward slope
    phi_dot = -Lap phi - |grad phi|^2 + R, the claim is
    (d/dt + Lap - R) P = 2 e^{phi} |Ric - D^2 phi|^2.
    Every time derivative is expanded by the chain rule through the
    prescribed metric motion -2 Ric: the scalar curvature moves by
    Lap R + 2|Ric|^2, the Laplacian of a fixed function picks up
    2 <Ric, D^2 .>, and |grad phi|^2 picks up 2 Ric(grad, grad); no
    backward equation is integrated.  The sign pattern is pinned by the
    conformal-torus refinement check: flipping the weight or the slope
    leaves an O(1) floor there while flat and round data still pass.
    """
    grid = state.metric.grid
    bundle = state.bundle
    inv = bundle.inverse
    ric = bundle.ricci.values
    r = bundle.scalar.values
    pot = state.potential

    def pair(da, db):
        return np.einsum("...ij,...i,...j->...", inv, da, db,
                         optimize=False)

    phi_dot = -pot.laplacian.values - pot.gradient_sq.values + r
    phi_dot_pot = potential_derivatives(
        bundle, ScalarField(grid, phi_dot))

    ric_up_grad = np.einsum("...ia,...jb,...ij->...ab", inv, inv, ric,
                            optimize=False)
    ric_hess = np.einsum("...ab,...ab->...", ric_up_grad,
                         pot.hessian.values, optimize=False)
    ric_grad_grad = np.einsum("...ab,...a,...b->...", ric_up_grad,
                              pot.gradient, pot.gradient, optimize=False)
    ric_norm_sq = np.einsum("...ab,...ab->...", ric_up_grad, ric,
                            optimize=False)

    lap_r = potential_derivatives(bundle, bundle.scalar).laplacian.values

    # dS/dt for S = -2 Lap phi - |grad phi|^2 + R under the coupled
    # motion, with the backward slope substituted for phi_dot
    s_dot = (-2.0 * (phi_dot_pot.laplacian.values + 2.0 * ric_hess)
             - (2.0 * ric_grad_grad
                + 2.0 * pair(phi_dot_pot.gradient, pot.gradient))
             + lap_r + 2.0 * ric_norm_sq)

    s = state.stabilized.values
    s_pot = potential_derivatives(bundle, state.stabilized)
    lap_p_over_weight = (s_pot.laplacian.values
                         + 2.0 * pair(s_pot.gradient, pot.gradient)
                         + s * (pot.gradient_sq.values
                                + pot.laplacian.values))

    forcing = 2.0 * _tensor_norm_sq(inv, state.ricci_hessian_gap)

    weight = np.exp(state.phi.values)
    residual = weight * (s_dot + s * phi_dot + lap_p_over_weight - r * s
                         - forcing)
    return ScalarField(grid, residual)


@dataclass(frozen=True)
class SphereProfile:
    """Rotationally symmetric metric a dtheta^2 + b dphi^2 on staggered
    latitude nodes (k + 1/2) pi / n, with phi = 0.

    Chart flows on latitude bands are not explicitly stable at the
    one-sided boundary rows, so sphere flows run and are measured on
    this closed profile instead, whose pole-parity stencils never
    evaluate at the poles; S = R is computed once per profile.
    """

    t: float
    theta: np.ndarray
    a: np.ndarray
    b: np.ndarray

    @property
    def spacing(self) -> float:
        return float(self.theta[1] - self.theta[0])

    @cached_property
    def scalar(self) -> np.ndarray:
        return profile_scalar_curvature(self)


def round_profile(lat_res: int, radius: float = 1.0) -> SphereProfile:
    h = np.pi / lat_res
    theta = (np.arange(lat_res) + 0.5) * h
    a = np.full(lat_res, radius * radius)
    return SphereProfile(0.0, theta, a, radius * radius * np.sin(theta) ** 2)


def _pole_ghost(values: np.ndarray, odd: bool) -> np.ndarray:
    """Extend by one node past each pole using parity.

    For a smooth rotationally symmetric metric the circumference radius
    v = sqrt(b) is an odd function of the latitude distance to either
    pole and a is even; reflecting with the matching sign keeps the
    centered stencils second order in the pole cells, where one-sided
    rows or naive flux pinning degrade to O(1).
    """
    sign = -1.0 if odd else 1.0
    return np.concatenate(([sign * values[0]], values, [sign * values[-1]]))


def profile_scalar_curvature(p: SphereProfile) -> np.ndarray:
    """R = 2K with K = -(v''/a - v'a'/(2a^2))/v, v = sqrt(b)."""
    h = p.spacing
    v = _pole_ghost(np.sqrt(p.b), odd=True)
    a = _pole_ghost(p.a, odd=False)
    v1 = (v[2:] - v[:-2]) / (2.0 * h)
    v2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    a1 = (a[2:] - a[:-2]) / (2.0 * h)
    k = -(v2 / p.a - v1 * a1 / (2.0 * p.a ** 2)) / np.sqrt(p.b)
    return 2.0 * k


def profile_laplacian(p: SphereProfile, values: np.ndarray) -> np.ndarray:
    """Laplace-Beltrami of an even rotationally symmetric function.

    The pole fluxes vanish because sqrt(ab) does; evenness of the data
    is what makes that exact rather than one-sided.
    """
    h = p.spacing
    root = np.sqrt(p.a * p.b)
    mid_root = 0.5 * (root[1:] + root[:-1])
    mid_a = 0.5 * (p.a[1:] + p.a[:-1])
    flux = np.zeros(values.size + 1)
    flux[1:-1] = mid_root * (values[1:] - values[:-1]) / (h * mid_a)
    return (flux[1:] - flux[:-1]) / (h * root)


def profile_measures(p: SphereProfile):
    """inf S, F = 2 pi h sum S sqrt(ab) and the largest chart component
    of Ric - D^2 phi = K g, which is max(|K a|, |K b|)."""
    s = p.scalar
    f = 2.0 * np.pi * p.spacing * np.sum(s * np.sqrt(p.a * p.b))
    return s.min(), f, np.abs(0.5 * s * np.maximum(p.a, p.b)).max()


def profile_identity_residual(prev: SphereProfile, p: SphereProfile,
                              nxt: SphereProfile, dt: float) -> np.ndarray:
    """dS/dt - Lap S - 2|Ric|^2 at the middle of three profiles spaced
    dt apart; with phi = 0, S = 2K and 2|Ric|^2 = 4K^2 = S^2."""
    rate = (nxt.scalar - prev.scalar) / (2.0 * dt)
    return rate - profile_laplacian(p, p.scalar) - p.scalar ** 2


def profile_cfl_bound(p: SphereProfile) -> float:
    return CFL_FACTOR * p.spacing ** 2 * p.a.min()


def step_profile_flow(p: SphereProfile, dt: float) -> SphereProfile:
    bound = profile_cfl_bound(p)
    if dt > bound:
        raise ValueError(f"dt = {dt:.3e} violates the profile CFL bound "
                         f"{bound:.3e} at t = {p.t:.6g}")
    k = 0.5 * p.scalar
    a = p.a * (1.0 - 2.0 * dt * k)
    b = p.b * (1.0 - 2.0 * dt * k)
    if a.min() <= 0.0 or b.min() <= 0.0:
        node = int(np.argmin(np.minimum(a, b)))
        raise RuntimeError(f"profile flow lost positivity at node {node} "
                           f"(theta = {p.theta[node]:.6g}) at "
                           f"t = {p.t + dt:.6g}")
    return SphereProfile(p.t + dt, p.theta, a, b)


def profile_states(p: SphereProfile, dt: float, steps: int):
    """Yield the given profile, then each stepped one; only the latest
    profile is held here."""
    yield p
    for _ in range(steps):
        p = step_profile_flow(p, dt)
        yield p
