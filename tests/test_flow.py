"""Coupled metric/potential flow: stepping, identities, reports.

Oracles, independent of the stepper under test:
  - the exact shrinking-sphere solution R(t) = 2/(r0^2 - 2t),
  - a scalar conformal-factor integrator du/dt = e^{-2u} (flat Lap u)
    stepped alongside the full tensor flow on the same time axis,
  - closed-form cancellations: flat data must sit at machine zero.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_tensor_norm_sq, random_spd_metric
from sclab import charts, curvature, flow
from sclab.charts import (PERIODIC, ScalarField, diff_array,
                          inverse_and_determinant, make_chart, tree_sum)
from sclab.flow import (
    SphereProfile,
    adjoint_supersolution_residual,
    cfl_bound,
    chart_measures,
    evolution_identity_residual,
    flow_states,
    make_flow_state,
    monotonicity_report,
    profile_cfl_bound,
    profile_identity_residual,
    profile_laplacian,
    profile_scalar_curvature,
    profile_states,
    round_profile,
    step_coupled_flow,
    step_profile_flow,
)
from sclab.models import (conformal_torus, flat_torus, sphere_band,
                          spherical_shell)


def zero_phi(grid):
    return ScalarField(grid, np.zeros(grid.shape))


def lat_window(grid, lo=0.8):
    """Mask away one-sided closure rows near either pole or band edge."""
    t = grid.coords()[0]
    return (t >= lo) & (t <= np.pi - lo)


def perturbed_torus_state(res, phi_axis):
    grid, metric, _ = conformal_torus((res, res), amplitude=0.1)
    phi = ScalarField(grid, 0.2 * np.sin(grid.coords()[phi_axis]))
    return make_flow_state(0.0, metric, phi)


def refinement_order(errs):
    """Least-squares slope of log2 err against halving level."""
    lev = np.arange(len(errs), dtype=float)
    return -np.polyfit(lev, np.log2(errs), 1)[0]


class TestStepping:

    @pytest.mark.parametrize("scheme", ["euler", "midpoint"])
    def test_flat_torus_is_stationary(self, scheme):
        grid, metric = flat_torus((16, 16))
        state = make_flow_state(0.0, metric, zero_phi(grid))
        for _ in range(3):
            new = step_coupled_flow(state, 1.0e-3, scheme=scheme)
            assert np.abs(new.metric.values - state.metric.values).max() \
                <= 1e-12
            assert np.abs(new.phi.values - state.phi.values).max() <= 1e-12
            state = new

    @settings(max_examples=15, deadline=None)
    @given(res=st.integers(8, 14),
           lx=st.floats(2.0, 9.0),
           phi0=st.floats(-1.0, 1.0))
    def test_sampled_flat_metrics_are_fixed_points(self, res, lx, phi0):
        grid, metric = flat_torus((res, res), lengths=(lx, 5.0))
        phi = ScalarField(grid, np.full(grid.shape, phi0))
        state = make_flow_state(0.0, metric, phi)
        new = step_coupled_flow(state, 0.5 * cfl_bound(state))
        assert np.abs(new.metric.values - state.metric.values).max() <= 1e-12
        assert np.abs(new.phi.values - phi.values).max() <= 1e-12

    def test_cfl_violation_raises(self):
        grid, metric = flat_torus((16, 16))
        state = make_flow_state(0.0, metric, zero_phi(grid))
        with pytest.raises(ValueError, match="CFL"):
            step_coupled_flow(state, 1.01 * cfl_bound(state))

    def test_unknown_scheme_rejected(self):
        grid, metric = flat_torus((16, 16))
        state = make_flow_state(0.0, metric, zero_phi(grid))
        with pytest.raises(ValueError, match="scheme"):
            step_coupled_flow(state, 1.0e-4, scheme="rk4")

    def test_pd_loss_aborts_with_node_and_time(self):
        # one-sided boundary rows make explicit stepping on a band
        # chart unstable; the abort must name the node and the time
        grid, metric = sphere_band(17, 8)
        state = make_flow_state(0.0, metric, zero_phi(grid))
        with pytest.raises(RuntimeError,
                           match=r"t = .*positive definite at node"):
            for _ in range(2000):
                state = step_coupled_flow(state, 0.5 * cfl_bound(state))

    @pytest.mark.parametrize("scheme,ratio_lo,ratio_hi",
                             [("euler", 1.7, 2.3), ("midpoint", 3.2, 4.8)])
    def test_conformal_flow_matches_scalar_oracle(self, scheme, ratio_lo,
                                                  ratio_hi):
        # dt-halving must shrink the oracle gap at the scheme's order
        # once the shared h^2 floor is differenced away
        gaps = []
        for dt, steps in ((2.0e-3, 25), (1.0e-3, 50), (5.0e-4, 100)):
            gap = self._oracle_gap(32, dt, steps, scheme)
            gaps.append(gap)
            assert gap <= 1.0e-4
        d1 = gaps[0] - gaps[1]
        d2 = gaps[1] - gaps[2]
        assert ratio_lo <= d1 / d2 <= ratio_hi

    @staticmethod
    def _oracle_gap(res, dt, steps, scheme):
        grid, metric, u = conformal_torus((res, res), amplitude=0.1)
        state = make_flow_state(0.0, metric, zero_phi(grid))
        uv = u.values.copy()

        def slope(w):
            lap = diff_array(w, grid, 0, 2) + diff_array(w, grid, 1, 2)
            return np.exp(-2.0 * w) * lap

        for _ in range(steps):
            state = step_coupled_flow(state, dt, scheme=scheme)
            if scheme == "euler":
                uv = uv + dt * slope(uv)
            else:
                uv = uv + dt * slope(uv + 0.5 * dt * slope(uv))
        g = state.metric.values
        # the tensor step must also preserve conformality exactly
        assert np.abs(g[..., 0, 1]).max() <= 1e-13
        assert np.abs(g[..., 0, 0] - g[..., 1, 1]).max() <= 1e-13
        return np.abs(g[..., 0, 0] - np.exp(2.0 * uv)).max()

    def test_trajectory_shape(self):
        grid, metric = flat_torus((16, 16))
        state = make_flow_state(0.0, metric, zero_phi(grid))
        states = tuple(flow_states(state, 1.0e-3, 4, scheme="midpoint"))
        assert len(states) == 5
        times = [s.t for s in states]
        assert np.allclose(np.diff(times), 1.0e-3, rtol=0, atol=1e-15)


class TestProfileFlow:

    def test_round_profile_curvature_converges(self):
        errs = []
        for n in (17, 33, 65):
            r = profile_scalar_curvature(round_profile(n))
            errs.append(np.abs(r - 2.0).max())
        assert errs[-1] <= 5e-4
        assert refinement_order(errs) >= 1.8

    def test_profile_laplacian_eigenfunction(self):
        errs = []
        for n in (17, 33, 65):
            p = round_profile(n)
            lap = profile_laplacian(p, np.cos(p.theta))
            errs.append(np.abs(lap + 2.0 * np.cos(p.theta)).max())
        assert refinement_order(errs) >= 1.8

    @pytest.mark.parametrize("radius", [1.0, 0.8])
    def test_shrinking_sphere_tracks_exact_solution(self, radius):
        p = round_profile(33, radius=radius)
        r0sq = radius * radius
        horizon = 0.2 * r0sq
        bound = 0.5 * profile_cfl_bound(p)
        steps = int(np.ceil(horizon / bound))
        dt = horizon / steps
        traj = tuple(profile_states(p, dt, steps))
        for q in traj[:: max(1, steps // 16)] + (traj[-1],):
            expect = 2.0 / (r0sq - 2.0 * q.t)
            rel = np.abs(profile_scalar_curvature(q) - expect).max() / expect
            assert rel <= 1e-2

    def test_profile_cfl_guard(self):
        p = round_profile(33)
        with pytest.raises(ValueError, match="CFL"):
            step_profile_flow(p, 1.01 * profile_cfl_bound(p))

    def test_profile_positivity_abort(self):
        # a steep jump in a makes the advection part of K overwhelm a
        # cell within one CFL-legal step
        n = 65
        h = np.pi / n
        theta = (np.arange(n) + 0.5) * h
        a = np.where(theta < np.pi / 3, 1.0, 1000.0)
        p = SphereProfile(0.0, theta, a, np.sin(theta) ** 2)
        with pytest.raises(RuntimeError, match="lost positivity at node"):
            step_profile_flow(p, 0.9 * profile_cfl_bound(p))

    def test_scalar_is_computed_once_per_profile(self, monkeypatch):
        calls = []

        def counting(p):
            calls.append(p.t)
            return profile_scalar_curvature(p)

        monkeypatch.setattr(flow, "profile_scalar_curvature", counting)
        profiles = tuple(profile_states(round_profile(17), 1.0e-4, 4))
        monotonicity_report(profiles, 1.0e-4)
        assert len(calls) == len(profiles) == 5


class TestProfileReport:
    """The round-sphere report against Hamilton's exact flow: phi = 0,
    S = 2/(r0^2 - 2t) at every node, F = 8 pi (Gauss-Bonnet) and
    Ric - D^2 phi = K g, whose largest component max |K a| is 1."""

    LEVELS = (33, 65, 129)
    DT = 1.0e-4
    STEPS = 100

    @pytest.fixture(scope="class")
    def runs(self):
        out = []
        for n in self.LEVELS:
            profiles = tuple(profile_states(round_profile(n), self.DT,
                                            self.STEPS))
            out.append((profiles, monotonicity_report(profiles, self.DT)))
        return out

    @staticmethod
    def scalar_error(profiles):
        return max(np.abs(p.scalar - 2.0 / (1.0 - 2.0 * p.t)).max()
                   for p in profiles)

    def test_scalar_matches_exact_solution_at_every_node(self, runs):
        errs = [self.scalar_error(profiles) for profiles, _ in runs]
        start = [self.scalar_error(profiles[:1]) for profiles, _ in runs]
        assert start[0] <= 1.6e-3 and start[-1] <= 1.0e-4
        assert refinement_order(errs) >= 1.8
        assert refinement_order(start) >= 1.8
        for profiles, rep in runs:
            assert np.array_equal(rep.times, [p.t for p in profiles])
            assert np.array_equal(rep.inf_s,
                                  [p.scalar.min() for p in profiles])
            exact = 2.0 / (1.0 - 2.0 * rep.times)
            assert (np.abs(rep.inf_s - exact) <= self.scalar_error(profiles)
                    ).all()

    @staticmethod
    def pole_turning(p):
        """4 pi times the turning v'/sqrt(a) of v = sqrt(b) at the two
        poles, each slope read across the pole's parity ghost: the
        boundary side of Gauss-Bonnet, 8 pi for a smooth sphere."""
        v = np.sqrt(p.b)
        return 4.0 * np.pi * (2.0 * v[0] / np.sqrt(p.a[0])
                              + 2.0 * v[-1] / np.sqrt(p.a[-1])) / p.spacing

    def test_total_matches_gauss_bonnet(self, runs):
        # a stays constant in theta on the round profile, so the
        # curvature stencil telescopes and F meets the pole turning to
        # rounding; both sides close in on 8 pi at second order
        rel = []
        for profiles, rep in runs:
            turning = np.array([self.pole_turning(p) for p in profiles])
            assert np.abs(rep.f_values / turning - 1.0).max() <= 1.0e-13
            rel.append(np.abs(rep.f_values / (8.0 * np.pi) - 1.0).max())
        assert rel[0] <= 4.0e-4 and rel[-1] <= 3.0e-5
        assert refinement_order(rel) >= 1.8

    def test_gap_is_one_within_stencil_error(self, runs):
        gaps = []
        for profiles, rep in runs:
            gap = np.abs(rep.gap_norms - 1.0).max()
            assert gap <= self.scalar_error(profiles)
            assert not rep.rigidity.any()
            gaps.append(gap)
        assert refinement_order(gaps) >= 1.8

    def test_identity_residual_holds(self, runs):
        for profiles, rep in runs:
            assert np.isnan(rep.identity_residuals[[0, -1]]).all()
            assert rep.identity_residuals[1:-1].max() <= 1.0e-6
            for k in (1, len(profiles) // 2):
                expect = np.abs(profile_identity_residual(
                    *profiles[k - 1:k + 2], self.DT)).max()
                assert rep.identity_residuals[k] == expect

    def test_reversed_profiles_fail_the_verdict(self, runs):
        # negative control: the same profiles read backward in time
        profiles, _ = runs[0]
        rep = monotonicity_report(profiles[::-1], self.DT)
        assert not rep.monotone
        assert rep.violations[0] == 0


class TestEvolutionIdentity:

    def test_flat_residual_zero(self):
        grid, metric = flat_torus((16, 16))
        state = make_flow_state(0.0, metric, zero_phi(grid))
        states = tuple(flow_states(state, 1.0e-3, 4))
        res = evolution_identity_residual(*states[1:4], 1.0e-3)
        assert np.abs(res).max() <= 1e-10

    def test_sphere_residual_dt2(self):
        # both sides equal R^2 analytically; the profile stencils' h^2
        # error cancels between them on the round sphere, so what is
        # left at every level is the centered slope's O(dt^2)
        for n in (17, 33, 65):
            errs = []
            for dt in (4.0e-4, 2.0e-4, 1.0e-4):
                rep = monotonicity_report(
                    profile_states(round_profile(n), dt, 2), dt)
                errs.append(rep.identity_residuals[1])
            assert errs[-1] <= 1.0e-6
            assert refinement_order(errs) >= 1.8

    def test_perturbed_torus_order_in_dt(self):
        fields = []
        for halvings in range(3):
            dt = 2.0e-3 / 2 ** halvings
            steps = 4 * 2 ** halvings
            states = tuple(flow_states(perturbed_torus_state(32, phi_axis=1),
                                       dt, steps))
            mid = steps // 2
            fields.append(evolution_identity_residual(
                *states[mid - 1:mid + 2], dt))
        d1 = np.abs(fields[0] - fields[1]).max()
        d2 = np.abs(fields[1] - fields[2]).max()
        assert np.log2(d1 / d2) >= 0.9

    def test_forcing_is_pointwise_nonnegative(self):
        state = perturbed_torus_state(24, phi_axis=1)
        gap = state.ricci_hessian_gap
        inv = state.bundle.inverse
        forcing = 2.0 * np.einsum("...ia,...jb,...ij,...ab->...",
                                  inv, inv, gap, gap, optimize=False)
        assert forcing.min() >= 0.0


class TestTensorNorm:
    """The forcing norm agrees bit for bit with the generic einsum."""

    @pytest.mark.parametrize("resolution", [(64, 64), (33, 65)])
    def test_random_2d(self, resolution):
        grid = make_chart(2, resolution, (2 * np.pi, 2 * np.pi),
                          (PERIODIC, PERIODIC))
        self._check(grid, seed=sum(resolution))

    def test_3d_shell(self):
        grid, _ = spherical_shell(9, 12, 9, rel_width=0.3)
        self._check(grid, seed=5)

    @staticmethod
    def _check(grid, seed):
        inverse = np.linalg.inv(random_spd_metric(grid, seed).values)
        tensor = random_spd_metric(grid, seed + 1).values - 2.0
        assert np.array_equal(flow._tensor_norm_sq(inverse, tensor),
                              dense_tensor_norm_sq(inverse, tensor))


class TestMonotonicity:

    def test_flat_is_rigid(self):
        grid, metric = flat_torus((16, 16))
        state = make_flow_state(0.0, metric, zero_phi(grid))
        rep = monotonicity_report(flow_states(state, 1.0e-3, 5), 1.0e-3)
        assert rep.monotone
        assert rep.rigidity.all()
        assert np.abs(rep.inf_s).max() <= 1e-12

    def test_sphere_inf_s_strictly_increases(self):
        p = round_profile(33)
        dt = 0.5 * profile_cfl_bound(p)
        rep = monotonicity_report(profile_states(p, dt, 220), dt)
        assert rep.monotone
        assert len(rep.times) == 221
        assert (np.diff(rep.inf_s) > 0).all()
        assert not rep.rigidity.any()

    def test_perturbed_torus_200_steps(self):
        state = perturbed_torus_state(24, phi_axis=0)
        dt = 0.45 * cfl_bound(state)
        rep = monotonicity_report(flow_states(state, dt, 200), dt)
        assert rep.violations == ()
        assert rep.monotone
        assert len(rep.times) == 201

    def test_needs_two_states(self):
        grid, metric = flat_torus((16, 16))
        state = make_flow_state(0.0, metric, zero_phi(grid))
        states = tuple(flow_states(state, 1.0e-3, 1))
        with pytest.raises(ValueError, match="two states"):
            monotonicity_report(states[:1], 1.0e-3)

    def test_identity_residuals_nan_only_at_ends(self):
        state = perturbed_torus_state(16, phi_axis=1)
        states = tuple(flow_states(state, 1.0e-3, 4))
        rep = monotonicity_report(states, 1.0e-3)
        assert np.isnan(rep.identity_residuals[[0, -1]]).all()
        for k in (1, 2, 3):
            expect = np.abs(evolution_identity_residual(
                *states[k - 1:k + 2], 1.0e-3)).max()
            assert rep.identity_residuals[k] == expect

    def test_f_matches_the_inversion_route_bit_for_bit(self):
        # F reads the bundle's volume; rebuilt here the way integrate
        # used to take it, from a second inversion of the metric
        state = perturbed_torus_state(16, phi_axis=1)
        det = inverse_and_determinant(state.metric.values)[1]
        want = tree_sum(state.stabilized.values * np.exp(state.phi.values)
                        * np.sqrt(det) * state.metric.grid.cell_weights())
        assert chart_measures(state)[1] == want

    def test_one_inversion_per_state(self, monkeypatch):
        # the bundle's one inversion gives the inverse and the volume;
        # neither the measures nor the identity residual invert again
        calls = []

        def counted(g):
            calls.append(g.shape)
            return inverse_and_determinant(g)

        state = perturbed_torus_state(16, phi_axis=1)
        for module in (charts, curvature):
            monkeypatch.setattr(module, "inverse_and_determinant", counted)
        monotonicity_report(flow_states(state, 1.0e-3, 3), 1.0e-3)
        assert len(calls) == 3

    def test_ricci_hessian_gap_is_computed_once(self):
        state = perturbed_torus_state(16, phi_axis=1)
        gap = state.ricci_hessian_gap
        assert gap is state.ricci_hessian_gap
        assert (gap == state.bundle.ricci.values
                - state.potential.hessian.values).all()


class TestAdjointResidual:

    def test_flat_residual_zero(self):
        grid, metric = flat_torus((16, 16))
        state = make_flow_state(0.0, metric, zero_phi(grid))
        assert np.abs(adjoint_supersolution_residual(state).values).max() \
            <= 1e-10

    def test_round_sphere_window(self):
        # discrete R on this chart is latitude-constant, so the window
        # residual collapses to rounding rather than a generic O(h^2)
        grid, metric = sphere_band(33, 12)
        state = make_flow_state(0.0, metric, zero_phi(grid))
        res = adjoint_supersolution_residual(state).values
        assert np.abs(res[lat_window(grid)]).max() <= 1e-9

    def test_conformal_torus_order(self):
        errs = []
        for n in (17, 33, 65):
            grid, metric, _ = conformal_torus((n, n), amplitude=0.1)
            x1, x2 = grid.coords()
            phi = ScalarField(grid, 0.15 * np.sin(x1) * np.cos(x2))
            state = make_flow_state(0.0, metric, phi)
            errs.append(
                np.abs(adjoint_supersolution_residual(state).values).max())
        assert errs[-1] <= 1e-3
        assert refinement_order(errs) >= 1.8

