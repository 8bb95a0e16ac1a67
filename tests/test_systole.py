"""Winding graphs, lattice systoles, equality certificates.

Oracles, independent of the cover search under test:
  - exhaustive branch-and-bound over simple cycles with nonzero
    winding on coarse lattices (a shortest closed walk with nonzero
    winding can always be taken simple, so the enumeration is exact),
  - per-edge midpoint-rule quadrature recomputed scalar by scalar,
  - closed geodesics of flat product and sheared constant metrics,
    whose homotopy classes minimize |p L1 + q L2|_g over integers,
  - independent winding bookkeeping by unwrapped-coordinate tracking
    along random closed walks.
"""

import dataclasses
import math
import shlex

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import constant_metric, coo_cover, coo_reduced_data, \
    edge_table, full_radius_sigma, half_radius_estimates, \
    random_spd_metric, reference_cycle_length
from sclab import systole
from sclab.charts import TensorField, make_chart
from sclab.models import TWO_PI, flat_torus, torus_surface
from sclab.systole import (
    PASS_TOL,
    DiskCylinder,
    SphereCylinder,
    build_winding_graph,
    certificate_line,
    cycle_length,
    equality_certificate,
    quantization_bound,
    systole_sigma,
)

_CACHE = {}


def cached(key, build):
    if key not in _CACHE:
        _CACHE[key] = build()
    return _CACHE[key]


def aniso_metric(x1, x2):
    out = np.zeros(np.shape(x1) + (2, 2))
    out[..., 0, 0] = 1.0 + 0.3 * np.sin(x2)
    out[..., 1, 1] = 1.0
    return out


def cert_disk():
    return cached("cert-disk", lambda: equality_certificate(
        DiskCylinder(1.0, 10.0)))


def cert_sphere():
    return cached("cert-sphere", lambda: equality_certificate(
        SphereCylinder(2.0, 10.0)))


def aniso_graph(res, conn, axis=0):
    grid, _ = flat_torus(res, (TWO_PI, TWO_PI))
    return build_winding_graph(grid, aniso_metric, xi_axis=axis,
                               connectivity=conn)


def shear_graph(conn, axis=0, shear=-0.6):
    grid, _ = flat_torus(32, (1.0, 1.0))
    metric = constant_metric(grid, [[1.0, shear], [shear, 1.0]])
    return build_winding_graph(grid, metric, xi_axis=axis, connectivity=conn)


def trig_metric(amp):
    def metric(x1, x2):
        out = np.zeros(np.shape(x1) + (2, 2))
        out[..., 0, 0] = 1.0 + amp * np.sin(x2)
        out[..., 1, 1] = 1.0 + amp * np.cos(x1)
        return out
    return metric


def trig_graph(amp, conn, axis=0):
    grid, _ = flat_torus(16, (TWO_PI, TWO_PI))
    return build_winding_graph(grid, trig_metric(amp), xi_axis=axis,
                               connectivity=conn)


def knight_graph(axis, amp=0.5):
    """16-neighbor graph whose shortest xi loops miss column 0.

    g_xi,xi is large at half-integer xi, where axis steps have their
    midpoints, and small at the nodes, where knight steps (2, +-1) have
    theirs, smallest on even columns.  So the shortest loops zigzag by
    knight steps through the odd columns, whose knight steps have even
    midpoints.
    """
    grid, _ = flat_torus(16, (TWO_PI, TWO_PI))

    def metric(x1, x2):
        xi = (x1, x2)[axis]
        out = np.zeros(np.shape(x1) + (2, 2))
        out[..., axis, axis] = 1.0 - amp * np.cos(16 * xi) \
            - 0.05 * np.cos(8 * xi)
        out[..., 1 - axis, 1 - axis] = 1.0
        return out

    return build_winding_graph(grid, metric, xi_axis=axis, connectivity=16)


def random_graph(res, seed, conn, axis):
    grid, _ = flat_torus(res, (TWO_PI, TWO_PI))
    return build_winding_graph(grid, random_spd_metric(grid, seed),
                               xi_axis=axis, connectivity=conn)


def product_graph(res, conn, axis):
    grid, metric = torus_surface(res, res, radius=1.0, fiber_len=10.0)
    return build_winding_graph(grid, metric, xi_axis=axis,
                               connectivity=conn)


def walled_graph(conn, axis):
    """Random metric on a chart whose other axis has walls, so edges
    that would leave it are dropped and wall rows have fewer edges."""
    shape, extent = [16, 16], [TWO_PI, TWO_PI]
    topology = ["periodic", "periodic"]
    shape[1 - axis], extent[1 - axis], topology[1 - axis] = 9, 1.0, "boundary"
    grid = make_chart(2, shape, extent, topology)
    return build_winding_graph(grid, random_spd_metric(grid, 7),
                               xi_axis=axis, connectivity=conn)


# family -> graph builder from (param, connectivity, xi axis)
FAMILIES = {
    "walled": lambda p, c, a: walled_graph(c, a),
    "trig": trig_graph,
    "shear": lambda p, c, a: shear_graph(c, a, p),
    "aniso": aniso_graph,
    "knight": lambda p, c, a: knight_graph(a, 0.5 if p is None else p),
    "random": lambda p, c, a: random_graph(*p, c, a),
    "product": product_graph,
}


def family_graph(family, param, conn, axis):
    return cached((family, param, conn, axis),
                  lambda: FAMILIES[family](param, conn, axis))


def adjacency(graph):
    adj = {}
    for a, b, ell, w in zip(graph.tail.tolist(), graph.head.tolist(),
                            graph.length.tolist(), graph.winding.tolist()):
        adj.setdefault(a, []).append((b, ell, w))
        adj.setdefault(b, []).append((a, ell, -w))
    return adj


def brute_force_sigma(graph):
    """Exhaustive branch-and-bound over simple nonzero-winding cycles.

    Every such cycle uses a cut-crossing edge, and each of those has an
    endpoint in the first or last xi column, so those columns suffice
    as start nodes.  Both columns are kept at every connectivity, where
    systole_sigma starts from column 0 alone when the stencil steps one
    column along xi, so the enumeration does not share that choice.
    """
    adj = adjacency(graph)
    n0, n1 = graph.grid.shape
    if graph.xi_axis == 0:
        starts = [i * n1 + j for i in (0, n0 - 1) for j in range(n1)]
    else:
        starts = [i * n1 + j for j in (0, n1 - 1) for i in range(n0)]
    best = [math.inf]

    def dfs(v, start, length, wind, visited):
        for u, ell, w in adj[v]:
            total = length + ell
            if total >= best[0]:
                continue
            if u == start:
                if wind + w != 0:
                    best[0] = total
                continue
            if u in visited:
                continue
            visited.add(u)
            dfs(u, start, total, wind + w, visited)
            visited.remove(u)

    for s in starts:
        dfs(s, s, 0.0, 0, {s})
    return best[0]


class TestWindingGraph:
    def test_unit_torus_axis_edges_have_length_h(self):
        grid, metric = flat_torus(8, (1.0, 1.0))
        graph = build_winding_graph(grid, metric, connectivity=4)
        h = grid.spacing[0]
        axis0 = graph.length[:64]
        axis1 = graph.length[64:]
        assert np.all(axis0 == h)
        assert np.all(axis1 == grid.spacing[1])
        assert graph.length.size == 2 * 64

    def test_cylinder_circumferential_edges(self):
        grid, metric = torus_surface(16, 8, radius=2.5, fiber_len=3.0)
        graph = build_winding_graph(grid, metric, connectivity=4)
        h_angle = grid.spacing[0]
        circum = graph.length[:16 * 8]
        assert np.allclose(circum, 2.5 * h_angle, rtol=0.0, atol=1e-15)

    def test_lengths_match_scalar_midpoint_quadrature(self):
        graph = cached(("aniso", 16, 8), lambda: aniso_graph(16, 8))
        grid = graph.grid
        h = grid.spacing
        for k in range(0, graph.length.size, 7):
            a, b = int(graph.tail[k]), int(graph.head[k])
            ai, aj = divmod(a, grid.shape[1])
            bi, bj = divmod(b, grid.shape[1])
            di = (bi - ai + grid.shape[0] // 2) % grid.shape[0] \
                - grid.shape[0] // 2
            dj = (bj - aj + grid.shape[1] // 2) % grid.shape[1] \
                - grid.shape[1] // 2
            x2 = grid.origin[1] + (aj + 0.5 * dj) * h[1]
            gm = 1.0 + 0.3 * math.sin(x2)
            ell = math.sqrt(gm * (di * h[0]) ** 2 + (dj * h[1]) ** 2)
            assert ell == pytest.approx(graph.length[k], abs=1e-12)

    def test_sampled_metric_agrees_with_callable_for_constants(self):
        grid, metric = torus_surface(12, 8, radius=1.5, fiber_len=2.0)

        def fn(x1, x2):
            out = np.zeros(np.shape(x1) + (2, 2))
            out[..., 0, 0] = 1.5 ** 2
            out[..., 1, 1] = 1.0
            return out

        g_field = build_winding_graph(grid, metric, connectivity=16)
        g_fn = build_winding_graph(grid, fn, connectivity=16)
        assert np.array_equal(g_field.length, g_fn.length)
        assert np.array_equal(g_field.winding, g_fn.winding)

    def test_sampled_metric_midpoint_gap_is_second_order(self):
        gaps = []
        for res in (16, 32):
            grid, _ = flat_torus(res, (TWO_PI, TWO_PI))
            vals = aniso_metric(*grid.coords())
            field = TensorField(grid, 2, vals)
            g_field = build_winding_graph(grid, field, connectivity=4)
            g_fn = build_winding_graph(grid, aniso_metric, connectivity=4)
            gaps.append(np.abs(g_field.length - g_fn.length).max())
        assert gaps[1] <= 0.3 * gaps[0]

    def test_windings_are_single_cut_crossings(self):
        for conn in (4, 8, 16):
            graph = cached(("aniso", 16, conn),
                           lambda c=conn: aniso_graph(16, c))
            assert set(np.unique(graph.winding)) <= {-1, 0, 1}
            n1 = graph.grid.shape[1]
            crossing = graph.winding != 0
            cols = np.concatenate([graph.tail[crossing] // n1,
                                   graph.head[crossing] // n1])
            assert set(cols.tolist()) <= {0, 1, 14, 15}

    def test_lengths_are_positive(self):
        for conn in (4, 8, 16):
            graph = cached(("aniso", 16, conn),
                           lambda c=conn: aniso_graph(16, c))
            assert (graph.length > 0.0).all()

    def test_cocycle_on_random_closed_walks(self):
        rng = np.random.default_rng(11)
        for conn, axis in ((4, 0), (8, 1), (16, 0)):
            graph = cached(("aniso-ax", 16, conn, axis),
                           lambda c=conn, a=axis: aniso_graph(16, c, a))
            for _ in range(100):
                wind, wraps = self._random_closed_walk(graph, rng)
                assert wind == wraps

    @staticmethod
    def _random_closed_walk(graph, rng, out_steps=30):
        """Random walk closed along axis steps; returns the edge-label
        winding sum and the net wrap count from unwrapped xi tracking."""
        n0, n1 = graph.grid.shape
        n_xi = graph.grid.shape[graph.xi_axis]
        adj = adjacency(graph)
        table = edge_table(graph)

        def xi_of(v):
            return v // n1 if graph.xi_axis == 0 else v % n1

        start = int(rng.integers(graph.node_count))
        at, wind, unwrapped = start, 0, 0
        for _ in range(out_steps):
            nxt, _, w = adj[at][int(rng.integers(len(adj[at])))]
            unwrapped += (xi_of(nxt) - xi_of(at)) + w * n_xi
            wind += w
            at = nxt
        while xi_of(at) != xi_of(start):
            gap = (xi_of(start) - xi_of(at)) % n_xi
            sgn = 1 if gap <= n_xi // 2 else -1
            i, j = divmod(at, n1)
            if graph.xi_axis == 0:
                nxt = ((i + sgn) % n0) * n1 + j
            else:
                nxt = i * n1 + (j + sgn) % n1
            w = table[(at, nxt)][1]
            unwrapped += (xi_of(nxt) - xi_of(at)) + w * n_xi
            wind += w
            at = nxt
        other = 1 - graph.xi_axis
        n_other = graph.grid.shape[other]

        def oth_of(v):
            return v % n1 if graph.xi_axis == 0 else v // n1

        while oth_of(at) != oth_of(start):
            gap = (oth_of(start) - oth_of(at)) % n_other
            sgn = 1 if gap <= n_other // 2 else -1
            i, j = divmod(at, n1)
            if other == 1:
                at = i * n1 + (j + sgn) % n1
            else:
                at = ((i + sgn) % n0) * n1 + j
        assert at == start
        assert unwrapped % n_xi == 0
        return wind, unwrapped // n_xi

    def test_boundary_fiber_axis_drops_exiting_edges(self):
        grid = make_chart(2, (16, 9), (TWO_PI, 1.0),
                          ("periodic", "boundary"))
        metric = constant_metric(grid, np.eye(2))
        graph = build_winding_graph(grid, metric, xi_axis=0, connectivity=8)
        assert graph.length.size < 4 * 16 * 9
        sigma, _ = systole_sigma(graph)
        assert sigma == pytest.approx(TWO_PI, abs=1e-12)

    def test_rejects_non_periodic_winding_axis(self):
        grid = make_chart(2, (8, 8), (1.0, 1.0), ("boundary", "periodic"))
        metric = constant_metric(grid, np.eye(2))
        with pytest.raises(ValueError, match="periodic"):
            build_winding_graph(grid, metric, xi_axis=0)

    def test_rejects_non_surface_chart(self):
        grid, metric = flat_torus(8, (1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="2-d"):
            build_winding_graph(grid, metric)

    def test_rejects_unknown_connectivity(self):
        grid, metric = flat_torus(8, (1.0, 1.0))
        with pytest.raises(ValueError, match="connectivity"):
            build_winding_graph(grid, metric, connectivity=6)

    def test_rejects_indefinite_metric(self):
        grid, _ = flat_torus(8, (1.0, 1.0))
        bad = constant_metric(grid, [[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="positive definite"):
            build_winding_graph(grid, bad, connectivity=8)

    def test_rejects_metric_sampled_on_another_grid(self):
        # the metric's node ids would index only its first 256 of 1,024
        grid, _ = flat_torus(16, (1.0, 1.0))
        _, finer = flat_torus(32, (1.0, 1.0))
        with pytest.raises(ValueError, match=r"sampled on a \(32, 32\) "
                                             r"grid, not on the graph's "
                                             r"\(16, 16\) chart"):
            build_winding_graph(grid, finer, connectivity=8)

    # the 8 x 8 torus has 64 edges per stencil offset, and the first
    # offset's midpoints sit at ((i + 1/2) h, j h) with h = 1/8
    @pytest.mark.parametrize("metric,message", [
        (lambda x1, x2: np.eye(2),
         r"must return shape \(64, 2, 2\) at these edge midpoints, "
         r"got \(2, 2\)"),
        (lambda x1, x2: np.broadcast_to(np.eye(3), np.shape(x1) + (3, 3)),
         r"must return shape \(64, 2, 2\) at these edge midpoints, "
         r"got \(64, 3, 3\)"),
        (lambda x1, x2: np.where(((x1 > 0.3) & (x2 > 0.3))[:, None, None],
                                 np.nan, np.eye(2)),
         r"not finite at the midpoint of an edge from node \(2, 3\)")],
        ids=["constant", "3x3", "nan"])
    def test_rejects_malformed_callable_metric(self, metric, message):
        grid, _ = flat_torus(8, (1.0, 1.0))
        with pytest.raises(ValueError, match=message):
            build_winding_graph(grid, metric, connectivity=8)


class TestSystole:
    def test_unit_torus_four_neighbor_is_exactly_one(self):
        grid, metric = flat_torus(8, (1.0, 1.0))
        graph = build_winding_graph(grid, metric, connectivity=4)
        sigma, cycle = systole_sigma(graph)
        assert sigma == 1.0
        length, wind = reference_cycle_length(graph, cycle)
        assert length == 1.0 and wind == 1
        assert len(cycle) == 9

    @pytest.mark.parametrize("axis,conn", [(0, 4), (1, 4), (0, 8)])
    def test_matches_exhaustive_enumeration(self, axis, conn):
        graph = cached(("aniso-ax", 8, conn, axis),
                       lambda: aniso_graph(8, conn, axis))
        brute = brute_force_sigma(graph)
        sigma, cycle = systole_sigma(graph)
        assert sigma == pytest.approx(brute, abs=1e-12)
        length, wind = reference_cycle_length(graph, cycle)
        assert wind != 0
        assert length == pytest.approx(sigma, abs=1e-12)

    def test_product_circle_systole_at_scale(self):
        grid, metric = torus_surface(128, 128, radius=1.0, fiber_len=10.0)
        graph = build_winding_graph(grid, metric, xi_axis=0,
                                    connectivity=16)
        sigma, cycle = systole_sigma(graph)
        assert abs(sigma - TWO_PI) / TWO_PI <= 1.5e-2
        length, wind = reference_cycle_length(graph, cycle)
        assert wind != 0
        assert length == pytest.approx(sigma, abs=1e-12)

    def test_trough_loop_on_anisotropic_torus(self):
        graph = cached(("aniso", 32, 8), lambda: aniso_graph(32, 8))
        sigma, _ = systole_sigma(graph)
        assert sigma == pytest.approx(math.sqrt(0.7) * TWO_PI, rel=1e-13)

    def test_shear_metric_against_class_minimum(self):
        # closed classes (p, q): straight representatives have length
        # |(p, q)|_g; (1, 1) wins at sqrt(0.8) and the 8-neighbor
        # diagonal realizes it exactly, while 4-neighbor paths cannot
        # beat the straight axis loop.
        s4, _ = systole_sigma(cached(("shear", 4), lambda: shear_graph(4)))
        s8, _ = systole_sigma(cached(("shear", 8), lambda: shear_graph(8)))
        assert s4 == pytest.approx(1.0, rel=1e-13)
        assert s8 == pytest.approx(math.sqrt(0.8), rel=1e-13)

    def test_connectivity_is_monotone_nonincreasing(self):
        sigmas = {}
        for conn in (4, 8, 16):
            graph = cached(("shear", conn), lambda c=conn: shear_graph(c))
            sigmas[conn], _ = systole_sigma(graph)
        assert sigmas[4] >= sigmas[8] >= sigmas[16]
        assert sigmas[4] > sigmas[8]

    def test_quantization_bound_covers_overestimate(self):
        true = math.sqrt(0.8)
        for conn in (4, 8, 16):
            graph = cached(("shear", conn), lambda c=conn: shear_graph(c))
            sigma, _ = systole_sigma(graph)
            assert sigma / true - 1.0 <= quantization_bound(conn) + 1e-12

    def test_quantization_bound_closed_forms(self):
        assert quantization_bound(4) == pytest.approx(math.sqrt(2) - 1)
        assert quantization_bound(8) == pytest.approx(
            1.0 / math.cos(math.pi / 8) - 1.0)
        assert quantization_bound(16) == pytest.approx(
            1.0 / math.cos(0.5 * math.atan2(1.0, 2.0)) - 1.0)
        assert quantization_bound(16) < 0.03

    def test_refinement_never_exceeds_quantization_slack(self):
        prev = None
        for res in (16, 32, 64):
            graph = cached(("aniso", res, 8), lambda r=res: aniso_graph(r, 8))
            sigma, _ = systole_sigma(graph)
            if prev is not None:
                assert sigma <= prev * (1.0 + quantization_bound(8)) + 1e-12
            prev = sigma

    def test_metric_scaling_scales_sigma_exactly(self):
        graph = cached(("aniso", 32, 8), lambda: aniso_graph(32, 8))
        grid = graph.grid
        scaled = build_winding_graph(
            grid, lambda a, b: 4.0 * aniso_metric(a, b), xi_axis=0,
            connectivity=8)
        assert np.array_equal(scaled.length, 2.0 * graph.length)
        s1, c1 = systole_sigma(graph)
        s2, c2 = systole_sigma(scaled)
        assert s2 == 2.0 * s1
        assert c1 == c2

    @settings(max_examples=10, deadline=None)
    @given(amp=st.floats(0.0, 0.45), conn=st.sampled_from([4, 8]))
    def test_reported_cycle_always_checks_out(self, amp, conn):
        graph = trig_graph(amp, conn)
        sigma, cycle = systole_sigma(graph)
        length, wind = reference_cycle_length(graph, cycle)
        assert wind != 0
        assert length == pytest.approx(sigma, abs=1e-12)
        assert cycle[0] == cycle[-1]

    def test_cycle_length_rejects_open_walks(self):
        graph = cached(("aniso", 16, 8), lambda: aniso_graph(16, 8))
        with pytest.raises(ValueError, match="closed"):
            cycle_length(graph, (0, 1, 2))

    def test_cycle_length_rejects_non_edges(self):
        graph = cached(("aniso", 16, 8), lambda: aniso_graph(16, 8))
        with pytest.raises(ValueError, match="not a graph edge"):
            cycle_length(graph, (0, 5, 0))

    def test_edge_order_changes_neither_sigma_nor_cycle(self):
        # the straight-loop bound finds the unit xi steps by their heads;
        # read as one block in build order, the (0, 1) block first would
        # give the cheap fiber steps and a search limit below zero
        grid, _ = flat_torus(16, (1.0, 1.0))
        flat = build_winding_graph(
            grid, constant_metric(grid, np.diag([1.0, 0.04])), xi_axis=0,
            connectivity=4)
        n = flat.node_count
        cases = [(flat, np.r_[n:2 * n, 0:n])]
        rng = np.random.default_rng(7)
        for axis in (0, 1):
            graph = aniso_graph(32, 16, axis)
            cases.append((graph, rng.permutation(graph.tail.size)))
        assert systole_sigma(flat)[0] == 1.0
        for graph, order in cases:
            permuted = dataclasses.replace(
                graph, tail=graph.tail[order], head=graph.head[order],
                length=graph.length[order], winding=graph.winding[order])
            assert (systole._straight_loop_bound(permuted)
                    == systole._straight_loop_bound(graph))
            assert systole_sigma(permuted) == systole_sigma(graph)

    # amplitude 1e-11 ties every row's loop within the rerun slack, with
    # the shortest one away from row 0; on the product torus every
    # source's loop ties and reruns; the knight graphs' shortest
    # loops miss column 0; on random metrics at connectivity 16 both
    # searches start from the same two columns
    @pytest.mark.parametrize("family,param,conn,axis", [
        *[("trig", amp, conn, axis) for amp in (0.0, 1e-11, 0.2, 0.45)
          for conn in (4, 8, 16) for axis in (0, 1)],
        *[("shear", shear, conn, axis) for shear in (0.6, -0.6)
          for conn in (4, 8, 16) for axis in (0, 1)],
        ("aniso", 128, 16, 0),
        ("product", 64, 16, 0), ("product", 64, 8, 0),
        ("knight", None, 16, 0), ("knight", None, 16, 1),
        *[("random", res_seed, 16, axis)
          for res_seed, axis in (((15, 0), 0), ((15, 4), 1), ((12, 14), 1),
                                 ((17, 23), 1))],
    ], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else None)
    def test_matches_full_radius_search(self, family, param, conn, axis):
        graph = family_graph(family, param, conn, axis)
        sigma, cycle = systole_sigma(graph)
        assert (sigma, cycle) == full_radius_sigma(graph)
        twice = cycle + cycle[1:]
        assert cycle_length(graph, twice) == \
            reference_cycle_length(graph, twice)
        assert cycle_length(graph, twice)[1] == 2

    # at unit xi steps the search starts from column 0 alone, and the
    # reference's minimum may be the same loop summed from its end in
    # the last column: a rotation of the cycle, which the search sums
    # from there as well, so sigma agrees bit for bit
    @pytest.mark.parametrize("res,seed,conn,axis", [
        (res, seed, conn, axis) for res in (13, 15, 17) for seed in (0, 1)
        for conn in (4, 8) for axis in (0, 1)])
    def test_random_metrics_at_unit_xi_steps_match_up_to_rotation(
            self, res, seed, conn, axis):
        graph = random_graph(res, seed, conn, axis)
        sigma, cycle = systole_sigma(graph)
        ref_sigma, ref_cycle = full_radius_sigma(graph)
        loop, ref_loop = list(cycle[:-1]), list(ref_cycle[:-1])
        assert ref_loop[0] in loop
        start = loop.index(ref_loop[0])
        assert loop[start:] + loop[:start] == ref_loop
        assert sigma == ref_sigma

    def test_searches_from_one_column_at_unit_xi_steps(self, monkeypatch):
        graph = cached(("aniso", 128, 8), lambda: aniso_graph(128, 8))
        real, calls = systole.dijkstra, []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(systole, "dijkstra", counting)
        systole_sigma(graph)
        assert len(calls) <= graph.grid.shape[1] + 2

    def test_doctored_cycle_is_rejected(self, monkeypatch):
        # predecessor searches that report every distance 1e-9 sigma long
        # hand back a cycle that no longer walks to cP + d'; the offset is
        # additive, since d' is nearly 0 where the loop runs along the
        # cheapest xi direction, as on the trough row here
        graph = cached(("aniso", 16, 8), lambda: aniso_graph(16, 8))
        offset = 1e-9 * systole_sigma(graph)[0]
        real = systole.dijkstra

        def doctored(*args, **kwargs):
            out = real(*args, **kwargs)
            if kwargs.get("return_predecessors"):
                return out[0] + offset, out[1]
            return out

        monkeypatch.setattr(systole, "dijkstra", doctored)
        with pytest.raises(RuntimeError, match=r"cycle from cut node "
                                               r"\(0, \d+\) walks to length"):
            systole_sigma(graph)

    def test_loose_straight_bound_keeps_reruns_in_the_window(
            self, monkeypatch):
        # the straight loops are 2.5 sigma long, and a full search
        # pruned against them can step out of layer -2 from (0, 0);
        # searches reach that far only from the sources of the
        # shortest loops, and (0, 0) is not one
        graph = knight_graph(0, amp=0.9)
        found = systole_sigma(graph)
        monkeypatch.setattr(systole, "_LAYER_LO", -4)
        monkeypatch.setattr(systole, "_LAYER_HI", 5)
        assert found == full_radius_sigma(graph)

    # the shear metric's cheapest xi progress, by knight steps, prices
    # a loop at cP = 0.806 against sigma = 0.894 and a straight bound
    # of 1, so each first-pass search reaches well past its source
    @pytest.mark.parametrize("lo,hi,calls,message", [
        (0, 1, 1, r"cut node \(0, 0\) can leave the cover's layer window "
                  r"\[0, 1\] from node \(0, 0\) in layer 0"),
        (-2, 1, 3, r"cut node \(31, 0\) can leave the cover's layer window "
                   r"\[-2, 1\] from node \(31, 0\) in layer 1")],
        ids=["lower", "upper"])
    def test_first_pass_checks_the_window(self, monkeypatch, lo, hi, calls,
                                          message):
        # a step back across the cut leaves window [0, 1] from the first
        # source; window [-2, 1] is left upwards, past the translate,
        # only where a walk back down to it still fits under the limit,
        # first from source (31, 0) in the third block of sources
        monkeypatch.setattr(systole, "_LAYER_LO", lo)
        monkeypatch.setattr(systole, "_LAYER_HI", hi)
        real, full = systole.dijkstra, []

        def recording(*args, **kwargs):
            full.append(kwargs.get("return_predecessors", False))
            return real(*args, **kwargs)

        monkeypatch.setattr(systole, "dijkstra", recording)
        graph = family_graph("shear", -0.6, 16, 0)
        with pytest.raises(RuntimeError, match=message):
            systole_sigma(graph)
        assert full == [False] * calls

    @pytest.mark.parametrize("family,param,conn,axis", [
        ("aniso", 16, 8, 0), ("aniso", 16, 8, 1),
        ("shear", -0.6, 16, 0), ("shear", 0.6, 8, 1),
        ("trig", 0.2, 16, 0), ("trig", 0.45, 4, 1),
        ("knight", None, 16, 0), ("knight", 0.9, 16, 1),
        ("random", (15, 0), 16, 0), ("random", (13, 1), 8, 1),
        ("product", 32, 16, 0)],
        ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else None)
    def test_first_pass_matches_the_half_radius_pass(self, family, param,
                                                     conn, axis):
        graph = family_graph(family, param, conn, axis)
        sources = systole._sources(graph)
        best = systole._straight_loop_bound(graph) * (1.0 + 1e-9)
        reduced, slope = systole._reduced_cover(graph)
        estimate = systole._loop_estimates(graph, reduced, slope, sources,
                                           best)
        reference = half_radius_estimates(graph)

        def rerun(loops):
            return sources[loops <= loops.min() * (1.0 + 1e-9)].tolist()

        assert rerun(estimate) == rerun(reference)
        reached = np.isfinite(estimate)
        assert reached.any()
        assert np.allclose(estimate[reached], reference[reached],
                           rtol=1e-12, atol=0.0)
        assert (reference[~reached] > best).all()

    def test_first_pass_settles_less_than_one_half_radius_ball(
            self, monkeypatch):
        graph = cached(("aniso", 64, 16), lambda: aniso_graph(64, 16))
        cover = coo_cover(graph)
        sources = systole._sources(graph)
        n, base = graph.node_count, -systole._LAYER_LO
        radius = 0.5 * systole._straight_loop_bound(graph) * (1.0 + 1e-9) \
            + float(graph.length.max())
        ball = np.isfinite(systole.dijkstra(
            cover, directed=True, indices=base * n + int(sources[0]),
            limit=radius)).sum()
        real, settled = systole.dijkstra, []

        def counting(*args, **kwargs):
            out = real(*args, **kwargs)
            if not kwargs.get("return_predecessors"):
                settled.append(int(np.isfinite(out).sum()))
            return out

        monkeypatch.setattr(systole, "dijkstra", counting)
        systole_sigma(graph)
        chunk = cover.nnz // cover.shape[0]
        assert len(settled) <= math.ceil(sources.size / chunk)
        assert sum(settled) < ball

    def test_tied_reruns_settle_no_more_than_the_first_pass(
            self, monkeypatch):
        # every row's loop ties on the product torus, so every source
        # reruns, in the first pass's blocks and within its corridors
        graph = family_graph("product", 64, 16, 0)
        sources = systole._sources(graph)
        reduced, slope = systole._reduced_cover(graph)
        estimate = systole._loop_estimates(
            graph, reduced, slope, sources,
            systole._straight_loop_bound(graph) * (1.0 + 1e-9))
        tied = int((estimate <= estimate.min() * (1.0 + 1e-9)).sum())
        assert tied == sources.size
        real, settled = systole.dijkstra, {False: [], True: []}

        def counting(*args, **kwargs):
            out = real(*args, **kwargs)
            dist = out[0] if kwargs["return_predecessors"] else out
            settled[kwargs["return_predecessors"]].append(
                int(np.isfinite(dist).sum()))
            return out

        monkeypatch.setattr(systole, "dijkstra", counting)
        systole_sigma(graph)
        chunk = reduced.nnz // reduced.shape[0]
        assert 0 < len(settled[True]) <= math.ceil(tied / chunk)
        assert sum(settled[True]) <= sum(settled[False])

    def narrowed_searches(self, monkeypatch):
        """Narrow the cover to levels 0 and 1, and record the first
        pass's limit per source id and each rerun's ids and limit."""
        monkeypatch.setattr(systole, "_LAYER_LO", 0)
        monkeypatch.setattr(systole, "_LAYER_HI", 1)
        real, first, reruns = systole.dijkstra, {}, []

        def recording(*args, **kwargs):
            if kwargs["return_predecessors"]:
                reruns.append((kwargs["indices"].tolist(), kwargs["limit"]))
            else:
                first.update(dict.fromkeys(kwargs["indices"].tolist(),
                                           kwargs["limit"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(systole, "dijkstra", recording)
        return first, reruns

    def test_layer_window_check_fires_when_narrowed(self, monkeypatch):
        # with only levels 0 and 1 in the cover, the first pass steps
        # back across the cut from the first source, before any rerun
        graph = family_graph("random", (15, 0), 16, 0)
        _, reruns = self.narrowed_searches(monkeypatch)
        with pytest.raises(RuntimeError, match=r"window \[0, 1\] from node "
                                               r"\(0, 0\) in layer 0"):
            systole_sigma(graph)
        assert not reruns

    # the aniso and product corridors stay inside levels 0 and 1, and
    # the reruns, limited no higher than the first pass from the same
    # source, need no window check of their own
    @pytest.mark.parametrize("family,param,conn,axis", [
        ("aniso", 16, 8, 0), ("product", 32, 16, 0)],
        ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else None)
    def test_reruns_stay_within_the_checked_window(self, monkeypatch, family,
                                                   param, conn, axis):
        graph = family_graph(family, param, conn, axis)
        reference = full_radius_sigma(graph)
        first, reruns = self.narrowed_searches(monkeypatch)
        assert systole_sigma(graph) == reference
        assert reruns
        for indices, limit in reruns:
            assert all(limit <= first[i] for i in indices)


# every connectivity on both axes, walls across either xi axis, and
# metrics whose edges all differ in length
COVER_GRAPHS = [
    *[("aniso", 16, conn, axis) for conn in (4, 8, 16) for axis in (0, 1)],
    ("walled", None, 16, 0), ("walled", None, 8, 1),
    ("random", (15, 0), 16, 0), ("random", (13, 1), 8, 1),
    ("trig", 0.2, 4, 1), ("knight", None, 16, 1), ("product", 32, 16, 0)]


class TestCoverLayout:
    @pytest.mark.parametrize(
        "family,param,conn,axis", COVER_GRAPHS,
        ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else None)
    def test_matches_the_coo_build(self, family, param, conn, axis):
        graph = family_graph(family, param, conn, axis)
        reduced, slope = systole._reduced_cover(graph)
        reference = coo_cover(graph)
        assert reference.has_canonical_format
        for part in ("indptr", "indices"):
            assert np.array_equal(getattr(reduced, part),
                                  getattr(reference, part)), part
        assert reduced.indices.dtype == reduced.indptr.dtype == np.int32
        assert reduced.has_sorted_indices and reduced.has_canonical_format
        assert slope > 0.0
        assert np.array_equal(reduced.data,
                              coo_reduced_data(graph, reference, slope))

    # stored edge 5 of the 8-neighbor graph runs (0, 5) -> (1, 5), and
    # stored edge 240 of the 4-neighbor one crosses the cut from (15, 0)
    # to (0, 0); a twin stored backwards is the same directed pair
    @pytest.mark.parametrize("conn,edge,reverse,message", [
        (8, 5, False, r"from node \(0, 5\) to node \(1, 5\) with winding 0"),
        (8, 5, True, r"from node \(0, 5\) to node \(1, 5\) with winding 0"),
        (4, 240, False,
         r"from node \(0, 0\) to node \(15, 0\) with winding -1")],
        ids=["repeated", "reversed", "cut-crossing"])
    def test_parallel_edges_raise_naming_the_node(self, conn, edge, reverse,
                                                  message):
        graph = family_graph("aniso", 16, conn, 0)
        tail, head = graph.tail[edge], graph.head[edge]
        if reverse:
            tail, head = head, tail
        sign = -1 if reverse else 1
        doubled = dataclasses.replace(
            graph, tail=np.append(graph.tail, tail),
            head=np.append(graph.head, head),
            length=np.append(graph.length, graph.length[edge]),
            winding=np.append(graph.winding, sign * graph.winding[edge]))
        with pytest.raises(ValueError, match="parallel edges " + message):
            systole._reduced_cover(doubled)
        with pytest.raises(ValueError, match="parallel edges " + message):
            systole_sigma(doubled)


class TestCertificates:
    def test_disk_cylinder_certificate(self):
        cert = cert_disk()
        assert cert.rhs == TWO_PI
        assert cert.verdict == "pass"
        assert cert.relative_gap <= 1.5e-2
        assert "upper bound" in cert.note

    def test_sphere_cylinder_certificate(self):
        cert = cert_sphere()
        assert cert.rhs == 8.0 * math.pi
        assert abs(cert.lhs - 8.0 * math.pi) <= PASS_TOL * 8.0 * math.pi
        assert cert.verdict == "pass"
        assert 0.0 < cert.relative_gap <= 1e-2

    def test_sphere_cylinder_gap_carries_the_fail(self):
        # a 33-latitude band misplaces inf S by more than PASS_TOL; the
        # fail must show in the printed gap, not only in the verdict
        cert = equality_certificate(SphereCylinder(1.0, 10.0),
                                    resolution=33)
        assert cert.verdict == "fail"
        assert cert.relative_gap > PASS_TOL
        assert cert.relative_gap == pytest.approx(
            abs(cert.lhs - 8.0 * math.pi) / (8.0 * math.pi), rel=1e-12)

    def test_rhs_values_are_the_model_constants(self):
        certs = [cert_disk(), cert_sphere()]
        assert {c.rhs for c in certs} == {TWO_PI, 8.0 * math.pi}

    def test_disk_cylinder_lhs_is_scale_invariant(self):
        small = equality_certificate(DiskCylinder(1.0, 10.0),
                                     resolution=64, connectivity=8)
        large = equality_certificate(DiskCylinder(2.0, 20.0),
                                     resolution=64, connectivity=8)
        assert small.lhs == large.lhs

    def test_certificate_lines_are_machine_parseable(self):
        for cert in (cert_disk(), cert_sphere()):
            line = certificate_line(cert)
            parts = shlex.split(line)
            fields = dict(p.split("=", 1) for p in parts)
            assert fields["model"] == type(cert.model).__name__
            assert float(fields["lhs"]) == cert.lhs
            assert float(fields["rhs"]) == cert.rhs
            assert fields["verdict"] == cert.verdict

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError, match="radius"):
            equality_certificate(DiskCylinder(-1.0, 10.0))
        with pytest.raises(ValueError, match="radius"):
            equality_certificate(SphereCylinder(0.0, 10.0))

    def test_rejects_unknown_model(self):
        with pytest.raises(TypeError, match="unknown equality model"):
            equality_certificate("cylinder")
