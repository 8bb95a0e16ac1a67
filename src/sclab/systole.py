"""Discrete systoles on periodic surface charts and equality certificates.

The shortest noncontractible loop around a chosen periodic axis is
estimated on a lattice graph: nodes are grid points, edges are short
straight segments with midpoint-rule Riemannian lengths, and a single
cut hypersurface {xi = 0} carries integer crossing labels so the
winding number of any closed walk is exact bookkeeping, never geometry.
Graph systoles are upper bounds for the continuum systole; the bound is
off by at most the direction-quantization factor of the stencil, which
`quantization_bound` reports, so results are always quoted as estimate
plus bound, never as the infimum itself.

Equality certificates evaluate both sides of the sharp comparisons that
pin down the model geometries (disk cylinders, sphere cylinders, flat
tori) and report the relative gap in a machine-parseable line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .charts import (PERIODIC, ChartGrid, ScalarField, TensorField,
                     integrate, node_tuple)
from .curvature import stabilized_scalar
from .models import (TWO_PI, flat_torus, sphere_band, sphere_full,
                     torus_surface)

# Offsets generate undirected edges once each; negations are implicit.
# 16-neighbor adds the knight moves, halving the worst direction gap.
CONNECTIVITY_OFFSETS = {
    4: ((1, 0), (0, 1)),
    8: ((1, 0), (0, 1), (1, 1), (1, -1)),
    16: ((1, 0), (0, 1), (1, 1), (1, -1),
         (2, 1), (1, 2), (2, -1), (1, -2)),
}

# Cover layers searched by systole_sigma, whose sources sit at winding
# level 0.  A minimizer with partial winding outside [-2, 3] would have
# to cross the cut five extra times; no metric in this corpus comes
# close.  Every search checks the window at its own limit (the best
# loop less its xi potential in the first pass, the best loop in the
# reruns), and systole_sigma raises if a walk within it could step out.
_LAYER_LO, _LAYER_HI = -2, 3


@dataclass(frozen=True)
class WindingGraph:
    """Lattice graph over a 2-d chart with cut-crossing labels.

    Edges are stored once (tail, head, length, winding); traversing one
    backwards flips the winding sign.  `winding` is +-1 exactly when the
    segment crosses the cut {xi = 0} of the periodic winding axis.
    """

    grid: ChartGrid
    xi_axis: int
    connectivity: int
    tail: np.ndarray
    head: np.ndarray
    length: np.ndarray
    winding: np.ndarray

    @property
    def node_count(self) -> int:
        return int(np.prod(self.grid.shape))


def _midpoint_metric(grid, metric, tail_idx, head_idx, mid_coords):
    """2x2 metric per edge: sampled fields use the endpoint average
    (second order at the midpoint), callables are evaluated exactly."""
    if callable(metric):
        return np.asarray(metric(*mid_coords), dtype=float)
    if not (isinstance(metric, TensorField) and metric.rank == 2):
        raise TypeError("metric must be a rank-2 TensorField or a callable")
    flat = metric.values.reshape(-1, 2, 2)
    return 0.5 * (flat[tail_idx] + flat[head_idx])


def build_winding_graph(grid: ChartGrid, metric, xi_axis: int = 0,
                        connectivity: int = 8) -> WindingGraph:
    """Edge lattice on a 2-d chart with winding labels around xi_axis.

    `metric` is either a TensorField sampled on the chart or a callable
    (x1, x2) -> (..., 2, 2) evaluated at segment midpoints.  Edges that
    would leave a boundary axis are dropped; the winding axis must be
    periodic, since the cut needs a closed direction to be crossed.
    """
    if grid.dim != 2:
        raise ValueError(f"winding graphs need a 2-d chart, got {grid.dim}-d")
    if xi_axis not in (0, 1):
        raise ValueError(f"xi_axis must be 0 or 1, got {xi_axis}")
    if grid.topology[xi_axis] != PERIODIC:
        raise ValueError("winding axis must be periodic; "
                         f"axis {xi_axis} is {grid.topology[xi_axis]!r}")
    if connectivity not in CONNECTIVITY_OFFSETS:
        raise ValueError(f"connectivity must be one of "
                         f"{sorted(CONNECTIVITY_OFFSETS)}, got {connectivity}")

    n0, n1 = grid.shape
    idx0, idx1 = np.meshgrid(np.arange(n0), np.arange(n1), indexing="ij")
    idx0, idx1 = idx0.ravel(), idx1.ravel()
    h = grid.spacing

    tails, heads, lengths, windings = [], [], [], []
    for off in CONNECTIVITY_OFFSETS[connectivity]:
        raw = (idx0 + off[0], idx1 + off[1])
        keep = np.ones(idx0.size, dtype=bool)
        wind = np.zeros(idx0.size, dtype=np.int64)
        head_ax = []
        for ax, (n, r) in enumerate(zip(grid.shape, raw)):
            if grid.topology[ax] == PERIODIC:
                if ax == xi_axis:
                    wind += (r >= n).astype(np.int64) - (r < 0).astype(np.int64)
                head_ax.append(np.mod(r, n))
            else:
                keep &= (r >= 0) & (r < n)
                head_ax.append(np.clip(r, 0, n - 1))
        tail_idx = (idx0 * n1 + idx1)[keep]
        head_idx = (head_ax[0] * n1 + head_ax[1])[keep]

        disp = np.array([off[0] * h[0], off[1] * h[1]])
        mid = []
        for ax, base in enumerate((idx0, idx1)):
            x = grid.origin[ax] + (base[keep] + 0.5 * off[ax]) * h[ax]
            if grid.topology[ax] == PERIODIC:
                x = grid.origin[ax] + np.mod(x - grid.origin[ax],
                                             grid.extent[ax])
            mid.append(x)
        g_mid = _midpoint_metric(grid, metric, tail_idx, head_idx, mid)
        quad = np.einsum("i,...ij,j->...", disp, g_mid, disp, optimize=False)
        if not (quad > 0.0).all():
            at = node_tuple(int(tail_idx[int(np.argmin(quad))]), grid.shape)
            raise ValueError(f"nonpositive edge length at node {at}; "
                             "the metric is not positive definite there")
        tails.append(tail_idx)
        heads.append(head_idx)
        lengths.append(np.sqrt(quad))
        windings.append(wind[keep])

    return WindingGraph(grid, xi_axis, connectivity,
                        np.concatenate(tails), np.concatenate(heads),
                        np.concatenate(lengths), np.concatenate(windings))


def quantization_bound(connectivity: int) -> float:
    """Worst relative overestimate of a straight segment by a lattice
    path, sec(half the largest direction gap) - 1, at unit aspect."""
    dirs = []
    for off in CONNECTIVITY_OFFSETS[connectivity]:
        for s in (1.0, -1.0):
            dirs.append(math.atan2(s * off[1], s * off[0]) % (2.0 * math.pi))
    dirs = sorted(dirs)
    gaps = [b - a for a, b in zip(dirs, dirs[1:])]
    gaps.append(dirs[0] + 2.0 * math.pi - dirs[-1])
    return 1.0 / math.cos(0.5 * max(gaps)) - 1.0


def _straight_loop_bound(graph: WindingGraph) -> float:
    """Length of the cheapest pure-xi axis loop; a valid winding cycle,
    so an upper bound that seeds the shortest-path pruning."""
    n0, n1 = graph.grid.shape
    # build_winding_graph stores edges offset by offset, tails in
    # row-major order: the (1, 0) block comes first, one row short when
    # axis 0 is a boundary axis, and the (0, 1) block follows it.
    start = 0
    if graph.xi_axis == 1:
        start = n1 * (n0 if graph.grid.topology[0] == PERIODIC else n0 - 1)
    steps = graph.length[start:start + n0 * n1].reshape(n0, n1)
    # cumsum adds along the loop in order, as walking it would
    loops = np.cumsum(steps, axis=graph.xi_axis).take(-1, graph.xi_axis)
    return float(loops.min())


@dataclass(frozen=True)
class _CoverLayout:
    """CSR structure of the directed cover graph over the layer window.

    Cover node (v, layer) has id layer * N + v, and an edge shifts the
    layer by its winding.  The directed edges are the stored edges,
    then the same edges reversed; `order` lists them sorted by (tail,
    winding, head).  Layer L's row for node v holds v's edges in that
    order at columns (L + winding) * N + head, so the columns ascend
    along every row, and `keep[L]` picks the sorted edges whose head
    layer is in the window (all of them in the inner layers).
    """

    order: np.ndarray
    keep: tuple
    indices: np.ndarray
    indptr: np.ndarray

    def matrix(self, weights: np.ndarray) -> csr_matrix:
        """The cover with weights[e] on every copy of directed edge e;
        every such matrix shares this layout's indices and indptr."""
        ordered = weights[self.order]
        size = self.indptr.size - 1
        return csr_matrix((np.concatenate([ordered[k] for k in self.keep]),
                           self.indices, self.indptr), shape=(size, size))


def _cover_layout(graph: WindingGraph) -> _CoverLayout:
    """Sort the directed edges once and tile them over the layers.

    Two directed edges with the same (tail, winding, head) would share
    one cover entry, so they raise, naming their tail node.
    """
    n = graph.node_count
    n_layers = _LAYER_HI - _LAYER_LO + 1
    tail = np.concatenate((graph.tail, graph.head))
    head = np.concatenate((graph.head, graph.tail))
    wind = np.concatenate((graph.winding, -graph.winding))
    reach = int(np.abs(wind).max(initial=0))
    key = (tail * (2 * reach + 1) + wind + reach) * n + head
    order = np.argsort(key, kind="stable")
    key = key[order]
    twin = np.flatnonzero(key[1:] == key[:-1])
    if twin.size:
        e = int(order[twin[0]])
        shape = graph.grid.shape
        raise ValueError(f"parallel edges from node "
                         f"{node_tuple(int(tail[e]), shape)} to node "
                         f"{node_tuple(int(head[e]), shape)} with winding "
                         f"{int(wind[e])}")
    tail, wind = tail[order], wind[order]
    column = (wind * n + head[order]).astype(np.int32)
    keep, indices, counts = [], [], []
    for layer in range(n_layers):
        inside = (wind >= -layer) & (wind < n_layers - layer)
        k = slice(None) if inside.all() else np.flatnonzero(inside)
        keep.append(k)
        indices.append(column[k] + layer * n)
        counts.append(np.bincount(tail[k], minlength=n))
    indptr = np.zeros(n_layers * n + 1, dtype=np.int32)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    return _CoverLayout(order, tuple(keep), np.concatenate(indices), indptr)


def _xi_index(graph: WindingGraph, nodes) -> np.ndarray:
    """Column of each node along the winding axis."""
    return np.unravel_index(nodes, graph.grid.shape)[graph.xi_axis]


def _xi_positions(graph: WindingGraph) -> np.ndarray:
    """Unwrapped xi position of every cover id, in grid steps:
    layer * n_xi + xi column, exact integers."""
    n_xi = graph.grid.shape[graph.xi_axis]
    xi = _xi_index(graph, np.arange(graph.node_count)).astype(np.int32)
    layers = np.arange(_LAYER_HI - _LAYER_LO + 1, dtype=np.int32)
    return (layers[:, None] * n_xi + xi).ravel()


def _xi_steps(graph: WindingGraph) -> np.ndarray:
    """Each stored edge's step along the unwrapped xi axis, tail to
    head, in grid steps: exact integers."""
    n_xi = graph.grid.shape[graph.xi_axis]
    return (_xi_index(graph, graph.head) - _xi_index(graph, graph.tail)
            + graph.winding * n_xi)


def _window_exits(graph: WindingGraph, slope: float = 0.0) -> tuple:
    """Cover steps that the layer window cuts off, per outermost layer:
    (layer, cover ids of the step tails, step lengths less `slope` per
    xi step, unwrapped xi positions of the step heads)."""
    n = graph.node_count
    cross = np.flatnonzero(graph.winding)
    tails = np.concatenate((graph.tail[cross], graph.head[cross]))
    shift = np.concatenate((graph.winding[cross], -graph.winding[cross]))
    steps = _xi_steps(graph)[cross]
    steps = np.concatenate((steps, -steps))
    lengths = np.concatenate((graph.length[cross], graph.length[cross]))
    pos = _xi_positions(graph)
    exits = []
    for layer, side in ((_LAYER_LO, shift < 0), (_LAYER_HI, shift > 0)):
        ids = (layer - _LAYER_LO) * n + tails[side]
        exits.append((layer, ids, lengths[side] - slope * steps[side],
                      pos[ids] + steps[side]))
    return tuple(exits)


def _check_layer_window(graph: WindingGraph, dist: np.ndarray, limit: float,
                        source: int, exits: tuple,
                        slope: float = 0.0) -> None:
    """Raise if a walk within the search limit could leave the window.

    A walk's first step out of the window starts at a node of an
    outermost layer that the truncated search has settled.  When no
    such step fits under the limit, the cut changed no distance the
    search kept.  A search on reduced costs (`slope` > 0, see
    systole_sigma) charges the step its reduced length, plus the least
    reduced cost of walking back from its head to the source's
    translate: 2 slope per grid step that the head lies beyond it.
    """
    n_xi = graph.grid.shape[graph.xi_axis]
    target = (1 - _LAYER_LO) * n_xi + int(_xi_index(graph, source))
    for layer, ids, lengths, heads in exits:
        back = 2.0 * slope * np.maximum(heads - target, 0)
        over = np.flatnonzero(dist[ids] + lengths + back <= limit)
        if over.size:
            node = node_tuple(int(ids[over[0]]) % graph.node_count,
                              graph.grid.shape)
            raise RuntimeError(
                f"systole search from cut node "
                f"{node_tuple(source, graph.grid.shape)} can leave the "
                f"cover's layer window [{_LAYER_LO}, {_LAYER_HI}] from "
                f"node {node} in layer {layer}")


def cycle_length(graph: WindingGraph, cycle) -> tuple[float, int]:
    """Length and total winding of a closed node walk (first == last).

    Each step is looked up among both orientations of the stored edges
    by its tail * N + head key; lengths are added in walk order, as a
    shortest-path search accumulates them along its path.
    """
    steps, winding = _walk_steps(graph, cycle)
    return float(np.add.accumulate(steps)[-1]), int(winding.sum())


def _walk_steps(graph: WindingGraph, cycle) -> tuple[np.ndarray, np.ndarray]:
    """Edge length and winding of each step of a closed node walk."""
    walk = np.asarray(cycle, dtype=np.int64)
    if walk.size < 2 or walk[0] != walk[-1]:
        raise ValueError("cycle must be a closed walk (first node == last)")
    n = graph.node_count
    keys = np.concatenate((graph.tail * n + graph.head,
                           graph.head * n + graph.tail))
    order = np.argsort(keys, kind="stable")
    steps = walk[:-1] * n + walk[1:]
    at = np.searchsorted(keys, steps, sorter=order)
    found = order[np.minimum(at, keys.size - 1)]
    missing = np.flatnonzero(keys[found] != steps)
    if missing.size:
        k = int(missing[0])
        shape = graph.grid.shape
        raise ValueError(f"walk step {node_tuple(walk[k], shape)} -> "
                         f"{node_tuple(walk[k + 1], shape)} is not a "
                         "graph edge")
    edges = graph.length.size
    edge = found % edges
    winding = np.where(found < edges, graph.winding[edge],
                       -graph.winding[edge])
    return graph.length[edge], winding


def _xi_reach(graph: WindingGraph) -> int:
    """Most xi columns that one edge steps: 1, or 2 with knight moves."""
    return max(abs(off[graph.xi_axis])
               for off in CONNECTIVITY_OFFSETS[graph.connectivity])


def _sources(graph: WindingGraph) -> np.ndarray:
    """Cut nodes that every winding cycle passes through, in index
    order.

    A cut-crossing edge joins the last `_xi_reach` columns to the first
    ones: with unit steps it always touches column 0; with steps of
    two, one of its endpoints lies in column 0 or in column n - 1.
    """
    shape = graph.grid.shape
    columns = (0,) if _xi_reach(graph) == 1 else (0, shape[graph.xi_axis] - 1)
    return np.sort(np.take(np.arange(graph.node_count).reshape(shape),
                           columns, axis=graph.xi_axis).ravel())


def _reduced_cover(graph: WindingGraph,
                   layout: _CoverLayout) -> tuple[csr_matrix, float]:
    """The cover on reduced costs (see systole_sigma), and the slope
    c h_xi that prices one grid step of xi progress."""
    steps = _xi_steps(graph)
    moving = steps != 0
    slope = (1.0 - 1e-12) * float(
        (graph.length[moving] / np.abs(steps[moving])).min())
    # a reversed edge steps back along xi
    return layout.matrix(np.tile(graph.length, 2)
                         - slope * np.concatenate((steps, -steps))), slope


def _loop_estimates(graph: WindingGraph, layout: _CoverLayout,
                    sources: np.ndarray, best: float) -> np.ndarray:
    """Each source's shortest winding loop, where that is at most
    `best`, and inf where it is longer: the first pass of systole_sigma,
    searched on reduced costs."""
    n = graph.node_count
    n_xi = graph.grid.shape[graph.xi_axis]
    base = -_LAYER_LO
    reduced, slope = _reduced_cover(graph, layout)
    period = slope * n_xi
    limit = best - period
    exits = _window_exits(graph, slope)
    # sources per call: the block of distances is at most the size of
    # the cover's data
    chunk = reduced.nnz // reduced.shape[0]
    estimate = np.empty(sources.size)
    for start in range(0, sources.size, chunk):
        block = sources[start:start + chunk]
        dist = dijkstra(reduced, directed=True, indices=base * n + block,
                        limit=limit)
        for row, v in enumerate(block.tolist()):
            _check_layer_window(graph, dist[row], limit, v, exits, slope)
        estimate[start:start + chunk] = period + dist[
            np.arange(block.size), (base + 1) * n + block]
    return estimate


def systole_sigma(graph: WindingGraph) -> tuple[float, tuple[int, ...]]:
    """Shortest closed walk with nonzero winding, with one realizing
    cycle (node ids, closed).

    Shortest paths run in the Z-cover from a source v0 (node v at
    winding level 0) to its winding-one translate v1.  The sources are
    the nodes of xi column 0, and of column n - 1 as well when the
    stencil steps two columns along xi: every cut-crossing edge has an
    endpoint there, so every winding cycle passes through a source.
    The cover's CSR arrays come from one sorted order of the directed
    edges (_CoverLayout), in scipy's canonical column order.

    A first pass finds each source's loop on reduced costs.  The xi
    potential X(node) = (layer * n_xi + xi column) * h_xi climbs one
    period P = n_xi h_xi from v0 to v1, whatever the source, and
    c = (1 - 1e-12) min length / (|s| h_xi), over the edges whose exact
    integer xi step s = head column - tail column + winding * n_xi is
    nonzero, prices the cheapest xi progress.  The reduced cost
    w - c (X(y) - X(x)) of a cover step x -> y is then positive (the
    1e-12 margin covers rounding), and along any walk from v0 to v1 it
    sums to the length less cP.  So d'(v0, v1) + cP is the loop length
    up to rounding, and one reduced copy of the cover serves every
    source: its data tiles each directed edge's w - c s h_xi over the
    layers as the cover tiles w, and it shares the cover's indices and
    indptr.  A search limited by best - cP reaches every node of every
    loop no longer than best, since reduced costs never go negative.
    Where the shortest loops run close to the cheapest xi direction, cP
    is close to best and each search settles a narrow corridor.  Sources
    are searched in blocks of cover.nnz // (cover size) per call.  The
    layer-window check runs on reduced distances and reduced exit
    lengths; an upper exit adds 2c (X(exit head) - X(v1)), the least
    reduced cost of walking back down to v1, since moving against xi
    costs at least 2c per unit of X.

    A second pass reruns the full search, with predecessors, from each
    source whose estimate is within 1e-9 (relative) of the least, in
    index order, limited by the best loop so far; ties break to the
    lowest source index.  sigma is that search's path sum, not the
    reduced estimate.  The cheapest pure-xi loop seeds `best`.  The
    reported cycle is walked again and must give sigma (to 1e-12
    relative) with winding +-1.

    With unit xi steps the cycle also passes through xi column n - 1,
    and a search from there would sum the same loop from another start,
    which can round differently.  So the walk's own step lengths are
    summed again, in walk order, from each of its last-column nodes;
    sigma is the least of these sums and the search's, ties going to the
    lowest start node, and the cycle is rotated to start there.  That
    is what full searches from every node of both end columns return,
    with no further search.  The result is an upper bound for the
    continuum systole; see `quantization_bound` for the stencil's
    worst-case slack.
    """
    n = graph.node_count
    shape = graph.grid.shape
    base = -_LAYER_LO  # layer index of winding level 0
    n_xi = shape[graph.xi_axis]
    sources = _sources(graph)

    layout = _cover_layout(graph)
    cover = layout.matrix(np.tile(graph.length, 2))
    best = _straight_loop_bound(graph) * (1.0 + 1e-9)
    estimate = _loop_estimates(graph, layout, sources, best)

    exits = _window_exits(graph)
    best_len = math.inf
    best_pred = None
    best_node = -1
    for v in sources[estimate <= estimate.min() * (1.0 + 1e-9)].tolist():
        src = base * n + v
        dist, pred = dijkstra(cover, directed=True, indices=src,
                              limit=best, return_predecessors=True)
        _check_layer_window(graph, dist, best, v, exits)
        d = float(dist[(base + 1) * n + v])
        if d < best_len:
            best_len, best_pred, best_node = d, pred, v
            best = d * (1.0 + 1e-9)
    if best_pred is None:
        raise RuntimeError("no closed walk with nonzero winding was found")

    # Walk predecessors from the translate back to the source; both
    # project to best_node, so the projected walk closes up on its own.
    cycle = []
    at = (base + 1) * n + best_node
    src = base * n + best_node
    while at != src:
        cycle.append(int(at) % n)
        at = int(best_pred[at])
        if at < 0:
            raise RuntimeError("shortest-path tree lost the source")
    cycle.append(best_node)
    cycle.reverse()
    steps, winding = _walk_steps(graph, cycle)
    length, winding = float(np.add.accumulate(steps)[-1]), int(winding.sum())
    if abs(length - best_len) > 1e-12 * best_len or abs(winding) != 1:
        raise RuntimeError(
            f"systole cycle from cut node {node_tuple(best_node, shape)} "
            f"walks to length {length!r} with winding {winding}, not to "
            f"sigma {best_len!r} with winding +-1")
    if _xi_reach(graph) == 1:
        loop = np.asarray(cycle[:-1])
        last = _xi_index(graph, loop) == n_xi - 1
        start = 0
        for k in np.flatnonzero(last).tolist():
            total = float(np.add.accumulate(np.roll(steps, -k))[-1])
            if (total, cycle[k]) < (best_len, cycle[start]):
                best_len, start = total, k
        cycle = cycle[start:-1] + cycle[:start + 1]
    return best_len, tuple(cycle)


# --- equality certificates -------------------------------------------------

PASS_TOL = 1e-2          # relative gap admitted as equality
ZERO_TOL = 1e-12         # absolute gap when the sharp constant is zero


@dataclass(frozen=True)
class DiskCylinder:
    """Flat disk of given radius times flat torus fibers."""
    radius: float
    fiber_lengths: tuple


@dataclass(frozen=True)
class SphereCylinder:
    """Round 2-sphere of given radius times flat torus fibers."""
    radius: float
    fiber_lengths: tuple


@dataclass(frozen=True)
class FlatTorus:
    """Flat torus with the given side lengths."""
    lengths: tuple


@dataclass(frozen=True)
class EqualityCertificate:
    """One evaluated sharp comparison: lhs against its model constant."""
    model: object
    lhs: float
    rhs: float
    relative_gap: float
    verdict: str
    note: str


def _finish(model, lhs: float, rhs: float, note: str) -> EqualityCertificate:
    gap = abs(lhs - rhs) / abs(rhs) if rhs != 0.0 else abs(lhs)
    tol = PASS_TOL if rhs != 0.0 else ZERO_TOL
    verdict = "pass" if gap <= tol else "fail"
    return EqualityCertificate(model, lhs, rhs, gap, verdict, note)


def equality_certificate(model, resolution: int = 128,
                         connectivity: int = 16) -> EqualityCertificate:
    """Evaluate the sharp comparison attached to one model geometry.

    DiskCylinder: boundary mean curvature times the measured boundary
    systole, (1/r) * sigma, against 2 pi.  SphereCylinder: measured
    inf S times the measured area of the round factor against 8 pi.
    FlatTorus: inf S of the flat metric with constant potential
    against 0.
    """
    if isinstance(model, DiskCylinder):
        if len(model.fiber_lengths) != 1:
            raise ValueError("disk-cylinder certificates run on a 2-d "
                             "boundary lattice: pass exactly one fiber "
                             "length")
        if not model.radius > 0.0:
            raise ValueError("radius must be positive")
        grid, metric = torus_surface(resolution, resolution,
                                     radius=model.radius,
                                     fiber_len=model.fiber_lengths[0])
        graph = build_winding_graph(grid, metric, xi_axis=0,
                                    connectivity=connectivity)
        sigma, _ = systole_sigma(graph)
        lhs = sigma / model.radius
        note = (f"sigma is a lattice upper bound; direction quantization "
                f"<= {quantization_bound(connectivity):.2%}")
        return _finish(model, lhs, TWO_PI, note)

    if isinstance(model, SphereCylinder):
        if not model.radius > 0.0:
            raise ValueError("radius must be positive")
        lat = max(33, min(resolution, 129) | 1)
        grid, metric = sphere_band(lat, 16, radius=model.radius)
        phi = ScalarField(grid, np.zeros(grid.shape))
        inf_s = float(stabilized_scalar(metric, phi).values.min())
        grid, metric = sphere_full(lat, 32, radius=model.radius)
        area = integrate(ScalarField(grid, np.ones(grid.shape)), metric)
        return _finish(model, inf_s * area, 8.0 * math.pi,
                       "inf S on a latitude band times the quadrature area "
                       "of the round factor; both sides measured")

    if isinstance(model, FlatTorus):
        if not all(l > 0.0 for l in model.lengths):
            raise ValueError("side lengths must be positive")
        grid, metric = flat_torus(min(resolution, 16), model.lengths)
        phi = ScalarField(grid, np.zeros(grid.shape))
        s = stabilized_scalar(metric, phi)
        lhs = float(s.values.min())
        return _finish(model, lhs, 0.0,
                       "constant potential; flat stencils are exact")

    raise TypeError(f"unknown equality model {type(model).__name__}")


def _params(model) -> str:
    if isinstance(model, (DiskCylinder, SphereCylinder)):
        fibers = ",".join(f"{l:g}" for l in model.fiber_lengths)
        return f"radius={model.radius:g} fibers={fibers}"
    return "lengths=" + ",".join(f"{l:g}" for l in model.lengths)


def certificate_line(cert: EqualityCertificate) -> str:
    """One machine-parseable line: shlex-splittable key=value fields."""
    return (f"model={type(cert.model).__name__} {_params(cert.model)} "
            f"lhs={cert.lhs:.17g} rhs={cert.rhs:.17g} "
            f"relative_gap={cert.relative_gap:.3e} "
            f"verdict={cert.verdict} note=\"{cert.note}\"")

