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
                     integrate, inverse_and_determinant, node_tuple)
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
# close.  The first pass raises if a walk within its limit could step
# out, and the reruns' limit is no higher (see systole_sigma).
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
    (second order at the midpoint), callables are evaluated exactly and
    must return one finite 2x2 matrix per edge."""
    if callable(metric):
        g_mid = np.asarray(metric(*mid_coords), dtype=float)
        if g_mid.shape != (tail_idx.size, 2, 2):
            raise ValueError(f"metric callable must return shape "
                             f"({tail_idx.size}, 2, 2) at these edge "
                             f"midpoints, got {g_mid.shape}")
        finite = np.isfinite(g_mid).all(axis=(1, 2))
        if not finite.all():
            at = node_tuple(int(tail_idx[np.argmin(finite)]), grid.shape)
            raise ValueError(f"metric callable is not finite at the "
                             f"midpoint of an edge from node {at}")
        return g_mid
    if not (isinstance(metric, TensorField) and metric.rank == 2):
        raise TypeError("metric must be a rank-2 TensorField or a callable")
    flat = metric.values.reshape(-1, 2, 2)
    return 0.5 * (flat[tail_idx] + flat[head_idx])


def build_winding_graph(grid: ChartGrid, metric, xi_axis: int = 0,
                        connectivity: int = 8) -> WindingGraph:
    """Edge lattice on a 2-d chart with winding labels around xi_axis.

    `metric` is either a TensorField sampled on the chart or a callable
    (x1, x2) -> (edges, 2, 2) evaluated at segment midpoints.  Edges that
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
    edges = slice(start, start + n0 * n1)
    nodes = np.arange(n0 * n1)
    ahead = np.roll(nodes.reshape(n0, n1), -1, axis=graph.xi_axis).ravel()
    tail, head = graph.tail[edges], graph.head[edges]
    off = np.flatnonzero((tail != nodes[:tail.size])
                         | (head != ahead[:tail.size]))
    k = int(off[0]) if off.size else tail.size
    if k < nodes.size:
        raise ValueError(f"edge {start + k} is not the unit xi step out of "
                         f"node {node_tuple(k, graph.grid.shape)}; the "
                         "graph's edges are not in build_winding_graph's "
                         "order")
    steps = graph.length[edges].reshape(n0, n1)
    # cumsum adds along the loop in order, as walking it would
    loops = np.cumsum(steps, axis=graph.xi_axis).take(-1, graph.xi_axis)
    return float(loops.min())


def _xi_index(graph: WindingGraph, nodes) -> np.ndarray:
    """Column of each node along the winding axis."""
    return np.unravel_index(nodes, graph.grid.shape)[graph.xi_axis]


def _xi_steps(graph: WindingGraph, edges=slice(None)) -> np.ndarray:
    """Step of each stored edge in `edges` (all by default) along the
    unwrapped xi axis, tail to head, in grid steps: exact integers."""
    n_xi = graph.grid.shape[graph.xi_axis]
    return (_xi_index(graph, graph.head[edges])
            - _xi_index(graph, graph.tail[edges])
            + graph.winding[edges] * n_xi)


def _window_exits(graph: WindingGraph, slope: float) -> tuple:
    """Cover steps that the layer window cuts off, lowest layer first:
    (cover ids of the step tails, step lengths less `slope` per xi step,
    unwrapped xi positions of the step heads, in grid steps)."""
    n = graph.node_count
    n_xi = graph.grid.shape[graph.xi_axis]
    cross = np.flatnonzero(graph.winding)
    steps = _xi_steps(graph, cross)
    steps = np.concatenate((steps, -steps))
    # a crossing steps along xi the way it winds: down out of the lowest
    # layer, up out of the highest one
    side = np.argsort(steps > 0, kind="stable")
    tails = np.concatenate((graph.tail[cross], graph.head[cross]))[side]
    steps = steps[side]
    layer = np.where(steps > 0, _LAYER_HI - _LAYER_LO, 0)
    return (layer * n + tails,
            np.tile(graph.length[cross], 2)[side] - slope * steps,
            layer * n_xi + _xi_index(graph, tails) + steps)


def _check_layer_window(graph: WindingGraph, dist: np.ndarray, limit: float,
                        sources: np.ndarray, exits: tuple,
                        slope: float) -> None:
    """Raise if a walk within the search limit could leave the window,
    naming the first source (one per row of `dist`) whose walk could.

    A walk's first step out of the window starts at a node of an
    outermost layer that the truncated search has settled.  When no
    such step fits under the limit, the cut changed no distance the
    search kept.  A search on reduced costs (`slope` > 0, see
    systole_sigma) charges the step its reduced length, plus the least
    reduced cost of walking back from its head to the source's
    translate: 2 slope per grid step that the head lies beyond it.
    """
    ids, lengths, heads = exits
    n_xi = graph.grid.shape[graph.xi_axis]
    target = (1 - _LAYER_LO) * n_xi + _xi_index(graph, sources)
    back = 2.0 * slope * np.maximum(heads - target[:, None], 0)
    over = dist[:, ids] + lengths + back <= limit
    rows = np.flatnonzero(over.any(axis=1))
    if rows.size:
        shape = graph.grid.shape
        at = int(ids[np.argmax(over[rows[0]])])
        raise RuntimeError(
            f"systole search from cut node "
            f"{node_tuple(int(sources[rows[0]]), shape)} can leave the "
            f"cover's layer window [{_LAYER_LO}, {_LAYER_HI}] from node "
            f"{node_tuple(at % graph.node_count, shape)} in layer "
            f"{at // graph.node_count + _LAYER_LO}")


def cycle_length(graph: WindingGraph, cycle) -> tuple[float, int]:
    """Length and total winding of a closed node walk (first == last).

    Each step is looked up among both orientations of the stored edges
    by its tail * N + head key; lengths are added in walk order, as a
    shortest-path search accumulates them along its path.
    """
    steps, winding = _walk_steps(graph, _edge_keys(graph), cycle)
    return float(np.add.accumulate(steps)[-1]), int(winding.sum())


def _edge_keys(graph: WindingGraph) -> tuple[np.ndarray, np.ndarray]:
    """Keys tail * N + head of stored, then reversed, edges; their argsort."""
    n = graph.node_count
    keys = np.concatenate((graph.tail * n + graph.head,
                           graph.head * n + graph.tail))
    return keys, np.argsort(keys, kind="stable")


def _walk_steps(graph: WindingGraph, edge_keys: tuple,
                cycle) -> tuple[np.ndarray, np.ndarray]:
    """Edge length and winding of each step of a closed node walk."""
    walk = np.asarray(cycle, dtype=np.int64)
    if walk.size < 2 or walk[0] != walk[-1]:
        raise ValueError("cycle must be a closed walk (first node == last)")
    keys, order = edge_keys
    n = graph.node_count
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


def _reduced_cover(graph: WindingGraph) -> tuple[csr_matrix, float]:
    """The directed cover graph over the layer window, on reduced costs
    (see systole_sigma), and the slope c h_xi that prices one grid step
    of xi progress.

    Cover node (v, layer) has id layer * N + v, and an edge shifts the
    layer by its winding.  The directed edges are the stored edges,
    then the same edges reversed, sorted once by (tail, winding, head).
    Layer L's row for node v holds v's edges in that order at columns
    (L + winding) * N + head, so the columns ascend along every row;
    edges whose head layer leaves the window are dropped.  Two directed
    edges with the same (tail, winding, head) would share one cover
    entry, so they raise, naming their tail node.
    """
    n = graph.node_count
    n_layers = _LAYER_HI - _LAYER_LO + 1
    steps = _xi_steps(graph)
    moving = steps != 0
    slope = (1.0 - 1e-12) * float(
        (graph.length[moving] / np.abs(steps[moving])).min())
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
    # a reversed edge steps back along xi
    cost = (np.tile(graph.length, 2)
            - slope * np.concatenate((steps, -steps)))[order]
    tail, wind = tail[order], wind[order]
    column = (wind * n + head[order]).astype(np.int32)
    data, indices, counts = [], [], []
    for layer in range(n_layers):
        inside = (wind >= -layer) & (wind < n_layers - layer)
        k = slice(None) if inside.all() else np.flatnonzero(inside)
        data.append(cost[k])
        indices.append(column[k] + layer * n)
        counts.append(np.bincount(tail[k], minlength=n))
    indptr = np.zeros(n_layers * n + 1, dtype=np.int32)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    size = n_layers * n
    return csr_matrix((np.concatenate(data), np.concatenate(indices), indptr),
                      shape=(size, size)), slope


def _searches(reduced: csr_matrix, sources: np.ndarray, limit: float,
              predecessors: bool = False):
    """Dijkstra on the reduced cover from each source at level 0, up to
    `limit`, yielding each block of cover.nnz // (cover size) sources
    (distances at most the size of the cover's data) with its output."""
    n = reduced.shape[0] // (_LAYER_HI - _LAYER_LO + 1)
    chunk = reduced.nnz // reduced.shape[0]
    for start in range(0, sources.size, chunk):
        block = sources[start:start + chunk]
        yield block, dijkstra(reduced, directed=True,
                              indices=-_LAYER_LO * n + block, limit=limit,
                              return_predecessors=predecessors)


def _loop_estimates(graph: WindingGraph, reduced: csr_matrix, slope: float,
                    sources: np.ndarray, best: float) -> np.ndarray:
    """Each source's shortest winding loop, where that is at most
    `best`, and inf where it is longer: the first pass of systole_sigma,
    which checks the layer window once per block."""
    period = slope * graph.grid.shape[graph.xi_axis]
    limit = best - period
    exits = _window_exits(graph, slope)
    level1 = (1 - _LAYER_LO) * graph.node_count  # v1's cover id, less v
    estimate = []
    for block, dist in _searches(reduced, sources, limit):
        _check_layer_window(graph, dist, limit, block, exits, slope)
        estimate.append(period + dist[np.arange(block.size), level1 + block])
        del dist  # one block of distances alive at a time
    return np.concatenate(estimate)


def systole_sigma(graph: WindingGraph) -> tuple[float, tuple[int, ...]]:
    """Shortest closed walk with nonzero winding, with one realizing
    cycle (node ids, closed).

    Shortest paths run in the Z-cover from a source v0 (node v at
    winding level 0) to its winding-one translate v1.  The sources are
    the nodes of xi column 0, and of column n - 1 as well when the
    stencil steps two columns along xi: every cut-crossing edge has an
    endpoint there, so every winding cycle passes through a source.
    The cover's CSR arrays come from one sorted order of the directed
    edges (_reduced_cover), in scipy's canonical column order.

    Both passes search one cover, on reduced costs.  The xi potential
    X(node) = (layer * n_xi + xi column) * h_xi climbs one period
    P = n_xi h_xi from v0 to v1, whatever the source, and c = (1 - 1e-12)
    min length / (|s| h_xi), over the edges whose exact integer xi step
    s = head column - tail column + winding * n_xi is nonzero, prices the
    cheapest xi progress.  The reduced cost w - c (X(y) - X(x)) of a
    cover step x -> y is then positive (the 1e-12 margin covers
    rounding), and along any walk from v0 to v1 it sums to the length
    less cP, so d'(v0, v1) + cP is the loop length up to rounding.  A
    search limited by best - cP reaches every node of every loop no
    longer than best; where the shortest loops run close to the
    cheapest xi direction, it settles a narrow corridor.  Sources are
    searched in blocks of cover.nnz // (cover size) per call.  The first
    pass checks the layer window on reduced distances and reduced exit
    lengths; an upper exit adds 2c (X(exit head) - X(v1)), the least
    reduced cost of walking back down to v1, since moving against xi
    costs at least 2c per unit of X.

    The second pass reruns, with predecessors, the sources whose
    estimate is within 1e-9 (relative) of the least, limited by
    min(least (1 + 1e-9), best) - cP.  That is never above the first
    pass's limit on the same graph from the same source, so a rerun
    settles only nodes whose window the first pass has checked.  Each
    loop is walked back along the predecessors; its sigma is its real
    step lengths added in walk order, as a real-cost search adds them
    along its path, and must match cP + d' to 1e-12 (relative) with
    winding +-1.  sigma is the least of these, ties going to the lowest
    source index.  The cheapest pure-xi loop seeds `best`.

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
    n_xi = graph.grid.shape[graph.xi_axis]
    sources = _sources(graph)
    reduced, slope = _reduced_cover(graph)
    period = slope * n_xi
    best = _straight_loop_bound(graph) * (1.0 + 1e-9)
    estimate = _loop_estimates(graph, reduced, slope, sources, best)

    least = estimate.min() * (1.0 + 1e-9)
    edge_keys = _edge_keys(graph)
    sigma, cycle, steps = math.inf, None, None
    for block, (dist, pred) in _searches(reduced, sources[estimate <= least],
                                         min(least, best) - period,
                                         predecessors=True):
        for row, v in enumerate(block.tolist()):
            at = (1 - _LAYER_LO) * n + v
            searched = period + float(dist[row, at])
            if searched == math.inf:
                continue
            # both ends of the tree's walk project to v: the loop closes
            loop = []
            while at != -_LAYER_LO * n + v:
                loop.append(at % n)
                at = int(pred[row, at])
                if at < 0:
                    raise RuntimeError("shortest-path tree lost the source")
            loop = [v] + loop[::-1]
            loop_steps, winding = _walk_steps(graph, edge_keys, loop)
            length = float(np.add.accumulate(loop_steps)[-1])
            if (abs(length - searched) > 1e-12 * searched
                    or abs(winding.sum()) != 1):
                raise RuntimeError(
                    f"systole cycle from cut node "
                    f"{node_tuple(v, graph.grid.shape)} walks to length "
                    f"{length!r} with winding {winding.sum()}, "
                    f"not to its search's {searched!r} with winding +-1")
            if length < sigma:
                sigma, cycle, steps = length, loop, loop_steps
    if cycle is None:
        raise RuntimeError("no closed walk with nonzero winding was found")

    if _xi_reach(graph) == 1:
        last = _xi_index(graph, np.asarray(cycle[:-1])) == n_xi - 1
        start = 0
        for k in np.flatnonzero(last).tolist():
            total = float(np.add.accumulate(np.roll(steps, -k))[-1])
            if (total, cycle[k]) < (sigma, cycle[start]):
                sigma, start = total, k
        cycle = cycle[start:-1] + cycle[:start + 1]
    return sigma, tuple(cycle)


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
        volume = np.sqrt(inverse_and_determinant(metric.values)[1])
        area = integrate(ScalarField(grid, np.ones(grid.shape)),
                         ScalarField(grid, volume))
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

