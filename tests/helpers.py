"""Test-only helpers: field conveniences and independent oracles.

The package itself never needs these; they build inputs and
independent answers for the suites.
"""

import math
import os
import sys
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
from scipy.sparse.csgraph import dijkstra

import sclab
from sclab import hypersurface, spectral, systole
from sclab.curvature import curvature_bundle, potential_derivatives
from sclab.charts import ChartGrid, ScalarField, TensorField, diff_array, \
    gradient_and_hessian, inverse_and_determinant, node_tuple

DENSE_ORACLE_CAP = 1024


def cli_env(**variables) -> dict:
    """Environment for a `python -m sclab.cli` child: this process's, plus
    the given variables, with the imported sclab first on PYTHONPATH."""
    source = str(Path(sclab.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, **variables)
    env["PYTHONPATH"] = source + (os.pathsep + path if path else "")
    return env


def patch_every_binding(monkeypatch, real, replacement):
    """Point every sclab module's binding of `real` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if (name.startswith("sclab.")
                and getattr(module, real.__name__, None) is real):
            monkeypatch.setattr(module, real.__name__, replacement)


def constant_metric(grid: ChartGrid, matrix) -> TensorField:
    """Metric with the same coefficient matrix at every node."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (grid.dim, grid.dim):
        raise ValueError(f"expected a {grid.dim}x{grid.dim} matrix")
    vals = np.broadcast_to(m, grid.shape + m.shape).copy()
    return TensorField(grid, 2, vals)


def differentiate(field, axis: int, order: int):
    """Field-level wrapper around diff_array preserving the field type."""
    out = diff_array(field.values, field.grid, axis, order)
    if isinstance(field, ScalarField):
        return ScalarField(field.grid, out)
    return TensorField(field.grid, field.rank, out)


def reduce_min(field: ScalarField) -> tuple[float, tuple[int, ...]]:
    """Minimum value and the first attaining node in row-major order."""
    flat = field.values.reshape(-1)
    idx = int(np.argmin(flat))
    return float(flat[idx]), node_tuple(idx, field.grid.shape)


def dense_principal_eigenvalue(problem) -> float:
    """Brute-force generalized eigensolve, usable up to 1024 nodes."""
    n = problem.operator.shape[0]
    if n > DENSE_ORACLE_CAP:
        raise ValueError(f"dense oracle capped at {DENSE_ORACLE_CAP} nodes, "
                         f"got {n}")
    k = sparse.diags(problem.mass) @ problem.operator
    k = 0.5 * (k.toarray() + k.toarray().T)
    values = scipy.linalg.eigh(k, np.diag(problem.mass), eigvals_only=True)
    return float(values[0])


def drift_coefficients(metric: TensorField, weight: ScalarField) -> tuple:
    """(g^{-1}, rho sqrt(g)) of an explicit metric and weight, from one
    inversion: the coefficients a leaf's embedding holds."""
    inv, det = inverse_and_determinant(metric.values)
    return inv, ScalarField(metric.grid, weight.values * np.sqrt(det))


def drift_problem(grid: ChartGrid, metric: TensorField, weight: ScalarField,
                  potential, robin: dict):
    """`spectral.assemble_drift_operator` for an explicit metric and
    weight instead of held coefficients."""
    return spectral.assemble_drift_operator(
        grid, *drift_coefficients(metric, weight), potential, robin)


def edge_table(graph) -> dict:
    """(a, b) -> (length, winding along a -> b), both orientations."""
    table = {}
    for a, b, ell, w in zip(graph.tail.tolist(), graph.head.tolist(),
                            graph.length.tolist(), graph.winding.tolist()):
        table[(a, b)] = (ell, w)
        table[(b, a)] = (ell, -w)
    return table


def reference_cycle_length(graph, cycle) -> tuple[float, int]:
    """Length and total winding of a closed node walk (first == last),
    stepped through a dict of edges.

    The reference for systole.cycle_length, which looks steps up in
    sorted edge keys: both must agree bit for bit.
    """
    if len(cycle) < 2 or cycle[0] != cycle[-1]:
        raise ValueError("cycle must be a closed walk (first node == last)")
    table = edge_table(graph)
    total, wind = 0.0, 0
    for a, b in zip(cycle[:-1], cycle[1:]):
        if (a, b) not in table:
            raise ValueError(f"walk step {a} -> {b} is not a graph edge")
        ell, w = table[(a, b)]
        total += ell
        wind += w
    return total, wind


def coo_cover(graph) -> sparse.csr_matrix:
    """The cover graph listed entry by entry, both orientations of each
    edge on every layer its head layer stays in the window, as COO rows
    and columns that scipy sorts and sums into canonical CSR.

    The reference for the structure of systole._reduced_cover, which
    writes the CSR arrays straight from one sorted edge order: indptr
    and indices must agree bit for bit.
    """
    n = graph.node_count
    n_layers = systole._LAYER_HI - systole._LAYER_LO + 1
    rows, cols, data = [], [], []
    for t, hd, w in ((graph.tail, graph.head, graph.winding),
                     (graph.head, graph.tail, -graph.winding)):
        for layer in range(n_layers):
            dest = layer + w
            ok = (dest >= 0) & (dest < n_layers)
            rows.append(layer * n + t[ok])
            cols.append(dest[ok] * n + hd[ok])
            data.append(graph.length[ok])
    size = n_layers * n
    return sparse.csr_matrix((np.concatenate(data),
                              (np.concatenate(rows), np.concatenate(cols))),
                             shape=(size, size))


def coo_reduced_data(graph, cover, slope: float) -> np.ndarray:
    """Reduced costs of a canonical cover's entries: each length less
    `slope` times its xi step, the head's unwrapped xi position less the
    tail's, read off the entry's column and row.

    The reference for the data of systole._reduced_cover, which tiles
    per-edge reduced lengths over the layers: they must agree bit for
    bit.  A cover id's unwrapped xi position is layer * n_xi +
    its node's xi column, in exact integer grid steps.
    """
    n_xi = graph.grid.shape[graph.xi_axis]
    xi = np.unravel_index(np.arange(graph.node_count),
                          graph.grid.shape)[graph.xi_axis]
    layers = np.arange(systole._LAYER_HI - systole._LAYER_LO + 1)
    pos = (layers[:, None] * n_xi + xi).ravel()
    return cover.data - slope * (pos[cover.indices]
                                 - np.repeat(pos, np.diff(cover.indptr)))


def full_radius_sigma(graph) -> tuple[float, tuple[int, ...]]:
    """Systole by full-radius cover searches from every cut node.

    The reference for systole.systole_sigma, which searches reduced
    costs in corridors and reruns only the sources whose first-pass loop
    is least, summing each loop's real lengths along its walk.  At
    connectivity 16 both start from the first and last xi columns and
    must agree bit for bit, in sigma and in the cycle.  At connectivity
    4 and 8 systole_sigma searches from column 0 alone and sums its
    loop again from each last-column node on it; sigma must agree bit
    for bit, and the cycle up to rotation.
    """
    n = graph.node_count
    n0, n1 = graph.grid.shape
    base = -systole._LAYER_LO
    if graph.xi_axis == 0:
        cut = sorted(i * n1 + j for i in (0, n0 - 1) for j in range(n1))
    else:
        cut = sorted(i * n1 + j for j in (0, n1 - 1) for i in range(n0))
    cover = coo_cover(graph)
    exits = systole._window_exits(graph, 0.0)
    best = systole._straight_loop_bound(graph) * (1.0 + 1e-9)
    best_len, best_pred, best_node = math.inf, None, -1
    for v in cut:
        dist, pred = dijkstra(cover, directed=True, indices=base * n + v,
                              limit=best, return_predecessors=True)
        systole._check_layer_window(graph, dist[None], best, np.array([v]),
                                    exits, 0.0)
        d = float(dist[(base + 1) * n + v])
        if d < best_len:
            best_len, best_pred, best_node = d, pred, v
            best = d * (1.0 + 1e-9)
    cycle = []
    at = (base + 1) * n + best_node
    while at != base * n + best_node:
        cycle.append(int(at) % n)
        at = int(best_pred[at])
        if at < 0:
            raise RuntimeError("shortest-path tree lost the source")
    cycle.append(best_node)
    return best_len, tuple(reversed(cycle))


def half_radius_estimates(graph) -> np.ndarray:
    """Each source's loop, from one cover search per source truncated at
    half the best loop plus the longest edge, in systole._sources order.

    The reference for systole's first pass, which searches reduced costs
    up to the best loop less its xi potential.  The cover is invariant
    under the deck shift and under edge reversal, so d(x, v1) =
    d(v0, x shifted down one layer), and one search from v0 holds both
    halves: e_v = min_x d(v0, x) + d(x, v1).  A loop of length L <= best
    has a vertex within L/2 of v0 whose own distance to v1 is at most
    L/2 + (longest edge), so the search sees it and e_v is the loop
    length up to rounding; longer loops give e_v > best.  Both passes
    must pick the same sources to rerun.
    """
    n = graph.node_count
    base = -systole._LAYER_LO
    cover = coo_cover(graph)
    exits = systole._window_exits(graph, 0.0)
    best = systole._straight_loop_bound(graph) * (1.0 + 1e-9)
    radius = 0.5 * best + float(graph.length.max())
    sources = systole._sources(graph)
    estimate = np.empty(sources.size)
    for k, v in enumerate(sources.tolist()):
        dist = dijkstra(cover, directed=True, indices=base * n + v,
                        limit=radius)
        systole._check_layer_window(graph, dist[None], radius,
                                    np.array([v]), exits, 0.0)
        estimate[k] = (dist[n:] + dist[:-n]).min()
    return estimate


def box_bundle_foliation(metric: TensorField, times, heights,
                         phi: ScalarField, graph_axis: int):
    """The foliation of make_graph_foliation, with every leaf reading the
    curvature bundle and phi's derivatives of the whole chart.

    The reference for make_graph_foliation, which builds both on the
    slab of rows its leaves read, plus a halo: every leaf-strand output
    must agree bit for bit.
    """
    bundle = curvature_bundle(metric)
    potential = potential_derivatives(bundle, phi)
    slices = [hypersurface.embed_graph(metric, h, graph_axis, bundle=bundle)
              for h in heights]
    speed = np.gradient(np.stack([s.graph_height.values for s in slices]),
                        np.asarray(times, dtype=float), axis=0,
                        edge_order=2)
    lapse = [ScalarField(s.slice_grid,
                         speed[k] * s.normal_covector[..., graph_axis])
             for k, s in enumerate(slices)]
    weighted = [hypersurface.weighted_mean_curvature(s, potential)
                for s in slices]
    return hypersurface.GraphFoliation(
        tuple(float(t) for t in times), tuple(slices), tuple(lapse),
        tuple(weighted), phi, potential)


def dense_curvature(metric: TensorField) -> tuple:
    """(Gamma, Ric, R) through node-major arrays, a dense Riemann array
    and a generic einsum.

    The reference for curvature_bundle, which assembles the same
    components blockwise and component-major and contracts them in
    component loops: all three must agree bit for bit.  What is checked
    is that operand and contraction order, so both sides take g^{-1}
    from the one charts kernel.
    """
    grid = metric.grid
    d = grid.dim
    g = metric.values
    inv = inverse_and_determinant(g)[0]
    dg = np.stack([diff_array(g, grid, a, 1) for a in range(d)], axis=-1)
    d2g = np.zeros(grid.shape + (d, d, d, d))
    for k in range(d):
        for l in range(k, d):
            if k == l:
                v = diff_array(g, grid, k, 2)
            else:
                v = diff_array(diff_array(g, grid, k, 1), grid, l, 1)
            d2g[..., k, l] = v
            d2g[..., l, k] = v
    gamma = np.zeros(grid.shape + (d, d, d))
    for k in range(d):
        for i in range(d):
            for j in range(i, d):
                acc = np.zeros(grid.shape)
                for l in range(d):
                    acc += inv[..., k, l] * (dg[..., l, j, i]
                                             + dg[..., i, l, j]
                                             - dg[..., i, j, l])
                gamma[..., k, i, j] = 0.5 * acc
                gamma[..., k, j, i] = gamma[..., k, i, j]
    riemann = np.zeros(grid.shape + (d, d, d, d))
    for i in range(d):
        for k in range(i + 1, d):
            for l in range(d):
                for m in range(l + 1, d):
                    comp = 0.5 * (d2g[..., i, m, k, l] + d2g[..., k, l, i, m]
                                  - d2g[..., i, l, k, m]
                                  - d2g[..., k, m, i, l])
                    for n in range(d):
                        for p in range(d):
                            comp += g[..., n, p] * (
                                gamma[..., n, k, l] * gamma[..., p, i, m]
                                - gamma[..., n, k, m] * gamma[..., p, i, l])
                    riemann[..., i, k, l, m] = comp
                    riemann[..., k, i, l, m] = -comp
                    riemann[..., i, k, m, l] = -comp
                    riemann[..., k, i, m, l] = comp
    ric = np.einsum("...il,...iklm->...km", inv, riemann, optimize=False)
    ric = 0.5 * (ric + np.swapaxes(ric, -1, -2))
    scal = np.einsum("...ij,...ij->...", inv, ric, optimize=False)
    return gamma, ric, scal


def reference_weighted_mean_curvature(emb, phi: ScalarField) -> np.ndarray:
    """H + <grad phi, nu> per leaf node, grad phi differentiated afresh.

    The reference for foliations, which read grad phi off the potential
    derivatives they compute once on the leaves' ambient slab: both
    must agree bit for bit.  Here phi is differentiated on its own grid,
    the whole chart.
    """
    grid = phi.grid
    dphi = np.stack([diff_array(phi.values, grid, i, 1)
                     for i in range(grid.dim)], axis=-1)
    return emb.mean_curvature.values + np.einsum(
        "...i,...i->...", emb.sample(TensorField(grid, 1, dphi)),
        emb.normal, optimize=False)


def einsum_second_fundamental(emb) -> np.ndarray:
    """The graph's second fundamental form, with co_k Gamma^k_ij E^i_a
    E^j_b taken by one generic four-operand einsum.

    The reference for embed_graph, which sums the same terms in
    component loops: both must agree bit for bit.  The rest follows
    embed_graph's steps from the embedding's own normal, frame and
    height.
    """
    co = emb.normal_covector
    gamma = emb.sample(emb.ambient_bundle.christoffel)
    frame = emb.tangent_frame
    second = np.einsum("...k,...kij,...ia,...jb->...ab", co, gamma, frame,
                       frame, optimize=False)
    _, d2w = gradient_and_hessian(emb.graph_height.values, emb.slice_grid)
    for (a, b), d2w_ab in d2w.items():
        second[..., a, b] = -(co[..., emb.graph_axis] * d2w_ab
                              + second[..., a, b])
    return 0.5 * (second + np.swapaxes(second, -1, -2))


def dense_tensor_norm_sq(inverse: np.ndarray, tensor: np.ndarray):
    """g^{ia} g^{jb} T_ij T_ab as one generic four-operand einsum."""
    return np.einsum("...ia,...jb,...ij,...ab->...", inverse, inverse,
                     tensor, tensor, optimize=False)


def random_spd_metric(grid: ChartGrid, seed: int) -> TensorField:
    """Symmetric positive-definite metric of independent random nodes."""
    rng = np.random.default_rng(seed)
    d = grid.dim
    a = rng.standard_normal(grid.shape + (d, d))
    vals = a @ np.swapaxes(a, -1, -2) + d * np.eye(d)
    return TensorField(grid, 2, 0.5 * (vals + np.swapaxes(vals, -1, -2)))
