"""Test-only helpers: field conveniences and independent oracles.

The package itself never needs these; they build inputs and
independent answers for the suites.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sparse

from sclab.charts import ChartGrid, ScalarField, TensorField, diff_array, \
    node_tuple

DENSE_ORACLE_CAP = 1024


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


def edge_table(graph) -> dict:
    """(a, b) -> (length, winding along a -> b), both orientations."""
    table = {}
    for a, b, ell, w in zip(graph.tail.tolist(), graph.head.tolist(),
                            graph.length.tolist(), graph.winding.tolist()):
        table[(a, b)] = (ell, w)
        table[(b, a)] = (ell, -w)
    return table


def cycle_length(graph, cycle) -> tuple[float, int]:
    """Length and total winding of a closed node walk (first == last)."""
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
