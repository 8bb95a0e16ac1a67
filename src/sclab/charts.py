"""Structured chart grids and the field calculus everything else builds on.

A chart is a tensor-product grid on a box, with each axis either periodic
(wraps around, spacing = extent / resolution) or boundary (endpoints are
honest grid nodes, spacing = extent / (resolution - 1)).  Scalar and tensor
fields store one value (or one d x ... x d component block) per node, in
row-major node order.  Derivatives are second-order central differences,
falling back to second-order one-sided stencils at boundary-axis edges.
A slab is a window of one boundary axis's rows of a full chart, with the
full chart's node coordinates; `restrict` hands full-chart fields to it.

Integration weights nodes by a held volume density sqrt(det g) (a
bundle's `volume`, a leaf's `induced_volume`: `integrate` inverts
nothing) times the cell volume (trapezoid half-cells at boundary-axis
edges) and accumulates with a fixed pairwise tree so the sum is
reproducible bit for bit regardless of how the node loop is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sparse

PERIODIC = "periodic"
BOUNDARY = "boundary"

MIN_RESOLUTION = 8


@dataclass(frozen=True)
class ChartGrid:
    """Immutable description of a structured grid on a coordinate box.

    A slab is the window of node rows offset[a] .. offset[a] +
    resolution[a] - 1 of a full chart with full_resolution nodes per
    axis; it keeps the full chart's origin, extent and spacing, so its
    node coordinates are the full chart's bit for bit.  A full chart
    has offset zero and full_resolution == resolution (the defaults).
    """

    resolution: tuple[int, ...]
    extent: tuple[float, ...]
    topology: tuple[str, ...]
    origin: tuple[float, ...]
    spacing: tuple[float, ...]
    offset: tuple[int, ...] = ()
    full_resolution: tuple[int, ...] = ()

    def __post_init__(self):
        dim = len(self.resolution)
        if not 1 <= dim <= 3:
            raise ValueError(f"chart dimension must be 1, 2 or 3, got {dim}")
        if not self.offset:
            object.__setattr__(self, "offset", (0,) * dim)
        if not self.full_resolution:
            object.__setattr__(self, "full_resolution", self.resolution)
        for t in (self.extent, self.topology, self.origin, self.spacing,
                  self.offset, self.full_resolution):
            if len(t) != dim:
                raise ValueError("resolution/extent/topology/origin/spacing "
                                 "must all have one entry per axis")
        for a in range(dim):
            if self.resolution[a] < MIN_RESOLUTION:
                raise ValueError(
                    f"axis {a}: resolution {self.resolution[a]} is below the "
                    f"minimum of {MIN_RESOLUTION}")
            if not self.extent[a] > 0.0:
                raise ValueError(f"axis {a}: extent must be positive")
            if self.topology[a] not in (PERIODIC, BOUNDARY):
                raise ValueError(f"axis {a}: unknown topology "
                                 f"{self.topology[a]!r}")
            full = self.full_resolution[a]
            if not (0 <= self.offset[a]
                    and self.offset[a] + self.resolution[a] <= full):
                raise ValueError(f"axis {a}: rows {self.offset[a]} + "
                                 f"{self.resolution[a]} exceed the "
                                 f"{full} of the full chart")
            if self.topology[a] == PERIODIC and self.resolution[a] != full:
                raise ValueError(f"axis {a}: a periodic axis cannot be cut")
            n = full if self.topology[a] == PERIODIC else full - 1
            expected = self.extent[a] / n
            if self.spacing[a] != expected:
                raise ValueError(f"axis {a}: spacing {self.spacing[a]} "
                                 f"inconsistent with extent/topology")

    @property
    def dim(self) -> int:
        return len(self.resolution)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.resolution

    @property
    def node_count(self) -> int:
        return int(np.prod(self.resolution))

    @property
    def full_chart(self) -> "ChartGrid":
        """The chart a slab was cut from (a full chart is its own)."""
        if self.resolution == self.full_resolution:
            return self
        return replace(self, resolution=self.full_resolution,
                       offset=(0,) * self.dim)

    def axis_coords(self, axis: int) -> np.ndarray:
        """Node coordinates along one axis: origin + index * spacing,
        the index counted in the full chart."""
        first = self.offset[axis]
        return self.origin[axis] + self.spacing[axis] * np.arange(
            first, first + self.resolution[axis], dtype=float)

    def coords(self) -> list[np.ndarray]:
        """Broadcast node coordinates, one full-shape array per axis."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def halo_rows(self, axis: int) -> tuple[int, ...]:
        """The end rows of a slab axis that the cut, not a chart end,
        made one-sided: their stencil values differ from the full
        chart's, and every row inside them matches it bit for bit."""
        rows = ()
        if self.offset[axis] > 0:
            rows += (0,)
        if self.offset[axis] + self.resolution[axis] < \
                self.full_resolution[axis]:
            rows += (self.resolution[axis] - 1,)
        return rows

    def slab(self, axis: int, first: int, last: int) -> "ChartGrid":
        """The slab of rows first .. last along one boundary axis,
        clipped to the chart and widened to MIN_RESOLUTION rows; the
        chart itself when that is every row."""
        if self.full_chart is not self:
            raise ValueError("cut slabs from the full chart")
        if self.topology[axis] != BOUNDARY:
            raise ValueError(f"axis {axis}: only a boundary axis can be cut")
        n = self.resolution[axis]
        first, last = max(first, 0), min(last, n - 1)
        short = max(0, MIN_RESOLUTION - (last - first + 1))
        first = max(0, first - short // 2)
        last = min(n - 1, max(last + short - short // 2,
                              first + MIN_RESOLUTION - 1))
        first = min(first, last - MIN_RESOLUTION + 1)
        if last - first + 1 == n:
            return self
        resolution, offset = list(self.resolution), list(self.offset)
        resolution[axis], offset[axis] = last - first + 1, first
        return replace(self, resolution=tuple(resolution),
                       offset=tuple(offset))

    def interior_mask(self) -> np.ndarray:
        """True away from boundary-axis edge rows (all True on tori);
        a slab's cut rows are interior."""
        mask = np.ones(self.shape, dtype=bool)
        for a in range(self.dim):
            if self.topology[a] == BOUNDARY:
                halo = self.halo_rows(a)
                for row in (0, self.resolution[a] - 1):
                    if row not in halo:
                        mask[_axis_slice(self.dim, a, row)] = False
        return mask

    def cell_weights(self) -> np.ndarray:
        """Per-node coordinate cell volume; chart-edge nodes carry half
        cells (a slab's cut rows carry whole ones)."""
        w = np.ones(self.shape)
        for a in range(self.dim):
            wa = np.full(self.full_resolution[a], self.spacing[a])
            if self.topology[a] == BOUNDARY:
                wa[0] *= 0.5
                wa[-1] *= 0.5
            wa = wa[self.offset[a]:self.offset[a] + self.resolution[a]]
            shape = [1] * self.dim
            shape[a] = self.resolution[a]
            w = w * wa.reshape(shape)
        return w

    def drop_axis(self, axis: int) -> "ChartGrid":
        """The codimension-one grid obtained by deleting one axis; the
        kept axes keep their rows, cut or not."""
        if self.dim < 2:
            raise ValueError("cannot drop an axis of a 1-d chart")
        keep = [a for a in range(self.dim) if a != axis]
        return ChartGrid(*(tuple(field[a] for a in keep) for field in (
            self.resolution, self.extent, self.topology, self.origin,
            self.spacing, self.offset, self.full_resolution)))


@dataclass(frozen=True)
class ScalarField:
    grid: ChartGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if v.shape != self.grid.shape:
            raise ValueError(f"scalar field shape {v.shape} does not match "
                             f"grid shape {self.grid.shape}")
        _check_finite(v, self.grid)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class TensorField:
    grid: ChartGrid
    rank: int
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        want = self.grid.shape + (self.grid.dim,) * self.rank
        if self.rank < 1 or v.shape != want:
            raise ValueError(f"rank-{self.rank} field shape {v.shape} does "
                             f"not match expected {want}")
        _check_finite(v, self.grid)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def make_chart(dim, resolution, extent, topology, origin=None) -> ChartGrid:
    """Build a validated grid; spacing follows from extent and topology.
    Each per-axis argument is one value for all axes or one per axis."""
    resolution = _as_tuple(resolution, dim, int, "resolution")
    extent = _as_tuple(extent, dim, float, "extent")
    topology = _as_tuple(topology, dim, str, "topology")
    origin = _as_tuple(0.0 if origin is None else origin, dim, float, "origin")
    spacing = []
    for a in range(dim):
        n = resolution[a] if topology[a] == PERIODIC else resolution[a] - 1
        if n <= 0:
            raise ValueError(f"axis {a}: resolution too small")
        spacing.append(extent[a] / n)
    return ChartGrid(resolution, extent, topology, origin, tuple(spacing))


def sample_field(grid: ChartGrid, fn, rank: int = 0):
    """Evaluate fn on the node coordinates; non-finite samples abort.

    fn receives one broadcast coordinate array per axis and returns either
    a full-shape scalar array (rank 0) or an array with `rank` trailing
    component axes of length grid.dim.
    """
    out = np.asarray(fn(*grid.coords()), dtype=float)
    if rank == 0:
        out = np.broadcast_to(out, grid.shape).copy()
        return ScalarField(grid, out)
    want = grid.shape + (grid.dim,) * rank
    if out.shape != want:
        raise ValueError(f"sampler returned shape {out.shape}, "
                         f"expected {want}")
    return TensorField(grid, rank, out)


def restrict(field, grid: ChartGrid) -> np.ndarray:
    """A field's nodal values on `grid`: its own values when it lives on
    `grid`, a view of `grid`'s rows when it lives on the full chart
    `grid` was cut from.  A field on any other grid raises ValueError."""
    if field.grid == grid:
        return field.values
    if field.grid != grid.full_chart:
        raise ValueError(f"field on a {field.grid.shape} grid lives on a "
                         f"different ambient grid than {grid.shape} or the "
                         "full chart it was cut from")
    return field.values[tuple(slice(first, first + n) for first, n
                              in zip(grid.offset, grid.resolution))]


def diff_array(values: np.ndarray, grid: ChartGrid, axis: int,
               order: int) -> np.ndarray:
    """Second-order stencil derivative along one grid axis.

    Component axes (anything beyond grid.dim) ride along untouched.
    Periodic axes wrap; boundary axes close with one-sided second-order
    stencils, so differentiating any constant field returns exact zeros.
    """
    if not 0 <= axis < grid.dim:
        raise ValueError(f"axis {axis} out of range for dim {grid.dim}")
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    h = grid.spacing[axis]
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    n = grid.resolution[axis]

    def row(i):
        return _axis_slice(v.ndim, axis, i)

    if grid.topology[axis] == PERIODIC:
        # (up - dn) / 2h and ((-2 v + up) + dn) / h^2, where row i reads
        # up = v[i + 1] and dn = v[i - 1], wrapping at the two end rows
        rows = (slice(0, 1), slice(1, n - 1), slice(n - 1, n))
        ups = (slice(1, 2), slice(2, n), slice(0, 1))
        dns = (slice(n - 1, n), slice(0, n - 2), slice(n - 2, n - 1))
        if order == 1:
            for at, up, dn in zip(rows, ups, dns):
                np.subtract(v[row(up)], v[row(dn)], out=out[row(at)])
            out /= 2.0 * h
        else:
            np.multiply(v, -2.0, out=out)
            for shifted in (ups, dns):
                for at, src in zip(rows, shifted):
                    out[row(at)] += v[row(src)]
            out /= h * h
        return out

    # one-sided closures are written as combinations of neighbor
    # differences so constant fields cancel exactly, not just to roundoff
    if order == 1:
        out[row(slice(1, n - 1))] = (
            v[row(slice(2, n))] - v[row(slice(0, n - 2))]) / (2.0 * h)
        out[row(0)] = (3.0 * (v[row(1)] - v[row(0)])
                       + (v[row(1)] - v[row(2)])) / (2.0 * h)
        out[row(n - 1)] = (3.0 * (v[row(n - 1)] - v[row(n - 2)])
                           + (v[row(n - 3)] - v[row(n - 2)])) / (2.0 * h)
    else:
        out[row(slice(1, n - 1))] = (
            v[row(slice(2, n))] - 2.0 * v[row(slice(1, n - 1))]
            + v[row(slice(0, n - 2))]) / (h * h)
        out[row(0)] = (2.0 * (v[row(0)] - v[row(1)])
                       - 3.0 * (v[row(1)] - v[row(2)])
                       + (v[row(2)] - v[row(3)])) / (h * h)
        out[row(n - 1)] = (2.0 * (v[row(n - 1)] - v[row(n - 2)])
                           - 3.0 * (v[row(n - 2)] - v[row(n - 3)])
                           + (v[row(n - 3)] - v[row(n - 4)])) / (h * h)
    return out


def derivative_matrix(grid: ChartGrid, axis: int) -> sparse.csr_matrix:
    """`diff_array(u, grid, axis, 1)` as a sparse matrix on u.ravel():
    the stencil of the axis's 1-d line (its rows and spacing kept),
    Kronecker-extended by identities over the other axes."""
    line = grid
    for a in sorted(set(range(grid.dim)) - {axis}, reverse=True):
        line = line.drop_axis(a)
    stencil = diff_array(np.eye(grid.resolution[axis]), line, 0, 1)
    before, after = (sparse.identity(int(np.prod(grid.shape[rows])))
                     for rows in (slice(axis), slice(axis + 1, None)))
    return sparse.kron(sparse.kron(before, stencil), after, format="csr")


def gradient(values: np.ndarray, grid: ChartGrid) -> np.ndarray:
    """First derivatives along every grid axis, stacked as a last axis."""
    return np.stack([diff_array(values, grid, a, 1) for a in range(grid.dim)],
                    axis=-1)


def gradient_and_hessian(values: np.ndarray,
                         grid: ChartGrid) -> tuple[np.ndarray, dict]:
    """`gradient`, and the second derivatives d_a d_b per axis pair,
    keyed by both (a, b) and (b, a), which share one array.

    The diagonal ones take the order-2 stencil; a mixed one (a < b)
    differences along b the first derivative along a already held.
    Component axes ride along, and no array with two more axes is built.
    """
    first = gradient(values, grid)
    second = {}
    for a in range(grid.dim):
        second[a, a] = diff_array(values, grid, a, 2)
        for b in range(a + 1, grid.dim):
            second[a, b] = second[b, a] = diff_array(first[..., a], grid,
                                                     b, 1)
    return first, second


def tree_sum(values: np.ndarray) -> float:
    """Pairwise reduction in fixed node order; bit-reproducible."""
    flat = np.ascontiguousarray(values, dtype=float).reshape(-1)
    n = flat.size
    if n == 0:
        return 0.0
    size = 1
    while size < n:
        size *= 2
    buf = np.zeros(size)
    buf[:n] = flat
    while buf.size > 1:
        buf = buf[0::2] + buf[1::2]
    return float(buf[0])


def inverse_and_determinant(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse and determinant of every trailing d x d block (d <= 3):
    the adjugate over the determinant, expanded along the first row.

    The leading principal minors are tested from order 1 up, the last
    being the determinant itself; the first node where one is not
    positive raises ValueError naming that node and the order.  Those
    below order d are written out: one adjugate, the whole block's.
    """
    d = g.shape[-1]
    for k in range(1, d + 1):
        if k == d:
            adj = _adjugate(g)
            minor = g[..., 0, 0] * adj[..., 0, 0]
            for j in range(1, d):
                minor += g[..., 0, j] * adj[..., j, 0]
        elif k == 1:
            minor = g[..., 0, 0]
        else:   # order 2 of a 3x3 block
            minor = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
        bad = ~(minor > 0.0)
        if bad.any():
            node = node_tuple(np.argmax(bad), minor.shape)
            raise ValueError(f"metric is not positive definite at node {node} "
                             f"(order-{k} leading minor {minor[node]:.3e})")
    adj /= minor[..., None, None]
    return adj, minor


def _adjugate(m: np.ndarray) -> np.ndarray:
    """Transposed cofactor matrix of every trailing k x k block, k <= 3."""
    k = m.shape[-1]
    adj = np.empty(m.shape)
    if k == 1:
        adj[..., 0, 0] = 1.0
    elif k == 2:
        adj[..., 0, 0], adj[..., 1, 1] = m[..., 1, 1], m[..., 0, 0]
        adj[..., 0, 1], adj[..., 1, 0] = -m[..., 0, 1], -m[..., 1, 0]
    else:
        # adj[i, j] is the (j, i) cofactor; cyclic shifts carry its sign
        for i in range(3):
            c, e = (i + 1) % 3, (i + 2) % 3
            for j in range(3):
                r, s = (j + 1) % 3, (j + 2) % 3
                np.subtract(m[..., r, c] * m[..., s, e],
                            m[..., r, e] * m[..., s, c], out=adj[..., i, j])
    return adj


def integrate(field: ScalarField, volume: ScalarField) -> float:
    """Riemannian integral: tree-summed values * volume * cell volume."""
    grid = field.grid
    if volume.grid is not grid and volume.grid != grid:
        raise ValueError("field and volume live on different grids")
    return tree_sum(field.values * volume.values * grid.cell_weights())


_SNAP_MAGIC = "chartsnap 1"


def write_snapshot(path, grid: ChartGrid, fields: dict) -> None:
    """Self-describing text snapshot; floats carry 17 significant digits."""
    lines = [_SNAP_MAGIC,
             f"dim {grid.dim}",
             "resolution " + " ".join(str(r) for r in grid.resolution),
             "extent " + " ".join(_fmt(e) for e in grid.extent),
             "topology " + " ".join(grid.topology),
             "origin " + " ".join(_fmt(o) for o in grid.origin),
             f"fields {len(fields)}"]
    for name, field in fields.items():
        if any(c.isspace() for c in name):
            raise ValueError(f"field name {name!r} contains whitespace")
        rank = 0 if isinstance(field, ScalarField) else field.rank
        lines.append(f"field {name} {rank}")
        flat = field.values.reshape(-1)
        for start in range(0, flat.size, 8):
            lines.append(" ".join(_fmt(x) for x in flat[start:start + 8]))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_snapshot(path) -> tuple[ChartGrid, dict]:
    # lines end in "\n": after the last one is "" or a cut line, dropped
    with open(path) as fh:
        lines = iter(fh.read().split("\n")[:-1])

    def next_line(expected: str) -> str:
        line = next(lines, None)
        if line is None:
            raise ValueError(f"{path}: snapshot is truncated: expected "
                             f"{expected}")
        return line

    def record(key: str, parse=str):
        line = next_line(f"the {key!r} record")
        if not line.startswith(key + " "):
            raise ValueError(f"{path}: snapshot: expected {key!r} record, "
                             f"got {line!r}")
        try:
            return parse(line[len(key) + 1:])
        except ValueError as exc:
            raise ValueError(f"{path}: snapshot: {key!r} record: "
                             f"{exc}") from None

    def entries(cast):
        return lambda text: tuple(cast(x) for x in text.split())

    def field_head(text):
        name, rank = text.split()
        return name, int(rank)

    if next_line("the magic line") != _SNAP_MAGIC:
        raise ValueError(f"{path}: not a chart snapshot")
    dim = record("dim", int)
    resolution = record("resolution", entries(int))
    extent = record("extent", entries(float))
    topology = record("topology", entries(str))
    origin = record("origin", entries(float))
    try:
        grid = make_chart(dim, resolution, extent, topology, origin=origin)
    except ValueError as exc:
        raise ValueError(f"{path}: snapshot: {exc}") from None
    nfields = record("fields", int)
    fields = {}
    for _ in range(nfields):
        name, rank = record("field", field_head)
        count = grid.node_count * grid.dim ** rank
        vals = []
        while len(vals) < count:
            vals.extend(float(x) for x in next_line(
                f"{count - len(vals)} more values of field {name!r}").split())
        if len(vals) != count:
            raise ValueError(f"{path}: field {name}: value count mismatch")
        arr = np.array(vals).reshape(grid.shape + (grid.dim,) * rank)
        fields[name] = (ScalarField(grid, arr) if rank == 0
                        else TensorField(grid, rank, arr))
    return grid, fields


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _as_tuple(value, dim, cast, name):
    values = (value,) * dim if np.isscalar(value) else tuple(value)
    if len(values) != dim:
        raise ValueError(f"expected {dim} {name} entries, got {len(values)}")
    return tuple(cast(v) for v in values)


def _axis_slice(ndim, axis, index):
    sl = [slice(None)] * ndim
    sl[axis] = index
    return tuple(sl)


def node_tuple(flat_index: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    """Row-major flat index as a plain-int node tuple (for messages)."""
    return tuple(int(i) for i in np.unravel_index(int(flat_index), shape))


def _check_finite(values: np.ndarray, grid: ChartGrid) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        per_node = bad.reshape(grid.node_count, -1).any(axis=1)
        node = node_tuple(np.argmax(per_node), grid.shape)
        raise ValueError(f"non-finite field value at node {node}")
