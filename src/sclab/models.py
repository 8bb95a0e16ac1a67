"""Named model geometries used across the test beds and the command line.

Every builder returns sampled fields on explicit charts, so downstream
code never special-cases a geometry: a round sphere is just another
metric field.  Latitude charts are kept away from the coordinate poles,
where the lat-long metric degenerates: `sphere_full` staggers the nodes
half a cell off the poles (for integrals over the whole sphere), while
`sphere_band` cuts a fixed collar (for stencil work, whose error
constants blow up like inverse powers of the polar distance).
"""

from __future__ import annotations

import numpy as np

from .charts import (BOUNDARY, PERIODIC, ChartGrid, TensorField, make_chart,
                     sample_field)

TWO_PI = 2.0 * np.pi


def _diag_metric(grid: ChartGrid, entries) -> TensorField:
    """Diagonal metric from one callable (or constant) per axis."""

    def sampler(*xs):
        d = grid.dim
        out = np.zeros(grid.shape + (d, d))
        for a, entry in enumerate(entries):
            out[..., a, a] = entry(*xs) if callable(entry) else float(entry)
        return out

    return sample_field(grid, sampler, rank=2)


def flat_torus(resolution, lengths=(TWO_PI, TWO_PI)):
    """Flat torus with side lengths; metric is the identity."""
    dim = len(lengths)
    grid = make_chart(dim, resolution, lengths, PERIODIC)
    return grid, _diag_metric(grid, [1.0] * dim)


def conformal_torus(resolution, amplitude=0.1, lengths=(TWO_PI, TWO_PI)):
    """Torus with metric e^{2u} delta, u = amplitude * sin x1.

    Returns (grid, metric, u); scalar curvature is -2 e^{-2u} (flat
    Laplacian of u), handy as a closed-form oracle.
    """
    grid = make_chart(2, resolution, lengths, PERIODIC)
    u = sample_field(grid, lambda x1, x2: amplitude * np.sin(x1))
    conf = np.exp(2.0 * u.values)
    vals = np.zeros(grid.shape + (2, 2))
    vals[..., 0, 0] = conf
    vals[..., 1, 1] = conf
    return grid, TensorField(grid, 2, vals), u


def sphere_band(lat_res, lon_res, radius=1.0, pad=np.pi / 8):
    """Round sphere on a latitude band [pad, pi - pad] x full longitude."""
    if not 0.0 < pad < np.pi / 2:
        raise ValueError("pad must lie in (0, pi/2)")
    grid = make_chart(2, (lat_res, lon_res), (np.pi - 2.0 * pad, TWO_PI),
                      (BOUNDARY, PERIODIC), origin=(pad, 0.0))
    r2 = radius * radius
    metric = _diag_metric(grid, [r2, lambda t, p: r2 * np.sin(t) ** 2])
    return grid, metric


def sphere_full(lat_res, lon_res, radius=1.0):
    """Round sphere with latitude nodes staggered half a cell off the poles.

    Node latitudes are (i + 1/2) * pi / lat_res, so the metric stays
    positive definite everywhere while the chart still covers the sphere
    up to O(h^2) polar caps.
    """
    h = np.pi / lat_res
    grid = make_chart(2, (lat_res, lon_res), (np.pi - h, TWO_PI),
                      (BOUNDARY, PERIODIC), origin=(0.5 * h, 0.0))
    r2 = radius * radius
    metric = _diag_metric(grid, [r2, lambda t, p: r2 * np.sin(t) ** 2])
    return grid, metric


def spherical_shell(lat_res, lon_res, rad_res, radius=1.0, rel_width=0.25,
                    pad=np.pi / 8):
    """Flat 3-space in spherical coordinates (lat, lon, r) near one sphere.

    Constant-radius graphs over the (lat, lon) band are round spheres;
    the radial axis spans radius * (1 -+ rel_width).
    """
    r_lo = radius * (1.0 - rel_width)
    grid = make_chart(
        3, (lat_res, lon_res, rad_res),
        (np.pi - 2.0 * pad, TWO_PI, 2.0 * radius * rel_width),
        (BOUNDARY, PERIODIC, BOUNDARY), origin=(pad, 0.0, r_lo))
    metric = _diag_metric(grid, [
        lambda t, p, s: s * s,
        lambda t, p, s: (s * np.sin(t)) ** 2,
        1.0,
    ])
    return grid, metric


def cylindrical_shell(ang_res, z_res, rad_res, radius=1.0, z_len=TWO_PI,
                      rel_width=0.5):
    """Flat 3-space in cylindrical coordinates (angle, z, r) near one shell.

    Constant-radius graphs are round cylinders of mean curvature 1/r.
    """
    r_lo = radius * (1.0 - rel_width)
    grid = make_chart(3, (ang_res, z_res, rad_res),
                      (TWO_PI, z_len, 2.0 * radius * rel_width),
                      (PERIODIC, PERIODIC, BOUNDARY), origin=(0.0, 0.0, r_lo))
    metric = _diag_metric(grid, [lambda a, z, s: s * s, 1.0, 1.0])
    return grid, metric


def torus_surface(ang_res, fib_res, radius=1.0, fiber_len=TWO_PI):
    """Flat product circle(radius) x circle(fiber_len) as a 2-d chart.

    This is the boundary of the solid-cylinder model; the first axis is
    the disk-boundary circle of circumference 2 pi radius.
    """
    grid = make_chart(2, (ang_res, fib_res), (TWO_PI, fiber_len), PERIODIC)
    return grid, _diag_metric(grid, [radius * radius, 1.0])


def solid_cylinder_band(rad_res, ang_res, fib_res, radius=1.0,
                        fiber_len=TWO_PI, inner=0.5):
    """Flat disk(radius) x circle, truncated to the annulus [inner*r, r].

    Coordinates (r, angle, fiber); constant-fiber graphs are the disk
    slices whose free boundary sits on the outer wall r = radius.
    """
    grid = make_chart(3, (rad_res, ang_res, fib_res),
                      (radius * (1.0 - inner), TWO_PI, fiber_len),
                      (BOUNDARY, PERIODIC, PERIODIC),
                      origin=(radius * inner, 0.0, 0.0))
    metric = _diag_metric(grid, [1.0, lambda s, a, z: s * s, 1.0])
    return grid, metric


def flat_box3(resolution, lengths=(TWO_PI, TWO_PI, TWO_PI)):
    """Flat 3-torus; ambient space for generic graph hypersurfaces."""
    grid = make_chart(3, resolution, lengths, PERIODIC)
    return grid, _diag_metric(grid, [1.0, 1.0, 1.0])
