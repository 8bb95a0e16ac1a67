"""Correctness checks on the benchmark's outputs, by closed forms only.

Nothing here imports sclab: every expected value comes from the model
geometry of the workload, and every tolerance from the order of the
stencils that produced the output.  Each checker returns a list of
failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import i0

EPS = float(np.finfo(float).eps)


# --- output readers -------------------------------------------------------

def read_csv(path) -> dict:
    """Header-keyed float columns of a CSV written by the `scl` jobs."""
    with open(path) as fh:
        lines = [line for line in fh.read().split("\n") if line]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {name: np.array([float(row[k]) for row in rows])
            for k, name in enumerate(header)}


def read_snapshot_metric(path):
    """(resolution, extent, metric values) of a `chartsnap 1` file."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines[0] != "chartsnap 1":
        raise ValueError(f"{path}: not a chart snapshot")
    head = {}
    for line in lines[1:7]:
        key, _, rest = line.partition(" ")
        head[key] = rest.split()
    resolution = tuple(int(x) for x in head["resolution"])
    extent = tuple(float(x) for x in head["extent"])
    dim = len(resolution)
    count = int(np.prod(resolution)) * dim * dim
    start = lines.index("field metric 2") + 1
    values = []
    k = start
    while len(values) < count:
        values.extend(float(x) for x in lines[k].split())
        k += 1
    g = np.array(values).reshape(resolution + (dim, dim))
    return resolution, extent, g


def periodic_area(resolution, extent, g) -> float:
    """Sum of sqrt(det g) * h1 * h2 over a doubly periodic 2-d chart."""
    h1 = extent[0] / resolution[0]
    h2 = extent[1] / resolution[1]
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    return float(np.sqrt(det).sum() * h1 * h2)


# --- flow-torus -----------------------------------------------------------

def flow_area_tolerance(t: float, h: float, amplitude: float) -> float:
    """Relative area drift admitted at flow time t.

    2-d Ricci flow keeps the area of a torus (Gauss-Bonnet: the rate
    is -int R dA = 0).  The stencil scalar curvature is not in
    divergence form, so its integral is O(h^2) instead of 0; the part
    linear in the conformal amplitude a is a sum of periodic second
    differences and cancels exactly, which leaves a drift of order
    t h^2 a^2.  The constant 1 is 2.7 times the largest coefficient
    seen at res 32 and 64 for a in [0.05, 0.3]; a 1e-12 floor covers
    the summation.
    """
    return t * h * h * amplitude * amplitude + 1e-12


def check_flow(inf_s, snapshots, amplitude: float, h: float) -> list:
    """inf S never decreases; every snapshot keeps the initial area.

    snapshots is a list of (t, area).  The initial metric is
    e^{2 a sin x1} delta on the (2 pi)^2 torus, whose area is
    4 pi^2 I0(2a).
    """
    errors = []
    inf_s = np.asarray(inf_s, dtype=float)
    slack = 64.0 * EPS * np.maximum(np.abs(inf_s[:-1]), 1.0)
    drops = np.flatnonzero(inf_s[1:] < inf_s[:-1] - slack)
    if drops.size:
        k = int(drops[0])
        errors.append(f"inf_S drops from {inf_s[k]:.17g} to "
                      f"{inf_s[k + 1]:.17g} at state {k}")
    exact = 4.0 * math.pi ** 2 * float(i0(2.0 * amplitude))
    for t, area in snapshots:
        rel = abs(area / exact - 1.0)
        tol = flow_area_tolerance(t, h, amplitude)
        if not rel <= tol:
            errors.append(f"area {area:.17g} at t = {t:g} is off "
                          f"4 pi^2 I0(2a) = {exact:.17g} by {rel:.3e} "
                          f"(tolerance {tol:.3e})")
    if not snapshots:
        errors.append("no snapshots to check")
    return errors


# --- systole-aniso --------------------------------------------------------

def check_systole(sigma: float, cycle_nodes: int, res: int,
                  amplitude: float) -> list:
    """sigma = 2 pi sqrt(1 - a) to rounding, on the straight loop.

    The metric is (1 + a sin x2) dx1^2 + dx2^2 and edge lengths use the
    exact midpoint metric, so every edge is at least sqrt(1 - a)|dx1|
    long and a winding loop is at least 2 pi sqrt(1 - a).  The straight
    loop on the node row x2 = 3 pi / 2 (res divisible by 4) has exactly
    that length, with res edges.  Rounding: res terms of a few ulps.
    """
    if res % 4:
        return [f"res {res} is not divisible by 4; no node row at "
                "x2 = 3 pi / 2"]
    errors = []
    exact = 2.0 * math.pi * math.sqrt(1.0 - amplitude)
    tol = 4.0 * res * EPS * exact
    if not abs(sigma - exact) <= tol:
        errors.append(f"sigma {sigma:.17g} differs from 2 pi sqrt(1 - a) "
                      f"= {exact:.17g} by {abs(sigma - exact):.3e} "
                      f"(tolerance {tol:.3e})")
    if cycle_nodes != res:
        errors.append(f"cycle has {cycle_nodes} edges, expected {res}")
    return errors


# --- shell-leaves ---------------------------------------------------------

def shell_band_area(radius: float, c: float) -> float:
    """Weighted area of r = R on the band [pi/8, 7 pi/8]: 4 pi R^2
    cos(pi/8) e^{c R^2}."""
    return (4.0 * math.pi * radius * radius * math.cos(math.pi / 8.0)
            * math.exp(c * radius * radius))


def _area_derivatives(radius, c):
    """A, A' and A''' of the band area A(R) = K R^2 e^{c R^2}."""
    k = 4.0 * math.pi * math.cos(math.pi / 8.0)
    e = np.exp(c * radius * radius)
    e1 = 2.0 * c * radius * e
    e2 = (2.0 * c + 4.0 * c * c * radius * radius) * e
    e3 = (12.0 * c * c * radius + 8.0 * c ** 3 * radius ** 3) * e
    a0 = k * radius * radius * e
    a1 = k * (2.0 * radius * e + radius * radius * e1)
    a3 = k * (6.0 * e1 + 6.0 * radius * e2 + radius * radius * e3)
    return a0, a1, a3


def shell_tolerances(radii, c: float, h_lat: float, h_rad: float) -> dict:
    """Per-leaf tolerances from the O(h^2) stencils of the shell chart.

    The leaves r = R sit between radial nodes, so the metric r^2 and
    the weight e^{c r^2} are linearly interpolated: r^2 gains at most
    h_rad^2 / 4, e^{c r^2} at most h_rad^2 / 8 times its second
    derivative.  Christoffels and the Hessian of c r^2 are exact (the
    stencils differentiate quadratics exactly), so:
      mu: H = 2R / (R^2 + delta) is off by at most h_rad^2 / (2 R^3);
      eigenvalue: |h|^2 = 2 R^2 / (R^2 + delta)^2 is off by at most
        h_rad^2 / R^4;
      area: the trapezoid rule in latitude adds (h_lat^2 / 12) times
        the band length over 2 cos(pi/8), relative.
    Each bound is doubled against rounding and solver tolerance.
    """
    radii = np.asarray(radii, dtype=float)
    r_max = float(radii.max())
    interp = (h_rad ** 2 / (4.0 * radii ** 2)
              + h_rad ** 2 / 8.0 * (2.0 * c + 4.0 * c * c * r_max ** 2))
    trapezoid = (h_lat ** 2 / 12.0 * (3.0 * math.pi / 4.0)
                 / (2.0 * math.cos(math.pi / 8.0)))
    return {"mu": 2.0 * h_rad ** 2 / (2.0 * radii ** 3),
            "eigenvalue": 2.0 * h_rad ** 2 / radii ** 4,
            "area": 2.0 * (trapezoid + interp),
            "interp": 2.0 * interp}


def area_rate_tolerance(radii, c, tolerances) -> np.ndarray:
    """|area_rate - variation| admitted per leaf.

    area_rate is numpy's second-order difference of the areas over
    equally spaced radii: its truncation is dR^2/6 |A'''| inside and
    dR^2/3 |A'''| at the two ends.  The per-leaf interpolation error
    of the areas is not smooth in R, and the end stencil weights sum
    to 8 / (2 dR), so it enters as 4 max(A * interp) / dR.  The
    variation integral shares the area's stencil error, relative to A'.
    """
    radii = np.asarray(radii, dtype=float)
    step = float(radii[1] - radii[0])
    fine = np.linspace(radii[0], radii[-1], 2001)
    _, _, a3_fine = _area_derivatives(fine, c)
    out = np.empty(radii.size)
    for k, radius in enumerate(radii):
        lo = min(max(k - 1, 0), radii.size - 3)  # first node of k's stencil
        span = (fine >= radii[lo] - 1e-12) & (fine <= radii[lo + 2] + 1e-12)
        coeff = 6.0 if 0 < k < radii.size - 1 else 3.0
        trunc = step ** 2 / coeff * float(np.abs(a3_fine[span]).max())
        _, a1, _ = _area_derivatives(radius, c)
        out[k] = trunc + abs(a1) * tolerances["area"][k]
    a0_all, _, _ = _area_derivatives(radii, c)
    out += 4.0 * float(np.max(a0_all * tolerances["interp"])) / step
    return out


def check_shell(radii, c: float, h_lat: float, h_rad: float, mu, areas,
                area_rate, variation, eigenvalue: float,
                eigenfunction_min: float, middle: int) -> list:
    """Closed forms of flat 3-space in spherical coordinates.

    Leaves r = R are round spheres (H = 2/R, |h|^2 = 2/R^2, Ric = 0)
    meeting the latitude walls orthogonally, with phi = c r^2:
    mu = 2/R + 2cR, weighted area 4 pi R^2 cos(pi/8) e^{cR^2}, and the
    Jacobi operator on a leaf is -Lap - 2/R^2 + 2c with Neumann walls,
    whose principal eigenvalue is -2/R^2 + 2c with a constant, positive
    eigenfunction.
    """
    radii = np.asarray(radii, dtype=float)
    tol = shell_tolerances(radii, c, h_lat, h_rad)
    errors = []
    for k, radius in enumerate(radii):
        want = 2.0 / radius + 2.0 * c * radius
        if not abs(mu[k] - want) <= tol["mu"][k]:
            errors.append(f"leaf {k}: mu {mu[k]:.17g} against 2/R + 2cR "
                          f"= {want:.17g} (tolerance {tol['mu'][k]:.3e})")
        exact = shell_band_area(radius, c)
        rel = abs(areas[k] / exact - 1.0)
        if not rel <= tol["area"][k]:
            errors.append(f"leaf {k}: weighted area {areas[k]:.17g} off "
                          f"{exact:.17g} by {rel:.3e} "
                          f"(tolerance {tol['area'][k]:.3e})")
    rate_tol = area_rate_tolerance(radii, c, tol)
    gap = np.abs(np.asarray(area_rate) - np.asarray(variation))
    for k in np.flatnonzero(~(gap <= rate_tol)):
        errors.append(f"leaf {k}: area_rate {area_rate[k]:.17g} against "
                      f"first variation {variation[k]:.17g} "
                      f"(tolerance {rate_tol[k]:.3e})")
    radius = float(radii[middle])
    want = -2.0 / radius ** 2 + 2.0 * c
    if not abs(eigenvalue - want) <= tol["eigenvalue"][middle]:
        errors.append(f"principal eigenvalue {eigenvalue:.17g} against "
                      f"-2/R^2 + 2c = {want:.17g} "
                      f"(tolerance {tol['eigenvalue'][middle]:.3e})")
    if not eigenfunction_min > 0.0:
        errors.append(f"principal eigenfunction is not positive "
                      f"(min {eigenfunction_min:.3e})")
    return errors
