"""The three workloads: seeded inputs, one round of program calls, checks.

Each workload draws its physical parameters from the seed, inside
ranges where the CFL bound and the closed-form checks hold, and hands
the program only the generated inputs.  `run_round` makes the program
calls of one round and nothing else, so the caller can time it;
`check` compares the round's outputs with closed forms (see checks.py).
Program calls go through module attributes (`cli.main`, not a bound
copy), so the tracer's wrappers see them.  checks.py is imported inside
`check`, after set-up is timed, so its scipy.special import stays out
of setup_s.
"""

from __future__ import annotations

import math
import os
import traceback

import numpy as np

from sclab import charts, cli, hypersurface, models, spectral


def _attempt(fn, *args, **kwargs):
    """Result of one program operation, or None if it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception:
        traceback.print_exc()
        return None


def _cli_ok(argv, outdir) -> bool:
    os.environ["SCL_OUTPUT_DIR"] = outdir
    return _attempt(cli.main, argv) == 0


class FlowTorus:
    """`scl flow torus`: the coupled Ricci/heat flow and its monotone S.

    Conformal torus e^{2 a sin x1} delta with a in [0.10, 0.20] (the
    CFL bound at dt = 1e-3, res 64 needs a < 0.33) and a low-mode trig
    potential with coefficients in [-0.1, 0.1].
    """

    name = "flow-torus"
    operations = 1
    RES, DT, STEPS, EVERY = 64, 1e-3, 300, 100

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.amplitude = float(rng.uniform(0.10, 0.20))
        b1, b2, b3 = (float(x) for x in rng.uniform(-0.1, 0.1, 3))
        self.phi = (f"{b1!r}*sin(x1)*cos(x2)+{b2!r}*cos(2*x1)"
                    f"+{b3!r}*sin(2*x2)")
        self.argv = ["flow", "torus", f"res={self.RES}", f"dt={self.DT!r}",
                     f"steps={self.STEPS}", f"snapshot_every={self.EVERY}",
                     f"amplitude={self.amplitude!r}", f"phi={self.phi}"]

    def params(self) -> dict:
        return {"amplitude": self.amplitude, "phi": self.phi}

    def build(self) -> None:
        """The inputs are the command line itself."""

    def run_round(self, outdir):
        ok = _cli_ok(self.argv, outdir)
        return int(not ok), ok

    def check(self, outdir, ok) -> list:
        import checks
        if not ok:
            return []
        inf_s = checks.read_csv(os.path.join(outdir, "flow.csv"))["inf_S"]
        snapshots = []
        for step in range(self.EVERY, self.STEPS + 1, self.EVERY):
            path = os.path.join(outdir, f"state_{step:06d}.snap")
            area = checks.periodic_area(*checks.read_snapshot_metric(path))
            snapshots.append((step * self.DT, area))
        return checks.check_flow(inf_s, snapshots, self.amplitude,
                                 2.0 * math.pi / self.RES)


class SystoleAniso:
    """Two `scl systole anisotropic-torus res=128` jobs, connectivity
    16 and 8, on (1 + a sin x2) dx1^2 + dx2^2 with a in [0.25, 0.35].

    The search's cost barely moves over that range (it prunes against
    the straight loop of length 2 pi sqrt(1 - a)).
    """

    name = "systole-aniso"
    operations = 2
    RES = 128
    CONNECTIVITIES = (16, 8)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.amplitude = float(rng.uniform(0.25, 0.35))

    def params(self) -> dict:
        return {"amplitude": self.amplitude}

    def build(self) -> None:
        """The inputs are the command lines themselves."""

    def run_round(self, outdir):
        done = []
        for conn in self.CONNECTIVITIES:
            argv = ["systole", "anisotropic-torus", f"res={self.RES}",
                    f"connectivity={conn}", f"amplitude={self.amplitude!r}",
                    f"output=systole_c{conn}.csv"]
            if _cli_ok(argv, outdir):
                done.append(conn)
        return len(self.CONNECTIVITIES) - len(done), done

    def check(self, outdir, done) -> list:
        import checks
        errors = []
        for conn in done:
            path = os.path.join(outdir, f"systole_c{conn}.csv")
            row = checks.read_csv(path)
            found = checks.check_systole(
                float(row["sigma"][0]), int(row["cycle_nodes"][0]),
                self.RES, self.amplitude)
            errors += [f"connectivity {conn}: {e}" for e in found]
        return errors


class ShellLeaves:
    """Weighted CMC leaves r = R of flat 3-space in spherical coordinates.

    `spherical_shell` 41 x 80 x 41 (lat band [pi/8, 7 pi/8], radii
    [0.7, 1.3]) with phi = c r^2, c in [0.2, 0.4].  Five leaves, spaced
    0.07 around R = 1.0075, which is half a radial cell off the nodes,
    so the interpolation path is exercised.  Four operations: the
    foliation, its lapse check, its area variation, and the Jacobi
    eigenpair of the middle leaf with rho = e^phi.
    """

    name = "shell-leaves"
    operations = 4
    SHAPE = (41, 80, 41)
    REL_WIDTH = 0.3
    RADII = tuple(1.0075 + 0.07 * k for k in range(-2, 3))
    MIDDLE = 2

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.c = float(rng.uniform(0.2, 0.4))

    def params(self) -> dict:
        return {"c": self.c, "radii": list(self.RADII)}

    def build(self) -> None:
        c = self.c
        self.grid, self.metric = models.spherical_shell(
            *self.SHAPE, rel_width=self.REL_WIDTH)
        self.phi = charts.sample_field(self.grid,
                                       lambda t, p, r: c * r * r)
        self.rho = charts.ScalarField(self.grid, np.exp(self.phi.values))
        self.heights = [lambda t, p, radius=radius: np.full(t.shape, radius)
                        for radius in self.RADII]

    def run_round(self, outdir):
        out = {}
        fol = _attempt(hypersurface.make_graph_foliation, self.metric,
                       self.RADII, self.heights, graph_axis=2, phi=self.phi)
        if fol is not None:
            lapse = _attempt(spectral.lapse_residual, fol)
            if lapse is not None:
                out["mu"] = lapse.mu
            var = _attempt(hypersurface.weighted_area_variation, fol)
            if var is not None:
                out["area"] = var
            pair = _attempt(self._eigenpair, fol.slices[self.MIDDLE])
            if pair is not None:
                out["pair"] = (pair.eigenvalue,
                               float(pair.eigenfunction.values.min()))
        return self.operations - len(out) - (fol is not None), out

    def _eigenpair(self, leaf):
        return spectral.principal_eigenpair(
            spectral.assemble_jacobi(leaf, self.rho))

    def check(self, outdir, out) -> list:
        import checks
        if len(out) < 3:
            return []
        lat, _, rad = self.SHAPE
        h_lat = (math.pi - 2.0 * math.pi / 8.0) / (lat - 1)
        h_rad = 2.0 * self.REL_WIDTH / (rad - 1)
        var = out["area"]
        return checks.check_shell(self.RADII, self.c, h_lat, h_rad,
                                  out["mu"], var.area, var.area_rate,
                                  var.variation, *out["pair"], self.MIDDLE)


WORKLOADS = {w.name: w for w in (FlowTorus, SystoleAniso, ShellLeaves)}
