"""The four benchmark workloads: seeded inputs, one op each, and its check.

Every workload is a class with

    prepare(k) -> inputs of op k (untimed; a pure function of seed and k)
    run(inputs) -> result      (the timed op, calling platecell's public API)
    check(result)              (untimed; raises OpFailed on a wrong result)

Op inputs come from ``SeedSequence([seed, k])``, so a seed fixes every op of
a run.  The checks hold for any seed and use only numbers the benchmark
computes itself (the phase Lame constants), never the package's own checks.

Package functions are looked up on their modules at call time, so the hooks
that ``spans.py`` installs on those modules see the calls.
"""

import contextlib
import io
import json
import math
import os

import numpy as np

import platecell.cellsolve as cellsolve
import platecell.cli as cli
import platecell.ergodic as ergodic
import platecell.material as material
import platecell.microstructure as microstructure
import platecell.recovery as recovery


class OpFailed(Exception):
    """An op returned a result that fails its check."""


def _rng(seed, k):
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(k)]))


def _coercivity_band(lame):
    """Criterion 02's eigenvalue band for isotropic phases given as (mu, lam).

    An isotropic form on orthonormal Voigt 6-vectors has eigenvalues 2 mu
    (five times) and 2 mu + 3 lam, so c1 and c2 follow from the table alone.
    """
    c1 = min(2.0 * mu for mu, lam in lame)
    c2 = max(2.0 * mu + 3.0 * lam for mu, lam in lame)
    return (c1 / 12.0) * 0.95, (c2 / 12.0) * 1.05


def _check_form(voigt3, band, defect):
    v = np.asarray(voigt3, dtype=float)
    if v.shape != (3, 3) or not np.all(np.isfinite(v)):
        raise OpFailed("bending form is not a finite 3x3 matrix")
    if np.max(np.abs(v - v.T)) > 1e-12 * np.max(np.abs(v)):
        raise OpFailed("bending form is not symmetric")
    w = np.linalg.eigvalsh(v)
    if not (w[0] > 0 and band[0] <= w[0] and w[-1] <= band[1]):
        raise OpFailed("eigenvalues %s outside the coercivity band [%g, %g]"
                       % (w.tolist(), band[0], band[1]))
    if not (math.isfinite(defect) and defect >= 0):
        raise OpFailed("isotropy defect %r is not a finite nonnegative number"
                       % defect)


class _VoronoiCell:
    """Shared pieces of the two Poisson-Voronoi workloads (contrast 4)."""

    lame = ((1.0, 1.0), (4.0, 4.0))
    tol = 1e-8

    def __init__(self, seed, n, box_side):
        self.seed = seed
        self.model = microstructure.MicrostructureModel(
            "poisson_voronoi", intensity=1.0)
        self.materials = material.material_table(
            [(pid, mu, lam) for pid, (mu, lam) in enumerate(self.lame)])
        self.grid = cellsolve.RVEGrid(n, n, 2, 1.0, box_side)
        self.band = _coercivity_band(self.lame)

    def prepare(self, k):
        return int(_rng(self.seed, k).integers(0, 2 ** 31))

    def solve(self, voronoi_seed):
        r = microstructure.sample_realization(self.model, voronoi_seed,
                                              self.grid.box_side)
        phases = microstructure.rasterize(r, self.grid.n1, self.grid.n2)
        form = cellsolve.effective_form(self.grid, phases, self.materials,
                                        tol=self.tol)
        return r, form, ergodic.isotropy_defect(form)


class FineCell(_VoronoiCell):
    """One Voronoi medium on L = 5 at 20x20x2: the solver hot path."""

    def __init__(self, seed):
        super().__init__(seed, 20, 5.0)

    def run(self, voronoi_seed):
        _, form, defect = self.solve(voronoi_seed)
        return form.voigt3, defect

    def check(self, result):
        _check_form(result[0], self.band, result[1])


class Ensemble(_VoronoiCell):
    """One seed of the shipped Voronoi geometry plus its Birkhoff averages."""

    epsilons = (0.5, 0.25, 0.125, 0.0625, 0.03125)
    window_size = (1.13, 0.83)

    def __init__(self, seed):
        super().__init__(seed, 16, 4.0)

    def prepare(self, k):
        rng = _rng(self.seed, k)
        x0, y0 = rng.uniform(0.0, 2.0, size=2)
        window = (x0, y0, x0 + self.window_size[0], y0 + self.window_size[1])
        return int(rng.integers(0, 2 ** 31)), window

    def run(self, inputs):
        voronoi_seed, window = inputs
        r, form, defect = self.solve(voronoi_seed)
        series = ergodic.birkhoff_average(r, [0.0, 1.0], window,
                                          self.epsilons)
        ergodic.birkhoff_rate(series)
        return form.voigt3, defect, series.averages

    def check(self, result):
        _check_form(result[0], self.band, result[1])
        avg = np.asarray(result[2], dtype=float)
        if avg.shape != (len(self.epsilons),) or not np.all(np.isfinite(avg)) \
                or avg.min() < 0.0 or avg.max() > 1.0:
            raise OpFailed("Birkhoff averages %s not finite in [0, 1]"
                           % avg.tolist())


class Recovery:
    """Checkerboard contrast 5: recovery energy of a seeded cylinder."""

    h = 0.1

    def __init__(self, seed):
        self.seed = seed
        self.grid = cellsolve.RVEGrid(8, 8, 4, 2.0, 1.0)
        r = microstructure.sample_realization(
            microstructure.MicrostructureModel("checkerboard", period_hint=0.5),
            0, 1.0)
        self.phases = microstructure.rasterize(r, 8, 8)
        self.materials = material.material_table([(0, 1.0, 1.0),
                                                  (1, 5.0, 5.0)])

    def prepare(self, k):
        return float(_rng(self.seed, k).uniform(0.8, 1.25))

    def run(self, radius):
        source = recovery.CellCorrectorSource(self.grid, self.phases,
                                              self.materials, tol=1e-10)
        iso = recovery.cylinder_isometry(radius)
        family = recovery.build_recovery(
            iso, recovery.RecoveryConfig(gamma=self.grid.gamma), source)
        limit = recovery.limit_energy(source.effective(), iso)
        scaled = recovery.evaluate_scaled_energy(family.sampler(self.h))
        return scaled, limit

    def check(self, result):
        scaled, limit = result
        if not (math.isfinite(scaled) and math.isfinite(limit)
                and limit > 0 and scaled > limit):
            raise OpFailed("scaled energy %r is not above the limit %r"
                           % (scaled, limit))


class Fields:
    """``platecell decompose`` in-process on a seeded 48x48x4 slab config."""

    report_keys = ("pot_sol", "pot_mean", "sol_mean", "reconstruction")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.config = os.path.join(workdir, "decompose.json")
        self.out = os.path.join(workdir, "decompose_out.json")
        self._sink = io.StringIO()

    def prepare(self, k):
        cfg = {"grid": {"n1": 48, "n2": 48, "n3": 4, "gamma": 1.0, "L": 1.0},
               "seed": int(_rng(self.seed, k).integers(0, 2 ** 31))}
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        self._sink.seek(0)
        self._sink.truncate()
        return ["decompose", "--config", self.config, "--out", self.out,
                "--deterministic"]

    def run(self, argv):
        with contextlib.redirect_stdout(self._sink):
            code = cli.main(argv)
        with open(self.out, "r", encoding="utf-8") as fh:
            return code, json.load(fh)

    def check(self, result):
        code, payload = result
        if code != 0:
            raise OpFailed("decompose exited with %r" % code)
        report = payload["report"]
        bad = {k: report[k] for k in self.report_keys
               if not report[k] <= 1e-8}
        if bad or not payload["cg_residual"] <= 1e-10:
            raise OpFailed("decomposition off: %s, cg_residual %r"
                           % (bad, payload["cg_residual"]))


WORKLOADS = {
    "finecell": FineCell,
    "ensemble": Ensemble,
    "recovery": Recovery,
    "fields": Fields,
}


def make(name, seed, workdir):
    """The workload object for ``name``; ``workdir`` holds its scratch files."""
    if name == "fields":
        return Fields(seed, workdir)
    return WORKLOADS[name](seed)
