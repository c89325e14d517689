"""Spatial-average statistics and ensemble studies of random media.

Window averages of phase functionals at shrinking scale factors quantify how
fast a single realization approaches its ensemble mean (the error of a good
mixing microstructure decays linearly in the scale factor).  The ensemble
driver repeats the full cell solve over independent seeds, and the isotropy
defect measures how far a bending form is from rotation invariance --
ensembles of isotropic media should lose their per-sample anisotropy as the
periodization box grows.
"""

import concurrent.futures

import numpy as np

from .cellsolve import EffectiveBendingForm, effective_form, qgamma_eval
from .errors import ConfigError, NumericalError, as_array, as_index, \
    as_real
from .material import SQRT2
from .microstructure import phase_grid, rasterize, sample_realization

_PROBES = (
    np.array([[1.0, 0.0], [0.0, 0.0]]),
    np.array([[0.0, 0.0], [0.0, 1.0]]),
    np.array([[0.0, 1.0], [1.0, 0.0]]) / SQRT2,
    np.eye(2),
)


class BirkhoffSeries:
    """Window averages of a phase functional along a shrinking-scale schedule."""

    def __init__(self, epsilons, averages, reference):
        self.epsilons = np.asarray(epsilons, dtype=float)
        self.averages = np.asarray(averages, dtype=float)
        self.reference = float(reference)
        self.errors = np.abs(self.averages - self.reference)


def _phase_values(f_table, phase_ids):
    """Normalize {phase: value} / sequence into a dense lookup array."""
    if isinstance(f_table, dict):
        table = {as_index(p, "f_table: phase id"):
                 as_real(v, "f_table[%r]" % (p,)) for p, v in f_table.items()}
        if sorted(table) != phase_ids:
            raise ConfigError("f_table has values for phases %s, not for the "
                              "model's phases %s" % (sorted(table), phase_ids))
        return np.array([table[p] for p in phase_ids])
    out = as_array(f_table, "f_table", (None,))
    if len(out) <= max(phase_ids):
        raise ConfigError("f_table must cover phases up to %d"
                          % max(phase_ids))
    return out


def _phase_probabilities(model):
    """Ensemble phase fractions implied by the microstructure model."""
    if model.kind == "poisson_voronoi":
        return np.asarray(model.mark_distribution, dtype=float)
    if model.phase_count == 1:
        return np.array([1.0])
    # both periodic textures tile the plane with equal-area phases
    return np.array([0.5, 0.5])


def birkhoff_average(realization, f_table, window, epsilons, step=None):
    """Midpoint-rule window averages of x -> f(phase(x / eps)).

    Each scale's midpoints form a tensor grid, whose phases come from one
    `phase_grid` query.

    Args:
        realization: MicrostructureRealization.
        f_table: per-phase values, dict or array.
        window: (x0, y0, x1, y1) averaging rectangle, finite numbers.
        epsilons: positive, strictly decreasing scale factors.
        step: quadrature spacing target, a positive finite number; default
            eps/8 per scale, and a spacing coarser than the scale factor
            itself is rejected since the integrand oscillates at scale eps.

    Returns:
        BirkhoffSeries with the model's ensemble mean as reference.
    """
    x0, y0, x1, y1 = as_array(window, "birkhoff_average: window",
                              (4,)).tolist()
    if not (x1 > x0 and y1 > y0):
        raise ConfigError("birkhoff_average: empty window %r" % (window,))
    if step is not None:
        step = as_real(step, "birkhoff_average: step", 0)
    eps = as_array(epsilons, "birkhoff_average: epsilons", (None,))
    if len(eps) == 0 or np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
        raise ConfigError("birkhoff_average: epsilons must be positive and "
                          "strictly decreasing")
    phase_ids = realization.model.phase_ids()
    values = _phase_values(f_table, phase_ids)
    probs = _phase_probabilities(realization.model)
    reference = float(np.sum(probs * values[:len(probs)]))

    averages = []
    for e in eps:
        h = e / 8.0 if step is None else step
        if h > e:
            raise ConfigError(
                "birkhoff_average: step %g does not resolve scale %g" % (h, e))
        mx = max(int(np.ceil((x1 - x0) / h)), 1)
        my = max(int(np.ceil((y1 - y0) / h)), 1)
        xs = x0 + (np.arange(mx) + 0.5) * (x1 - x0) / mx
        ys = y0 + (np.arange(my) + 0.5) * (y1 - y0) / my
        phases = phase_grid(realization, xs / e, ys / e)
        averages.append(float(values[phases].mean()))
    return BirkhoffSeries(eps, averages, reference)


def birkhoff_rate(series, fit_count=2):
    """Fit err <= C * eps on the coarsest scales and test the rest.

    Returns:
        (C, ok): the constant from the `fit_count` coarsest scales and
        whether every remaining error satisfies err <= C * eps (with a tiny
        absolute slack so exactly-resolved averages do not trip it).
    """
    fit_count = as_index(fit_count, "birkhoff_rate: fit_count")
    if not 1 <= fit_count < len(series.epsilons):
        raise ConfigError("birkhoff_rate: fit_count must lie in [1, %d), "
                          "below the scale count, got %d"
                          % (len(series.epsilons), fit_count))
    rates = series.errors / series.epsilons
    C = float(rates[:fit_count].max())
    ok = bool(np.all(series.errors[fit_count:]
                     <= C * series.epsilons[fit_count:] + 1e-12))
    return C, ok


def isotropy_defect(form, rotation_count=8):
    """Max relative change of q(G) under in-plane rotations of the probes.

    Probes the two axis stretches, pure shear, and the round stretch against
    `rotation_count` equi-spaced rotations in [0, pi).

    Args:
        form: EffectiveBendingForm or (3, 3) Voigt matrix.

    Returns:
        float: max over probes/angles of |q(R^T G R) - q(G)| / max(q(G), tiny).
    """
    # coarser sweeps than 8 rotations miss off-axis anisotropy
    rotation_count = as_index(rotation_count,
                              "isotropy_defect: rotation_count", low=8)
    if isinstance(form, EffectiveBendingForm):
        form = form.voigt3
    form = as_array(form, "isotropy_defect: form", (3, 3))
    worst = 0.0
    for G in _PROBES:
        base = qgamma_eval(form, G)
        for m in range(rotation_count):
            t = np.pi * m / rotation_count
            c, s = np.cos(t), np.sin(t)
            R = np.array([[c, -s], [s, c]])
            rotated = qgamma_eval(form, R.T @ G @ R)
            worst = max(worst, abs(rotated - base) / max(abs(base), 1e-12))
    return worst


class EnsembleResult:
    """Per-seed effective bending forms and their ensemble aggregates."""

    def __init__(self, seeds, forms):
        self.seeds = list(seeds)
        self.forms = list(forms)
        stack = np.stack([f.voigt3 for f in self.forms])
        self.mean_form = EffectiveBendingForm(stack.mean(axis=0))
        # spread about the first seed's form (variance is shift-invariant):
        # seeds with identical forms then give exactly zero, which spread
        # about a rounded mean does not
        shifted = stack - stack[0]
        self.voigt3_var = shifted.var(axis=0)
        self.voigt3_std = shifted.std(axis=0)


def ensemble_effective(model, materials, grid, seeds, tol=1e-8, threads=1):
    """Effective bending form for every seed, plus the ensemble mean.

    Seeds are solved independently (optionally on a thread pool); results are
    folded in the given seed order so the output is invariant to scheduling.

    Raises:
        ConfigError: fewer than two seeds, or one not an integer >= 0.
        NumericalError: a per-seed failure, annotated with the seed.
    """
    seeds = [as_index(s, "ensemble_effective: seeds[%d]" % k, low=0)
             for k, s in enumerate(seeds)]
    if len(seeds) < 2:
        raise ConfigError("ensemble_effective: need at least two seeds "
                          "(ensemble statistics are meaningless for one)")

    def one(seed):
        try:
            r = sample_realization(model, seed, grid.box_side)
            phases = rasterize(r, grid.n1, grid.n2)
            return effective_form(grid, phases, materials, tol=tol)
        except NumericalError as exc:
            annotated = type(exc)("seed %d: %s" % (seed, exc))
            annotated.__dict__.update(exc.__dict__)   # keeps residual_history
            raise annotated from exc

    if threads <= 1:
        forms = [one(s) for s in seeds]    # stops at the first failing seed
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as ex:
            futures = [ex.submit(one, s) for s in seeds]
            forms = [fut.result() for fut in futures]
    return EnsembleResult(seeds, forms)


class IsotropyReport:
    """Isotropy defect of an ensemble-mean form plus per-seed defects."""

    def __init__(self, form, defect, rotations_sampled, ensemble):
        self.form = form
        self.defect = defect
        self.rotations_sampled = rotations_sampled
        self.ensemble = ensemble          # per-seed defect list


def isotropy_report(ensemble, rotation_count=8):
    """IsotropyReport for an EnsembleResult (mean form + per-seed spread)."""
    return IsotropyReport(
        form=ensemble.mean_form,
        defect=isotropy_defect(ensemble.mean_form, rotation_count),
        rotations_sampled=int(rotation_count),
        ensemble=[isotropy_defect(f, rotation_count)
                  for f in ensemble.forms])
