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

_PROBES = np.array([[[1.0, 0.0], [0.0, 0.0]],
                    [[0.0, 0.0], [0.0, 1.0]],
                    [[0.0, 1.0 / SQRT2], [1.0 / SQRT2, 0.0]],
                    [[1.0, 0.0], [0.0, 1.0]]])


class BirkhoffSeries:
    """Window averages of a phase functional along a shrinking-scale schedule."""

    def __init__(self, epsilons, averages, reference):
        self.epsilons = np.asarray(epsilons, dtype=float)
        self.averages = np.asarray(averages, dtype=float)
        self.reference = float(reference)
        self.errors = np.abs(self.averages - self.reference)


def _phase_values(f_table, phase_ids):
    """Normalize {phase: value} / a sequence of one value per phase into a
    dense lookup array."""
    if isinstance(f_table, dict):
        table = {as_index(p, "f_table: phase id"):
                 as_real(v, "f_table[%r]" % (p,)) for p, v in f_table.items()}
        if sorted(table) != phase_ids:
            raise ConfigError("f_table has values for phases %s, not for the "
                              "model's phases %s" % (sorted(table), phase_ids))
        return np.array([table[p] for p in phase_ids])
    return as_array(f_table, "f_table", (len(phase_ids),))


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
    `phase_grid` query: on a Voronoi medium, float32 per-phase minima of the
    squared torus distance decide almost every midpoint, and the exact
    float64 per-point pass the rest, so the phases are exact.

    Args:
        realization: MicrostructureRealization.
        f_table: one value per phase, a dict by phase id or a sequence.
        window: (x0, y0, x1, y1) averaging rectangle, finite numbers.
        epsilons: positive, strictly decreasing scale factors.
        step: quadrature spacing target, a positive finite number; default
            eps/8 per scale.  A spacing coarser than the finest scale factor
            is refused before any scale is computed, since the integrand
            oscillates at scale eps.

    Returns:
        BirkhoffSeries with the model's ensemble mean as reference.
    """
    x0, y0, x1, y1 = as_array(window, "birkhoff_average: window",
                              (4,)).tolist()
    if not (x1 > x0 and y1 > y0):
        raise ConfigError("birkhoff_average: window %r is empty" % (window,))
    if step is not None:
        step = as_real(step, "birkhoff_average: step", 0)
    eps = as_array(epsilons, "birkhoff_average: epsilons", (None,))
    if len(eps) == 0 or np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
        raise ConfigError("birkhoff_average: epsilons must be positive and "
                          "strictly decreasing")
    if step is not None and step > eps[-1]:  # refused before any lookup
        raise ConfigError(
            "birkhoff_average: step %g does not resolve scale %g"
            % (step, eps[step > eps][0]))
    phase_ids = realization.model.phase_ids()
    values = _phase_values(f_table, phase_ids)
    probs = _phase_probabilities(realization.model)
    reference = float(np.sum(probs * values))

    averages = []
    for e in eps:
        h = e / 8.0 if step is None else step
        mx = max(int(np.ceil((x1 - x0) / h)), 1)
        my = max(int(np.ceil((y1 - y0) / h)), 1)
        xs = x0 + (np.arange(mx) + 0.5) * (x1 - x0) / mx
        ys = y0 + (np.arange(my) + 0.5) * (y1 - y0) / my
        phases = phase_grid(realization, xs / e, ys / e)
        averages.append(float(values[phases].mean()))
    return BirkhoffSeries(eps, averages, reference)


def birkhoff_rate(series):
    """Fit err <= C * eps on the two coarsest scales and test the rest.

    Returns:
        (C, ok): the constant from the two coarsest scales and whether every
        remaining error satisfies err <= C * eps (with a tiny absolute slack
        so exactly-resolved averages do not trip it).

    Raises:
        ConfigError: fewer than 3 scales, which leave none to test.
    """
    if len(series.epsilons) < 3:
        raise ConfigError("birkhoff_rate: needs at least 3 scales, got %d"
                          % len(series.epsilons))
    C = float((series.errors[:2] / series.epsilons[:2]).max())
    ok = bool(np.all(series.errors[2:] <= C * series.epsilons[2:] + 1e-12))
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
    t = np.pi * np.arange(rotation_count) / rotation_count
    c, s = np.cos(t), np.sin(t)
    R = np.stack([np.stack([c, -s], axis=-1), np.stack([s, c], axis=-1)],
                 axis=-2)                                 # (rotations, 2, 2)
    base = qgamma_eval(form, _PROBES)                     # (probes,)
    # every probe under every rotation, R^T G R, in one stack
    rotated = qgamma_eval(form, np.swapaxes(R, 1, 2) @ _PROBES[:, None] @ R)
    return float(np.max(np.abs(rotated - base[:, None])
                        / np.maximum(np.abs(base), 1e-12)[:, None]))


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
        self.voigt3_std = (stack - stack[0]).std(axis=0)


def ensemble_effective(model, materials, grid, seeds, tol=1e-8, threads=1):
    """Effective bending form for every seed, plus the ensemble mean.

    Seeds are solved independently (optionally on a thread pool); results are
    folded in the given seed order so the output is invariant to scheduling.

    Raises:
        ConfigError: fewer than two seeds, or one not an integer >= 0;
            threads not an integer >= 1.
        NumericalError: a per-seed failure, annotated with the seed.
    """
    seeds = [as_index(s, "ensemble_effective: seeds[%d]" % k, low=0)
             for k, s in enumerate(seeds)]
    threads = as_index(threads, "ensemble_effective: threads", low=1)
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

    if threads == 1:
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
