"""Window averages, isotropy defects, and seed-ensemble statistics."""

import numpy as np
import numpy.testing as npt
import pytest

from platecell import (
    ConfigError,
    ConvergenceError,
    MicrostructureModel,
    RVEGrid,
    birkhoff_average,
    birkhoff_rate,
    ensemble_effective,
    isotropy_defect,
    isotropy_report,
    material_table,
    phase_at,
    qgamma_eval,
    sample_realization,
    shift,
)
from platecell.microstructure import _tensor_points
from oracles import checkerboard_window_average, single_phase_bending_discrete

WINDOW = (0.37, 0.21, 1.50, 1.04)     # deliberately tile-incommensurate


def checkerboard_realization(seed=0):
    model = MicrostructureModel("checkerboard", period_hint=1.0)
    return sample_realization(model, seed, 2.0)


# ---------------------------------------------------------------------------
# Birkhoff window averages
# ---------------------------------------------------------------------------

def test_checkerboard_averages_match_exact_integrals():
    r = checkerboard_realization()
    eps = [0.5, 0.25, 0.125]
    series = birkhoff_average(r, [0.0, 1.0], WINDOW, eps, step=None)
    assert series.reference == 0.5
    for e, avg in zip(eps, series.averages):
        exact = checkerboard_window_average(
            tuple(v / e for v in WINDOW), tile=1.0)
        assert abs(avg - exact) <= 0.03, (e, avg, exact)


def test_checkerboard_rate_linear_in_scale():
    r = checkerboard_realization()
    eps = [1.0 / 2, 1.0 / 4, 1.0 / 8, 1.0 / 16, 1.0 / 32]
    series = birkhoff_average(r, [0.0, 1.0], WINDOW, eps)
    C, ok = birkhoff_rate(series)
    assert ok
    assert C < 1.0


def test_constant_table_is_exact():
    r = checkerboard_realization()
    series = birkhoff_average(r, [0.7, 0.7], WINDOW, [0.5, 0.25])
    npt.assert_allclose(series.averages, 0.7, atol=1e-14)
    assert abs(series.reference - 0.7) < 1e-14
    npt.assert_allclose(series.errors, 0.0, atol=1e-14)


def test_voronoi_mark_fraction_across_seeds():
    model = MicrostructureModel("poisson_voronoi", intensity=6.0,
                                mark_distribution=[0.3, 0.7])
    vals = []
    for seed in range(50):
        r = sample_realization(model, seed, 3.0)
        s = birkhoff_average(r, [0.0, 1.0], (0.0, 0.0, 3.0, 3.0), [1.0])
        assert s.reference == pytest.approx(0.7)
        vals.append(s.averages[0])
    vals = np.asarray(vals)
    sem = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 0.7) <= 3.0 * sem


def test_averages_match_phase_at_reference():
    """The averages are bitwise those of phase_at on the tensor points."""
    model = MicrostructureModel("poisson_voronoi", intensity=6.0,
                                phase_count=3)
    voronoi = shift(sample_realization(model, 2, 3.0), (0.9, -4.1))
    x0, y0, x1, y1 = WINDOW
    eps = [0.5, 0.25, 0.1]
    for r, values in ((checkerboard_realization(), [0.3, 1.7]),
                      (voronoi, [0.3, 1.7, -2.2])):
        want = []
        for e in eps:
            mx = int(np.ceil((x1 - x0) / (e / 8.0)))
            my = int(np.ceil((y1 - y0) / (e / 8.0)))
            xs = x0 + (np.arange(mx) + 0.5) * (x1 - x0) / mx
            ys = y0 + (np.arange(my) + 0.5) * (y1 - y0) / my
            phases = phase_at(r, _tensor_points(xs, ys) / e)
            want.append(float(np.asarray(values)[phases].mean()))
        assert birkhoff_average(r, values, WINDOW, eps).averages.tolist() \
            == want


def test_birkhoff_validation():
    r = checkerboard_realization()
    with pytest.raises(ConfigError):
        birkhoff_average(r, [0, 1], (1.0, 0.0, 0.5, 1.0), [0.5])   # empty
    with pytest.raises(ConfigError):
        birkhoff_average(r, [0, 1], WINDOW, [0.25, 0.5])           # increasing
    with pytest.raises(ConfigError):
        birkhoff_average(r, [0, 1], WINDOW, [0.5, -0.25])
    with pytest.raises(ConfigError):
        birkhoff_average(r, [0, 1], WINDOW, [0.5], step=0.8)       # h > eps
    with pytest.raises(ConfigError):
        birkhoff_average(r, {0: 1.0}, WINDOW, [0.5])               # missing 1
    with pytest.raises(ConfigError):
        birkhoff_average(r, [1.0], WINDOW, [0.5])                  # too short
    for window in (("0", 0, True, 1), (0.0, 0.0, np.inf, 1.0),
                   (0.0, 0.0, 1.0, True), (0.0, 0.0, 1.0, "1")):
        with pytest.raises(ConfigError, match="window"):
            birkhoff_average(r, [0, 1], window, [0.5])
    for step in ("0.01", True, np.nan, 0.0, -0.01):
        with pytest.raises(ConfigError, match="step"):
            birkhoff_average(r, [0, 1], WINDOW, [2.0], step=step)
    # two scales fit the rate and leave none to test it
    series = birkhoff_average(r, [0, 1], WINDOW, [0.5, 0.25])
    with pytest.raises(ConfigError, match="at least 3 scales, got 2"):
        birkhoff_rate(series)


def test_unresolved_step_is_refused_before_any_lookup(monkeypatch):
    # step 0.3 resolves 0.5 but not 0.25: no scale's grid is built
    calls = []
    monkeypatch.setattr("platecell.ergodic.phase_grid",
                        lambda *args: calls.append(args))
    with pytest.raises(ConfigError, match="^birkhoff_average: step 0.3 does "
                       "not resolve scale 0.25$"):
        birkhoff_average(checkerboard_realization(), [0, 1], WINDOW,
                         [0.5, 0.25], step=0.3)
    assert calls == []


# ---------------------------------------------------------------------------
# Isotropy defect
# ---------------------------------------------------------------------------

def test_single_phase_form_is_isotropic():
    from platecell import PhaseGrid, effective_form
    grid = RVEGrid(4, 4, 4, 1.0, 1.0)
    phases = PhaseGrid(4, 4, 1.0, np.zeros((4, 4), dtype=int))
    q = effective_form(grid, phases, material_table([(0, 1.0, 1.0)]),
                       tol=1e-10)
    assert isotropy_defect(q) <= 1e-6


def test_laminate_form_is_strongly_anisotropic():
    laminate = np.array([[0.41268, 0.10381, 0.0],
                         [0.10381, 1.17329, 0.0],
                         [0.0, 0.0, 0.40950]])
    assert isotropy_defect(laminate) > 0.5


def test_isotropy_defect_validation():
    with pytest.raises(ConfigError):
        isotropy_defect(np.eye(3), rotation_count=4)
    with pytest.raises(ConfigError):
        isotropy_defect(np.eye(4))
    assert isotropy_defect(np.eye(3)) >= 0.0


@pytest.mark.parametrize("bad", [8.5, 9.0, True, "8", 7, -8])
def test_isotropy_defect_reads_rotation_count_strictly(bad):
    with pytest.raises(ConfigError, match="rotation_count"):
        isotropy_defect(np.eye(3), rotation_count=bad)
    assert isotropy_defect(np.eye(3), rotation_count=np.int64(9)) >= 0.0


def test_scaled_identity_form_has_zero_defect():
    # q = a*|G|^2 in Voigt coordinates is exactly rotation invariant
    assert isotropy_defect(0.37 * np.eye(3), rotation_count=16) <= 1e-12


def looped_isotropy_defect(form, rotation_count):
    """The defect one probe and one rotation at a time, each through
    qgamma_eval on a single matrix."""
    probes = (np.array([[1.0, 0.0], [0.0, 0.0]]),
              np.array([[0.0, 0.0], [0.0, 1.0]]),
              np.array([[0.0, 1.0], [1.0, 0.0]]) / np.sqrt(2.0),
              np.eye(2))
    worst = 0.0
    for G in probes:
        base = qgamma_eval(form, G)
        for m in range(rotation_count):
            t = np.pi * m / rotation_count
            c, s = np.cos(t), np.sin(t)
            R = np.array([[c, -s], [s, c]])
            rotated = qgamma_eval(form, R.T @ G @ R)
            worst = max(worst, abs(rotated - base) / max(abs(base), 1e-12))
    return worst


def test_stacked_isotropy_defect_matches_the_loop():
    # the probes under every rotation are evaluated as one stack; the
    # defect is the looped one up to the roundings of the products
    rng = np.random.default_rng(11)
    for k in range(30):
        A = rng.standard_normal((3, 3))
        form = A @ A.T + 0.1 * np.eye(3)
        for rotations in (8, 13):
            want = looped_isotropy_defect(form, rotations)
            npt.assert_allclose(isotropy_defect(form, rotations), want,
                                rtol=1e-13, atol=1e-16)


# ---------------------------------------------------------------------------
# Seed ensembles
# ---------------------------------------------------------------------------

def test_periodic_model_has_zero_variance():
    model = MicrostructureModel("checkerboard", period_hint=0.5)
    mats = material_table([(0, 1.0, 1.0), (1, 5.0, 5.0)])
    grid = RVEGrid(4, 4, 2, 1.0, 1.0)
    ens = ensemble_effective(model, mats, grid, [0, 1, 2], tol=1e-9)
    assert np.max(ens.voigt3_std) == 0.0
    assert len(ens.forms) == 3


def test_contrast_one_voronoi_gives_single_phase_form():
    model = MicrostructureModel("poisson_voronoi", intensity=8.0)
    mats = material_table([(0, 1.0, 1.0), (1, 1.0, 1.0)])
    grid = RVEGrid(6, 6, 4, 1.0, 2.0)
    ens = ensemble_effective(model, mats, grid, [0, 1], tol=1e-10)
    assert np.max(ens.voigt3_std) <= 1e-8
    npt.assert_allclose(ens.mean_form.voigt3,
                        single_phase_bending_discrete(1.0, 1.0, 4), atol=1e-7)


def test_variance_shrinks_with_box_size():
    model = MicrostructureModel("poisson_voronoi", intensity=2.0,
                                mark_distribution=[0.5, 0.5])
    mats = material_table([(0, 1.0, 1.0), (1, 10.0, 10.0)])
    seeds = list(range(6))
    var = {}
    for L, n in [(4.0, 12), (8.0, 24)]:
        grid = RVEGrid(n, n, 2, 1.0, L)
        ens = ensemble_effective(model, mats, grid, seeds, tol=1e-6)
        var[L] = float(np.linalg.norm(ens.voigt3_std ** 2))
    assert var[8.0] < var[4.0]


@pytest.mark.parametrize("threads", [1, 2])
def test_ensemble_errors_are_seed_annotated(threads):
    model = MicrostructureModel("poisson_voronoi", intensity=8.0,
                                mark_distribution=[0.5, 0.5])
    mats = material_table([(0, 1.0, 1.0), (1, 10.0, 10.0)])
    grid = RVEGrid(4, 4, 2, 1.0, 2.0)
    with pytest.raises(ConvergenceError, match="^seed 0:") as info:
        ensemble_effective(model, mats, grid, [0, 1], tol=1e-30,
                           threads=threads)
    assert info.value.residual_history == info.value.__cause__.residual_history
    assert len(info.value.residual_history) > 1


def test_ensemble_needs_two_seeds():
    model = MicrostructureModel("checkerboard", period_hint=0.5)
    grid = RVEGrid(4, 4, 2, 1.0, 1.0)
    mats = material_table([(0, 1.0, 1.0), (1, 5.0, 5.0)])
    with pytest.raises(ConfigError):
        ensemble_effective(model, mats, grid, [0], tol=1e-8)
    with pytest.raises(ConfigError):
        ensemble_effective(model, mats, grid, [], tol=1e-8)


@pytest.mark.parametrize("bad", [0.7, True, -1])
def test_ensemble_reads_seeds_strictly(bad, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a seed was solved before the seeds were read")

    monkeypatch.setattr("platecell.ergodic.effective_form", fail)
    model = MicrostructureModel("checkerboard", period_hint=0.5)
    grid = RVEGrid(4, 4, 2, 1.0, 1.0)
    mats = material_table([(0, 1.0, 1.0), (1, 5.0, 5.0)])
    with pytest.raises(ConfigError, match=r"ensemble_effective: seeds\[1\]"):
        ensemble_effective(model, mats, grid, [0, bad], tol=1e-8)


def test_threaded_ensemble_matches_serial():
    model = MicrostructureModel("poisson_voronoi", intensity=4.0,
                                mark_distribution=[0.4, 0.6])
    mats = material_table([(0, 1.0, 1.0), (1, 5.0, 2.0)])
    grid = RVEGrid(6, 6, 2, 1.0, 2.0)
    a = ensemble_effective(model, mats, grid, [0, 1, 2, 3], tol=1e-8)
    b = ensemble_effective(model, mats, grid, [0, 1, 2, 3], tol=1e-8,
                           threads=4)
    npt.assert_array_equal(a.mean_form.voigt3, b.mean_form.voigt3)
    for fa, fb in zip(a.forms, b.forms):
        npt.assert_array_equal(fa.voigt3, fb.voigt3)


def test_isotropy_report_structure():
    model = MicrostructureModel("poisson_voronoi", intensity=4.0)
    mats = material_table([(0, 1.0, 1.0), (1, 3.0, 3.0)])
    grid = RVEGrid(6, 6, 2, 1.0, 2.0)
    ens = ensemble_effective(model, mats, grid, [0, 1, 2], tol=1e-7)
    rep = isotropy_report(ens, rotation_count=8)
    assert rep.rotations_sampled == 8
    assert len(rep.ensemble) == 3
    assert rep.defect >= 0.0
    assert all(d >= 0.0 for d in rep.ensemble)
