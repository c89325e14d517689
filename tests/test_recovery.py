"""Recovery family: the isometry's constant connection, the corrector, the
gradient in the moving frame, scaled vs limit energy.

The package evaluates R^T grad v, never the frame R itself; the per-point
frames of `oracles.frames` are the reference that the finite-difference and
8-corner checks rotate back with.
"""

import gc
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from platecell import (
    CellCorrectorSource,
    CellLoad,
    ConfigError,
    MicrostructureModel,
    NumericalError,
    PhaseGrid,
    RVEGrid,
    RecoveryConfig,
    build_recovery,
    cylinder_isometry,
    evaluate_scaled_energy,
    flat_isometry,
    limit_energy,
    material_table,
    qgamma_eval,
    rasterize,
    recovery_gaps,
    sample_realization,
    solve_corrector,
)
from platecell import cellsolve, cli, recovery
from platecell._mesh import locate
from platecell.errors import as_real
from platecell.material import svk_energy
from oracles import deformation, frame_fields, second_form, \
    single_phase_bending_discrete

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"

ONE_PHASE = material_table([(0, 1.0, 1.0)])
TWO_PHASE = material_table([(0, 1.0, 1.0), (1, 3.0, 2.0)])
CONTRAST5 = material_table([(0, 1.0, 1.0), (1, 5.0, 5.0)])


def uniform_phases(n1, n2, box_side=1.0, phase=0):
    return PhaseGrid(n1, n2, box_side, np.full((n1, n2), phase, dtype=int))


def checker_phases(n1, n2, box_side=1.0):
    ids = (np.add.outer(np.arange(n1), np.arange(n2)) % 2).astype(int)
    return PhaseGrid(n1, n2, box_side, ids)


def contrast5_source(n, tol=1e-10, n3=4):
    """Checkerboard of two n/2-element blocks a side, phase contrast 5."""
    ids = ((np.arange(n)[:, None] // (n // 2) + np.arange(n) // (n // 2))
           % 2).astype(int)
    return CellCorrectorSource(RVEGrid(n, n, n3, 2.0, 1.0),
                               PhaseGrid(n, n, 1.0, ids), CONTRAST5, tol=tol)


def checker_source(tol=1e-11):
    grid = RVEGrid(4, 4, 4, 1.0, 1.0)
    return CellCorrectorSource(grid, checker_phases(4, 4), TWO_PHASE, tol=tol)


def kirchhoff_love(iso, h, xp, x3):
    """Bent-plate positions and scaled gradient without any corrector."""
    f = frame_fields(iso, xp)
    v = f["y"] + h * x3 * f["n"]
    F = np.empty((len(xp), 3, 3))
    F[:, :, 0] = f["d1y"] + h * x3 * f["d1n"]
    F[:, :, 1] = f["d2y"] + h * x3 * f["d2n"]
    F[:, :, 2] = f["n"]
    return v, F


def in_frame(iso, xp, F):
    """Lab-frame gradients F (M, 3, 3) at points xp, seen in the moving
    frame: R^T F."""
    return np.einsum("mji,mjk->mik", frame_fields(iso, xp)["R"], F)


# ---------------------------------------------------------------------------
# Isometry geometry
# ---------------------------------------------------------------------------

def test_isometry_validation():
    with pytest.raises(ConfigError):
        cylinder_isometry(1.0).__class__("sphere", (0, 0, 1, 1))
    with pytest.raises(ConfigError):
        flat_isometry((0.0, 0.0, 0.0, 1.0))    # empty in x1
    with pytest.raises(ConfigError):
        cylinder_isometry(0.0)
    with pytest.raises(ConfigError):
        cylinder_isometry(-2.0)


@pytest.mark.parametrize("iso", [
    flat_isometry((0.0, 0.0, 3.0, 2.0)),
    cylinder_isometry(0.7, (0.0, 0.0, 3.0, 2.0)),
], ids=["flat", "cylinder"])
def test_orthonormal_frame(iso):
    rng = np.random.default_rng(3)
    xp = rng.uniform([0, 0], [3, 2], size=(200, 2))
    f = frame_fields(iso, xp)
    gram = np.einsum("mi,mi->m", f["d1y"], f["d1y"])
    npt.assert_allclose(gram, 1.0, atol=1e-12)
    gram = np.einsum("mi,mi->m", f["d2y"], f["d2y"])
    npt.assert_allclose(gram, 1.0, atol=1e-12)
    cross = np.einsum("mi,mi->m", f["d1y"], f["d2y"])
    npt.assert_allclose(cross, 0.0, atol=1e-12)
    npt.assert_allclose(np.linalg.norm(f["n"], axis=1), 1.0, atol=1e-12)
    npt.assert_allclose(f["n"], np.cross(f["d1y"], f["d2y"]), atol=1e-12)


def test_flat_second_form_vanishes():
    iso = flat_isometry((0.0, 0.0, 2.0, 2.0))
    xp = np.random.default_rng(1).uniform(0, 2, size=(50, 2))
    npt.assert_array_equal(iso.connection, 0.0)
    npt.assert_array_equal(iso.second_form, 0.0)
    npt.assert_array_equal(second_form(iso, xp), 0.0)
    f = frame_fields(iso, xp)
    npt.assert_array_equal(f["y"][:, :2], xp)
    npt.assert_array_equal(f["y"][:, 2], 0.0)


@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_cylinder_second_form(radius):
    iso = cylinder_isometry(radius, (0.0, 0.0, 4.0, 1.0))
    npt.assert_array_equal(iso.second_form, np.diag([-1.0 / radius, 0.0]))
    # the immersion's d_a d_b y . n, the same matrix at every point
    xp = np.random.default_rng(5).uniform([0, 0], [4, 1], size=(60, 2))
    npt.assert_allclose(second_form(iso, xp),
                        np.broadcast_to(iso.second_form, (60, 2, 2)),
                        rtol=0, atol=1e-13)


def test_weingarten_consistency():
    # normal derivatives and curvature form agree: d_a n = -II_ab d_b y
    iso = cylinder_isometry(1.3, (0.0, 0.0, 5.0, 1.0))
    xp = np.random.default_rng(9).uniform([0, 0], [5, 1], size=(40, 2))
    f = frame_fields(iso, xp)
    dn = np.stack([f["d1n"], f["d2n"]], axis=1)       # (m, a, 3)
    dy = np.stack([f["d1y"], f["d2y"]], axis=1)
    npt.assert_allclose(dn, -np.einsum("ab,mbc->mac", iso.second_form, dy),
                        atol=1e-13)


@pytest.mark.parametrize("iso", [
    flat_isometry((0.0, 0.0, 3.0, 2.0)),
    cylinder_isometry(0.7, (0.0, 0.0, 3.0, 2.0)),
    cylinder_isometry(2.0, (-1.0, 0.5, 3.0, 2.0)),
], ids=["flat", "cylinder", "cylinder_wide"])
def test_connection_is_the_frames_derivative(iso):
    # A_a = R^T d_a R, by a centered difference of the reference frames at
    # points all over the domain: the same skew matrix everywhere
    A = iso.connection
    assert A.shape == (2, 3, 3)
    npt.assert_array_equal(A, -A.transpose(0, 2, 1))
    x0, y0, x1, y1 = iso.domain
    xp = np.random.default_rng(4).uniform([x0, y0], [x1, y1], size=(80, 2))
    s = 1e-4
    for a in range(2):
        e = np.zeros(2)
        e[a] = s
        dR = (frame_fields(iso, xp + e)["R"]
              - frame_fields(iso, xp - e)["R"]) / (2.0 * s)
        npt.assert_allclose(in_frame(iso, xp, dR),
                            np.broadcast_to(A[a], (80, 3, 3)),
                            rtol=0, atol=1e-8)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_recovery_config_validation():
    with pytest.raises(ConfigError):
        RecoveryConfig(gamma=0.0)
    with pytest.raises(ConfigError):
        RecoveryConfig(h_schedule=[0.1, 0.1])
    with pytest.raises(ConfigError):
        RecoveryConfig(h_schedule=[0.1, -0.05])
    inf, nan = float("inf"), float("nan")
    for field, bad in (("gamma", {"gamma": inf}), ("gamma", {"gamma": "2"}),
                       ("gamma", {"gamma": True}),
                       ("h_schedule", {"h_schedule": [inf, 1.0]}),
                       ("h_schedule", {"h_schedule": [0.2, "0.1"]}),
                       ("h_schedule", {"h_schedule": [True, 0.5]})):
        with pytest.raises(ConfigError, match=field):
            RecoveryConfig(**bad)
    for radius in (inf, True, "1.0"):
        with pytest.raises(ConfigError, match="radius"):
            cylinder_isometry(radius)
    for domain in ((0.0, 0.0, inf, 1.0), ("0", 0.0, 1.0, 1.0),
                   (0.0, False, 1.0, 1.0)):
        with pytest.raises(ConfigError, match="domain"):
            cylinder_isometry(1.0, domain)


BAD_TOLERANCES = [2.0, 1.0, 0.0, -1.0, "0.1", True, float("nan")]


@pytest.mark.parametrize("bad", BAD_TOLERANCES)
def test_recovery_config_reads_corrector_tol_strictly(bad):
    # the config key recovery.corrector_tol, which the CLI hands to the
    # corrector source: no string, bool or out-of-range tolerance is coerced
    # into a solve
    with pytest.raises(ConfigError, match="recovery.corrector_tol"):
        cli._read({"corrector_tol": bad}, "recovery.corrector_tol")


@pytest.mark.parametrize("bad", BAD_TOLERANCES)
def test_corrector_source_reads_tol_strictly(bad):
    with pytest.raises(ConfigError, match="CellCorrectorSource: tol"):
        CellCorrectorSource(RVEGrid(4, 4, 4, 1.0, 1.0), checker_phases(4, 4),
                            TWO_PHASE, tol=bad)


def test_tolerances_read_numpy_numbers_as_floats():
    tol = as_real(np.float32(0.5), "tol", 0, 1)
    assert type(tol) is float and tol == 0.5
    src = CellCorrectorSource(RVEGrid(4, 4, 4, 1.0, 1.0),
                              checker_phases(4, 4), TWO_PHASE,
                              tol=np.float64(1e-9))
    assert type(src.tol) is float and src.tol == 1e-9


def test_family_takes_gamma_from_the_cell_grid():
    # the corrector is solved at its grid's gamma; a config stating another
    # is refused, naming the field, and one stating none takes the grid's
    src = contrast5_source(4)                  # gamma 2
    iso = cylinder_isometry(1.0)
    with pytest.raises(ConfigError, match="RecoveryConfig: gamma 3.0"):
        build_recovery(iso, RecoveryConfig(gamma=3.0), src)
    stated = build_recovery(iso, RecoveryConfig(gamma=2), src).sampler(0.1)
    implied = build_recovery(iso, RecoveryConfig(), src).sampler(0.1)
    assert stated.eps == implied.eps == 0.1 / 2.0
    assert evaluate_scaled_energy(stated) == evaluate_scaled_energy(implied)


def test_sampler_needs_positive_thickness():
    fam = build_recovery(flat_isometry(), RecoveryConfig(), checker_source())
    with pytest.raises(ConfigError):
        fam.sampler(0.0)
    with pytest.raises(ConfigError):
        fam.sampler(-0.1)


def test_sampler_reads_thickness_strictly():
    fam = build_recovery(flat_isometry(), RecoveryConfig(), checker_source())
    for bad in (float("inf"), float("nan"), True, "0.3", None):
        with pytest.raises(ConfigError, match="h must be a finite number"):
            fam.sampler(bad)
    assert fam.sampler(np.float64(0.3)).h == 0.3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_energy_raises():
    # at h = 1e300 the gradients overflow: no inf or nan energy is returned
    fam = build_recovery(cylinder_isometry(1.0), RecoveryConfig(),
                         checker_source())
    with pytest.raises(NumericalError, match="energy at h = 1e\\+300"):
        evaluate_scaled_energy(fam.sampler(1e300))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), "0.1", True,
                                 None, 0.7, 5.0, -0.5000001])
def test_sampler_reads_height_strictly(bad):
    # a height outside the plate's thickness is refused, not clipped onto the
    # top or bottom corrector layer while the fiber term extrapolates
    sampler = build_recovery(cylinder_isometry(1.0), RecoveryConfig(),
                             checker_source()).sampler(0.2)
    xp = np.array([[0.3, 0.4]])
    with pytest.raises(ConfigError, match="DeformationSampler: x3"):
        sampler.scaled_gradient(xp, bad)
    for x3 in (-0.5, np.float64(0.25), 0.5):
        assert np.isfinite(sampler.scaled_gradient(xp, x3)).all()


# ---------------------------------------------------------------------------
# Corrector source
# ---------------------------------------------------------------------------

def test_source_zero_load_and_caching():
    src = checker_source()
    g0 = src.corrector(np.zeros((2, 2)))
    assert g0.shape == (4, 4, 5, 3)
    npt.assert_array_equal(g0, 0.0)
    assert src.effective() is src.effective()


def test_source_corrector_is_the_direct_solve():
    # the linear combination of the unit-load correctors is the corrector
    # the load itself would get
    src = checker_source()
    G = np.array([[1.0, 0.2], [0.2, -0.5]])
    direct = solve_corrector(src.grid, src.phases, src.materials,
                             CellLoad(G=G), tol=1e-10).values
    got = src.corrector(G)
    assert got.shape == direct.shape
    assert np.max(np.abs(got - direct)) <= 1e-8 * np.max(np.abs(direct))
    with pytest.raises(ConfigError):        # as CellLoad refuses it
        src.corrector(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_source_runs_one_three_column_solve(monkeypatch):
    columns = []

    def counting(matvec, precondition, project, rhs, *args, **kwargs):
        columns.append(rhs.shape[1])
        return block_pcg(matvec, precondition, project, rhs, *args, **kwargs)

    block_pcg = cellsolve.block_pcg
    monkeypatch.setattr(cellsolve, "block_pcg", counting)
    src = checker_source()
    build_recovery(cylinder_isometry(1.0), RecoveryConfig(),
                   src)
    src.effective()
    assert columns == [3]


def test_source_form_does_not_depend_on_call_order():
    G = np.array([[1.0, 0.2], [0.2, -0.5]])
    first = checker_source().effective().voigt3
    src = checker_source()
    src.corrector(G)
    npt.assert_array_equal(src.effective().voigt3, first)


# ---------------------------------------------------------------------------
# The corrector load
# ---------------------------------------------------------------------------

def test_constant_curvature_shares_one_corrector():
    # the load is minus the second form, the same at every point: one
    # corrector serves the whole midplane
    fam = build_recovery(cylinder_isometry(1.0), RecoveryConfig(),
                         checker_source())
    npt.assert_array_equal(fam.load, np.diag([1.0, 0.0]))
    xp = np.random.default_rng(6).uniform(0, 1, size=(50, 2))
    npt.assert_allclose(-second_form(fam.iso, xp),
                        np.broadcast_to(fam.load, (50, 2, 2)),
                        rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# Sampler evaluation
# ---------------------------------------------------------------------------

def test_flat_family_is_identity():
    # zero curvature -> zero load -> zero corrector: v = (x', h x3)
    fam = build_recovery(flat_isometry(), RecoveryConfig(), checker_source())
    sampler = fam.sampler(0.3)
    xp = np.random.default_rng(11).uniform(0, 1, size=(30, 2))
    for x3 in (-0.4, 0.0, 0.25):
        v = deformation(sampler, xp, x3)
        npt.assert_array_equal(v[:, :2], xp)
        npt.assert_array_equal(v[:, 2], 0.3 * x3)
        F = sampler.scaled_gradient(xp, x3)
        npt.assert_array_equal(F, np.broadcast_to(np.eye(3), (30, 3, 3)))


# a load other than minus II, so that the flat family has a corrector too
GENERAL_LOAD = np.array([[1.0, 0.3], [0.3, -0.5]])


def _eight_corner_reference(sampler, xp, x3):
    """Positions and lab-frame scaled gradients by the 8-corner formula.

    The points are interpolated trilinearly from the eight cell corners
    around them at height x3, then rotated by the per-point frames; this is
    the evaluation the node-layer plan in the moving frame replaces, kept
    here as its reference.
    """
    fam, h, eps = sampler.family, sampler.h, sampler.eps
    grid = fam.source.grid
    hx, hy, n3 = grid.box_side / grid.n1, grid.box_side / grid.n2, grid.n3
    f = frame_fields(fam.iso, xp)
    v = f["y"] + h * x3 * f["n"]
    _, F = kirchhoff_love(fam.iso, h, xp, x3)
    s3 = np.clip((x3 + 0.5) * n3, 0.0, float(n3))
    k0 = min(int(s3), n3 - 1)
    wz = (1.0 - (s3 - k0), s3 - k0)
    values = fam.source.corrector(fam.load)
    yw = np.mod(xp / eps, grid.box_side)
    sx, sy = yw[:, 0] / hx, yw[:, 1] / hy
    i0 = np.floor(sx).astype(np.int64) % grid.n1
    j0 = np.floor(sy).astype(np.int64) % grid.n2
    ii = (i0, (i0 + 1) % grid.n1)
    jj = (j0, (j0 + 1) % grid.n2)
    wx = (1.0 - (sx - np.floor(sx)), sx - np.floor(sx))
    wy = (1.0 - (sy - np.floor(sy)), sy - np.floor(sy))
    g = np.zeros((len(xp), 3))
    dg = np.zeros((len(xp), 3, 3))
    for a, b, c in np.ndindex(2, 2, 2):
        corner = values[ii[a], jj[b], k0 + c]
        sa, sb, sc = (-1.0, 1.0)[a], (-1.0, 1.0)[b], (-1.0, 1.0)[c]
        g += (wx[a] * wy[b] * wz[c])[:, None] * corner
        dg[:, :, 0] += (sa / hx * wy[b] * wz[c])[:, None] * corner
        dg[:, :, 1] += (wx[a] * sb / hy * wz[c])[:, None] * corner
        dg[:, :, 2] += (wx[a] * wy[b] * sc * n3)[:, None] * corner
    R = np.stack([f["d1y"], f["d2y"], f["n"]], axis=2)
    Rg = np.einsum("mij,mj->mi", R, g)
    Rdg = np.einsum("mij,mjc->mic", R, dg)
    v += h * eps * Rg
    for a in (0, 1):
        dR = np.stack([f["ddy"][:, a, 0], f["ddy"][:, a, 1],
                       f["d%dn" % (a + 1)]], axis=2)
        F[:, :, a] += h * Rdg[:, :, a] \
            + h * eps * np.einsum("mij,mj->mi", dR, g)
    F[:, :, 2] += eps * Rdg[:, :, 2]
    return v, F


def _quadrature_like_points(fam, count=400):
    """Random points, element and period edges, and the domain's corners."""
    x0, y0, x1, y1 = fam.iso.domain
    pts = np.random.default_rng(21).uniform([x0, y0], [x1, y1],
                                            size=(count, 2))
    edges = [(0.5, 0.3), (0.0125, 0.6), (0.25, 0.05), (x0, y0), (x1, 0.4),
             (0.7, y1), (x1, y1)]
    return np.vstack([pts, edges])


@pytest.mark.parametrize("case", ["flat", "cylinder", "cylinder_distinct",
                                  "flat_distinct"])
def test_node_layer_plan_matches_per_patch_formula(case):
    # the reference is the 8-corner formula, on the family's one corrector
    # over the whole midplane; the distinct cases swap in a load of their own
    iso = cylinder_isometry(1.0) if case.startswith("cylinder") \
        else flat_isometry()
    fam = build_recovery(iso, RecoveryConfig(gamma=2.0), contrast5_source(4))
    if case.endswith("distinct"):
        fam.load = GENERAL_LOAD
    xp = _quadrature_like_points(fam)
    for h in (0.3, 0.1):
        sampler = fam.sampler(h)
        plan = sampler.plan(xp)
        for x3 in (-0.5, -0.31, -0.25, 0.0, 0.06, 0.37, 0.5):
            v_ref, F_ref = _eight_corner_reference(sampler, xp, x3)
            F_ref = in_frame(iso, xp, F_ref)
            F = sampler.scaled_gradient(xp, x3, plan=plan)
            v = deformation(sampler, xp, x3)
            npt.assert_allclose(F, F_ref, rtol=0,
                                atol=1e-13 * np.max(np.abs(F_ref)))
            npt.assert_allclose(v, v_ref, rtol=0,
                                atol=1e-13 * np.max(np.abs(v_ref)))
            if case == "flat":
                npt.assert_array_equal(F, F_ref)
                npt.assert_array_equal(v, v_ref)


def test_rows_do_not_depend_on_the_other_points():
    # a point's rows are the same bits whatever other points share the call
    fam = build_recovery(cylinder_isometry(1.0), RecoveryConfig(gamma=2.0),
                         contrast5_source(4))
    fam.load = GENERAL_LOAD
    sampler = fam.sampler(0.1)
    xp = _quadrature_like_points(fam)
    rng = np.random.default_rng(2)
    subsets = [np.arange(1), np.arange(len(xp) - 1, len(xp)),
               np.arange(0, len(xp), 3), rng.permutation(len(xp))[:57]]
    for x3 in (-0.4, 0.06, 0.5):
        F = sampler.scaled_gradient(xp, x3)
        v = deformation(sampler, xp, x3)
        for sub in subsets:
            npt.assert_array_equal(sampler.scaled_gradient(xp[sub], x3),
                                   F[sub])
            npt.assert_array_equal(deformation(sampler, xp[sub], x3), v[sub])


def _pieces(a, b, size):
    """[a, b] cut at the multiples of `size`: the pieces' (lo, hi) ends."""
    cuts = np.arange(np.ceil(a / size), np.floor(b / size) + 1) * size
    edges = np.concatenate([[a], cuts[(cuts > a) & (cuts < b)], [b]])
    return edges[:-1], edges[1:]


def _per_point_energy(sampler):
    """The aligned rule over the whole domain, point by point.

    Every element piece of the domain gets its own 2x2 Gauss points, in its
    own place, the 8-corner formula and a per-point phase lookup: nothing is
    folded into one period or counted by multiplicity.
    """
    fam, eps = sampler.family, sampler.eps
    grid = fam.source.grid
    x0, y0, x1, y1 = fam.iso.domain
    gauss = np.asarray(recovery.GAUSS)
    axes = []
    for a, b, n in ((x0, x1, grid.n1), (y0, y1, grid.n2)):
        lo, hi = _pieces(a, b, eps * grid.box_side / n)
        axes.append(((lo[:, None] + (hi - lo)[:, None] * gauss).ravel(),
                     np.repeat((hi - lo) / 2.0, 2)))
    (xs, wx), (ys, wy) = axes
    xp = np.array([(x, y) for x in xs for y in ys])
    w = np.outer(wx, wy).ravel()
    (i, j), _, _ = locate(xp / eps, grid)
    phases = fam.source.phases.cell_phase[i, j]
    n3 = grid.n3
    total = 0.0
    for k in range(n3):
        for gq in recovery.GAUSS:
            _, F = _eight_corner_reference(sampler, xp, -0.5 + (k + gq) / n3)
            for p in np.unique(phases):
                mine = phases == p
                total += np.sum(w[mine] * svk_energy(fam.source.materials[p],
                                                     F[mine]))
    return total / (2.0 * n3) / sampler.h ** 2


def _family(kind, n3, domain, load=None):
    iso = cylinder_isometry(1.0, domain) if kind == "cylinder" \
        else flat_isometry(domain)
    src = CellCorrectorSource(RVEGrid(4, 4, n3, 2.0, 1.0),
                              checker_phases(4, 4), CONTRAST5, tol=1e-10)
    fam = build_recovery(iso, RecoveryConfig(gamma=2.0), src)
    if load is not None:
        fam.load = load
    return fam


@pytest.mark.parametrize("n3", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["flat", "cylinder"])
def test_energy_equals_per_point_reference(kind, n3):
    # the one-cell energy is the whole-domain quadrature: the density is
    # periodic, so folding the points into one period and counting them
    # changes only the rounding.  Both domains end in partial elements, and
    # the second also starts in one and holds partial periods
    for domain, h in (((0.0, 0.0, 1.0, 1.0), 0.3),
                      ((0.13, -0.2, 0.9, 0.71), 0.25)):
        for load in (None, GENERAL_LOAD):
            sampler = _family(kind, n3, domain, load).sampler(h)
            energy = evaluate_scaled_energy(sampler)
            want = _per_point_energy(sampler)
            assert abs(energy - want) <= 1e-12 * want
            # the flat family's own load, minus II, is zero
            assert energy > 0.0 or (kind == "flat" and load is None)


@pytest.mark.parametrize("n3", [2, 3, 4, 5])
def test_batched_density_matches_per_height_loop_bitwise(n3):
    # one density evaluation per phase over all heights, summed per height
    # in (height, phase) order, is bit for bit the per-(height, phase) loop
    sampler = _family("cylinder", n3, (0.13, -0.2, 0.9, 0.71),
                      GENERAL_LOAD).sampler(0.25)
    fam, eps = sampler.family, sampler.eps
    grid = fam.source.grid
    x0, y0, x1, y1 = fam.iso.domain
    s1, s2 = eps * grid.box_side / grid.n1, eps * grid.box_side / grid.n2
    (t1, w1, i), (t2, w2, j) = (recovery._axis_rule(a / s, b / s, n)
                                for a, b, s, n in ((x0, x1, s1, grid.n1),
                                                   (y0, y1, s2, grid.n2)))
    xp = recovery._tensor_points(s1 * t1, s2 * t2)
    w = np.outer(w1, w2).ravel()
    phases = fam.source.phases.cell_phase[i[:, None], j].ravel()
    plan = sampler.plan(xp)
    total = 0.0
    for k in range(n3):
        for gq in recovery.GAUSS:
            F = sampler.scaled_gradient(xp, -0.5 + (k + gq) / n3, plan=plan)
            for p in np.unique(phases):
                mine = phases == p
                total += float(np.sum(w[mine] * svk_energy(
                    fam.source.materials[int(p)], F[mine])))
    want = total / (2.0 * n3) * (s1 * s2) / np.float64(sampler.h) ** 2
    assert evaluate_scaled_energy(sampler) == float(want)


def test_axis_rule_covers_the_interval_with_the_cell_points():
    n = 4
    gauss = np.asarray(recovery.GAUSS)
    for a, b in ((0.0, 8.0), (0.0, 21.0), (1.3, 2.7), (-3.25, 9.5),
                 (0.2, 0.6), (5.0, 5.5), (-1.0, 3.0)):
        t, w, col = recovery._axis_rule(a, b, n)
        npt.assert_allclose(w.sum(), b - a, rtol=1e-14)
        assert np.all(w > 0) and len(t) <= 2 * n + 4
        # every point lies in the first period, inside its element column
        assert np.all((col == np.floor(t)) & (0 <= t) & (t < n))
    # whole elements only: the standard Gauss points, weighted by the count
    t, w, col = recovery._axis_rule(-1.0, 9.0, n)
    npt.assert_array_equal(t, (np.arange(n)[:, None] + gauss).ravel())
    npt.assert_array_equal(w, np.repeat([1.5, 1.0, 1.0, 1.5], 2))
    # an end off a boundary by rounding only lies on it: no sliver piece
    assert len(recovery._axis_rule(0.0, 0.3 / (0.1 * 0.25), n)[0]) == 2 * n


@pytest.mark.parametrize("n3", [2, 3, 4, 5])
def test_tensor_axes_plan_equals_per_point_plan(n3):
    # the energy plans the tensor grid of its two axis rules in one call.
    # At every thickness height it uses, each point's gradient must be the
    # bits of the point's own one-point plan, and the 8-corner formula's
    # value.  The domain starts and ends in partial elements along x2 and
    # starts in one along x1, so the end pieces' own points are planned too.
    # Block checkerboard: the element checkerboard's corrector is too
    # symmetric to tell the two in-plane steps apart
    iso = cylinder_isometry(1.0, (0.13, -0.2, 0.9, 0.71))
    fam = build_recovery(iso, RecoveryConfig(gamma=2.0),
                         contrast5_source(4, n3=n3))
    fam.load = GENERAL_LOAD
    sampler = fam.sampler(0.3)
    grid = fam.source.grid
    x0, y0, x1, y1 = fam.iso.domain
    s1 = sampler.eps * grid.box_side / grid.n1
    s2 = sampler.eps * grid.box_side / grid.n2
    t1 = recovery._axis_rule(x0 / s1, x1 / s1, grid.n1)[0]
    t2 = recovery._axis_rule(y0 / s2, y1 / s2, grid.n2)[0]
    assert (len(t1), len(t2)) == (2 * grid.n1 + 2, 2 * grid.n2 + 4)
    xp = np.array([(x, y) for x in s1 * t1 for y in s2 * t2])
    plan = sampler.plan(xp)
    singles = [sampler.plan(xp[m:m + 1]) for m in range(len(xp))]
    for k in range(n3):
        for gq in recovery.GAUSS:
            x3 = -0.5 + (k + gq) / n3
            F = sampler.scaled_gradient(xp, x3, plan=plan)
            for m, one in enumerate(singles):
                npt.assert_array_equal(
                    sampler.scaled_gradient(xp[m:m + 1], x3, plan=one),
                    F[m:m + 1])
            F_ref = in_frame(iso, xp, _eight_corner_reference(sampler, xp,
                                                              x3)[1])
            npt.assert_allclose(F, F_ref, rtol=0,
                                atol=1e-13 * np.max(np.abs(F_ref)))


def test_public_plan_is_not_overwritten_by_later_plans():
    # a plan owns its arrays: neither a whole energy quadrature nor another
    # plan may write into them
    fam = _family("cylinder", 4, (0.0, 0.0, 1.0, 1.0))
    sampler = fam.sampler(0.25)
    xp = _quadrature_like_points(fam)
    held = sampler.plan(xp)
    before = held.copy()
    assert evaluate_scaled_energy(sampler) > 0.0
    sampler.plan(xp[::-1] * 0.5)
    npt.assert_array_equal(held, before)


@pytest.mark.parametrize("n3", [2, 3, 4, 5, 6])
def test_corrector_table_is_mirror_exact(n3):
    # node layer n3 - k is diag(-1, -1, 1) times layer k, bit for bit
    src = CellCorrectorSource(RVEGrid(4, 4, n3, 2.0, 1.0),
                              checker_phases(4, 4), CONTRAST5, tol=1e-10)
    for G in ([[1.0, 0.3], [0.3, -0.5]], [[0.0, 0.5], [0.5, 0.0]]):
        values = src.corrector(G)
        assert np.max(np.abs(values)) > 0.0
        npt.assert_array_equal(values[:, :, ::-1] * [-1.0, -1.0, 1.0],
                               values)


def test_sampler_refuses_correctors_without_the_mirror_symmetry(monkeypatch):
    # such a table is no bending corrector of the parity solve
    fam = build_recovery(cylinder_isometry(1.0), RecoveryConfig(),
                         checker_source())
    exact = fam.source.corrector

    def tilted(G):
        values = exact(G)
        values[..., 2] += np.linspace(0.0, 1e-9, values.shape[2])
        return values

    monkeypatch.setattr(fam.source, "corrector", tilted)
    with pytest.raises(NumericalError, match="mirror images"):
        fam.sampler(0.2)


def _fd_gradient(sampler, xp, x3, s, s3):
    G = np.empty((len(xp), 3, 3))
    for a in range(2):
        e = np.zeros(2)
        e[a] = s
        G[:, :, a] = (deformation(sampler, xp + e, x3)
                      - deformation(sampler, xp - e, x3)) / (2.0 * s)
    G[:, :, 2] = (deformation(sampler, xp, x3 + s3)
                  - deformation(sampler, xp, x3 - s3)) / (2.0 * s3 * sampler.h)
    return G


def _smooth_points(eps, hx, count=100):
    """Random midplane points whose FD stencils dodge interpolation breaks,
    so the centered difference sees a smooth map."""
    pts = np.random.default_rng(7).uniform(0.02, 0.98, size=(400, 2))
    frac = (pts / (eps * hx)) % 1.0
    pts = pts[np.all((frac > 0.1) & (frac < 0.9), axis=1)]
    assert len(pts) >= count
    return pts[:count]


def test_scaled_gradient_matches_finite_difference():
    fam = build_recovery(cylinder_isometry(1.0), RecoveryConfig(),
                         checker_source())
    sampler = fam.sampler(0.2)
    grid = fam.source.grid
    xp = _smooth_points(sampler.eps, grid.box_side / grid.n1)
    x3 = 0.06                       # inside one thickness segment of n3 = 4
    F = sampler.scaled_gradient(xp, x3)
    errs = {}
    for s in (4e-3, 2e-3):
        # the difference quotients of v, seen in the moving frame
        G = in_frame(fam.iso, xp, _fd_gradient(sampler, xp, x3, s, 0.01))
        errs[s] = np.max(np.abs((G - F)[:, :, :2]))
        # thickness interpolation is affine within a segment: FD is exact
        assert np.max(np.abs((G - F)[:, :, 2])) < 1e-9
    assert errs[4e-3] < 2.5e-4
    assert errs[2e-3] < 6e-5
    assert 3.2 < errs[4e-3] / errs[2e-3] < 4.8      # second-order stencil


def test_gradient_is_rotation_plus_order_h():
    # grad v = R (I + O(h)): in the moving frame, the identity plus O(h)
    fam = build_recovery(cylinder_isometry(1.0), RecoveryConfig(),
                         checker_source())
    sampler_c = fam.sampler(0.08)
    xp = _smooth_points(sampler_c.eps, 0.25, count=60)
    resid = {}
    for h in (0.08, 0.04):
        F = fam.sampler(h).scaled_gradient(xp, 0.06)
        resid[h] = np.max(np.abs(F - np.eye(3)))
    assert resid[0.08] < 1e-2
    assert 1.6 < resid[0.08] / resid[0.04] < 2.7    # residual shrinks like h


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------

def test_flat_energy_is_zero():
    fam = build_recovery(flat_isometry(), RecoveryConfig(), checker_source())
    assert evaluate_scaled_energy(fam.sampler(0.3)) == 0.0


def test_energy_deterministic():
    fam = build_recovery(cylinder_isometry(1.0), RecoveryConfig(),
                         checker_source())
    sampler = fam.sampler(0.4)
    first = evaluate_scaled_energy(sampler)
    assert evaluate_scaled_energy(sampler) == first
    assert first > 0.0


def test_quadrature_must_resolve_microscale():
    # the in-plane points are the cell solve's own: on a domain of whole
    # periods, the 2x2 Gauss points of every cell element, once each, placed
    # in the first period
    fam = build_recovery(cylinder_isometry(1.0, (0.0, 0.0, 0.3, 0.2)),
                         RecoveryConfig(gamma=2.0), contrast5_source(4))
    sampler = fam.sampler(0.2)          # eps = 0.1: 3 x 2 periods
    planned = []
    plan = sampler.plan
    sampler.plan = lambda xp: planned.append(xp) or plan(xp)
    assert evaluate_scaled_energy(sampler) > 0.0
    got = planned[0][np.lexsort(planned[0].T[::-1])]
    axis = (np.arange(4)[:, None] + np.asarray(recovery.GAUSS)).ravel() \
        * sampler.eps / 4
    want = np.array([(x, y) for x in axis for y in axis])
    npt.assert_allclose(got, want, rtol=0, atol=1e-15)


class _RotatedSampler:
    """Wraps a sampler, rigidly rotating every deformation gradient."""

    def __init__(self, inner, R):
        self.inner = inner
        self.R = R
        self.family = inner.family
        self.h = inner.h
        self.eps = inner.eps

    def plan(self, xp):
        return self.inner.plan(xp)

    def scaled_gradient(self, xp, x3, plan=None):
        F = self.inner.scaled_gradient(xp, x3, plan=plan)
        return np.einsum("ij,mjk->mik", self.R, F)


def test_energy_objectivity():
    axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    K = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    R = np.eye(3) + np.sin(0.7) * K + (1.0 - np.cos(0.7)) * (K @ K)
    fam = build_recovery(cylinder_isometry(1.0), RecoveryConfig(),
                         checker_source())
    sampler = fam.sampler(0.4)
    plain = evaluate_scaled_energy(sampler)
    rotated = evaluate_scaled_energy(_RotatedSampler(sampler, R))
    assert abs(rotated - plain) <= 1e-10 * abs(plain)


def test_limit_energy_closed_forms():
    M = np.diag([0.5, 0.5, 0.4])
    assert limit_energy(M, flat_isometry()) == 0.0
    npt.assert_allclose(limit_energy(M, cylinder_isometry(1.0)), 0.5,
                        rtol=1e-13)
    npt.assert_allclose(limit_energy(M, cylinder_isometry(2.0)), 0.125,
                        rtol=1e-13)
    # area scaling on a non-square domain
    npt.assert_allclose(
        limit_energy(M, cylinder_isometry(1.0, (0.0, 0.0, 1.0, 2.0))), 1.0,
        rtol=1e-13)


def test_limit_energy_is_the_pointwise_midpoint_rule():
    form = contrast5_source(4).effective()
    for iso in (cylinder_isometry(1.0), cylinder_isometry(0.7, (0.0, 0.0, 2.0, 1.0))):
        x0, y0, x1, y1 = iso.domain
        n = 32
        xs = x0 + (np.arange(n) + 0.5) * (x1 - x0) / n
        ys = y0 + (np.arange(n) + 0.5) * (y1 - y0) / n
        II = second_form(iso, np.array([(x, y) for x in xs for y in ys]))
        loop = np.mean([qgamma_eval(form, G) for G in II]) \
            * (x1 - x0) * (y1 - y0)
        npt.assert_allclose(limit_energy(form, iso), loop, rtol=1e-14)


def test_limit_energy_retains_no_objects():
    # numpy keeps a bounded cache of small shape buffers, so a few blocks may
    # stay behind once; a leak grows with the calls.  The second window makes
    # twice the calls of the first, so a leak of k blocks per call grows it
    # by 50 k blocks more, while the cache's growth is at most its size.
    form = np.diag([0.5, 0.5, 0.4])
    iso = cylinder_isometry(1.0)
    for _ in range(5):
        limit_energy(form, iso)
    own = [tracemalloc.Filter(False, tracemalloc.__file__)]

    def blocks():
        gc.collect()
        snapshot = tracemalloc.take_snapshot().filter_traces(own)
        return sum(stat.count for stat in snapshot.statistics("filename"))

    tracemalloc.start()
    try:
        counts = [blocks()]
        for calls in (50, 100):
            for _ in range(calls):
                limit_energy(form, iso)
            counts.append(blocks())
    finally:
        tracemalloc.stop()
    first, second = np.diff(counts)
    assert second - first < 25, (first, second)


def test_workload_checkerboard_energy_is_pinned():
    # 8x8x4 checkerboard of contrast 5, cylinder r = 1, h = 0.1: the bench's
    # recovery op at r = 1.  The whole-domain point-by-point quadrature
    # agrees with the one-cell value
    fam = build_recovery(cylinder_isometry(1.0), RecoveryConfig(gamma=2.0),
                         contrast5_source(8))
    sampler = fam.sampler(0.1)
    energy = evaluate_scaled_energy(sampler)
    npt.assert_allclose(energy, 0.4814717209889517, rtol=1e-12)
    npt.assert_allclose(_per_point_energy(sampler), energy, rtol=1e-12)


def config_source(name):
    """Corrector source of a shipped config's cell."""
    cfg = json.loads((CONFIGS / name).read_text())
    g = cfg["grid"]
    grid = RVEGrid(g["n1"], g["n2"], g["n3"], g["gamma"], g["L"])
    r = sample_realization(MicrostructureModel.from_dict(cfg["model"]),
                           cfg["seed"], grid.box_side)
    return CellCorrectorSource(grid, rasterize(r, grid.n1, grid.n2),
                               material_table(cfg["materials"]), tol=1e-10)


@pytest.mark.parametrize("name", ["checkerboard_contrast5.json",
                                  "voronoi_contrast4.json"])
def test_gaps_fall_at_second_order_to_zero(name):
    # a side of 0.4 holds whole periods eps L at every h: the gaps are
    # positive, fall 4x per halving of h, and extrapolate to zero, since
    # the family attains the cell solve's own discrete limit
    src = config_source(name)
    fam = build_recovery(cylinder_isometry(1.0, (0.0, 0.0, 0.4, 0.4)),
                         RecoveryConfig(h_schedule=[0.1, 0.05, 0.025, 0.0125]),
                         src)
    gaps = recovery_gaps(fam)["gaps"]
    assert all(g > 0.0 for g in gaps)
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.9 <= coarse / fine <= 4.1, gaps
    assert abs(4.0 * gaps[-1] - gaps[-2]) / 3.0 <= 1e-6, gaps


def test_readme_recovery_gaps_match_the_code():
    # README quotes two gap series to three digits: a single-phase 4x4x8
    # cell at gamma 1 (criterion 09's) and the shipped checkerboard, both on
    # the unit square bent onto the cylinder of radius 1
    readme = (CONFIGS.parent.parent / "README.md").read_text()
    bullet = " ".join(readme.split("- **recovery**")[1]
                      .split("- **cli**")[0].split())
    num = r"(\d\.\d\de-\d+)"
    quoted = re.findall(num + ", " + num + ",? and " + num
                        + r" at h = ([\d.]+), ([\d.]+),? ([\d.]+) ", bullet)
    single = CellCorrectorSource(RVEGrid(4, 4, 8, 1.0, 1.0),
                                 uniform_phases(4, 4), ONE_PHASE, tol=1e-10)
    sources = (single, config_source("checkerboard_contrast5.json"))
    assert len(quoted) == len(sources)
    for source, row in zip(sources, quoted):
        gaps, hs = [float(v) for v in row[:3]], [float(v) for v in row[3:]]
        fam = build_recovery(cylinder_isometry(1.0),
                             RecoveryConfig(h_schedule=hs), source)
        got = recovery_gaps(fam)["gaps"]
        assert [float("%.2e" % g) for g in got] == gaps, got


def test_partial_period_gap_is_negative():
    # README's partial-period example: at h = 0.045 the unit square holds
    # 1 / (eps L) = 44.4 periods of the checkerboard (eps = h / gamma), and
    # the gap is negative, below the whole-period trend 7.29e-4, 1.82e-4
    fam = build_recovery(cylinder_isometry(1.0),
                         RecoveryConfig(h_schedule=[0.045]),
                         config_source("checkerboard_contrast5.json"))
    assert fam.source.grid.gamma == 2.0
    gap = recovery_gaps(fam)["gaps"][0]
    assert float("%.2e" % gap) == -4.68e-4, gap


def test_bench_recovery_gap_is_positive():
    # the bench's recovery op: checkerboard of contrast 5 on the unit domain
    # at h = 0.1, radii in [0.8, 1.25]; its check wants scaled > limit
    src = contrast5_source(8)
    for radius in (0.8, 1.0, 1.25):
        fam = build_recovery(cylinder_isometry(radius),
                             RecoveryConfig(gamma=2.0, h_schedule=[0.1]), src)
        assert recovery_gaps(fam)["gaps"][0] > 0.0


def test_gap_trend_single_phase():
    grid = RVEGrid(4, 4, 4, 1.0, 1.0)
    src = CellCorrectorSource(grid, uniform_phases(4, 4), ONE_PHASE, tol=1e-10)
    cfg = RecoveryConfig(gamma=1.0, h_schedule=[0.4, 0.2, 0.1])
    out = recovery_gaps(build_recovery(cylinder_isometry(1.0), cfg, src))
    # the limit is the discrete effective form at giving curvature diag(1, 0)
    M = single_phase_bending_discrete(1.0, 1.0, 4)
    npt.assert_allclose(out["limit"], M[0, 0], rtol=1e-9)
    gaps = out["gaps"]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.12
    # upper-bound family stays above the limit (well within the -20% budget)
    assert all(s >= 0.8 * out["limit"] for s in out["scaled"])


def test_recovery_gaps_needs_schedule():
    src = checker_source()
    fam = build_recovery(cylinder_isometry(1.0), RecoveryConfig(), src)
    with pytest.raises(ConfigError, match="no h_schedule"):
        recovery_gaps(fam)
    fam = build_recovery(cylinder_isometry(1.0),
                         RecoveryConfig(h_schedule=[0.4]), src)
    out = recovery_gaps(fam)
    assert set(out) == {"h_schedule", "scaled", "limit", "gaps"}


def test_recovery_gaps_validate_their_schedule():
    # the gaps' thicknesses come from RecoveryConfig.h_schedule, which must
    # be finite, positive and decreasing
    for bad in ([float("inf")], [0.4, 0.8], [0.4, 0.4], [0.4, -0.1], [],
                [0.4, "0.2"], [True], 0.4):
        with pytest.raises(ConfigError, match="RecoveryConfig: h_schedule"):
            RecoveryConfig(h_schedule=bad)
    cfg = RecoveryConfig(h_schedule=(np.float64(0.4),))
    out = recovery_gaps(build_recovery(cylinder_isometry(1.0), cfg,
                                       checker_source()))
    assert out["h_schedule"] == [0.4]
    assert type(out["h_schedule"][0]) is float


def test_corrector_load_must_be_finite():
    src = checker_source()
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError, match="load.G must be finite"):
            src.corrector([[bad, 0.0], [0.0, 0.0]])
        with pytest.raises(ConfigError, match="load.B must be finite"):
            CellLoad(B=[[0.0, bad], [bad, 0.0]])


def test_recovery_gaps_refuse_a_zero_limit():
    """A flat isometry's limit energy is exactly 0: relative gaps are
    undefined there, so the gaps are refused instead of dividing by 0."""
    fam = build_recovery(flat_isometry(), RecoveryConfig(h_schedule=[0.4]),
                         checker_source())
    with pytest.raises(ConfigError, match="isometry"):
        recovery_gaps(fam)
