"""Recovery family: isometry frames, patch correctors, scaled vs limit energy."""

import gc
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from platecell import (
    CellCorrectorSource,
    CellLoad,
    ConfigError,
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
    recovery_gaps,
    solve_corrector,
)
from platecell import cellsolve, recovery
from platecell._mesh import locate
from platecell.material import svk_energy
from oracles import single_phase_bending_discrete

ONE_PHASE = material_table([(0, 1.0, 1.0)])
TWO_PHASE = material_table([(0, 1.0, 1.0), (1, 3.0, 2.0)])
CONTRAST5 = material_table([(0, 1.0, 1.0), (1, 5.0, 5.0)])


def uniform_phases(n1, n2, box_side=1.0, phase=0):
    return PhaseGrid(n1, n2, box_side, np.full((n1, n2), phase, dtype=int))


def checker_phases(n1, n2, box_side=1.0):
    ids = (np.add.outer(np.arange(n1), np.arange(n2)) % 2).astype(int)
    return PhaseGrid(n1, n2, box_side, ids)


def contrast5_source(n, tol=1e-10):
    """Checkerboard of two n/2-element blocks a side, phase contrast 5."""
    ids = ((np.arange(n)[:, None] // (n // 2) + np.arange(n) // (n // 2))
           % 2).astype(int)
    return CellCorrectorSource(RVEGrid(n, n, 4, 2.0, 1.0),
                               PhaseGrid(n, n, 1.0, ids), CONTRAST5, tol=tol)


def checker_source(tol=1e-11):
    grid = RVEGrid(4, 4, 4, 1.0, 1.0)
    return CellCorrectorSource(grid, checker_phases(4, 4), TWO_PHASE, tol=tol)


def kirchhoff_love(iso, h, xp, x3):
    """Bent-plate positions and scaled gradient without any corrector."""
    f = iso.frame_fields(xp)
    v = f["y"] + h * x3 * f["n"]
    F = np.empty((len(xp), 3, 3))
    F[:, :, 0] = f["d1y"] + h * x3 * f["d1n"]
    F[:, :, 1] = f["d2y"] + h * x3 * f["d2n"]
    F[:, :, 2] = f["n"]
    return v, F


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
    f = iso.frame_fields(xp)
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
    npt.assert_array_equal(iso.second_form(xp), 0.0)
    f = iso.frame_fields(xp)
    npt.assert_array_equal(f["y"][:, :2], xp)
    npt.assert_array_equal(f["y"][:, 2], 0.0)


@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_cylinder_second_form(radius):
    iso = cylinder_isometry(radius, (0.0, 0.0, 4.0, 1.0))
    xp = np.random.default_rng(5).uniform([0, 0], [4, 1], size=(60, 2))
    II = iso.second_form(xp)
    want = np.diag([1.0 / radius, 0.0])
    npt.assert_allclose(np.abs(II), np.broadcast_to(want, II.shape),
                        atol=1e-13)
    # the same matrix everywhere: constant curvature
    npt.assert_allclose(II - II[0], 0.0, atol=1e-13)
    # Frobenius norm 1/r
    npt.assert_allclose(np.linalg.norm(II, axis=(1, 2)), 1.0 / radius,
                        rtol=1e-13)


def test_weingarten_consistency():
    # normal derivatives and curvature form agree: d_a n = -II_ab d_b y
    iso = cylinder_isometry(1.3, (0.0, 0.0, 5.0, 1.0))
    xp = np.random.default_rng(9).uniform([0, 0], [5, 1], size=(40, 2))
    f = iso.frame_fields(xp)
    II = iso.second_form(xp)
    dn = np.stack([f["d1n"], f["d2n"]], axis=1)       # (m, a, 3)
    dy = np.stack([f["d1y"], f["d2y"]], axis=1)
    npt.assert_allclose(dn, -np.einsum("mab,mbc->mac", II, dy), atol=1e-13)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def test_recovery_config_validation():
    with pytest.raises(ConfigError):
        RecoveryConfig(gamma=0.0)
    with pytest.raises(ConfigError):
        RecoveryConfig(patch_size=-0.25)
    with pytest.raises(ConfigError):
        RecoveryConfig(patch_size=0.25, ramp_width=0.125)   # = patch / 2
    with pytest.raises(ConfigError):
        RecoveryConfig(ramp_width=0.0)
    with pytest.raises(ConfigError):
        RecoveryConfig(cells_per_scale=1)
    for bad in (3.9, 4.0, "4", True, np.float64(4.0)):
        with pytest.raises(ConfigError, match="cells_per_scale must be an int"):
            RecoveryConfig(cells_per_scale=bad)     # no truncation
    assert RecoveryConfig(cells_per_scale=np.int64(3)).cells_per_scale == 3
    with pytest.raises(ConfigError):
        RecoveryConfig(h_schedule=[0.1, 0.1])
    with pytest.raises(ConfigError):
        RecoveryConfig(h_schedule=[0.1, -0.05])
    assert RecoveryConfig(patch_size=0.4).ramp_width == pytest.approx(0.05)
    inf, nan = float("inf"), float("nan")
    for field, bad in (("gamma", {"gamma": inf}), ("gamma", {"gamma": "2"}),
                       ("gamma", {"gamma": True}),
                       ("patch_size", {"patch_size": True}),
                       ("patch_size", {"patch_size": "0.25"}),
                       ("ramp_width", {"patch_size": 4.0, "ramp_width": True}),
                       ("ramp_width", {"ramp_width": "0.01"}),
                       ("corrector_tol", {"corrector_tol": nan}),
                       ("corrector_tol", {"corrector_tol": "1e-8"}),
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
    # no string, bool or out-of-range tolerance is coerced into a solve
    with pytest.raises(ConfigError, match="RecoveryConfig: corrector_tol"):
        RecoveryConfig(corrector_tol=bad)


@pytest.mark.parametrize("bad", BAD_TOLERANCES)
def test_corrector_source_reads_tol_strictly(bad):
    with pytest.raises(ConfigError, match="CellCorrectorSource: tol"):
        CellCorrectorSource(RVEGrid(4, 4, 4, 1.0, 1.0), checker_phases(4, 4),
                            TWO_PHASE, tol=bad)


def test_tolerances_read_numpy_numbers_as_floats():
    assert RecoveryConfig(corrector_tol=np.float32(0.5)).corrector_tol == 0.5
    src = CellCorrectorSource(RVEGrid(4, 4, 4, 1.0, 1.0),
                              checker_phases(4, 4), TWO_PHASE,
                              tol=np.float64(1e-9))
    assert type(src.tol) is float and src.tol == 1e-9


def test_sampler_needs_positive_thickness():
    fam = build_recovery(flat_isometry(), RecoveryConfig(patch_size=0.5),
                         checker_source())
    with pytest.raises(ConfigError):
        fam.sampler(0.0)
    with pytest.raises(ConfigError):
        fam.sampler(-0.1)


def test_sampler_reads_thickness_strictly():
    fam = build_recovery(flat_isometry(), RecoveryConfig(patch_size=0.5),
                         checker_source())
    for bad in (float("inf"), float("nan"), True, "0.3", None):
        with pytest.raises(ConfigError, match="h must be a finite number"):
            fam.sampler(bad)
    assert fam.sampler(np.float64(0.3)).h == 0.3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_energy_raises():
    # at h = 1e300 the gradients overflow: no inf or nan energy is returned
    fam = build_recovery(cylinder_isometry(1.0), RecoveryConfig(patch_size=0.5),
                         checker_source())
    with pytest.raises(NumericalError, match="energy at h = 1e\\+300"):
        evaluate_scaled_energy(fam.sampler(1e300))


def test_midplane_displacement_not_supported():
    with pytest.raises(ConfigError):
        build_recovery(flat_isometry(), RecoveryConfig(patch_size=0.5),
                       checker_source(), V=np.zeros(3))


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
    build_recovery(cylinder_isometry(1.0), RecoveryConfig(patch_size=0.5),
                   src)
    src.effective()
    assert columns == [3]


def test_source_form_does_not_depend_on_call_order():
    G = np.array([[1.0, 0.2], [0.2, -0.5]])
    first = checker_source().effective().voigt3
    src = checker_source()
    src.corrector(G)
    npt.assert_array_equal(src.effective().voigt3, first)


def test_source_phase_lookup_wraps():
    src = checker_source()
    pts = np.array([[0.1, 0.1], [0.3, 0.1], [0.6, 0.9], [0.95, 0.95]])
    want = np.array([0, 1, 1, 0])       # (i + j) % 2 on the 4x4 grid
    npt.assert_array_equal(src.phase_of_points(pts), want)
    npt.assert_array_equal(src.phase_of_points(pts + 1.0), want)
    npt.assert_array_equal(src.phase_of_points(pts + np.array([2.0, 3.0])),
                           want)


# ---------------------------------------------------------------------------
# Patch layout
# ---------------------------------------------------------------------------

def test_patch_tiling_unit_square():
    fam = build_recovery(cylinder_isometry(1.0), RecoveryConfig(patch_size=0.5),
                         checker_source())
    rects = sorted(p.rect for p in fam.patches)
    assert rects == [(0.0, 0.0, 0.5, 0.5), (0.0, 0.5, 0.5, 1.0),
                     (0.5, 0.0, 1.0, 0.5), (0.5, 0.5, 1.0, 1.0)]


def test_patch_tiling_clips_to_domain():
    fam = build_recovery(flat_isometry((0.0, 0.0, 0.8, 0.5)),
                         RecoveryConfig(patch_size=0.5, ramp_width=0.05),
                         checker_source())
    rects = sorted(p.rect for p in fam.patches)
    assert rects == [(0.0, 0.0, 0.5, 0.5), (0.5, 0.0, 0.8, 0.5)]


def test_constant_curvature_shares_one_corrector():
    fam = build_recovery(cylinder_isometry(1.0), RecoveryConfig(patch_size=0.5),
                         checker_source())
    for patch in fam.patches:
        npt.assert_allclose(np.abs(patch.load), np.diag([1.0, 0.0]),
                            atol=1e-13)
    # identical frozen loads: one corrector, four patches
    first = fam.source.corrector(fam.patches[0].load)
    for patch in fam.patches[1:]:
        npt.assert_allclose(fam.source.corrector(patch.load), first,
                            rtol=0, atol=1e-13 * np.max(np.abs(first)))


# ---------------------------------------------------------------------------
# Sampler evaluation
# ---------------------------------------------------------------------------

def test_flat_family_is_identity():
    # zero curvature -> zero patch loads -> zero correctors: v = (x', h x3)
    fam = build_recovery(flat_isometry(), RecoveryConfig(patch_size=0.5),
                         checker_source())
    sampler = fam.sampler(0.3)
    xp = np.random.default_rng(11).uniform(0, 1, size=(30, 2))
    for x3 in (-0.4, 0.0, 0.25):
        v = sampler.deformation(xp, x3)
        npt.assert_array_equal(v[:, :2], xp)
        npt.assert_array_equal(v[:, 2], 0.3 * x3)
        F = sampler.scaled_gradient(xp, x3)
        npt.assert_array_equal(F, np.broadcast_to(np.eye(3), (30, 3, 3)))


def test_cutoff_collar_suppresses_corrector():
    iso = cylinder_isometry(1.0)
    fam = build_recovery(iso, RecoveryConfig(patch_size=0.5), checker_source())
    sampler = fam.sampler(0.2)
    delta = fam.cfg.ramp_width
    # within one ramp width of a patch edge the cutoff (and its slope) is zero
    collar = np.array([[0.5 + 0.4 * delta, 0.3], [0.25, 0.5 * delta],
                       [1.0 - 0.9 * delta, 0.7], [0.5 - 0.99 * delta, 0.9]])
    for x3 in (-0.31, 0.17):
        v_kl, F_kl = kirchhoff_love(iso, sampler.h, collar, x3)
        npt.assert_array_equal(sampler.deformation(collar, x3), v_kl)
        npt.assert_array_equal(sampler.scaled_gradient(collar, x3), F_kl)
    # sanity: at a patch center the corrector is actually engaged
    center = np.array([[0.25, 0.25]])
    v_kl, _ = kirchhoff_love(iso, sampler.h, center, 0.17)
    assert np.max(np.abs(sampler.deformation(center, 0.17) - v_kl)) > 1e-6


def _per_patch_reference(sampler, xp, x3):
    """Positions and scaled gradients by the per-patch, 8-corner formula.

    Each patch's points are interpolated trilinearly from the eight cell
    corners around them at height x3, then rotated and cut off; this is the
    evaluation the node-layer plan replaces, kept here as its reference.
    """
    fam, h, eps = sampler.family, sampler.h, sampler.eps
    grid, delta = fam.source.grid, fam.cfg.ramp_width
    hx, hy, n3 = grid.box_side / grid.n1, grid.box_side / grid.n2, grid.n3
    f = fam.iso.frame_fields(xp)
    v = f["y"] + h * x3 * f["n"]
    _, F = kirchhoff_love(fam.iso, h, xp, x3)
    s3 = np.clip((x3 + 0.5) * n3, 0.0, float(n3))
    k0 = min(int(s3), n3 - 1)
    wz = (1.0 - (s3 - k0), s3 - k0)
    for patch in fam.patches:
        values = fam.source.corrector(patch.load)
        a0, b0, a1, b1 = patch.rect
        idx = np.flatnonzero((xp[:, 0] >= a0) & (xp[:, 0] < a1)
                             & (xp[:, 1] >= b0) & (xp[:, 1] < b1))
        px = xp[idx]
        cx, dcx = recovery._ramp_1d(px[:, 0], a0, a1, delta)
        cy, dcy = recovery._ramp_1d(px[:, 1], b0, b1, delta)
        chi = (cx * cy)[:, None]
        dchi = (dcx * cy)[:, None], (cx * dcy)[:, None]
        yw = np.mod(px / eps, grid.box_side)
        sx, sy = yw[:, 0] / hx, yw[:, 1] / hy
        i0 = np.floor(sx).astype(np.int64) % grid.n1
        j0 = np.floor(sy).astype(np.int64) % grid.n2
        ii = (i0, (i0 + 1) % grid.n1)
        jj = (j0, (j0 + 1) % grid.n2)
        wx = (1.0 - (sx - np.floor(sx)), sx - np.floor(sx))
        wy = (1.0 - (sy - np.floor(sy)), sy - np.floor(sy))
        g = np.zeros((idx.size, 3))
        dg = np.zeros((idx.size, 3, 3))
        for a, b, c in np.ndindex(2, 2, 2):
            corner = values[ii[a], jj[b], k0 + c]
            sa, sb, sc = (-1.0, 1.0)[a], (-1.0, 1.0)[b], (-1.0, 1.0)[c]
            g += (wx[a] * wy[b] * wz[c])[:, None] * corner
            dg[:, :, 0] += (sa / hx * wy[b] * wz[c])[:, None] * corner
            dg[:, :, 1] += (wx[a] * sb / hy * wz[c])[:, None] * corner
            dg[:, :, 2] += (wx[a] * wy[b] * sc * n3)[:, None] * corner
        R = np.stack([f["d1y"][idx], f["d2y"][idx], f["n"][idx]], axis=2)
        Rg = np.einsum("mij,mj->mi", R, g)
        Rdg = np.einsum("mij,mjc->mic", R, dg)
        v[idx] += h * eps * chi * Rg
        for a in (0, 1):
            dR = np.stack([f["ddy"][idx, a, 0], f["ddy"][idx, a, 1],
                           f["d%dn" % (a + 1)][idx]], axis=2)
            dRg = np.einsum("mij,mj->mi", dR, g)
            F[idx, :, a] += h * chi * Rdg[:, :, a] \
                + h * eps * (dchi[a] * Rg + chi * dRg)
        F[idx, :, 2] += eps * chi * Rdg[:, :, 2]
    return v, F


def _distinct_tables(fam):
    """Give each patch a load, and so a corrector, of its own."""
    loads = [np.array([[1.0, 0.3], [0.3, -0.5]]),
             np.array([[-0.4, 0.0], [0.0, 0.9]]),
             np.array([[0.2, -0.7], [-0.7, 0.1]]),
             np.array([[0.0, 0.5], [0.5, 0.0]])]
    for patch, load in zip(fam.patches, loads):
        patch.load = load
    return fam


def _quadrature_like_points(fam, count=400):
    """Random points, patch edges, collars, and the domain's far corner."""
    x0, y0, x1, y1 = fam.iso.domain
    pts = np.random.default_rng(21).uniform([x0, y0], [x1, y1],
                                            size=(count, 2))
    delta = fam.cfg.ramp_width
    edges = [(0.5, 0.3), (0.5 - 1.5 * delta, 0.6), (0.25, 0.5 + delta),
             (0.0, 0.0), (x1, 0.4), (0.7, y1)]
    return np.vstack([pts, edges])


@pytest.mark.parametrize("case", ["flat", "cylinder", "cylinder_distinct",
                                  "flat_distinct"])
def test_node_layer_plan_matches_per_patch_formula(case):
    iso = cylinder_isometry(1.0) if case.startswith("cylinder") \
        else flat_isometry()
    fam = build_recovery(iso, RecoveryConfig(gamma=2.0, patch_size=0.5),
                         contrast5_source(4))
    if case.endswith("distinct"):
        _distinct_tables(fam)
    xp = _quadrature_like_points(fam)
    for h in (0.3, 0.1):
        sampler = fam.sampler(h)
        plan = sampler.plan(xp)
        for x3 in (-0.5, -0.31, -0.25, 0.0, 0.06, 0.37, 0.5):
            v_ref, F_ref = _per_patch_reference(sampler, xp, x3)
            F = sampler.scaled_gradient(xp, x3, plan=plan)
            v = sampler.deformation(xp, x3)
            npt.assert_allclose(F, F_ref, rtol=0,
                                atol=1e-13 * np.max(np.abs(F_ref)))
            npt.assert_allclose(v, v_ref, rtol=0,
                                atol=1e-13 * np.max(np.abs(v_ref)))
            if case == "flat":
                npt.assert_array_equal(F, F_ref)
                npt.assert_array_equal(v, v_ref)


def test_rows_do_not_depend_on_the_other_points():
    # blocking the quadrature changes nothing per point: any subset's rows
    # are the full call's rows, bit for bit
    fam = _distinct_tables(build_recovery(
        cylinder_isometry(1.0), RecoveryConfig(gamma=2.0, patch_size=0.5),
        contrast5_source(4)))
    sampler = fam.sampler(0.1)
    xp = _quadrature_like_points(fam)
    rng = np.random.default_rng(2)
    subsets = [np.arange(1), np.arange(len(xp) - 1, len(xp)),
               np.arange(0, len(xp), 3), rng.permutation(len(xp))[:57]]
    for x3 in (-0.4, 0.06, 0.5):
        F = sampler.scaled_gradient(xp, x3)
        v = sampler.deformation(xp, x3)
        for sub in subsets:
            npt.assert_array_equal(sampler.scaled_gradient(xp[sub], x3),
                                   F[sub])
            npt.assert_array_equal(sampler.deformation(xp[sub], x3), v[sub])


def _per_point_plan(sampler, xp):
    """The node-layer plan evaluated point by point, as reference.

    Every point gets its own cell and patch lookup and cutoff ramps, and
    every node layer of the full, unfolded corrector table is gathered,
    interpolated and rotated (by einsum), with the same operations in the
    same order as the plan.  So the two agree bit for bit.
    """
    fam, h, eps = sampler.family, sampler.h, sampler.eps
    grid = fam.source.grid
    n1, n2, n3 = grid.n1, grid.n2, grid.n3
    f = fam.iso.frame_fields(xp)
    F0 = np.stack([f["d1y"], f["d2y"], f["n"]], axis=2).transpose(1, 2, 0)
    F1 = np.stack([f["d1n"], f["d2n"], np.zeros_like(f["n"])],
                  axis=2).transpose(1, 2, 0)
    dR = np.stack([np.stack([f["ddy"][:, a, 0], f["ddy"][:, a, 1],
                             f["d%dn" % (a + 1)]], axis=2)
                   for a in (0, 1)]).transpose(0, 2, 3, 1)
    every = np.arange(len(xp))
    patch, chi, dchi = fam.cutoff(xp[:, 0], xp[:, 1], every, every)
    patch = np.maximum(patch, 0)
    T = np.stack([fam.source.corrector(p.load) for p in fam.patches]
                 ).transpose(4, 3, 0, 1, 2).reshape(3, n3 + 1, -1)
    (i0, j0), (i1, j1), (tx, ty) = locate(xp / eps, grid)
    row0, row1 = (patch * n1 + i0) * n2, (patch * n1 + i1) * n2
    c00, c10 = T.take(row0 + j0, axis=2), T.take(row1 + j0, axis=2)
    c01, c11 = T.take(row0 + j1, axis=2), T.take(row1 + j1, axis=2)
    d0, d1 = c10 - c00, c11 - c01
    lo = c00 + tx * d0
    step2 = c01 + tx * d1 - lo
    g = lo + ty * step2
    step1 = (1.0 - ty) * d0 + ty * d1

    def rotate(A, v):
        return np.einsum("ijm,jlm->ilm", A, v)

    layers = np.empty((3, 3, n3 + 1, len(xp)))
    for a, step, side in ((0, step1, grid.box_side / n1),
                          (1, step2, grid.box_side / n2)):
        Q = (h * eps) * (dchi[a] * F0 + chi * dR[a])
        layers[:, a] = rotate((h / side * chi) * F0, step) + rotate(Q, g)
    layers[:, 2] = rotate((eps * chi) * F0, g)
    return recovery._Plan(f, F0, F1, layers)


def _per_point_energy(sampler):
    """evaluate_scaled_energy's quadrature with per-point plans and a
    per-point phase lookup: same points, groups, blocks and sums."""
    fam = sampler.family
    cells = fam.cfg.cells_per_scale
    x0, y0, x1, y1 = fam.iso.domain
    eps = sampler.eps
    ncx = max(int(np.ceil((x1 - x0) * cells / eps)), 1)
    ncy = max(int(np.ceil((y1 - y0) * cells / eps)), 1)
    gauss = np.asarray(recovery.GAUSS)
    gx = (np.arange(ncx)[:, None] + gauss).ravel() * (x1 - x0) / ncx
    gy = (np.arange(ncy)[:, None] + gauss).ravel() * (y1 - y0) / ncy
    xp = np.array([(x, y) for x in x0 + gx for y in y0 + gy])
    phases = fam.source.phase_of_points(xp / eps)
    order = np.argsort(phases, kind="stable")
    n3 = fam.source.grid.n3
    total = 0.0
    for group in np.split(order, np.flatnonzero(np.diff(phases[order])) + 1):
        mat = fam.source.materials[int(phases[group[0]])]
        for start in range(0, group.size, recovery._BLOCK):
            xb = xp[group[start:start + recovery._BLOCK]]
            plan = _per_point_plan(sampler, xb)
            for k in range(n3):
                for gq in recovery.GAUSS:
                    F = sampler.scaled_gradient(xb, -0.5 + (k + gq) / n3,
                                                plan=plan)
                    total += float(np.sum(svk_energy(mat, F)))
    w_area = (x1 - x0) * (y1 - y0) / (4.0 * ncx * ncy)
    return total / (2.0 * n3) * w_area / sampler.h ** 2


def _family(kind, n3, domain, patch_size):
    iso = cylinder_isometry(1.0, domain) if kind == "cylinder" \
        else flat_isometry(domain)
    src = CellCorrectorSource(RVEGrid(4, 4, n3, 2.0, 1.0),
                              checker_phases(4, 4), CONTRAST5, tol=1e-10)
    return _distinct_tables(build_recovery(
        iso, RecoveryConfig(gamma=2.0, patch_size=patch_size), src))


@pytest.mark.parametrize("n3", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["flat", "cylinder"])
def test_energy_equals_per_point_reference(kind, n3, monkeypatch):
    # small blocks, so that each phase group spans several plans
    monkeypatch.setattr(recovery, "_BLOCK", 700)
    for domain, patch_size, h in (((0.0, 0.0, 1.0, 1.0), 0.5, 0.3),
                                  ((0.13, -0.2, 0.9, 0.71), 0.3, 0.25)):
        sampler = _family(kind, n3, domain, patch_size).sampler(h)
        energy = evaluate_scaled_energy(sampler)
        assert energy > 0.0
        assert energy == _per_point_energy(sampler)


@pytest.mark.parametrize("n3", [2, 3, 4, 5])
def test_tensor_axes_plan_equals_per_point_plan(n3):
    # the axes run past the domain on every side, so some points lie in no
    # patch, and some on a patch edge or in a cutoff collar
    fam = _family("cylinder", n3, (0.13, -0.2, 0.9, 0.71), 0.3)
    sampler = fam.sampler(0.2)
    xs = np.concatenate([np.linspace(0.0, 1.0, 37), [0.13, 0.43, 0.9]])
    ys = np.concatenate([np.linspace(-0.3, 0.8, 29), [-0.2, 0.1, 0.71]])
    block = np.random.default_rng(4).permutation(len(xs) * len(ys))[:900]
    ix, iy = block // len(ys), block % len(ys)
    xp = np.column_stack([xs[ix], ys[iy]])
    patch, _, _ = fam.cutoff(xs, ys, ix, iy)
    assert np.any(patch < 0) and np.any(patch >= 0)
    ref = _per_point_plan(sampler, xp)
    for plan in (sampler.plan(xp, axes=(xs, ys, ix, iy)), sampler.plan(xp)):
        npt.assert_array_equal(plan.F0, ref.F0)
        npt.assert_array_equal(plan.F1, ref.F1)
        npt.assert_array_equal(plan.layers, ref.layers)
        for key, value in ref.frames.items():
            npt.assert_array_equal(plan.frames[key], value)


def _plan_arrays(plan):
    """Every array a plan holds, by name, frame views included."""
    arrays = {"F0": plan.F0, "F1": plan.F1, "layers": plan.layers}
    arrays.update(("frames." + k, v) for k, v in plan.frames.items())
    return arrays


def _assert_plans_equal(plan, ref):
    got, want = _plan_arrays(plan), _plan_arrays(ref)
    assert got.keys() == want.keys()
    for name, value in want.items():
        npt.assert_array_equal(got[name], value, err_msg=name)


def test_public_plan_is_not_overwritten_by_later_plans():
    # a plan built without a workspace owns its arrays: neither a whole
    # energy quadrature nor another plan may write into them
    fam = _family("cylinder", 4, (0.0, 0.0, 1.0, 1.0), 0.5)
    sampler = fam.sampler(0.25)
    xp = _quadrature_like_points(fam)
    held = sampler.plan(xp)
    before = {k: v.copy() for k, v in _plan_arrays(held).items()}
    assert evaluate_scaled_energy(sampler) > 0.0
    sampler.plan(xp[::-1] * 0.5)
    for name, value in _plan_arrays(held).items():
        npt.assert_array_equal(value, before[name], err_msg=name)


@pytest.mark.parametrize("n3", [2, 3, 4])
def test_workspace_plans_equal_fresh_plans_as_blocks_grow_and_shrink(n3):
    fam = _family("cylinder", n3, (0.13, -0.2, 0.9, 0.71), 0.3)
    sampler = fam.sampler(0.2)
    xs = np.linspace(0.0, 1.0, 37)
    ys = np.linspace(-0.3, 0.8, 29)
    order = np.random.default_rng(8).permutation(len(xs) * len(ys))
    work = recovery._Workspace()
    layers = []
    # smaller, then larger (the storage grows), then smaller again (a prefix
    # of the grown storage), then as large again (the same storage)
    for block in (order[:100], order[100:700], order[:7], order[-600:]):
        axes = (xs, ys, block // len(ys), block % len(ys))
        xp = np.column_stack([xs[axes[2]], ys[axes[3]]])
        plan = sampler.plan(xp, axes=axes, work=work)
        _assert_plans_equal(plan, sampler.plan(xp, axes=axes))
        _assert_plans_equal(plan, sampler.plan(xp))
        layers.append(plan.layers)
    assert not np.shares_memory(layers[0], layers[1])
    assert np.shares_memory(layers[1], layers[2])
    assert np.shares_memory(layers[1], layers[3])


def test_frames_fill_the_given_arrays():
    iso = cylinder_isometry(0.7, (0.0, 0.0, 3.0, 2.0))
    xp = np.random.default_rng(3).uniform([0, 0], [3, 2], size=(50, 2))
    # stale values in the given arrays must not leak into the frames
    out = tuple(np.full(shape, np.nan) for shape in
                ((3, 50), (3, 3, 50), (3, 3, 50), (2, 3, 3, 50)))
    got = iso.frames(xp, out=out)
    for filled, given, fresh in zip(got, out, iso.frames(xp)):
        assert filled is given
        npt.assert_array_equal(filled, fresh)


@pytest.mark.parametrize("n3", [2, 3, 4, 5, 6])
def test_corrector_table_is_mirror_exact(n3):
    # node layer n3 - k is diag(-1, -1, 1) times layer k, bit for bit: the
    # sampler keeps the slots k <= n3/2 only
    src = CellCorrectorSource(RVEGrid(4, 4, n3, 2.0, 1.0),
                              checker_phases(4, 4), CONTRAST5, tol=1e-10)
    for G in ([[1.0, 0.3], [0.3, -0.5]], [[0.0, 0.5], [0.5, 0.0]]):
        values = src.corrector(G)
        assert np.max(np.abs(values)) > 0.0
        npt.assert_array_equal(values[:, :, ::-1] * [-1.0, -1.0, 1.0],
                               values)


def test_sampler_refuses_correctors_without_the_mirror_symmetry(monkeypatch):
    # the folded plan would silently misread such a table
    fam = build_recovery(cylinder_isometry(1.0), RecoveryConfig(patch_size=0.5),
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
        G[:, :, a] = (sampler.deformation(xp + e, x3)
                      - sampler.deformation(xp - e, x3)) / (2.0 * s)
    G[:, :, 2] = (sampler.deformation(xp, x3 + s3)
                  - sampler.deformation(xp, x3 - s3)) / (2.0 * s3 * sampler.h)
    return G


def _smooth_points(eps, hx, count=100):
    """Random midplane points whose FD stencils dodge interpolation breaks
    and cutoff-ramp kinks, so the centered difference sees a smooth map."""
    pts = np.random.default_rng(7).uniform(0.02, 0.98, size=(400, 2))
    frac = (pts / (eps * hx)) % 1.0
    keep = np.all((frac > 0.1) & (frac < 0.9), axis=1)
    for edge in (0.0, 0.5, 1.0):
        for dist in (1.0 / 16.0, 2.0 / 16.0):
            for k in (0, 1):
                keep &= np.abs(np.abs(pts[:, k] - edge) - dist) > 6e-3
    pts = pts[keep]
    assert len(pts) >= count
    return pts[:count]


def test_scaled_gradient_matches_finite_difference():
    fam = build_recovery(cylinder_isometry(1.0), RecoveryConfig(patch_size=0.5),
                         checker_source())
    sampler = fam.sampler(0.2)
    grid = fam.source.grid
    xp = _smooth_points(sampler.eps, grid.box_side / grid.n1)
    x3 = 0.06                       # inside one thickness segment of n3 = 4
    F = sampler.scaled_gradient(xp, x3)
    errs = {}
    for s in (4e-3, 2e-3):
        G = _fd_gradient(sampler, xp, x3, s, 0.01)
        errs[s] = np.max(np.abs((G - F)[:, :, :2]))
        # thickness interpolation is affine within a segment: FD is exact
        assert np.max(np.abs((G - F)[:, :, 2])) < 1e-9
    assert errs[4e-3] < 2.5e-4
    assert errs[2e-3] < 6e-5
    assert 3.2 < errs[4e-3] / errs[2e-3] < 4.8      # second-order stencil


def test_gradient_is_rotation_plus_order_h():
    fam = build_recovery(cylinder_isometry(1.0), RecoveryConfig(patch_size=0.5),
                         checker_source())
    sampler_c = fam.sampler(0.08)
    xp = _smooth_points(sampler_c.eps, 0.25, count=60)
    resid = {}
    for h in (0.08, 0.04):
        sampler = fam.sampler(h)
        plan = sampler.plan(xp)
        R = np.stack([plan.frames["d1y"], plan.frames["d2y"],
                      plan.frames["n"]], axis=2)
        F = sampler.scaled_gradient(xp, 0.06, plan=plan)
        resid[h] = np.max(np.abs(F - R))
    assert resid[0.08] < 1e-2
    assert 1.6 < resid[0.08] / resid[0.04] < 2.7    # residual shrinks like h


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------

def test_flat_energy_is_zero():
    fam = build_recovery(flat_isometry(), RecoveryConfig(patch_size=0.5),
                         checker_source())
    assert evaluate_scaled_energy(fam.sampler(0.3)) == 0.0


def test_energy_deterministic():
    fam = build_recovery(cylinder_isometry(1.0), RecoveryConfig(patch_size=0.5),
                         checker_source())
    sampler = fam.sampler(0.4)
    first = evaluate_scaled_energy(sampler)
    assert evaluate_scaled_energy(sampler) == first
    assert first > 0.0


def test_quadrature_must_resolve_microscale():
    fam = build_recovery(cylinder_isometry(1.0), RecoveryConfig(patch_size=0.5),
                         checker_source())
    with pytest.raises(ConfigError):
        evaluate_scaled_energy(fam.sampler(0.4), cells_per_scale=1)


def test_cells_per_scale_is_read_as_in_the_config():
    fam = build_recovery(cylinder_isometry(1.0), RecoveryConfig(patch_size=0.5),
                         checker_source())
    sampler = fam.sampler(0.4)
    for bad in (2.5, 4.0, True, "4"):
        with pytest.raises(ConfigError, match="cells_per_scale must be an int"):
            evaluate_scaled_energy(sampler, cells_per_scale=bad)
    for bad in (1, 0, -3):
        with pytest.raises(ConfigError, match="cells_per_scale must be >= 2"):
            evaluate_scaled_energy(sampler, cells_per_scale=bad)
    assert evaluate_scaled_energy(sampler, cells_per_scale=np.int64(4)) \
        == evaluate_scaled_energy(sampler)


class _RotatedSampler:
    """Wraps a sampler, rigidly rotating every deformation gradient."""

    def __init__(self, inner, R):
        self.inner = inner
        self.R = R
        self.family = inner.family
        self.h = inner.h
        self.eps = inner.eps

    def plan(self, xp, axes=None, work=None):
        return self.inner.plan(xp, axes=axes, work=work)

    def scaled_gradient(self, xp, x3, plan=None):
        F = self.inner.scaled_gradient(xp, x3, plan=plan)
        return np.einsum("ij,mjk->mik", self.R, F)


def test_energy_objectivity():
    axis = np.array([1.0, 2.0, 3.0]) / np.sqrt(14.0)
    K = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    R = np.eye(3) + np.sin(0.7) * K + (1.0 - np.cos(0.7)) * (K @ K)
    fam = build_recovery(cylinder_isometry(1.0), RecoveryConfig(patch_size=0.5),
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
    # constant curvature: any resolution integrates exactly
    npt.assert_allclose(limit_energy(M, cylinder_isometry(1.0), resolution=5),
                        limit_energy(M, cylinder_isometry(1.0)), rtol=1e-13)


def test_limit_energy_resolution_is_a_positive_index():
    M = np.diag([0.5, 0.5, 0.4])
    iso = cylinder_isometry(1.0)
    for bad in (2.5, 3.0, True, "32"):
        with pytest.raises(ConfigError, match="resolution must be an int"):
            limit_energy(M, iso, resolution=bad)
    for bad in (0, -1):
        with pytest.raises(ConfigError, match="resolution must be >= 1"):
            limit_energy(M, iso, resolution=bad)
    assert limit_energy(M, iso, resolution=np.int64(32)) \
        == limit_energy(M, iso)


def test_limit_energy_is_the_pointwise_midpoint_rule():
    form = contrast5_source(4).effective()
    for iso in (cylinder_isometry(1.0), cylinder_isometry(0.7, (0.0, 0.0, 2.0, 1.0))):
        x0, y0, x1, y1 = iso.domain
        n = 32
        xs = x0 + (np.arange(n) + 0.5) * (x1 - x0) / n
        ys = y0 + (np.arange(n) + 0.5) * (y1 - y0) / n
        II = iso.second_form(np.array([(x, y) for x in xs for y in ys]))
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
    # 8x8x4 checkerboard of contrast 5, cylinder r = 1, h = 0.1; the value
    # was computed by the per-patch, per-layer evaluation
    fam = build_recovery(cylinder_isometry(1.0), RecoveryConfig(gamma=2.0),
                         contrast5_source(8))
    npt.assert_allclose(evaluate_scaled_energy(fam.sampler(0.1)),
                        0.6373825732229864, rtol=1e-12)


def test_gap_trend_single_phase():
    grid = RVEGrid(4, 4, 4, 1.0, 1.0)
    src = CellCorrectorSource(grid, uniform_phases(4, 4), ONE_PHASE, tol=1e-10)
    cfg = RecoveryConfig(gamma=1.0, patch_size=0.5,
                         h_schedule=[0.4, 0.2, 0.1])
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
    fam = build_recovery(cylinder_isometry(1.0), RecoveryConfig(patch_size=0.5),
                         checker_source())
    with pytest.raises(ConfigError):
        recovery_gaps(fam)
    out = recovery_gaps(fam, h_schedule=[0.4])
    assert set(out) == {"h_schedule", "scaled", "limit", "gaps"}


def test_recovery_gaps_validate_their_schedule():
    # the rule of RecoveryConfig.h_schedule: finite, positive, decreasing
    fam = build_recovery(cylinder_isometry(1.0), RecoveryConfig(patch_size=0.5),
                         checker_source())
    for bad in ([float("inf")], [0.4, 0.8], [0.4, 0.4], [0.4, -0.1], [],
                [0.4, "0.2"], [True], 0.4):
        with pytest.raises(ConfigError, match="recovery_gaps: h_schedule"):
            recovery_gaps(fam, h_schedule=bad)
    out = recovery_gaps(fam, h_schedule=(np.float64(0.4),))
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
    fam = build_recovery(flat_isometry(), RecoveryConfig(patch_size=0.5),
                         checker_source())
    with pytest.raises(ConfigError, match="isometry"):
        recovery_gaps(fam, h_schedule=[0.4])
