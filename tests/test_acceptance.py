"""Acceptance gate: one test per shipped claim, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion (add -s for the measured numbers behind each verdict).
"""

import json
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt

from platecell import (
    MicrostructureModel,
    PhaseGrid,
    RVEGrid,
    RecoveryConfig,
    CellCorrectorSource,
    birkhoff_average,
    birkhoff_rate,
    build_recovery,
    coercivity_constants,
    cylinder_isometry,
    decompose_mixed,
    effective_form,
    ensemble_effective,
    gamma_rescale_check,
    isotropy_report,
    material_table,
    orthogonality_report,
    qgamma_eval,
    random_mixed_field,
    rasterize,
    recovery_gaps,
    sample_realization,
)
from platecell.cli import main
from platecell.decomposition import (
    cof_sym_grad,
    decompose_second_order,
    div_cof_residual,
    hessian_pairing,
)
from platecell.material import svk_energy
from oracles import (
    laminate_bending_reference,
    pooled_binomial_std,
    svk_taylor_exact,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"


def report(num, text):
    print("[criterion %02d] PASS: %s" % (num, text))


def load_config(name):
    with open(CONFIG_DIR / name) as fh:
        return json.load(fh)


def config_pieces(cfg):
    """(grid, phases, materials) for a shipped config."""
    g = cfg["grid"]
    grid = RVEGrid(g["n1"], g["n2"], g["n3"], g["gamma"], g["L"])
    model = MicrostructureModel.from_dict(cfg["model"])
    r = sample_realization(model, cfg["seed"], grid.box_side)
    return grid, rasterize(r, grid.n1, grid.n2), material_table(cfg["materials"])


def band_scalar(n, seed, modes=5):
    rng = np.random.default_rng(seed)
    x = np.arange(n) / n
    X, Y = np.meshgrid(x, x, indexing="ij")
    f = np.zeros((n, n))
    for _ in range(modes):
        kx, ky = rng.integers(-4, 5, size=2)
        f += rng.normal() * np.cos(2 * np.pi * (kx * X + ky * Y)
                                   + rng.uniform(0, 2 * np.pi))
    return f


def test_criterion_01_homogeneous_plate_oracle():
    # single phase (1, 1), 16x16x8, each gamma: q(I) = 5/9, q(e1 x e1) = 2/9
    # within 1%, under 30 s per gamma
    mats = material_table([(0, 1.0, 1.0)])
    phases = PhaseGrid(16, 16, 1.0, np.zeros((16, 16), dtype=int))
    worst = 0.0
    slowest = 0.0
    for gamma in (0.5, 1.0, 2.0):
        t0 = time.perf_counter()
        form = effective_form(RVEGrid(16, 16, 8, gamma, 1.0), phases, mats,
                              tol=1e-8)
        elapsed = time.perf_counter() - t0
        rel_i = abs(qgamma_eval(form, np.eye(2)) - 5.0 / 9.0) / (5.0 / 9.0)
        rel_e = abs(qgamma_eval(form, np.diag([1.0, 0.0])) - 2.0 / 9.0) \
            / (2.0 / 9.0)
        assert rel_i <= 0.01 and rel_e <= 0.01
        assert elapsed < 30.0
        worst = max(worst, rel_i, rel_e)
        slowest = max(slowest, elapsed)
    report(1, "max rel err %.2e, slowest gamma %.1fs" % (worst, slowest))


def test_criterion_02_coercivity_sandwich():
    # every shipped two-phase config: qgamma_eval within the phase-wise
    # eigenvalue bounds [(c1/12) 0.95 |G|^2, (c2/12) 1.05 |G|^2] on 50 G
    configs = sorted(CONFIG_DIR.glob("*.json"))
    assert len(configs) >= 3
    rng = np.random.default_rng(42)
    margins = []
    for path in configs:
        grid, phases, mats = config_pieces(load_config(path.name))
        form = effective_form(grid, phases, mats, tol=1e-8)
        c1 = min(coercivity_constants(m.q0)[0] for m in mats.values())
        c2 = max(coercivity_constants(m.q0)[1] for m in mats.values())
        for _ in range(50):
            A = rng.normal(size=(2, 2))
            G = 0.5 * (A + A.T)
            s = float(np.sum(G * G))
            q = qgamma_eval(form, G)
            assert 0.95 * (c1 / 12.0) * s <= q <= 1.05 * (c2 / 12.0) * s
            margins.append(q / ((c1 / 12.0) * s))
    report(2, "%d configs x 50 loads inside the sandwich, min lower margin "
              "x%.2f" % (len(configs), min(margins)))


def test_criterion_03_gamma_rescale_identity():
    # fixed checkerboard contrast 5: gamma=2 discrepancy halves (+-25%)
    # under one mesh doubling; gamma=1 is exactly zero
    mats = material_table([(0, 1.0, 1.0), (1, 5.0, 5.0)])
    r = sample_realization(
        MicrostructureModel("checkerboard", period_hint=0.5), 0, 1.0)
    d = {}
    for n, n3 in ((8, 4), (16, 8)):
        grid = RVEGrid(n, n, n3, 2.0, 1.0)
        d[n] = gamma_rescale_check(grid, rasterize(r, n, n), mats, tol=1e-8)
    ratio = d[16] / d[8]
    assert 0.375 <= ratio <= 0.625
    zero = gamma_rescale_check(RVEGrid(8, 8, 4, 1.0, 1.0), rasterize(r, 8, 8),
                               mats, tol=1e-8)
    assert zero == 0.0
    report(3, "discrepancy %.4f -> %.4f (ratio %.3f), gamma=1 exactly 0"
              % (d[8], d[16], ratio))


def test_criterion_04_laminate_oracle():
    # stripes contrast 10 at 64x4x8 vs the reduced-dimension reference
    mats = material_table([(0, 1.0, 1.0), (1, 10.0, 10.0)])
    r = sample_realization(
        MicrostructureModel("periodic_texture", period_hint=1.0), 0, 1.0)
    form = effective_form(RVEGrid(64, 4, 8, 1.0, 1.0), rasterize(r, 64, 4),
                          mats, tol=1e-9)
    col = rasterize(r, 256, 1).cell_phase[:, 0]
    ref, _ = laminate_bending_reference(col, {0: (1.0, 1.0), 1: (10.0, 10.0)},
                                        1.0, 1.0, 32)
    nz = np.abs(ref) > 1e-8
    rel = np.max(np.abs(form.voigt3 - ref)[nz] / np.abs(ref)[nz])
    assert rel <= 0.02
    assert np.max(np.abs(form.voigt3[~nz])) <= 1e-10
    report(4, "max entry error %.3f%% (tolerance 2%%)" % (100 * rel))


def test_criterion_05_voronoi_isotropy():
    # contrast 4, 20 seeds: mean-form defect shrinks from 4 to 8 mean
    # spacings and sits below 10% at 8
    mats = material_table([(0, 1.0, 1.0), (1, 4.0, 4.0)])
    model = MicrostructureModel("poisson_voronoi", intensity=1.0)
    seeds = list(range(20))
    defect = {}
    for L, n in ((4.0, 16), (8.0, 32)):
        grid = RVEGrid(n, n, 2, 1.0, L)
        ens = ensemble_effective(model, mats, grid, seeds, tol=1e-7,
                                 threads=4)
        defect[L] = isotropy_report(ens).defect
    assert defect[8.0] < defect[4.0]
    assert defect[8.0] < 0.10
    report(5, "mean-form defect %.3f at L=4 spacings -> %.3f at L=8"
              % (defect[4.0], defect[8.0]))


def test_criterion_06_birkhoff_averages():
    # checkerboard indicator: error <= C eps with C fit on the two coarsest
    r = sample_realization(
        MicrostructureModel("checkerboard", period_hint=1.0), 0, 2.0)
    eps = [0.5, 0.25, 0.125, 0.0625, 0.03125]
    series = birkhoff_average(r, [0.0, 1.0], (0.37, 0.21, 1.50, 1.04), eps)
    C, ok = birkhoff_rate(series)
    assert ok
    # Voronoi mark fraction: 50 seeds within 3 binomial sd of the probability
    model = MicrostructureModel("poisson_voronoi", intensity=6.0,
                                mark_distribution=[0.3, 0.7])
    vals = [birkhoff_average(sample_realization(model, seed, 3.0),
                             [0.0, 1.0], (0.0, 0.0, 3.0, 3.0),
                             [1.0]).averages[0]
            for seed in range(50)]
    gap = abs(float(np.mean(vals)) - 0.7)
    bound = 3.0 * pooled_binomial_std(0.7, 50 * 6.0 * 9.0)
    assert gap <= bound
    report(6, "rate constant C=%.3f holds on all scales; mark fraction off "
              "by %.4f (3 sd = %.4f)" % (C, gap, bound))


def test_criterion_07_decomposition_identities():
    # 10 seeded fields at 16x16x8: orthogonality + Pythagoras <= 1e-8 at CG
    # tol 1e-10; idempotent re-split; Hessian/cofactor cross-orthogonality;
    # div-cof residual decreasing at the discretization order
    grid = RVEGrid(16, 16, 8, 1.0, 1.0)
    worst = 0.0
    for seed in range(10):
        field = random_mixed_field(grid, seed)
        dec = decompose_mixed(field, tol=1e-10)
        worst = max(worst, max(orthogonality_report(field, dec).values()))
    assert worst <= 1e-8
    for seed in (0, 1):
        dec = decompose_mixed(random_mixed_field(grid, seed), tol=1e-10)
        again = decompose_mixed(dec.potential, tol=1e-10)
        scale = np.linalg.norm(dec.potential.values)
        drift = np.linalg.norm(again.potential.values - dec.potential.values)
        assert drift <= 1e-7 * scale
    pair = 0.0
    for seed in range(10):
        A = np.empty((32, 32, 2, 2))
        A[..., 0, 0] = band_scalar(32, 3 * seed)
        A[..., 1, 1] = band_scalar(32, 3 * seed + 1)
        A[..., 0, 1] = A[..., 1, 0] = band_scalar(32, 3 * seed + 2)
        split = decompose_second_order(A, 1.0)
        b = np.stack([band_scalar(32, 900 + 2 * seed),
                      band_scalar(32, 901 + 2 * seed)], axis=-1)
        pair = max(pair, hessian_pairing(split, cof_sym_grad(b, 1.0)))
    assert pair <= 1e-8
    res = []
    for n in (32, 64, 128):
        xs = np.arange(n) / n
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        b = np.stack([np.sin(2 * np.pi * (X + 2 * Y)),
                      np.cos(2 * np.pi * (2 * X - Y))], axis=-1)
        res.append(div_cof_residual(b, 1.0, method="fd2"))
    assert res[0] / res[1] >= 3.4 and res[1] / res[2] >= 3.4
    assert div_cof_residual(b, 1.0, method="spectral") <= 1e-10
    report(7, "worst orthogonality %.1e, worst pairing %.1e, fd2 ratios "
              "%.2f / %.2f" % (worst, pair, res[0] / res[1], res[1] / res[2]))


def test_criterion_08_quadratic_expansion():
    # scaled Taylor residual decreases about linearly in t for 20 loads
    rng = np.random.default_rng(12)
    mu, lam = 1.3, 0.7
    mat = material_table([(0, mu, lam)])[0]
    ts = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    last_slopes = []
    for _ in range(20):
        G = rng.normal(size=(3, 3))
        g2 = float(np.sum(G * G))
        rs = []
        for t in ts:
            S = 0.5 * t * (G + G.T)
            quad = 2.0 * mu * np.sum(S * S) + lam * np.trace(S) ** 2
            resid = float(svk_energy(mat, np.eye(3) + t * G)) - quad
            exact = svk_taylor_exact(mu, lam, G, t)
            assert abs(resid - exact) <= 1e-10 * max(1.0, abs(exact))
            rs.append(abs(resid) / (t * t * g2))
        rs = np.array(rs)
        assert np.all(np.diff(rs) < 0)
        slopes = np.diff(np.log(rs)) / np.diff(np.log(ts))
        assert np.all((slopes >= 0.5) & (slopes <= 1.2))
        assert 0.95 <= slopes[-1] <= 1.05      # pure cubic term by t <= 1e-3
        last_slopes.append(slopes[-1])
    report(8, "residual/(t^2|G|^2) ~ t: final-decade slope in [%.3f, %.3f]"
              % (min(last_slopes), max(last_slopes)))


def test_criterion_09_recovery_gap_trend():
    # cylinder r=1, single phase, gamma=1: gaps decreasing, <= 15% at h=0.02
    t0 = time.perf_counter()
    grid = RVEGrid(4, 4, 8, 1.0, 1.0)
    src = CellCorrectorSource(grid,
                              PhaseGrid(4, 4, 1.0, np.zeros((4, 4), dtype=int)),
                              material_table([(0, 1.0, 1.0)]), tol=1e-10)
    cfg = RecoveryConfig(gamma=1.0, h_schedule=[0.08, 0.04, 0.02])
    out = recovery_gaps(build_recovery(cylinder_isometry(1.0), cfg, src))
    elapsed = time.perf_counter() - t0
    gaps = out["gaps"]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 0.15
    assert elapsed < 300.0
    report(9, "relative gaps %.3e > %.3e > %.3e, %.1fs total"
              % (gaps[0], gaps[1], gaps[2], elapsed))


def test_criterion_10_deterministic_artifacts(tmp_path):
    # identical config + --deterministic: byte-identical tensor JSON across
    # two runs and across thread counts 1 and 4
    cfg = str(CONFIG_DIR / "checkerboard_contrast5.json")
    out = tmp_path / "tensor.json"
    blobs = []
    for threads in ("1", "4", "1", "4"):
        assert main(["effective", "--config", cfg, "--out", str(out),
                     "--deterministic", "--threads", threads]) == 0
        blobs.append(out.read_bytes())
    assert all(b == blobs[0] for b in blobs)
    report(10, "4 runs (threads 1/4 x 2) produced %d identical bytes"
               % len(blobs[0]))
