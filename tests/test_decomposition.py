"""Orthogonal splittings: slab Helmholtz-type and planar Hessian projections."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from platecell import (
    ConfigError,
    ConvergenceError,
    MixedField,
    RVEGrid,
    cof_sym_grad,
    decompose_mixed,
    decompose_second_order,
    div_cof_residual,
    hessian_pairing,
    orthogonality_report,
    random_mixed_field,
    to_gauss,
)
from platecell import _mesh, decomposition
from platecell._krylov import block_pcg
from platecell._mesh import nodes
from platecell.decomposition import (
    _eigenbasis_1d,
    _scalar_tables,
)
from oracles import gradient_field, mixed_inner, mixed_norm, \
    reference_decompose_mixed, reference_orthogonality_report, \
    reference_to_gauss
from test_recovery import BAD_TOLERANCES

GRID = RVEGrid(6, 6, 4, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Mixed (slab) splitting
# ---------------------------------------------------------------------------

def test_mixed_field_validation():
    with pytest.raises(ConfigError):
        MixedField(np.zeros((6, 6, 4, 3)), GRID)            # needs n3+1
    with pytest.raises(ConfigError):
        MixedField(np.zeros((6, 6, 5, 3)), GRID, layout="cells")
    with pytest.raises(ConfigError):
        MixedField(np.zeros((10, 8, 3)), GRID, layout="gauss")


def test_random_field_deterministic():
    a = random_mixed_field(GRID, 7)
    b = random_mixed_field(GRID, 7)
    npt.assert_array_equal(a.values, b.values)
    c = random_mixed_field(GRID, 8)
    assert not np.array_equal(c.values, a.values)


@pytest.mark.parametrize("seed", range(10))
def test_splitting_orthogonality(seed):
    f = random_mixed_field(GRID, seed)
    rep = orthogonality_report(f, tol=1e-10)
    for key, val in rep.items():
        assert val <= 1e-8, "%s = %g" % (key, val)


def test_constant_field_is_pure_mean():
    vals = np.zeros((GRID.n1, GRID.n2, GRID.n3 + 1, 3))
    vals[:] = [0.3, -1.2, 0.7]
    dec = decompose_mixed(MixedField(vals, GRID))
    npt.assert_allclose(dec.mean, [0.3, -1.2, 0.7], atol=1e-14)
    assert mixed_norm(dec.potential) <= 1e-12
    assert mixed_norm(dec.solenoidal) <= 1e-12


def test_gradient_input_has_no_remainder():
    rng = np.random.default_rng(3)
    psi = rng.standard_normal((GRID.n1, GRID.n2, GRID.n3 + 1))
    f = gradient_field(GRID, psi)
    dec = decompose_mixed(f, tol=1e-12)
    scale = mixed_norm(f)
    # in-plane means vanish by periodicity; the vertical mean is genuine
    # (free ends), and subtracting it keeps the rest a gradient
    assert np.max(np.abs(dec.mean[:2])) <= 1e-12 * scale
    assert mixed_norm(dec.solenoidal) <= 1e-8 * scale


def test_curl_input_has_no_potential():
    # (-d2 w, d1 w, 0) pairs to zero against every discrete gradient
    rng = np.random.default_rng(4)
    w = rng.standard_normal((GRID.n1, GRID.n2, GRID.n3 + 1))
    gw = gradient_field(GRID, w).values
    vals = np.stack([-gw[..., 1], gw[..., 0], np.zeros_like(gw[..., 0])],
                    axis=-1)
    f = MixedField(vals, GRID, layout="gauss")
    dec = decompose_mixed(f, tol=1e-12)
    scale = mixed_norm(f)
    assert np.max(np.abs(dec.mean)) <= 1e-10 * scale
    assert mixed_norm(dec.potential) <= 1e-8 * scale


def test_splitting_idempotent():
    f = random_mixed_field(GRID, 12)
    dec = decompose_mixed(f, tol=1e-11)
    again_p = decompose_mixed(dec.potential, tol=1e-11)
    scale = max(mixed_norm(dec.potential), 1e-30)
    assert np.max(np.abs(again_p.mean)) <= 1e-9 * scale
    assert mixed_norm(again_p.solenoidal) <= 1e-7 * scale
    diff = MixedField(again_p.potential.values - dec.potential.values,
                      GRID, layout="gauss")
    assert mixed_norm(diff) <= 1e-7 * scale

    again_s = decompose_mixed(dec.solenoidal, tol=1e-11)
    s_scale = max(mixed_norm(dec.solenoidal), 1e-30)
    assert np.max(np.abs(again_s.mean)) <= 1e-9 * s_scale
    assert mixed_norm(again_s.potential) <= 1e-7 * s_scale


def test_pythagoras_explicit():
    f = random_mixed_field(GRID, 21)
    dec = decompose_mixed(f, tol=1e-11)
    volume = GRID.box_side ** 2
    total = mixed_inner(f, f)
    parts = (float(dec.mean @ dec.mean) * volume
             + mixed_inner(dec.potential, dec.potential)
             + mixed_inner(dec.solenoidal, dec.solenoidal))
    assert abs(total - parts) <= 1e-8 * total


def test_decompose_mixed_rejects_bad_tol():
    for tol in (0.0, -1e-8, 1.0, 1e300, float("nan")):
        with pytest.raises(ConfigError):
            decompose_mixed(random_mixed_field(GRID, 0), tol=tol)


@pytest.mark.parametrize("bad", BAD_TOLERANCES + [None])
def test_decompose_mixed_reads_tol_strictly(bad):
    with pytest.raises(ConfigError, match="decompose_mixed: tol"):
        decompose_mixed(random_mixed_field(GRID, 0), tol=bad)


@pytest.mark.parametrize("n_el, h, periodic",
                         [(2, 0.5, True), (9, 0.3, True), (10, 0.17, True),
                          (2, 0.5, False), (3, 1 / 3, False), (8, 0.125, False)])
def test_eigenbasis_diagonalizes_assembled_1d_matrices(n_el, h, periodic):
    n = n_el if periodic else n_el + 1
    K = np.zeros((n, n))
    M = np.zeros((n, n))
    for e in range(n_el):
        ij = np.ix_([e, (e + 1) % n], [e, (e + 1) % n])
        K[ij] += np.array([[1.0, -1.0], [-1.0, 1.0]]) / h
        M[ij] += h * np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    lam, V = _eigenbasis_1d(n_el, h, periodic)
    npt.assert_allclose(V.T @ M @ V, np.eye(n), atol=1e-13)
    npt.assert_allclose(V.T @ K @ V, np.diag(lam), atol=1e-12 * lam.max())
    assert lam[0] == 0.0 and np.all(lam[1:] > 0)


def test_decomposition_unchanged_by_warm_tables():
    f = random_mixed_field(GRID, 3)
    _mesh.nodes.cache_clear()
    decomposition._eigenbases.cache_clear()
    cold = decompose_mixed(f)
    cold_report = orthogonality_report(f, decomposition=cold)
    warm = decompose_mixed(f)
    npt.assert_array_equal(warm.psi, cold.psi)
    npt.assert_array_equal(warm.mean, cold.mean)
    npt.assert_array_equal(warm.potential.values, cold.potential.values)
    npt.assert_array_equal(warm.solenoidal.values, cold.solenoidal.values)
    assert orthogonality_report(f, decomposition=warm) == cold_report


def test_gauss_layout_input_splits_bitwise_as_nodal():
    f = random_mixed_field(GRID, 5)
    g = to_gauss(f)
    assert g.layout == "gauss" and to_gauss(g) is g
    kept = g.values.copy()
    nodal, gauss = decompose_mixed(f), decompose_mixed(g)
    npt.assert_array_equal(gauss.mean, nodal.mean)
    npt.assert_array_equal(gauss.psi, nodal.psi)
    npt.assert_array_equal(gauss.potential.values, nodal.potential.values)
    npt.assert_array_equal(gauss.solenoidal.values, nodal.solenoidal.values)
    assert gauss.residuals == nodal.residuals
    assert orthogonality_report(g, nodal) == orthogonality_report(f, nodal)
    assert orthogonality_report(g) == orthogonality_report(f)
    npt.assert_array_equal(g.values, kept)      # neither writes into it


@pytest.mark.parametrize("shape,block", [
    ((48, 48, 4, 1.0), None), ((6, 10, 3, 1.7), None),
    ((34, 18, 5, 1.0), None), ((6, 10, 3, 1.7), 7)])
@pytest.mark.parametrize("layout", ["nodes", "gauss"])
def test_decompose_path_bitwise_as_whole_slab_reference(monkeypatch, shape,
                                                        block, layout):
    # 48x48x4 holds 9 whole blocks of elements, 6x10x3 one partial block,
    # 34x18x5 two whole ones and a partial one, and blocks of 7 elements
    # split 6x10x3 into 25 whole ones and a partial one
    if block is not None:
        monkeypatch.setattr(decomposition, "_BLOCK", block)
    grid = RVEGrid(*shape[:3], 1.0, shape[3])
    for seed in range(2):
        f = random_mixed_field(grid, seed)
        g = to_gauss(f)
        npt.assert_array_equal(g.values, reference_to_gauss(f).values)
        field = f if layout == "nodes" else g
        dec = decompose_mixed(field)
        mean, pot, sol, psi, res = reference_decompose_mixed(field)
        npt.assert_array_equal(dec.mean, mean)
        npt.assert_array_equal(dec.potential.values, pot)
        npt.assert_array_equal(dec.solenoidal.values, sol)
        npt.assert_array_equal(dec.psi, psi)
        assert dec.residuals == [1.0, res]
        want = reference_orthogonality_report(field, mean, pot, sol)
        assert want["reconstruction"] == 0.0
        assert orthogonality_report(field, dec) == want
        assert orthogonality_report(field) == want


def test_decompose_path_peak_below_four_fields():
    # tracemalloc counts numpy's own allocations, whatever the allocator
    # does with them: the Gauss-layout field, the potential and the
    # solenoidal part take three fields; element-sized temporaries and
    # blocks must stay below one more
    grid = RVEGrid(48, 48, 4, 1.0, 1.0)
    f = random_mixed_field(grid, 3)

    def run():
        g = to_gauss(f)
        orthogonality_report(g, decompose_mixed(g))

    run()                               # builds the memoized tables
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * grid.n_elements * 8 * 3 * 8


@pytest.mark.parametrize("shape", [(48, 48, 4), (16, 16, 8)])
def test_mean_matches_axis_sum(shape):
    grid = RVEGrid(*shape, 1.0, 1.0)
    f = random_mixed_field(grid, 11)
    values = to_gauss(f).values
    want = values.sum(axis=(0, 1)) / (8 * grid.n_elements)
    npt.assert_allclose(decompose_mixed(f).mean, want, rtol=0,
                        atol=1e-14 * np.abs(f.values).max())


def jacobi_pcg_potential(field, mean, tol):
    """The scalar Poisson solve as an independent Jacobi block_pcg oracle."""
    grid = field.grid
    B, wq = _scalar_tables(grid)
    edof = nodes(grid.n1, grid.n2, grid.n3)
    n = grid.n_nodes
    ke = wq * np.einsum("qci,qcj->ij", B, B)
    diag = np.bincount(edof.ravel(),
                       weights=np.tile(np.diag(ke), grid.n_elements),
                       minlength=n)

    def matvec(u):
        ve = u[edof, 0] @ ke
        return np.bincount(edof.ravel(), weights=ve.ravel(),
                           minlength=n)[:, None]

    def project(u):
        u -= u.mean(axis=0)
        return u

    fe = wq * np.einsum("qcl,eqc->el", B, to_gauss(field).values - mean)
    rhs = np.bincount(edof.ravel(), weights=fe.ravel(), minlength=n)
    psi, _ = block_pcg(matvec, lambda r: r / diag[:, None], project,
                       rhs[:, None], tol, 5000)
    return psi[:, 0].reshape(grid.n1, grid.n2, grid.n3 + 1)


def test_direct_solve_matches_jacobi_pcg():
    # non-square slab, L != 1 and odd n3 guard the hx, hy, hz scalings
    grid = RVEGrid(6, 10, 3, 1.0, 1.7)
    f = random_mixed_field(grid, 31)
    dec = decompose_mixed(f)
    want = jacobi_pcg_potential(f, dec.mean, 1e-12)
    npt.assert_allclose(dec.psi, want, rtol=0,
                        atol=1e-9 * np.abs(want).max())
    assert dec.residuals[0] == 1.0 and dec.residuals[1] <= 1e-13


def test_direct_solve_orthogonality_at_rounding_level():
    # criterion 07's grid (the criterion itself keeps its 1e-8 bound)
    grid = RVEGrid(16, 16, 8, 1.0, 1.0)
    worst = 0.0
    for seed in range(10):
        f = random_mixed_field(grid, seed)
        worst = max(worst, max(orthogonality_report(f).values()))
    assert worst <= 1e-13


def test_unreachable_tol_raises_with_verified_residual():
    with pytest.raises(ConvergenceError) as info:
        decompose_mixed(random_mixed_field(GRID, 1), tol=1e-30)
    first, last = info.value.residual_history
    assert first == [1.0]
    assert 1e-30 < last[0] <= 1e-13


# ---------------------------------------------------------------------------
# Second-order (planar Hessian) splitting
# ---------------------------------------------------------------------------

def spectral_hessian(psi, box_side=1.0):
    n = psi.shape[0]
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=box_side / n)
    kx, ky = np.meshgrid(k1, k1, indexing="ij")
    ph = np.fft.fft2(psi)
    H = np.empty((n, n, 2, 2), dtype=complex)
    H[..., 0, 0] = -kx * kx * ph
    H[..., 0, 1] = -kx * ky * ph
    H[..., 1, 0] = H[..., 0, 1]
    H[..., 1, 1] = -ky * ky * ph
    return np.fft.ifft2(H, axes=(0, 1)).real


def band_limited_scalar(n, seed, modes=5):
    rng = np.random.default_rng(seed)
    psi = np.zeros((n, n))
    x = np.arange(n) / n
    X, Y = np.meshgrid(x, x, indexing="ij")
    for _ in range(modes):
        kx, ky = rng.integers(-4, 5, size=2)
        psi += rng.standard_normal() * np.cos(
            2 * np.pi * (kx * X + ky * Y) + rng.uniform(0, 2 * np.pi))
    return psi


def test_hessian_input_leaves_no_remainder():
    psi = band_limited_scalar(32, 0)
    A = spectral_hessian(psi)
    split = decompose_second_order(A)
    scale = np.max(np.abs(A))
    assert np.max(np.abs(split.remainder)) <= 1e-10 * scale
    assert np.max(np.abs(split.mean)) <= 1e-12 * scale
    npt.assert_allclose(spectral_hessian(split.psi), split.hessian,
                        atol=1e-10 * scale)


def test_constant_input_is_pure_mean():
    A = np.zeros((16, 16, 2, 2))
    A[:] = [[1.0, 0.25], [0.25, -2.0]]
    split = decompose_second_order(A)
    npt.assert_allclose(split.mean, [[1.0, 0.25], [0.25, -2.0]], atol=1e-14)
    assert np.max(np.abs(split.hessian)) <= 1e-13
    assert np.max(np.abs(split.remainder)) <= 1e-13


def test_second_order_split_reconstructs_and_projects():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((24, 24, 2, 2))
    A = 0.5 * (A + np.swapaxes(A, 2, 3))
    split = decompose_second_order(A)
    npt.assert_allclose(split.mean + split.hessian + split.remainder, A,
                        atol=1e-12)
    # remainder is orthogonal to the Hessian component
    ip = float(np.sum(split.hessian * split.remainder))
    hn = float(np.sum(split.hessian ** 2))
    rn = float(np.sum(split.remainder ** 2))
    assert abs(ip) <= 1e-10 * np.sqrt(hn * rn)
    # projecting twice changes nothing
    again = decompose_second_order(split.hessian)
    npt.assert_allclose(again.hessian, split.hessian, atol=1e-12)
    assert np.max(np.abs(again.remainder)) <= 1e-12


def test_cofactor_fields_have_no_hessian_part():
    n = 32
    x = np.arange(n) / n
    X, Y = np.meshgrid(x, x, indexing="ij")
    b = np.stack([np.sin(2 * np.pi * Y) + 0.3 * np.cos(2 * np.pi * (X + Y)),
                  np.cos(2 * np.pi * X)], axis=-1)
    C = cof_sym_grad(b)
    split = decompose_second_order(C)
    assert np.max(np.abs(split.hessian)) <= 1e-10 * np.max(np.abs(C))
    # and the structural pairing against an unrelated field's Hessian part
    other = decompose_second_order(
        spectral_hessian(band_limited_scalar(n, 9)))
    assert hessian_pairing(other, C) <= 1e-8


def test_second_order_validation():
    with pytest.raises(ConfigError):
        decompose_second_order(np.zeros((8, 6, 2, 2)))
    bad = np.zeros((8, 8, 2, 2))
    bad[..., 0, 1] = 1.0
    with pytest.raises(ConfigError):
        decompose_second_order(bad)
    with pytest.raises(ConfigError):
        decompose_second_order(np.zeros((8, 8, 2, 2)), box_side=0.0)


def _asymmetric(n):
    A = np.zeros((n, n, 2, 2))
    A[..., 0, 1] = 1.0
    return A


_SPLIT = decompose_second_order(np.zeros((8, 8, 2, 2)))


@pytest.mark.parametrize("call, name, refusals", [
    (decompose_second_order, "decompose_second_order: A",
     ((np.zeros((8, 6, 2, 2)), "expected a square"),
      (_asymmetric(8), "matrix field is not symmetric"))),
    (lambda A: hessian_pairing(_SPLIT, A), "hessian_pairing: other",
     ((np.zeros((8, 6, 2, 2)), "expected a square"),
      (_asymmetric(8), "matrix field is not symmetric"))),
    (cof_sym_grad, "cof_sym_grad: b",
     ((np.zeros((8, 6, 2)), "expected a square"),)),
    (div_cof_residual, "div_cof_residual: b",
     ((np.zeros((8, 6, 2)), "expected a square"),)),
])
def test_field_refusals_name_their_argument(call, name, refusals):
    for bad, what in refusals:
        with pytest.raises(ConfigError) as err:
            call(bad)
        assert str(err.value).startswith("%s: %s" % (name, what))


# ---------------------------------------------------------------------------
# div(cof grad b) = 0
# ---------------------------------------------------------------------------

def test_div_cof_affine_exactly_zero():
    b = np.zeros((16, 16, 2))
    assert div_cof_residual(b, grad=np.array([[1.0, 2.0], [3.0, 4.0]])) == 0.0
    assert div_cof_residual(b, grad=np.array([[1.0, 2.0], [3.0, 4.0]]),
                            method="fd2") == 0.0


def test_div_cof_spectral_rounding_level():
    n = 64
    x = np.arange(n) / n
    X, Y = np.meshgrid(x, x, indexing="ij")
    b = np.stack([np.sin(2 * np.pi * Y), np.zeros_like(X)], axis=-1)
    assert div_cof_residual(b) <= 1e-10
    rng = np.random.default_rng(6)
    smooth = np.stack([band_limited_scalar(n, 61), band_limited_scalar(n, 62)],
                      axis=-1)
    assert div_cof_residual(smooth, grad=rng.standard_normal((2, 2))) <= 1e-10


def test_div_cof_fd2_second_order():
    # needs genuinely anisotropic modes: for axis-aligned or diagonal modes
    # the centered-difference divergence of a cofactor cancels identically
    res = []
    for n in (32, 64, 128):
        x = np.arange(n) / n
        X, Y = np.meshgrid(x, x, indexing="ij")
        b = np.stack([np.sin(2 * np.pi * (X + 2 * Y)),
                      np.cos(2 * np.pi * (2 * X - Y))], axis=-1)
        res.append(div_cof_residual(b, method="fd2"))
    r1 = res[0] / res[1]
    r2 = res[1] / res[2]
    assert 3.4 <= r1 <= 4.6
    assert 3.4 <= r2 <= 4.6


def test_div_cof_validation():
    b = np.zeros((8, 8, 2))
    with pytest.raises(ConfigError):
        div_cof_residual(b, method="fd4")
    with pytest.raises(ConfigError):
        div_cof_residual(b, grad=np.zeros((3, 3)))
    with pytest.raises(ConfigError):
        div_cof_residual(np.zeros((8, 6, 2)))
