"""Cell problem: energies, correctors, effective tensors, rescaling identity."""

import gc
import json
import math
import weakref
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from platecell import (
    BENDING,
    MEMBRANE,
    CellLoad,
    CellOperator,
    ConfigError,
    ConvergenceError,
    CorrectorField,
    MicrostructureModel,
    NumericalError,
    PhaseGrid,
    RVEGrid,
    coercivity_constants,
    coupled_tensor,
    effective_form,
    gamma_rescale_check,
    isotropic_form,
    material_table,
    qgamma_eval,
    rasterize,
    sample_realization,
    solve_corrector,
    unit_loads,
)
import platecell.cellsolve as cellsolve
from platecell._krylov import block_pcg
from platecell._mesh import GAUSS, nodes
from platecell.material import SQRT2
from oracles import (
    cell_energy,
    laminate_bending_reference,
    plane_stress_form,
    restrict,
    single_phase_bending_discrete,
)
from test_recovery import BAD_TOLERANCES

E1 = np.array([[1.0, 0.0], [0.0, 0.0]])
E2 = np.array([[0.0, 0.0], [0.0, 1.0]])
I2 = np.eye(2)

ONE_PHASE = material_table([(0, 1.0, 1.0)])
CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def uniform_phases(n1, n2, box_side=1.0, phase=0):
    return PhaseGrid(n1, n2, box_side, np.full((n1, n2), phase, dtype=int))


def checker_phases(n1, n2, box_side=1.0):
    ids = (np.add.outer(np.arange(n1), np.arange(n2)) % 2).astype(int)
    return PhaseGrid(n1, n2, box_side, ids)


def stripe_phases(n1, n2, box_side=1.0):
    col = (np.arange(n1) * 2 >= n1).astype(int)
    return PhaseGrid(n1, n2, box_side, np.repeat(col[:, None], n2, axis=1))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tol", [0.0, 1.0, 1e300, float("nan")])
def test_solvers_reject_tol_outside_unit_interval(tol):
    grid = RVEGrid(4, 4, 2, 1.0, 1.0)
    with pytest.raises(ConfigError):
        solve_corrector(grid, uniform_phases(4, 4), ONE_PHASE,
                        CellLoad(G=I2), tol=tol)
    with pytest.raises(ConfigError):
        coupled_tensor(grid, uniform_phases(4, 4), ONE_PHASE, tol=tol)
    with pytest.raises(ConfigError):
        effective_form(grid, uniform_phases(4, 4), ONE_PHASE, tol=tol)


def test_grid_validation():
    with pytest.raises(ConfigError):
        RVEGrid(3, 4, 4, 1.0, 1.0)      # odd n1
    with pytest.raises(ConfigError):
        RVEGrid(4, 4, 1, 1.0, 1.0)      # n3 too small
    with pytest.raises(ConfigError):
        RVEGrid(4, 4, 4, 0.0, 1.0)      # gamma
    with pytest.raises(ConfigError):
        RVEGrid(4, 4, 4, 1.0, -2.0)     # box side
    for bad in (8.5, 8.0, "8", True, np.float64(8.0)):
        with pytest.raises(ConfigError, match="must be an integer"):
            RVEGrid(bad, 8, 4, 1.0, 1.0)   # no truncation or coercion
        with pytest.raises(ConfigError, match="must be an integer"):
            RVEGrid(8, 8, bad, 1.0, 1.0)
    for bad in (True, "2.0", np.inf, np.nan, 10 ** 400):
        with pytest.raises(ConfigError, match="gamma must be a finite number"):
            RVEGrid(8, 8, 4, bad, 1.0)    # no coercion, no infinite gamma
        with pytest.raises(ConfigError, match="box_side must be a finite"):
            RVEGrid(8, 8, 4, 1.0, bad)
    g = RVEGrid(4, 6, 3, 2.0, 1.5)
    assert g.n_nodes == 4 * 6 * 4 and g.n_elements == 4 * 6 * 3
    g = RVEGrid(np.int64(4), np.int32(6), np.int16(3), 2.0, 1.5)
    assert (g.n1, g.n2, g.n3) == (4, 6, 3) and type(g.n1) is int


def test_load_validation():
    with pytest.raises(ConfigError):
        CellLoad(B=[[0.0, 1.0], [0.0, 0.0]])   # not symmetric
    with pytest.raises(ConfigError):
        CellLoad(G=np.zeros((3, 3)))
    ld = CellLoad()
    assert np.all(ld.B == 0) and np.all(ld.G == 0)


def test_operator_rejects_mismatched_inputs():
    grid = RVEGrid(4, 4, 2, 1.0, 1.0)
    with pytest.raises(ConfigError, match="6x4"):
        CellOperator(grid, uniform_phases(6, 4), ONE_PHASE, BENDING)
    with pytest.raises(ConfigError, match="phase ids"):
        CellOperator(grid, uniform_phases(4, 4, phase=3), ONE_PHASE,
                     BENDING)
    with pytest.raises(ConfigError, match="parity"):
        CellOperator(grid, uniform_phases(4, 4), ONE_PHASE, (1, 1, 1))
    # a phase grid rasterized on a box of side 2 is not solved on side 1
    with pytest.raises(ConfigError, match="box_side 2.0 .* box_side 1.0"):
        CellOperator(grid, uniform_phases(4, 4, 2.0), ONE_PHASE, BENDING)
    with pytest.raises(ConfigError, match="box_side"):
        effective_form(grid, uniform_phases(4, 4, 2.0), ONE_PHASE)


@pytest.mark.parametrize("bad", BAD_TOLERANCES + [None])
def test_cell_solve_reads_tol_strictly(bad):
    # no string, bool, None or out-of-range tolerance ends in a bare error
    grid = RVEGrid(4, 4, 2, 1.0, 1.0)
    with pytest.raises(ConfigError, match="cell solve: tol"):
        effective_form(grid, uniform_phases(4, 4), ONE_PHASE, tol=bad)


def test_corrector_field_shape_checked():
    grid = RVEGrid(4, 4, 2, 1.0, 1.0)
    with pytest.raises(ConfigError):
        CorrectorField(np.zeros((4, 4, 2, 3)), grid)  # needs n3+1 layers


# ---------------------------------------------------------------------------
# Cell energy: the operators' closure of a projected field
# ---------------------------------------------------------------------------

def test_zero_load_zero_energy():
    grid = RVEGrid(4, 4, 2, 1.0, 1.0)
    assert cell_energy(grid, uniform_phases(4, 4), ONE_PHASE, CellLoad()) == 0.0


def test_pure_bending_energy_quarter():
    # volume average of x3^2 * Q(e1 x e1) with mu = lambda = 1: 3/12 = 1/4,
    # integrated exactly by 2-point Gauss in the thickness
    grid = RVEGrid(4, 4, 3, 1.0, 1.0)
    e = cell_energy(grid, uniform_phases(4, 4), ONE_PHASE, CellLoad(G=E1))
    assert abs(e - 0.25) < 1e-14


def test_membrane_bending_cross_term_vanishes():
    grid = RVEGrid(4, 4, 3, 2.0, 1.0)
    phases = checker_phases(4, 4)
    mats = material_table([(0, 1.0, 1.0), (1, 3.0, 0.5)])
    B = np.array([[0.7, 0.2], [0.2, -0.1]])
    G = np.array([[0.4, -0.3], [-0.3, 1.1]])
    eb = cell_energy(grid, phases, mats, CellLoad(B=B))
    eg = cell_energy(grid, phases, mats, CellLoad(G=G))
    both = cell_energy(grid, phases, mats, CellLoad(B=B, G=G))
    assert abs(both - eb - eg) < 1e-13 * max(1.0, both)


# ---------------------------------------------------------------------------
# solve_corrector
# ---------------------------------------------------------------------------

def test_zero_load_zero_corrector():
    grid = RVEGrid(4, 4, 2, 1.0, 1.0)
    phi = solve_corrector(grid, uniform_phases(4, 4), ONE_PHASE, CellLoad())
    assert np.all(phi.values == 0.0)


def test_corrector_mean_is_zero():
    grid = RVEGrid(4, 4, 4, 1.5, 1.0)
    phi = solve_corrector(grid, checker_phases(4, 4),
                          material_table([(0, 1.0, 1.0), (1, 5.0, 5.0)]),
                          CellLoad(G=I2), tol=1e-10)
    mean = phi.values.reshape(-1, 3).mean(axis=0)
    assert np.max(np.abs(mean)) < 1e-14 * (1 + np.max(np.abs(phi.values)))
    assert phi.residuals and phi.residuals[-1] <= 1e-10


def test_single_phase_membrane_corrector_analytic():
    """Homogeneous plate under a membrane load: the minimizer is a pure
    transverse profile phi3 = -gamma*lambda/(2mu+lambda) * tr(B) * x3."""
    mu, lam, gamma = 1.3, 0.9, 1.7
    mats = material_table([(0, mu, lam)])
    grid = RVEGrid(4, 4, 4, gamma, 1.0)
    B = np.array([[1.0, 0.0], [0.0, 0.5]])
    phi = solve_corrector(grid, uniform_phases(4, 4), mats,
                          CellLoad(B=B), tol=1e-12)
    x3 = -0.5 + np.arange(grid.n3 + 1) / grid.n3
    want = np.zeros((grid.n1, grid.n2, grid.n3 + 1, 3))
    want[..., 2] = -gamma * lam / (2.0 * mu + lam) * np.trace(B) * x3
    npt.assert_allclose(phi.values, want, atol=1e-8)
    # and the relaxed energy is the plane-stress value
    e = cell_energy(grid, uniform_phases(4, 4), mats, CellLoad(B=B), phi)
    c = 2.0 * mu * lam / (2.0 * mu + lam)
    q2 = 2.0 * mu * np.sum(B * B) + c * np.trace(B) ** 2
    assert abs(e - q2) < 1e-10


def test_energy_monotone_along_iterations():
    grid = RVEGrid(6, 6, 4, 1.0, 1.0)
    phases = checker_phases(6, 6)
    mats = material_table([(0, 1.0, 1.0), (1, 8.0, 2.0)])
    load = CellLoad(G=I2)
    op = CellOperator(grid, phases, mats, BENDING)
    energies = []

    def track(it, x):
        energies.append(op.closure([load], x)[0, 0])

    allocating_pcg(op.matvec, op.precondition, op.project, op.rhs([load]),
                   1e-9, 200, callback=track)
    e0 = op.closure([load], np.zeros(op.ndof))[0, 0]
    assert energies[-1] <= e0  # beats the zero corrector
    diffs = np.diff([e0] + energies)
    assert np.all(diffs <= 1e-12 * (1.0 + e0))


def test_closure_error_is_quadratic_along_iterations():
    # the closure is the energy itself, not its value at a minimizer: at
    # every PCG iterate X_k it is off the converged tensor by exactly the
    # energy Gram matrix (X_k - X*)^T K (X_k - X*) of the errors, to
    # rounding.  On the diagonal a shortcut E0 + x^T f agrees as well, since
    # each column's iterate is orthogonal to its own residual (Galerkin);
    # the columns iterate apart, so the off-diagonal entries tell it apart
    grid = RVEGrid(8, 6, 3, 1.3, 1.5)
    rng = np.random.default_rng(4)
    phases = PhaseGrid(8, 6, 1.5, rng.integers(0, 3, size=(8, 6)))
    mats = material_table([(0, 1.0, 1.0), (1, 6.0, 2.0), (2, 2.5, 0.0)])
    loads = unit_loads()[3:]
    op = CellOperator(grid, phases, mats, BENDING)
    P = fold_matrix(grid, BENDING)
    P = P[:, P.any(axis=0)]
    K = P.T @ (FullSlab(grid, phases, mats).K @ P)
    b = op.rhs(loads)
    converged, _ = op.solve(b, tol=1e-13)
    Q = op.closure(loads, converged)
    iterates = []
    allocating_pcg(op.matvec, op.precondition, op.project, b, 1e-9, 200,
                   callback=lambda it, x: iterates.append(x.copy()))
    assert len(iterates) > 10
    for k, X in enumerate(iterates):
        E = X - converged
        gap = op.closure(loads, X) - Q - E.T @ (K @ E)
        assert np.max(np.abs(gap)) <= 1e-14 * np.max(np.abs(Q)), k


def test_nonconvergence_raises_with_history():
    grid = RVEGrid(6, 6, 4, 1.0, 1.0)
    rng = np.random.default_rng(2)
    phases = PhaseGrid(6, 6, 1.0, rng.integers(0, 2, size=(6, 6)))
    op = CellOperator(grid, phases,
                      material_table([(0, 1.0, 1.0), (1, 8.0, 2.0)]), BENDING)
    load = CellLoad(G=np.array([[1.0, 0.4], [0.4, -0.2]]))
    with pytest.raises(ConvergenceError) as err:
        op.solve(op.rhs([load]), tol=1e-12, max_iter=1)
    assert len(err.value.residual_history) >= 2


def allocating_pcg(matvec, precondition, project, rhs, tol, max_iter,
                   callback=None):
    """The block PCG loop as it was before it updated in place, with the
    kernel projected out of the right-hand side and the solution only, on
    the transposed blocks (a contiguous row per column): every update
    allocates its result.  `callback(it, x)` sees each iterate x, (n, m)."""
    b = project(np.array(rhs, order="F")).T
    bnorm = np.sqrt(np.einsum("ij,ij->i", b, b))
    bnorm = np.where(bnorm > 0, bnorm, 1.0)
    x = np.zeros_like(b)
    r = b.copy()
    z = precondition(r.T).T
    p = z.copy()
    rz = np.einsum("ij,ij->i", r, z)
    rel = np.sqrt(np.einsum("ij,ij->i", r, r)) / bnorm
    history = [rel.copy()]
    active = rel > tol
    it = 0
    while active.any():
        if it >= max_iter:
            raise ConvergenceError(
                "PCG: %d of %d columns above tol=%g after %d iterations "
                "(worst relative residual %.3e)"
                % (int(active.sum()), rhs.shape[1], tol, it, float(rel.max())),
                residual_history=[h.tolist() for h in history])
        q = matvec(p.T).T
        pq = np.einsum("ij,ij->i", p, q)
        ok = active & (pq > 0)
        alpha = np.where(ok, rz / np.where(pq > 0, pq, 1.0), 0.0)
        x = x + alpha[:, None] * p
        r = r - alpha[:, None] * q
        rel = np.sqrt(np.einsum("ij,ij->i", r, r)) / bnorm
        history.append(rel.copy())
        active = rel > tol
        z = precondition(r.T).T
        rz_new = np.einsum("ij,ij->i", r, z)
        beta = np.where(active & (rz > 0), rz_new / np.where(rz > 0, rz, 1.0), 0.0)
        p = z + beta[:, None] * p
        rz = rz_new
        it += 1
        if callback is not None:
            callback(it, x.T)
    return project(x.T), history


def concatenating_precondition(op, R):
    """The reference-medium inverse applied through pocketfft's rfft2 and
    irfft2 (the real transform along n1) and the concatenated real and
    imaginary spectra, as before it was applied by real DFT matrix products.
    The left half [A; B] of each wavevector's block is read back from the
    operator's blocks, whose Hermitian weight and 1 / (n1 n2) are undone."""
    n1, n2 = op.grid.n1, op.grid.n2
    m = op.spectral_inverse.shape[-1] // 2
    k = R.shape[1]
    weight = np.full(n1 // 2 + 1, 2.0)
    weight[[0, -1]] = 1.0
    AB = (op.spectral_inverse[..., :m] * (n1 * n2 / weight)[:, None, None,
                                                               None])
    Rh = np.fft.rfft2(R.reshape(n1, n2, m, k), axes=(1, 0))
    Y = np.matmul(AB, np.concatenate([Rh.real, Rh.imag], axis=3))
    Zh = (Y[:, :, :m, :k] - Y[:, :, m:, k:]) \
        + 1j * (Y[:, :, m:, :k] + Y[:, :, :m, k:])
    return np.fft.irfft2(Zh, s=(n2, n1), axes=(1, 0)).reshape(R.shape)


def copy_free_cases():
    """The bench's 20x20x2 Voronoi bending solve, and the 8x8x4 checkerboard
    of checkerboard_contrast5.json in both parities."""
    r = sample_realization(MicrostructureModel("poisson_voronoi",
                                               intensity=1.0), 0, 5.0)
    yield (RVEGrid(20, 20, 2, 1.0, 5.0), rasterize(r, 20, 20),
           material_table([(0, 1.0, 1.0), (1, 4.0, 4.0)]), BENDING)
    cfg = json.loads((CONFIGS / "checkerboard_contrast5.json").read_text())
    g = cfg["grid"]
    r = sample_realization(MicrostructureModel.from_dict(cfg["model"]),
                           cfg["seed"], g["L"])
    for parity in (BENDING, MEMBRANE):
        yield (RVEGrid(g["n1"], g["n2"], g["n3"], g["gamma"], g["L"]),
               rasterize(r, g["n1"], g["n2"]),
               material_table(cfg["materials"]), parity)


def test_copy_free_pcg_keeps_every_rounding():
    # the in-place loop against its allocating form: the same iterates bit
    # for bit, and the right-hand sides untouched
    for grid, phases, mats, parity in copy_free_cases():
        op = CellOperator(grid, phases, mats, parity)
        part = slice(3, 6) if parity == BENDING else slice(0, 3)
        b = op.rhs(unit_loads()[part])
        b0 = b.copy()
        x, history = block_pcg(op.matvec, op.precondition, op.project, b,
                               1e-8, 200)
        npt.assert_array_equal(b, b0)
        want, want_history = allocating_pcg(op.matvec, op.precondition,
                                            op.project, b, 1e-8, 200)
        assert np.array_equal(x, want), (grid, parity)
        assert len(history) == len(want_history), (grid, parity)
        for h, w in zip(history, want_history):
            assert np.array_equal(h, w), (grid, parity)


def recovery_operators():
    """The bench's recovery cell: the 8x8x4 checkerboard of contrast 5 on
    L = 1 at gamma 2, in both parities, with its three unit loads each."""
    r = sample_realization(MicrostructureModel("checkerboard",
                                               period_hint=0.5), 0, 1.0)
    mats = material_table([(0, 1.0, 1.0), (1, 5.0, 5.0)])
    for parity, part in ((BENDING, slice(3, 6)), (MEMBRANE, slice(0, 3))):
        op = CellOperator(RVEGrid(8, 8, 4, 2.0, 1.0), rasterize(r, 8, 8),
                          mats, parity)
        yield op, op.rhs(unit_loads()[part])


def first_below(history, tol):
    """The iteration at which each column first meets tol."""
    return [next(i for i, h in enumerate(history) if h[c] <= tol)
            for c in range(len(history[0]))]


def test_pcg_edge_columns_keep_every_rounding():
    # the loop's per-column guards against the allocating form: a zero
    # right-hand side (bnorm guard) next to live columns, columns frozen at
    # different iterations, and the recovery cell at its tol in both
    # parities; the same iterates and history entries bit for bit
    rng = np.random.default_rng(0)
    random_op = CellOperator(
        RVEGrid(8, 6, 3, 1.3, 1.5),
        PhaseGrid(8, 6, 1.5, rng.integers(0, 3, size=(8, 6))),
        material_table([(0, 1.0, 1.0), (1, 6.0, 2.0), (2, 2.5, 0.0)]),
        BENDING)
    b = random_op.rhs(unit_loads()[3:])
    zero = b.copy()
    zero[:, 1] = 0.0
    scaled = b * np.array([1.0, 1e-3, 1e3])
    cases = [(random_op, zero, 1e-9, "zero column"),
             (random_op, scaled, 1e-9, "scaled loads")]
    cases += [(op, rhs, 1e-10, ("recovery", op.parity))
              for op, rhs in recovery_operators()]
    for op, rhs, tol, case in cases:
        x, history = block_pcg(op.matvec, op.precondition, op.project, rhs,
                               tol, 200)
        want, want_history = allocating_pcg(op.matvec, op.precondition,
                                            op.project, rhs, tol, 200)
        assert np.array_equal(x, want), case
        assert len(history) == len(want_history), case
        for h, w in zip(history, want_history):
            assert np.array_equal(h, w), case
        crossings = first_below(history, tol)
        if case == "zero column":
            assert crossings[1] == 0 and not x[:, 1].any(), crossings
        else:       # some column freezes while another still iterates
            assert len(set(crossings)) > 1, (case, crossings)


def test_pcg_cap_raises_like_the_allocating_loop():
    # below the needed count both loops stop at the cap with the same
    # message and the same per-iteration residuals, frozen columns included
    for op, rhs in recovery_operators():
        errors = []
        for solve in (block_pcg, allocating_pcg):
            with pytest.raises(ConvergenceError) as err:
                solve(op.matvec, op.precondition, op.project, rhs, 1e-10, 9)
            errors.append(err.value)
        got, want = errors
        assert str(got) == str(want), op.parity
        assert "after 9 iterations" in str(got), str(got)
        assert got.residual_history == want.residual_history, op.parity
        assert len(got.residual_history) == 10, op.parity


def dft_cases():
    """`copy_free_cases`, then a 6x10x3 and a 64x4x8 grid in both parities:
    odd n3, n1 != n2, and a long thin grid with many slots."""
    yield from copy_free_cases()
    rng = np.random.default_rng(4)
    mats = material_table([(0, 1.0, 0.5), (1, 6.0, 2.0), (2, 2.5, 0.0)])
    for n1, n2, n3, box_side in ((6, 10, 3, 1.7), (64, 4, 8, 3.0)):
        phases = PhaseGrid(n1, n2, box_side, rng.integers(0, 3, (n1, n2)))
        for parity in (BENDING, MEMBRANE):
            yield RVEGrid(n1, n2, n3, 1.3, box_side), phases, mats, parity


def test_dft_products_match_the_fft_preconditioner():
    # the real DFT matrix products against pocketfft's rfft2 and irfft2 on
    # the same per-wavevector blocks, for one and for three columns
    for grid, phases, mats, parity in dft_cases():
        op = CellOperator(grid, phases, mats, parity)
        for k in (1, 3):
            R = np.random.default_rng(k).standard_normal((op.ndof, k))
            R0 = R.copy()
            Z = op.precondition(R)
            want = concatenating_precondition(op, R)
            npt.assert_array_equal(R, R0)
            assert Z.shape == R.shape
            npt.assert_allclose(Z, want, rtol=0,
                                atol=1e-13 * np.abs(want).max(),
                                err_msg=str((grid, parity, k)))


def test_stencil_reference_inverse_matches_the_element_route():
    # the reference blocks built from the homogeneous node stencil against
    # those of the element gather, per-layer GEMM and scatter it replaced,
    # also on the 2x2 grid whose -1 and +1 neighbours are one node
    cases = list(dft_cases()) + [(grid, phases, mats, parity)
                                 for grid, phases, mats in stencil_cases(3)
                                 for parity in (BENDING, MEMBRANE)]
    for grid, phases, mats, parity in cases:
        op = CellOperator(grid, phases, mats, parity)
        want = kernel_route_inverse(op)
        npt.assert_allclose(op.spectral_inverse, want, rtol=0,
                            atol=1e-13 * np.abs(want).max(),
                            err_msg=str((grid, parity)))


def test_memory_order_does_not_change_the_results():
    # blocks are (ndof, m) stored column by column; a C-ordered block of the
    # same values gives the same bits, and the operator's blocks come back
    # column-major
    for grid, phases, mats, parity in dft_cases():
        op = CellOperator(grid, phases, mats, parity)
        case = (grid, parity)
        loads = unit_loads()[3:] if parity == BENDING else unit_loads()[:3]
        b = op.rhs(loads)
        assert b.shape == (op.ndof, 3) and b.flags.f_contiguous, case
        U = np.random.default_rng(5).standard_normal((op.ndof, 3))
        UF = np.asfortranarray(U)
        for apply in (op.matvec, op.precondition):
            want = apply(UF)
            assert want.flags.f_contiguous, (apply.__name__, case)
            assert np.array_equal(apply(U), want), (apply.__name__, case)
        assert np.array_equal(op.closure(loads, U), op.closure(loads, UF))
        # the projection works in place on both orders
        PC, PF = U.copy(order="C"), U.copy(order="F")
        assert op.project(PC) is PC and op.project(PF) is PF, case
        assert np.array_equal(PC, PF) and not np.array_equal(PC, U), case
        # the solver copies its right-hand side into column-major order
        x, history = block_pcg(op.matvec, op.precondition, op.project, b,
                               1e-8, 200)
        xc, history_c = block_pcg(op.matvec, op.precondition, op.project,
                                  np.ascontiguousarray(b), 1e-8, 200)
        assert x.flags.f_contiguous, case
        assert np.array_equal(x, xc), case
        assert len(history) == len(history_c), case
        for h, hc in zip(history, history_c):
            assert np.array_equal(h, hc), case


# PCG iterations of the copy_free_cases() solves at tol 1e-8: the 20x20x2
# Voronoi bending solve, then the checkerboard's bending and membrane solves
COPY_FREE_ITERATIONS = (17, 11, 11)


def test_copy_free_solves_take_the_pinned_iterations():
    cases = zip(copy_free_cases(), COPY_FREE_ITERATIONS, strict=True)
    for (grid, phases, mats, parity), want in cases:
        op = CellOperator(grid, phases, mats, parity)
        part = slice(3, 6) if parity == BENDING else slice(0, 3)
        _, history = block_pcg(op.matvec, op.precondition, op.project,
                               op.rhs(unit_loads()[part]), 1e-8, 200)
        assert len(history) - 1 == want, (grid, parity)


def test_pcg_projects_the_rhs_and_the_solution_only():
    # the kernel leaves the loop through the right-hand side and the
    # returned solution: two projections per solve, and one preconditioner
    # application per iteration plus the initial one
    for grid, phases, mats, parity in copy_free_cases():
        op = CellOperator(grid, phases, mats, parity)
        calls = {"project": 0, "precondition": 0}

        def counted(name, fn):
            def wrapper(U):
                calls[name] += 1
                return fn(U)
            return wrapper

        part = slice(3, 6) if parity == BENDING else slice(0, 3)
        x, history = block_pcg(op.matvec,
                               counted("precondition", op.precondition),
                               counted("project", op.project),
                               op.rhs(unit_loads()[part]), 1e-8, 200)
        assert calls == {"project": 2,
                         "precondition": len(history)}, (grid, parity)
        # the returned solution is mean-free in every even component
        npt.assert_allclose(op.project(x.copy()), x, rtol=0,
                            atol=1e-14 * np.abs(x).max())


def natural_order(grid, phases):
    """Dof table (n_el, 24), phase index and thickness layer per element, in
    the mesh's natural element order (the operator keeps its own order)."""
    n1, n2, n3 = grid.n1, grid.n2, grid.n3
    edof = (3 * nodes(n1, n2, n3)[..., None] + np.arange(3)).reshape(-1, 24)
    ids = np.unique(phases.cell_phase, return_inverse=True)[1]
    return edof, np.repeat(ids, n3), np.tile(np.arange(n3), n1 * n2)


def random_loads(rng, m):
    sym = [A + A.T for A in rng.standard_normal((2 * m, 2, 2))]
    return [CellLoad(B=B, G=G) for B, G in zip(sym[:m], sym[m:])]


class FullSlab:
    """Full-slab reference of a cell problem, independent of the fold: the
    stiffness assembled in scipy.sparse over every element in natural order,
    load vectors and energies by per-element quadrature, and a direct solve
    with node 0 pinned, re-centred to zero mean."""

    def __init__(self, grid, phases, mats):
        self.edof, self.phase_el, layer = natural_order(grid, phases)
        present = np.unique(phases.cell_phase)
        forms = np.stack([mats[p].q0.voigt for p in present])
        self.Bq = cellsolve._strain_matrices(grid)
        self.wq = 1.0 / (8.0 * grid.n_elements)
        self.Q = forms[self.phase_el]                         # (n_el, 6, 6)
        self.z = -0.5 + (layer[:, None] + np.repeat(GAUSS, 4)) / grid.n3
        self.ndof = 3 * grid.n_nodes
        kes = (np.einsum("qci,pcd,qdj->pij", self.Bq, forms, self.Bq)
               * self.wq)[self.phase_el]
        rows = np.repeat(self.edof, 24, axis=1).ravel()
        cols = np.tile(self.edof, (1, 24)).ravel()
        self.K = sp.csr_matrix((kes.ravel(), (rows, cols)),
                               shape=(self.ndof, self.ndof))

    def strains(self, loads):
        """Load strains iota(B + x3 G) per (element, gauss, voigt, load)."""
        eps = np.zeros(self.z.shape + (6, len(loads)))
        for a, ld in enumerate(loads):
            eps[..., 0, a] = ld.B[0, 0] + self.z * ld.G[0, 0]
            eps[..., 1, a] = ld.B[1, 1] + self.z * ld.G[1, 1]
            eps[..., 5, a] = SQRT2 * (ld.B[0, 1] + self.z * ld.G[0, 1])
        return eps

    def rhs(self, loads):
        fe = -self.wq * np.einsum("qci,ecd,eqdm->eim", self.Bq, self.Q,
                                  self.strains(loads))
        f = np.zeros((self.ndof, len(loads)))
        np.add.at(f, self.edof, fe)
        return f

    def gram(self, loads, X):
        """Energy Gram matrix of the loads plus the full fields X (ndof, m)."""
        taus = self.strains(loads) \
            + np.einsum("qci,eim->eqcm", self.Bq, X[self.edof])
        per = np.einsum("eqca,ecd,eqdb->abe", taus, self.Q, taus)
        # summed exactly over the elements: the tensors are compared at
        # 1e-13, near the rounding of a plain sum over thousands of elements
        return self.wq * np.array([[math.fsum(v) for v in row] for row in per])

    def solve(self, loads):
        """Mean-free minimizers (ndof, m) of the loads."""
        lu = spla.splu(self.K[3:, 3:].tocsc(), permc_spec="MMD_AT_PLUS_A")
        X = np.zeros((self.ndof, len(loads)))
        X[3:] = lu.solve(self.rhs(loads)[3:])
        V = X.reshape(-1, 3, len(loads))
        V -= V.mean(axis=0)
        return X

    def tensor(self):
        loads = unit_loads()
        return self.gram(loads, self.solve(loads))


def node_fold(n3, parity):
    """The fold of one node column, (3 (n3 + 1), 3 slots), entry by entry:
    component c of node layer k sits on slot min(k, n3 - k) with 1/sqrt2
    below the midplane and s_c/sqrt2 above it; on the midplane with 1 if
    s_c = +1, else 0.  Its nonzero columns, in order, are the free dofs of
    an in-plane node."""
    P = np.zeros((3 * (n3 + 1), 3 * (n3 // 2 + 1)))
    for k in range(n3 + 1):
        for c, s in enumerate(parity):
            P[3 * k + c, 3 * min(k, n3 - k) + c] = (
                1.0 / np.sqrt(2.0) if 2 * k < n3 else
                s / np.sqrt(2.0) if 2 * k > n3 else (1.0 + s) / 2.0)
    return P


def fold_matrix(grid, parity):
    """The fold P (full ndof, 3 n1 n2 slots): `node_fold` at every in-plane
    node.  Its nonzero columns, in order, are the operator's free dofs."""
    return np.kron(np.eye(grid.n1 * grid.n2), node_fold(grid.n3, parity))


def kernel_route_inverse(op):
    """The blocks D of `op.spectral_inverse` built from the full slab: the
    `FullSlab` stiffness K of the reference medium, restricted by the fold to
    P^T K P and applied to the unit fields of the free dofs at in-plane node
    (0, 0), then the same lift, embedding, inversion and weights."""
    grid, lame = op.grid, op._key[5]
    n1, n2, n3 = grid.n1, grid.n2, grid.n3
    mu, lam = np.prod(lame, axis=0) ** (1.0 / len(lame))
    full = FullSlab(grid, uniform_phases(n1, n2, grid.box_side),
                    material_table([(0, mu, lam)]))
    E = node_fold(n3, op.parity)
    E = E[:, E.any(axis=0)]
    f = E.shape[1]
    P = sp.kron(sp.identity(n1 * n2), E, format="csr")
    columns = P.T @ (full.K[:, :len(E)] @ E)          # (n1 n2 f, f)
    symbol = np.fft.rfft2(columns.reshape(n1, n2, f, f), axes=(1, 0))
    t = E.T @ np.kron(np.ones((n3 + 1, 1)), np.eye(3))
    t = t[:, np.abs(t).sum(axis=0) > 0]
    t /= np.linalg.norm(t, axis=0)
    symbol[0, 0] += np.trace(symbol[0, 0].real) / f * (t @ t.T)
    embedded = np.block([[symbol.real, -symbol.imag],
                         [symbol.imag, symbol.real]])
    weight = np.full(n1 // 2 + 1, 2.0)
    weight[[0, -1]] = 1.0
    D = np.linalg.inv(embedded) * (weight / (n1 * n2))[:, None, None, None]
    return 0.5 * (D + D.swapaxes(-1, -2))


def stencil_cases(n3):
    """Grids and media for the stencil checks: a 6x4 grid of 3 phases; a
    2x2 one, whose -1 and +1 neighbours are one node and whose every node
    touches all four columns; and a 6x6 one of 5 phases, whose node patterns
    run up to 5^4."""
    rng = np.random.default_rng(n3)
    mats = material_table([(0, 1.0, 1.0), (1, 6.0, 2.0), (2, 2.5, 0.0),
                           (3, 0.7, 3.0), (4, 9.0, 0.5)])
    yield (RVEGrid(6, 4, n3, 1.3, 1.5),
           PhaseGrid(6, 4, 1.5, rng.integers(0, 3, size=(6, 4))), mats)
    yield (RVEGrid(2, 2, n3, 1.3, 1.5),
           PhaseGrid(2, 2, 1.5, np.array([[0, 1], [2, 0]])), mats)
    yield (RVEGrid(6, 6, n3, 0.8, 2.0),
           PhaseGrid(6, 6, 2.0, rng.permutation(np.arange(36) % 5)
                     .reshape(6, 6)), mats)


@pytest.mark.parametrize("n3", [2, 3])
def test_matvec_matches_elementwise_assembly(n3):
    # the per-node stencil of the matvec, the node load blocks of the
    # right-hand sides and the Gram expansion of the closure against P^T
    # (per-element assembly in natural element order) P, for one, three and
    # six columns, in both parities
    rng = np.random.default_rng(n3)
    for grid, phases, mats in stencil_cases(n3):
        full = FullSlab(grid, phases, mats)
        for parity in (BENDING, MEMBRANE):
            check_against_assembly(grid, phases, mats, parity, full, rng)


def check_against_assembly(grid, phases, mats, parity, full, rng):
    case = (grid, parity)
    op = CellOperator(grid, phases, mats, parity)
    assert len(cellsolve._setup(*op._key).forms) \
        == len(np.unique(phases.cell_phase)), case
    P = fold_matrix(grid, parity)
    P = P[:, P.any(axis=0)]
    assert op.ndof == P.shape[1]
    A = P.T @ (full.K @ P)
    for m in (1, 3, 6):
        U = rng.standard_normal((op.ndof, m))
        ref = A @ U
        AU = op.matvec(U)
        assert AU.flags.f_contiguous, case
        assert np.max(np.abs(AU - ref)) <= 1e-14 * np.max(np.abs(ref)), \
            (case, m)
        loads = random_loads(rng, m)
        ref = P.T @ full.rhs(loads)
        f = op.rhs(loads)
        assert np.max(np.abs(f - ref)) <= 1e-14 * np.max(np.abs(ref)), \
            (case, m)
        # the closure of arbitrary fields, not only of minimizers: the
        # other part of each load is orthogonal to the parity's fields but
        # has an energy of its own, so the reference takes the part alone
        parts = [CellLoad(G=ld.G) if parity == BENDING else CellLoad(B=ld.B)
                 for ld in loads]
        ref = full.gram(parts, P @ U)
        M = op.closure(loads, U)
        assert np.max(np.abs(M - ref)) <= 1e-13 * np.max(np.abs(ref)), \
            (case, m)
        npt.assert_allclose(op.expand(U), P @ U, rtol=0, atol=1e-15)
        u = rng.standard_normal((full.ndof, m))
        npt.assert_allclose(restrict(op, u), P.T @ u, rtol=0, atol=1e-15)
    u, v = rng.standard_normal((2, op.ndof, 1))
    uAv, vAu = (u * op.matvec(v)).sum(), (v * op.matvec(u)).sum()
    assert abs(uAv - vAu) <= 1e-14 * np.abs(u * op.matvec(v)).sum(), case
    # the kernel of P^T K P: the folded translations of the even
    # components, the odd ones having none
    T = np.kron(np.ones((grid.n_nodes, 1)), np.eye(3)) \
        / np.sqrt(grid.n_nodes)
    kernel = P.T @ T
    kernel = kernel[:, np.abs(kernel).sum(axis=0) > 1e-12]
    npt.assert_allclose(kernel.T @ kernel, np.eye(kernel.shape[1]),
                        atol=1e-14)
    assert np.max(np.abs(A @ kernel)) <= 1e-14 * np.max(np.abs(A)), case
    U = rng.standard_normal((op.ndof, 3))
    npt.assert_allclose(op.project(U.copy()),
                        U - kernel @ (kernel.T @ U), rtol=0, atol=1e-14)


@pytest.mark.parametrize("parity", [BENDING, MEMBRANE])
@pytest.mark.parametrize("n3", [2, 3, 4, 5])
def test_free_layout_drops_only_the_pinned_pairs(n3, parity):
    # the fold E of a node column is the node block of P, `node_fold`, with
    # its zero columns dropped, bit for bit: one dof per free (slot,
    # component) pair, the odd components of the midplane slot of even n3
    # having none, and the full-slab fields keep them at exactly 0.0
    grid = RVEGrid(4, 6, n3, 1.3, 1.5)
    op = CellOperator(grid, checker_phases(4, 6, 1.5),
                      material_table([(0, 1.0, 1.0), (1, 4.0, 2.0)]), parity)
    P = node_fold(n3, parity)
    free = P.any(axis=0)
    npt.assert_array_equal(op.fold, P[:, free])
    f = free.sum()
    assert op.ndof == 4 * 6 * f
    assert f == free.size - (n3 % 2 == 0) * parity.count(-1)
    # orthonormal columns: each is 1, or fl(1/sqrt2) twice, whose square is
    # not 1/2 in floating point
    npt.assert_array_max_ulp(op.fold.T @ op.fold, np.eye(f), maxulp=2)
    U = np.random.default_rng(n3).standard_normal((op.ndof, 3))
    full = op.expand(U).reshape(4, 6, n3 + 1, 3, 3)
    odd = [c for c, s in enumerate(parity) if s < 0]
    if n3 % 2 == 0:
        mid = full[:, :, n3 // 2][:, :, odd]
        assert (mid == 0.0).all() and not np.signbit(mid).any()
    # the midplane's coefficient 1 round-trips exactly
    back = restrict(op, op.expand(U))
    exact = (np.abs(op.fold).max(axis=0) == 1.0)
    per_node = back.reshape(4 * 6, -1, 3)
    npt.assert_array_equal(per_node[:, exact],
                           U.reshape(4 * 6, -1, 3)[:, exact])
    npt.assert_array_max_ulp(back, U, maxulp=2)


@pytest.mark.parametrize("parity", [BENDING, MEMBRANE])
@pytest.mark.parametrize("n3", [2, 3, 4, 5])
def test_expanded_correctors_mirror_across_the_midplane(n3, parity):
    # each component is s_c times its mirror image, bit for bit, as the
    # recovery's DeformationSampler checks of the bending correctors
    grid = RVEGrid(6, 4, n3, 1.3, 1.5)
    phases = PhaseGrid(6, 4, 1.5, np.random.default_rng(n3).integers(
        0, 3, size=(6, 4)))
    mats = material_table([(0, 1.0, 1.0), (1, 6.0, 2.0), (2, 2.5, 0.0)])
    op = CellOperator(grid, phases, mats, parity)
    loads = unit_loads()[3:] if parity == BENDING else unit_loads()[:3]
    X, _ = op.solve(op.rhs(loads))
    V = op.expand(X).reshape(6, 4, n3 + 1, 3, 3)
    npt.assert_array_equal(V[:, :, ::-1] * np.array(parity)[:, None], V)


@pytest.mark.parametrize("n3", [2, 3])
def test_parity_split_matches_full_slab(n3):
    # solve_corrector splits a mixed load into its B and G parts, and
    # cell_energy splits a field without symmetry into its two parities
    grid = RVEGrid(6, 4, n3, 1.3, 1.5)
    rng = np.random.default_rng(10 + n3)
    phases = PhaseGrid(6, 4, 1.5, rng.integers(0, 3, size=(6, 4)))
    mats = material_table([(0, 1.0, 1.0), (1, 6.0, 2.0), (2, 2.5, 0.0)])
    full = FullSlab(grid, phases, mats)
    load = random_loads(rng, 1)[0]
    phi = solve_corrector(grid, phases, mats, load, tol=1e-13)
    want = full.solve([load])[:, 0]
    assert np.max(np.abs(phi.values.ravel() - want)) \
        <= 1e-12 * np.max(np.abs(want))
    assert abs(phi.residuals[0] - 1.0) <= 1e-15
    assert phi.residuals[-1] <= 1e-13
    values = rng.standard_normal(phi.values.shape)
    e = cell_energy(grid, phases, mats, load, CorrectorField(values, grid))
    ref = full.gram([load], values.reshape(-1, 1))[0, 0]
    assert abs(e - ref) <= 1e-12 * abs(ref)


def test_default_iteration_cap_is_the_full_slabs(monkeypatch):
    # the fold keeps the iterates, so it keeps the full slab's cap; one from
    # the folded ndof would be about sqrt(2) lower and fail solves that
    # converge on the full slab
    caps = []

    def capturing_pcg(*args, **kwargs):
        caps.append(args[5])
        return block_pcg(*args, **kwargs)

    monkeypatch.setattr(cellsolve, "block_pcg", capturing_pcg)
    mats = material_table([(0, 1.0, 1.0), (1, 4.0, 4.0)])
    for n3 in (2, 3):
        grid = RVEGrid(4, 4, n3, 1.0, 1.0)
        for parity in (BENDING, MEMBRANE):
            op = CellOperator(grid, checker_phases(4, 4), mats, parity)
            op.solve(op.rhs(unit_loads()))
            assert caps.pop() == int(20.0 * np.sqrt(3 * grid.n_nodes)) + 10


# ---------------------------------------------------------------------------
# In-plane FFT preconditioner
# ---------------------------------------------------------------------------

def tile_checker_phases(n, tiles=4):
    """The same tiles x tiles checkerboard at every resolution n."""
    t = np.arange(n) * tiles // n
    return PhaseGrid(n, n, 1.0, (np.add.outer(t, t) % 2).astype(int))


def test_single_phase_reference_medium_is_exact():
    # one phase: the reference medium is the medium, so each parity's
    # preconditioner inverts its operator on the mean-free fields
    grid = RVEGrid(8, 6, 3, 1.5, 2.0)
    for parity, loads in ((BENDING, unit_loads()[3:]),
                          (MEMBRANE, unit_loads()[:3])):
        op = CellOperator(grid, uniform_phases(8, 6, 2.0),
                          material_table([(0, 2.0, 0.7)]), parity)
        _, history = op.solve(op.rhs(loads), tol=1e-10)
        assert len(history) - 1 <= 2, parity
        u = op.project(np.random.default_rng(0).standard_normal((op.ndof, 2)))
        npt.assert_allclose(op.project(op.precondition(op.matvec(u))), u,
                            atol=1e-10)


def test_iterations_do_not_grow_with_the_mesh():
    # contrast 10 against the geometric-mean reference: the preconditioned
    # operator's spectrum lies in [1/sqrt(10), sqrt(10)] whatever the mesh,
    # so a fixed bound holds for every n
    bound = 40
    mats = material_table([(0, 1.0, 1.0), (1, 10.0, 10.0)])
    for n in (8, 16, 32):
        for parity, loads in ((BENDING, unit_loads()[3:]),
                              (MEMBRANE, unit_loads()[:3])):
            op = CellOperator(RVEGrid(n, n, 2, 1.0, 1.0),
                              tile_checker_phases(n), mats, parity)
            _, history = op.solve(op.rhs(loads), tol=1e-8)
            assert len(history) - 1 <= bound, (n, parity)


def test_fft_preconditioned_tensor_matches_jacobi():
    grid = RVEGrid(8, 8, 3, 1.3, 1.0)
    rng = np.random.default_rng(5)
    phases = PhaseGrid(8, 8, 1.0, rng.integers(0, 3, size=(8, 8)))
    mats = material_table([(0, 1.0, 1.0), (1, 6.0, 2.0), (2, 2.5, 0.0)])
    form = effective_form(grid, phases, mats, tol=1e-10)

    # Jacobi-preconditioned PCG on the full slab, no fold and no FFT
    full = FullSlab(grid, phases, mats)
    diag = full.K.diagonal()

    def center(U):
        V = U.reshape(-1, 3, U.shape[1])
        V -= V.mean(axis=0)
        return U

    X, _ = block_pcg(full.K.dot, lambda r: r / diag[:, None], center,
                     full.rhs(unit_loads()), 1e-10, 5000)
    M = full.gram(unit_loads(), X)
    npt.assert_allclose(form.voigt3, M[3:, 3:], rtol=1e-8, atol=1e-10)


def test_batched_closure_matches_pairwise_energy_products():
    # coupled_tensor closes each parity's block in one pass; the reference is
    # the per-element quadrature, in natural order on the full slab, of the
    # same (bitwise identical) solves
    grid = RVEGrid(6, 4, 3, 1.7, 1.5)
    rng = np.random.default_rng(9)
    phases = PhaseGrid(6, 4, 1.5, rng.integers(0, 2, size=(6, 4)))
    mats = material_table([(0, 1.0, 0.5), (1, 7.0, 3.0)])
    ct = coupled_tensor(grid, phases, mats, tol=1e-9)
    loads = unit_loads()
    X = []
    for parity, part in ((MEMBRANE, loads[:3]), (BENDING, loads[3:])):
        op = CellOperator(grid, phases, mats, parity)
        X.append(op.expand(op.solve(op.rhs(part), tol=1e-9)[0]))
    M = FullSlab(grid, phases, mats).gram(loads, np.hstack(X))
    npt.assert_allclose(ct.matrix, M, rtol=0, atol=1e-13 * np.abs(M).max())
    assert ct.asymmetry <= 1e-13 * np.abs(M).max()


def test_operator_is_freed_without_gc():
    # the preconditioner state must not form a reference cycle with the
    # operator: a dead operator is freed at once, not at a later gc pass
    grid = RVEGrid(4, 4, 2, 1.0, 1.0)
    mats = material_table([(0, 1.0, 1.0), (1, 4.0, 4.0)])
    enabled = gc.isenabled()
    gc.disable()
    try:
        op = CellOperator(grid, checker_phases(4, 4), mats, BENDING)
        op.solve(op.rhs([CellLoad(G=I2)]))
        ref = weakref.ref(op)
        del op
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_reference_inverse_is_memoized_per_grid_and_pair():
    # the reference inverse is part of the shared set-up, which depends
    # only on the grid, the parity and the Lame pairs of the phases present,
    # so operators on two layouts of the same phases share one inverse
    mats = material_table([(0, 1.0, 1.0), (1, 4.0, 4.0)])
    grid = RVEGrid(6, 4, 2, 1.0, 1.5)
    a = CellOperator(grid, checker_phases(6, 4, 1.5), mats, BENDING)
    b = CellOperator(RVEGrid(6, 4, 2, 1.0, 1.5), stripe_phases(6, 4, 1.5),
                     mats, BENDING)
    assert a.spectral_inverse is b.spectral_inverse
    assert not a.spectral_inverse.flags.writeable
    misses = [CellOperator(RVEGrid(6, 4, 2, 2.0, 1.5),
                           checker_phases(6, 4, 1.5), mats, BENDING),
              CellOperator(RVEGrid(6, 4, 2, 1.0, 2.0),
                           checker_phases(6, 4, 2.0), mats, BENDING),
              CellOperator(grid, checker_phases(6, 4, 1.5),
                           material_table([(0, 1.0, 1.0), (1, 4.0, 5.0)]),
                           BENDING),
              CellOperator(grid, checker_phases(6, 4, 1.5), mats, MEMBRANE)]
    for op in misses:
        assert op.spectral_inverse is not a.spectral_inverse

    # a cached set-up gives the tensor of a freshly computed one, bitwise
    phases = checker_phases(6, 4, 1.5)
    cellsolve._setup.cache_clear()
    cellsolve._load_blocks.cache_clear()
    fresh = effective_form(grid, phases, mats).voigt3
    hits = cellsolve._setup.cache_info().hits
    cached = effective_form(grid, phases, mats).voigt3
    assert cellsolve._setup.cache_info().hits > hits
    npt.assert_array_equal(cached, fresh)


def test_phase_tables_are_memoized_per_grid_and_pair():
    # the kernels, forms and strain matrices (in the shared set-up) and the
    # node load blocks and energies depend only on the grid, the parity, the
    # Lame pairs of the phases present (and the loads' parts), so operators
    # on two layouts of the same phases share them
    mats = material_table([(0, 1.0, 1.0), (1, 4.0, 4.0)])
    grid = RVEGrid(6, 4, 2, 1.0, 1.5)
    a = CellOperator(grid, checker_phases(6, 4, 1.5), mats, BENDING)
    b = CellOperator(RVEGrid(6, 4, 2, 1.0, 1.5), stripe_phases(6, 4, 1.5),
                     mats, BENDING)
    assert a.ke is b.ke
    assert cellsolve._setup(*a._key) is cellsolve._setup(*b._key)
    for arr in cellsolve._setup(*a._key):
        assert not arr.flags.writeable
    loads = unit_loads()[3:]
    a.rhs(loads)
    hits = cellsolve._load_blocks.cache_info().hits
    b.rhs(loads)
    assert cellsolve._load_blocks.cache_info().hits == hits + 1
    parts = np.stack([ld.G for ld in loads]).tobytes()
    for arr in cellsolve._load_blocks(a._key, parts):
        assert not arr.flags.writeable
    misses = [CellOperator(RVEGrid(6, 4, 2, 2.0, 1.5),
                           checker_phases(6, 4, 1.5), mats, BENDING),
              CellOperator(RVEGrid(6, 4, 2, 1.0, 2.0),
                           checker_phases(6, 4, 2.0), mats, BENDING),
              CellOperator(grid, checker_phases(6, 4, 1.5),
                           material_table([(0, 1.0, 1.0), (1, 4.0, 5.0)]),
                           BENDING),
              CellOperator(grid, checker_phases(6, 4, 1.5), mats, MEMBRANE)]
    for op in misses:
        assert op.ke is not a.ke
        hits = cellsolve._load_blocks.cache_info().hits
        op.rhs(loads)
        assert cellsolve._load_blocks.cache_info().hits == hits

    # a cached set-up and load blocks give the tensors of fresh ones, bitwise
    phases = checker_phases(6, 4, 1.5)
    cellsolve._setup.cache_clear()
    cellsolve._load_blocks.cache_clear()
    fresh = coupled_tensor(grid, phases, mats).matrix
    hits = cellsolve._setup.cache_info().hits
    cached = coupled_tensor(grid, phases, mats).matrix
    assert cellsolve._setup.cache_info().hits > hits
    npt.assert_array_equal(cached, fresh)


# ---------------------------------------------------------------------------
# Laminate corrector against the reduced direct solve
# ---------------------------------------------------------------------------

def test_stripe_corrector_x2_independent_and_matches_reduced():
    n1, n2, n3, gamma = 8, 4, 4, 1.0
    grid = RVEGrid(n1, n2, n3, gamma, 1.0)
    phases = stripe_phases(n1, n2)
    mats = material_table([(0, 1.0, 1.0), (1, 10.0, 10.0)])
    phi = solve_corrector(grid, phases, mats, CellLoad(G=E2), tol=1e-11)

    spread = np.max(np.abs(phi.values - phi.values[:, :1]))
    assert spread < 1e-8

    col = (np.arange(n1) * 2 >= n1).astype(int)
    _, _, U = laminate_bending_reference(
        col, {0: (1.0, 1.0), 1: (10.0, 10.0)}, gamma, 1.0, n3,
        return_corrector=True)
    want = U[:, :, :, 4]                       # load G = e2 x e2
    got = phi.values.mean(axis=1)              # collapse the trivial axis
    assert np.max(np.abs(got - want)) < 1e-6


# ---------------------------------------------------------------------------
# coupled_tensor / effective_form
# ---------------------------------------------------------------------------

def test_single_phase_coupled_tensor_blocks():
    grid = RVEGrid(4, 4, 4, 1.0, 1.0)
    ct = coupled_tensor(grid, uniform_phases(4, 4), ONE_PHASE, tol=1e-10)
    M = ct.matrix
    npt.assert_allclose(M[:3, :3], plane_stress_form(1.0, 1.0), atol=1e-8)
    npt.assert_allclose(M[3:, 3:], single_phase_bending_discrete(1.0, 1.0, 4),
                        atol=1e-8)
    assert np.max(np.abs(M[:3, 3:])) < 1e-8
    assert ct.asymmetry <= 1e-12
    assert np.linalg.eigvalsh(M)[0] > 0


@pytest.mark.parametrize("solve,name", [(coupled_tensor, "coupled tensor"),
                                        (effective_form,
                                         "effective bending form")])
def test_indefinite_closure_raises_naming_the_tensor(monkeypatch, solve, name):
    # validated materials cannot make the closure indefinite, so force it
    monkeypatch.setattr(CellOperator, "closure",
                        lambda self, loads, X: -np.eye(len(loads)))
    grid = RVEGrid(4, 4, 2, 1.0, 1.0)
    with pytest.raises(NumericalError, match="^%s is not positive definite"
                       % name):
        solve(grid, uniform_phases(4, 4), ONE_PHASE)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_closure_raises_naming_the_tensor(monkeypatch, bad):
    # a nan closure passed `w[0] <= 0`, or made eigvalsh raise a LinAlgError
    closed = np.eye(3)
    closed[0, 0] = bad
    monkeypatch.setattr(CellOperator, "closure",
                        lambda self, loads, X: closed)
    with pytest.raises(NumericalError, match="^effective bending form is "
                       "not positive definite \\(min eigenvalue nan\\)"):
        with np.errstate(invalid="ignore"):        # inf - inf
            effective_form(RVEGrid(4, 4, 2, 1.0, 1.0), uniform_phases(4, 4),
                           ONE_PHASE)


def test_pcg_raises_on_a_residual_that_is_not_finite():
    # `rel > tol` read a nan residual as converged and returned the nan
    def overflowing(p):
        return p * np.inf

    rhs = np.ones((4, 2))
    with pytest.raises(NumericalError, match="not finite after 1 iterations"):
        with np.errstate(invalid="ignore", over="ignore"):
            block_pcg(overflowing, lambda r: r.copy(), lambda x: x, rhs,
                      1e-8, 10)
    rhs[0, 1] = np.inf
    with pytest.raises(NumericalError, match="not finite after 0 iterations"):
        with np.errstate(invalid="ignore"):
            block_pcg(overflowing, lambda r: r.copy(), lambda x: x, rhs,
                      1e-8, 10)


def test_unit_loads_built_once_read_only():
    loads = unit_loads()
    assert unit_loads() is loads and len(loads) == 6
    S = np.array([[0.0, 1.0], [1.0, 0.0]]) / SQRT2
    fresh = [CellLoad(B=U) for U in (E1, E2, S)] \
        + [CellLoad(G=U) for U in (E1, E2, S)]
    for load, want in zip(loads, fresh):
        for got, exact in ((load.B, want.B), (load.G, want.G)):
            assert not got.flags.writeable
            npt.assert_array_equal(got, exact)


def test_polarization_consistency():
    """Off-diagonal entries close the energy bilinearly: solving the summed
    load directly must reproduce E(a) + E(b) + 2 M[a,b]."""
    grid = RVEGrid(4, 4, 2, 1.5, 1.0)
    phases = stripe_phases(4, 4)
    mats = material_table([(0, 1.0, 1.0), (1, 4.0, 2.0)])
    ct = coupled_tensor(grid, phases, mats, tol=1e-11)
    a, b = 0, 4                                # B11 and G22
    la, lb = CellLoad(B=E1), CellLoad(G=E2)
    lab = CellLoad(B=E1, G=E2)

    def emin(load):
        phi = solve_corrector(grid, phases, mats, load, tol=1e-11)
        return cell_energy(grid, phases, mats, load, phi)

    lhs = emin(lab)
    rhs = ct.matrix[a, a] + ct.matrix[b, b] + 2.0 * ct.matrix[a, b]
    assert abs(lhs - rhs) < 1e-9 * (1.0 + abs(lhs))


def test_coupling_vanishes_for_thickness_constant_media():
    grid = RVEGrid(8, 4, 4, 1.0, 1.0)
    mats = material_table([(0, 1.0, 1.0), (1, 10.0, 10.0)])
    ct = coupled_tensor(grid, stripe_phases(8, 4), mats, tol=1e-10)
    assert np.max(np.abs(ct.matrix[:3, 3:])) < 1e-8


def _reflection_cases():
    """(grid, phases, materials): the shipped configs at their own n3 and at
    n3 = 3, and a 20x20x2 Voronoi medium on L = 5 at three values of gamma."""
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = json.loads(path.read_text())
        g = cfg["grid"]
        r = sample_realization(MicrostructureModel.from_dict(cfg["model"]),
                               cfg["seed"], g["L"])
        for n3 in (g["n3"], 3):
            yield (RVEGrid(g["n1"], g["n2"], n3, g["gamma"], g["L"]),
                   rasterize(r, g["n1"], g["n2"]),
                   material_table(cfg["materials"]))
    r = sample_realization(MicrostructureModel("poisson_voronoi",
                                               intensity=1.0), 11, 5.0)
    for gamma in (0.5, 1.0, 2.0):
        yield (RVEGrid(20, 20, 2, gamma, 5.0), rasterize(r, 20, 20),
               material_table([(0, 1.0, 1.0), (1, 4.0, 4.0)]))


def test_reflection_symmetry_decouples_bending():
    """The symmetry the folded operator rests on, checked on the full slab.

    Every phase is isotropic and constant through the thickness, and the
    layers and Gauss points are symmetric about the midplane, so x3 -> -x3
    flips the bending load and keeps the membrane load: on the full-slab
    reference the membrane/bending block Q_BG vanishes, and the folded solves,
    which set it to zero, reproduce the 6x6 tensor and the bending form.  If
    an x3-dependent or anisotropic phase is ever added, this test must fail
    first, and the cell solve must go back to the full slab.
    """
    for grid, phases, mats in _reflection_cases():
        Q = FullSlab(grid, phases, mats).tensor()
        scale = np.max(np.abs(Q))
        assert np.max(np.abs(Q[:3, 3:])) <= 1e-14 * scale, grid
        ct = coupled_tensor(grid, phases, mats, tol=1e-8)
        assert np.max(np.abs(ct.matrix - Q)) <= 1e-13 * scale, grid
        form = effective_form(grid, phases, mats, tol=1e-8)
        assert np.max(np.abs(form.voigt3 - Q[3:, 3:])) <= 1e-13 * scale, grid


# PCG iterations of bending_solve at tol 1e-8, measured with the operator
# and preconditioner of this package: a weakened preconditioner or a wrong
# operator shows here as a changed count
PINNED_ITERATIONS = {"checkerboard_contrast5": 11, "stripes_contrast10": 10,
                     "voronoi_contrast4": 17}


def test_bending_solve_iteration_counts_are_pinned(monkeypatch):
    counts = []

    def counting_pcg(*args, **kwargs):
        x, history = block_pcg(*args, **kwargs)
        counts.append(len(history) - 1)
        return x, history

    monkeypatch.setattr(cellsolve, "block_pcg", counting_pcg)
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = json.loads(path.read_text())
        g = cfg["grid"]
        r = sample_realization(MicrostructureModel.from_dict(cfg["model"]),
                               cfg["seed"], g["L"])
        cellsolve.bending_solve(
            RVEGrid(g["n1"], g["n2"], g["n3"], g["gamma"], g["L"]),
            rasterize(r, g["n1"], g["n2"]), material_table(cfg["materials"]))
        assert counts.pop() == PINNED_ITERATIONS[path.stem], path.stem
    mats = material_table([(0, 1.0, 1.0), (1, 4.0, 4.0)])
    for seed in range(6):
        r = sample_realization(MicrostructureModel("poisson_voronoi",
                                                   intensity=1.0), seed, 5.0)
        cellsolve.bending_solve(RVEGrid(20, 20, 2, 1.0, 5.0),
                                rasterize(r, 20, 20), mats)
        assert counts.pop() == 17, seed


def test_contrast_one_equals_single_phase():
    grid = RVEGrid(4, 4, 2, 1.0, 1.0)
    mats2 = material_table([(0, 1.0, 1.0), (1, 1.0, 1.0)])
    a = coupled_tensor(grid, checker_phases(4, 4), mats2, tol=1e-11).matrix
    b = coupled_tensor(grid, uniform_phases(4, 4), ONE_PHASE, tol=1e-11).matrix
    npt.assert_allclose(a, b, atol=1e-10)


def test_single_phase_bending_frozen_value():
    mu, lam = 2.0, 0.5
    mats = material_table([(0, mu, lam)])
    grid = RVEGrid(4, 4, 4, 1.3, 1.0)
    q = effective_form(grid, uniform_phases(4, 4), mats, tol=1e-11)
    npt.assert_allclose(q.voigt3, single_phase_bending_discrete(mu, lam, 4),
                        atol=1e-9)


@pytest.mark.parametrize("gamma", [0.5, 2.0])
def test_single_phase_gamma_invariance(gamma):
    mats = material_table([(0, 2.0, 0.5)])
    grid = RVEGrid(4, 4, 4, gamma, 1.0)
    q = effective_form(grid, uniform_phases(4, 4), mats, tol=1e-11)
    npt.assert_allclose(q.voigt3, single_phase_bending_discrete(2.0, 0.5, 4),
                        atol=1e-9)


def test_coercivity_sandwich_sampled():
    grid = RVEGrid(8, 4, 4, 1.0, 1.0)
    mats = material_table([(0, 1.0, 1.0), (1, 10.0, 10.0)])
    q = effective_form(grid, stripe_phases(8, 4), mats, tol=1e-9)
    c1 = min(coercivity_constants(isotropic_form(1.0, 1.0))[0],
             coercivity_constants(isotropic_form(10.0, 10.0))[0])
    c2 = max(coercivity_constants(isotropic_form(1.0, 1.0))[1],
             coercivity_constants(isotropic_form(10.0, 10.0))[1])
    rng = np.random.default_rng(5)
    for _ in range(50):
        G = rng.standard_normal((2, 2))
        G = 0.5 * (G + G.T)
        val = qgamma_eval(q, G)
        n2 = np.sum(G * G)
        assert val >= 0.95 * c1 / 12.0 * n2
        assert val <= 1.05 * c2 / 12.0 * n2


def test_qgamma_quadratic_scaling():
    q = np.diag([1.0, 2.0, 3.0])
    G = np.array([[0.3, -0.2], [-0.2, 1.4]])
    base = qgamma_eval(q, G)
    for s in (2.0, 0.5, -2.0):
        assert qgamma_eval(q, s * G) == s * s * base
    assert abs(qgamma_eval(q, 3.0 * G) - 9.0 * base) < 1e-13 * abs(base)
    assert qgamma_eval(q, np.zeros((2, 2))) == 0.0
    assert qgamma_eval(q, -G) == base


def test_mesh_cauchy_sequence():
    # fixed 2x2-tile medium, refined meshes: increments must shrink
    from platecell import MicrostructureModel, rasterize, sample_realization
    r = sample_realization(MicrostructureModel("checkerboard", period_hint=0.5),
                           0, 1.0)
    mats = material_table([(0, 1.0, 1.0), (1, 5.0, 5.0)])
    vals = []
    for n, n3 in [(4, 2), (8, 4), (16, 8)]:
        grid = RVEGrid(n, n, n3, 2.0, 1.0)
        vals.append(effective_form(grid, rasterize(r, n, n), mats,
                                   tol=1e-9).voigt3)
    inc1 = np.linalg.norm(vals[1] - vals[0])
    inc2 = np.linalg.norm(vals[2] - vals[1])
    assert inc2 < inc1


# ---------------------------------------------------------------------------
# gamma_rescale_check
# ---------------------------------------------------------------------------

def test_gamma_one_rescale_is_exact_zero():
    grid = RVEGrid(4, 4, 2, 1.0, 1.0)
    mats = material_table([(0, 1.0, 1.0), (1, 5.0, 5.0)])
    assert gamma_rescale_check(grid, checker_phases(4, 4), mats) == 0.0


def test_single_phase_rescale_tiny():
    grid = RVEGrid(4, 4, 4, 2.0, 1.0)
    d = gamma_rescale_check(grid, uniform_phases(4, 4), ONE_PHASE, tol=1e-11)
    assert d <= 1e-8


def test_checkerboard_rescale_shrinks_under_refinement():
    # same 2x2-tile medium on both meshes; only the resolution changes
    from platecell import MicrostructureModel, rasterize, sample_realization
    r = sample_realization(MicrostructureModel("checkerboard", period_hint=0.5),
                           0, 1.0)
    mats = material_table([(0, 1.0, 1.0), (1, 5.0, 5.0)])
    g1 = RVEGrid(4, 4, 2, 2.0, 1.0)
    g2 = RVEGrid(8, 8, 4, 2.0, 1.0)
    d1 = gamma_rescale_check(g1, rasterize(r, 4, 4), mats, tol=1e-10)
    d2 = gamma_rescale_check(g2, rasterize(r, 8, 8), mats, tol=1e-10)
    assert d2 <= 0.625 * d1


def test_rescale_requires_integral_rescaled_mesh():
    grid = RVEGrid(4, 4, 2, 1.3, 1.0)
    with pytest.raises(ConfigError):
        gamma_rescale_check(grid, checker_phases(4, 4),
                            material_table([(0, 1.0, 1.0), (1, 2.0, 2.0)]))


def test_rescale_refuses_what_it_cannot_resample_exactly():
    mats = material_table([(0, 1.0, 1.0), (1, 2.0, 2.0)])
    cases = [
        # refining 4 columns to gamma * 4 = 6, not a multiple of 4
        (RVEGrid(4, 4, 2, 1.5, 1.0), checker_phases(4, 4),
         "rescaled count 6 is not a multiple of 4"),
        # coarsening 6 columns to gamma * 6 = 4, which does not divide 6
        (RVEGrid(6, 6, 2, 2.0 / 3.0, 1.0), checker_phases(6, 6),
         "count 6 is not divisible by rescaled count 4"),
        # coarsening 8 columns to 4 blocks of 2 that hold both phases
        (RVEGrid(8, 8, 2, 0.5, 1.0), checker_phases(8, 8),
         "not constant on 2-element blocks"),
    ]
    for grid, phases, message in cases:
        with pytest.raises(ConfigError, match=message):
            gamma_rescale_check(grid, phases, mats)


def test_rescale_coarsens_a_block_constant_medium():
    # gamma = 1/2 halves the columns of formulation B: the tiles of the
    # medium, 2 elements on 8 x 8 and 4 on 16 x 16, keep their side on a box
    # twice as wide, and the discrepancy shrinks under refinement
    r = sample_realization(MicrostructureModel("checkerboard",
                                               period_hint=0.25), 0, 1.0)
    mats = material_table([(0, 1.0, 1.0), (1, 5.0, 5.0)])
    d = []
    for n in (8, 16):
        grid, phases = RVEGrid(n, n, 2, 0.5, 1.0), rasterize(r, n, n)
        grid_b, phases_b = cellsolve._formulation_b(grid, phases)
        assert (grid_b.n1, grid_b.n2, grid_b.box_side) == (n // 2, n // 2,
                                                           2.0)
        npt.assert_array_equal(phases_b.cell_phase,
                               phases.cell_phase[::2, ::2])
        d.append(gamma_rescale_check(grid, phases, mats, tol=1e-10))
    assert 0.0 < d[1] <= 0.3 * d[0]
