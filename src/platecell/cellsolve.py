"""Discrete cell problems on the periodic RVE (torus^2 x interval).

The minimization is over nodal 3-vector fields phi on the structured slab
mesh of `_mesh`: n1 x n2 periodic in-plane element columns times n3 trilinear
layers through the thickness [-1/2, 1/2] with free ends.  The strain of a
candidate field is

    sym( d1 phi, d2 phi, (1/gamma) d3 phi )

and the load contributes iota(B + x3 G) with iota the 2x2 -> 3x3 upper-left
embedding, so the energy is the volume average of the per-phase quadratic
form over 2x2x2 Gauss points (exact for the x3-quadratic load term).  The
strain matrices are the mesh's reference gradients scaled by the element
sizes, with 1/(gamma hz) through the thickness.

The stationarity system is solved matrix-free: one 24x24 element kernel per
phase and one dof table of the elements sorted by phase, which serves the
matvec (np.take -> one GEMM per phase -> the mesh's scatter), the right-hand
sides and the energy closure, in conjugate gradients with the 3-dimensional
translation kernel projected out each iteration.  The preconditioner is the
exact inverse of a homogeneous reference medium (Lame constants the geometric
means of the phases present): its stiffness is block-circulant in the in-plane
node indices, so a real 2D FFT splits it into one Hermitian 3(n3+1) x 3(n3+1)
system per wavevector, inverted once per grid and reference medium and shared
read-only (Moulinec & Suquet 1998; Zeman et al. 2010).  Iteration counts then
depend on the phase contrast but not on the mesh.  Unit loads iterate
together (block right-hand side) into one bilinear energy closure: the three
bending loads give the bending form, since the reflection x3 -> -x3 decouples
them from the membrane loads, and all six give the 6x6 tensor.
"""

import functools

import numpy as np

from ._krylov import block_pcg
from ._mesh import GAUSS, dN, nodes, scatter
from .errors import ConfigError, NumericalError, as_index, as_real
from .material import SQRT2, isotropic_form
from .microstructure import PhaseGrid


# ---------------------------------------------------------------------------
# Grid, loads, fields
# ---------------------------------------------------------------------------

class RVEGrid:
    """Structured RVE discretization parameters."""

    def __init__(self, n1, n2, n3, gamma, box_side):
        self.n1 = as_index(n1, "grid: n1")
        self.n2 = as_index(n2, "grid: n2")
        self.n3 = as_index(n3, "grid: n3")
        self.gamma = as_real(gamma, "grid: gamma")
        self.box_side = as_real(box_side, "grid: box_side")
        if self.n1 < 2 or self.n2 < 2 or self.n1 % 2 or self.n2 % 2:
            raise ConfigError("grid: n1, n2 must be even and >= 2")
        if self.n3 < 2:
            raise ConfigError("grid: n3 must be >= 2")
        if not self.gamma > 0:
            raise ConfigError("grid: gamma must be > 0")
        if not self.box_side > 0:
            raise ConfigError("grid: box_side must be > 0")

    @property
    def n_nodes(self):
        return self.n1 * self.n2 * (self.n3 + 1)

    @property
    def n_elements(self):
        return self.n1 * self.n2 * self.n3

    def to_dict(self):
        return {"n1": self.n1, "n2": self.n2, "n3": self.n3,
                "gamma": self.gamma, "box_side": self.box_side}

    def __repr__(self):
        return "RVEGrid(%dx%dx%d, gamma=%g, L=%g)" % (
            self.n1, self.n2, self.n3, self.gamma, self.box_side)


class CellLoad:
    """Membrane (B) and bending (G) symmetric 2x2 load matrices."""

    def __init__(self, B=None, G=None):
        self.B = self._check(B, "B")
        self.G = self._check(G, "G")

    @staticmethod
    def _check(M, name):
        if M is None:
            return np.zeros((2, 2))
        M = np.asarray(M, dtype=float)
        if M.shape != (2, 2):
            raise ConfigError("load.%s must be 2x2" % name)
        if np.max(np.abs(M - M.T)) > 1e-14 * max(1.0, np.max(np.abs(M))):
            raise ConfigError("load.%s must be symmetric within 1e-14" % name)
        return 0.5 * (M + M.T)


class CorrectorField:
    """Nodal corrector phi: (n1, n2, n3+1) grid of 3-vectors, mean zero."""

    def __init__(self, values, grid, residuals=None):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n1, grid.n2, grid.n3 + 1, 3):
            raise ConfigError("CorrectorField values must be (n1, n2, n3+1, 3)")
        self.values = values
        self.grid = grid
        self.residuals = [] if residuals is None else residuals


# The six unit loads, orthonormal Voigt order (B11, B22, s2*B12 | G11, G22, s2*G12).
_UNIT2 = (np.array([[1.0, 0.0], [0.0, 0.0]]),
          np.array([[0.0, 0.0], [0.0, 1.0]]),
          np.array([[0.0, 1.0 / SQRT2], [1.0 / SQRT2, 0.0]]))


def unit_loads():
    return [CellLoad(B=U) for U in _UNIT2] + [CellLoad(G=U) for U in _UNIT2]


def sym2_to_voigt3(M):
    """Orthonormal Voigt vector (M11, M22, sqrt2*M12) of a symmetric 2x2 M.

    M may be a stack (..., 2, 2); the result is then (..., 3).
    """
    M = np.asarray(M, dtype=float)
    v = np.empty(M.shape[:-2] + (3,))
    v[..., 0] = M[..., 0, 0]
    v[..., 1] = M[..., 1, 1]
    v[..., 2] = SQRT2 * 0.5 * (M[..., 0, 1] + M[..., 1, 0])
    return v


# ---------------------------------------------------------------------------
# Element machinery
# ---------------------------------------------------------------------------

def _strain_matrices(grid):
    """B-matrices (8 gauss, 6 voigt, 24 dof) incl. the (1/gamma) d3 scaling."""
    hx = grid.box_side / grid.n1
    hy = grid.box_side / grid.n2
    hz = 1.0 / grid.n3
    sc = np.array([1.0 / hx, 1.0 / hy, 1.0 / (grid.gamma * hz)])
    gx, gy, gz = (dN * sc[:, None]).transpose(1, 0, 2)    # each (8 gauss, 8)
    B = np.zeros((8, 6, 8, 3))                           # dof 3 * node + comp
    B[:, 0, :, 0] = gx
    B[:, 1, :, 1] = gy
    B[:, 2, :, 2] = gz
    B[:, 3, :, 1] = gz / SQRT2
    B[:, 3, :, 2] = gy / SQRT2
    B[:, 4, :, 0] = gz / SQRT2
    B[:, 4, :, 2] = gx / SQRT2
    B[:, 5, :, 0] = gy / SQRT2
    B[:, 5, :, 1] = gx / SQRT2
    return B.reshape(8, 6, 24)


def _apply_kernels(kernels, bounds, table, U):
    """Apply kernels[p] to the element columns bounds[p]:bounds[p + 1] of
    the (24, n_el) dof table: gather U, one GEMM per kernel, scatter back."""
    m = U.shape[1]
    Ue = np.take(U, table, axis=0).reshape(24, -1)   # (24, n_el * m)
    Ve = np.empty_like(Ue)
    for ke, a, b in zip(kernels, bounds[:-1], bounds[1:]):
        np.matmul(ke, Ue[:, a * m:b * m], out=Ve[:, a * m:b * m])
    return scatter(table, Ve.reshape(24, -1, m), len(U))


@functools.lru_cache(maxsize=4)
def _reference_inverse(n1, n2, n3, gamma, box_side, mu, lam):
    """Per-wavevector inverses of the stiffness of the isotropic medium
    (mu, lam) on the grid; memoized, read-only and shared by the operators.

    The stiffness applied to the M unit nodal fields at in-plane node (0, 0),
    then transformed by rfft2, is the M x M symbol per wavevector.  The
    zero-wavevector block is singular on the translations, which are lifted
    by a multiple of their projector (project() removes them from every
    iterate).  Each Hermitian block K = Kr + i Ki is inverted through its
    real embedding [[Kr, -Ki], [Ki, Kr]], whose inverse is [[A, -B], [B, A]]
    with K^-1 = A + i B; only its left half is kept.

    Returns:
        (n1, n2 // 2 + 1, 2M, M) real array stacking A over B, M = 3 (n3 + 1).
    """
    grid = RVEGrid(n1, n2, n3, gamma, box_side)
    m = 3 * (n3 + 1)
    Bq = _strain_matrices(grid)
    ke = np.einsum("qci,cd,qdj->ij", Bq, isotropic_form(mu, lam).voigt, Bq) \
        * (1.0 / (8.0 * grid.n_elements))
    edof = (3 * nodes(n1, n2, n3)[..., None] + np.arange(3)).reshape(-1, 24)
    near = edof[(edof < m).any(axis=1)].T   # elements touching node (0, 0)
    units = np.eye(3 * grid.n_nodes, m)   # in-plane node (0, 0) holds dofs :m
    columns = _apply_kernels([ke], [0, near.shape[1]], near, units)
    symbol = np.fft.rfft2(columns.reshape(n1, n2, m, m), axes=(0, 1))
    translations = np.kron(np.ones((m // 3, m // 3)), np.eye(3)) / (m // 3)
    symbol[0, 0] += np.trace(symbol[0, 0].real) / m * translations
    embedded = np.block([[symbol.real, -symbol.imag],
                         [symbol.imag, symbol.real]])
    inverse = np.ascontiguousarray(np.linalg.inv(embedded)[..., :m])
    inverse.flags.writeable = False
    return inverse


class CellOperator:
    """Matrix-free stiffness operator of one cell problem.

    Holds the phase-sorted dof table, the per-phase 24x24 kernels, the
    factored in-plane FFT preconditioner, and the Gauss-point load strains;
    everything downstream (corrector solves, energies, effective tensors)
    goes through here.
    """

    def __init__(self, grid, phases, materials):
        if (phases.n1, phases.n2) != (grid.n1, grid.n2):
            raise ConfigError("phase grid is %dx%d but the RVE grid wants %dx%d"
                              % (phases.n1, phases.n2, grid.n1, grid.n2))
        present = np.unique(phases.cell_phase)
        missing = [int(p) for p in present if int(p) not in materials]
        if missing:
            raise ConfigError("material table lacks phase ids %s" % missing)
        self.grid = grid
        n1, n2, n3 = grid.n1, grid.n2, grid.n3
        self.ndof = 3 * grid.n_nodes

        # --- connectivity: elements stably sorted by phase -----------------
        edof = (3 * nodes(n1, n2, n3)[..., None]
                + np.arange(3)).reshape(-1, 24)
        phase_el = np.repeat(np.searchsorted(present, phases.cell_phase), n3)
        order = np.argsort(phase_el, kind="stable")
        # phase p owns the columns bounds[p]:bounds[p + 1] of the dof table
        self.table = edof[order].T.copy()             # (24, n_el)
        self.bounds = np.r_[0, np.cumsum(np.bincount(phase_el))]
        self.layer = order % n3                       # thickness layer

        # --- element kernels ----------------------------------------------
        B = _strain_matrices(grid)
        self.Bq = B                                  # (8, 6, 24)
        self.wq = 1.0 / (8.0 * grid.n_elements)      # volume-average weight
        hz = 1.0 / n3
        gz = np.repeat(GAUSS, 4)                     # zeta of each Gauss point
        self.zq = -0.5 + (np.arange(n3)[:, None] + gz[None, :]) * hz   # (n3, 8)
        self.forms = np.stack([materials[p].q0.voigt for p in present])
        self.ke = np.einsum("qci,pcd,qdj->pij", B, self.forms, B) * self.wq
        lame = [(materials[p].lame_mu, materials[p].lame_lambda)
                for p in present]
        mu, lam = np.prod(lame, axis=0) ** (1.0 / len(lame))  # geometric means
        self.fft_inverse = _reference_inverse(n1, n2, n3, grid.gamma,
                                              grid.box_side, mu, lam)

    # --- in-plane FFT preconditioner -----------------------------------------
    def precondition(self, R):
        """Apply the reference-medium inverse to residuals R: (ndof, k)."""
        n1, n2, m = self.grid.n1, self.grid.n2, 3 * (self.grid.n3 + 1)
        k = R.shape[1]
        Rh = np.fft.rfft2(R.reshape(n1, n2, m, k), axes=(0, 1))
        # [A; B] @ [Rr, Ri] = [[A Rr, A Ri], [B Rr, B Ri]]
        Y = np.matmul(self.fft_inverse,
                      np.concatenate([Rh.real, Rh.imag], axis=3))
        Zh = (Y[:, :, :m, :k] - Y[:, :, m:, k:]) \
            + 1j * (Y[:, :, m:, :k] + Y[:, :, :m, k:])
        return np.fft.irfft2(Zh, s=(n1, n2), axes=(0, 1)).reshape(R.shape)

    # --- kernel projection -------------------------------------------------
    def project(self, U):
        """Remove the nodal mean of each displacement component (in place)."""
        V = U.reshape(-1, 3, U.shape[-1]) if U.ndim == 2 else U.reshape(-1, 3)
        V -= V.mean(axis=0, keepdims=True)
        return U

    # --- operator application ----------------------------------------------
    def matvec(self, U):
        """Apply the stiffness operator to U of shape (ndof, m)."""
        return _apply_kernels(self.ke, self.bounds, self.table, U)

    # --- loads ---------------------------------------------------------------
    def load_strains(self, load):
        """Voigt load strain iota(B + x3 G) per (layer, gauss): (n3, 8, 6)."""
        eps = np.zeros((self.grid.n3, 8, 6))
        B, G = load.B, load.G
        z = self.zq
        eps[..., 0] = B[0, 0] + z * G[0, 0]
        eps[..., 1] = B[1, 1] + z * G[1, 1]
        eps[..., 5] = SQRT2 * (B[0, 1] + z * G[0, 1])
        return eps

    def rhs(self, loads):
        """Right-hand sides -f for a list of loads: (ndof, m)."""
        # per (phase, layer) element load vectors, (n_phases, n3, 24, m)
        fe = np.stack([np.einsum("qci,pcd,kqd->pki", self.Bq, self.forms,
                                 self.load_strains(load)) * self.wq
                       for load in loads], axis=-1)
        phase = np.repeat(np.arange(len(fe)), np.diff(self.bounds))
        fe = fe.transpose(2, 0, 1, 3)[:, phase, self.layer]   # (24, n_el, m)
        return -scatter(self.table, fe, self.ndof)

    # --- energies ------------------------------------------------------------
    def closure(self, loads, X):
        """Energy Gram matrix (m, m) of the loads plus their fields X (ndof, m):
        entry (a, b) is the cell average of tau_a : Q0 : tau_b."""
        m = len(loads)
        # total strains on the phase-sorted elements: (8, 6, n_el, m)
        Xe = np.take(X, self.table, axis=0).reshape(24, -1)
        taus = (self.Bq.reshape(48, 24) @ Xe).reshape(8, 6, -1, m)
        eps = np.stack([self.load_strains(ld) for ld in loads], axis=-1)
        taus += eps[self.layer].transpose(1, 2, 0, 3)
        # M[a, b] = sum_p Q_p[c, d] * sum_qe tau[q, c, e, a] tau[q, d, e, b]
        M = np.zeros((m, m))
        for form, a, b in zip(self.forms, self.bounds[:-1], self.bounds[1:]):
            T = taus[:, :, a:b].transpose(1, 3, 0, 2).reshape(6 * m, -1)
            M += np.einsum("cd,cadb->ab", form, (T @ T.T).reshape(6, m, 6, m))
        return M * self.wq

    def energy(self, load, u=None):
        u = np.zeros(self.ndof) if u is None else u
        return float(self.closure([load], u)[0, 0])

    # --- solver ---------------------------------------------------------------
    def solve(self, rhs, tol=1e-8, max_iter=None, callback=None):
        """Block PCG, FFT-preconditioned, with per-iteration kernel projection.

        Args:
            rhs: (ndof, m) right-hand sides (solved simultaneously).
            tol: relative residual target per column, in (0, 1).
            max_iter: iteration cap; default 20*sqrt(ndof).
            callback: optional f(iteration, x) hook (e.g. energy tracing).

        Returns:
            (x, history): solution (ndof, m) and per-iteration list of
            per-column relative residuals.

        Raises:
            ConfigError: tol is outside (0, 1).
            ConvergenceError: a column missed tol within the cap.
        """
        if not 0 < tol < 1:
            raise ConfigError("cell solve: tol must lie in (0, 1)")
        if max_iter is None:
            max_iter = int(20.0 * np.sqrt(self.ndof)) + 10
        return block_pcg(self.matvec, self.precondition, self.project, rhs,
                         tol, max_iter, callback=callback)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def cell_energy(grid, phases, materials, load, phi=None):
    """Volume-averaged cell energy of a load plus (optional) corrector."""
    u = None if phi is None else phi.values.reshape(-1)
    return CellOperator(grid, phases, materials).energy(load, u)


def solve_corrector(grid, phases, materials, load, tol=1e-8, callback=None):
    """Minimize the cell energy over correctors for one fixed load."""
    op = CellOperator(grid, phases, materials)
    x, history = op.solve(op.rhs([load]), tol=tol, callback=callback)
    values = x[:, 0].reshape(grid.n1, grid.n2, grid.n3 + 1, 3)
    return CorrectorField(values, grid, residuals=[h[0] for h in history])


class CoupledEffectiveTensor:
    """6x6 coupled membrane/bending tensor with provenance."""

    def __init__(self, matrix, grid, residuals, asymmetry):
        self.matrix = matrix
        self.grid = grid
        self.residuals = residuals
        self.asymmetry = asymmetry


class EffectiveBendingForm:
    """3x3 Voigt representation of the effective bending form."""

    def __init__(self, voigt3):
        voigt3 = np.asarray(voigt3, dtype=float)
        if voigt3.shape != (3, 3):
            raise ConfigError("EffectiveBendingForm.voigt3 must be 3x3")
        self.voigt3 = 0.5 * (voigt3 + voigt3.T)


def _closed_solve(grid, phases, materials, loads, tol):
    """Solve the loads in one block and close the energy bilinearly.

    Entry (a,b) equals (E(load_a + load_b) - E(load_a) - E(load_b)) / 2 by
    the polarization identity; since the minimizer is linear in the load the
    closure uses the stored minimizers directly; returns (M, asym, X, history).
    """
    op = CellOperator(grid, phases, materials)
    X, history = op.solve(op.rhs(loads), tol=tol)
    M = op.closure(loads, X)
    asym = float(np.max(np.abs(M - M.T)))
    M = 0.5 * (M + M.T)
    w = np.linalg.eigvalsh(M)
    if w[0] <= 0:
        raise NumericalError("coupled tensor is not positive definite "
                             "(min eigenvalue %g); the solve is under-resolved "
                             "or the material table is invalid" % w[0])
    return M, asym, X, history


def coupled_tensor(grid, phases, materials, tol=1e-8):
    """6x6 membrane/bending tensor of the six unit loads (for `effective`)."""
    M, asym, _, hist = _closed_solve(grid, phases, materials, unit_loads(), tol)
    return CoupledEffectiveTensor(M, grid, [float(h) for h in hist[-1]], asym)


def bending_solve(grid, phases, materials, tol=1e-8):
    """Effective bending form and the (ndof, 3) bending unit correctors X.

    By the reflection symmetry the form is the closure of the three bending
    loads alone; the corrector of a bending load G is X @ sym2_to_voigt3(G).
    """
    M, _, X, _ = _closed_solve(grid, phases, materials, unit_loads()[3:], tol)
    return EffectiveBendingForm(M), X


def effective_bending(ct):
    """Schur complement of the bending block: Q_GG - Q_GB Q_BB^-1 Q_BG.

    This realizes the exact minimization over the membrane offset B.
    """
    M = ct.matrix
    Qbb, Qbg, Qgg = M[:3, :3], M[:3, 3:], M[3:, 3:]
    try:
        c = np.linalg.cholesky(Qbb)
    except np.linalg.LinAlgError:
        raise NumericalError("membrane block of the coupled tensor is not SPD; "
                             "cannot reduce over the membrane offset")
    y = np.linalg.solve(c, Qbg)
    return EffectiveBendingForm(Qgg - y.T @ y)


def effective_form(grid, phases, materials, tol=1e-8):
    """Effective bending form from the three bending solves (bending_solve)."""
    return bending_solve(grid, phases, materials, tol=tol)[0]


def qgamma_eval(q, G):
    """Evaluate the effective bending form on a symmetric 2x2 matrix.

    Args:
        q: EffectiveBendingForm or plain (3, 3) Voigt matrix.
        G: symmetric 2x2 matrix, or a stack (..., 2, 2) of them.

    Returns:
        float for one matrix, array (...) for a stack.
    """
    voigt3 = q.voigt3 if isinstance(q, EffectiveBendingForm) else np.asarray(q)
    v = sym2_to_voigt3(G)
    if v.ndim == 1:
        return float(v @ voigt3 @ v)
    return np.einsum("...i,ij,...j->...", v, voigt3, v)


def _resample_axis(arr, target, axis):
    """Exact block refinement/coarsening of one axis of a phase array."""
    n = arr.shape[axis]
    if target == n:
        return arr
    if target > n:
        if target % n:
            raise ConfigError("rescaled count %d is not a multiple of %d along "
                              "axis %d" % (target, n, axis))
        return np.repeat(arr, target // n, axis=axis)
    if n % target:
        raise ConfigError("count %d is not divisible by rescaled count %d along "
                          "axis %d" % (n, target, axis))
    f = n // target
    moved = np.moveaxis(arr, axis, 0)
    blocks = moved.reshape((target, f) + moved.shape[1:])
    if not (blocks == blocks[:, :1]).all():
        raise ConfigError("phase grid is not constant on %d-element blocks along "
                          "axis %d; cannot coarsen it exactly" % (f, axis))
    return np.moveaxis(blocks[:, 0], 0, axis)


def _block_resample(cell_phase, n1b, n2b):
    """Exact block refinement/coarsening of a phase grid to (n1b, n2b)."""
    return _resample_axis(_resample_axis(cell_phase, n1b, 0), n2b, 1)


def gamma_rescale_check(grid, phases, materials, tol=1e-8):
    """Frobenius distance between the two equivalent cell formulations.

    Formulation A solves with the (1/gamma)-scaled transverse derivative on
    the unit-thickness cell.  Formulation B compresses the in-plane period by
    gamma (box L/gamma, medium block-resampled onto gamma*n1 x gamma*n2
    columns) and uses unscaled derivatives.  The two continuum problems agree
    exactly; the discrete values differ through resolution only, so the
    distance must shrink under mesh refinement and vanish identically at
    gamma = 1.
    """
    g = grid.gamma
    n1b, n2b = g * grid.n1, g * grid.n2
    if abs(n1b - round(n1b)) > 1e-9 or abs(n2b - round(n2b)) > 1e-9:
        raise ConfigError("gamma_rescale_check: gamma*n1 and gamma*n2 must be "
                          "integral (gamma=%g, n1=%d, n2=%d)" % (g, grid.n1, grid.n2))
    n1b, n2b = int(round(n1b)), int(round(n2b))
    qa = effective_form(grid, phases, materials, tol=tol).voigt3

    grid_b = RVEGrid(n1b, n2b, grid.n3, 1.0, grid.box_side / g)
    phases_b = PhaseGrid(n1b, n2b, grid_b.box_side,
                         _block_resample(phases.cell_phase, n1b, n2b))
    qb = effective_form(grid_b, phases_b, materials, tol=tol).voigt3
    return float(np.linalg.norm(qa - qb))
