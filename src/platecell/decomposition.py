"""Orthogonal splittings of vector and matrix fields on the plate geometry.

Two decompositions live here.

1. `decompose_mixed`: an L2 splitting of a 3-vector field on the RVE slab
   (periodic in-plane, free ends through the thickness) into a constant mean,
   a gradient part nabla(psi) with psi a nodal scalar, and a remainder that is
   L2-orthogonal to every discrete gradient.  The potential psi solves the
   Neumann/periodic Poisson problem <grad psi, grad chi> = <f - mean, grad chi>
   on the cell solver's slab mesh (`_mesh`: trilinear elements, 2x2x2 Gauss
   rule, the same connectivity and scatter).  The gradient here is the plain
   geometric one -- the reference gradients over hx, hy, hz, no thickness
   rescaling -- so the splitting depends only on the mesh, not on gamma.

   Both output parts are stored as Gauss-point fields ("gauss" layout):
   projecting nabla(psi) back to nodes would re-introduce O(h^2) components
   along gradients and destroy orthogonality, whereas at the quadrature points
   the Galerkin equation makes the remainder orthogonal to rounding level.
   Constants are also discrete gradients vertically (chi = x3 is in the
   scalar space) and average out horizontally by periodicity, so all three
   parts are mutually orthogonal without extra corrections.

   A nodal input is interpolated to the Gauss points once, by `to_gauss`;
   `decompose_mixed` and `orthogonality_report` take either layout, so a
   caller that needs both (the `decompose` command) interpolates first and
   hands them the Gauss-layout field.  That field, the potential and the
   solenoidal part are the only Gauss-layout arrays a split makes:
   `to_gauss` gathers and interpolates blocks of `_BLOCK` elements straight
   into its output, and the report sums its reconstruction residual block
   by block.  The field-sized means and inner products are contiguous
   `np.einsum` reductions, not BLAS calls, so the results do not depend on
   the BLAS thread count.  The 1D eigenbases of the Poisson solve are
   memoized per grid.

2. `decompose_second_order`: the analogous splitting of a periodic symmetric
   2x2 matrix field on the flat 2-torus into mean + Hessian part + remainder,
   done mode-by-mode in Fourier space where the Hessians of scalars span
   exactly the directions (k tensor k).  The projection is exact per mode, so
   remainders of Hessian inputs and pairings of Hessians against cofactor
   fields vanish to rounding.  `div_cof_residual` checks the companion
   null-Lagrangian identity div(cof grad b) = 0 on sampled vector fields.
"""

import functools

import numpy as np

from ._mesh import N, dN, nodes, scatter
from .errors import ConfigError, ConvergenceError, as_array, as_index, \
    as_real

_LAYOUTS = ("nodes", "gauss")
# Elements per block of the Gauss-point loops: a block's (_BLOCK, 8, 3)
# gather or residual takes 196 KB, against 1.77 MB for a whole field of the
# 48x48x4 slab.
_BLOCK = 1024


class MixedField:
    """3-vector field on the RVE slab, stored nodally or at Gauss points.

    Args:
        values: (n1, n2, n3+1, 3) for layout "nodes", or
            (n_elements, 8, 3) for layout "gauss".
        grid: RVEGrid the field lives on.
        layout: "nodes" or "gauss".
    """

    def __init__(self, values, grid, layout="nodes"):
        if layout not in _LAYOUTS:
            raise ConfigError("MixedField: layout must be one of %s, got %r"
                              % (_LAYOUTS, layout))
        values = np.asarray(values, dtype=float)
        if layout == "nodes":
            want = (grid.n1, grid.n2, grid.n3 + 1, 3)
        else:
            want = (grid.n_elements, 8, 3)
        if values.shape != want:
            raise ConfigError("MixedField: values shape %s does not match "
                              "layout %r on this grid (want %s)"
                              % (values.shape, layout, want))
        self.values = values
        self.grid = grid
        self.layout = layout


class MixedDecomposition:
    """Result of decompose_mixed: f = mean + potential + solenoidal."""

    def __init__(self, mean, potential, solenoidal, psi, residuals):
        self.mean = mean                # (3,) constant part
        self.potential = potential      # MixedField, layout "gauss"
        self.solenoidal = solenoidal    # MixedField, layout "gauss"
        self.psi = psi                  # (n1, n2, n3+1) nodal scalar
        self.residuals = residuals      # [1.0, verified relative residual]


# ---------------------------------------------------------------------------
# Scalar fields on the slab mesh (unscaled vertical derivative)
# ---------------------------------------------------------------------------

def _scalar_tables(grid):
    """Gradients B (8 gauss, 3, 8 nodes) and the weight of each Gauss point.

    B is the mesh's reference gradients divided by the element sizes
    hx, hy, hz = L/n1, L/n2, 1/n3.
    """
    hx, hy = grid.box_side / grid.n1, grid.box_side / grid.n2
    hz = 1.0 / grid.n3
    B = dN * np.array([1.0 / hx, 1.0 / hy, 1.0 / hz])[:, None]
    return B, hx * hy * hz / 8.0


def _blocks(n):
    """Consecutive slices of at most `_BLOCK` of n elements."""
    return [slice(s, s + _BLOCK) for s in range(0, n, _BLOCK)]


def to_gauss(field):
    """`field` in Gauss layout: itself if already there, else its trilinear
    interpolation to the 2x2x2 Gauss points of every element."""
    if field.layout == "gauss":
        return field
    grid = field.grid
    values = field.values.reshape(-1, 3)
    edof = nodes(grid.n1, grid.n2, grid.n3)
    out = np.empty((grid.n_elements, 8, 3))
    # np.take gathers 3-vectors about three times faster than fancy indexing;
    # each element's product is the same 8x8 GEMM whatever the block size
    for s in _blocks(grid.n_elements):
        np.matmul(N, np.take(values, edof[s], axis=0), out=out[s])
    return MixedField(out, grid, layout="gauss")


def random_mixed_field(grid, seed):
    """Reproducible nodal white-noise field (for property checks and demos)."""
    seed = as_index(seed, "random_mixed_field: seed", low=0)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    vals = rng.standard_normal((grid.n1, grid.n2, grid.n3 + 1, 3))
    return MixedField(vals, grid, layout="nodes")


def _eigenbasis_1d(n_el, h, periodic):
    """Closed-form solutions of K v = lam M v for 1D Q1 elements of size h.

    K and M are the assembled stiffness and mass of n_el elements.  On a
    periodic line (n_el nodes) they are circulant with symbols (2 - 2cos t)/h
    and h(4 + 2cos t)/6, and the Hartley vectors cos(t i) + sin(t i),
    t = 2 pi k / n_el, diagonalize both.  With free ends (n_el + 1 nodes) the
    cosines cos(t i), t = pi k / n_el, satisfy K v = sym_K D v and
    M v = sym_M D v with D = diag(1/2, 1, ..., 1, 1/2).

    Returns:
        (lam, V): lam[k] = sym_K / sym_M at t_k, so lam[0] = 0 belongs to the
        constant vector; the columns of V are scaled to V^T M V = I.
    """
    k = np.arange(n_el if periodic else n_el + 1)
    period = n_el if periodic else 2 * n_el
    step = 2.0 * np.pi / period            # t_k = k * step
    ti = step * (np.outer(k, k) % period)  # t_k i, reduced exactly
    d = np.ones(k.size)
    if periodic:
        V = np.cos(ti) + np.sin(ti)
    else:
        V = np.cos(ti)
        d[[0, -1]] = 0.5
    c = np.cos(step * k)
    sym_k, sym_m = (2.0 - 2.0 * c) / h, h * (4.0 + 2.0 * c) / 6.0
    V /= np.sqrt(sym_m * (d @ (V * V)))
    return sym_k / sym_m, V


@functools.lru_cache(maxsize=8)
def _eigenbases(n1, n2, n3, box_side):
    """The eigenbases Vx, Vy, Vz of `_eigenbasis_1d` along the three axes of
    the grid, and the eigenvalues lam_x + lam_y + lam_z (n1, n2, n3+1) of the
    stiffness with the constant mode's set to inf; memoized, read-only and
    shared."""
    lx, Vx = _eigenbasis_1d(n1, box_side / n1, periodic=True)
    ly, Vy = _eigenbasis_1d(n2, box_side / n2, periodic=True)
    lz, Vz = _eigenbasis_1d(n3, 1.0 / n3, periodic=False)
    denom = lx[:, None, None] + ly[:, None] + lz
    denom[0, 0, 0] = np.inf
    out = (denom, Vx, Vy, Vz)
    for arr in out:
        arr.flags.writeable = False
    return out


def _poisson_solve(grid, rhs):
    """Exact nodal solution of the assembled scalar Q1 stiffness system.

    The 2x2x2 Gauss rule integrates Q1 x Q1 products exactly, so the stiffness
    is the Kronecker sum Kx(x)My(x)Mz + Mx(x)Ky(x)Mz + Mx(x)My(x)Kz of 1D
    stiffness and mass matrices, periodic in-plane and with free ends through
    the thickness.  The tensor product of their generalized eigenbases
    diagonalizes it with eigenvalues lam_x + lam_y + lam_z (fast
    diagonalization, Lynch, Rice & Thomas 1964).  The single constant mode is
    dropped and psi returned with zero nodal mean; rhs must sum to zero.
    """
    n1, n2, n3 = grid.n1, grid.n2, grid.n3
    denom, Vx, Vy, Vz = _eigenbases(n1, n2, n3, grid.box_side)
    u = (Vx.T @ rhs.reshape(n1, -1)).reshape(n1, n2, n3 + 1)
    u = (Vy.T @ u @ Vz) / denom
    psi = (Vx @ (Vy @ u @ Vz.T).reshape(n1, -1)).reshape(-1)
    return psi - psi.mean()


def decompose_mixed(field, tol=1e-10):
    """Split f into mean + gradient + gradient-orthogonal remainder.

    The potential comes from a direct solve; one application of the assembled
    element operator then measures its true relative residual
    ||b - K psi|| / ||b||.

    Args:
        field: MixedField (either layout; a Gauss-layout one is not
            interpolated again, nor written into).
        tol: gate on that verified residual, in (0, 1).

    Returns:
        MixedDecomposition with Gauss-layout parts; its `residuals` are
        [1.0, verified residual] (a zero start, then the direct solve).

    Raises:
        ConvergenceError: the verified residual is above tol.
    """
    tol = as_real(tol, "decompose_mixed: tol", 0, 1)
    grid = field.grid
    B, wq = _scalar_tables(grid)
    B = B.reshape(24, 8)                  # rows (Gauss point, component)
    edof = nodes(grid.n1, grid.n2, grid.n3)
    sol = to_gauss(field).values
    volume = wq * 8.0 * grid.n_elements
    mean = (wq / volume) * np.einsum("eqc->c", sol)
    sol = sol - mean

    n_nodes = grid.n_nodes
    fe = sol.reshape(-1, 24) @ B
    fe *= wq
    rhs = scatter(edof, fe, n_nodes)
    rhs -= rhs.mean()
    psi = _poisson_solve(grid, rhs)

    ke = wq * (B.T @ B)
    psi_e = psi[edof]      # np.take would copy the read-only table first
    # fe's buffer takes the element products of K psi, and is freed before
    # the potential allocates
    Kpsi = scatter(edof, np.matmul(psi_e, ke, out=fe), n_nodes)
    del fe
    bnorm = np.linalg.norm(rhs)
    res = float(np.linalg.norm(rhs - Kpsi) / (bnorm if bnorm > 0 else 1.0))
    if not res <= tol:
        raise ConvergenceError(
            "decompose_mixed: direct Poisson solve left a relative residual "
            "%.3e above tol=%g" % (res, tol),
            residual_history=[[1.0], [res]])

    pot = (psi_e @ B.T).reshape(-1, 8, 3)
    sol -= pot
    return MixedDecomposition(
        mean=mean,
        potential=MixedField(pot, grid, layout="gauss"),
        solenoidal=MixedField(sol, grid, layout="gauss"),
        psi=psi.reshape(grid.n1, grid.n2, grid.n3 + 1),
        residuals=[1.0, res])


def orthogonality_report(field, decomposition=None, tol=1e-10):
    """Normalized residuals of the mixed splitting of `field`.

    `field` may have either layout; a nodal one is interpolated once, and
    shared with the splitting when `decomposition` is not given.

    Returns a dict with keys:
        pot_sol, pot_mean, sol_mean: |<a,b>| / max(|a| |b|, tiny)
        pythagoras: | |f|^2 - |mean|^2 V - |p|^2 - |s|^2 | / |f|^2
        reconstruction: |f - mean - p - s| / |f|
    """
    field = to_gauss(field)
    dec = decomposition if decomposition is not None \
        else decompose_mixed(field, tol=tol)
    grid = field.grid
    _, wq = _scalar_tables(grid)
    volume = wq * 8.0 * grid.n_elements
    fg = field.values
    p, s = dec.potential.values, dec.solenoidal.values
    mean = dec.mean

    def dot(a, b):
        return wq * float(np.einsum("eqc,eqc->", a, b))

    def pair(ab, aa, bb):
        return abs(ab) / max(np.sqrt(aa * bb), 1e-30)

    ff, pp, ss = dot(fg, fg), dot(p, p), dot(s, s)
    mm = float(mean @ mean) * volume
    nf = max(np.sqrt(ff), 1e-30)
    # |f - mean - p - s|^2 block by block: exactly 0 for a `decompose_mixed`
    # result, whose s comes from the same two subtractions
    rr = 0.0
    for b in _blocks(grid.n_elements):
        r = fg[b] - mean
        r -= p[b]
        r -= s[b]
        rr += float(np.einsum("eqc,eqc->", r, r))
    return {
        "pot_sol": pair(dot(p, s), pp, ss),
        "pot_mean": pair(wq * float(np.einsum("eqc->c", p) @ mean), pp, mm),
        "sol_mean": pair(wq * float(np.einsum("eqc->c", s) @ mean), ss, mm),
        "pythagoras": abs(ff - mm - pp - ss) / nf ** 2,
        "reconstruction": np.sqrt(wq * rr) / nf,
    }


# ---------------------------------------------------------------------------
# Periodic second-order splitting in the plane (spectral)
# ---------------------------------------------------------------------------

class SecondOrderSplit:
    """A = mean + hess(psi) + remainder on the 2-torus, remainder _|_ Hessians."""

    def __init__(self, mean, hessian, remainder, psi):
        self.mean = mean            # (2, 2)
        self.hessian = hessian      # (n, n, 2, 2)
        self.remainder = remainder  # (n, n, 2, 2)
        self.psi = psi              # (n, n) real scalar potential


def _wavenumbers(n, box_side):
    """Meshed wavenumbers with the Nyquist slot zeroed.

    For even n the single Nyquist frequency is its own conjugate partner but
    carries a one-sided sign, so odd powers of it break the conjugate symmetry
    of real fields; treating it as non-differentiable (k = 0, so those modes
    stay in remainders) keeps every projection exactly real and orthogonal.
    """
    k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=box_side / n)
    if n % 2 == 0:
        k1[n // 2] = 0.0
    kx, ky = np.empty((n, n)), np.empty((n, n))
    kx[:] = k1[:, None]
    ky[:] = k1
    return kx, ky


def _square_field(a, name, shape):
    """a as a square (n, n) + shape field, refused naming the argument."""
    a = as_array(a, name, (None, None) + shape)
    if a.shape[0] != a.shape[1]:
        raise ConfigError("%s: expected a square (n, n, %s) field"
                          % (name, ", ".join(map(str, shape))))
    return a


def _check_sym_field(A, name):
    A = _square_field(A, name, (2, 2))
    if np.max(np.abs(A - np.swapaxes(A, 2, 3))) > 1e-12 * max(
            1.0, float(np.max(np.abs(A)))):
        raise ConfigError("%s: matrix field is not symmetric" % name)
    return A


def decompose_second_order(A, box_side=1.0):
    """Project a periodic symmetric 2x2 field onto Hessians of scalars.

    Per nonzero Fourier mode k, Hessians of periodic scalars span exactly the
    line (k tensor k), so the L2-orthogonal projection is
    ((k.A(k).k)/|k|^4) * (k tensor k) and is computed mode-by-mode; the
    remainder is orthogonal to every Hessian by construction, exactly.
    Nyquist modes (even n) are not differentiable on the grid and stay wholly
    in the remainder.

    Args:
        A: (n, n, 2, 2) symmetric, sampled at x_i = i * box_side / n.
        box_side: torus period (only rescales psi, not the split).

    Returns:
        SecondOrderSplit.
    """
    A = _check_sym_field(A, "decompose_second_order: A")
    n = A.shape[0]
    L = as_real(box_side, "decompose_second_order: box_side", 0)
    Ah = np.fft.fft2(A, axes=(0, 1))
    kx, ky = _wavenumbers(n, L)
    k2 = kx * kx + ky * ky
    k2s = np.where(k2 > 0, k2, 1.0)
    # k . A(k) . k
    s = (kx * kx * Ah[..., 0, 0] + 2.0 * kx * ky * Ah[..., 0, 1]
         + ky * ky * Ah[..., 1, 1])
    coef = np.where(k2 > 0, s / (k2s * k2s), 0.0)
    Hh = np.empty_like(Ah)
    Hh[..., 0, 0] = coef * kx * kx
    Hh[..., 0, 1] = coef * kx * ky
    Hh[..., 1, 0] = Hh[..., 0, 1]
    Hh[..., 1, 1] = coef * ky * ky
    psih = np.where(k2 > 0, -s / (k2s * k2s), 0.0)
    mean = Ah[0, 0].real / (n * n)
    H = np.fft.ifft2(Hh, axes=(0, 1)).real
    psi = np.fft.ifft2(psih, axes=(0, 1)).real
    R = A - mean - H
    return SecondOrderSplit(mean=mean, hessian=H, remainder=R, psi=psi)


def hessian_pairing(split, other):
    """Normalized L2 pairing of split.hessian with another sym field.

    For `other` built as cof(sym grad b) of a periodic vector field b the
    pairing vanishes mode-by-mode (2x2 cofactors are linear), so this is a
    rounding-level check of the structural orthogonality.
    """
    other = _check_sym_field(other, "hessian_pairing: other")
    H = split.hessian
    num = abs(float(np.sum(H * other))) / H.shape[0] ** 2
    den = max(np.sqrt(float(np.sum(H * H)) * float(np.sum(other * other)))
              / H.shape[0] ** 2, 1e-30)
    return num / den


def cof_sym_grad(b, box_side=1.0):
    """cof(sym grad b) of a periodic 2D vector field, spectral derivatives.

    Args:
        b: (n, n, 2) samples at x_i = i * box_side / n.

    Returns:
        (n, n, 2, 2) symmetric field.
    """
    G = _spectral_grad(_square_field(b, "cof_sym_grad: b", (2,)),
                       as_real(box_side, "cof_sym_grad: box_side", 0))
    S = 0.5 * (G + np.swapaxes(G, 2, 3))
    return _cof2(S)


def _cof2(M):
    """Cofactor matrix of a (..., 2, 2) field: cof[i,a] = (-1)^(i+a) minor."""
    C = np.empty_like(M)
    C[..., 0, 0] = M[..., 1, 1]
    C[..., 0, 1] = -M[..., 1, 0]
    C[..., 1, 0] = -M[..., 0, 1]
    C[..., 1, 1] = M[..., 0, 0]
    return C


def _spectral_grad(b, box_side):
    """grad b via FFT: out[..., i, a] = d_a b_i for square (n, n, 2) b."""
    kx, ky = _wavenumbers(b.shape[0], box_side)
    bh = np.fft.fft2(b, axes=(0, 1))
    G = np.empty(b.shape[:2] + (2, 2), dtype=complex)
    G[..., 0] = 1j * kx[..., None] * bh
    G[..., 1] = 1j * ky[..., None] * bh
    return np.fft.ifft2(G, axes=(0, 1)).real


def _fd_grad(b, box_side):
    """Second-order centered periodic differences of a (n, n, 2) field."""
    n = b.shape[0]
    h = box_side / n
    G = np.empty(b.shape[:2] + (2, 2))
    G[..., 0] = (np.roll(b, -1, axis=0) - np.roll(b, 1, axis=0)) / (2 * h)
    G[..., 1] = (np.roll(b, -1, axis=1) - np.roll(b, 1, axis=1)) / (2 * h)
    return G


def div_cof_residual(b, box_side=1.0, method="spectral", grad=None):
    """Normalized residual of the identity div(cof grad b) = 0.

    The cofactor matrix of a gradient is row-wise divergence free (a null
    Lagrangian fact).  The gradient inside the cofactor is always taken
    spectrally (exact for band-limited fields); `method` selects the outer
    divergence.  With "spectral" both layers commute and the residual is
    rounding noise; with "fd2" (centered differences) the mismatch between
    the exact and the difference wavenumber leaves a genuine second-order
    residual, so halving the sample spacing shrinks it about fourfold.

    Args:
        b: (n, n, 2) periodic samples.
        box_side: torus period.
        method: "spectral" or "fd2" outer divergence.
        grad: optional constant (2, 2) matrix added to grad b, for affine
            parts that are not themselves periodic.

    Returns:
        float: RMS(div cof) * (box_side / 2 pi) / RMS(cof).
    """
    b = _square_field(b, "div_cof_residual: b", (2,))
    box_side = as_real(box_side, "div_cof_residual: box_side", 0)
    if method == "spectral":
        d1 = _spectral_grad
    elif method == "fd2":
        d1 = _fd_grad
    else:
        raise ConfigError("div_cof_residual: method must be 'spectral' or "
                          "'fd2', got %r" % (method,))
    G = _spectral_grad(b, box_side)
    if grad is not None:
        G = G + as_array(grad, "div_cof_residual: grad", (2, 2))
    C = _cof2(G)
    # row-wise divergence: r_i = d_a C[i, a]
    Cx = d1(C[..., :, 0], box_side)   # derivatives of column a=0
    Cy = d1(C[..., :, 1], box_side)
    r = Cx[..., 0] + Cy[..., 1]
    rms_r = np.sqrt(float(np.mean(r * r)))
    rms_c = np.sqrt(float(np.mean(C * C)))
    return rms_r * (box_side / (2.0 * np.pi)) / max(rms_c, 1e-30)
