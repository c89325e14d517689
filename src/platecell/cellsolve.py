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

Every medium is isotropic and constant through the thickness, on layers and
Gauss points symmetric about the midplane, so the problem commutes with the
reflection x3 -> -x3 and every corrector has a parity: the signs s of
(u1, u2, u3) under the reflection, (-, -, +) for the bending loads x3 G and
(+, +, -) for the membrane loads B.  An operator solves in one parity, on the
folded half-slab: node layer k sits on slot r = min(k, n3 - k) with
coefficient 1/sqrt2 below the midplane and s_c/sqrt2 above it, and a midplane
node (even n3) keeps coefficient 1 for an even component and 0 for an odd
one.  The slots are orthonormal, so the folded problem is the full one
restricted to the parity's fields, and conjugate gradients take the same
iterates on about half the dofs.  The unknowns are the free (slot,
component) pairs only: an odd component at the midplane is identically 0
and has no dof.  Only the element layers below the midplane are kept, with
weight 2 for their mirror images; the self-mirrored straddling layer of odd
n3 keeps weight 1, its top nodes aliasing its bottom slots with the signs
s_c.

The kernels are the folded 24x24 w diag(sigma) K_p diag(sigma) per (phase,
layer), sigma the slot coefficients of the local dofs.  The stiffness is
applied as a stencil (Bell & Garland 2009): the f free dofs of an in-plane
node couple only to those of its 3 x 3 in-plane neighbours, so the operator
is one (f, 9 f) block per node, and a product is one gather of the
neighbours' node vectors and one batched matrix product, with no scatter.
The phases are constant through the thickness, so a node's block is the sum
of the quadrant blocks of its four element columns, each summed over the
kept layers once per set-up; an operator sums them once per distinct pattern
of the four phases.  One dof table of the kept elements, sorted by (phase,
layer), serves the right-hand sides (gather, one scatter) and the energy
closure.  Conjugate gradients update in place; the translations of the even
components are projected out of the right-hand sides and the solution only.
Fields are (ndof, m) blocks, one column per load, stored column by column
(Fortran order): each column is one contiguous run, so the gathers, the
conjugate gradients' per-column updates and dot products, and the
preconditioner's products all read contiguous memory, while the shape stays
the one that callers and the benchmark's matvec hooks read.  The operator's
maps give identical bits for either memory order of their input.
The preconditioner is the exact inverse of a homogeneous reference medium
(Lame constants the geometric means of the phases present): its folded
stiffness is block-circulant in the in-plane node indices, one stencil block
at every node, so the real 2D DFT splits it into one Hermitian system per
wavevector on the free pairs of an in-plane node (Moulinec & Suquet 1998;
Zeman et al. 2010).  Iteration counts then depend on the phase contrast but
not on the mesh.  The inverse is applied as products with precomputed real
matrices, five matrix products and no complex arithmetic: the real DFT along
n1, the complex DFT along n2 in its real embedding, the per-wavevector
inverse blocks in theirs, then the two transposed passes, each on the
contiguous plane of one column; the inverse transform's Hermitian weights
and 1/(n1 n2) are folded into the blocks, so the preconditioner reads
F^T D F.
Those matrices, the fold, the strain matrices, the phase forms, kernels
and quadrant blocks and the neighbour table depend only on the grid, the
parity and the Lame pairs of the phases present, so they make one set-up,
built once per (grid, parity, Lame pairs) and shared read-only by every
operator on them, whatever its phase layout; the layout enters through the
node blocks and the dof table alone.  One more table holds the element load
vectors, which depend also on the loads' parts in the parity.
Unit loads iterate together (block right-hand side) into one bilinear energy
closure: the three bending loads give the bending form, and with the three
membrane loads, solved in the other parity, the 6x6 tensor, whose
membrane/bending block is zero and whose bending block is therefore the
bending form.
"""

import functools
from collections import namedtuple

import numpy as np

from ._krylov import block_pcg
from ._mesh import GAUSS, column_keys, dN, nodes, scatter
from .errors import ConfigError, NumericalError, as_array, as_index, \
    as_real
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
        self.n3 = as_index(n3, "grid: n3", low=2)
        self.gamma = as_real(gamma, "grid: gamma", 0)
        self.box_side = as_real(box_side, "grid: box_side", 0)
        if self.n1 < 2 or self.n2 < 2 or self.n1 % 2 or self.n2 % 2:
            raise ConfigError("grid: n1, n2 must be even and >= 2")

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
        M = as_array(M, "load." + name, (2, 2))
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
# Element machinery on the folded half-slab
# ---------------------------------------------------------------------------

# The parities: signs of (u1, u2, u3) under the reflection x3 -> -x3.
BENDING = (-1, -1, 1)
MEMBRANE = (1, 1, -1)


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


def _fold(n1, n2, n3, parity):
    """The fold of the n1 x n2 x n3 slab onto the free unknowns of one
    parity.

    A (slot, component) pair is free unless its coefficient is 0 at every
    node layer: the odd components at the midplane of even n3.  The free
    pairs of in-plane node j are dofs j f, ..., j f + f - 1, in (slot,
    component) order.  A local dof on a pair that is not free takes the free
    dof before it on its in-plane node; its coefficient sigma = 0 makes its
    folded kernel row and column, its load entries and its strain column
    exact zeros, so it never reads or writes that dof.

    Returns:
        fold: (n3 + 1, n3 // 2 + 1, 3) coefficient of component c of node
            layer k on slot r, nonzero only at r = min(k, n3 - k).
        weight: (layers,) 2 for each kept element layer e < ceil(n3 / 2),
            1 for the straddling layer of odd n3.
        edof: (n1 n2, layers, 24) folded dofs of the kept elements, in
            natural order.
        sigma: (layers, 24) slot coefficient of each local dof.
    """
    s = np.asarray(parity, dtype=float)
    k = np.arange(n3 + 1)
    below, above = (2 * k < n3)[:, None], (2 * k > n3)[:, None]
    coef = np.where(below, 1.0 / SQRT2,
                    np.where(above, s / SQRT2, (1.0 + s) / 2.0))
    fold = np.zeros((n3 + 1, n3 // 2 + 1, 3))
    fold[k, np.minimum(k, n3 - k)] = coef
    free = fold.any(axis=0).ravel()
    rank = np.cumsum(free) - 1         # dof of each pair on its in-plane node
    e = np.arange((n3 + 1) // 2)
    weight = np.where(2 * e + 1 == n3, 1.0, 2.0)
    col, layer = np.divmod(
        nodes(n1, n2, n3).reshape(n1 * n2, n3, 8)[:, :len(e)], n3 + 1)
    pair = 3 * np.minimum(layer, n3 - layer)[..., None] + np.arange(3)
    edof = col[..., None] * free.sum() + rank[pair]
    kz = e[:, None] + (np.arange(8) >> 2)    # node layers of local nodes
    sigma = fold[kz, np.minimum(kz, n3 - kz)].reshape(len(e), 24)
    return fold, weight, edof.reshape(n1 * n2, len(e), 24), sigma


def _folded_kernels(ke, sigma, weight):
    """w diag(sigma) ke diag(sigma) for each of the kernels ke (p, 24, 24)
    and kept layers: (p * layers, 24, 24), phase-major."""
    scaled = weight[:, None] * sigma
    return (sigma[:, :, None] * ke[:, None] * scaled[:, None, :]) \
        .reshape(-1, 24, 24)


def _part(load, parity):
    """The load's part in the parity: G (of x3 G) for bending, B for
    membrane."""
    return load.G if parity == BENDING else load.B


def _load_strains(M, zq, parity):
    """Voigt strain per (kept layer, gauss) of the part M in the parity,
    iota(x3 M) or iota(M), at the heights zq: (layers, 8, 6)."""
    z = zq if parity == BENDING else np.ones_like(zq)
    eps = np.zeros(zq.shape + (6,))
    eps[..., 0] = z * M[0, 0]
    eps[..., 1] = z * M[1, 1]
    eps[..., 5] = SQRT2 * (z * M[0, 1])
    return eps


def _translations(fold):
    """Unit translation of each even component on the (slot, component)
    pairs of one in-plane node, (pairs, even components); the odd components
    have none."""
    omega = fold.sum(axis=0)
    even = omega.any(axis=0)
    norm = np.sqrt((omega[:, even] ** 2).sum(axis=0))
    return (omega[..., None] * np.eye(3)[:, even]).reshape(-1, even.sum()) \
        / norm


# The 3 x 3 in-plane neighbours (di, dj) of a node, in the order of the
# stencil's column blocks: neighbour k of node (i, j) is node (i + di, j + dj).
_OFFSETS = tuple((di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1))
# A node is corner q = dx + 2 dy of the element column whose lower corner is
# its neighbour (-dx, -dy): that neighbour's index, per q.
_CORNERS = [_OFFSETS.index((-(q & 1), -(q >> 1))) for q in range(4)]


def _neighbours(n1, n2):
    """(n1 n2, 9) periodic in-plane node of each `_OFFSETS` neighbour of every
    in-plane node i n2 + j; with n1 or n2 = 2 the -1 and +1 neighbours are one
    node, held twice."""
    i, j = np.divmod(np.arange(n1 * n2), n2)
    di, dj = np.array(_OFFSETS).T
    return ((i[:, None] + di) % n1) * n2 + (j[:, None] + dj) % n2


def _quadrants(ke, edof, f):
    """The stencil rows that one element column adds to the node at each of
    its corners: (4, phases, f, 9 f), block [q, p] for corner q = dx + 2 dy
    of a column of phase p, its columns the f dofs of each `_OFFSETS`
    neighbour of that node, summed over the kept layers.

    ke are folded kernels (phases * layers, 24, 24), phase-major, and edof
    `_fold`'s: local dof a of layer e is dof edof[., e, a] % f of the node
    at corner (a // 3) & 3.
    """
    rank = edof[0] % f                                   # (layers, 24)
    corner = (np.arange(24) // 3) & 3
    dx, dy = corner & 1, corner >> 1
    k = (dx - dx[:, None] + 1) * 3 + dy - dy[:, None] + 1   # b seen from a
    keys = ((corner[:, None] * f + rank[:, :, None]) * 9 + k) * f \
        + rank[:, None, :]
    return np.ascontiguousarray(np.stack([
        np.bincount(keys.ravel(), weights=w, minlength=36 * f * f)
        for w in ke.reshape(-1, keys.size)]).reshape(-1, 4, f, 9 * f)
        .swapaxes(0, 1))


def _dft_passes(n1, n2):
    """The two passes of the real 2D DFT on the n1 x n2 in-plane nodes, as
    real matrices.

    Returns:
        rdft: (2 (n1 // 2 + 1), n1) real DFT along n1, rows (a, part): the
            cos and -sin of 2 pi a i / n1, the real and imaginary parts of
            rfft's wavevector a.
        dft: (2 n2, 2 n2) complex DFT along n2 in its real embedding, rows
            (j, part) and columns (part, l): [[C, S], [-S, C]], C and S the
            cos and sin of 2 pi j l / n2.
    """
    phase = 2.0 * np.pi * (np.outer(np.arange(n1 // 2 + 1), np.arange(n1))
                           % n1) / n1
    rdft = np.stack([np.cos(phase), -np.sin(phase)], axis=1).reshape(-1, n1)
    theta = 2.0 * np.pi * (np.outer(np.arange(n2), np.arange(n2)) % n2) / n2
    c, s = np.cos(theta), np.sin(theta)
    dft = np.stack([np.stack([c, s], axis=1), np.stack([-s, c], axis=1)],
                   axis=1).reshape(2 * n2, 2 * n2)
    return rdft, dft


def _reference_inverse(grid, free, stencil, t):
    """Per-wavevector inverses of the folded stiffness of a homogeneous
    medium of node stencil (f, 9 f), the sum of its four `_quadrants`, given
    the free (slot, component) pairs and their translations t of
    `_translations`.

    The folded stiffness applied to the f unit fields of the free dofs at
    in-plane node (0, 0) is, at the node -d from it, the stencil's block of
    neighbour d (node (0, 0) is that node's neighbour d); transformed by
    rfft2 with the real transform along n1, it is the symbol per
    wavevector, set into the M x M symbol of all the (slot, component) pairs
    with the identity on the pinned others, the odd components at the
    midplane.
    The zero-wavevector block is singular on the translations of the even
    components, which are lifted by a multiple of their projector; the lifted
    block maps the mean-free fields to themselves, so the inverse adds only a
    rounding-level translation part, which the solve's final projection
    removes.  Each Hermitian block K = Kr + i Ki is inverted through its real
    embedding [[Kr, -Ki], [Ki, Kr]], whose inverse is [[A, -B], [B, A]] with
    K^-1 = A + i B; its free rows and columns are kept, times irfft2's
    Hermitian weight of the wavevector's row a (1 at a = 0 and n1 / 2, 2
    between) over n1 n2, so that with `_dft_passes`' F the inverse of the
    reference stiffness is F^T D F.  K^-1 is Hermitian, so each block is
    symmetric; it is symmetrized exactly, and the preconditioner applies it
    from the right to the rows of its columns.

    Returns:
        D: (n1 // 2 + 1, n2, 2f, 2f) real array, wavevector (a, j) at D[a, j],
            rows and columns (part, free pair), f the free pairs of
            M = 3 (n3 // 2 + 1).

    Raises:
        NumericalError: an embedded block is singular or D is not finite,
            as when the element sizes of a box side far from 1 overflow or
            underflow the kernels.
    """
    n1, n2 = grid.n1, grid.n2
    pinned, free = ~free, np.flatnonzero(free)
    m, f = pinned.size, len(free)
    columns = np.zeros((n1, n2, f, f))
    for (di, dj), block in zip(_OFFSETS, np.split(stencil, 9, axis=1)):
        columns[-di % n1, -dj % n2] += block
    symbol = np.zeros((n1 // 2 + 1, n2, m, m), dtype=complex)
    symbol[:, :, free[:, None], free] = np.fft.rfft2(columns, axes=(1, 0))
    symbol[0, 0] += np.trace(symbol[0, 0].real) / m * (t @ t.T)
    symbol[:, :, pinned, pinned] = 1.0
    embedded = np.block([[symbol.real, -symbol.imag],
                         [symbol.imag, symbol.real]])
    kept = np.r_[free, m + free]
    weight = np.full(n1 // 2 + 1, 2.0)
    weight[[0, -1]] = 1.0
    try:
        D = np.linalg.inv(embedded)[..., kept[:, None], kept] \
            * (weight / (n1 * n2))[:, None, None, None]
    except np.linalg.LinAlgError:
        D = None
    if D is None or not np.isfinite(D).all():
        raise NumericalError(
            "the reference-medium symbol on %r is singular or not finite: "
            "the element sizes of box side %g overflow or underflow the "
            "kernels" % (grid, grid.box_side))
    return np.ascontiguousarray(0.5 * (D + D.swapaxes(-1, -2)))


# All of a cell operator that its phase layout does not enter: `_fold`'s
# fold, weight, edof and sigma; free, whether each (slot, component) pair is
# free; Bq, the (8, 6, 24) strain matrices, and Bs, (layers, 48, 24) them on
# the slots of each kept layer; forms, the (phases, 6, 6) Voigt forms; ke,
# the (phases * layers, 24, 24) folded kernels, phase-major; quadrants, the
# (4, phases, f, 9 f) `_quadrants` of those kernels, and neighbours, the
# (n1 n2, 9) `_neighbours`; zq, the x3 of each (kept layer, Gauss point),
# (layers, 8); rdft and dft, the `_dft_passes`, and spectral_inverse, the
# blocks D of `_reference_inverse`, of the medium whose Lame constants are
# the geometric means of the phases'; shift, the translations on the free
# pairs of one in-plane row of nodes, (translations, n2 * free pairs).
_Setup = namedtuple("_Setup", "fold weight edof sigma free Bq Bs forms ke "
                    "quadrants neighbours zq rdft dft spectral_inverse shift")


@functools.lru_cache(maxsize=8)
def _setup(n1, n2, n3, gamma, box_side, lame, parity):
    """The `_Setup` of the phases with the Lame pairs `lame`, in that order,
    in one parity on the grid; memoized, read-only and shared by every
    operator on them, whatever its phase layout."""
    grid = RVEGrid(n1, n2, n3, gamma, box_side)
    fold, weight, edof, sigma = _fold(n1, n2, n3, parity)
    free = fold.any(axis=0).ravel()
    f = int(free.sum())
    Bq = _strain_matrices(grid)
    wq = 1.0 / (8.0 * grid.n_elements)              # volume-average weight
    forms = np.stack([isotropic_form(mu, lam).voigt for mu, lam in lame])
    ke = _folded_kernels(np.einsum("qci,pcd,qdj->pij", Bq, forms, Bq) * wq,
                         sigma, weight)
    mu, lam = np.prod(lame, axis=0) ** (1.0 / len(lame))  # geometric means
    reference = np.einsum("qci,cd,qdj->ij", Bq, isotropic_form(mu, lam).voigt,
                          Bq) * wq
    reference = _quadrants(_folded_kernels(reference[None], sigma, weight),
                           edof, f).sum(axis=0)[0]
    t = _translations(fold)
    gz = np.repeat(GAUSS, 4)                     # zeta of each Gauss point
    zq = -0.5 + (np.arange(len(weight))[:, None] + gz[None, :]) * (1.0 / n3)
    out = _Setup(fold, weight, edof, sigma, free, Bq,
                 Bq.reshape(48, 24) * sigma[:, None], forms, ke,
                 _quadrants(ke, edof, f), _neighbours(n1, n2), zq,
                 *_dft_passes(n1, n2),
                 _reference_inverse(grid, free, reference, t),
                 np.tile(t[free].T, n2))
    for arr in out:
        arr.flags.writeable = False
    return out


@functools.lru_cache(maxsize=8)
def _load_vectors(key, parts):
    """Folded element load vectors per (phase, kept layer), on the set-up
    `_setup(*key)`, of the loads whose parts in its parity are `parts`, the
    bytes of their (m, 2, 2) stack; memoized and read-only.

    Returns:
        (phases * layers, 24, m) array, phase-major.
    """
    n1, n2, n3, _, _, _, parity = key
    s = _setup(*key)
    wq = 1.0 / (8.0 * (n1 * n2 * n3))
    parts = np.frombuffer(parts).reshape(-1, 2, 2)
    fe = np.stack([np.einsum("qci,pcd,kqd->pki", s.Bq, s.forms,
                             _load_strains(M, s.zq, parity)) * wq
                   for M in parts], axis=-1)
    scale = s.weight[:, None] * s.sigma                  # (layers, 24)
    fe = (fe * scale[..., None]).reshape(-1, 24, len(parts))
    fe.flags.writeable = False
    return fe


class CellOperator:
    """Stiffness operator of one cell problem, stored as a per-node
    stencil, on the folded half-slab of one parity (`BENDING` or
    `MEMBRANE`).

    Holds its stencil, one (f, 9 f) block per in-plane node that maps the f
    dofs of the node's 3 x 3 neighbours to its own f, the (phase,
    layer)-sorted dof table of the kept elements, which serves the
    right-hand sides and the closure, and the arrays of its `_setup`, shared
    with every operator on the same grid, parity and Lame pairs: the folded
    24x24 kernels and their quadrant blocks, the neighbour table, the real
    DFT matrices and per-wavevector blocks of the reference-medium
    preconditioner, the Gauss heights.  Its fields are folded, (ndof, m),
    stored column by column; `expand` maps them to full-slab nodal fields.
    Loads enter through their part in the parity, x3 G for bending, B for
    membrane; the other part is orthogonal to every field of the parity.
    """

    def __init__(self, grid, phases, materials, parity):
        if (phases.n1, phases.n2, phases.box_side) != \
                (grid.n1, grid.n2, grid.box_side):
            raise ConfigError("phase grid is %dx%d with box_side %r but the "
                              "RVE grid wants %dx%d with box_side %r"
                              % (phases.n1, phases.n2, phases.box_side,
                                 grid.n1, grid.n2, grid.box_side))
        present = np.unique(phases.cell_phase)
        missing = [int(p) for p in present if int(p) not in materials]
        if missing:
            raise ConfigError("material table lacks phase ids %s" % missing)
        if parity not in (BENDING, MEMBRANE):
            raise ConfigError("cell operator: parity must be BENDING or "
                              "MEMBRANE, not %r" % (parity,))
        self.grid = grid
        self.parity = parity
        lame = tuple((materials[p].lame_mu, materials[p].lame_lambda)
                     for p in present)
        self._key = (grid.n1, grid.n2, grid.n3, grid.gamma, grid.box_side,
                     lame, parity)
        s = _setup(*self._key)
        self.fold, self.weight, self.zq, self._free = \
            s.fold, s.weight, s.zq, s.free
        self.Bs, self.forms, self.ke, self._neighbours = \
            s.Bs, s.forms, s.ke, s.neighbours
        self._rdft, self._dft, self.spectral_inverse, self._shift = \
            s.rdft, s.dft, s.spectral_inverse, s.shift
        self.ndof = grid.n1 * grid.n2 * int(self._free.sum())
        self.wq = 1.0 / (8.0 * grid.n_elements)      # volume-average weight

        # --- connectivity: kept elements stably sorted by (phase, layer) ----
        layers = len(self.weight)
        phase = np.searchsorted(present, phases.cell_phase)    # (n1, n2)
        block = (phase.reshape(-1, 1) * layers + np.arange(layers)).ravel()
        order = np.argsort(block, kind="stable")
        # kernel b = phase * layers + layer owns bounds[b]:bounds[b + 1]
        self.table = s.edof.reshape(-1, 24)[order].T.copy()   # (24, n_kept)
        self.bounds = np.r_[0, np.cumsum(np.bincount(block))]

        # --- stencil: the block of a node sums the quadrants [q, p_q] of its
        # four columns, so it is summed once per distinct pattern id
        # sum_q p_q P^q, P the phases present, and taken to every node of it
        corners = np.take(phase.ravel(), self._neighbours[:, _CORNERS])
        ids = corners @ len(present) ** np.arange(4)
        patterns, node_pattern = np.unique(ids, return_inverse=True)
        blocks = 0.0
        for q in range(4):
            patterns, p = np.divmod(patterns, len(present))
            blocks = blocks + s.quadrants[q, p]
        self.stencil = np.take(blocks, node_pattern, axis=0)

    # --- reference-medium preconditioner --------------------------------------
    def precondition(self, R):
        """Apply the reference-medium inverse F^T D F to residuals R:
        (ndof, k), returned stored column by column.

        Five matrix products with the set-up's real matrices, each on the
        contiguous (n1, n2 f) plane of one column of a column-major R: the
        rdft along n1, giving rows (a, part); the embedded dft along n2 per
        (column, a), giving rows (j, part); the symmetric blocks D per
        wavevector (a, j), applied from the right to the k rows of its
        columns; then the transposes of the two passes in reverse order.
        """
        n1, n2, k = self.grid.n1, self.grid.n2, R.shape[1]
        h = len(self._rdft) // 2
        f = len(R) // (n1 * n2)
        RT = np.asfortranarray(R).T                    # (k, ndof), no copy
        X = np.matmul(self._rdft, RT.reshape(k, n1, n2 * f))
        X = np.matmul(self._dft, X.reshape(k, h, 2 * n2, f))
        Z = np.empty_like(X)
        np.matmul(X.reshape(k, h, n2, 2 * f).transpose(1, 2, 0, 3),
                  self.spectral_inverse,
                  out=Z.reshape(k, h, n2, 2 * f).transpose(1, 2, 0, 3))
        Z = np.matmul(self._dft.T, Z)
        return np.matmul(self._rdft.T, Z.reshape(k, 2 * h, -1)) \
            .reshape(RT.shape).T

    # --- kernel projection -------------------------------------------------
    def project(self, U):
        """Remove the translations of the even components from U (ndof, m),
        in place, in either memory order."""
        # (m, n1, n2 * pairs), a row of in-plane nodes per n1: a view of U.T
        # in both orders
        V = U.T.reshape(U.shape[1], self.grid.n1, -1)
        # (m, translations); the node sums are made C-ordered, so that both
        # orders reach the same matrix product
        coef = np.ascontiguousarray(V.sum(axis=1)) @ self._shift.T
        V -= ((coef / (self.grid.n1 * self.grid.n2)) @ self._shift)[:, None]
        return U

    # --- operator application ----------------------------------------------
    def matvec(self, U):
        """Apply the stiffness operator to U of shape (ndof, m); the result
        is stored column by column.

        One gather of the f-vectors of each node's 9 neighbours from every
        column, (m, n1 n2, 9 f), then one batched product with the node
        blocks, written into the (n1 n2, f, m) view of a column-major result;
        each node's rows are summed inside its own product, with no scatter.
        """
        n, f, m = len(self.stencil), self.stencil.shape[1], U.shape[1]
        G = np.take(U.T.reshape(m, n, f), self._neighbours, axis=1)
        out = np.empty((m, n, f))
        np.matmul(self.stencil, G.reshape(m, n, 9 * f).transpose(1, 2, 0),
                  out=out.transpose(1, 2, 0))
        return out.reshape(m, -1).T

    # --- full-slab fields ----------------------------------------------------
    def expand(self, U):
        """Full-slab nodal fields (3 n_nodes, m) of the folded U (ndof, m)."""
        n, m = self.grid.n1 * self.grid.n2, U.shape[-1]
        V = np.zeros((n, self._free.size, m))
        V[:, self._free] = U.reshape(n, -1, m)
        full = np.einsum("krc,srcm->skcm", self.fold,
                         V.reshape((n,) + self.fold.shape[1:] + (m,)))
        return full.reshape(-1, m)

    # --- loads ---------------------------------------------------------------
    def rhs(self, loads):
        """Folded right-hand sides -f for a list of loads: (ndof, m), stored
        column by column."""
        parts = np.stack([_part(load, self.parity) for load in loads])
        fe = _load_vectors(self._key, parts.tobytes())
        kernel = np.repeat(np.arange(len(fe)), np.diff(self.bounds))
        fe = np.take(fe.transpose(2, 1, 0), kernel, axis=2)  # (m, 24, n_kept)
        return -scatter(column_keys(self.table, self.ndof, len(loads)), fe,
                        (self.ndof, len(loads)))

    # --- energies ------------------------------------------------------------
    def closure(self, loads, X):
        """Energy Gram matrix (m, m) of the loads plus their folded fields X
        (ndof, m): entry (a, b) is the cell average of tau_a : Q0 : tau_b
        over the loads' parts in this parity."""
        m = len(loads)
        layers = len(self.weight)
        # (m, 24, n_kept), read from either memory order of X
        Xe = np.take(X.reshape(len(X), -1).T, self.table, axis=1)
        eps = np.stack([_load_strains(_part(ld, self.parity), self.zq,
                                      self.parity) for ld in loads])[..., None]
        # M[a, b] = sum_(p, l) w_l sum_qe tau_a[q, :, e] . Q_p tau_b[q, :, e],
        # each block summed pairwise over its contiguous points: the running
        # sum of a matrix product over thousands of points left the tensors
        # up to 8e-15 relative off an exact sum
        M = np.zeros((m, m))
        for b, (lo, hi) in enumerate(zip(self.bounds[:-1], self.bounds[1:])):
            p, l = divmod(b, layers)
            taus = (self.Bs[l] @ Xe[:, :, lo:hi]).reshape(m, 8, 6, -1)
            taus += eps[:, l]
            stress = self.forms[p] @ taus
            for i in range(m):
                for j in range(m):
                    M[i, j] += self.weight[l] * (taus[i] * stress[j]).sum()
        return M * self.wq

    # --- solver ---------------------------------------------------------------
    def solve(self, rhs, tol=1e-8, max_iter=None, callback=None):
        """Block PCG, preconditioned by the reference-medium inverse, with the
        kernel projected out of the right-hand sides and the solution.

        Args:
            rhs: (ndof, m) folded right-hand sides (solved simultaneously).
            tol: relative residual target per column, in (0, 1).
            max_iter: iteration cap; default 20*sqrt(3 n_nodes), the full
                slab's, since the fold leaves the iterates unchanged.
            callback: optional f(iteration, x) hook (e.g. energy tracing).

        Returns:
            (x, history): folded solution (ndof, m) and per-iteration list of
            per-column relative residuals.

        Raises:
            ConfigError: tol is not a number in (0, 1).
            ConvergenceError: a column missed tol within the cap.
        """
        tol = as_real(tol, "cell solve: tol", 0, 1)
        if max_iter is None:
            max_iter = int(20.0 * np.sqrt(3 * self.grid.n_nodes)) + 10
        return block_pcg(self.matvec, self.precondition, self.project, rhs,
                         tol, max_iter, callback=callback)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def _solve(grid, phases, materials, parity, loads, tol):
    """Solve the loads' parts in one parity: (op, b, X, history), the
    operator, its folded right-hand sides and correctors (ndof, m), and the
    per-iteration, per-column relative residuals."""
    op = CellOperator(grid, phases, materials, parity)
    b = op.rhs(loads)
    X, history = op.solve(b, tol=tol)
    return op, b, X, history


def solve_corrector(grid, phases, materials, load, tol=1e-8):
    """Minimize the cell energy over correctors for one fixed load.

    The membrane part B and the bending part G solve in their own parities.
    The residuals are the full slab's: per iteration, the root of the summed
    squared residuals of the two parts over that of their right-hand sides.
    """
    values = np.zeros((3 * grid.n_nodes, 1))
    norms, histories = [], []
    for parity in (MEMBRANE, BENDING):
        op, b, x, history = _solve(grid, phases, materials, parity, [load],
                                   tol)
        values += op.expand(x)
        norms.append(float(np.sum(b * b)))
        histories.append([float(h[0]) for h in history])
    n = max(map(len, histories))
    squares = sum(w * np.square(h + h[-1:] * (n - len(h)))
                  for w, h in zip(norms, histories))
    total = sum(norms)
    residuals = np.sqrt(squares / (total if total > 0 else 1.0))
    return CorrectorField(values.reshape(grid.n1, grid.n2, grid.n3 + 1, 3),
                          grid, residuals=residuals.tolist())


class CoupledEffectiveTensor:
    """6x6 coupled membrane/bending tensor with provenance."""

    def __init__(self, matrix, residuals, asymmetry):
        self.matrix = matrix
        self.residuals = residuals
        self.asymmetry = asymmetry


class EffectiveBendingForm:
    """3x3 Voigt representation of the effective bending form."""

    def __init__(self, voigt3):
        voigt3 = as_array(voigt3, "EffectiveBendingForm.voigt3", (3, 3))
        self.voigt3 = 0.5 * (voigt3 + voigt3.T)


def _symmetrized(M, name):
    """(M + M^T) / 2 and the asymmetry max |M - M^T| of the closed tensor
    `name`, checked positive definite."""
    asym = float(np.max(np.abs(M - M.T)))
    M = 0.5 * (M + M.T)
    # a non-finite tensor, on which eigvalsh may raise, reads as eigenvalue nan
    w = np.linalg.eigvalsh(M) if np.isfinite(M).all() else [np.nan]
    if not w[0] > 0:
        raise NumericalError("%s is not positive definite (min eigenvalue %g); "
                             "the solve is under-resolved or the material "
                             "table is invalid" % (name, w[0]))
    return M, asym


def coupled_tensor(grid, phases, materials, tol=1e-8):
    """6x6 membrane/bending tensor of the six unit loads (for `effective`).

    The membrane and the bending loads solve in their own parities, so the
    membrane/bending block is zero and the bending block is the effective
    bending form: minimizing over the membrane offset leaves it unchanged.
    """
    loads, M, residuals = unit_loads(), np.zeros((6, 6)), []
    for parity, part in ((MEMBRANE, slice(0, 3)), (BENDING, slice(3, 6))):
        op, _, X, history = _solve(grid, phases, materials, parity,
                                   loads[part], tol)
        M[part, part] = op.closure(loads[part], X)
        residuals += [float(h) for h in history[-1]]
    M, asym = _symmetrized(M, "coupled tensor")
    return CoupledEffectiveTensor(M, residuals, asym)


def _bending(grid, phases, materials, tol):
    """Effective bending form, the operator and the folded bending unit
    correctors X (ndof, 3) of the three bending loads, solved in the bending
    parity."""
    loads = unit_loads()[3:]
    op, _, X, _ = _solve(grid, phases, materials, BENDING, loads, tol)
    M, _ = _symmetrized(op.closure(loads, X), "effective bending form")
    return EffectiveBendingForm(M), op, X


def bending_solve(grid, phases, materials, tol=1e-8):
    """Effective bending form and the (3 n_nodes, 3) bending unit correctors X.

    By the reflection symmetry the form is the closure of the three bending
    loads alone, solved in the bending parity; the corrector of a bending
    load G is X @ sym2_to_voigt3(G).
    """
    form, op, X = _bending(grid, phases, materials, tol)
    return form, op.expand(X)


def effective_form(grid, phases, materials, tol=1e-8):
    """Effective bending form of `bending_solve`, without expanding its
    correctors to the full slab."""
    return _bending(grid, phases, materials, tol)[0]


def qgamma_eval(q, G):
    """Evaluate the effective bending form on a symmetric 2x2 matrix.

    Args:
        q: EffectiveBendingForm or plain (3, 3) Voigt matrix.
        G: symmetric 2x2 matrix, or a stack (..., 2, 2) of them.

    Returns:
        float for one matrix, array (...) for a stack.

    Raises:
        ConfigError: q or G is not a finite numeric array of its shape.
    """
    voigt3 = q.voigt3 if isinstance(q, EffectiveBendingForm) \
        else as_array(q, "qgamma_eval: q", (3, 3))
    G = as_array(G, "qgamma_eval: G")
    if G.shape[-2:] != (2, 2):
        raise ConfigError("qgamma_eval: G must have shape (..., 2, 2), got %s"
                          % (G.shape,))
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


def _formulation_b(grid, phases):
    """Grid and phase grid of formulation B of `gamma_rescale_check`, or a
    ConfigError naming B's grid when it is not integral or cannot be built."""
    g = grid.gamma
    n1b, n2b = g * grid.n1, g * grid.n2
    name = "formulation B's grid gamma*n1 x gamma*n2 = %g x %g" % (n1b, n2b)
    if abs(n1b - round(n1b)) > 1e-9 or abs(n2b - round(n2b)) > 1e-9:
        raise ConfigError("%s is not integral" % name)
    n1b, n2b = int(round(n1b)), int(round(n2b))
    try:
        grid_b = RVEGrid(n1b, n2b, grid.n3, 1.0, grid.box_side / g)
        phases_b = PhaseGrid(n1b, n2b, grid_b.box_side, _resample_axis(
            _resample_axis(phases.cell_phase, n1b, 0), n2b, 1))
    except ConfigError as exc:      # RVEGrid's "grid:" names the caller's
        msg = str(exc).removeprefix("grid: ")
        raise ConfigError("%s: %s" % (name, msg)) from exc
    return grid_b, phases_b


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
    _formulation_b(grid, phases)     # refuse a non-integral mesh unsolved
    form = effective_form(grid, phases, materials, tol=tol)
    return rescale_discrepancy(form, grid, phases, materials, tol=tol)


def rescale_discrepancy(form, grid, phases, materials, tol=1e-8):
    """`gamma_rescale_check` given formulation A's bending form on the grid,
    e.g. the bending block of `coupled_tensor`, which is bit-identical to
    `effective_form`; only formulation B is solved."""
    grid_b, phases_b = _formulation_b(grid, phases)
    qb = effective_form(grid_b, phases_b, materials, tol=tol).voigt3
    return float(np.linalg.norm(form.voigt3 - qb))
