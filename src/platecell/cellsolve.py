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
folded half-slab, through one matrix E per node column, (3 (n3 + 1), f):
node layer k sits on slot r = min(k, n3 - k) with coefficient 1/sqrt2 below
the midplane and s_c/sqrt2 above it, and a midplane node (even n3) keeps
coefficient 1 for an even component and 0 for an odd one.  The f columns of
E, the free (slot, component) pairs, are orthonormal: an odd component at
the midplane is identically 0 and has no dof.  The fold of the slab is E at
every in-plane node, so the folded problem is the full one restricted to
the parity's fields, and conjugate gradients take the same iterates on
about half the dofs.

Every folded table is that restriction, built over all n3 element layers.
The map C_e of layer e takes the f dofs of each of an element column's four
corner nodes to the layer's 24 local dofs; the column stiffness sum_e
C_e^T K_p C_e of the element kernels K_p gives the stiffness, sum_e C_e^T
f_e the load vectors, E^T 1_c the translations, and a product by E expands
a folded field.  The stiffness is applied as a stencil (Bell & Garland
2009): the f free dofs of an in-plane node couple only to those of its
3 x 3 in-plane neighbours, so the operator is one (f, 9 f) block per node,
and a product is one gather of the neighbours' node vectors and one batched
matrix product, with no scatter.  The phases are constant through the
thickness, so a node's block is the sum of the quadrant blocks of its four
element columns, the 4 x 4 corner blocks of their column stiffness, built
once per set-up; an operator sums them once per distinct pattern of the
four phases.  The right-hand sides sum per pattern the load vectors that
the columns add to their corner nodes, and the energy closure expands the
quadratic energy exactly, E0 + X^T f + f^T X + X^T K X, with one stiffness
product.  Conjugate gradients update in place; the translations of the even
components are projected out of the right-hand sides and the solution
only.
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
wavevector on the f free dofs of an in-plane node (Moulinec & Suquet 1998;
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
node patterns alone.  The node load blocks and load-only energies depend
also on the loads' parts in the parity, and are memoized the same way.
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
from ._mesh import GAUSS, dN
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


@functools.lru_cache(maxsize=None)
def unit_loads():
    """The six unit loads in orthonormal Voigt order (B11, B22, s2*B12 |
    G11, G22, s2*G12): a tuple built once, with read-only matrices, and
    shared."""
    unit2 = (np.array([[1.0, 0.0], [0.0, 0.0]]),
             np.array([[0.0, 0.0], [0.0, 1.0]]),
             np.array([[0.0, 1.0 / SQRT2], [1.0 / SQRT2, 0.0]]))
    loads = tuple([CellLoad(B=U) for U in unit2]
                  + [CellLoad(G=U) for U in unit2])
    for load in loads:
        load.B.flags.writeable = load.G.flags.writeable = False
    return loads


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
# Element machinery and the fold onto one parity
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


def _fold(n3, parity):
    """The fold E of one node column onto the free dofs of one parity: a
    (3 (n3 + 1), f) matrix, rows the (node layer k, component c) entries of
    the column, whose orthonormal column j is the field of free dof j.

    The dofs are the (slot, component) pairs in that order, slot r = min(k,
    n3 - k), with coefficient 1/sqrt2 below the midplane and s_c/sqrt2 above
    it; on the midplane of even n3, 1 for an even component, and no dof for
    an odd one, which is 0 there.
    """
    s = np.asarray(parity, dtype=float)
    k = np.arange(n3 + 1)
    below, above = (2 * k < n3)[:, None], (2 * k > n3)[:, None]
    coef = np.where(below, 1.0 / SQRT2,
                    np.where(above, s / SQRT2, (1.0 + s) / 2.0))
    E = np.zeros((n3 + 1, 3, n3 // 2 + 1, 3))
    c = np.arange(3)
    E[k[:, None], c, np.minimum(k, n3 - k)[:, None], c] = coef
    E = E.reshape(3 * (n3 + 1), -1)
    return E[:, E.any(axis=0)]


def _layers(E):
    """(n3, 24, 4 f) maps C_e of the element layers e from the 4 f dofs of
    an element column's corner nodes, corner q = dx + 2 dy, to the 24 local
    dofs of its layer e: local node q + 4 dz is corner q at node layer
    e + dz, as in `_mesh.nodes`."""
    n3, f = len(E) // 3 - 1, E.shape[1]
    rows = E.reshape(n3 + 1, 3, f)
    C = np.zeros((n3, 2, 4, 3, 4, f))
    q = np.arange(4)
    C[:, :, q, :, q] = np.stack([rows[:-1], rows[1:]], axis=1)
    return C.reshape(n3, 24, 4 * f)


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


def _quadrants(ke, C):
    """The stencil rows that one element column adds to the node at each of
    its corners: (4, phases, f, 9 f), block [q, p] for corner q = dx + 2 dy
    of a column of phase p, its columns the f dofs of each `_OFFSETS`
    neighbour of that node.

    They are the 4 x 4 corner blocks of the column stiffness sum_e C_e^T
    ke_p C_e of the kernels ke (phases, 24, 24) and the `_layers` C: corner
    r of the column is the node's neighbour (dx_r - dx, dy_r - dy).
    """
    f = C.shape[-1] // 4
    column = np.matmul(C.swapaxes(1, 2), np.matmul(ke[:, None], C)).sum(axis=1)
    out = np.zeros((4, len(ke), f, 9, f))
    for q in range(4):
        for r in range(4):
            k = _OFFSETS.index(((r & 1) - (q & 1), (r >> 1) - (q >> 1)))
            out[q, :, :, k] = column[:, q * f:(q + 1) * f, r * f:(r + 1) * f]
    return out.reshape(4, len(ke), f, 9 * f)


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


def _reference_inverse(grid, stencil, t):
    """Per-wavevector inverses of the folded stiffness of a homogeneous
    medium of node stencil (f, 9 f), the sum of its four `_quadrants`, given
    the translations t (f, even components) of the even components on the
    free dofs of one in-plane node.

    The folded stiffness applied to the f unit fields of the free dofs at
    in-plane node (0, 0) is, at the node -d from it, the stencil's block of
    neighbour d (node (0, 0) is that node's neighbour d); transformed by
    rfft2 with the real transform along n1, it is the f x f symbol per
    wavevector.
    The zero-wavevector block is singular on the translations of the even
    components, which are lifted by a multiple of their projector; the lifted
    block maps the mean-free fields to themselves, so the inverse adds only a
    rounding-level translation part, which the solve's final projection
    removes.  Each Hermitian block K = Kr + i Ki is inverted through its real
    embedding [[Kr, -Ki], [Ki, Kr]], whose inverse is [[A, -B], [B, A]] with
    K^-1 = A + i B, times irfft2's Hermitian weight of the wavevector's row a
    (1 at a = 0 and n1 / 2, 2 between) over n1 n2, so that with
    `_dft_passes`' F the inverse of the reference stiffness is F^T D F.
    K^-1 is Hermitian, so each block is symmetric; it is symmetrized exactly,
    and the preconditioner applies it from the right to the rows of its
    columns.

    Returns:
        D: (n1 // 2 + 1, n2, 2f, 2f) real array, wavevector (a, j) at D[a, j],
            rows and columns (part, free dof).

    Raises:
        NumericalError: an embedded block is singular or D is not finite,
            as when the element sizes of a box side far above 1 underflow
            the kernels (`_setup` refuses kernels that overflow).
    """
    n1, n2, f = grid.n1, grid.n2, len(stencil)
    columns = np.zeros((n1, n2, f, f))
    for (di, dj), block in zip(_OFFSETS, np.split(stencil, 9, axis=1)):
        columns[-di % n1, -dj % n2] += block
    symbol = np.fft.rfft2(columns, axes=(1, 0))
    symbol[0, 0] += np.trace(symbol[0, 0].real) / f * (t @ t.T)
    embedded = np.block([[symbol.real, -symbol.imag],
                         [symbol.imag, symbol.real]])
    weight = np.full(n1 // 2 + 1, 2.0)
    weight[[0, -1]] = 1.0
    try:
        D = np.linalg.inv(embedded) * (weight / (n1 * n2))[:, None, None, None]
    except np.linalg.LinAlgError:
        D = None
    if D is None or not np.isfinite(D).all():
        raise _degenerate(grid)
    return np.ascontiguousarray(0.5 * (D + D.swapaxes(-1, -2)))


def _degenerate(grid):
    """The error of a grid whose element sizes overflow or underflow the
    kernels, so that the reference-medium symbol is singular or not
    finite."""
    return NumericalError(
        "the reference-medium symbol on %r is singular or not finite: the "
        "element sizes of box side %g overflow or underflow the kernels"
        % (grid, grid.box_side))


# All of a cell operator that its phase layout does not enter: fold, the
# `_fold` E of one node column, and layers, its `_layers` C; Bq, the (8, 6,
# 24) strain matrices; forms, the (phases, 6, 6) Voigt forms; ke, the
# (phases, 24, 24) element kernels; quadrants, the (4, phases, f, 9 f)
# `_quadrants` of those kernels, and neighbours, the (n1 n2, 9)
# `_neighbours`; zq, the x3 of each (layer, Gauss point), (n3, 8); rdft and
# dft, the `_dft_passes`, and spectral_inverse, the blocks D of
# `_reference_inverse`, of the medium whose Lame constants are the geometric
# means of the phases'; shift, the translations on the free dofs of one
# in-plane row of nodes, (translations, n2 f).  Every folded table is the
# restriction by E of the full slab's: the stiffness and loads through the
# C_e, the translations as E^T 1_c.
_Setup = namedtuple("_Setup", "fold layers Bq forms ke quadrants neighbours "
                    "zq rdft dft spectral_inverse shift")


@functools.lru_cache(maxsize=8)
def _setup(n1, n2, n3, gamma, box_side, lame, parity):
    """The `_Setup` of the phases with the Lame pairs `lame`, in that order,
    in one parity on the grid; memoized, read-only and shared by every
    operator on them, whatever its phase layout.

    Raises:
        NumericalError: the element kernels are not finite, as when the
            element sizes of a box side far below 1 overflow them.
    """
    grid = RVEGrid(n1, n2, n3, gamma, box_side)
    E = _fold(n3, parity)
    C = _layers(E)
    Bq = _strain_matrices(grid)
    wq = 1.0 / (8.0 * grid.n_elements)              # volume-average weight
    forms = np.stack([isotropic_form(mu, lam).voigt for mu, lam in lame])
    ke = np.einsum("qci,pcd,qdj->pij", Bq, forms, Bq) * wq
    mu, lam = np.prod(lame, axis=0) ** (1.0 / len(lame))  # geometric means
    reference = np.einsum("qci,cd,qdj->ij", Bq, isotropic_form(mu, lam).voigt,
                          Bq) * wq
    # refused before the restriction multiplies an inf by one of C's zeros
    if not (np.isfinite(ke).all() and np.isfinite(reference).all()):
        raise _degenerate(grid)
    t = E.T @ np.tile(np.eye(3), (n3 + 1, 1))      # E^T 1_c, c = 0, 1, 2
    t = t[:, t.any(axis=0)]                        # the odd ones vanish
    t /= np.sqrt((t ** 2).sum(axis=0))
    gz = np.repeat(GAUSS, 4)                     # zeta of each Gauss point
    zq = -0.5 + (np.arange(n3)[:, None] + gz[None, :]) * (1.0 / n3)
    out = _Setup(E, C, Bq, forms, ke, _quadrants(ke, C), _neighbours(n1, n2),
                 zq, *_dft_passes(n1, n2),
                 _reference_inverse(
                     grid, _quadrants(reference[None], C).sum(axis=0)[0], t),
                 np.tile(t.T, n2))
    for arr in out:
        arr.flags.writeable = False
    return out


@functools.lru_cache(maxsize=8)
def _load_blocks(key, parts):
    """Node load blocks and load-only energies, on the set-up `_setup(*key)`,
    of the loads whose parts in its parity are `parts`, the bytes of their
    (m, 2, 2) stack, G of x3 G for bending and B for membrane, with strains
    iota(x3 G) or iota(B); memoized and read-only.

    Returns:
        blocks: (4, phases, f, m), the folded load vectors sum_e C_e^T f_e
            that one element column adds to its corner nodes, [q, p] as in
            `_quadrants`.
        energies: (phases, m, m), the load-only energy Gram matrix of one
            element column of each phase.
    """
    n1, n2, n3, _, _, _, parity = key
    s = _setup(*key)
    wq = 1.0 / (8.0 * (n1 * n2 * n3))
    parts = np.frombuffer(parts).reshape(-1, 1, 1, 2, 2)
    z = s.zq if parity == BENDING else np.ones_like(s.zq)
    eps = np.zeros((len(parts),) + z.shape + (6,))   # (m, n3, gauss, 6)
    eps[..., 0] = z * parts[..., 0, 0]
    eps[..., 1] = z * parts[..., 1, 1]
    eps[..., 5] = SQRT2 * (z * parts[..., 0, 1])
    fe = np.einsum("qci,pcd,mkqd->pmki", s.Bq, s.forms, eps) * wq
    blocks = fe.reshape(fe.shape[:2] + (-1,)) @ s.layers.reshape(24 * n3, -1)
    blocks = np.ascontiguousarray(
        blocks.reshape(fe.shape[:2] + (4, -1)).transpose(2, 0, 3, 1))
    energies = np.einsum("akqc,pcd,bkqd->pab", eps, s.forms, eps) * wq
    blocks.flags.writeable = energies.flags.writeable = False
    return blocks, energies


class CellOperator:
    """Stiffness operator of one cell problem, stored as a per-node
    stencil, on the folded half-slab of one parity (`BENDING` or
    `MEMBRANE`).

    Holds its node patterns, patterns (patterns, 4), the phase index of the
    column at each corner q of a node per distinct pattern, and node_pattern
    (n1 n2,); its stencil, one (f, 9 f) block per in-plane node that maps the
    f dofs of the node's 3 x 3 neighbours to its own f; and the arrays of its
    `_setup`, shared with every operator on the same grid, parity and Lame
    pairs: the fold E of a node column, (3 (n3 + 1), f), the (phases, 24,
    24) element kernels and the quadrant blocks of their restriction by E,
    the neighbour table, the real DFT matrices and per-wavevector blocks of
    the reference-medium preconditioner.  Its fields are folded, (ndof, m),
    f dofs per in-plane node, stored column by column; `expand` maps them to
    full-slab nodal fields, E at every in-plane node.
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
        self.fold, self.ke, self._neighbours = s.fold, s.ke, s.neighbours
        self._rdft, self._dft, self.spectral_inverse, self._shift = \
            s.rdft, s.dft, s.spectral_inverse, s.shift
        self.ndof = grid.n1 * grid.n2 * s.fold.shape[1]

        # --- node patterns: the phases of a node's four columns, corner q =
        # dx + 2 dy of the column at neighbour (-dx, -dy); each distinct
        # pattern id sum_q p_q P^q, P the phases present, is summed once.
        # The element columns per phase weigh the load-only energies.
        phase = np.searchsorted(present, phases.cell_phase).ravel()
        self._counts = np.bincount(phase, minlength=len(present))
        corners = np.take(phase, self._neighbours[:, _CORNERS])
        powers = len(present) ** np.arange(4)
        ids, self.node_pattern = np.unique(corners @ powers,
                                           return_inverse=True)
        self.patterns = ids[:, None] // powers % len(present)  # (patterns, 4)
        self.stencil = np.take(self._pattern_sums(s.quadrants),
                               self.node_pattern, axis=0)

    def _pattern_sums(self, blocks):
        """The sums over the corners q of blocks[q, p_q], (4, phases, ...),
        per node pattern (p_0, ..., p_3): (patterns, ...)."""
        out = 0.0
        for q, p in enumerate(self.patterns.T):
            out = out + blocks[q, p]
        return out

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
        """Full-slab nodal fields (3 n_nodes, m) of the folded U (ndof, m):
        the fold E applied to the f dofs of each in-plane node."""
        n, m = self.grid.n1 * self.grid.n2, U.shape[-1]
        return np.matmul(self.fold, U.reshape(n, -1, m)).reshape(-1, m)

    # --- loads ---------------------------------------------------------------
    def _loads(self, loads):
        """The folded load vectors of the loads, -rhs, (ndof, m) stored
        column by column, and their load-only energy Gram matrix (m, m):
        `_load_blocks` summed per node pattern and taken to the nodes, and
        its energies summed over the element columns."""
        parts = np.stack([load.G if self.parity == BENDING else load.B
                          for load in loads])
        blocks, energies = _load_blocks(self._key, parts.tobytes())
        F = np.take(self._pattern_sums(blocks).transpose(2, 0, 1),
                    self.node_pattern, axis=1)               # (m, n1 n2, f)
        return F.reshape(len(loads), -1).T, \
            np.einsum("p,pab->ab", self._counts, energies)

    def rhs(self, loads):
        """Folded right-hand sides -f for a list of loads: (ndof, m), stored
        column by column."""
        return -self._loads(loads)[0]

    # --- energies ------------------------------------------------------------
    def closure(self, loads, X):
        """Energy Gram matrix (m, m) of the loads plus their folded fields X
        (ndof, m): entry (a, b) is the cell average of tau_a : Q0 : tau_b
        over the loads' parts in this parity: the exact expansion E0 + X^T f
        + f^T X + X^T K X of the quadratic energy, E0 the load-only energies
        and f = -rhs, so a field off the minimizer by e errs by e^T K e.  The
        products are einsums of column-major X, f and K X, whose bits depend
        neither on the memory order of X nor on a BLAS."""
        F, E0 = self._loads(loads)
        X = np.asfortranarray(X.reshape(len(X), -1))
        XF = np.einsum("ia,ib->ab", X, F)
        return E0 + (XF + XF.T) + np.einsum("ia,ib->ab", X, self.matvec(X))

    # --- solver ---------------------------------------------------------------
    def solve(self, rhs, tol=1e-8, max_iter=None):
        """Block PCG, preconditioned by the reference-medium inverse, with the
        kernel projected out of the right-hand sides and the solution.

        Args:
            rhs: (ndof, m) folded right-hand sides (solved simultaneously).
            tol: relative residual target per column, in (0, 1).
            max_iter: iteration cap; default 20*sqrt(3 n_nodes), the full
                slab's, since the fold leaves the iterates unchanged.

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
                         tol, max_iter)


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
