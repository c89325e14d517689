"""Independent reference computations used by the test suite.

Everything here is deliberately built by a different route than the package:
closed forms where they exist, a reduced-dimension sparse direct solve for
laminates (scipy LU instead of matrix-free CG), brute-force scans instead of
spatial indexes, and exact integral identities instead of quadrature.
The last section holds the small readers the tests look at the package
through: energies, positions, norms and artifacts that no run computes.
"""

import json

import numpy as np

from platecell import BENDING, MEMBRANE, CellOperator, MicrostructureModel, \
    MicrostructureRealization, MixedField, PhaseGrid, isotropic_form, \
    to_gauss
from platecell import cellsolve
from platecell._mesh import column_keys, nodes, scatter
from platecell.decomposition import _scalar_tables

SQRT2 = np.sqrt(2.0)

# 2-point Gauss abscissae on [0, 1]
G2 = (0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0))


# ---------------------------------------------------------------------------
# Single homogeneous phase: closed forms
# ---------------------------------------------------------------------------

def plane_stress_form(mu, lam):
    """Voigt 3x3 of the plane-stress reduced quadratic form.

    Relaxing the thickness stretch of an isotropic 3D form leaves
    2 mu |G|^2 + (2 mu lam / (2 mu + lam)) tr(G)^2 on symmetric 2x2 G.
    """
    c = 2.0 * mu * lam / (2.0 * mu + lam)
    return np.array([[2.0 * mu + c, c, 0.0],
                     [c, 2.0 * mu + c, 0.0],
                     [0.0, 0.0, 2.0 * mu]])


def single_phase_bending_voigt3(mu, lam):
    """Continuum effective bending form of a homogeneous plate: Q2 / 12."""
    return plane_stress_form(mu, lam) / 12.0


def single_phase_bending_discrete(mu, lam, n3):
    """Exact value of the n3-layer discretization (any gamma, any n1/n2).

    The discrete minimizer's only defect is the staircase thickness stretch,
    which costs an extra lam^2 tr(G)^2 / (12 (2 mu + lam) n3^2); everything
    else is resolved exactly by the trilinear space.
    """
    excess = lam * lam / (12.0 * (2.0 * mu + lam) * n3 * n3)
    ones = np.array([1.0, 1.0, 0.0])
    return single_phase_bending_voigt3(mu, lam) + excess * np.outer(ones, ones)


def isotropic_voigt6(mu, lam):
    """6x6 of the isotropic 3D form in orthonormal Voigt order."""
    q = 2.0 * mu * np.eye(6)
    q[:3, :3] += lam
    return q


# ---------------------------------------------------------------------------
# Laminate reference: reduced (x1, x3) bilinear FE, sparse direct solve
# ---------------------------------------------------------------------------

def laminate_bending_reference(phase_per_column, mats, gamma, box_side, n3,
                               return_corrector=False):
    """Effective bending Voigt 3x3 of an x1-laminate by a reduced solve.

    The corrector of a laminate is independent of x2, so the 3D problem
    collapses to a bilinear (x1, x3) one with all 3 displacement components
    kept.  Assembled in scipy.sparse and solved by LU with node 0 pinned,
    then re-centred to zero mean -- no Krylov iteration and no 3D code shared
    with the package.  (The loads are orthogonal to the translations, so the
    pinned solution differs from the mean-free minimizer by a translation
    only; pinning keeps the fill-reducing ordering that dense mean-constraint
    rows would spoil.)

    Args:
        phase_per_column: (n1,) phase ids per x1 element.
        mats: {phase: (mu, lam)}.
        gamma: thickness-to-period ratio of the cell problem.
        box_side: in-plane period.
        n3: thickness layers.
        return_corrector: also return the nodal minimizers.

    Returns:
        (bending_voigt3, coupled6) - the Schur-complement bending form and
        the full 6x6 membrane/bending tensor.  With return_corrector, a
        third entry of shape (n1, n3+1, 3, 6): nodal corrector per load in
        the unit-load order above.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    phase_per_column = np.asarray(phase_per_column, dtype=np.int64)
    n1 = len(phase_per_column)
    hx = box_side / n1
    hz = 1.0 / n3
    ndof = 3 * n1 * (n3 + 1)

    q6 = {p: isotropic_voigt6(mu, lam) for p, (mu, lam) in mats.items()}

    # bilinear shapes at the 2x2 Gauss points, local node order l = dx + 2*dz
    gauss = [(gx, gz) for gz in G2 for gx in G2]
    B = np.zeros((4, 6, 12))       # voigt strain rows x local dofs
    zloc = np.zeros(4)             # x3 offset of each Gauss point within layer
    for qi, (gx, gz) in enumerate(gauss):
        zloc[qi] = gz
        for l, (dx, dz) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
            d1 = (1.0 if dx else -1.0) * (gz if dz else 1.0 - gz) / hx
            d3 = (1.0 if dz else -1.0) * (gx if dx else 1.0 - gx) / hz
            for c in range(3):
                col = 3 * l + c
                if c == 0:
                    B[qi, 0, col] += d1                      # E11
                    B[qi, 4, col] += d3 / gamma / SQRT2      # sqrt2 E13
                elif c == 1:
                    B[qi, 3, col] += d3 / gamma / SQRT2      # sqrt2 E23
                    B[qi, 5, col] += d1 / SQRT2              # sqrt2 E12
                else:
                    B[qi, 2, col] += d3 / gamma              # E33
                    B[qi, 4, col] += d1 / SQRT2              # sqrt2 E13

    wq = 1.0 / (4.0 * n1 * n3)     # volume-average quadrature weight

    def node(i, k):
        return (i % n1) * (n3 + 1) + k

    # six unit loads in Voigt order (B11, B22, sqrt2 B12, G11, G22, sqrt2 G12)
    def load_voigt(a, z):
        v = np.zeros(6)
        if a in (0, 3):
            v[0] = 1.0 if a == 0 else z
        elif a in (1, 4):
            v[1] = 1.0 if a == 1 else z
        else:
            v[5] = 1.0 if a == 2 else z
        return v

    # element dof table, elements indexed e = i*n3 + k
    ii, kk = np.divmod(np.arange(n1 * n3), n3)
    edof_all = np.empty((n1 * n3, 12), dtype=np.int64)
    for l, (dx, dz) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
        nd = ((ii + dx) % n1) * (n3 + 1) + (kk + dz)
        for c in range(3):
            edof_all[:, 3 * l + c] = 3 * nd + c

    # macroscopic load Voigt vectors per (layer, gauss, load)
    ltab = np.zeros((n3, 4, 6, 6))
    for k in range(n3):
        for qi in range(4):
            z = -0.5 + (k + zloc[qi]) / n3
            for a in range(6):
                ltab[k, qi, a] = load_voigt(a, z)

    ke_of = {p: wq * sum(B[qi].T @ Q @ B[qi] for qi in range(4))
             for p, Q in q6.items()}
    pe = phase_per_column[ii]
    vals = np.stack([ke_of[int(p)].ravel() for p in pe])
    rows = np.repeat(edof_all, 12, axis=1).ravel()
    cols = np.tile(edof_all, (1, 12)).ravel()
    K = sp.coo_matrix((vals.ravel(), (rows, cols)), shape=(ndof, ndof)).tocsr()

    rhs = np.zeros((ndof, 6))
    for p, Q in q6.items():
        sel = pe == p
        # fe[e, l, a] = wq * sum_q B[q].T Q ltab[k_e, q, a]
        fe = wq * np.einsum("qvl,eqav->ela", np.einsum("vw,qwl->qvl", Q, B),
                            ltab[kk[sel]])
        np.add.at(rhs, edof_all[sel].ravel(),
                  -fe.reshape(-1, 6))

    # pin the three dofs of node 0, solve, then remove each component's mean
    U = np.zeros((ndof, 6))
    U[3:] = spla.splu(K[3:, 3:].tocsc()).solve(rhs[3:])
    Un = U.reshape(-1, 3, 6)
    Un -= Un.mean(axis=0)

    # energy closure M[a, b] = <tau_a, Q tau_b> over all Gauss points
    M = np.zeros((6, 6))
    Ue = U[edof_all]                                   # (nel, 12, 6)
    for p, Q in q6.items():
        sel = pe == p
        tau = ltab[kk[sel]].transpose(0, 1, 3, 2) \
            + np.einsum("qvl,ela->eqva", B, Ue[sel])   # (ne, 4, 6v, 6a)
        M += wq * np.einsum("eqva,vw,eqwb->ab", tau, Q, tau)
    M = 0.5 * (M + M.T)
    Qbb, Qbg, Qgg = M[:3, :3], M[:3, 3:], M[3:, 3:]
    bending = Qgg - Qbg.T @ np.linalg.solve(Qbb, Qbg)
    bending = 0.5 * (bending + bending.T)
    if return_corrector:
        return bending, M, U.reshape(n1, n3 + 1, 3, 6)
    return bending, M


# ---------------------------------------------------------------------------
# Brute-force torus nearest neighbor with lexicographic tie-break
# ---------------------------------------------------------------------------

def brute_nearest(points, box_side, query):
    """Index of the nearest point on the torus; ties -> smallest (x, y)."""
    d = np.abs(points - np.asarray(query))
    d = np.minimum(d, box_side - d)
    d2 = (d * d).sum(axis=1)
    best = d2.min()
    cand = np.flatnonzero(d2 == best)
    order = np.lexsort((points[cand, 1], points[cand, 0]))
    return int(cand[order[0]])


# ---------------------------------------------------------------------------
# Exact checkerboard window averages (square-wave identity)
# ---------------------------------------------------------------------------

def _squarewave_integral(a, b, tile):
    """Integral over [a, b] of s(x) = +1 on even tiles, -1 on odd tiles."""
    period = 2.0 * tile

    def anti(x):
        xm = np.mod(x, period)
        return min(xm, period - xm)

    return anti(b) - anti(a)


def checkerboard_window_average(window, tile=1.0):
    """Exact average of the phase-1 indicator over a rectangle.

    phase(x, y) = (floor(x/t) + floor(y/t)) mod 2; its indicator is
    (1 - s(x) s(y)) / 2 with s the unit square wave, so the double integral
    factorizes.
    """
    x0, y0, x1, y1 = window
    ix = _squarewave_integral(x0, x1, tile)
    iy = _squarewave_integral(y0, y1, tile)
    area = (x1 - x0) * (y1 - y0)
    return 0.5 * (1.0 - ix * iy / area)


# ---------------------------------------------------------------------------
# Finite differences and Taylor coefficients for the stored energy
# ---------------------------------------------------------------------------

def fd_quadratic_form(w, G, t=1e-4):
    """Centered second difference of t -> w(I + t G) at 0.

    Equals twice the quadratic form of the energy's Hessian on sym(G), up to
    O(t^2).
    """
    I = np.eye(3)
    return (w(I + t * G) - 2.0 * w(I) + w(I - t * G)) / (t * t)


def svk_taylor_exact(mu, lam, G, t):
    """Exact residual W(I + tG) - Q(tG), from the polynomial expansion.

    With E = F^T F - I = 2tS + t^2 P (S = sym G, P = G^T G) the energy is a
    polynomial in t whose quadratic part is the Voigt form; the remainder is
    t^3 (2 mu S:P + lam trS trP) + t^4 (mu/2 |P|^2 + lam/4 tr(P)^2).
    """
    S = 0.5 * (G + G.T)
    P = G.T @ G
    c3 = 2.0 * mu * np.sum(S * P) + lam * np.trace(S) * np.trace(P)
    c4 = 0.5 * mu * np.sum(P * P) + 0.25 * lam * np.trace(P) ** 2
    return c3 * t ** 3 + c4 * t ** 4


# ---------------------------------------------------------------------------
# Reference-medium symbol by element gather, per-layer GEMM and scatter
# ---------------------------------------------------------------------------

def kernel_route_inverse(op):
    """The blocks D of `op.spectral_inverse` built by the element route that
    the node stencil replaced: the folded reference kernels applied to the
    unit fields of the free dofs at in-plane node (0, 0) through the element
    columns touching it (gather, one GEMM per kept layer, one bincount
    scatter), then the same lift, embedding, inversion and weights."""
    n1, n2, _, _, _, lame, _ = op._key
    s = cellsolve._setup(*op._key)
    free, f = np.flatnonzero(s.free), int(s.free.sum())
    m = s.free.size
    mu, lam = np.prod(lame, axis=0) ** (1.0 / len(lame))
    ke = np.einsum("qci,cd,qdj->ij", s.Bq, isotropic_form(mu, lam).voigt,
                   s.Bq) * op.wq
    kernels = cellsolve._folded_kernels(ke[None], s.sigma, s.weight)
    near = s.edof[(s.edof[:, 0] < f).any(axis=1)]  # columns at node (0, 0)
    table = near.transpose(1, 0, 2).reshape(-1, 24).T     # layer-major
    units = np.eye(f * n1 * n2, f)
    Ue = np.take(units.T, table, axis=1)                  # (f, 24, n_el)
    Ve = np.empty_like(Ue)
    for l, kernel in enumerate(kernels):
        cols = slice(l * len(near), (l + 1) * len(near))
        np.matmul(kernel, Ue[..., cols], out=Ve[..., cols])
    columns = scatter(column_keys(table, len(units), f), Ve, units.shape)
    symbol = np.zeros((n1 // 2 + 1, n2, m, m), dtype=complex)
    symbol[:, :, free[:, None], free] = np.fft.rfft2(
        columns.reshape(n1, n2, f, f), axes=(1, 0))
    t = cellsolve._translations(s.fold)
    symbol[0, 0] += np.trace(symbol[0, 0].real) / m * (t @ t.T)
    pinned = ~s.free
    symbol[:, :, pinned, pinned] = 1.0
    embedded = np.block([[symbol.real, -symbol.imag],
                         [symbol.imag, symbol.real]])
    kept = np.r_[free, m + free]
    weight = np.full(n1 // 2 + 1, 2.0)
    weight[[0, -1]] = 1.0
    D = np.linalg.inv(embedded)[..., kept[:, None], kept] \
        * (weight / (n1 * n2))[:, None, None, None]
    return 0.5 * (D + D.swapaxes(-1, -2))


# ---------------------------------------------------------------------------
# Statistics helpers
# ---------------------------------------------------------------------------

def pooled_binomial_std(p, n_total):
    """Std of a mark fraction pooled over n_total independent marks."""
    return np.sqrt(p * (1.0 - p) / n_total)


# ---------------------------------------------------------------------------
# Readers of the package's fields and artifacts
# ---------------------------------------------------------------------------

VOIGT6 = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))


def sym_to_voigt6(M):
    """Orthonormal Voigt vector (E11, E22, E33, s2 E23, s2 E13, s2 E12) of
    sym(M), for a 3x3 M."""
    S = 0.5 * (M + M.T)
    return np.array([S[i, j] * (1.0 if i == j else SQRT2) for i, j in VOIGT6])


def voigt6_basis():
    """The symmetric 3x3 matrices whose Voigt vectors are the unit vectors."""
    basis = np.zeros((6, 3, 3))
    for a, (i, j) in enumerate(VOIGT6):
        basis[a, i, j] = basis[a, j, i] = 1.0 if i == j else 1.0 / SQRT2
    return basis


def restrict(op, u):
    """Folded coordinates (ndof, m) of the orthogonal projection of the
    full-slab nodal fields u (3 n_nodes, m) onto the parity of the cell
    operator op: the transpose of `op.expand`."""
    n, m = op.grid.n1 * op.grid.n2, u.shape[-1]
    folded = np.einsum("krc,skcm->srcm", op.fold,
                       u.reshape(n, op.grid.n3 + 1, 3, m))
    free = op.fold.any(axis=0).ravel()
    return folded.reshape(n, -1, m)[:, free].reshape(-1, m)


def cell_energy(grid, phases, materials, load, phi=None):
    """Volume-averaged cell energy of a load plus an optional corrector
    field: each parity's closure of its part of the load and of the field's
    projection; the cross terms of the two parities vanish on the
    reflection-symmetric cell."""
    u = np.zeros((3 * grid.n_nodes, 1)) if phi is None \
        else phi.values.reshape(-1, 1)
    energy = 0.0
    for parity in (MEMBRANE, BENDING):
        op = CellOperator(grid, phases, materials, parity)
        energy += op.closure([load], restrict(op, u))[0, 0]
    return float(energy)


def mixed_inner(a, b):
    """L2 inner product of two MixedFields by the 2x2x2 Gauss rule."""
    _, wq = _scalar_tables(a.grid)
    return float(wq * np.sum(to_gauss(a).values * to_gauss(b).values))


def mixed_norm(a):
    return np.sqrt(mixed_inner(a, a))


def gradient_field(grid, scalar):
    """Discrete gradient of a nodal scalar (n1, n2, n3+1), as a Gauss-layout
    MixedField: an exact gradient of the finite element space."""
    B, _ = _scalar_tables(grid)
    vals = scalar.reshape(-1)[nodes(grid.n1, grid.n2, grid.n3)] \
        @ B.reshape(24, 8).T
    return MixedField(vals.reshape(-1, 8, 3), grid, layout="gauss")


# ---------------------------------------------------------------------------
# Isometry frames: per-point closed forms
# ---------------------------------------------------------------------------

def frames(iso, xp):
    """The immersion and its rotation frame at points, point index last,
    from the closed forms of the isometry's kind.

    Args:
        iso: IsometrySpec, "flat" or "cylinder".
        xp: (M, 2) midplane points.

    Returns:
        (y, F0, F1, dR): the immersion y (3, M); the rotation R = F0
        (3, 3, M) with columns d1y, d2y, n; F1 (3, 3, M) with columns d1n,
        d2n, 0; and dR (2, 3, 3, M) with dR[a] = d_a F0.
    """
    xp = np.asarray(xp, dtype=float)
    m = xp.shape[0]
    y, F0, F1, dR = (np.zeros((3, m)), np.zeros((3, 3, m)),
                     np.zeros((3, 3, m)), np.zeros((2, 3, 3, m)))
    y[0] = xp[:, 0]
    y[1] = xp[:, 1]
    F0[1, 1] = 1.0
    if iso.kind == "flat":
        F0[0, 0] = F0[2, 2] = 1.0
        return y, F0, F1, dR
    r = iso.radius
    u = xp[:, 0] / r
    cu, su = np.cos(u), np.sin(u)
    y[0] = r * su
    y[2] = r * cu
    F0[0, 0] = F0[2, 2] = cu
    F0[0, 2] = su
    F0[2, 0] = -su
    F1[0, 0] = dR[0, 0, 2] = cu / r
    F1[2, 0] = dR[0, 2, 2] = -su / r
    dR[0, 0, 0] = -su / r
    dR[0, 2, 0] = -cu / r
    return y, F0, F1, dR


def frame_fields(iso, xp):
    """The isometry's frames at points xp (M, 2) as a dict of (M, ...)
    views: y, d1y, d2y, n, d1n, d2n, each (M, 3), the rotation R (M, 3, 3)
    with columns d1y, d2y, n, and the immersion's second derivatives ddy
    (M, 2, 2, 3)."""
    y, F0, F1, dR = frames(iso, xp)
    return {"y": y.T, "d1y": F0[:, 0].T, "d2y": F0[:, 1].T, "n": F0[:, 2].T,
            "d1n": F1[:, 0].T, "d2n": F1[:, 1].T, "R": F0.transpose(2, 0, 1),
            "ddy": dR[:, :, :2].transpose(3, 0, 2, 1)}


def second_form(iso, xp):
    """Second fundamental form II_ab = d_a d_b y . n, (M, 2, 2), at points."""
    f = frame_fields(iso, xp)
    return np.einsum("mabc,mc->mab", f["ddy"], f["n"])


# ---------------------------------------------------------------------------
# Readers of recovery members and artifacts
# ---------------------------------------------------------------------------

def deformation(sampler, xp, x3):
    """Deformed positions (M, 3) of a recovery member at midplane points xp
    and one fiber height: y + h x3 n plus h R times the corrector column of
    the sampler's plan, which holds eps g in the moving frame, blended
    between the two node layers around x3."""
    x3, k0, tz = sampler._layer(x3)
    f = frame_fields(sampler.family.iso, xp)
    layers = sampler.plan(xp)
    lo, hi = layers[:, 2, k0], layers[:, 2, k0 + 1]
    g = (sampler.h * ((1.0 - tz) * lo + tz * hi)).T
    return f["y"] + sampler.h * x3 * f["n"] + np.einsum("mij,mj->mi",
                                                        f["R"], g)


def read_json(path):
    """A JSON artifact, read with json.load."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def realization_from_dict(d):
    """The realization of a `generate` payload's realization object."""
    points = d["points"]
    return MicrostructureRealization(
        MicrostructureModel.from_dict(d["model"]), d["seed"], d["box_side"],
        points=[p[:2] for p in points] if points else None,
        marks=[p[2] for p in points] if points else None,
        offset=d["offset"])


def phase_grid_from_dict(d):
    """The PhaseGrid of a `generate` payload's phase_grid object, whose
    cell_phase lists the n1 x n2 ids row-major."""
    return PhaseGrid(d["n1"], d["n2"], d["box_side"],
                     np.reshape(d["cell_phase"], (d["n1"], d["n2"])))
