"""Finite-thickness bending deformations that attain the effective energy.

Given a smooth isometric immersion of the midplane and a microstructured
material, this module builds the classical two-scale deformation family: the
plate is bent along the isometry, fibers follow the rotated normal, and a
small-amplitude cell corrector -- rotated into the local frame and cut off
near patch boundaries by smooth ramps -- lets the material relax exactly as
in the periodic cell problem.  `evaluate_scaled_energy` integrates the
thickness-scaled elastic energy of one member of the family;
`limit_energy` integrates the homogenized bending form over the midplane.
Their gap shrinks as the thickness does, up to the fixed cost of the cutoff
collars where the corrector is suppressed.

The correctors come from the effective form's own cell solve, and the
quadrature finds a point's phase and its corrector corners through the slab
mesh's one in-plane lookup (`_mesh.locate`), so the energy sees by
construction the microscale phase layout the corrector was optimized for.

Evaluation works per node layer: the corrector is trilinear, so a plan
gathers each point's in-plane corners once and stores, for every node layer
of the cell grid, the corrector's rotated and cut-off part of the scaled
gradient; the gradient at any height then blends two stored layers.  A plan
computes each quantity only as often as it varies:

- The quadrature points form a tensor grid, so the cell lookup, the patch
  lookup and the 1D cutoff ramps run once per axis value; only their
  products (the cutoff chi = cx cy and its gradient) are formed per point.
- A bending corrector is mirror-symmetric across the midplane: node layer
  n3 - k is diag(-1, -1, 1) times layer k, bit for bit.  So only the n3//2 + 1
  lower slots are gathered, interpolated and rotated, and each rotation is
  split into its in-plane part P and transverse part Q: the lower layers are
  P + Q and the upper ones Q - P, the same sums in the same order.
- The isometry's frames are built point index last, the layout the plan
  reads, so nothing is transposed per point.

The energy quadrature takes its points grouped by phase, in fixed-size
blocks; the energies are the same bits as a point-by-point evaluation's.
"""

import numpy as np

from ._mesh import GAUSS, locate
from .cellsolve import CellLoad, bending_solve, qgamma_eval, sym2_to_voigt3, \
    solve_corrector  # unused; bound for perfbench's recovery.solve_corrector
from .errors import ConfigError, NumericalError, as_index, as_real
from .material import svk_energy
from .microstructure import _tensor_points

# Quadrature points per plan in evaluate_scaled_energy: large enough that
# numpy's per-call overhead is small, small enough that a plan's node-layer
# tables stay a few MB.
_BLOCK = 4096


# ---------------------------------------------------------------------------
# Midplane isometries
# ---------------------------------------------------------------------------

class IsometrySpec:
    """Smooth isometric immersion of a planar domain, with frame derivatives.

    Supported kinds: "flat" (identity embedding) and "cylinder" (rolling onto
    a cylinder of given radius about the x2 axis).

    Args:
        kind: "flat" or "cylinder".
        domain: (x0, y0, x1, y1) midplane rectangle.
        radius: cylinder radius (ignored for "flat").
    """

    def __init__(self, kind, domain, radius=None):
        if kind not in ("flat", "cylinder"):
            raise ConfigError("IsometrySpec: unknown kind %r" % (kind,))
        x0, y0, x1, y1 = (as_real(v, "IsometrySpec: domain[%d]" % k)
                          for k, v in enumerate(domain))
        if not (x1 > x0 and y1 > y0):
            raise ConfigError("IsometrySpec: empty domain %r" % (domain,))
        if kind == "cylinder":
            radius = as_real(radius, "IsometrySpec: cylinder radius")
            if not radius > 0:
                raise ConfigError("IsometrySpec: cylinder needs radius > 0")
        self.kind = kind
        self.domain = (x0, y0, x1, y1)
        self.radius = radius

    def frames(self, xp):
        """Immersion and rotation frame at points, point index last.

        Args:
            xp: (M, 2) midplane points.

        Returns:
            (y, F0, F1, dR): the immersion y (3, M); the rotation F0 (3, 3, M)
            with columns d1y, d2y, n; F1 (3, 3, M) with columns d1n, d2n, 0;
            and dR (2, 3, 3, M) with dR[a] = d_a F0.
        """
        xp = np.asarray(xp, dtype=float)
        m = xp.shape[0]
        y = np.zeros((3, m))
        F0, F1 = np.zeros((3, 3, m)), np.zeros((3, 3, m))
        dR = np.zeros((2, 3, 3, m))
        y[0] = xp[:, 0]
        y[1] = xp[:, 1]
        F0[1, 1] = 1.0
        if self.kind == "flat":
            F0[0, 0] = F0[2, 2] = 1.0
            return y, F0, F1, dR
        # one store per statement: fewer temporaries alive at once
        r = self.radius
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

    def frame_fields(self, xp):
        """Immersion, tangent frame, normal and their derivatives at points.

        Args:
            xp: (M, 2) midplane points.

        Returns:
            dict with keys y, d1y, d2y, n, d1n, d2n -- each (M, 3) -- and
            ddy: (M, 2, 2, 3) second derivatives of the immersion; all are
            views of the arrays `frames` returns.
        """
        return _field_views(*self.frames(xp))

    def second_form(self, xp):
        """Second fundamental form (M, 2, 2) at midplane points."""
        f = self.frame_fields(xp)
        return np.einsum("mabc,mc->mab", f["ddy"], f["n"])


def _field_views(y, F0, F1, dR):
    """`frame_fields`' dict of (M, ...) views of `frames`' arrays."""
    return {"y": y.T, "d1y": F0[:, 0].T, "d2y": F0[:, 1].T, "n": F0[:, 2].T,
            "d1n": F1[:, 0].T, "d2n": F1[:, 1].T,
            "ddy": dR[:, :, :2].transpose(3, 0, 2, 1)}


def cylinder_isometry(radius, domain=(0.0, 0.0, 1.0, 1.0)):
    return IsometrySpec("cylinder", domain, radius=radius)


def flat_isometry(domain=(0.0, 0.0, 1.0, 1.0)):
    return IsometrySpec("flat", domain)


# ---------------------------------------------------------------------------
# Configuration and corrector source
# ---------------------------------------------------------------------------

class RecoveryConfig:
    """Parameters of the recovery family.

    Args:
        gamma: thickness-to-microscale ratio; the microscale of the h-member
            is eps = h / gamma.
        patch_size: side of the square patches on which the corrector load is
            frozen to the local average of the second fundamental form.
        ramp_width: collar width of the smooth cutoff (zero within one width
            of a patch boundary, one beyond twice that); default patch_size/8.
        cells_per_scale: in-plane quadrature cells per microscale length
            (>= 2 so the oscillation is resolved).
        h_schedule: optional strictly decreasing thicknesses, for drivers
            that sweep the family.
        corrector_tol: CG tolerance of the cell solves behind the correctors.
    """

    def __init__(self, gamma=1.0, patch_size=0.25, ramp_width=None,
                 cells_per_scale=4, h_schedule=None, corrector_tol=1e-10):
        gamma = as_real(gamma, "RecoveryConfig: gamma")
        if not gamma > 0:
            raise ConfigError("RecoveryConfig: gamma must be > 0")
        patch_size = as_real(patch_size, "RecoveryConfig: patch_size")
        if not patch_size > 0:
            raise ConfigError("RecoveryConfig: patch_size must be > 0")
        ramp_width = (patch_size / 8.0 if ramp_width is None
                      else as_real(ramp_width, "RecoveryConfig: ramp_width"))
        if not 0 < ramp_width < patch_size / 2.0:
            raise ConfigError("RecoveryConfig: ramp_width must lie in "
                              "(0, patch_size / 2)")
        cells_per_scale = _cells_per_scale(cells_per_scale, "RecoveryConfig")
        if h_schedule is not None:
            h_schedule = _h_schedule(h_schedule, "RecoveryConfig")
        self.gamma = gamma
        self.patch_size = patch_size
        self.ramp_width = ramp_width
        self.cells_per_scale = cells_per_scale
        self.h_schedule = h_schedule
        self.corrector_tol = as_real(corrector_tol,
                                     "RecoveryConfig: corrector_tol")


def _cells_per_scale(value, owner):
    """In-plane quadrature cells per microscale: an integer >= 2, so that
    the oscillation is resolved."""
    value = as_index(value, "%s: cells_per_scale" % owner)
    if value < 2:
        raise ConfigError("%s: cells_per_scale must be >= 2" % owner)
    return value


def _h_schedule(value, owner):
    """Thicknesses of a sweep as floats: finite, positive and strictly
    decreasing."""
    name = "%s: h_schedule" % owner
    try:
        hs = [as_real(h, "%s[%d]" % (name, k)) for k, h in enumerate(value)]
    except TypeError:
        raise ConfigError("%s must be a list of numbers, got %r"
                          % (name, value)) from None
    if not hs or any(h <= 0 for h in hs) or \
            any(b >= a for a, b in zip(hs, hs[1:])):
        raise ConfigError("%s must be positive and strictly decreasing"
                          % name)
    return hs


class CellCorrectorSource:
    """Effective form and bending correctors of one RVE setup, from one
    `bending_solve` on first use: a load's corrector is the unit correctors
    combined by linearity, with no solve of its own."""

    def __init__(self, grid, phases, materials, tol=1e-10):
        self.grid = grid
        self.phases = phases
        self.materials = materials
        self.tol = float(tol)
        self._form = self._units = None

    def corrector(self, G):
        """Corrector field (n1, n2, n3+1, 3) of the pure bending load G."""
        self.effective()                      # solves on the first call
        v = sym2_to_voigt3(CellLoad(G=G).G)   # CellLoad checks G
        return (self._units @ v).reshape(self.grid.n1, self.grid.n2, -1, 3)

    def effective(self):
        """Effective bending form of this setup (cached)."""
        if self._form is None:
            self._form, self._units = bending_solve(
                self.grid, self.phases, self.materials, tol=self.tol)
        return self._form

    def phase_of_points(self, ypts):
        """Phase ids at cell coordinates, wrapped onto the cell grid."""
        (i, j), _, _ = locate(ypts, self.grid)
        return self.phases.cell_phase[i, j]


# ---------------------------------------------------------------------------
# The recovery family
# ---------------------------------------------------------------------------

def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _smoothstep_d(t):
    inside = (t > 0.0) & (t < 1.0)
    return np.where(inside, 6.0 * t * (1.0 - t), 0.0)


def _ramp_1d(x, a, b, delta):
    """C^1 cutoff on [a, b]: 0 within delta of the ends, 1 beyond 2*delta."""
    d = np.minimum(x - a, b - x)
    t = (d - delta) / delta
    chi = _smoothstep(t)
    sign = np.where(x - a < b - x, 1.0, -1.0)
    dchi = _smoothstep_d(t) * sign / delta
    return chi, dchi


class _Patch:
    def __init__(self, rect, load):
        self.rect = rect      # (x0, y0, x1, y1)
        self.load = load      # (2, 2) frozen bending load


class RecoveryFamily:
    """Patchwork of frozen-load correctors over the midplane domain."""

    def __init__(self, iso, cfg, source, V=None):
        if V is not None:
            raise ConfigError("build_recovery: only the zero midplane "
                              "displacement is supported")
        self.iso = iso
        self.cfg = cfg
        self.source = source
        x0, y0, x1, y1 = iso.domain
        eta = cfg.patch_size
        nx = max(int(np.ceil((x1 - x0) / eta - 1e-12)), 1)
        ny = max(int(np.ceil((y1 - y0) / eta - 1e-12)), 1)
        xs = [(x0 + i * eta, min(x0 + (i + 1) * eta, x1)) for i in range(nx)]
        ys = [(y0 + j * eta, min(y0 + (j + 1) * eta, y1)) for j in range(ny)]
        self._sides = (np.array(xs), np.array(ys))    # patch intervals
        self.patches = []
        for a0, a1 in xs:
            for b0, b1 in ys:
                rect = (a0, b0, a1, b1)
                self.patches.append(_Patch(rect, self._patch_load(rect)))

    def _patch_load(self, rect):
        """Frozen corrector load: minus the patch-averaged curvature form.

        The fiber term y + h x3 n carries the first-order strain
        -x3 * (second fundamental form) by the Weingarten relation
        (d_a n = -II_ab d_b y), so that is the bending load the corrector
        has to relax.  The sign is immaterial for the limit energy (the
        form is even) but not for the cross term here.
        """
        a0, b0, a1, b1 = rect
        gx = [a0 + g * (a1 - a0) for g in GAUSS]
        gy = [b0 + g * (b1 - b0) for g in GAUSS]
        pts = np.array([(x, y) for x in gx for y in gy])
        II = self.iso.second_form(pts)
        A = -II.mean(axis=0)
        return 0.5 * (A + A.T)

    def cutoff(self, xs, ys, ix, iy):
        """Patch holding each point, and that patch's cutoff there.

        Patches are half-open rectangles [a0, a1) x [b0, b1).  Point m is
        (xs[ix[m]], ys[iy[m]]): the patch lookup and the 1D ramps run once
        per axis value, and only their products once per point.

        Returns:
            (patch, chi, dchi): index into `patches` per point (-1 where no
            patch holds it), the cutoff (M,) and its gradient (dchi1, dchi2),
            all zero outside the patches.
        """
        delta = self.cfg.ramp_width
        axes = []
        for sides, t, idx in zip(self._sides, (xs, ys), (ix, iy)):
            i = np.searchsorted(sides[:, 0], t, side="right") - 1
            a0, a1 = sides[np.maximum(i, 0)].T
            c, dc = _ramp_1d(t, a0, a1, delta)
            inside = (i >= 0) & (t < a1)
            axes.append((i[idx], inside[idx], c[idx], dc[idx]))
        (i, in_x, cx, dcx), (j, in_y, cy, dcy) = axes
        inside = in_x & in_y
        chi = np.where(inside, cx * cy, 0.0)
        dchi = (np.where(inside, dcx * cy, 0.0),
                np.where(inside, cx * dcy, 0.0))
        return np.where(inside, i * len(self._sides[1]) + j, -1), chi, dchi

    def sampler(self, h):
        return DeformationSampler(self, h)


def build_recovery(iso, cfg, source, V=None):
    """Assemble the recovery family for an isometry and corrector source."""
    return RecoveryFamily(iso, cfg, source, V=V)


class _Plan:
    """Per-point data reused across the thickness quadrature layers.

    The corrector is trilinear, so at height x3 in thickness element k its
    value and gradient blend those of node layers k and k+1.  Node layer l's
    corrector part of the scaled gradient is `layers[:, :, l]`: columns 0-1
    the in-plane derivatives of h eps chi R g_l (its R dg, dR g and dchi
    terms), column 2 eps chi R g_l itself, whose layer difference times n3 is
    the x3 derivative.  The frame part of the gradient is F0 + (h x3) F1.
    Arrays keep the point index last, so every operation runs along it.

    Only the corrector's folded slots, node layers k <= n3/2, are gathered,
    interpolated and rotated: the upper layers are their mirror images (see
    `_rotate`).  On the quadrature's tensor grid the cell and patch lookups
    and the cutoff ramps run once per axis value, not once per point.
    """

    def __init__(self, frames, F0, F1, layers):
        self.frames = frames  # isometry frame fields at the points
        self.F0 = F0          # (3, 3, M) columns d1y, d2y, n
        self.F1 = F1          # (3, 3, M) columns d1n, d2n, 0
        self.layers = layers  # (3, 3, n3+1, M) per node layer


def _rotate(A, g, out):
    """Per-point matrices A (3, 3, M) applied to a bending corrector on every
    node layer, from its folded slots g (3, n3//2 + 1, M), into out
    (3, n3+1, M).

    Node layer n3 - k is diag(-1, -1, 1) times layer k.  So with
    P = A[:, :2] g[:2] and Q = A[:, 2] g[2], the lower layers are P + Q and
    the mirrored upper ones Q - P: the sums of A g term for term, in the
    same order, and so the same bits.
    """
    P = A[:, 0, None] * g[0]
    P += A[:, 1, None] * g[1]
    Q = A[:, 2, None] * g[2]
    k = g.shape[1]
    up = out.shape[1] - k    # layers n3, n3-1, ..., k mirror slots 0, 1, ...
    np.add(P, Q, out=out[:, :k])
    np.subtract(Q[:, up - 1::-1], P[:, up - 1::-1], out=out[:, k:])
    return out


def _locate_axes(xs, ys, eps, grid):
    """`locate` of the tensor-grid points (xs[i], ys[j]) / eps, per axis.

    Returns:
        ((lo, hi, t) along xs, (lo, hi, t) along ys): the cell-grid corners
        and offsets of each axis value, those of every point on its line.
    """
    y = np.zeros((max(len(xs), len(ys)), 2))
    y[:len(xs), 0] = xs / eps
    y[:len(ys), 1] = ys / eps
    lo, hi, t = locate(y, grid)
    return ((lo[0, :len(xs)], hi[0, :len(xs)], t[0, :len(xs)]),
            (lo[1, :len(ys)], hi[1, :len(ys)], t[1, :len(ys)]))


# Reflection x3 -> -x3 of a bending corrector's components: in-plane odd,
# transverse even.
_MIRROR = np.array([-1.0, -1.0, 1.0])


class DeformationSampler:
    """One member of the recovery family, evaluable point-wise.

    The deformation of the plate point (x', x3) (midplane coordinates and
    unit-thickness coordinate) is

        v(x', x3) = y(x') + h x3 n(x')
                    + h eps sum_i chi_i(x') R(x') g_i(x'/eps, x3)

    with R the rotation (d1y, d2y, n), g_i the patch correctors sampled
    trilinearly on the cell grid, and eps = h / gamma.  `scaled_gradient`
    returns (d1 v, d2 v, (1/h) d3 v).
    """

    def __init__(self, family, h):
        h = as_real(h, "DeformationSampler: h")
        if not h > 0:
            raise ConfigError("DeformationSampler: h must be > 0")
        self.family = family
        self.h = h
        self.eps = h / family.cfg.gamma
        g = family.source.grid
        self._hx = g.box_side / g.n1
        self._hy = g.box_side / g.n2
        self._n3 = g.n3
        # the patch correctors as one (3, n3+1, patches*n1*n2) table, of
        # which the slots k <= n3/2 are kept: the rest is their mirror image
        table = np.stack([family.source.corrector(p.load)
                          for p in family.patches]).transpose(
            4, 3, 0, 1, 2).reshape(3, g.n3 + 1, -1)
        if not np.array_equal(table[:, ::-1] * _MIRROR[:, None, None], table):
            raise NumericalError("DeformationSampler: the correctors are not "
                                 "mirror images across the midplane")
        self._table = np.ascontiguousarray(table[:, :g.n3 // 2 + 1])

    # -- planning ----------------------------------------------------------

    def plan(self, xp, axes=None):
        """Frame part and per-node-layer corrector part of the gradient.

        Args:
            xp: (M, 2) midplane points.
            axes: (xs, ys, ix, iy) when the points lie on a tensor grid,
                xp[m] = (xs[ix[m]], ys[iy[m]]); the per-axis work then runs
                once per axis value.  By default every point is its own.
        """
        xp = np.asarray(xp, dtype=float)
        if axes is None:
            every = np.arange(xp.shape[0])
            axes = (xp[:, 0], xp[:, 1], every, every)
        xs, ys, ix, iy = axes
        y, F0, F1, dR = self.family.iso.frames(xp)
        grid = self.family.source.grid
        n1, n2, n3 = grid.n1, grid.n2, self._n3
        h, eps = self.h, self.eps
        patch, chi, dchi = self.family.cutoff(xs, ys, ix, iy)
        # points outside every patch read patch 0's corrector with chi = 0
        patch = np.maximum(patch, 0)
        (i0, i1, tx), (j0, j1, ty) = _locate_axes(xs, ys, eps, grid)
        i0, i1, tx = i0[ix], i1[ix], tx[ix]
        j0, j1, ty = j0[iy], j1[iy], ty[iy]
        T = self._table
        # in-plane corners, all folded slots at once: (3, n3//2 + 1, M)
        row0, row1 = (patch * n1 + i0) * n2, (patch * n1 + i1) * n2
        c00, c10 = T.take(row0 + j0, axis=2), T.take(row1 + j0, axis=2)
        c01, c11 = T.take(row0 + j1, axis=2), T.take(row1 + j1, axis=2)
        d0, d1 = c10 - c00, c11 - c01            # steps along y1 at j0, j1
        lo = c00 + tx * d0
        step2 = c01 + tx * d1 - lo               # step along y2
        g = lo + ty * step2
        step1 = (1.0 - ty) * d0 + ty * d1
        # frames with the cutoff folded in: (h chi / cell size) R on the
        # steps, h eps (dchi_a R + chi dR_a) and eps chi R on g
        layers = np.empty((3, 3, n3 + 1, xp.shape[0]))
        spare = np.empty(layers.shape[1:])
        for a, step, side in ((0, step1, self._hx), (1, step2, self._hy)):
            Q = (h * eps) * (dchi[a] * F0 + chi * dR[a])
            _rotate((h / side * chi) * F0, step, layers[:, a])
            layers[:, a] += _rotate(Q, g, spare)
        _rotate((eps * chi) * F0, g, layers[:, 2])
        return _Plan(_field_views(y, F0, F1, dR), F0, F1, layers)

    def _layer(self, x3):
        """Thickness element k0 holding height x3 and the offset tz in it."""
        n3 = self._n3
        s = np.clip((x3 + 0.5) * n3, 0.0, float(n3))
        k0 = min(int(s), n3 - 1)
        return k0, s - k0

    # -- evaluation --------------------------------------------------------

    def deformation(self, xp, x3):
        """Deformed positions (M, 3) of midplane points at one fiber height."""
        plan = self.plan(xp)
        k0, tz = self._layer(x3)
        lo, hi = plan.layers[:, 2, k0], plan.layers[:, 2, k0 + 1]
        out = plan.frames["y"] + self.h * x3 * plan.frames["n"]
        out += (self.h * ((1.0 - tz) * lo + tz * hi)).T
        return out

    def scaled_gradient(self, xp, x3, plan=None):
        """Scaled deformation gradients (M, 3, 3) at one fiber height."""
        if plan is None:
            plan = self.plan(xp)
        k0, tz = self._layer(x3)
        lo, hi = plan.layers[:, :, k0], plan.layers[:, :, k0 + 1]
        F = plan.F0 + (self.h * x3) * plan.F1
        F[:, :2] += (1.0 - tz) * lo[:, :2] + tz * hi[:, :2]
        F[:, 2] += self._n3 * (hi[:, 2] - lo[:, 2])
        return F.transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------

def evaluate_scaled_energy(sampler, cells_per_scale=None):
    """Thickness-scaled elastic energy of one recovery member.

    Composite 2x2 Gauss quadrature in-plane with cells no coarser than half
    the microscale, and per-corrector-layer 2-point Gauss through the
    thickness (matching the cell solve's rule, so the discrete corrector is
    credited exactly the relaxation it earned there).

    The points are grouped by phase and taken in blocks of _BLOCK: each block
    gets one plan, then every thickness layer's gradients and densities, so
    the temporaries stay bounded whatever the number of points.  The points
    form a tensor grid, so the phase lookup, and each plan's per-axis work,
    runs on its two axes.

    Returns:
        float: (1/h^2) integral of W(phase, scaled gradient).

    Raises:
        NumericalError: the energy is not finite.
    """
    family = sampler.family
    cells_per_scale = _cells_per_scale(
        family.cfg.cells_per_scale if cells_per_scale is None
        else cells_per_scale, "evaluate_scaled_energy")
    x0, y0, x1, y1 = family.iso.domain
    eps = sampler.eps
    ncx = max(int(np.ceil((x1 - x0) * cells_per_scale / eps)), 1)
    ncy = max(int(np.ceil((y1 - y0) * cells_per_scale / eps)), 1)
    gx = (np.arange(ncx)[:, None] + np.asarray(GAUSS)).ravel() * (x1 - x0) / ncx
    gy = (np.arange(ncy)[:, None] + np.asarray(GAUSS)).ravel() * (y1 - y0) / ncy
    xs, ys = x0 + gx, y0 + gy
    xp = _tensor_points(xs, ys)
    w_area = (x1 - x0) * (y1 - y0) / (4.0 * ncx * ncy)

    source = family.source
    (i, _, _), (j, _, _) = _locate_axes(xs, ys, eps, source.grid)
    phases = source.phases.cell_phase[i[:, None], j].ravel()
    order = np.argsort(phases, kind="stable")
    cuts = np.flatnonzero(np.diff(phases[order])) + 1
    n3 = source.grid.n3
    heights = [-0.5 + (k + gq) / n3 for k in range(n3) for gq in GAUSS]
    total = 0.0
    for group in np.split(order, cuts):
        mat = source.materials[int(phases[group[0]])]
        for start in range(0, group.size, _BLOCK):
            block = group[start:start + _BLOCK]
            xb = xp[block]
            plan = sampler.plan(xb, axes=(xs, ys, block // len(ys),
                                          block % len(ys)))
            for x3 in heights:
                F = sampler.scaled_gradient(xb, x3, plan=plan)
                total += float(np.sum(svk_energy(mat, F)))
    # numpy's h ** 2 is the same libm pow as Python's, but overflows to inf
    # instead of raising
    with np.errstate(over="ignore"):
        energy = total / (2.0 * n3) * w_area / np.float64(sampler.h) ** 2
    if not np.isfinite(energy):
        raise NumericalError("evaluate_scaled_energy: the energy at h = %r "
                             "is %r" % (sampler.h, float(energy)))
    return float(energy)


def limit_energy(form, iso, resolution=32):
    """Homogenized bending energy of the isometry: integral of q(II).

    Midpoint rule on a resolution^2 grid (exact for the constant-curvature
    isometries shipped here).
    """
    resolution = as_index(resolution, "limit_energy: resolution")
    if resolution < 1:
        raise ConfigError("limit_energy: resolution must be >= 1")
    x0, y0, x1, y1 = iso.domain
    xs = x0 + (np.arange(resolution) + 0.5) * (x1 - x0) / resolution
    ys = y0 + (np.arange(resolution) + 0.5) * (y1 - y0) / resolution
    II = iso.second_form(_tensor_points(xs, ys))
    return float(qgamma_eval(form, II).mean() * (x1 - x0) * (y1 - y0))


def recovery_gaps(family, h_schedule=None):
    """Scaled energies, the limit energy, and relative gaps per thickness.

    Args:
        family: the recovery family.
        h_schedule: thicknesses, finite, positive and strictly decreasing;
            default the family config's.

    Returns:
        dict with h_schedule, scaled (list), limit (float), gaps (list of
        (scaled - limit) / limit).

    Raises:
        ConfigError: the limit energy is 0 (a flat isometry), where relative
            gaps are undefined.
    """
    if h_schedule is None:
        hs = family.cfg.h_schedule
        if not hs:
            raise ConfigError("recovery_gaps: no h_schedule given")
    else:
        hs = _h_schedule(h_schedule, "recovery_gaps")
    limit = limit_energy(family.source.effective(), family.iso)
    if limit == 0:
        raise ConfigError("isometry: the limit energy of kind %r is 0, so "
                          "relative gaps are undefined" % family.iso.kind)
    scaled = [evaluate_scaled_energy(family.sampler(h)) for h in hs]
    gaps = [(s - limit) / limit for s in scaled]
    return {"h_schedule": list(hs), "scaled": scaled, "limit": limit,
            "gaps": gaps}
