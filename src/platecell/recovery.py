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
gradient; the gradient at any height then blends two stored layers.  The
energy quadrature takes its points grouped by phase, in fixed-size blocks.
"""

import numpy as np

from ._mesh import GAUSS, locate
from .cellsolve import CellLoad, bending_solve, qgamma_eval, sym2_to_voigt3, \
    solve_corrector  # unused; bound for perfbench's recovery.solve_corrector
from .errors import ConfigError, as_index, as_real
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

    def frame_fields(self, xp):
        """Immersion, tangent frame, normal and their derivatives at points.

        Args:
            xp: (M, 2) midplane points.

        Returns:
            dict with keys y, d1y, d2y, n, d1n, d2n -- each (M, 3) -- and
            ddy: (M, 2, 2, 3) second derivatives of the immersion.
        """
        xp = np.asarray(xp, dtype=float)
        m = xp.shape[0]
        out = {k: np.zeros((m, 3)) for k in
               ("y", "d1y", "d2y", "n", "d1n", "d2n")}
        out["ddy"] = np.zeros((m, 2, 2, 3))
        if self.kind == "flat":
            out["y"][:, 0] = xp[:, 0]
            out["y"][:, 1] = xp[:, 1]
            out["d1y"][:, 0] = 1.0
            out["d2y"][:, 1] = 1.0
            out["n"][:, 2] = 1.0
            return out
        r = self.radius
        u = xp[:, 0] / r
        cu, su = np.cos(u), np.sin(u)
        out["y"][:, 0] = r * su
        out["y"][:, 1] = xp[:, 1]
        out["y"][:, 2] = r * cu
        out["d1y"][:, 0] = cu
        out["d1y"][:, 2] = -su
        out["d2y"][:, 1] = 1.0
        out["n"][:, 0] = su
        out["n"][:, 2] = cu
        out["d1n"][:, 0] = cu / r
        out["d1n"][:, 2] = -su / r
        out["ddy"][:, 0, 0, 0] = -su / r
        out["ddy"][:, 0, 0, 2] = -cu / r
        return out

    def second_form(self, xp):
        """Second fundamental form (M, 2, 2) at midplane points."""
        f = self.frame_fields(xp)
        return np.einsum("mabc,mc->mab", f["ddy"], f["n"])


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
        cells_per_scale = as_index(cells_per_scale,
                                   "RecoveryConfig: cells_per_scale")
        if cells_per_scale < 2:
            raise ConfigError("RecoveryConfig: cells_per_scale must be >= 2")
        if h_schedule is not None:
            hs = [as_real(h, "RecoveryConfig: h_schedule[%d]" % k)
                  for k, h in enumerate(h_schedule)]
            if not hs or any(h <= 0 for h in hs) or \
                    any(b >= a for a, b in zip(hs, hs[1:])):
                raise ConfigError("RecoveryConfig: h_schedule must be "
                                  "positive and strictly decreasing")
            h_schedule = hs
        self.gamma = gamma
        self.patch_size = patch_size
        self.ramp_width = ramp_width
        self.cells_per_scale = cells_per_scale
        self.h_schedule = h_schedule
        self.corrector_tol = as_real(corrector_tol,
                                     "RecoveryConfig: corrector_tol")


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

    def cutoff(self, xp):
        """Patch holding each point, and that patch's cutoff there.

        Patches are half-open rectangles [a0, a1) x [b0, b1).

        Returns:
            (patch, chi, dchi): index into `patches` per point (-1 where no
            patch holds it), the cutoff (M,) and its gradient (dchi1, dchi2),
            all zero outside the patches.
        """
        xs, ys = self._sides
        i = np.searchsorted(xs[:, 0], xp[:, 0], side="right") - 1
        j = np.searchsorted(ys[:, 0], xp[:, 1], side="right") - 1
        inside = (i >= 0) & (j >= 0)
        a0, a1 = xs[np.maximum(i, 0)].T
        b0, b1 = ys[np.maximum(j, 0)].T
        inside &= (xp[:, 0] < a1) & (xp[:, 1] < b1)
        delta = self.cfg.ramp_width
        cx, dcx = _ramp_1d(xp[:, 0], a0, a1, delta)
        cy, dcy = _ramp_1d(xp[:, 1], b0, b1, delta)
        chi = np.where(inside, cx * cy, 0.0)
        dchi = (np.where(inside, dcx * cy, 0.0),
                np.where(inside, cx * dcy, 0.0))
        return np.where(inside, i * len(ys) + j, -1), chi, dchi

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
    """

    def __init__(self, frames, F0, F1, layers):
        self.frames = frames  # isometry frame fields at the points
        self.F0 = F0          # (3, 3, M) columns d1y, d2y, n
        self.F1 = F1          # (3, 3, M) columns d1n, d2n, 0
        self.layers = layers  # (3, 3, n3+1, M) per node layer


def _rotate(A, g):
    """Per-point matrices A (3, 3, M) applied to vectors g (3, L, M)."""
    return np.einsum("ijm,jlm->ilm", A, g)


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
        if not h > 0:
            raise ConfigError("DeformationSampler: h must be > 0")
        self.family = family
        self.h = float(h)
        self.eps = float(h) / family.cfg.gamma
        g = family.source.grid
        self._hx = g.box_side / g.n1
        self._hy = g.box_side / g.n2
        self._n3 = g.n3
        # the patch correctors as one (3, n3+1, patches*n1*n2) table
        self._table = np.stack([family.source.corrector(p.load)
                                for p in family.patches]).transpose(
            4, 3, 0, 1, 2).reshape(3, g.n3 + 1, -1)

    # -- planning ----------------------------------------------------------

    def plan(self, xp):
        """Frame part and per-node-layer corrector part of the gradient."""
        xp = np.asarray(xp, dtype=float)
        f = self.family.iso.frame_fields(xp)
        grid = self.family.source.grid
        n1, n2 = grid.n1, grid.n2
        h, eps = self.h, self.eps
        F0 = np.empty((3, 3, xp.shape[0]))
        F0[:, 0], F0[:, 1], F0[:, 2] = f["d1y"].T, f["d2y"].T, f["n"].T
        F1 = np.zeros_like(F0)
        F1[:, 0], F1[:, 1] = f["d1n"].T, f["d2n"].T
        patch, chi, dchi = self.family.cutoff(xp)
        # points outside every patch read patch 0's corrector with chi = 0
        patch = np.maximum(patch, 0)
        T = self._table
        (i0, j0), (i1, j1), (tx, ty) = locate(xp / eps, grid)
        # in-plane corners, all node layers at once: (3, n3+1, M)
        row0, row1 = (patch * n1 + i0) * n2, (patch * n1 + i1) * n2
        c00, c10 = T.take(row0 + j0, axis=2), T.take(row1 + j0, axis=2)
        c01, c11 = T.take(row0 + j1, axis=2), T.take(row1 + j1, axis=2)
        d0, d1 = c10 - c00, c11 - c01            # steps along y1 at j0, j1
        lo = c00 + tx * d0
        step2 = c01 + tx * d1 - lo               # step along y2
        g = lo + ty * step2
        step1 = (1.0 - ty) * d0 + ty * d1
        # dR[a] = d_a R: columns d_a d1y, d_a d2y, d_a n
        dR = np.empty((2,) + F0.shape)
        dR[:, :, :2] = f["ddy"].transpose(1, 3, 2, 0)
        dR[:, :, 2] = F1[:, :2].transpose(1, 0, 2)
        # frames with the cutoff folded in: (h chi / cell size) R on the
        # steps, h eps (dchi_a R + chi dR_a) and eps chi R on g
        layers = np.empty((3, 3) + g.shape[1:])
        for a, step, side in ((0, step1, self._hx), (1, step2, self._hy)):
            Q = (h * eps) * (dchi[a] * F0 + chi * dR[a])
            layers[:, a] = _rotate((h / side * chi) * F0, step) \
                + _rotate(Q, g)
        layers[:, 2] = _rotate((eps * chi) * F0, g)
        return _Plan(f, F0, F1, layers)

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
    the temporaries stay bounded whatever the number of points.

    Returns:
        float: (1/h^2) integral of W(phase, scaled gradient).
    """
    family = sampler.family
    if cells_per_scale is None:
        cells_per_scale = family.cfg.cells_per_scale
    x0, y0, x1, y1 = family.iso.domain
    eps = sampler.eps
    ncx = max(int(np.ceil((x1 - x0) * cells_per_scale / eps)), 1)
    ncy = max(int(np.ceil((y1 - y0) * cells_per_scale / eps)), 1)
    if (x1 - x0) / ncx > eps / 2.0 or (y1 - y0) / ncy > eps / 2.0:
        raise ConfigError("evaluate_scaled_energy: in-plane quadrature does "
                          "not resolve the microscale")
    gx = (np.arange(ncx)[:, None] + np.asarray(GAUSS)).ravel() * (x1 - x0) / ncx
    gy = (np.arange(ncy)[:, None] + np.asarray(GAUSS)).ravel() * (y1 - y0) / ncy
    xp = _tensor_points(x0 + gx, y0 + gy)
    w_area = (x1 - x0) * (y1 - y0) / (4.0 * ncx * ncy)

    source = family.source
    phases = source.phase_of_points(xp / eps)
    order = np.argsort(phases, kind="stable")
    cuts = np.flatnonzero(np.diff(phases[order])) + 1
    n3 = source.grid.n3
    heights = [-0.5 + (k + gq) / n3 for k in range(n3) for gq in GAUSS]
    total = 0.0
    for group in np.split(order, cuts):
        mat = source.materials[int(phases[group[0]])]
        for start in range(0, group.size, _BLOCK):
            xb = xp[group[start:start + _BLOCK]]
            plan = sampler.plan(xb)
            for x3 in heights:
                F = sampler.scaled_gradient(xb, x3, plan=plan)
                total += float(np.sum(svk_energy(mat, F)))
    return total / (2.0 * n3) * w_area / sampler.h ** 2


def limit_energy(form, iso, resolution=32):
    """Homogenized bending energy of the isometry: integral of q(II).

    Midpoint rule on a resolution^2 grid (exact for the constant-curvature
    isometries shipped here).
    """
    x0, y0, x1, y1 = iso.domain
    xs = x0 + (np.arange(resolution) + 0.5) * (x1 - x0) / resolution
    ys = y0 + (np.arange(resolution) + 0.5) * (y1 - y0) / resolution
    II = iso.second_form(_tensor_points(xs, ys))
    return float(qgamma_eval(form, II).mean() * (x1 - x0) * (y1 - y0))


def recovery_gaps(family, h_schedule=None):
    """Scaled energies, the limit energy, and relative gaps per thickness.

    Returns:
        dict with h_schedule, scaled (list), limit (float), gaps (list of
        (scaled - limit) / limit).

    Raises:
        ConfigError: the limit energy is 0 (a flat isometry), where relative
            gaps are undefined.
    """
    hs = h_schedule if h_schedule is not None else family.cfg.h_schedule
    if not hs:
        raise ConfigError("recovery_gaps: no h_schedule given")
    limit = limit_energy(family.source.effective(), family.iso)
    if limit == 0:
        raise ConfigError("isometry: the limit energy of kind %r is 0, so "
                          "relative gaps are undefined" % family.iso.kind)
    scaled = [evaluate_scaled_energy(family.sampler(h)) for h in hs]
    gaps = [(s - limit) / limit for s in scaled]
    return {"h_schedule": list(hs), "scaled": scaled, "limit": limit,
            "gaps": gaps}
