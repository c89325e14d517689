"""Finite-thickness bending deformations that attain the effective energy.

Given a smooth isometric immersion of the midplane and a microstructured
material, this module builds the classical two-scale deformation family: the
plate is bent along the isometry, fibers follow the rotated normal, and a
small-amplitude cell corrector, rotated into the local frame, lets the
material relax exactly as in the periodic cell problem.  The corrector's load
is minus the second fundamental form II of the isometry, so it relaxes the
bending strain the fibers carry.  `evaluate_scaled_energy` integrates the
thickness-scaled elastic energy of one member of the family; `limit_energy`
integrates the homogenized bending form over the midplane.  Their gap is
O(h^2): the family attains the cell solve's own discrete limit.

The family is evaluated in the moving frame R = (d1y, d2y, n) of the
isometry.  The St. Venant-Kirchhoff density is frame indifferent,
W(R F) = W(F), so the energy reads only R^T times the gradient, and that
sees the isometry only through its connection R^T d_a R.  Both shipped
isometries, flat and cylinder, have a constant connection, and so a
constant II: the density is periodic in x' with the period eps L of the
cell, and the energy is evaluated on one cell.  The quadrature is the cell
solve's own rule, per axis in cell units: the domain is cut at the element
boundaries; whole elements count by their integer multiplicity per element
column at the 2 Gauss points, and the at most two partial end pieces get a
2-point Gauss rule of their own.  Every distinct point is evaluated once,
placed in the first period.  Through the thickness the rule is 2-point
Gauss per corrector layer.  So the energy is a weighted sum over at most
(2 n1 + 4)(2 n2 + 4) in-plane points, whatever the domain.

The corrector comes from the effective form's own cell solve, and each
quadrature point is read with the phase of its cell element, so the energy
sees by construction the microscale phase layout the corrector was
optimized for.  The sampler finds a point's corrector corners through the
slab mesh's one in-plane lookup (`_mesh.locate`).
"""

import math

import numpy as np

from ._mesh import GAUSS, locate
from .cellsolve import BENDING, CellLoad, bending_solve, qgamma_eval, \
    sym2_to_voigt3, \
    solve_corrector  # unused; bound for perfbench's recovery.solve_corrector
from .errors import ConfigError, NumericalError, as_array, as_real
from .material import svk_energy
from .microstructure import _tensor_points


# ---------------------------------------------------------------------------
# Midplane isometries
# ---------------------------------------------------------------------------

class IsometrySpec:
    """Smooth isometric immersion y of a planar domain, seen in its moving
    frame R = (d1y, d2y, n).

    Supported kinds: "flat" (identity embedding) and "cylinder" (rolling onto
    a cylinder of given radius about the x2 axis).  Both have a constant
    connection A_a = R^T d_a R, and the recovery family reads nothing else of
    them: a frame-indifferent energy never sees R itself.

    Args:
        kind: "flat" or "cylinder".
        domain: (x0, y0, x1, y1) midplane rectangle.
        radius: cylinder radius (ignored for "flat").

    Attributes:
        connection: (2, 3, 3) skew matrices A_1, A_2; zero for "flat", and
            for "cylinder" A_1 = (e1 e3^T - e3 e1^T) / radius, A_2 = 0.
    """

    def __init__(self, kind, domain, radius=None):
        if kind not in ("flat", "cylinder"):
            raise ConfigError("IsometrySpec: kind %r is unknown" % (kind,))
        x0, y0, x1, y1 = as_array(domain, "IsometrySpec: domain",
                                  (4,)).tolist()
        if not (x1 > x0 and y1 > y0):
            raise ConfigError("IsometrySpec: domain %r is empty" % (domain,))
        self.connection = np.zeros((2, 3, 3))
        if kind == "cylinder":
            radius = as_real(radius, "IsometrySpec: radius", 0)
            self.connection[0, 0, 2] = 1.0 / radius
            self.connection[0, 2, 0] = -1.0 / radius
        self.kind = kind
        self.domain = (x0, y0, x1, y1)
        self.radius = radius

    @property
    def second_form(self):
        """Second fundamental form II_ab = n . d_a d_b y = (A_a)_3b, (2, 2)."""
        return self.connection[:, 2, :2]


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
        gamma: optional thickness-to-microscale ratio, eps = h / gamma; the
            family takes it from the cell grid its corrector is solved on,
            and refuses a value here that differs from the grid's.
        h_schedule: the thicknesses `recovery_gaps` evaluates, finite,
            positive and strictly decreasing.
    """

    def __init__(self, gamma=None, h_schedule=None):
        if gamma is not None:
            gamma = as_real(gamma, "RecoveryConfig: gamma", 0)
        if h_schedule is not None:
            hs = as_array(h_schedule, "RecoveryConfig: h_schedule", (None,))
            if not len(hs) or np.any(hs <= 0) or np.any(np.diff(hs) >= 0):
                raise ConfigError("RecoveryConfig: h_schedule must be "
                                  "positive and strictly decreasing")
            h_schedule = hs.tolist()
        self.gamma = gamma
        self.h_schedule = h_schedule


class CellCorrectorSource:
    """Effective form and bending correctors of one RVE setup, from one
    `bending_solve` on first use: a load's corrector is the unit correctors
    combined by linearity, with no solve of its own."""

    def __init__(self, grid, phases, materials, tol=1e-10):
        self.grid = grid
        self.phases = phases
        self.materials = materials
        self.tol = as_real(tol, "CellCorrectorSource: tol", 0, 1)
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


# ---------------------------------------------------------------------------
# The recovery family
# ---------------------------------------------------------------------------

class RecoveryFamily:
    """The bent plate plus one rotated cell corrector, of load minus II, at
    the gamma of the corrector's cell grid."""

    def __init__(self, iso, cfg, source):
        if cfg.gamma is not None and cfg.gamma != source.grid.gamma:
            raise ConfigError("RecoveryConfig: gamma %r differs from the "
                              "gamma %r of the corrector's cell grid"
                              % (cfg.gamma, source.grid.gamma))
        self.iso = iso
        self.cfg = cfg
        self.source = source
        # The fiber term y + h x3 n carries the first-order strain -x3 II by
        # the Weingarten relation (d_a n = -II_ab d_b y), so minus II is the
        # bending load the corrector has to relax.  The sign is immaterial
        # for the limit energy (the form is even) but not for the cross term.
        self.load = -iso.second_form

    def sampler(self, h):
        return DeformationSampler(self, h)


def build_recovery(iso, cfg, source):
    """Assemble the recovery family for an isometry and corrector source."""
    return RecoveryFamily(iso, cfg, source)


# Signs of a bending corrector's components under the reflection x3 -> -x3.
_MIRROR = np.array(BENDING, dtype=float)


class DeformationSampler:
    """One member of the recovery family, evaluable point-wise in its moving
    frame.

    The deformation of the plate point (x', x3) (midplane coordinates and
    unit-thickness coordinate) is

        v(x', x3) = y(x') + h x3 n(x') + h eps R(x') g(x'/eps, x3)

    with R the rotation (d1y, d2y, n), g the corrector of the family's load
    sampled trilinearly on the cell grid, and eps = h / gamma.
    `scaled_gradient` returns R^T (d1 v, d2 v, (1/h) d3 v), which the
    frame-indifferent density W(R F) = W(F) scores as the gradient itself.
    With A_a = R^T d_a R and d_a g the derivative in cell coordinates,

        R^T d_a v = e_a + h x3 A_a e3 + h d_a g + h eps A_a g,
        R^T (1/h) d3 v = e3 + eps d3 g,

    so the frame part I + h x3 (A_1 e3, A_2 e3, 0) is the same everywhere.
    """

    def __init__(self, family, h):
        h = as_real(h, "DeformationSampler: h", 0)
        self.family = family
        self.h = h
        g = family.source.grid
        self.eps = h / g.gamma
        self._hx = g.box_side / g.n1
        self._hy = g.box_side / g.n2
        self._n3 = g.n3
        # A_1 e3 and A_2 e3, the frame part's slope in h x3, (3, 2, 1)
        self._bend = family.iso.connection[:, :, 2].T[:, :, None]
        values = family.source.corrector(family.load)
        # the parity solve builds a bending corrector mirror-symmetric across
        # the midplane, bit for bit; a table that is not did not come from it
        if not np.array_equal(values[:, :, ::-1] * _MIRROR, values):
            raise NumericalError("DeformationSampler: the correctors are not "
                                 "mirror images across the midplane")
        # one (3, n3+1, n1*n2) table, the in-plane node index last
        self._table = np.ascontiguousarray(
            values.transpose(3, 2, 0, 1).reshape(3, g.n3 + 1, -1))

    def plan(self, xp):
        """Corrector part of the gradient per node layer, (3, 3, n3+1, M), at
        midplane points xp (M, 2).

        The corrector is trilinear, so at height x3 in thickness element k
        its value and gradient blend those of node layers k and k+1.  Node
        layer l's part is plan[:, :, l]: columns 0-1 the in-plane
        derivatives of h eps g_l in the moving frame, (h / side) step +
        h eps A_a g_l, and column 2 eps g_l itself, whose layer difference
        times n3 is the x3 derivative.  The point index is last.
        """
        xp = np.asarray(xp, dtype=float)
        h, eps, n2 = self.h, self.eps, self.family.source.grid.n2
        (i0, j0), (i1, j1), (tx, ty) = locate(xp / eps,
                                              self.family.source.grid)
        T = self._table
        c00, c10 = T[:, :, i0 * n2 + j0], T[:, :, i1 * n2 + j0]
        c01, c11 = T[:, :, i0 * n2 + j1], T[:, :, i1 * n2 + j1]
        d0, d1 = c10 - c00, c11 - c01           # steps along y1 at j0, j1
        lo = c00 + tx * d0
        step2 = c01 + tx * d1 - lo              # step along y2
        g = lo + ty * step2
        step1 = (1.0 - ty) * d0 + ty * d1
        A = (h * eps) * self.family.iso.connection[:, :, :, None, None]
        layers = np.empty((3, 3, self._n3 + 1, len(xp)))
        for a, step, side in ((0, step1, self._hx), (1, step2, self._hy)):
            layers[:, a] = (h / side) * step + (A[a] * g).sum(axis=1)
        layers[:, 2] = eps * g
        return layers

    def _layer(self, x3):
        """Height x3, read strictly and in [-1/2, 1/2], the thickness element
        k0 holding it and the offset tz in it."""
        x3 = as_real(x3, "DeformationSampler: x3")
        if not -0.5 <= x3 <= 0.5:
            raise ConfigError("DeformationSampler: x3 must lie in "
                              "[-1/2, 1/2], got %r" % x3)
        s = (x3 + 0.5) * self._n3
        k0 = min(int(s), self._n3 - 1)
        return x3, k0, s - k0

    def scaled_gradient(self, xp, x3, plan=None):
        """Scaled deformation gradients in the moving frame,
        R^T (d1 v, d2 v, (1/h) d3 v), (M, 3, 3) at one fiber height."""
        x3, k0, tz = self._layer(x3)
        if plan is None:
            plan = self.plan(xp)
        lo, hi = plan[:, :, k0], plan[:, :, k0 + 1]
        F = np.empty(lo.shape)
        F[:, :2] = (1.0 - tz) * lo[:, :2] + tz * hi[:, :2] \
            + (self.h * x3) * self._bend
        F[:, 2] = self._n3 * (hi[:, 2] - lo[:, 2])
        F += np.eye(3)[:, :, None]
        return F.transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------

def _axis_rule(a, b, n):
    """The aligned quadrature rule of [a, b], in element units, along a cell
    axis of n elements.

    Whole elements count at the Gauss points of their column (index mod n),
    weighted by how many of them [a, b] holds; each partial end piece gets a
    2-point Gauss rule of its own.

    Returns:
        (t, w, col): the distinct points as offsets in element units in the
        first period [0, n), their weights in element units, and the element
        column holding each.
    """
    # an end within rounding of an element boundary lies on it, instead of
    # leaving a partial piece of width 1e-15
    snap = 1e-12 * max(abs(a), abs(b))
    k0, k1 = math.ceil(a - snap), math.floor(b + snap)
    # the whole elements k0, ..., k1 - 1 per column c = k mod n, counted in
    # O(n) whatever their number
    counts = np.array([max((k1 - 1 - c) // n - (k0 - 1 - c) // n, 0)
                       for c in range(n)], dtype=float)
    cols = np.flatnonzero(counts)
    gauss = np.asarray(GAUSS)
    t, w, col = [(cols[:, None] + gauss).ravel()], \
        [np.repeat(counts[cols] / 2.0, 2)], [np.repeat(cols, 2)]
    ends = [(a, b)] if k0 > k1 else [(a, k0), (k1, b)]
    for p, q in ends:
        if q - p > snap:
            e = math.floor(p)     # the element holding the piece
            t.append(e % n + (p - e) + (q - p) * gauss)
            w.append(np.full(2, (q - p) / 2.0))
            col.append(np.full(2, e % n))
    return np.concatenate(t), np.concatenate(w), np.concatenate(col)


def evaluate_scaled_energy(sampler):
    """Thickness-scaled elastic energy of one recovery member.

    The cell solve's own rule, on one cell (see the module docstring): 2x2
    Gauss points per element in-plane, each weighted by how often the domain
    holds its element, plus the partial end pieces' own Gauss points, and
    2-point Gauss per corrector layer through the thickness.  So the
    discrete corrector is credited exactly the relaxation it earned in the
    cell solve.  Every point gets one plan; each thickness height then one
    gradient evaluation, and each phase one density evaluation.

    Returns:
        float: (1/h^2) integral of W(phase, scaled gradient).

    Raises:
        NumericalError: the energy is not finite.
    """
    family, eps = sampler.family, sampler.eps
    source = family.source
    grid = source.grid
    x0, y0, x1, y1 = family.iso.domain
    s1, s2 = eps * grid.box_side / grid.n1, eps * grid.box_side / grid.n2
    (t1, w1, i), (t2, w2, j) = (_axis_rule(a / s, b / s, n) for a, b, s, n in
                                ((x0, x1, s1, grid.n1), (y0, y1, s2, grid.n2)))
    xp = _tensor_points(s1 * t1, s2 * t2)
    weights = np.outer(w1, w2).ravel()
    phases = source.phases.cell_phase[i[:, None], j].ravel()
    groups = [(phases == p, source.materials[int(p)])
              for p in np.unique(phases)]
    n3 = grid.n3
    plan = sampler.plan(xp)
    F = np.stack([sampler.scaled_gradient(xp, -0.5 + (k + gq) / n3, plan=plan)
                  for k in range(n3) for gq in GAUSS])     # (2 n3, M, 3, 3)
    # one density evaluation per phase, (2 n3, rows) C-contiguous; each
    # height's row is summed on its own, in (height, phase) order, as the
    # density of that height alone would be: sum(axis=1) and strided rows
    # pair the terms differently and change the last bit
    terms = [weights[rows] * svk_energy(mat, F[:, rows])
             for rows, mat in groups]
    total = 0.0
    for k in range(len(F)):
        for term in terms:
            total += float(np.sum(term[k]))
    # numpy's h ** 2 is the same libm pow as Python's, but overflows to inf
    # instead of raising
    with np.errstate(over="ignore"):
        energy = total / (2.0 * n3) * (s1 * s2) / np.float64(sampler.h) ** 2
    if not np.isfinite(energy):
        raise NumericalError("evaluate_scaled_energy: the energy at h = %r "
                             "is %r" % (sampler.h, float(energy)))
    return float(energy)


def limit_energy(form, iso):
    """Homogenized bending energy of the isometry: the integral of q(II).

    The connection is constant, and with it the second form, so the
    integral is q(II) |omega|.
    """
    x0, y0, x1, y1 = iso.domain
    return float(qgamma_eval(form, iso.second_form) * (x1 - x0) * (y1 - y0))


def recovery_gaps(family):
    """Scaled energies, the limit energy, and relative gaps per thickness of
    the family config's h_schedule.

    Returns:
        dict with h_schedule, scaled (list), limit (float), gaps (list of
        (scaled - limit) / limit).

    Raises:
        ConfigError: the config has no h_schedule, or the limit energy is 0
            (a flat isometry), where relative gaps are undefined.
    """
    hs = family.cfg.h_schedule
    if not hs:
        raise ConfigError("recovery_gaps: RecoveryConfig has no h_schedule")
    limit = limit_energy(family.source.effective(), family.iso)
    if limit == 0:
        raise ConfigError("isometry: the limit energy of kind %r is 0, so "
                          "relative gaps are undefined" % family.iso.kind)
    scaled = [evaluate_scaled_energy(family.sampler(h)) for h in hs]
    gaps = [(s - limit) / limit for s in scaled]
    return {"h_schedule": list(hs), "scaled": scaled, "limit": limit,
            "gaps": gaps}
