"""Planar random/periodic microstructures on a periodized box [0, L)^2.

Three media are supported:

  periodic_texture   two-phase stripe laminate along x1 (period = period_hint,
                     phase 0 on the first half-period)
  checkerboard       alternating square tiles of side period_hint
  poisson_voronoi    marked Poisson point process; the phase at x is the mark
                     of the nearest point in the flat-torus metric

A realization is immutable and carries a translation offset implementing the
shift action: shifting composes exactly (offsets add), and every query wraps
into the periodic box.  `phase_at` looks up scattered Voronoi points in one
exact float64 pass over all sites, taken in (x, y, index) order so that the
first nearest site is the tie-broken one.  `phase_grid` finds the phases of
a tensor grid xs x ys through a float32 filter: the squared torus distances
split into per-axis terms that each grid line computes once, each site's
outer sum of its terms is one float32 BLAS product (exact up to the one
rounding of each sum), and the float32 minimum of each phase over its sites
decides every point whose lowest phase beats the others by a margin 4x the
float32 rounding error.  The few
undecided points (ties and near-ties across phases) take `phase_at`'s exact
pass, so both give the same phase at every point.  Randomness comes from a
counter-based Philox generator keyed by (seed, stream), with point positions
and marks on separate streams so they stay independent.
"""

import copy

import numpy as np

from .errors import ConfigError, DegenerateRealizationError, as_array, \
    as_index, as_real

_PERIODIC_KINDS = ("periodic_texture", "checkerboard")
_KINDS = _PERIODIC_KINDS + ("poisson_voronoi",)

# Entries per pass: float64 distances (queries x sites) in _nearest, float32
# sums (sites x grid points) in _phase_min.  Large enough that numpy's
# per-call overhead is small, small enough that a pass takes at most half a
# MB.
_ENTRIES = 16 * 4096

# The float32 filter of _grid_phases decides a point when its lowest phase
# minimum lies more than this below every other one, in units of L^2.  Sites
# and wrapped queries lie in [0, L]^2, so each per-axis term is at most 1/4
# and each sum at most 1/2: the roundings to float32 of the two terms and of
# their sum move a float32 sum at most 2^-24 (1/4 + 1/4 + 1/2) from the
# float64 d^2 / L^2, and this margin is 4x the error of a difference of two
# sums.
_MARGIN = 8 * 2.0 ** -24


def _rng(seed, stream):
    """Philox generator on an independent stream of the given seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


class MicrostructureModel:
    """Description of the medium (no randomness drawn yet).

    Args:
        kind: one of periodic_texture | checkerboard | poisson_voronoi.
        phase_count: number of phases (periodic kinds: 1 or 2).
        period_hint: texture period / tile side for periodic kinds; > 0.
        intensity: mean points per unit area (poisson_voronoi); > 0.
        mark_distribution: per-phase mark probabilities for poisson_voronoi
            (length phase_count); defaults to uniform.
        resample_on_empty: retry (with fresh streams) when a Poisson draw
            returns zero points instead of raising.
    """

    def __init__(self, kind, phase_count=2, period_hint=1.0, intensity=None,
                 mark_distribution=None, resample_on_empty=False):
        if kind not in _KINDS:
            raise ConfigError("model.kind must be one of %s, got %r" % (_KINDS, kind))
        self.kind = kind
        self.phase_count = as_index(phase_count, "model.phase_count", low=1)
        if not isinstance(resample_on_empty, (bool, np.bool_)):
            raise ConfigError("model.resample_on_empty must be true or false, "
                              "got %r" % (resample_on_empty,))
        self.resample_on_empty = bool(resample_on_empty)

        self.period_hint = as_real(period_hint, "model.period_hint", 0)
        self.intensity = as_real(intensity, "model.intensity", 0) \
            if intensity is not None or kind not in _PERIODIC_KINDS else None
        self.mark_distribution = None
        if kind in _PERIODIC_KINDS and self.phase_count > 2:
            raise ConfigError("model.phase_count: periodic textures ship with "
                              "at most 2 phases")
        if kind == "poisson_voronoi":
            if mark_distribution is None:
                mark_distribution = [1.0 / self.phase_count] * self.phase_count
            probs = as_array(mark_distribution, "model.mark_distribution",
                             (self.phase_count,))
            if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-12:
                raise ConfigError("model.mark_distribution: probabilities must be "
                                  "nonnegative and sum to 1")
            self.mark_distribution = [float(p) for p in probs]

    def phase_ids(self):
        return list(range(self.phase_count))

    def to_dict(self):
        d = {"kind": self.kind, "phase_count": self.phase_count}
        if self.kind in _PERIODIC_KINDS:
            d["period_hint"] = self.period_hint
        else:
            d["intensity"] = self.intensity
            d["mark_distribution"] = list(self.mark_distribution)
            d["resample_on_empty"] = self.resample_on_empty
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


class PhaseGrid:
    """Phase ids sampled at the n1 x n2 element centers of the box (x3-constant)."""

    def __init__(self, n1, n2, box_side, cell_phase):
        self.n1 = as_index(n1, "PhaseGrid.n1")
        self.n2 = as_index(n2, "PhaseGrid.n2")
        self.box_side = as_real(box_side, "PhaseGrid.box_side", 0)
        cell_phase = as_array(cell_phase, "PhaseGrid.cell_phase",
                              (self.n1, self.n2), integer=True)
        if (cell_phase < 0).any():
            raise ConfigError("PhaseGrid.cell_phase ids must be >= 0")
        self.cell_phase = cell_phase

    def phase_ids(self):
        return np.unique(self.cell_phase).tolist()


# ---------------------------------------------------------------------------
# Nearest-site lookup on the torus
# ---------------------------------------------------------------------------

def _wrapped_sq(d, L):
    """In place: d = min(|d|, L - |d|)^2, the wrapped axis term of d^2."""
    np.abs(d, out=d)
    np.minimum(d, L - d, out=d)
    d *= d
    return d


def _nearest(r, qx, qy):
    """Indices of the sites of r nearest to the wrapped query points
    (qx[m], qy[m]): the exact per-point pass of phase_at, and of the points
    that _grid_phases leaves undecided.

    Each query takes one float64 pass over all sites in r's (x, y, index)
    order, so the first minimum of d^2 = wrapped_sq(dx) + wrapped_sq(dy) is
    the tie rule.  Each pass holds at most _ENTRIES distances, or one query
    if that is more.
    """
    order, L = r._order, r.box_side
    px, py = r.points[order, 0], r.points[order, 1]
    k = np.empty(len(qx), dtype=np.int64)
    step = max(1, _ENTRIES // len(order))
    for s in range(0, len(qx), step):
        d2 = _wrapped_sq(qx[s:s + step, None] - px, L)
        d2 += _wrapped_sq(qy[s:s + step, None] - py, L)
        k[s:s + step] = np.argmin(d2, axis=1)
    return order[k]


def _phase_min(u, v):
    """min over sites k of the outer sums tx_k[:, None] + ty_k in float32,
    each computed as the BLAS product u[k].T @ v[k] of the factors
    u[k] = [tx_k; 1] (2, rows) and v[k] = [1; ty_k] (2, cols).

    Both products by 1 are exact, so every entry is the float32 rounding of
    tx + ty: the value of a plain add, whatever the order or FMA use of the
    BLAS kernel.  Passes hold at most _ENTRIES entries (one site and one grid
    line if that is more).  Each pass takes one batched product over its
    sites, reduced over the site axis and folded into the running minimum in
    place; a single site's product is folded as it is.
    """
    sites, rows, cols = len(u), u.shape[2], v.shape[2]
    ks = max(1, min(sites, _ENTRIES // max(cols, 1)))
    kr = max(1, _ENTRIES // (ks * max(cols, 1)))
    u = u.swapaxes(1, 2)
    out = np.empty((rows, cols), dtype=np.float32)
    buf = np.empty((ks, min(kr, rows), cols), dtype=np.float32)
    for i in range(0, rows, kr):
        o = out[i:i + kr]
        for s in range(0, sites, ks):
            p = np.matmul(u[s:s + ks, i:i + kr], v[s:s + ks],
                          out=buf[:min(ks, sites - s), :len(o)])
            if s == 0:
                np.minimum.reduce(p, axis=0, out=o)
            else:
                np.minimum(o, p[0] if len(p) == 1
                           else np.minimum.reduce(p, axis=0), out=o)
    return out


def _grid_phases(r, qx, qy):
    """Phases (len(qx), len(qy)) of the tensor grid qx x qy of wrapped
    queries: the marks of their nearest sites, as _nearest finds them.

    The squared torus distance splits into per-axis terms, computed in
    float64 as _nearest computes them, scaled by 1/L^2 and rounded to
    float32 into the factors of _phase_min.  Each phase's float32 minimum
    over its sites decides the points whose lowest phase minimum lies more
    than _MARGIN below every other phase's; the rest (ties and near-ties
    across phases) take the exact per-point pass of _nearest.
    """
    L = r.box_side
    scale = (1.0 / L) ** 2
    sx, sy = r._by_phase
    u = np.ones((len(sx), 2, len(qx)), dtype=np.float32)
    u[:, 0] = _wrapped_sq(sx - qx, L) * scale
    v = np.ones((len(sy), 2, len(qy)), dtype=np.float32)
    v[:, 1] = _wrapped_sq(sy - qy, L) * scale
    # the lowest phase minimum so far, its phase, and the lowest minimum of
    # the other phases
    low = second = None
    start = 0
    for p, count in enumerate(np.bincount(r.marks).tolist()):
        if not count:
            continue
        m = _phase_min(u[start:start + count], v[start:start + count])
        start += count
        if low is None:
            low, phase = m, p
            continue
        phase = np.where(m < low, p, phase)
        high = np.maximum(low, m)
        second = high if second is None else np.minimum(second, high,
                                                        out=second)
        np.minimum(low, m, out=low)
    if second is None:
        return np.full(low.shape, phase, dtype=np.int64)
    second -= low
    # nan: undecided too; flat indices, since a 2-D nonzero takes 10x longer
    k = np.flatnonzero(~(second > _MARGIN))
    if len(k):
        i, j = np.unravel_index(k, phase.shape)
        phase[i, j] = r.marks[_nearest(r, qx[i], qy[j])]
    return phase


# ---------------------------------------------------------------------------
# Realizations
# ---------------------------------------------------------------------------

class MicrostructureRealization:
    """A frozen sample of the medium, queried through `phase_at`,
    `phase_grid`, `shift` and `rasterize`."""

    def __init__(self, model, seed, box_side, points=None, marks=None,
                 offset=(0.0, 0.0), stream_base=0):
        self.model = model
        self.seed = as_index(seed, "realization seed", low=0)
        self.box_side = as_real(box_side, "realization box_side", 0)
        self.offset = as_array(offset, "realization offset", (2,)).copy()
        self.stream_base = as_index(stream_base, "realization stream_base",
                                    low=0)
        # a periodic kind's box holds a whole, nonzero number of periods,
        # and an even number of two-phase checkerboard tiles
        ratio = self.box_side / model.period_hint
        periodic = model.kind in _PERIODIC_KINDS
        if periodic and abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ConfigError(
                "box_side=%g is not an integer multiple of period_hint=%g; the "
                "periodized texture would be discontinuous at the box seam"
                % (self.box_side, model.period_hint))
        if periodic and round(ratio) < 1:
            raise ConfigError(
                "box_side=%g holds no whole period of period_hint=%g; a "
                "periodic medium needs at least one" % (self.box_side,
                                                        model.period_hint))
        if periodic and model.kind == "checkerboard" \
                and model.phase_count == 2 and int(round(ratio)) % 2 != 0:
            raise ConfigError(
                "checkerboard needs box_side an EVEN multiple of period_hint "
                "(the pattern period is two tiles); got box_side/period_hint=%g"
                % ratio)
        # site indices in (x, y, index) order, and the site coordinates
        # grouped by mark, each group in (x, y, index) order, as an
        # (axis, site, 1) array; read-only, shifts share them
        self.points = self.marks = self._order = self._by_phase = None
        if points is None:
            if model.kind == "poisson_voronoi":
                raise ConfigError("realization points: a poisson_voronoi "
                                  "realization needs its sites")
        else:
            self.points = as_array(points, "realization points", (None, 2))
            if not len(self.points) or self.points.min() < 0 \
                    or self.points.max() > self.box_side:
                raise ConfigError("realization points must be one or more "
                                  "sites in [0, %g]^2" % self.box_side)
            self.marks = as_array(marks, "realization marks",
                                  (len(self.points),), integer=True)
            if self.marks.min() < 0 or self.marks.max() >= model.phase_count:
                raise ConfigError("realization marks must lie in [0, %d)"
                                  % model.phase_count)
            self._order = np.lexsort((self.points[:, 1], self.points[:, 0]))
            grouped = np.lexsort((self.points[:, 1], self.points[:, 0],
                                  self.marks))
            self._by_phase = self.points.take(grouped, axis=0).T[:, :, None]
            self._order.flags.writeable = False
            self._by_phase.flags.writeable = False


def sample_realization(model, seed, box_side):
    """Draw a realization of the model on the periodic box [0, box_side)^2.

    Periodic kinds are deterministic (the seed is recorded but unused).  The
    Voronoi kind draws the point count, positions, and marks from independent
    Philox streams; a zero-point draw raises unless the model requests
    resampling, in which case fresh streams are used.
    """
    seed = as_index(seed, "sample_realization: seed", low=0)
    box_side = as_real(box_side, "sample_realization: box_side", 0)
    if model.kind in _PERIODIC_KINDS:
        return MicrostructureRealization(model, seed, box_side)

    # poisson_voronoi
    attempt = 0
    while True:
        rng_pos = _rng(seed, 2 * attempt)
        n = int(rng_pos.poisson(model.intensity * box_side * box_side))
        if n > 0:
            break
        if not model.resample_on_empty:
            raise DegenerateRealizationError(
                "Poisson draw returned zero points (seed=%d, intensity=%g, L=%g); "
                "set resample_on_empty to retry on fresh streams"
                % (seed, model.intensity, box_side))
        attempt += 1
        if attempt > 64:
            raise DegenerateRealizationError(
                "Poisson draw empty after 64 resampling attempts")
    points = rng_pos.random((n, 2)) * box_side
    rng_mark = _rng(seed, 2 * attempt + 1)
    cum = np.cumsum(model.mark_distribution)
    u = rng_mark.random(n)
    marks = np.minimum(np.searchsorted(cum, u, side="right"),
                       model.phase_count - 1).astype(np.int64)
    return MicrostructureRealization(model, seed, box_side, points=points,
                                     marks=marks, stream_base=2 * attempt)


def phase_at(r, x):
    """Phase id at a point (2,) or points (M, 2); wraps into the periodic box.

    Raises:
        ConfigError: x is not a finite numeric array of those shapes.
    """
    x = as_array(x, "phase_at: x")
    if x.ndim not in (1, 2) or x.shape[-1] != 2:
        raise ConfigError("phase_at: x must have shape (2) or (n, 2), got %s"
                          % (x.shape,))
    scalar = x.ndim == 1
    q = np.atleast_2d(x) + r.offset
    L = r.box_side
    model = r.model
    if model.kind in _PERIODIC_KINDS:
        if model.phase_count == 1:
            out = np.zeros(len(q), dtype=np.int64)
        elif model.kind == "periodic_texture":
            p = model.period_hint
            halves = int(round(L / p)) * 2
            i = np.floor(q[:, 0] * (2.0 / p)).astype(np.int64) % halves
            out = i % 2
        else:  # checkerboard
            t = model.period_hint
            tiles = int(round(L / t))
            i = np.floor(q[:, 0] / t).astype(np.int64) % tiles
            j = np.floor(q[:, 1] / t).astype(np.int64) % tiles
            out = (i + j) % 2
    else:
        qw = np.mod(q, L)
        out = r.marks[_nearest(r, qw[:, 0], qw[:, 1])]
    return int(out[0]) if scalar else out


def shift(r, x):
    """Translation action: the result's phase map is phase_at(r, . + x)."""
    s = copy.copy(r)    # shares the immutable points, marks and site order
    s.offset = r.offset + as_array(x, "shift: x", (2,))
    return s


def _tensor_points(xs, ys):
    """(len(xs) * len(ys), 2) points of the tensor grid, xs varying slowest."""
    pts = np.empty((len(xs), len(ys), 2))
    pts[:, :, 0] = xs[:, None]
    pts[:, :, 1] = ys
    return pts.reshape(-1, 2)


def phase_grid(r, xs, ys):
    """Phase ids (len(xs), len(ys)) on the tensor grid xs x ys; point for point
    equal to phase_at(r, _tensor_points(xs, ys)), without building the points.

    A Voronoi grid is decided by the float32 per-phase minima of
    _grid_phases; only its undecided points take phase_at's exact pass.

    Raises:
        ConfigError: xs or ys is not a finite 1-D numeric array.
    """
    xs = as_array(xs, "phase_grid: xs", (None,))
    ys = as_array(ys, "phase_grid: ys", (None,))
    if r.model.kind in _PERIODIC_KINDS:
        return phase_at(r, _tensor_points(xs, ys)).reshape(len(xs), len(ys))
    L = r.box_side
    return _grid_phases(r, np.mod(xs + r.offset[0], L),
                        np.mod(ys + r.offset[1], L))


def rasterize(r, n1, n2):
    """Phase ids at element centers ((i+1/2) L/n1, (j+1/2) L/n2)."""
    n1 = as_index(n1, "rasterize: n1", low=1)
    n2 = as_index(n2, "rasterize: n2", low=1)
    L = r.box_side
    cx = (np.arange(n1) + 0.5) * (L / n1)
    cy = (np.arange(n2) + 0.5) * (L / n2)
    return PhaseGrid(n1, n2, L, phase_grid(r, cx, cy))
