"""Random-medium sampling: determinism, shifts, tie-breaks, mark statistics."""

import json
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from platecell import (
    ConfigError,
    DegenerateRealizationError,
    MicrostructureModel,
    MicrostructureRealization,
    phase_at,
    phase_grid,
    rasterize,
    sample_realization,
    shift,
)
from platecell import microstructure
from platecell.microstructure import _tensor_points
from oracles import brute_nearest, pooled_binomial_std

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def voronoi_model(intensity=50.0, probs=None, phases=2, resample=False):
    return MicrostructureModel("poisson_voronoi", phase_count=phases,
                               intensity=intensity, mark_distribution=probs,
                               resample_on_empty=resample)


# ---------------------------------------------------------------------------
# Model validation
# ---------------------------------------------------------------------------

def test_model_rejects_bad_kind():
    with pytest.raises(ConfigError):
        MicrostructureModel("brick_wall")
    # fields are checked, not coerced: 1.5 phases is not one phase
    for kwargs in ({"phase_count": 1.5}, {"phase_count": "2"},
                   {"phase_count": True}, {"resample_on_empty": "no"},
                   {"resample_on_empty": 1}):
        with pytest.raises(ConfigError):
            MicrostructureModel("checkerboard", **kwargs)


def test_model_rejects_bad_probabilities():
    with pytest.raises(ConfigError):
        voronoi_model(probs=[0.5, 0.6])
    with pytest.raises(ConfigError):
        voronoi_model(probs=[1.2, -0.2])
    with pytest.raises(ConfigError):
        voronoi_model(probs=[0.2, 0.3, 0.5])  # wrong length for 2 phases


def test_model_rejects_missing_intensity():
    with pytest.raises(ConfigError):
        MicrostructureModel("poisson_voronoi", intensity=None)


def test_model_dict_round_trip():
    m = voronoi_model(intensity=7.5, probs=[0.3, 0.7])
    back = MicrostructureModel.from_dict(m.to_dict())
    assert back.kind == m.kind
    assert back.intensity == 7.5
    assert back.mark_distribution == [0.3, 0.7]
    m2 = MicrostructureModel("checkerboard", period_hint=0.5)
    assert MicrostructureModel.from_dict(m2.to_dict()).period_hint == 0.5


# ---------------------------------------------------------------------------
# Periodic textures
# ---------------------------------------------------------------------------

def test_checkerboard_2x2_tiling():
    model = MicrostructureModel("checkerboard", period_hint=1.0)
    r = sample_realization(model, 0, 2.0)
    pg = rasterize(r, 2, 2)
    npt.assert_array_equal(pg.cell_phase, [[0, 1], [1, 0]])


def test_single_phase_grid_is_constant():
    model = MicrostructureModel("checkerboard", phase_count=1, period_hint=1.0)
    r = sample_realization(model, 0, 2.0)
    assert np.all(rasterize(r, 5, 3).cell_phase == 0)


def test_stripes_alternate_in_x1_only():
    model = MicrostructureModel("periodic_texture", period_hint=1.0)
    r = sample_realization(model, 0, 2.0)
    pg = rasterize(r, 8, 4)
    # stripe width is half a period: 2 elements per stripe at n1=8, L=2
    npt.assert_array_equal(pg.cell_phase[:, 0], [0, 0, 1, 1, 0, 0, 1, 1])
    for j in range(4):
        npt.assert_array_equal(pg.cell_phase[:, j], pg.cell_phase[:, 0])


def test_noncommensurate_box_rejected():
    model = MicrostructureModel("periodic_texture", period_hint=1.0)
    with pytest.raises(ConfigError):
        sample_realization(model, 0, 2.5)


def test_checkerboard_needs_even_multiple():
    model = MicrostructureModel("checkerboard", period_hint=1.0)
    with pytest.raises(ConfigError):
        sample_realization(model, 0, 3.0)  # odd multiple breaks the seam
    sample_realization(model, 0, 4.0)      # even multiple is fine


@pytest.mark.parametrize("kind", ["checkerboard", "periodic_texture"])
def test_box_holding_no_period_rejected(kind):
    # box_side / period_hint = 2e-10 lies within 1e-9 of the integer 0, so the
    # commensurability check passed, and phase_at took every index modulo 0
    model = MicrostructureModel(kind, period_hint=0.5)
    with pytest.raises(ConfigError, match="holds no whole period"):
        sample_realization(model, 0, 1e-10)
    sample_realization(model, 0, 1.0)


@pytest.mark.parametrize("box_side, message", [
    (1e-10, "holds no whole period"),     # phase_at would divide by zero
    (1.5, "EVEN multiple"),               # three tiles: a broken seam
])
def test_direct_realization_checks_its_box(box_side, message):
    # the periodic-box checks belong to the realization itself, so one built
    # without sample_realization is refused the same way
    model = MicrostructureModel("checkerboard", period_hint=0.5)
    with pytest.raises(ConfigError, match=message):
        MicrostructureRealization(model, 0, box_side)
    MicrostructureRealization(model, 0, 1.0)


def test_periodicity_of_phase_map():
    model = MicrostructureModel("checkerboard", period_hint=0.5)
    r = sample_realization(model, 3, 2.0)
    rng = np.random.default_rng(8)
    pts = rng.random((40, 2)) * 2.0
    base = phase_at(r, pts)
    for (k, m) in [(1, 0), (0, 1), (-2, 3)]:
        npt.assert_array_equal(phase_at(r, pts + np.array([k, m]) * 2.0), base)


# ---------------------------------------------------------------------------
# Poisson-Voronoi sampling
# ---------------------------------------------------------------------------

def test_poisson_determinism():
    model = voronoi_model(intensity=100.0)
    a = sample_realization(model, 42, 1.0)
    b = sample_realization(model, 42, 1.0)
    assert a.points.shape == b.points.shape
    npt.assert_array_equal(a.points, b.points)
    npt.assert_array_equal(a.marks, b.marks)
    c = sample_realization(model, 43, 1.0)
    assert c.points.shape != a.points.shape or not np.array_equal(c.points, a.points)


def test_points_inside_box():
    r = sample_realization(voronoi_model(intensity=200.0), 7, 2.0)
    assert np.all(r.points >= 0.0) and np.all(r.points < 2.0)


def test_single_point_owns_everything():
    model = voronoi_model()
    r = MicrostructureRealization(model, 0, 1.0,
                                  points=[[0.3, 0.4]], marks=[1])
    rng = np.random.default_rng(9)
    assert np.all(phase_at(r, rng.random((25, 2))) == 1)


def test_query_at_point_location():
    model = voronoi_model()
    pts = [[0.2, 0.2], [0.8, 0.7]]
    r = MicrostructureRealization(model, 0, 1.0, points=pts, marks=[0, 1])
    assert phase_at(r, [0.2, 0.2]) == 0
    assert phase_at(r, [0.8, 0.7]) == 1


def test_equidistant_tie_breaks_lexicographically():
    model = voronoi_model()
    r = MicrostructureRealization(model, 0, 1.0,
                                  points=[[0.75, 0.5], [0.25, 0.5]],
                                  marks=[1, 0])
    # (0.5, 0.5) is 0.25 from both; lexicographically smaller is (0.25, 0.5)
    assert phase_at(r, [0.5, 0.5]) == 0
    # (0.0, 0.5) ties again through the wrap: 0.25 direct vs 0.25 wrapped
    assert phase_at(r, [0.0, 0.5]) == 0
    # sites 14 and 15 coincide, and the lower index wins, both near them at
    # (3, 3) and at (7.5, 7.5), far from every site
    npt.assert_array_equal(phase_at(_twin_sites(), [[3.0, 3.0], [7.5, 7.5]]),
                           [14, 14])


def test_rasterize_matches_brute_force():
    r = sample_realization(voronoi_model(intensity=60.0), 11, 1.0)
    pg = rasterize(r, 32, 32)
    L = 1.0
    for i in range(0, 32, 5):
        for j in range(0, 32, 3):
            center = ((i + 0.5) * L / 32, (j + 0.5) * L / 32)
            k = brute_nearest(r.points, L, center)
            assert pg.cell_phase[i, j] == r.marks[k]


def test_rasterize_matches_phase_at_on_centers():
    checker = sample_realization(
        MicrostructureModel("checkerboard", period_hint=0.5), 0, 2.0)
    voronoi = shift(sample_realization(voronoi_model(intensity=20.0), 7, 2.0),
                    (0.4, -2.3))
    cx = (np.arange(13) + 0.5) * (2.0 / 13)
    cy = (np.arange(10) + 0.5) * (2.0 / 10)
    for r in (checker, voronoi):
        want = phase_at(r, _tensor_points(cx, cy)).reshape(13, 10)
        npt.assert_array_equal(rasterize(r, 13, 10).cell_phase, want)


def _index_marks(r):
    """r with its marks set to the site indices, one phase per site, so that
    a wrong site with the right mark cannot pass."""
    return MicrostructureRealization(voronoi_model(phases=len(r.points)),
                                     r.seed, r.box_side,
                                     points=r.points,
                                     marks=np.arange(len(r.points)),
                                     offset=r.offset)


def _lattice(alternating=False, nudge=0.0):
    """A 6 x 6 unit lattice on a box of side 6; queries at half-integers
    tie 2 or 4 ways, some of them only through the wrap (x = 5.5 is 0.5 from
    the sites at 5 and at 0).  The sites are listed in reverse so that index
    order breaks no tie.  `alternating` marks them like a checkerboard, so
    the ties are across phases; `nudge` moves each site by a seeded normal
    step of that size, wrapped into the box."""
    grid = np.arange(6.0)
    lattice = np.stack(np.meshgrid(grid, grid, indexing="ij"),
                       -1).reshape(-1, 2)[::-1]
    marks = lattice.sum(axis=1).astype(np.int64) % 2 if alternating \
        else np.zeros(36, dtype=np.int64)
    lattice = np.mod(lattice + nudge * np.random.default_rng(2).normal(
        size=lattice.shape), 6.0)
    return MicrostructureRealization(voronoi_model(), 0, 6.0, points=lattice,
                                     marks=marks)


def _twin_sites():
    """14 sites in [0, 1)^2 and two coincident ones at (1.5, 1.5) on a box of
    side 16, marked by index."""
    pts = np.vstack([np.random.default_rng(3).random((14, 2)),
                     [[1.5, 1.5], [1.5, 1.5]]])
    return MicrostructureRealization(voronoi_model(phases=16), 0, 16.0,
                                     points=pts, marks=np.arange(16))


def _assert_sites_match_brute_force(r, queries):
    """phase_at's site for every query is the oracle's, index for index."""
    r = _index_marks(r)
    wrapped = np.mod(queries + r.offset, r.box_side)
    want = [brute_nearest(r.points, r.box_side, q) for q in wrapped]
    npt.assert_array_equal(phase_at(r, queries), want)


def test_phase_at_brute_force_random_queries():
    r = sample_realization(voronoi_model(intensity=40.0), 13, 2.0)
    rng = np.random.default_rng(10)
    queries = rng.random((200, 2)) * 2.0
    got = phase_at(r, queries)
    want = [r.marks[brute_nearest(r.points, 2.0, q)] for q in queries]
    npt.assert_array_equal(got, want)
    model = voronoi_model()

    half = np.arange(12) * 0.5
    _assert_sites_match_brute_force(_lattice(), _tensor_points(half, half))

    # few sites: 1 to 9 on a box of side 3
    for n in (1, 2, 5, 9):
        pts = rng.random((n, 2)) * 3.0
        _assert_sites_match_brute_force(
            MicrostructureRealization(model, 0, 3.0, points=pts,
                                      marks=np.zeros(n, dtype=np.int64)),
            rng.random((300, 2)) * 3.0)

    # dense: about 750 sites
    r = sample_realization(voronoi_model(intensity=47.0), 5, 4.0)
    assert 700 <= len(r.points) <= 800
    _assert_sites_match_brute_force(r, rng.random((20000, 2)) * 4.0)

    # clustered in one quadrant of a 16 x 16 box: the far queries lie more
    # than L / 8 from every site
    pts = rng.random((64, 2)) * 8.0
    queries = rng.random((2000, 2)) * 16.0
    d = np.abs(queries[:, None, :] - pts)
    d = np.minimum(d, 16.0 - d)
    assert np.sqrt((d * d).sum(axis=2).min(axis=1).max()) > 16.0 / 8
    _assert_sites_match_brute_force(
        MicrostructureRealization(model, 0, 16.0, points=pts,
                                  marks=np.zeros(64, dtype=np.int64)), queries)

    # a shifted realization, queried outside the box too
    r = sample_realization(voronoi_model(intensity=40.0), 29, 2.0)
    _assert_sites_match_brute_force(shift(r, (0.73, -1.91)),
                                    rng.random((500, 2)) * 6.0 - 3.0)


@pytest.mark.parametrize("block", [4096, 7])
def test_phase_grid_matches_phase_at(monkeypatch, block):
    """phase_grid's site at every grid point is phase_at's, index for index,
    on the media of test_phase_at_brute_force_random_queries and on twin
    sites; _ENTRIES of 7 makes every pass one site and one grid line, so
    pass edges fall between all of them.  Media whose own marks are checked
    too test the float32 filter across phases: cross-phase ties, near-ties
    that float32 sums put in the wrong order, a large box and three
    phases."""
    monkeypatch.setattr(microstructure, "_ENTRIES", block)
    rng = np.random.default_rng(14)
    model = voronoi_model()

    def check(r, xs, ys, own_marks=False):
        for r in (_index_marks(r), r) if own_marks else (_index_marks(r),):
            got = phase_grid(r, xs, ys)
            assert got.shape == (len(xs), len(ys))
            npt.assert_array_equal(got.reshape(-1),
                                   phase_at(r, _tensor_points(xs, ys)))

    half = np.arange(12) * 0.5
    check(_lattice(), half, half)
    check(_lattice(), half, half[:0])
    check(_lattice(alternating=True), half, half, own_marks=True)
    # sites moved by about 1e-8: float32 sums order some near-ties wrongly,
    # so the filter must leave them to the exact pass
    nudged = _lattice(alternating=True, nudge=1e-8)
    check(nudged, half, half, own_marks=True)
    with monkeypatch.context() as m:
        m.setattr(microstructure, "_MARGIN", 0.0)
        assert (phase_grid(nudged, half, half).reshape(-1)
                != phase_at(nudged, _tensor_points(half, half))).any()
    check(_twin_sites(), np.array([3.0, 7.5, 3.0]), np.array([7.5, 3.0]))
    for n in (1, 2, 5, 9):          # few sites
        pts = rng.random((n, 2)) * 3.0
        check(MicrostructureRealization(model, 0, 3.0, points=pts,
                                        marks=np.zeros(n, dtype=np.int64)),
              rng.random(31) * 3.0, rng.random(5) * 3.0)
    r = sample_realization(voronoi_model(intensity=47.0), 5, 4.0)
    assert 700 <= len(r.points) <= 800
    check(r, rng.random(90) * 4.0, rng.random(110) * 4.0)

    # clustered in one quadrant: some grid points lie more than L / 8 from
    # every site
    pts = rng.random((64, 2)) * 8.0
    xs, ys = rng.random(40) * 16.0, rng.random(40) * 16.0
    d = np.abs(_tensor_points(xs, ys)[:, None, :] - pts)
    d = np.minimum(d, 16.0 - d)
    assert np.sqrt((d * d).sum(axis=2).min(axis=1).max()) > 16.0 / 8
    check(MicrostructureRealization(model, 0, 16.0, points=pts,
                                    marks=np.zeros(64, dtype=np.int64)), xs, ys)

    r = sample_realization(voronoi_model(intensity=40.0), 29, 2.0)
    check(shift(r, (0.73, -1.91)), rng.random(25) * 6.0 - 3.0,
          rng.random(35) * 6.0 - 3.0)

    # a large box, and three phases
    r = sample_realization(voronoi_model(intensity=1e-4), 3, 1000.0)
    check(r, rng.random(60) * 1000.0, rng.random(70) * 1000.0,
          own_marks=True)
    r = sample_realization(voronoi_model(intensity=40.0, phases=3), 8, 2.0)
    assert set(r.marks.tolist()) == {0, 1, 2}
    check(r, rng.random(80) * 2.0, rng.random(90) * 2.0, own_marks=True)


@pytest.mark.parametrize("sites,rows,cols,block", [
    (9, 37, 23, 30),            # one site and one grid line per pass
    (9, 37, 23, 460),           # all sites, two grid lines per pass
    (9, 37, 23, 100),           # passes of 4, 4 and 1 sites
    (9, 16, 16, 4096),          # the whole grid in one pass
    (1, 290, 213, 16 * 4096),   # a single site, in one pass
    (4, 0, 23, 4096),           # no rows
    (4, 37, 0, 4096),           # no columns
])
def test_phase_min_is_the_plain_outer_sum_minimum(monkeypatch, sites, rows,
                                                  cols, block):
    """The BLAS products u[k].T @ v[k] of _phase_min give the float32 outer
    sums bit for bit: both products by 1 are exact, so each entry is one
    rounding of tx + ty.  Terms of mixed binades make the roundings show."""
    monkeypatch.setattr(microstructure, "_ENTRIES", block)
    rng = np.random.default_rng(sites * 1000 + rows + cols + block)

    def table(n):
        scales = 2.0 ** rng.integers(-30, -1, (sites, n))
        return (rng.random((sites, n)) * scales).astype(np.float32)

    tx, ty = table(rows), table(cols)
    u = np.stack([tx, np.ones_like(tx)], axis=1)
    v = np.stack([np.ones_like(ty), ty], axis=1)
    want = (tx[:, :, None] + ty[:, None]).min(axis=0)
    got = microstructure._phase_min(u, v)
    assert got.dtype == np.float32 and got.shape == (rows, cols)
    assert got.tobytes() == want.tobytes()


def test_phase_grid_matches_phase_at_on_the_bench_grid():
    """At the default _ENTRIES, on the finest (290 x 213) Birkhoff grid of
    the ensemble benchmark: scale 1/32, step 1/256 and a 1.13 x 0.83 window,
    on media of the shipped Voronoi model (intensity 1, L = 4)."""
    model = MicrostructureModel.from_dict(json.loads(
        (CONFIGS / "voronoi_contrast4.json").read_text())["model"])
    e, h = 1.0 / 32, 1.0 / 256
    for seed, (x0, y0) in enumerate([(0.3, 0.2), (1.7, 0.9), (0.05, 1.95)]):
        r = sample_realization(model, seed, 4.0)
        xs = x0 + (np.arange(290) + 0.5) * (1.13 / 290)
        ys = y0 + (np.arange(213) + 0.5) * (0.83 / 213)
        assert np.ceil(1.13 / h) == 290 and np.ceil(0.83 / h) == 213
        got = phase_grid(r, xs / e, ys / e)
        npt.assert_array_equal(got.reshape(-1),
                               phase_at(r, _tensor_points(xs / e, ys / e)))


@pytest.mark.parametrize("bad", [0.7, True, "3", None, -1])
@pytest.mark.parametrize("kind", ["checkerboard", "poisson_voronoi"])
def test_sample_realization_reads_seed_strictly(kind, bad):
    # 0.7 does not draw seed 0, True not seed 1, and -1 is refused for every
    # kind alike
    model = MicrostructureModel(kind, period_hint=0.5) \
        if kind == "checkerboard" else voronoi_model()
    with pytest.raises(ConfigError, match="sample_realization: seed"):
        sample_realization(model, bad, 1.0)
    assert sample_realization(model, np.int64(3), 1.0).seed == 3


def test_zero_point_draw_raises_or_resamples():
    # mean count 1.5: empty draws occur for ~22% of seeds, retries succeed fast
    tiny = voronoi_model(intensity=1.5)
    found = None
    for seed in range(200):
        try:
            sample_realization(tiny, seed, 1.0)
        except DegenerateRealizationError:
            found = seed
            break
    assert found is not None, "no empty draw in 200 seeds at mean count 1.5"
    relaxed = voronoi_model(intensity=1.5, resample=True)
    r = sample_realization(relaxed, found, 1.0)
    assert len(r.points) > 0
    assert r.stream_base > 0  # fresh streams were used


def test_mark_fraction_binomial():
    """Pooled mark fraction over 200 seeds stays inside [0.67, 0.73]."""
    model = voronoi_model(intensity=100.0, probs=[0.3, 0.7])
    total = 0
    hits = 0
    for seed in range(200):
        r = sample_realization(model, seed, 10.0)
        total += len(r.marks)
        hits += int(np.sum(r.marks == 1))
    frac = hits / total
    assert 0.67 <= frac <= 0.73
    # and much tighter: within 3 pooled binomial standard deviations
    assert abs(frac - 0.7) <= 3 * pooled_binomial_std(0.7, total)


# ---------------------------------------------------------------------------
# Shift group action
# ---------------------------------------------------------------------------

def test_shift_zero_and_period_are_identity():
    r = sample_realization(voronoi_model(intensity=30.0), 17, 1.0)
    rng = np.random.default_rng(11)
    pts = rng.random((50, 2))
    npt.assert_array_equal(phase_at(shift(r, (0.0, 0.0)), pts), phase_at(r, pts))
    npt.assert_array_equal(phase_at(shift(r, (1.0, 0.0)), pts), phase_at(r, pts))


def test_shift_group_law():
    r = sample_realization(voronoi_model(intensity=30.0), 19, 1.0)
    rng = np.random.default_rng(12)
    pts = rng.random((50, 2))
    x = np.array([0.37, -0.81])
    y = np.array([1.44, 0.06])
    lhs = phase_at(shift(shift(r, x), y), pts)
    rhs = phase_at(shift(r, x + y), pts)
    npt.assert_array_equal(lhs, rhs)


def test_shift_matches_translated_queries():
    r = sample_realization(voronoi_model(intensity=30.0), 23, 1.0)
    rng = np.random.default_rng(13)
    pts = rng.random((50, 2))
    x = np.array([0.21, 0.55])
    npt.assert_array_equal(phase_at(shift(r, x), pts), phase_at(r, pts + x))
    # the shift shares the realization's read-only (x, y, index) site order
    # and its read-only grouping of the sites by mark
    s = shift(r, x)
    assert s._order is r._order and not r._order.flags.writeable
    assert s._by_phase is r._by_phase and not r._by_phase.flags.writeable
    xs, ys = rng.random(7), rng.random(9)
    npt.assert_array_equal(phase_grid(s, xs, ys),
                           phase_grid(r, xs + x[0], ys + x[1]))


def test_stationarity_histogram():
    """Phase-1 frequency is shift-invariant across >= 100 seeds."""
    model = voronoi_model(intensity=50.0)
    x = np.array([0.37, 1.21])
    n = 16
    base = mov = 0
    cells = 0
    for seed in range(100):
        r = sample_realization(model, seed, 4.0)
        base += int(np.sum(rasterize(r, n, n).cell_phase == 1))
        mov += int(np.sum(rasterize(shift(r, x), n, n).cell_phase == 1))
        cells += n * n
    p = base / cells
    sd = pooled_binomial_std(max(p, 1e-3), cells)
    assert abs(base - mov) / cells <= 3 * sd


# ---------------------------------------------------------------------------
# PhaseGrid
# ---------------------------------------------------------------------------

def test_phase_grid_validation():
    from platecell import PhaseGrid
    with pytest.raises(ConfigError):
        PhaseGrid(2, 2, 1.0, np.zeros((3, 2), dtype=int))
    for n1 in (2.0, "2", True):
        with pytest.raises(ConfigError):
            PhaseGrid(n1, 2, 1.0, np.zeros((2, 2), dtype=int))
    pg = PhaseGrid(2, 3, 1.0, np.array([[0, 1, 0], [1, 0, 1]]))
    assert pg.phase_ids() == [0, 1]


@pytest.mark.parametrize("box_side", [-2.0, 0.0, -1.0, float("inf"),
                                      float("nan")])
def test_constructors_refuse_a_bad_box_side(box_side):
    from platecell import PhaseGrid
    with pytest.raises(ConfigError, match="box_side"):
        PhaseGrid(2, 2, box_side, np.zeros((2, 2), dtype=int))
    with pytest.raises(ConfigError, match="box_side"):
        MicrostructureRealization(voronoi_model(), 0, box_side,
                                  points=[[0.1, 0.2]], marks=[0])


def test_phase_grid_refuses_negative_phase_ids():
    from platecell import PhaseGrid
    with pytest.raises(ConfigError, match="cell_phase"):
        PhaseGrid(2, 2, 1.0, np.array([[0, 1], [-3, 0]]))


def test_rasterize_rejects_empty_grid():
    r = sample_realization(voronoi_model(intensity=30.0), 1, 1.0)
    with pytest.raises(ConfigError):
        rasterize(r, 0, 4)
    for n1, n2 in ((4.5, 4), (4, 4.0), ("4", 4)):
        with pytest.raises(ConfigError):
            rasterize(r, n1, n2)
