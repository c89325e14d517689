"""The shared slab mesh: reference tables, connectivity, scatter, lookup."""

import numpy as np
import numpy.testing as npt

from platecell import (
    BENDING,
    CellCorrectorSource,
    CellOperator,
    PhaseGrid,
    RVEGrid,
    material_table,
)
from platecell._mesh import GAUSS, N, dN, column_keys, locate, nodes, scatter

# reference-cube corners and Gauss points, both in the order ix + 2 iy + 4 iz
CORNERS = (np.arange(8)[:, None] >> np.arange(3)) & 1
POINTS = np.asarray(GAUSS)[CORNERS]


def test_partition_of_unity():
    npt.assert_allclose(N.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    npt.assert_allclose(dN.sum(axis=2), 0.0, rtol=0, atol=1e-15)


def test_tables_reproduce_linear_functions():
    a, c = np.array([0.3, -1.7, 2.9]), 0.6
    u = CORNERS @ a + c
    npt.assert_allclose(N @ u, POINTS @ a + c, rtol=0, atol=1e-14)
    npt.assert_allclose(dN @ u, np.tile(a, (8, 1)), rtol=0, atol=1e-14)


def test_gauss_rule_is_two_point():
    g0, g1 = GAUSS
    # symmetric about 1/2 and exact for cubics on [0, 1]
    npt.assert_allclose(g0 + g1, 1.0, rtol=1e-15)
    npt.assert_allclose((g0 ** 2 + g1 ** 2) / 2.0, 1.0 / 3.0, rtol=1e-15)
    npt.assert_allclose((g0 ** 3 + g1 ** 3) / 2.0, 0.25, rtol=1e-15)


def test_connectivity_wraps_in_plane_and_joins_adjacent_layers():
    n1, n2, n3 = 4, 6, 3
    conn = nodes(n1, n2, n3)
    assert conn.shape == (n1 * n2 * n3, 8)
    assert conn.min() == 0 and conn.max() == n1 * n2 * (n3 + 1) - 1
    col, layer = np.divmod(conn, n3 + 1)
    i, j = np.divmod(col, n2)
    e = np.arange(n1 * n2 * n3)
    ei, ej, ek = e // (n2 * n3), (e // n3) % n2, e % n3
    npt.assert_array_equal(i, (ei[:, None] + CORNERS[:, 0]) % n1)
    npt.assert_array_equal(j, (ej[:, None] + CORNERS[:, 1]) % n2)
    npt.assert_array_equal(layer, ek[:, None] + CORNERS[:, 2])
    # every node touches 4 columns, and 2 layers unless it is on a free end
    counts = np.bincount(conn.ravel()).reshape(n1 * n2, n3 + 1)
    npt.assert_array_equal(counts[:, [0, -1]], 4)
    npt.assert_array_equal(counts[:, 1:-1], 8)


def test_vector_dofs_match_the_cell_operator():
    # the operator keeps the element layers below the midplane (and the
    # straddling one of odd n3), with node layer k on slot min(k, n3 - k),
    # sorted stably by (phase, layer)
    n3, slots, layers = 3, 2, 2
    grid = RVEGrid(4, 6, n3, 1.3, 1.7)
    phases = PhaseGrid(4, 6, 1.7, np.arange(24).reshape(4, 6) % 2)
    op = CellOperator(grid, phases, material_table([(0, 1.0, 1.0),
                                                    (1, 4.0, 2.0)]), BENDING)
    col, k = np.divmod(nodes(4, 6, n3).reshape(24, n3, 8)[:, :layers], n3 + 1)
    slot = col * slots + np.minimum(k, n3 - k)
    edof = (3 * slot[..., None] + np.arange(3)).reshape(-1, 24)
    key = np.repeat(phases.cell_phase.ravel(), layers) * layers \
        + np.tile(np.arange(layers), 24)
    order = np.argsort(key, kind="stable")
    npt.assert_array_equal(op.table, edof[order].T)
    npt.assert_array_equal(op.bounds, [0, 12, 24, 36, 48])
    assert op.ndof == 3 * 24 * slots


def test_scatter_sums_every_entry_per_column():
    rng = np.random.default_rng(3)
    conn = nodes(4, 4, 2)
    n = 4 * 4 * 3
    values = rng.standard_normal((3,) + conn.shape)
    want = np.zeros((n, 3))
    for c in range(3):
        np.add.at(want[:, c], conn, values[c])
    got = scatter(column_keys(conn, n, 3), values, (n, 3))
    npt.assert_allclose(got, want, rtol=1e-14, atol=1e-14)
    # stored column by column
    assert got.flags.f_contiguous
    # one bincount over the column keys sums each column in the order of a
    # bincount of that column alone
    for c in range(3):
        npt.assert_array_equal(scatter(conn, values[c], n), got[:, c])
        npt.assert_array_equal(np.bincount(conn.ravel(),
                                           weights=values[c].ravel(),
                                           minlength=n), got[:, c])


def test_locate_wraps_and_matches_the_phase_lookup():
    grid = RVEGrid(4, 8, 2, 1.0, 1.0)
    ids = np.random.default_rng(0).integers(0, 3, size=(4, 8))
    src = CellCorrectorSource(grid, PhaseGrid(4, 8, 1.0, ids),
                              material_table([(0, 1.0, 1.0), (1, 2.0, 1.0),
                                              (2, 3.0, 0.5)]))
    pts = np.array([[0.1, 0.1], [0.3, 0.2], [0.6, 0.9], [0.95, 0.99],
                    [0.0, 0.5]])
    lo, hi, t = locate(pts, grid)
    npt.assert_array_equal(lo.T, [[0, 0], [1, 1], [2, 7], [3, 7], [0, 4]])
    npt.assert_array_equal(hi.T, (lo.T + 1) % (4, 8))
    npt.assert_allclose((lo + t).T * (0.25, 0.125), pts, rtol=0, atol=1e-15)
    for shift in (0.0, 1.0, np.array([2.0, 3.0]), np.array([-1.0, -5.0])):
        lo_s, hi_s, t_s = locate(pts + shift, grid)
        npt.assert_array_equal(lo_s, lo)
        npt.assert_array_equal(hi_s, hi)
        npt.assert_allclose(t_s, t, rtol=0, atol=1e-12)
        npt.assert_array_equal(src.phase_of_points(pts + shift),
                               ids[lo[0], lo[1]])


def test_cached_arrays_are_read_only_and_shared():
    assert nodes(4, 6, 3) is nodes(4, 6, 3)
    assert nodes(4, 6, 3) is not nodes(6, 4, 3)
    for arr in (N, dN, nodes(4, 6, 3)):
        assert not arr.flags.writeable
