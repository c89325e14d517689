"""The shared slab mesh: reference tables, connectivity, scatter, lookup."""

import numpy as np
import numpy.testing as npt

from platecell import (
    BENDING,
    CellOperator,
    PhaseGrid,
    RVEGrid,
    material_table,
)
import platecell.cellsolve as cellsolve
from platecell._mesh import GAUSS, N, dN, locate, nodes, scatter

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
    # the operator's layer map C_e takes the dofs of an element column's
    # corner nodes, corner q = dx + 2 dy, to the local dofs of its layer e:
    # local node q + 4 dz is the node of corner q at node layer e + dz, as
    # in the node table, with that node's rows of the fold E
    n1, n2, n3 = 4, 6, 3
    grid = RVEGrid(n1, n2, n3, 1.3, 1.7)
    phases = PhaseGrid(n1, n2, 1.7, np.arange(24).reshape(n1, n2) % 2)
    op = CellOperator(grid, phases, material_table([(0, 1.0, 1.0),
                                                    (1, 4.0, 2.0)]), BENDING)
    s = cellsolve._setup(*op._key)
    E, f = s.fold, s.fold.shape[1]
    assert s.layers.shape == (n3, 24, 4 * f)
    col, layer = np.divmod(nodes(n1, n2, n3).reshape(n1 * n2, n3, 8), n3 + 1)
    i, j = np.divmod(np.arange(n1 * n2), n2)
    for e in range(n3):
        for l in range(8):
            q, dz = l & 3, l >> 2
            npt.assert_array_equal(layer[:, e, l], e + dz)
            npt.assert_array_equal(
                col[:, e, l], (i + (q & 1)) % n1 * n2 + (j + (q >> 1)) % n2)
            want = np.zeros((3, 4, f))
            want[:, q] = E[3 * (e + dz):3 * (e + dz) + 3]
            npt.assert_array_equal(s.layers[e, 3 * l:3 * l + 3],
                                   want.reshape(3, -1))
    assert op.ndof == n1 * n2 * f


def test_scatter_sums_every_entry():
    rng = np.random.default_rng(3)
    conn = nodes(4, 4, 2)
    n = 4 * 4 * 3
    values = rng.standard_normal(conn.shape)
    want = np.zeros(n)
    np.add.at(want, conn, values)
    got = scatter(conn, values, n)
    npt.assert_allclose(got, want, rtol=1e-14, atol=1e-14)
    # one bincount in the order of the entries
    npt.assert_array_equal(np.bincount(conn.ravel(), weights=values.ravel(),
                                       minlength=n), got)


def test_locate_wraps_and_matches_the_phase_lookup():
    grid = RVEGrid(4, 8, 2, 1.0, 1.0)
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


def test_cached_arrays_are_read_only_and_shared():
    assert nodes(4, 6, 3) is nodes(4, 6, 3)
    assert nodes(4, 6, 3) is not nodes(6, 4, 3)
    for arr in (N, dN, nodes(4, 6, 3)):
        assert not arr.flags.writeable
