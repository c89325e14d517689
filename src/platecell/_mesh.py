"""The structured slab mesh shared by the cell solve, the mixed decomposition
and the recovery quadrature.

The slab is n1 x n2 in-plane element columns, periodically identified (no
duplicated nodes), times n3 layers through the thickness with free ends.
Elements are trilinear (Q1) hexahedra integrated by the 2x2x2 Gauss rule.
Element e = (i n2 + j) n3 + k is column (i, j), layer k; node
(i n2 + j)(n3 + 1) + k is in-plane node (i, j), node layer k.  Local nodes and
Gauss points both use the order l = ix + 2 iy + 4 iz on the unit reference
cube.

Every table here is built once and read-only, so callers share them.
"""

import functools

import numpy as np

# 2-point Gauss abscissae on [0, 1].
GAUSS = ((1.0 - 1.0 / np.sqrt(3.0)) / 2.0, (1.0 + 1.0 / np.sqrt(3.0)) / 2.0)


def _reference_tables():
    """Q1 shape values N (8 gauss, 8 nodes) and gradients dN (8, 3, 8)."""
    bits = (np.arange(8)[:, None] >> np.arange(3)) & 1      # (8, 3): ix, iy, iz
    hat = np.array([[1.0 - g, g] for g in GAUSS])           # [gauss, node] 1D
    sign = np.array([-1.0, 1.0])
    f = hat[bits[:, None, :], bits[None, :, :]]             # (8 q, 8 l, 3 axes)
    # factors multiply in axis order x, y, z: the rounding of every table,
    # and so every pinned tensor and energy, depends on that order
    N = f[..., 0] * f[..., 1] * f[..., 2]
    dN = np.stack([sign[bits[:, 0]] * f[..., 1] * f[..., 2],
                   sign[bits[:, 1]] * f[..., 0] * f[..., 2],
                   sign[bits[:, 2]] * f[..., 0] * f[..., 1]], axis=1)
    N.flags.writeable = False
    dN.flags.writeable = False
    return N, dN


N, dN = _reference_tables()


@functools.lru_cache(maxsize=8)
def nodes(n1, n2, n3):
    """(n_elements, 8) node indices of every element, read-only and shared."""
    i, j, k = np.ogrid[:n1, :n2, :n3]
    out = np.empty((n1 * n2 * n3, 8), dtype=np.int64)
    for l in range(8):
        dx, dy, dz = l & 1, (l >> 1) & 1, l >> 2
        node = (((i + dx) % n1) * n2 + (j + dy) % n2) * (n3 + 1) + (k + dz)
        out[:, l] = node.ravel()
    out.flags.writeable = False
    return out


def column_keys(edof, n, m):
    """Keys of `scatter` for m columns of n entries: c * n + edof for every
    column c and every local entry of the global index table edof (...),
    (m, ...)."""
    return edof + n * np.arange(m).reshape((m,) + (1,) * edof.ndim)


def scatter(keys, values, shape):
    """Sum element contributions into global entries.

    Args:
        keys: flat output index of each contribution, the global index table
            edof (n_elements, a) itself for one column, `column_keys(edof, n,
            m)` for m columns.
        values: the contributions, keys.shape.
        shape: n for one column, (n, m) for m.

    Returns:
        array of `shape`: out[edof[e, l], c] summed over all (e, l) by one
        np.bincount in the order of the entries, so every column sums in the
        order of a bincount of that column alone.  An (n, m) result is stored
        column by column, the transpose of the (m, n) bincount.
    """
    flat = np.bincount(keys.ravel(), weights=values.ravel(),
                       minlength=np.prod(shape))
    return flat if np.ndim(shape) == 0 else flat.reshape(shape[::-1]).T


def locate(y, grid):
    """Element column holding each in-plane point, with the offsets in it.

    Args:
        y: (M, 2) in-plane points, wrapped onto the cell here.
        grid: anything with n1, n2 and box_side.

    Returns:
        (lo, hi, t), each (2, M) with one row per in-plane axis: the wrapped
        lower and upper corner indices, and the offsets in [0, 1) from the
        lower corner in units of the element size.
    """
    L = grid.box_side
    n = np.array([[grid.n1], [grid.n2]])
    s = np.mod(y.T, L) / (L / n)
    floor = np.floor(s)
    lo = floor.astype(np.int64) % n
    return lo, (lo + 1) % n, s - floor
