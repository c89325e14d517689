"""Split a random mixed field into mean + potential + solenoidal parts.

The three parts are mutually orthogonal in the weighted inner product, the
norms satisfy Pythagoras, and re-splitting the potential part returns it
unchanged. The nodal field is interpolated to the Gauss points once, and the
splitting and its report both read that Gauss-layout field. The second half checks the planar identities: Hessian fields
pair to zero against cofactor-of-symmetric-gradient fields, and the
divergence of a cofactor field vanishes at the order of the stencil.
"""

import numpy as np

from platecell import (RVEGrid, decompose_mixed, orthogonality_report,
                       random_mixed_field, to_gauss)
from platecell.decomposition import (cof_sym_grad, decompose_second_order,
                                     div_cof_residual, hessian_pairing)


def wave(n, kx, ky, phase=0.0):
    x = np.arange(n) / n
    X, Y = np.meshgrid(x, x, indexing="ij")
    return np.cos(2 * np.pi * (kx * X + ky * Y) + phase)


def main():
    grid = RVEGrid(12, 12, 6, 1.0, 1.0)
    field = to_gauss(random_mixed_field(grid, seed=5))
    dec = decompose_mixed(field, tol=1e-11)
    print("orthogonal splitting of a white-noise field on 12x12x6:")
    for key, val in sorted(orthogonality_report(field, dec).items()):
        print("  %-15s %.2e" % (key, val))

    again = decompose_mixed(dec.potential, tol=1e-11)
    drift = np.linalg.norm(again.potential.values - dec.potential.values)
    print("  idempotence      %.2e" % (drift / np.linalg.norm(
        dec.potential.values)))

    # -------- planar identities --------
    n = 48
    A = np.empty((n, n, 2, 2))
    A[..., 0, 0] = wave(n, 1, 2)
    A[..., 1, 1] = wave(n, 3, -1, 0.4)
    A[..., 0, 1] = A[..., 1, 0] = wave(n, -2, 2, 1.1)
    b = np.stack([wave(n, 1, 3, 0.2), wave(n, 2, -2, 0.9)], axis=-1)
    pair = hessian_pairing(decompose_second_order(A, 1.0),
                           cof_sym_grad(b, 1.0))
    print("\nHessian vs cofactor pairing: %.2e" % pair)

    print("div(cof sym grad b) residual:")
    for m in (32, 64, 128):
        xs = np.arange(m) / m
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        bm = np.stack([np.sin(2 * np.pi * (X + 2 * Y)),
                       np.cos(2 * np.pi * (2 * X - Y))], axis=-1)
        print("  n=%3d   fd2 %.3e   spectral %.1e"
              % (m, div_cof_residual(bm, 1.0, method="fd2"),
                 div_cof_residual(bm, 1.0, method="spectral")))


if __name__ == "__main__":
    main()
