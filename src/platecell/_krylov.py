"""Block preconditioned conjugate gradients with kernel projection.

One Krylov loop serves the symmetric positive semidefinite cell problems of
the package.  Columns of the right-hand side iterate together but carry
independent step sizes, and a projection callback removes the operator
kernel (rigid translations), which is the gauge fixing of the methods that
call this.  The system is consistent once the right-hand side is projected,
so the residuals stay in the range of the operator; a kernel part of the
preconditioned residuals moves the iterate along the kernel only and leaves
the residuals and the iterate's range part unchanged, so the projection is
applied to the right-hand side and to the returned solution, not to every
iterate (Kaasschieter 1988).  The preconditioner is a callable supplied by
the caller; the cell problems pass the exact in-plane inverse of a
homogeneous reference medium, applied as real DFT matrix products.  The loop
updates its vectors in place, with the roundings of the plain expressions
x + alpha p, r - alpha q and z + beta p.

Blocks are (n, m), one column per right-hand side, and the loop keeps its
own stored column by column (Fortran order).  It works on their transposes,
(m, n) arrays with one contiguous row per column, so each per-column update
and dot product runs over n contiguous entries instead of an inner loop of
length m repeated n times.  The dot products are `np.einsum` reductions, not
BLAS calls, so the iterates do not depend on the BLAS thread count.
"""

import numpy as np

from .errors import ConvergenceError, NumericalError


def block_pcg(matvec, precondition, project, rhs, tol, max_iter):
    """Solve A x = rhs column-wise with a symmetric positive preconditioner.

    The loop updates its iterates in place and overwrites the array that
    `matvec` returns, so matvec must return a fresh (or scratch) array it
    does not read again; `rhs` is left unchanged.  Every block passed to the
    callables is (n, m) and stored column by column; any memory order they
    return is read correctly, and column-major returns keep the loop's rows
    contiguous.

    Args:
        matvec: function (n, m) -> (n, m) applying the operator.
        precondition: function (n, m) -> (n, m) applying an approximate
            inverse of the operator to residuals, symmetric and positive
            definite (on the range of the operator at least); it must not
            modify its argument.  Its outputs are not projected.
        project: function projecting (n, m) onto the orthogonal complement of
            the kernel, in place; identity for trivial kernels.  It is called
            twice: on a column-major copy of rhs and on the solution.
        rhs: (n, m) right-hand sides, in either memory order; the same values
            give the same iterates.
        tol: per-column relative residual target.
        max_iter: iteration cap.

    Returns:
        (x, history): solution (n, m), stored column by column, and the list
        of per-iteration residual arrays.

    Raises:
        ConvergenceError: some column is still above tol at the cap.
        NumericalError: a relative residual is not finite (an overflow).
    """
    b = project(np.array(rhs, order="F")).T     # (m, n): a row per column
    bnorm = np.sqrt(np.einsum("ij,ij->i", b, b))
    bnorm = np.where(bnorm > 0, bnorm, 1.0)
    x = np.zeros_like(b)
    r = b.copy()
    z = precondition(r.T).T
    p = z.copy()
    step = np.empty_like(b)
    rz = np.einsum("ij,ij->i", r, z)
    rel = np.sqrt(np.einsum("ij,ij->i", r, r)) / bnorm
    history = [rel.copy()]
    active = ~(rel <= tol)      # a nan is active, and raises at the loop head
    it = 0
    while active.any():
        if not np.isfinite(rel).all():
            raise NumericalError("PCG: relative residual %s is not finite "
                                 "after %d iterations" % (rel.tolist(), it))
        if it >= max_iter:
            raise ConvergenceError(
                "PCG: %d of %d columns above tol=%g after %d iterations "
                "(worst relative residual %.3e)"
                % (int(active.sum()), rhs.shape[1], tol, it, float(rel.max())),
                residual_history=[h.tolist() for h in history])
        q = matvec(p.T).T
        pq = np.einsum("ij,ij->i", p, q)
        ok = active & (pq > 0)
        alpha = np.where(ok, rz / np.where(pq > 0, pq, 1.0), 0.0)[:, None]
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, q, out=q)
        rel = np.sqrt(np.einsum("ij,ij->i", r, r)) / bnorm
        history.append(rel.copy())
        active = ~(rel <= tol)
        z = precondition(r.T).T
        rz_new = np.einsum("ij,ij->i", r, z)
        beta = np.where(active & (rz > 0), rz_new / np.where(rz > 0, rz, 1.0), 0.0)
        p *= beta[:, None]
        p += z
        rz = rz_new
        it += 1
    return project(x.T), history
