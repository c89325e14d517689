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

The per-column scalars (the inner products (r, z) and (p, q), the step sizes
alpha and beta, the relative residuals and the active flags) are Python
floats in lists of length m, not numpy arrays: on m = 3 entries a numpy
call costs far more than its arithmetic.  Python's float division and
comparisons are the IEEE float64 operations numpy performs on each entry,
so the iterates and residual histories are the same bits as with masked
array arithmetic.  The step sizes reach the (m, n) rows through one (m, 1)
column.
"""

import math

import numpy as np

from .errors import ConvergenceError, NumericalError


def block_pcg(matvec, precondition, project, rhs, tol, max_iter):
    """Solve A x = rhs column-wise with a symmetric positive preconditioner.

    The loop updates its iterates in place and overwrites the array that
    `matvec` returns, so matvec must return a fresh (or scratch) array it
    does not read again; `rhs` is left unchanged.  Every block passed to the
    callables is (n, m) and stored column by column; any memory order they
    return is read correctly, and column-major returns keep the loop's rows
    contiguous.  Each callable is called with one positional argument, the
    (n, m) block, which is how the benchmark's hooks wrap `matvec` and
    `project`.  The per-column scalars are Python floats, with the roundings
    of the numpy float64 operations (see the module docstring).

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
    coef = np.empty((len(b), 1))        # alpha, then beta, as a column
    rz = np.einsum("ij,ij->i", r, z).tolist()
    rel = np.sqrt(np.einsum("ij,ij->i", r, r)) / bnorm
    history = [rel]
    rels = rel.tolist()
    active = [not (v <= tol) for v in rels]     # a nan is active, and raises
    it = 0
    while any(active):
        if not all(map(math.isfinite, rels)):
            raise NumericalError("PCG: relative residual %s is not finite "
                                 "after %d iterations" % (rels, it))
        if it >= max_iter:
            raise ConvergenceError(
                "PCG: %d of %d columns above tol=%g after %d iterations "
                "(worst relative residual %.3e)"
                % (sum(active), rhs.shape[1], tol, it, max(rels)),
                residual_history=[h.tolist() for h in history])
        q = matvec(p.T).T
        pq = np.einsum("ij,ij->i", p, q).tolist()
        coef[:, 0] = [a / d if on and d > 0 else 0.0
                      for a, d, on in zip(rz, pq, active)]
        x += np.multiply(coef, p, out=step)
        r -= np.multiply(coef, q, out=q)
        rel = np.sqrt(np.einsum("ij,ij->i", r, r)) / bnorm
        history.append(rel)
        rels = rel.tolist()
        active = [not (v <= tol) for v in rels]
        z = precondition(r.T).T
        rz_new = np.einsum("ij,ij->i", r, z).tolist()
        coef[:, 0] = [a / d if on and d > 0 else 0.0
                      for a, d, on in zip(rz_new, rz, active)]
        p *= coef
        p += z
        rz = rz_new
        it += 1
    return project(x.T), history
