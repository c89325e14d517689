"""Block preconditioned conjugate gradients with kernel projection.

One Krylov loop serves the symmetric positive semidefinite cell problems of
the package.  Columns of the right-hand side iterate together but carry
independent step sizes, and a projection callback removes the operator
kernel (rigid translations) from every iterate, which is the gauge fixing of
the methods that call this.  The preconditioner is a callable supplied by
the caller; the cell problems pass an in-plane FFT solve with a homogeneous
reference medium.  The loop updates its vectors in place, with the roundings
of the plain expressions x + alpha p, r - alpha q and z + beta p.
"""

import numpy as np

from .errors import ConvergenceError, NumericalError


def block_pcg(matvec, precondition, project, rhs, tol, max_iter,
              callback=None):
    """Solve A x = rhs column-wise with a symmetric positive preconditioner.

    The loop updates its iterates in place and overwrites the array that
    `matvec` returns, so matvec must return a fresh (or scratch) array it
    does not read again; `rhs` is left unchanged.

    Args:
        matvec: function (n, m) -> (n, m) applying the operator.
        precondition: function (n, m) -> (n, m) applying an approximate
            inverse of the operator to residuals; it must not modify its
            argument.
        project: function projecting (n, m) onto the orthogonal complement of
            the kernel, in place; identity for trivial kernels.
        rhs: (n, m) right-hand sides.
        tol: per-column relative residual target.
        max_iter: iteration cap.
        callback: optional f(iteration, x) hook, called after each update.

    Returns:
        (x, history): solution (n, m), list of per-iteration residual arrays.

    Raises:
        ConvergenceError: some column is still above tol at the cap.
        NumericalError: a relative residual is not finite (an overflow).
    """
    b = project(rhs.copy())
    bnorm = np.sqrt(np.einsum("ij,ij->j", b, b))
    bnorm = np.where(bnorm > 0, bnorm, 1.0)
    x = np.zeros_like(b)
    r = b.copy()
    z = project(precondition(r))
    p = z.copy()
    step = np.empty_like(b)
    rz = np.einsum("ij,ij->j", r, z)
    rel = np.sqrt(np.einsum("ij,ij->j", r, r)) / bnorm
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
        q = matvec(p)
        pq = np.einsum("ij,ij->j", p, q)
        ok = active & (pq > 0)
        alpha = np.where(ok, rz / np.where(pq > 0, pq, 1.0), 0.0)
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, q, out=q)
        rel = np.sqrt(np.einsum("ij,ij->j", r, r)) / bnorm
        history.append(rel.copy())
        active = ~(rel <= tol)
        z = project(precondition(r))
        rz_new = np.einsum("ij,ij->j", r, z)
        beta = np.where(active & (rz > 0), rz_new / np.where(rz > 0, rz, 1.0), 0.0)
        p *= beta
        p += z
        rz = rz_new
        it += 1
        if callback is not None:
            callback(it, x)
    return project(x), history
