"""Per-phase stored energy densities and their small-strain quadratic forms.

Each phase is an isotropic St. Venant-Kirchhoff material

    W(F) = (mu/2) |F^T F - I|^2 + (lambda/4) (tr(F^T F - I))^2

whose quadratic form at the identity is exactly

    Q(G) = 2 mu |sym G|^2 + lambda (tr sym G)^2,

represented throughout as a 6x6 matrix in orthonormal Voigt coordinates
(basis order E11, E22, E33, sqrt2*E23, sqrt2*E13, sqrt2*E12).  With the
sqrt2 shear scaling the matrix IS the form: eigenvalues coincide with the
coercivity constants and there is no engineering-shear bookkeeping.
"""

import numpy as np

from .errors import ConfigError, as_array, as_index, as_real

SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# Quadratic forms
# ---------------------------------------------------------------------------

class StrainForm:
    """A quadratic form on symmetric 3x3 strains, stored as a 6x6 Voigt matrix."""

    def __init__(self, voigt):
        voigt = as_array(voigt, "StrainForm.voigt", (6, 6))
        if np.max(np.abs(voigt - voigt.T)) > 1e-12 * max(1.0, np.max(np.abs(voigt))):
            raise ConfigError("StrainForm.voigt must be symmetric within 1e-12")
        self.voigt = 0.5 * (voigt + voigt.T)

    def __repr__(self):
        return "StrainForm(voigt=%r)" % (self.voigt,)


def isotropic_form(mu, lam):
    """Voigt matrix of Q(G) = 2 mu |sym G|^2 + lam (tr sym G)^2.

    Normal block 2*mu*I + lam*(1 x 1), shear block 2*mu*I; eigenvalues
    {2mu (x5), 2mu + 3lam}.
    """
    mu = as_real(mu, "isotropic_form: mu", 0)
    lam = as_real(lam, "isotropic_form: lambda")
    if lam < 0:
        raise ConfigError("isotropic_form: lambda must be >= 0, got %r" % (lam,))
    V = 2.0 * mu * np.eye(6)
    V[:3, :3] += lam
    return StrainForm(V)


def coercivity_constants(q):
    """(c1, c2) = extreme eigenvalues of the Voigt matrix; c1 must be positive."""
    w = np.linalg.eigvalsh(q.voigt)
    c1, c2 = float(w[0]), float(w[-1])
    if not c1 > 0:
        raise ConfigError("coercivity_constants: form is not positive definite "
                          "(min eigenvalue %g)" % c1)
    return c1, c2


# ---------------------------------------------------------------------------
# Phase materials
# ---------------------------------------------------------------------------

class PhaseMaterial:
    """One phase: Lame parameters plus the derived quadratic form."""

    def __init__(self, phase_id, lame_mu, lame_lambda):
        self.phase_id = as_index(phase_id, "phase_id")
        self.lame_mu = as_real(lame_mu, "mu")
        self.lame_lambda = as_real(lame_lambda, "lambda")
        self.q0 = isotropic_form(self.lame_mu, self.lame_lambda)

    def __repr__(self):
        return "PhaseMaterial(%d, mu=%g, lambda=%g)" % (
            self.phase_id, self.lame_mu, self.lame_lambda)


def material_table(entries):
    """Build {phase_id: PhaseMaterial} from [(id, mu, lambda), ...] or dicts."""
    table = {}
    for k, e in enumerate(entries):
        if isinstance(e, PhaseMaterial):
            pm = e
        elif isinstance(e, dict):
            try:
                pm = PhaseMaterial(e["phase_id"], e["mu"], e["lambda"])
            except KeyError as miss:
                raise ConfigError("materials[%d]: missing key %s" % (k, miss))
        else:
            try:
                pid, mu, lam = e
            except (TypeError, ValueError):
                raise ConfigError("materials[%d] must be (phase_id, mu, lambda) "
                                  "or a dict, got %r" % (k, e)) from None
            pm = PhaseMaterial(pid, mu, lam)
        if pm.phase_id in table:
            raise ConfigError("materials[%d]: duplicate phase_id %d" % (k, pm.phase_id))
        table[pm.phase_id] = pm
    if not table:
        raise ConfigError("materials: table is empty")
    return table


# ---------------------------------------------------------------------------
# Finite-strain energy
# ---------------------------------------------------------------------------

def svk_energy(phase, F):
    """St. Venant-Kirchhoff energy of a deformation gradient (or batch).

    Args:
        phase: PhaseMaterial (or anything with lame_mu / lame_lambda).
        F: array (..., 3, 3).

    Returns:
        scalar or array (...): (mu/2)|F^T F - I|^2 + (lam/4) tr(F^T F - I)^2.
    """
    F = np.asarray(F, dtype=float)
    c = (F[..., 0], F[..., 1], F[..., 2])      # columns of F

    def dot(a, b):
        u, v = c[a], c[b]
        return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] \
            + u[..., 2] * v[..., 2]

    # the six distinct entries of E2 = F^T F - I (2 * Green-Lagrange strain)
    e11, e22, e33 = dot(0, 0) - 1.0, dot(1, 1) - 1.0, dot(2, 2) - 1.0
    e12, e13, e23 = dot(0, 1), dot(0, 2), dot(1, 2)
    mu, lam = phase.lame_mu, phase.lame_lambda
    frob2 = e11 * e11 + e22 * e22 + e33 * e33 \
        + 2.0 * (e12 * e12 + e13 * e13 + e23 * e23)
    tr = e11 + e22 + e33
    out = 0.5 * mu * frob2 + 0.25 * lam * tr * tr
    return float(out) if out.ndim == 0 else out
