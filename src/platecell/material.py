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

import json

import numpy as np

from .errors import ConfigError, as_array, as_index, as_real

SQRT2 = np.sqrt(2.0)


# ---------------------------------------------------------------------------
# Voigt helpers
# ---------------------------------------------------------------------------

def sym_to_voigt6(M):
    """Orthonormal Voigt vector of sym(M).

    Args:
        M: array (..., 3, 3); only the symmetric part enters.

    Returns:
        array (..., 6) with entries (E11, E22, E33, s2*E23, s2*E13, s2*E12).
    """
    M = np.asarray(M, dtype=float)
    S = 0.5 * (M + np.swapaxes(M, -1, -2))
    v = np.empty(M.shape[:-2] + (6,))
    v[..., 0] = S[..., 0, 0]
    v[..., 1] = S[..., 1, 1]
    v[..., 2] = S[..., 2, 2]
    v[..., 3] = SQRT2 * S[..., 1, 2]
    v[..., 4] = SQRT2 * S[..., 0, 2]
    v[..., 5] = SQRT2 * S[..., 0, 1]
    return v


def voigt6_to_sym(v):
    """Inverse of sym_to_voigt6 (image is always symmetric)."""
    v = np.asarray(v, dtype=float)
    S = np.zeros(v.shape[:-1] + (3, 3))
    S[..., 0, 0] = v[..., 0]
    S[..., 1, 1] = v[..., 1]
    S[..., 2, 2] = v[..., 2]
    S[..., 1, 2] = S[..., 2, 1] = v[..., 3] / SQRT2
    S[..., 0, 2] = S[..., 2, 0] = v[..., 4] / SQRT2
    S[..., 0, 1] = S[..., 1, 0] = v[..., 5] / SQRT2
    return S


def embed_plane(M2):
    """Embed a 2x2 matrix into the upper-left block of a 3x3 (third row/col zero)."""
    M2 = np.asarray(M2, dtype=float)
    out = np.zeros(M2.shape[:-2] + (3, 3))
    out[..., :2, :2] = M2
    return out


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


def q0_apply(q, M):
    """Evaluate the quadratic form on sym(M) for a 3x3 matrix (or batch)."""
    v = sym_to_voigt6(M)
    return np.einsum("...i,ij,...j->...", v, q.voigt, v)


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
            pid, mu, lam = e
            pm = PhaseMaterial(pid, mu, lam)
        if pm.phase_id in table:
            raise ConfigError("materials[%d]: duplicate phase_id %d" % (k, pm.phase_id))
        table[pm.phase_id] = pm
    if not table:
        raise ConfigError("materials: table is empty")
    return table


def material_table_to_json(table):
    """Serialize to the canonical JSON list [{phase_id, mu, lambda}, ...]."""
    rows = [{"phase_id": pm.phase_id, "mu": pm.lame_mu, "lambda": pm.lame_lambda}
            for pm in sorted(table.values(), key=lambda m: m.phase_id)]
    return json.dumps(rows, sort_keys=True, separators=(",", ":"))


def material_table_from_json(text):
    return material_table(json.loads(text))


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


def taylor_check(phase, G, t_values):
    """Normalized Taylor residuals |W(I + tG) - Q(tG)| / (t^2 |G|^2) per t.

    For the SVK density the residual decays linearly in t (cubic term of W),
    and for skew G it decays quadratically (the cubic term vanishes).
    """
    G = as_array(G, "taylor_check: G", (3, 3))
    t_values = as_array(t_values, "taylor_check: t_values", (None,))
    if np.any(t_values <= 0) or np.any(np.diff(t_values) >= 0):
        raise ConfigError("taylor_check: t_values must be positive and decreasing")
    g2 = float(np.sum(G * G))
    if g2 == 0.0:
        return np.zeros_like(t_values)
    I = np.eye(3)
    out = np.empty_like(t_values)
    for k, t in enumerate(t_values):
        w = svk_energy(phase, I + t * G)
        q = q0_apply(phase.q0, t * G)
        out[k] = abs(w - q) / (t * t * g2)
    return out
