"""Stored-energy densities and their Voigt quadratic forms."""

import numpy as np
import numpy.testing as npt
import pytest

from platecell import (
    ConfigError,
    PhaseMaterial,
    StrainForm,
    coercivity_constants,
    isotropic_form,
    material_table,
    svk_energy,
)
from oracles import fd_quadratic_form, svk_taylor_exact, sym_to_voigt6, \
    voigt6_basis

RNG = np.random.default_rng(20260816)


def random_rotation(rng):
    """Haar-ish rotation from QR with sign fix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def q0_apply(q, M):
    """The form q on sym(M), through the Voigt vector of M."""
    v = sym_to_voigt6(M)
    return v @ q.voigt @ v


def taylor_residuals(phase, G, ts):
    """Normalized Taylor residuals |W(I + tG) - Q(tG)| / (t^2 |G|^2)."""
    return np.array([abs(svk_energy(phase, np.eye(3) + t * G)
                         - q0_apply(phase.q0, t * G)) / (t * t * np.sum(G * G))
                     for t in ts])


# ---------------------------------------------------------------------------
# Isotropic form
# ---------------------------------------------------------------------------

def test_isotropic_lambda0_is_twice_identity():
    q = isotropic_form(1.0, 0.0)
    npt.assert_array_equal(q.voigt, 2.0 * np.eye(6))


def test_isotropic_unit_normal_load():
    # (mu=1, lam=1), G = e1 x e1 -> 2|G|^2 + tr(G)^2 = 2 + 1
    q = isotropic_form(1.0, 1.0)
    G = np.zeros((3, 3))
    G[0, 0] = 1.0
    assert q0_apply(q, G) == pytest.approx(3.0, abs=1e-14)


def test_isotropic_eigenvalues():
    q = isotropic_form(1.0, 1.0)
    w = np.sort(np.linalg.eigvalsh(q.voigt))
    npt.assert_allclose(w, [2, 2, 2, 2, 2, 5], atol=1e-12)


@pytest.mark.parametrize("mu,lam,c1,c2", [
    (1.0, 0.0, 2.0, 2.0),
    (1.0, 1.0, 2.0, 5.0),
    (2.0, 0.0, 4.0, 4.0),
])
def test_coercivity_constants(mu, lam, c1, c2):
    got = coercivity_constants(isotropic_form(mu, lam))
    npt.assert_allclose(got, (c1, c2), rtol=1e-13)


def test_isotropic_rejects_bad_moduli():
    with pytest.raises(ConfigError):
        isotropic_form(0.0, 1.0)
    with pytest.raises(ConfigError):
        isotropic_form(1.0, -0.5)
    for bad in (np.nan, np.inf, -np.inf, "2", True, 10 ** 400):
        with pytest.raises(ConfigError, match="mu must be a finite number"):
            PhaseMaterial(0, bad, 1.0)
        with pytest.raises(ConfigError, match="lambda must be a finite"):
            PhaseMaterial(0, 1.0, bad)
        with pytest.raises(ConfigError):
            material_table([{"phase_id": 0, "mu": bad, "lambda": 1.0}])
    pm = PhaseMaterial(0, np.float32(2.0), 1)
    assert (pm.lame_mu, pm.lame_lambda) == (2.0, 1.0)
    assert type(pm.lame_mu) is float and type(pm.lame_lambda) is float


def test_strain_form_rejects_asymmetry():
    bad = np.eye(6)
    bad[0, 1] = 1e-6
    with pytest.raises(ConfigError):
        StrainForm(bad)


def test_q0_apply_properties():
    q = isotropic_form(1.3, 0.7)
    skew = np.array([[0, 1, -2], [-1, 0, 0.5], [2, -0.5, 0]])
    assert q0_apply(q, skew) == pytest.approx(0.0, abs=1e-28)
    assert q0_apply(q, np.zeros((3, 3))) == 0.0
    assert q0_apply(isotropic_form(1, 1), np.eye(3)) == pytest.approx(15.0)
    # depends on M only through sym M
    rng = np.random.default_rng(2)
    M = rng.standard_normal((3, 3))
    S = 0.5 * (M + M.T)
    assert q0_apply(q, M) == pytest.approx(q0_apply(q, S), rel=1e-13)


def test_q0_bounds_sampled():
    q = isotropic_form(0.9, 2.1)
    c1, c2 = coercivity_constants(q)
    rng = np.random.default_rng(3)
    for _ in range(50):
        M = rng.standard_normal((3, 3))
        s2 = np.sum((0.5 * (M + M.T)) ** 2)
        val = q0_apply(q, M)
        assert c1 * s2 * (1 - 1e-12) <= val <= c2 * s2 * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Finite-strain energy
# ---------------------------------------------------------------------------

def test_svk_zero_on_rotations():
    phase = PhaseMaterial(0, 1.0, 1.0)
    assert svk_energy(phase, np.eye(3)) == 0.0
    rng = np.random.default_rng(4)
    for _ in range(10):
        R = random_rotation(rng)
        assert abs(svk_energy(phase, R)) < 1e-14


def _svk_by_matrix(phase, F):
    """The density through the stacked 3x3 strain, as the formula reads."""
    E2 = np.swapaxes(F, -1, -2) @ F - np.eye(3)
    frob2 = np.einsum("...ij,...ij->...", E2, E2)
    tr = np.einsum("...ii->...", E2)
    return 0.5 * phase.lame_mu * frob2 + 0.25 * phase.lame_lambda * tr * tr


@pytest.mark.parametrize("shape", [(1,), (7,), (4, 5), (2, 3, 4)])
def test_svk_components_match_matrix_formula(shape):
    phase = PhaseMaterial(0, 1.3, 2.1)
    rng = np.random.default_rng(sum(shape))
    F = np.eye(3) + 0.4 * rng.standard_normal(shape + (3, 3))
    got = svk_energy(phase, F)
    want = _svk_by_matrix(phase, F)
    assert got.shape == shape
    npt.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    # strided views (a transposed stack) give the same values
    Ft = np.ascontiguousarray(np.moveaxis(F, (-2, -1), (0, 1)))
    npt.assert_array_equal(svk_energy(phase, np.moveaxis(Ft, (0, 1), (-2, -1))),
                           got)


def test_svk_single_matrix_is_float():
    phase = PhaseMaterial(0, 1.0, 2.0)
    F = np.eye(3) + 0.1 * np.arange(9.0).reshape(3, 3)
    w = svk_energy(phase, F)
    assert type(w) is float
    npt.assert_allclose(w, float(_svk_by_matrix(phase, F)), rtol=1e-14)
    assert svk_energy(phase, np.broadcast_to(np.eye(3), (5, 3, 3))).tolist() \
        == [0.0] * 5


def test_svk_objectivity_sampled():
    phase = PhaseMaterial(0, 1.0, 2.0)
    rng = np.random.default_rng(5)
    for _ in range(100):
        F = np.eye(3) + 0.5 * rng.standard_normal((3, 3))
        R = random_rotation(rng)
        bound = 1e-12 * (1.0 + np.sum(F * F) ** 2)
        assert abs(svk_energy(phase, R @ F) - svk_energy(phase, F)) <= bound


def test_svk_small_strain_matches_form():
    phase = PhaseMaterial(0, 1.0, 1.0)
    G = np.zeros((3, 3))
    G[0, 0] = 1.0
    t = 1e-4
    w = svk_energy(phase, np.eye(3) + t * G)
    q = q0_apply(phase.q0, t * G)
    assert w == pytest.approx(q, rel=1e-3)


def test_svk_fd_hessian_is_twice_voigt():
    """Centered second differences recover 2x the Voigt matrix entrywise."""
    phase = PhaseMaterial(0, 1.1, 0.6)
    basis = voigt6_basis()
    w = lambda F: svk_energy(phase, F)
    H = np.zeros((6, 6))
    for a in range(6):
        H[a, a] = fd_quadratic_form(w, basis[a])
        for b in range(a + 1, 6):
            hab = 0.5 * (fd_quadratic_form(w, basis[a] + basis[b])
                         - H[a, a] - fd_quadratic_form(w, basis[b]))
            H[a, b] = H[b, a] = hab
    npt.assert_allclose(H, 2.0 * phase.q0.voigt, rtol=1e-5, atol=1e-7)


# ---------------------------------------------------------------------------
# Taylor residual
# ---------------------------------------------------------------------------

def test_taylor_residual_matches_exact_algebra():
    """The residual is exactly c3 t^3 + c4 t^4 (SVK is a polynomial)."""
    rng = np.random.default_rng(6)
    phase = PhaseMaterial(0, 0.8, 1.7)
    for _ in range(10):
        G = rng.standard_normal((3, 3))
        for t in (0.1, 0.01):
            res = taylor_residuals(phase, G, [t])[0]
            exact = abs(svk_taylor_exact(phase.lame_mu, phase.lame_lambda, G, t))
            want = exact / (t * t * np.sum(G * G))
            assert res == pytest.approx(want, rel=1e-9, abs=1e-14)


def test_taylor_halving_halves_residual():
    phase = PhaseMaterial(0, 1.0, 1.0)
    rng = np.random.default_rng(7)
    G = rng.standard_normal((3, 3))
    ts = 0.1 * 0.5 ** np.arange(6)
    res = taylor_residuals(phase, G, ts)
    ratios = res[:-1] / res[1:]
    # O(t) leading term: each halving about halves the residual
    assert np.all(ratios > 1.7) and np.all(ratios < 2.3)


def test_taylor_skew_is_second_order():
    phase = PhaseMaterial(0, 1.0, 0.5)
    skew = np.array([[0, 1, 0], [-1, 0, 2], [0, -2, 0.0]])
    ts = np.array([1e-1, 1e-2, 1e-3])
    res = taylor_residuals(phase, skew, ts)
    # cubic term vanishes for skew G, so residual ~ c4 t^2
    npt.assert_allclose(res / ts ** 2, res[0] / ts[0] ** 2, rtol=1e-4)


# ---------------------------------------------------------------------------
# Material table
# ---------------------------------------------------------------------------

def test_material_table_rejects_duplicates_and_empty():
    with pytest.raises(ConfigError):
        material_table([(0, 1, 1), (0, 2, 2)])
    with pytest.raises(ConfigError):
        material_table([])


def test_phase_id_must_be_an_integer():
    for bad in (0.5, 1.0, "1", True, np.float64(1.0)):
        with pytest.raises(ConfigError, match="phase_id must be an integer"):
            PhaseMaterial(bad, 1.0, 1.0)
        with pytest.raises(ConfigError, match="phase_id"):
            material_table([(bad, 1.0, 1.0)])
    pm = PhaseMaterial(np.int64(3), 1.0, 1.0)
    assert pm.phase_id == 3 and type(pm.phase_id) is int
    assert set(material_table([(np.int32(0), 1, 1), (1, 2, 2)])) == {0, 1}
