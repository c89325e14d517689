"""The package's one reader of outside values, at every entry point.

Each entry point below takes one outside number or numeric array.  A bool, a
numeric string, nan, inf and a value out of its range must each raise a
ConfigError that names the argument, instead of being coerced or ending in
a bare TypeError, ValueError or ZeroDivisionError; numpy numbers of a valid
value pass.
"""

import math

import numpy as np
import pytest

from platecell import (
    CellCorrectorSource,
    CellLoad,
    ConfigError,
    EffectiveBendingForm,
    IsometrySpec,
    MicrostructureModel,
    MicrostructureRealization,
    PhaseGrid,
    RecoveryConfig,
    RVEGrid,
    StrainForm,
    birkhoff_average,
    coercivity_constants,
    cof_sym_grad,
    decompose_mixed,
    decompose_second_order,
    div_cof_residual,
    isotropic_form,
    isotropy_defect,
    material_table,
    random_mixed_field,
    sample_realization,
)
from platecell.cli import main
from platecell.errors import as_array, as_index, as_real

GRID = RVEGrid(4, 4, 2, 1.0, 1.0)
CHECKER = MicrostructureModel("checkerboard", period_hint=0.5)
STRIPES = sample_realization(
    MicrostructureModel("periodic_texture", period_hint=1.0), 0, 1.0)
WINDOW = (0.1, 0.1, 1.1, 0.9)
TWO_PHASE = material_table([(0, 1.0, 1.0), (1, 5.0, 5.0)])
CELLS = np.array([[0, 1], [1, 0]])


def _source(tol):
    return CellCorrectorSource(GRID, PhaseGrid(4, 4, 1.0, np.zeros((4, 4),
                                                                   int)),
                               TWO_PHASE, tol=tol)


# (call of the value under test, the name its message must hold, a valid
# value, a value of the right type out of range)
SCALARS = {
    "model.period_hint": (
        lambda v: MicrostructureModel("checkerboard", period_hint=v),
        "model.period_hint", 0.5, 0.0),
    "model.intensity": (
        lambda v: MicrostructureModel("poisson_voronoi", intensity=v),
        "model.intensity", 2.0, -1.0),
    "PhaseGrid.box_side": (
        lambda v: PhaseGrid(2, 2, v, CELLS), "PhaseGrid.box_side", 1.0, 0.0),
    "realization.seed": (
        lambda v: MicrostructureRealization(CHECKER, v, 1.0),
        "realization seed", 3, -1),
    "realization.box_side": (
        lambda v: MicrostructureRealization(CHECKER, 0, v),
        "realization box_side", 1.0, -1.0),
    "sample_realization.seed": (
        lambda v: sample_realization(CHECKER, v, 1.0),
        "sample_realization: seed", 0, -1),
    "sample_realization.box_side": (
        lambda v: sample_realization(CHECKER, 0, v),
        "sample_realization: box_side", 1.0, -1.0),
    "random_mixed_field.seed": (
        lambda v: random_mixed_field(GRID, v), "random_mixed_field: seed",
        1, -1),
    "decompose_second_order.box_side": (
        lambda v: decompose_second_order(np.zeros((4, 4, 2, 2)), v),
        "decompose_second_order: box_side", 1.0, 0.0),
    "cof_sym_grad.box_side": (
        lambda v: cof_sym_grad(np.zeros((4, 4, 2)), v),
        "cof_sym_grad: box_side", 1.0, -1.0),
    "div_cof_residual.box_side": (
        lambda v: div_cof_residual(np.zeros((4, 4, 2)), v),
        "div_cof_residual: box_side", 1.0, 0.0),
    "isotropic_form.mu": (
        lambda v: isotropic_form(v, 1.0), "isotropic_form: mu", 1.0, 0.0),
    "isotropic_form.lambda": (
        lambda v: isotropic_form(1.0, v), "isotropic_form: lambda", 1.0,
        -1.0),
    "grid.gamma": (
        lambda v: RVEGrid(4, 4, 2, v, 1.0), "grid: gamma", 0.5, 0.0),
    "grid.n3": (lambda v: RVEGrid(4, 4, v, 1.0, 1.0), "grid: n3", 2, 1),
    "decompose_mixed.tol": (
        lambda v: decompose_mixed(random_mixed_field(GRID, 0), tol=v),
        "decompose_mixed: tol", 1e-8, 1.0),
    "CellCorrectorSource.tol": (
        _source, "CellCorrectorSource: tol", 1e-8, 0.0),
    "RecoveryConfig.gamma": (
        lambda v: RecoveryConfig(gamma=v), "RecoveryConfig: gamma", 2.0,
        -2.0),
    "IsometrySpec.radius": (
        lambda v: IsometrySpec("cylinder", (0, 0, 1, 1), radius=v),
        "IsometrySpec: radius", 1.0, 0.0),
    "birkhoff_average.step": (
        lambda v: birkhoff_average(STRIPES, [0, 1], WINDOW, [0.5], step=v),
        "birkhoff_average: step", 0.05, 0.0),
}

# the same for arrays, with a valid value and one of the wrong shape
ARRAYS = {
    "model.mark_distribution": (
        lambda v: MicrostructureModel("poisson_voronoi", intensity=1.0,
                                      mark_distribution=v),
        "model.mark_distribution", [0.25, 0.75], [0.25, 0.75, 0.0]),
    "PhaseGrid.cell_phase": (
        lambda v: PhaseGrid(2, 2, 1.0, v), "PhaseGrid.cell_phase", CELLS,
        [0, 1, 1, 0]),
    "realization.offset": (
        lambda v: MicrostructureRealization(CHECKER, 0, 1.0, offset=v),
        "realization offset", [0.5, 0.25], [0.5]),
    "load.B": (lambda v: CellLoad(B=v), "load.B", [[1, 0], [0, 2]],
               [[1, 0, 0]]),
    "load.G": (lambda v: CellLoad(G=v), "load.G", [[1, 0.5], [0.5, 0]],
               [1, 0]),
    "EffectiveBendingForm.voigt3": (
        EffectiveBendingForm, "EffectiveBendingForm.voigt3", np.eye(3),
        np.eye(2)),
    "StrainForm.voigt": (StrainForm, "StrainForm.voigt", np.eye(6),
                         np.eye(3)),
    "isotropy_defect.form": (
        isotropy_defect, "isotropy_defect: form", np.eye(3), np.eye(4)),
    "birkhoff_average.f_table": (
        lambda v: birkhoff_average(STRIPES, v, WINDOW, [0.5, 0.25]),
        "f_table", [0.0, 1.0], [[0.0, 1.0]]),
    "birkhoff_average.epsilons": (
        lambda v: birkhoff_average(STRIPES, [0, 1], WINDOW, v),
        "birkhoff_average: epsilons", [0.5, 0.25], 0.5),
    "birkhoff_average.window": (
        lambda v: birkhoff_average(STRIPES, [0, 1], v, [0.5]),
        "birkhoff_average: window", WINDOW, WINDOW[:3]),
    "IsometrySpec.domain": (
        lambda v: IsometrySpec("flat", v), "IsometrySpec: domain",
        (0, 0, 1, 1), (0, 0, 1, 1, 2)),
    "RecoveryConfig.h_schedule": (
        lambda v: RecoveryConfig(h_schedule=v), "RecoveryConfig: h_schedule",
        [0.2, 0.1], 0.2),
    "decompose_second_order.A": (
        decompose_second_order, "decompose_second_order: A",
        np.zeros((4, 4, 2, 2)), np.zeros((4, 4, 2))),
    "div_cof_residual.grad": (
        lambda v: div_cof_residual(np.zeros((4, 4, 2)), grad=v),
        "div_cof_residual: grad", np.eye(2), np.eye(3)),
}


def _raises_naming(call, value, name):
    with pytest.raises(ConfigError) as info:
        call(value)
    assert name in str(info.value)


def _bad_scalars(valid, out_of_range):
    return {"bool": True, "numeric string": str(valid), "nan": math.nan,
            "inf": math.inf, "-inf": -math.inf, "out of range": out_of_range}


@pytest.mark.parametrize("entry", SCALARS)
@pytest.mark.parametrize("kind", list(_bad_scalars(0, 0)))
def test_scalar_refused_naming_its_argument(entry, kind):
    call, name, valid, out_of_range = SCALARS[entry]
    _raises_naming(call, _bad_scalars(valid, out_of_range)[kind], name)


@pytest.mark.parametrize("entry", SCALARS)
def test_scalar_reads_numpy_numbers(entry):
    call, _, valid, _ = SCALARS[entry]
    call(valid)
    if isinstance(valid, int):
        call(np.int64(valid))
        call(np.uint8(valid))
    else:
        call(np.float64(valid))
        call(np.float32(valid))


def _bad_arrays(valid, wrong_shape):
    a = np.asarray(valid)

    def first(x):
        out = a.astype(object)
        out.flat[0] = x
        return out.tolist()

    return {"bool": np.ones(a.shape, dtype=bool).tolist(),
            "bool entry": first(True),      # numpy reads [True, 0.5] as float
            "numeric strings": a.astype(str).tolist(),
            "string entry": first(str(a.flat[0])),
            "object entry": first(None),
            "ragged": [a.tolist(), [1]] if a.ndim == 1 else a.tolist()[:-1]
            + [[1]],
            "nan": first(math.nan), "inf": first(math.inf),
            "wrong shape": wrong_shape}


@pytest.mark.parametrize("entry", ARRAYS)
@pytest.mark.parametrize("kind", list(_bad_arrays([0.0], 0)))
def test_array_refused_naming_its_argument(entry, kind):
    call, name, valid, wrong_shape = ARRAYS[entry]
    _raises_naming(call, _bad_arrays(valid, wrong_shape)[kind], name)


@pytest.mark.parametrize("entry", ARRAYS)
def test_array_reads_numpy_arrays(entry):
    call, _, valid, _ = ARRAYS[entry]
    call(valid)
    a = np.asarray(valid)
    if a.dtype.kind in "iu":
        call(a.astype(np.int32))
        call(a.astype(np.uint16))
    else:
        call(a.astype(np.float32))
        call(np.asarray(valid, dtype=np.float64))


def test_integer_arrays_refuse_floats():
    # a phase 0.7 was loaded as phase 0, and 1.0 is no index either
    for cells in (np.full((2, 2), 0.7), np.ones((2, 2)),
                  np.full((2, 2), 2 ** 63, dtype=np.uint64)):
        _raises_naming(lambda v: PhaseGrid(2, 2, 1.0, v), cells,
                       "PhaseGrid.cell_phase")


@pytest.mark.parametrize("seed", [True, 0.7, -1, "1", np.float64(1.0)])
def test_random_mixed_field_reads_its_seed(seed):
    # True drew seed 1, 0.7 ended in a bare TypeError, -1 in a ValueError
    _raises_naming(lambda v: random_mixed_field(GRID, v), seed,
                   "random_mixed_field: seed")


def test_f_table_by_phase_reads_keys_and_values():
    call = lambda v: birkhoff_average(STRIPES, v, WINDOW, [0.5, 0.25])
    for bad in ({0: 0.0, 1: "1"}, {0: 0.0, 1: True}, {0: 0.0, 1: math.nan},
                {0: 0.0, 1.0: 1.0}, {0: 0.0, "1": 1.0}):
        _raises_naming(call, bad, "f_table")
    series = call({np.int64(0): np.float32(0.0), 1: 1})
    assert series.reference == 0.5


def test_readers_return_plain_values():
    assert type(as_real(np.float32(0.5), "x")) is float
    assert type(as_index(np.int16(3), "x")) is int
    a = np.arange(3.0)
    assert as_array(a, "x") is a                # no copy
    assert as_array([1, 2], "x").dtype == np.float64
    assert as_array([1, 2], "x", integer=True).dtype == np.int64
    assert as_array(a, "x", (None,)).shape == (3,)
    with pytest.raises(ConfigError, match="x must lie in \\(0, 1\\)"):
        as_real(1.0, "x", 0, 1)
    with pytest.raises(ConfigError, match="x must be > 0"):
        as_real(0, "x", 0)
    with pytest.raises(ConfigError, match="x must be a finite number"):
        as_real(10 ** 400, "x")
    with pytest.raises(ConfigError, match=r"x must have shape \(n, 2\)"):
        as_array(np.zeros((3, 3)), "x", (None, 2))


# ---------------------------------------------------------------------------
# Refusals that no other test reaches
# ---------------------------------------------------------------------------

def test_periodic_model_refusals():
    for hint in (0.0, -0.5):
        with pytest.raises(ConfigError, match="model.period_hint"):
            MicrostructureModel("periodic_texture", period_hint=hint)
    with pytest.raises(ConfigError, match="model.phase_count"):
        MicrostructureModel("checkerboard", phase_count=3)


def test_voronoi_model_needs_an_intensity():
    with pytest.raises(ConfigError, match="model.intensity"):
        MicrostructureModel("poisson_voronoi")


def test_model_from_dict_takes_the_constructor_defaults():
    m = MicrostructureModel.from_dict({"kind": "checkerboard"})
    assert (m.phase_count, m.period_hint) == (2, 1.0)
    with pytest.raises(TypeError):
        MicrostructureModel.from_dict({"kind": "checkerboard", "tiles": 4})


def test_material_table_names_a_missing_key():
    with pytest.raises(ConfigError, match="materials\\[1\\]: missing key 'mu'"):
        material_table([{"phase_id": 0, "mu": 1.0, "lambda": 1.0},
                        {"phase_id": 1, "lambda": 1.0}])


def test_coercivity_refuses_an_indefinite_form():
    voigt = np.eye(6)
    voigt[0, 0] = -1.0
    with pytest.raises(ConfigError, match="not positive definite"):
        coercivity_constants(StrainForm(voigt))


@pytest.mark.parametrize("top", ["[1, 2]", "3", "\"grid\"", "null"])
def test_config_top_level_must_be_an_object(tmp_path, capsys, top):
    path = tmp_path / "cfg.json"
    path.write_text(top)
    out = tmp_path / "o.json"
    assert main(["generate", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config: top level must be an object" in err
    assert not out.exists()
