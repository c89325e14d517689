"""CLI driver: configs in, canonical artifacts out, honest exit codes."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from platecell import CellCorrectorSource, cellsolve, cli, decomposition
from platecell import recovery
from platecell.cli import main
from platecell import MicrostructureModel, material_table, rasterize, \
    sample_realization
from platecell.fileio import read_field, write_field
from oracles import phase_grid_from_dict, read_json, \
    single_phase_bending_discrete

MATS_ONE = [{"phase_id": 0, "mu": 1.0, "lambda": 1.0},
            {"phase_id": 1, "mu": 1.0, "lambda": 1.0}]
MATS_TWO = [{"phase_id": 0, "mu": 1.0, "lambda": 1.0},
            {"phase_id": 1, "mu": 5.0, "lambda": 5.0}]
CHECKER = {"kind": "checkerboard", "period_hint": 0.5}
VORONOI = {"kind": "poisson_voronoi", "intensity": 8.0}
GRID = {"n1": 4, "n2": 4, "n3": 4, "gamma": 1.0, "L": 1.0}


# written as the bare JSON literal 1e999, which json.load reads as inf
# (json.dumps(inf) writes Infinity, which the CLI refuses before any field)
RAW_1E999 = "raw 1e999"


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg).replace(json.dumps(RAW_1E999), "1e999"))
    return str(path)


def run(command, cfg_path, out, *extra):
    return main([command, "--config", cfg_path, "--out", str(out)]
                + list(extra))


# ---------------------------------------------------------------------------
# Validation and exit codes
# ---------------------------------------------------------------------------

def test_missing_materials_names_block(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"model": CHECKER, "grid": GRID, "seed": 0})
    assert run("effective", cfg, tmp_path / "out.json") == 2
    assert "materials" in capsys.readouterr().err


def test_invalid_json_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{ this is not json")
    assert run("effective", str(path), tmp_path / "out.json") == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_unreadable_config(tmp_path, capsys):
    assert run("effective", str(tmp_path / "nope.json"),
               tmp_path / "out.json") == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["absent.field", "."],
                         ids=["missing", "directory"])
def test_unreadable_field_file_is_a_field_error(tmp_path, capsys, name):
    cfg = write_cfg(tmp_path, {"grid": GRID, "field": str(tmp_path / name)})
    assert run("decompose", cfg, tmp_path / "o.json") == 2
    err = capsys.readouterr().err
    assert "field: cannot read" in err
    assert "cannot read config" not in err


def test_unwritable_output_is_not_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"model": CHECKER, "seed": 0, "L": 1.0})
    assert run("generate", cfg, tmp_path / "no_dir" / "o.json") == 2
    err = capsys.readouterr().err
    assert "cannot write output" in err
    assert "cannot read config" not in err


@pytest.mark.parametrize("tol", [True, 0, 1, 1e300, "1e-8"])
@pytest.mark.parametrize("command", ["effective", "decompose"])
def test_tol_must_be_a_number_in_unit_interval(tmp_path, capsys, command,
                                               tol):
    cfg = write_cfg(tmp_path, {"model": CHECKER, "grid": GRID, "seed": 0,
                               "materials": MATS_ONE, "tol": tol})
    assert run(command, cfg, tmp_path / "o.json") == 2
    assert "tol: must be a number in (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_unknown_command(tmp_path):
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "x.json"])


def test_thread_count_validated(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"model": CHECKER, "seed": 0, "L": 1.0})
    assert run("generate", cfg, tmp_path / "o.json", "--threads", "0") == 2
    assert "--threads" in capsys.readouterr().err


def test_solve_cell_missing_load(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"model": CHECKER, "grid": GRID, "seed": 0,
                               "materials": MATS_ONE})
    assert run("solve-cell", cfg, tmp_path / "o.json") == 2
    assert "load" in capsys.readouterr().err


def test_grid_needs_a_side_length(tmp_path, capsys):
    grid = {k: v for k, v in GRID.items() if k != "L"}
    cfg = write_cfg(tmp_path, {"model": CHECKER, "grid": grid, "seed": 0,
                               "materials": MATS_ONE})
    assert run("effective", cfg, tmp_path / "o.json") == 2
    assert "grid.L" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def test_generate_with_raster(tmp_path):
    cfg_dict = {"model": CHECKER, "seed": 0, "L": 1.0,
                "raster": {"n1": 4, "n2": 4}}
    cfg = write_cfg(tmp_path, cfg_dict)
    out = tmp_path / "gen.json"
    assert run("generate", cfg, out) == 0
    payload = read_json(out)
    assert payload["command"] == "generate"
    assert payload["config"] == cfg_dict        # full config echo
    assert isinstance(payload["version"], str)
    assert payload["realization"]["points"] == []
    pg = phase_grid_from_dict(payload["phase_grid"])
    want = (np.add.outer(np.arange(4) // 2, np.arange(4) // 2) % 2)
    npt.assert_array_equal(pg.cell_phase, want)


def test_effective_single_phase_matches_analytic(tmp_path):
    cfg = write_cfg(tmp_path, {"model": CHECKER, "grid": GRID, "seed": 0,
                               "materials": MATS_ONE, "tol": 1e-10})
    out = tmp_path / "eff.json"
    assert run("effective", cfg, out) == 0
    payload = read_json(out)
    got = np.asarray(payload["voigt3"]).reshape(3, 3)
    npt.assert_allclose(got, single_phase_bending_discrete(1.0, 1.0, 4),
                        atol=1e-7)
    assert len(payload["voigt6"]) == 36
    assert "wall_time" in payload               # no --deterministic flag
    assert payload["asymmetry"] <= 1e-12
    # the parities decouple exactly: voigt3 is the bending block of voigt6
    voigt6 = np.asarray(payload["voigt6"]).reshape(6, 6)
    assert (got == voigt6[3:, 3:]).all()
    assert (voigt6[:3, 3:] == 0.0).all() and (voigt6[3:, :3] == 0.0).all()


def test_indefinite_tensor_exits_1_without_traceback(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setattr(cellsolve.CellOperator, "closure",
                        lambda self, loads, X: -np.eye(len(loads)))
    cfg = write_cfg(tmp_path, {"model": CHECKER, "grid": GRID, "seed": 0,
                               "materials": MATS_TWO})
    out = tmp_path / "eff.json"
    assert run("effective", cfg, out) == 1
    err = capsys.readouterr().err
    assert "numerical failure: coupled tensor is not positive definite" in err
    assert "Traceback" not in err
    assert not out.exists()
    failure = read_json(str(out) + ".failure.json")
    assert failure["error"] == "NumericalError"
    assert failure["message"].startswith(
        "coupled tensor is not positive definite")
    assert failure["message"] in err
    assert not os.path.exists(str(out) + ".residuals.json")


def test_zero_point_draw_exits_1_with_failure_sidecar(tmp_path, capsys):
    model = {"kind": "poisson_voronoi", "intensity": 1e-12}
    cfg = write_cfg(tmp_path, {"model": model, "seed": 0, "L": 1.0})
    out = tmp_path / "gen.json"
    assert run("generate", cfg, out) == 1
    err = capsys.readouterr().err
    assert "degenerate realization: Poisson draw returned zero points" in err
    assert "Traceback" not in err
    assert not out.exists()
    failure = read_json(str(out) + ".failure.json")
    assert failure["error"] == "DegenerateRealizationError"
    assert failure["message"].startswith("Poisson draw returned zero points")
    assert not os.path.exists(str(out) + ".residuals.json")


def test_effective_accepts_box_side_alias(tmp_path):
    grid = {"n1": 4, "n2": 4, "n3": 2, "gamma": 1.0, "box_side": 1.0}
    cfg = write_cfg(tmp_path, {"model": CHECKER, "grid": grid, "seed": 0,
                               "materials": MATS_TWO})
    assert run("effective", cfg, tmp_path / "eff.json") == 0


def test_effective_rescale_check_at_unit_gamma(tmp_path):
    cfg = write_cfg(tmp_path, {"model": CHECKER, "grid": GRID, "seed": 0,
                               "materials": MATS_TWO, "rescale_check": True})
    out = tmp_path / "eff.json"
    assert run("effective", cfg, out) == 0
    assert read_json(out)["rescale_discrepancy"] == 0.0


def test_rescale_check_reuses_the_coupled_bending_block(tmp_path,
                                                        monkeypatch):
    # formulation A of the check is the coupled tensor's bending block, so
    # `effective` builds one operator per parity plus formulation B's, and
    # writes the payload of the check solving A again on its own
    cfg = json.loads((Path(__file__).resolve().parent.parent / "demos"
                      / "configs" / "checkerboard_contrast5.json").read_text())
    path = write_cfg(tmp_path, dict(cfg, rescale_check=True))
    out = tmp_path / "eff.json"
    built = []
    init = cellsolve.CellOperator.__init__

    def counting_init(self, grid, *args):
        built.append((grid.n1, grid.n2))
        init(self, grid, *args)

    monkeypatch.setattr(cellsolve.CellOperator, "__init__", counting_init)
    assert run("effective", path, out, "--deterministic") == 0
    assert built == [(8, 8), (8, 8), (16, 16)]
    reused = out.read_bytes()

    def solving_again(form, grid, phases, materials, tol):
        return cellsolve.gamma_rescale_check(grid, phases, materials, tol=tol)

    built.clear()
    monkeypatch.setattr(cli, "rescale_discrepancy", solving_again)
    assert run("effective", path, out, "--deterministic") == 0
    assert built == [(8, 8), (8, 8), (8, 8), (16, 16)]
    assert out.read_bytes() == reused


def test_sweep_gamma_single_phase_is_flat(tmp_path):
    grid = {"n1": 4, "n2": 4, "n3": 2, "gamma": 1.0, "L": 1.0}
    cfg = write_cfg(tmp_path, {"model": CHECKER, "grid": grid, "seed": 0,
                               "materials": MATS_ONE, "tol": 1e-10,
                               "gammas": [0.5, 1.0, 2.0]})
    out = tmp_path / "sweep.json"
    assert run("sweep-gamma", cfg, out) == 0
    payload = read_json(out)
    assert payload["max_spread"] <= 1e-8
    assert len(payload["voigt3_per_gamma"]) == 3


def test_solve_cell_writes_field(tmp_path):
    cfg = write_cfg(tmp_path, {"model": CHECKER, "grid": GRID, "seed": 0,
                               "materials": MATS_TWO,
                               "load": {"G": [[1.0, 0.0], [0.0, 1.0]]}})
    out = tmp_path / "cell.json"
    assert run("solve-cell", cfg, out) == 0
    payload = read_json(out)
    values, header = read_field(payload["field_file"])
    assert values.shape == (4, 4, 5, 3)
    assert header["L"] == 1.0
    assert payload["cg_residuals"][-1] <= 1e-8


def test_solver_failure_exits_1_with_residual_history(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"model": CHECKER, "grid": GRID, "seed": 0,
                               "materials": MATS_TWO, "tol": 1e-30,
                               "load": {"G": [[1.0, 0.4], [0.4, -0.2]]}})
    out = tmp_path / "cell.json"
    assert run("solve-cell", cfg, out) == 1
    err = capsys.readouterr().err
    assert "numerical failure" in err
    sidecar = read_json(str(out) + ".residuals.json")
    assert len(sidecar["residual_history"]) > 1
    assert not os.path.exists(str(out) + ".failure.json")


def test_ergodic_command(tmp_path):
    cfg = write_cfg(tmp_path, {
        "model": CHECKER, "seed": 0, "L": 1.0,
        "window": [0.0, 0.0, 1.0, 1.0],
        "epsilons": [0.5, 0.25, 0.125],
        "f_table": {"0": 0.0, "1": 1.0},
    })
    out = tmp_path / "erg.json"
    assert run("ergodic", cfg, out) == 0
    payload = read_json(out)
    assert payload["reference"] == 0.5
    assert len(payload["averages"]) == 3
    assert isinstance(payload["rate_ok"], bool)
    rows = (tmp_path / "erg.json.csv").read_text().strip().splitlines()
    assert len(rows) == 4


def test_decompose_command(tmp_path):
    cfg = write_cfg(tmp_path, {"grid": GRID, "seed": 3,
                               "write_potential": True})
    out = tmp_path / "dec.json"
    assert run("decompose", cfg, out) == 0
    payload = read_json(out)
    report = payload["report"]
    for key in ("pot_sol", "pot_mean", "sol_mean", "pythagoras"):
        assert report[key] <= 1e-8
    psi, _ = read_field(payload["psi_file"])
    assert psi.shape == (4, 4, 5, 3)


def test_decompose_unreachable_tol_exits_1_with_sidecar(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"grid": GRID, "seed": 3, "tol": 1e-30})
    out = tmp_path / "dec.json"
    assert run("decompose", cfg, out) == 1
    assert "numerical failure" in capsys.readouterr().err
    history = read_json(str(out) + ".residuals.json")["residual_history"]
    assert history[0] == [1.0] and history[1][0] > 1e-30
    assert not out.exists()


def _field_file(tmp_path, grid, values):
    """A field file of `values` written on the grid `grid` (a GRID dict)."""
    path = tmp_path / "in.field"
    write_field(path, values, cellsolve.RVEGrid(
        grid["n1"], grid["n2"], grid["n3"], grid["gamma"], grid["L"]))
    return str(path)


def test_decompose_reads_a_field_file(tmp_path):
    # the split of a field file is the split of its values, in process
    values = np.random.default_rng(8).normal(size=(4, 4, 5, 3))
    cfg = write_cfg(tmp_path, {"grid": GRID,
                               "field": _field_file(tmp_path, GRID, values)})
    out = tmp_path / "dec.json"
    assert run("decompose", cfg, out) == 0
    grid = cellsolve.RVEGrid(4, 4, 4, 1.0, 1.0)
    field = decomposition.to_gauss(decomposition.MixedField(values, grid))
    dec = decomposition.decompose_mixed(field, tol=1e-10)
    payload = read_json(out)
    assert payload["mean"] == [float(v) for v in dec.mean]
    assert payload["report"] == {
        k: float(v) for k, v in
        decomposition.orthogonality_report(field, dec).items()}


@pytest.mark.parametrize("key,value", [("L", 2.0), ("n3", 2), ("n1", 8)])
def test_decompose_refuses_a_field_of_another_grid(tmp_path, capsys, key,
                                                    value):
    # the file's grid must be the config's: a field written on L = 2 was
    # decomposed on L = 1 before; gamma does not enter the split
    written = dict(GRID, **{key: value}, gamma=3.0)
    values = np.zeros((written["n1"], written["n2"], written["n3"] + 1, 3))
    cfg = write_cfg(tmp_path, {"grid": GRID,
                               "field": _field_file(tmp_path, written,
                                                    values)})
    out = tmp_path / "dec.json"
    assert run("decompose", cfg, out) == 2
    err = capsys.readouterr().err
    assert "config error: field: the file's grid" in err
    assert "Traceback" not in err and not out.exists()


def test_decompose_refuses_a_field_file_with_nan(tmp_path, capsys):
    # a NaN reached the splitting, whose residual history then failed to
    # serialize into a traceback
    values = np.zeros((4, 4, 5, 3))
    values[1, 2, 3, 0] = np.nan
    cfg = write_cfg(tmp_path, {"grid": GRID,
                               "field": _field_file(tmp_path, GRID, values)})
    out = tmp_path / "dec.json"
    assert run("decompose", cfg, out) == 2
    err = capsys.readouterr().err
    assert "config error: field: malformed field file" in err
    assert "values must be finite" in err
    assert "Traceback" not in err and not out.exists()
    assert not os.path.exists(str(out) + ".residuals.json")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")    # the overflow
def test_decompose_overflow_exits_1_with_failure_sidecar(tmp_path, capsys):
    # finite values of 1e300 overflow the splitting's residual to nan, which
    # a residual-history sidecar cannot hold
    values = np.random.default_rng(8).normal(size=(4, 4, 5, 3)) * 1e300
    cfg = write_cfg(tmp_path, {"grid": GRID,
                               "field": _field_file(tmp_path, GRID, values)})
    out = tmp_path / "dec.json"
    assert run("decompose", cfg, out) == 1
    err = capsys.readouterr().err
    assert "numerical failure: decompose_mixed" in err
    assert "Traceback" not in err and not out.exists()
    assert not os.path.exists(str(out) + ".residuals.json")
    assert read_json(str(out) + ".failure.json")["error"] == \
        "ConvergenceError"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")    # the overflow
@pytest.mark.parametrize("command", ["effective", "solve-cell"])
def test_overflowing_solve_exits_1_with_failure_sidecar(tmp_path, capsys,
                                                         command):
    # moduli of 1e300 overflow the element kernels; the PCG read the NaN
    # residual as converged and the run ended writing a 0-byte artifact
    mats = [dict(MATS_TWO[0]), {"phase_id": 1, "mu": 1e300, "lambda": 1e300}]
    cfg = write_cfg(tmp_path, {"model": CHECKER, "grid": GRID, "seed": 0,
                               "materials": mats,
                               "load": {"G": [[1.0, 0.0], [0.0, 0.0]]}})
    out = tmp_path / "o.json"
    assert run(command, cfg, out) == 1
    err = capsys.readouterr().err
    assert "numerical failure: PCG: relative residual" in err
    assert "not finite" in err and "Traceback" not in err
    failure = read_json(str(out) + ".failure.json")
    assert failure["error"] == "NumericalError"
    assert not out.exists()


@pytest.mark.parametrize("side", [1e-200, 1e300])
def test_singular_reference_symbol_exits_1_with_failure_sidecar(
        tmp_path, capsys, side):
    # element sizes of 1e-200 overflow the kernels and of 1e300 underflow
    # them, so the reference medium's symbol cannot be inverted; the run
    # ended in a bare LinAlgError traceback with no sidecar.  Overflowing
    # kernels are refused before they are folded, so no numpy warning (an
    # error in this suite) comes before the failure line
    cfg = json.loads((CONFIGS / "checkerboard_contrast5.json").read_text())
    cfg["grid"]["L"] = side
    cfg["model"]["period_hint"] = side / 2
    out = tmp_path / "eff.json"
    assert run("effective", write_cfg(tmp_path, cfg), out,
               "--deterministic") == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "reference-medium symbol on RVEGrid(8x8x4, gamma=2, L=%g) is " \
        "singular or not finite" % side in err
    failure = read_json(str(out) + ".failure.json")
    assert failure["error"] == "NumericalError"
    assert "box side %g" % side in failure["message"]
    assert failure["message"] in err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["checkerboard", "periodic_texture"])
@pytest.mark.parametrize("command", ["generate", "effective"])
def test_box_holding_no_period_exits_2(tmp_path, capsys, kind, command):
    # a 1e-10 box holds no period of 0.5; every phase read 0 after numpy's
    # "divide by zero encountered in remainder"
    cfg = {"model": {"kind": kind, "period_hint": 0.5}, "seed": 0}
    if command == "generate":
        cfg["L"] = 1e-10
    else:
        cfg.update(grid=dict(GRID, L=1e-10), materials=MATS_TWO)
    out = tmp_path / "o.json"
    assert run(command, write_cfg(tmp_path, cfg), out) == 2
    err = capsys.readouterr().err
    assert "config error: " in err and "holds no whole period" in err
    assert "Traceback" not in err and not out.exists()


def test_effective_rescale_check_below_unit_gamma(tmp_path):
    # gamma = 1/2 coarsens the medium for formulation B; `effective` reuses
    # its bending block and reports gamma_rescale_check's discrepancy
    grid = dict(GRID, n1=8, n2=8, n3=2, gamma=0.5)
    model = {"kind": "checkerboard", "period_hint": 0.25}
    cfg = write_cfg(tmp_path, {"model": model, "grid": grid, "seed": 0,
                               "materials": MATS_TWO, "rescale_check": True})
    out = tmp_path / "eff.json"
    assert run("effective", cfg, out) == 0
    r = sample_realization(MicrostructureModel(**model), 0, 1.0)
    d = cellsolve.gamma_rescale_check(
        cellsolve.RVEGrid(8, 8, 2, 0.5, 1.0), rasterize(r, 8, 8),
        material_table(MATS_TWO))
    assert read_json(out)["rescale_discrepancy"] == d > 0


def test_decompose_interpolates_the_field_once(tmp_path, monkeypatch):
    # the splitting and its report share one Gauss-layout field
    nodal_inputs = []
    interpolate = decomposition.to_gauss

    def counting(field):
        if field.layout == "nodes":
            nodal_inputs.append(field)
        return interpolate(field)

    monkeypatch.setattr(decomposition, "to_gauss", counting)
    monkeypatch.setattr(cli, "to_gauss", counting)
    cfg = write_cfg(tmp_path, {"grid": GRID, "seed": 3})
    assert run("decompose", cfg, tmp_path / "dec.json") == 0
    assert len(nodal_inputs) == 1


def test_decompose_bytes_independent_of_blas_threads(tmp_path):
    # a BLAS dot product splits its sum across threads; each child process
    # sets its own OpenBLAS thread count
    grid = {"n1": 48, "n2": 48, "n3": 4, "gamma": 1.0, "L": 1.0}
    cfg = write_cfg(tmp_path, {"grid": grid, "seed": 7,
                               "write_potential": True})
    out = tmp_path / "dec.json"
    src = str(Path(cli.__file__).resolve().parents[1])
    artifacts = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; from platecell.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "decompose", "--config", cfg, "--out", str(out),
             "--deterministic"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        artifacts.append((out.read_bytes(),
                          (tmp_path / "dec.json.psi.field").read_bytes()))
    assert artifacts[0] == artifacts[1]


def test_recovery_command(tmp_path):
    grid = {"n1": 4, "n2": 4, "n3": 2, "gamma": 1.0, "L": 1.0}
    cfg_dict = {"model": CHECKER, "grid": grid, "seed": 0,
                "materials": MATS_ONE,
                "isometry": {"kind": "cylinder", "radius": 1.0},
                "recovery": {"h_schedule": [0.4, 0.2]}}
    cfg = write_cfg(tmp_path, cfg_dict)
    out = tmp_path / "rec.json"
    assert run("recovery", cfg, out) == 0
    payload = read_json(out)
    npt.assert_allclose(payload["limit_energy"],
                        single_phase_bending_discrete(1.0, 1.0, 2)[0, 0],
                        rtol=1e-7)
    assert payload["gaps"][1] < payload["gaps"][0]
    # schedule is mandatory for the sweep
    del cfg_dict["recovery"]["h_schedule"]
    cfg = write_cfg(tmp_path, cfg_dict, name="cfg2.json")
    assert run("recovery", cfg, out) == 2


# ---------------------------------------------------------------------------
# Determinism and threading
# ---------------------------------------------------------------------------

def test_deterministic_runs_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, {"model": VORONOI, "grid": GRID, "seed": 5,
                               "materials": MATS_TWO})
    out = tmp_path / "eff.json"
    assert run("effective", cfg, out, "--deterministic") == 0
    first = out.read_bytes()
    payload = read_json(out)
    assert "wall_time" not in payload
    assert "wall_time" in read_json(str(out) + ".timing.json")
    assert run("effective", cfg, out, "--deterministic") == 0
    assert out.read_bytes() == first


def test_isotropy_thread_count_invisible(tmp_path):
    grid = {"n1": 4, "n2": 4, "n3": 2, "gamma": 1.0, "L": 2.0}
    cfg = write_cfg(tmp_path, {"model": VORONOI, "grid": grid,
                               "seeds": [0, 1, 2], "materials": MATS_TWO})
    out = tmp_path / "iso.json"
    assert run("isotropy", cfg, out, "--deterministic", "--threads", "1") == 0
    first = out.read_bytes()
    first_csv = (tmp_path / "iso.json.csv").read_bytes()
    assert run("isotropy", cfg, out, "--deterministic", "--threads", "4") == 0
    assert out.read_bytes() == first
    assert (tmp_path / "iso.json.csv").read_bytes() == first_csv
    payload = read_json(out)
    assert payload["rotations"] == 8
    assert len(payload["per_seed_defects"]) == 3


# ---------------------------------------------------------------------------
# Malformed fields: exit 2 naming the field, before any numerical work
# ---------------------------------------------------------------------------

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
DELETE = object()
BIG = 10 ** 17      # past any 64-bit address space: fails whatever the
                    # kernel's overcommit policy


def probe_base(command):
    """A valid config for `command`, built on the shipped checkerboard."""
    if command == "ergodic":
        return {"model": {"kind": "checkerboard", "period_hint": 1},
                "seed": 0, "L": 2, "window": [0.1, 0.1, 1.1, 0.9],
                "epsilons": [0.5, 0.25, 0.125], "f_table": [0, 1]}
    cfg = json.loads((CONFIGS / "checkerboard_contrast5.json").read_text())
    cfg.update({
        "generate": {"L": 1.0, "raster": {"n1": 8, "n2": 8}},
        "solve-cell": {"load": {"G": [[1, 0], [0, 0]]}},
        "isotropy": {"seeds": [0, 1]},
        "sweep-gamma": {"gammas": [1, 2]},
        "recovery": {"isometry": {"kind": "cylinder", "radius": 1},
                     "recovery": {"h_schedule": [0.4, 0.2]}},
    }.get(command, {}))
    return cfg


def set_path(cfg, path, value):
    *blocks, key = [int(k) if k.isdigit() else k
                    for k in path.replace("[", ".").replace("]", "")
                    .split(".")]
    for k in blocks:
        cfg = cfg[k]
    if value is DELETE:
        del cfg[key]
    else:
        cfg[key] = value


def write_field_file(path, header):
    path.write_text(json.dumps(header) + "\n")
    with open(path, "ab") as fh:
        fh.write(np.zeros((8, 8, 5, 3)).tobytes())
    return str(path)


PROBES = [
    # (command, path, value, text stderr must contain)
    ("effective", "materials[0].mu", "x", "materials[0].mu"),
    ("effective", "model.kind", DELETE, "model.kind"),
    ("effective", "model.phase_count", "two", "model.phase_count"),
    ("solve-cell", "load.B", [[1, 0], [0]], "load.B"),
    ("isotropy", "rotations", "8", "rotations"),
    ("recovery", "isometry", 3, "isometry: must be an object"),
    ("recovery", "recovery.h_schedule", "0.1", "recovery.h_schedule"),
    ("ergodic", "window", ["a", 0, 1, 1], "window"),
    ("ergodic", "epsilons", ["x"], "epsilons"),
    ("generate", "raster", 8, "raster: must be an object"),
    ("recovery", "isometry.domain", [0, 0, 1], "isometry.domain"),
    ("recovery", "recovery", [1], "recovery: must be an object"),
    ("effective", "grid.n1", 8.5, "grid.n1"),
    ("effective", "grid.n1", 8.0, "grid.n1"),
    ("effective", "grid.n1", "8", "grid.n1"),
    ("effective", "grid.gamma", "2", "grid.gamma"),
    ("effective", "grid.gamma", True, "grid.gamma"),
    ("solve-cell", "load", [1, 2], "load: must be an object"),
    ("generate", "raster.n1", 8.5, "raster.n1"),
    ("sweep-gamma", "gammas", [True, 2], "gammas"),
    ("effective", "rescale_check", "false", "rescale_check"),
    ("recovery", "recovery.h_schedule", [0.2, 0.4], "recovery.h_schedule"),
    ("recovery", "recovery.corrector_tol", "1e-10", "recovery.corrector_tol"),
    ("effective", "materials[0].phase_id", 0.5, "materials[0].phase_id"),
    ("effective", "model.period_hint", "0.5", "model.period_hint"),
    ("decompose", "write_potential", "no", "write_potential"),
    ("effective", "grid.gamma", float("nan"), "NaN is not a JSON number"),
    ("effective", "comment", float("inf"), "Infinity is not a JSON number"),
    ("effective", "grid", {"n1": BIG, "n2": BIG, "n3": 4, "gamma": 2.0,
                           "L": 1.0}, "needs more memory"),
    ("decompose", "field", {"n1": "8", "n2": 8, "n3": 4}, "field: malformed"),
    ("decompose", "field", {"n1": 8.5, "n2": 8, "n3": 4}, "field: malformed"),
    ("ergodic", "f_table", {"0": 0, "1": 1, "5": 2}, "f_table"),
    ("recovery", "isometry", {"kind": "flat"}, "isometry"),
    ("solve-cell", "load.G", [[RAW_1E999, 0], [0, 0]], "load.G"),
    ("effective", "grid.gamma", RAW_1E999, "grid.gamma"),
    ("effective", "materials[0].mu", RAW_1E999, "materials[0].mu"),
    ("effective", "grid.L", 10 ** 400, "grid.L"),
    ("recovery", "isometry.radius", -1.0, "isometry.radius"),
    ("ergodic", "f_table", [0, 1, 7], "f_table"),
    ("ergodic", "epsilons", [0.5, 0.25],
     "epsilons: must be a list of at least 3 numbers"),
    # "01" names phase 1 a second time
    ("ergodic", "f_table", {"0": 0, "1": 1, "01": 5}, "f_table"),
    # a gamma the grid would refuse is the list's fault, not the grid's
    ("sweep-gamma", "gammas", [0.0, 1.0],
     "gammas: must be a list of numbers > 0"),
    # ranges that birkhoff_average checks, reported under their fields
    ("ergodic", "step", 0.3, "step: 0.3 does not resolve scale 0.25"),
    ("ergodic", "window", [1.1, 0.1, 0.1, 0.9],
     "window: [1.1, 0.1, 0.1, 0.9] is empty"),
    ("ergodic", "epsilons", [0.5, 0.25, 0.25],
     "epsilons: must be positive and strictly decreasing"),
]


@pytest.mark.parametrize("command,path,value,text", PROBES,
                         ids=["%s-%s-%d" % (p[0], p[1], k)
                              for k, p in enumerate(PROBES)])
def test_malformed_field_exits_2_naming_it(tmp_path, capsys, command, path,
                                           value, text):
    cfg = probe_base(command)
    if path == "field":
        value = write_field_file(tmp_path / "in.field", value)
    set_path(cfg, path, value)
    out = tmp_path / "o.json"
    assert run(command, write_cfg(tmp_path, cfg), out) == 2
    err = capsys.readouterr().err
    assert err.startswith("platecell: config error: ")
    assert text in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "solve-cell", "effective",
                                     "sweep-gamma", "isotropy", "ergodic",
                                     "decompose", "recovery"])
def test_probe_bases_are_valid(tmp_path, command):
    cfg = write_cfg(tmp_path, probe_base(command))
    assert run(command, cfg, tmp_path / "o.json") == 0


def test_fields_are_checked_before_the_ensemble_is_solved(tmp_path, capsys,
                                                          monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("ensemble solved before the config was read")

    monkeypatch.setattr("platecell.cli.ensemble_effective", fail)
    cfg = probe_base("isotropy")
    cfg["rotations"] = "8"
    assert run("isotropy", write_cfg(tmp_path, cfg), tmp_path / "o.json") == 2
    assert "rotations: must be an integer >= 8" in capsys.readouterr().err


def test_every_config_field_is_documented():
    # both ways: every field of the table behind the CLI is a row of
    # README's config table, and every path there is a field, or the
    # "box_side" spelling of an "L" field that the reader accepts
    readme = (CONFIGS.parent.parent / "README.md").read_text()
    section = readme.split("## Config fields")[1].split("\n## ")[0]
    documented, aliases = set(), set()
    for cell in re.findall(r"^\| (.+?) \|", section, re.M):
        paths, _, alias = cell.partition(" (or ")
        documented.update(re.findall(r"`([^`]+)`", paths))
        aliases.update(re.findall(r"`([^`]+)`", alias))
    fields = set(cli._FIELDS)
    assert fields - documented == set()
    assert documented - fields == set()
    assert aliases == {p[:-1] + "box_side" for p in fields
                       if p.rpartition(".")[2] == "L"}


@pytest.mark.parametrize("n,gamma,period,text", [
    (4, 0.75, 0.5, "= 3 x 3: n1, n2 must be even"),
    (4, 0.3, 0.5, "= 1.2 x 1.2 is not integral"),
    (8, 0.5, 0.125, "= 4 x 4: phase grid is not constant on 2-element"),
])
def test_rescale_check_refuses_formulation_b_before_any_solve(
        tmp_path, capsys, monkeypatch, n, gamma, period, text):
    # the user's grid is fine; formulation B's, gamma*n1 x gamma*n2, is not
    def fail(*args, **kwargs):
        raise AssertionError("solved before formulation B was checked")

    monkeypatch.setattr("platecell.cli.coupled_tensor", fail)
    grid = dict(GRID, n1=n, n2=n, n3=2, gamma=gamma)
    cfg = write_cfg(tmp_path, {"model": {"kind": "checkerboard",
                                         "period_hint": period},
                               "grid": grid, "seed": 0, "materials": MATS_TWO,
                               "rescale_check": True})
    out = tmp_path / "eff.json"
    assert run("effective", cfg, out) == 2
    err = capsys.readouterr().err
    assert err.startswith("platecell: config error: rescale_check: "
                          "formulation B's grid gamma*n1 x gamma*n2 " + text)
    assert not out.exists()


def test_recovery_corrector_tol_reaches_the_cell_solve(tmp_path,
                                                        monkeypatch):
    # the config key recovery.corrector_tol goes straight to the corrector
    # source, and from it to the one bending solve
    sources, solves = [], []

    class Spy(CellCorrectorSource):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sources.append(self)

    def bending_solve(*args, tol):
        solves.append(tol)
        return cellsolve.bending_solve(*args, tol=tol)

    monkeypatch.setattr("platecell.cli.CellCorrectorSource", Spy)
    monkeypatch.setattr(recovery, "bending_solve", bending_solve)
    cfg = probe_base("recovery")
    for tol, want in ((None, 1e-10), (1e-9, 1e-9)):
        if tol is not None:
            cfg["recovery"]["corrector_tol"] = tol
        assert run("recovery", write_cfg(tmp_path, cfg),
                   tmp_path / "o.json") == 0
        assert [s.tol for s in sources] == solves == [want]
        sources.clear()
        solves.clear()


def test_cli_tour_demo_runs(capsys):
    spec = importlib.util.spec_from_file_location(
        "cli_tour", CONFIGS.parent / "cli_tour.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main_demo()                # exits through SystemExit on a failure
    assert "spread across gamma" in capsys.readouterr().out
