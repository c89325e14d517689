"""Command line driver.

Every subcommand reads one JSON config (--config), runs one pipeline, and
writes canonical JSON (plus CSV / binary field sidecars where natural).
Exit codes: 0 success, 1 numerical failure (non-convergence, degenerate
random draws, indefinite tensors), 2 configuration/usage errors.  A
non-convergence writes its residual history to `<out>.residuals.json`; any
other numerical failure writes `<out>.failure.json` with the error's class
name and message.

With --deterministic the primary artifacts contain no timing or other
run-varying data (wall time goes to a .timing.json sidecar), so repeated runs
of the same config are byte-identical regardless of --threads.
"""

import argparse
import functools
import json
import re
import sys
import time

import numpy as np

from . import __version__
from .cellsolve import CellLoad, EffectiveBendingForm, RVEGrid, \
    _formulation_b, coupled_tensor, effective_form, rescale_discrepancy, \
    solve_corrector
from .decomposition import MixedField, decompose_mixed, orthogonality_report, \
    random_mixed_field, to_gauss
from .ergodic import birkhoff_average, birkhoff_rate, ensemble_effective, \
    isotropy_report
from .errors import ConfigError, ConvergenceError, DegenerateRealizationError, \
    NumericalError, as_index, as_real
from . import fileio
from .material import PhaseMaterial, material_table
from .microstructure import MicrostructureModel, rasterize, sample_realization
from .recovery import CellCorrectorSource, IsometrySpec, RecoveryConfig, \
    build_recovery, recovery_gaps


# ---------------------------------------------------------------------------
# Config fields
# ---------------------------------------------------------------------------

# Every config field the CLI reads: path -> (what it must be, default), where
# a default of ... marks a required field.  "a.b" is key b of block a, and
# "materials[].b" key b of each materials entry.  Ranges that the library
# checks (grid evenness, model kinds and marks, isometry and recovery
# parameters, Birkhoff scales, moduli) are left to it.  Unknown keys are
# ignored: one file serves several subcommands.  "L" may be spelled
# "box_side".  A null counts as absent only where the default is None.
_FIELDS = {
    "seed": ("an integer >= 0", ...),
    "tol": ("a number in (0, 1)", 1e-8),
    "L": ("a number", ...),
    "model": ("an object", ...),
    "model.kind": ("a string", ...),
    "model.phase_count": ("an integer", 2),
    "model.period_hint": ("a number", 1.0),
    "model.intensity": ("a number", None),
    "model.mark_distribution": ("a list of numbers", None),
    "model.resample_on_empty": ("true or false", False),
    "grid": ("an object", ...),
    "grid.n1": ("an integer", ...),
    "grid.n2": ("an integer", ...),
    "grid.n3": ("an integer", ...),
    "grid.gamma": ("a number", ...),
    "grid.L": ("a number", ...),
    "materials": ("a list of objects", ...),
    "materials[].phase_id": ("an integer", ...),
    "materials[].mu": ("a number", ...),
    "materials[].lambda": ("a number", ...),
    "load": ("an object", ...),
    "load.B": ("a 2x2 matrix", None),
    "load.G": ("a 2x2 matrix", None),
    "raster": ("an object", None),
    "raster.n1": ("an integer", ...),
    "raster.n2": ("an integer", ...),
    "rescale_check": ("true or false", False),
    "gammas": ("a list of numbers > 0", ...),
    "seeds": ("a list of integers >= 0", ...),
    "rotations": ("an integer >= 8", 8),
    "window": ("a list of 4 numbers", ...),
    "epsilons": ("a list of at least 3 numbers", ...),
    "f_table": ("a list of numbers or an object of numbers by phase id, "
                "one value per phase", ...),
    "step": ("a number > 0", None),
    "field": ("a string", None),
    "write_potential": ("true or false", False),
    "isometry": ("an object", ...),
    "isometry.kind": ("a string", ...),
    "isometry.domain": ("a list of 4 numbers", (0.0, 0.0, 1.0, 1.0)),
    "isometry.radius": ("a number", None),
    "recovery": ("an object", ...),
    "recovery.h_schedule": ("a list of numbers", ...),
    "recovery.corrector_tol": ("a number in (0, 1)", 1e-10),
}


def _list_of(test, size=None):
    """Test for a nonempty list, of `size` items if given, passing `test`."""
    return lambda v: type(v) is list and len(v) > 0 \
        and size in (None, len(v)) and all(map(test, v))


def _reads(read, *bounds):
    """Test that the errors reader `read` accepts a value within `bounds`."""
    def test(v):
        try:
            return read(v, "", *bounds) is not None
        except ConfigError:
            return False
    return test


_number = _reads(as_real)

# what a field must be -> the test of its JSON value by the errors readers:
# no bool passes for a number, no float for an integer, no string for either
_TYPES = {
    "an integer": _reads(as_index),
    "an integer >= 0": _reads(as_index, 0),
    "an integer >= 8": _reads(as_index, 8),
    "a number": _number,
    "a number > 0": _reads(as_real, 0),
    "a number in (0, 1)": _reads(as_real, 0, 1),
    "true or false": lambda v: type(v) is bool,
    "a string": lambda v: type(v) is str,
    "an object": lambda v: type(v) is dict,
    "a list of objects": _list_of(lambda v: type(v) is dict),
    "a list of numbers": _list_of(_number),
    "a list of numbers > 0": _list_of(_reads(as_real, 0)),
    "a list of at least 3 numbers":
        lambda v: _list_of(_number)(v) and len(v) >= 3,
    "a list of integers >= 0": _list_of(_reads(as_index, 0)),
    "a list of 4 numbers": _list_of(_number, 4),
    "a 2x2 matrix": _list_of(_list_of(_number, 2), 2),
    "a list of numbers or an object of numbers by phase id, one value per "
    "phase":
        lambda v: _list_of(_number)(v) or type(v) is dict and all(
            k.isdecimal() and _number(x) for k, x in v.items())
        # "1" and "01" would both set phase 1
        and len(set(map(int, v))) == len(v),
}


def _read(block, path):
    """The checked value of field `path` (materials[0].mu, say) in `block`."""
    what, default = _FIELDS[re.sub(r"\[\d+\]", "[]", path)]
    key = path.rpartition(".")[2]
    if key == "L" and "L" not in block and "box_side" in block:
        key = "box_side"
        path = path[:-1] + key
    value = block.get(key)
    if value is None and (key not in block or default is None):
        if default is ...:
            raise ConfigError("%s: missing" % path)
        return default
    if not _TYPES[what](value):
        raise ConfigError("%s: must be %s" % (path, what))
    return value


def _block(cfg, name):
    """{key: checked value} over the fields of block `name` (None if absent)."""
    block = _read(cfg, name)
    return block if block is None else {
        path[len(name) + 1:]: _read(block, path)
        for path in _FIELDS if path.startswith(name + ".")}


def _under(path, build, *args, **kwargs):
    """build(*args, **kwargs), a ConfigError from its checks put under `path`,
    or under `path.key` when the check, past its owner's name ("Owner: key
    must be ..."), is on the keyword argument `key`.  An empty `path` is the
    top level: a check on `key` goes under `key`, any other is left as is."""
    try:
        return build(*args, **kwargs)
    except ConfigError as exc:
        msg = str(exc)
        if not path or not msg.startswith(path):
            rest = msg.partition(": ")[2]
            key, _, tail = rest.partition(" ")
            if key in kwargs:
                msg = "%s: %s" % (path + "." + key if path else key, tail)
            elif path:
                msg = "%s: %s" % (path, msg)
        raise ConfigError(msg) from exc


def _grid(cfg):
    g = _block(cfg, "grid")
    return _under("grid", RVEGrid, g["n1"], g["n2"], g["n3"], g["gamma"], g["L"])


def _materials(cfg):
    return _under("materials", material_table, [
        _under("materials[%d]" % k, PhaseMaterial,
               *(_read(item, "materials[%d].%s" % (k, key))
                 for key in ("phase_id", "mu", "lambda")))
        for k, item in enumerate(_read(cfg, "materials"))])


def _model(cfg):
    return _under("model", MicrostructureModel, **_block(cfg, "model"))


def _cell(cfg):
    """Grid, materials and seed of a one-sample run, with the phases of the
    seed's realization on the grid.  Callers read their other fields first."""
    grid, materials, model = _grid(cfg), _materials(cfg), _model(cfg)
    seed = _read(cfg, "seed")
    r = sample_realization(model, seed, grid.box_side)
    return grid, materials, seed, rasterize(r, grid.n1, grid.n2)


# ---------------------------------------------------------------------------
# Artifact plumbing
# ---------------------------------------------------------------------------

def _finish(args, payload, started, config):
    """Echo config + version into the payload and write primary artifact."""
    payload["config"] = config
    payload["command"] = args.command
    payload["version"] = __version__
    wall = time.perf_counter() - started
    if args.deterministic:
        fileio.write_json(args.out + ".timing.json", {"wall_time": wall})
    else:
        payload["wall_time"] = wall
    fileio.write_json(args.out, payload)
    print("platecell %s: wrote %s" % (args.command, args.out))
    return 0


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_generate(args, cfg, started):
    model, seed, box = _model(cfg), _read(cfg, "seed"), _read(cfg, "L")
    raster = _block(cfg, "raster")
    r = _under("L", sample_realization, model, seed, box)
    payload = {"realization": fileio.realization_to_dict(r)}
    if raster is not None:
        pg = _under("raster", rasterize, r, raster["n1"], raster["n2"])
        payload["phase_grid"] = fileio.phase_grid_to_dict(pg)
    return _finish(args, payload, started, cfg)


def _cmd_solve_cell(args, cfg, started):
    load = _under("load", CellLoad, **_block(cfg, "load"))
    tol = _read(cfg, "tol")
    grid, materials, seed, phases = _cell(cfg)
    field = solve_corrector(grid, phases, materials, load, tol=tol)
    fileio.write_field(args.out + ".field", field.values, grid)
    payload = {
        "seed": seed,
        "grid": grid.to_dict(),
        "cg_residuals": [float(v) for v in field.residuals],
        "field_file": args.out + ".field",
    }
    return _finish(args, payload, started, cfg)


def _cmd_effective(args, cfg, started):
    tol, rescale = _read(cfg, "tol"), _read(cfg, "rescale_check")
    grid, materials, seed, phases = _cell(cfg)
    if rescale:                 # refuse a formulation B it cannot build
        _under("rescale_check", _formulation_b, grid, phases)
    ct = coupled_tensor(grid, phases, materials, tol=tol)
    form = EffectiveBendingForm(ct.matrix[3:, 3:])
    payload = fileio.tensor_result_dict(ct, form, grid, extra={"seed": seed})
    if rescale:
        payload["rescale_discrepancy"] = rescale_discrepancy(
            form, grid, phases, materials, tol=tol)
    return _finish(args, payload, started, cfg)


def _cmd_sweep_gamma(args, cfg, started):
    tol, gammas = _read(cfg, "tol"), _read(cfg, "gammas")
    # the realization and its raster depend on seed, box side, n1 and n2 only
    base, materials, seed, phases = _cell(cfg)
    grids = [RVEGrid(base.n1, base.n2, base.n3, g, base.box_side)
             for g in gammas]
    results = []
    for grid in grids:
        form = effective_form(grid, phases, materials, tol=tol)
        results.append([float(v) for v in form.voigt3.ravel()])
    payload = {
        "seed": seed,
        "gammas": [float(g) for g in gammas],
        "voigt3_per_gamma": results,
        "max_spread": float(np.max(np.abs(np.subtract(results, results[0])))),
    }
    return _finish(args, payload, started, cfg)


def _cmd_isotropy(args, cfg, started):
    grid, materials, model = _grid(cfg), _materials(cfg), _model(cfg)
    seeds, rotations, tol = (_read(cfg, path)
                             for path in ("seeds", "rotations", "tol"))
    ens = ensemble_effective(model, materials, grid, seeds, tol=tol,
                             threads=args.threads)
    report = isotropy_report(ens, rotation_count=rotations)
    fileio.write_ensemble_csv(args.out + ".csv", ens,
                              defects=report.ensemble)
    payload = {
        "seeds": seeds,
        "mean_voigt3": [float(v) for v in report.form.voigt3.ravel()],
        "voigt3_std": [float(v) for v in ens.voigt3_std.ravel()],
        "defect": float(report.defect),
        "per_seed_defects": [float(v) for v in report.ensemble],
        "rotations": int(report.rotations_sampled),
        "ensemble_csv": args.out + ".csv",
    }
    return _finish(args, payload, started, cfg)


def _cmd_ergodic(args, cfg, started):
    model, seed, box = _model(cfg), _read(cfg, "seed"), _read(cfg, "L")
    window, epsilons, f_table, step = (
        _read(cfg, path) for path in ("window", "epsilons", "f_table", "step"))
    if isinstance(f_table, dict):
        f_table = {int(k): v for k, v in f_table.items()}
    r = _under("L", sample_realization, model, seed, box)
    series = _under("", birkhoff_average, r, f_table, window=window,
                    epsilons=epsilons, step=step)
    C, ok = birkhoff_rate(series)
    fileio.write_series_csv(args.out + ".csv", series)
    payload = {
        "seed": seed,
        "epsilons": [float(e) for e in series.epsilons],
        "averages": [float(a) for a in series.averages],
        "reference": float(series.reference),
        "errors": [float(e) for e in series.errors],
        "rate_constant": float(C),
        "rate_ok": bool(ok),
        "series_csv": args.out + ".csv",
    }
    return _finish(args, payload, started, cfg)


def _cmd_decompose(args, cfg, started):
    grid, field_file = _grid(cfg), _read(cfg, "field")
    # the potential solve defaults to a tighter tol than the cell solves
    tol = _read({"tol": 1e-10, **cfg}, "tol")
    write_potential = _read(cfg, "write_potential")
    if field_file is None:
        field = random_mixed_field(grid, _read(cfg, "seed"))
    else:
        try:
            values, header = _under("field", fileio.read_field, field_file)
        except OSError as exc:
            raise ConfigError("field: cannot read field file: %s" % exc) \
                from exc
        # gamma does not enter the split, so only the mesh and box must agree
        got = [header[k] for k in ("n1", "n2", "n3", "L")]
        if got != [grid.n1, grid.n2, grid.n3, grid.box_side]:
            raise ConfigError("field: the file's grid n1, n2, n3, L = %s "
                              "differs from the config's %r" % (got, grid))
        field = MixedField(values, grid, layout="nodes")
    # interpolated once, then shared by the splitting and its report
    field = to_gauss(field)
    dec = decompose_mixed(field, tol=tol)
    report = orthogonality_report(field, dec)
    payload = {
        "mean": [float(v) for v in dec.mean],
        "report": {k: float(v) for k, v in report.items()},
        "cg_residual": float(dec.residuals[-1]),
    }
    if write_potential:
        psi = dec.psi[..., None] * np.array([1.0, 0.0, 0.0])
        fileio.write_field(args.out + ".psi.field", psi, grid)
        payload["psi_file"] = args.out + ".psi.field"
    return _finish(args, payload, started, cfg)


def _cmd_recovery(args, cfg, started):
    iso = _under("isometry", IsometrySpec, **_block(cfg, "isometry"))
    rec = _block(cfg, "recovery")
    rcfg = _under("recovery", RecoveryConfig, h_schedule=rec["h_schedule"])
    grid, materials, seed, phases = _cell(cfg)
    source = CellCorrectorSource(grid, phases, materials, rec["corrector_tol"])
    family = build_recovery(iso, rcfg, source)
    gaps = recovery_gaps(family)
    payload = {
        "seed": seed,
        "h_schedule": gaps["h_schedule"],
        "scaled_energies": gaps["scaled"],
        "limit_energy": gaps["limit"],
        "gaps": gaps["gaps"],
    }
    return _finish(args, payload, started, cfg)


_COMMANDS = {
    "generate": (_cmd_generate, "sample a microstructure realization"),
    "solve-cell": (_cmd_solve_cell, "solve one corrector problem"),
    "effective": (_cmd_effective, "effective bending form of one sample"),
    "sweep-gamma": (_cmd_sweep_gamma,
                    "effective forms across thickness ratios"),
    "isotropy": (_cmd_isotropy, "seed ensemble + isotropy defect report"),
    "ergodic": (_cmd_ergodic, "shrinking-scale window averages"),
    "decompose": (_cmd_decompose, "orthogonal splitting of a slab field"),
    "recovery": (_cmd_recovery, "recovery family energies and gaps"),
}


@functools.lru_cache(maxsize=None)
def _build_parser():
    # Built once per process: a parser is a web of reference cycles that only
    # a full garbage collection frees, and building one per call grew
    # long-running in-process callers by about 2 KB per call.
    parser = argparse.ArgumentParser(
        prog="platecell",
        description="Cell problems, effective bending tensors, and recovery "
                    "sequences for thin plates with in-plane microstructure.")
    parser.add_argument("--version", action="version",
                        version="platecell %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="path to the JSON config")
        p.add_argument("--out", default=name.replace("-", "_") + ".json",
                       help="primary output path (default %(default)s)")
        p.add_argument("--deterministic", action="store_true",
                       help="keep run-varying data out of primary artifacts")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for seed ensembles")
    return parser


def _not_json(name):
    raise ValueError("%s is not a JSON number" % name)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.threads < 1:
        print("platecell: --threads must be >= 1", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh, parse_constant=_not_json)
        except OSError as exc:
            raise ConfigError("cannot read config: %s" % exc) from exc
        except ValueError as exc:
            raise ConfigError("config: not valid JSON (%s)" % exc) from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config: top level must be an object")
        return _COMMANDS[args.command][0](args, cfg, started)
    except OSError as exc:
        print("platecell: cannot write output: %s" % exc, file=sys.stderr)
        return 2
    except ConfigError as exc:
        print("platecell: config error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("platecell: config error: config needs more memory than is "
              "available (%s)" % exc, file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        hist_path = args.out + ".residuals.json"
        try:
            fileio.write_json(hist_path,
                              {"residual_history": exc.residual_history or []})
            print("platecell: solver failed; residual history in %s"
                  % hist_path, file=sys.stderr)
        except OSError:
            pass
        except ValueError:      # a history that is not finite, so not JSON
            _write_failure(args.out, exc)
        print("platecell: numerical failure: %s" % exc, file=sys.stderr)
        return 1
    except DegenerateRealizationError as exc:
        _write_failure(args.out, exc)
        print("platecell: degenerate realization: %s" % exc, file=sys.stderr)
        return 1
    except NumericalError as exc:
        _write_failure(args.out, exc)
        print("platecell: numerical failure: %s" % exc, file=sys.stderr)
        return 1


def _write_failure(out, exc):
    """The `<out>.failure.json` sidecar of a numerical failure: the error's
    class name and message.  The failure itself is reported even when the
    sidecar cannot be written."""
    path = out + ".failure.json"
    try:
        fileio.write_json(path, {"error": type(exc).__name__,
                                 "message": str(exc)})
        print("platecell: failure details in %s" % path, file=sys.stderr)
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
