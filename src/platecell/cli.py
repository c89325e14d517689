"""Command line driver.

Every subcommand reads one JSON config (--config), runs one pipeline, and
writes canonical JSON (plus CSV / binary field sidecars where natural).
Exit codes: 0 success, 1 numerical failure (non-convergence, degenerate
random draws, indefinite tensors), 2 configuration/usage errors.

With --deterministic the primary artifacts contain no timing or other
run-varying data (wall time goes to a .timing.json sidecar), so repeated runs
of the same config are byte-identical regardless of --threads.
"""

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .cellsolve import CellLoad, RVEGrid, coupled_tensor, effective_bending, \
    gamma_rescale_check, solve_corrector
from .decomposition import MixedField, decompose_mixed, orthogonality_report, \
    random_mixed_field
from .ergodic import birkhoff_average, birkhoff_rate, ensemble_effective, \
    isotropy_report
from .errors import ConfigError, ConvergenceError, DegenerateRealizationError, \
    NumericalError
from . import fileio
from .material import material_table
from .microstructure import MicrostructureModel, rasterize, sample_realization
from .recovery import CellCorrectorSource, IsometrySpec, RecoveryConfig, \
    build_recovery, recovery_gaps


# ---------------------------------------------------------------------------
# Config access with field-path diagnostics
# ---------------------------------------------------------------------------

_BLOCKS = ("model", "grid", "materials", "load", "isometry", "recovery")


def _get(cfg, key):
    if key not in cfg:
        raise ConfigError("config: missing required %s '%s'"
                          % ("block" if key in _BLOCKS else "field", key))
    return cfg[key]


def _parse_model(cfg):
    block = _get(cfg, "model")
    if not isinstance(block, dict):
        raise ConfigError("config: 'model' must be an object")
    try:
        return MicrostructureModel.from_dict(block)
    except ConfigError as exc:
        raise ConfigError("model: %s" % exc) from exc


def _parse_materials(cfg):
    block = _get(cfg, "materials")
    if not isinstance(block, list):
        raise ConfigError("config: 'materials' must be a list")
    entries = []
    for k, item in enumerate(block):
        if not isinstance(item, dict):
            raise ConfigError("materials[%d]: must be an object" % k)
        for key in ("phase_id", "mu", "lambda"):
            if key not in item:
                raise ConfigError("materials[%d].%s: missing" % (k, key))
        entries.append(item)
    return material_table(entries)


def _parse_grid(cfg):
    block = _get(cfg, "grid")
    if not isinstance(block, dict):
        raise ConfigError("config: 'grid' must be an object")
    for key in ("n1", "n2", "n3", "gamma"):
        if key not in block:
            raise ConfigError("grid.%s: missing" % key)
    side = block.get("L", block.get("box_side"))
    if side is None:
        raise ConfigError("grid.L: missing")
    try:
        return RVEGrid(block["n1"], block["n2"], block["n3"],
                       block["gamma"], side)
    except ConfigError as exc:
        raise ConfigError("grid: %s" % exc) from exc


def _parse_sym2(block, path):
    arr = np.asarray(block, dtype=float)
    if arr.shape != (2, 2):
        raise ConfigError("%s: must be a 2x2 matrix" % path)
    return arr


def _seed(cfg):
    seed = _get(cfg, "seed")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed: must be a nonnegative integer")
    return seed


def _tol(cfg, default=1e-8):
    tol = cfg.get("tol", default)
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) \
            or not 0 < tol < 1:
        raise ConfigError("tol: must be a number in (0, 1)")
    return float(tol)


def _realize_phases(cfg, grid):
    """model + seed + grid -> (realization, PhaseGrid on the grid's box)."""
    model = _parse_model(cfg)
    seed = _seed(cfg)
    r = sample_realization(model, seed, grid.box_side)
    return r, rasterize(r, grid.n1, grid.n2)


# ---------------------------------------------------------------------------
# Artifact plumbing
# ---------------------------------------------------------------------------

def _threads(args):
    env = os.environ.get("PLATECELL_THREADS")
    if env is not None:
        try:
            t = int(env)
            if t < 1:
                raise ValueError
        except ValueError:
            raise ConfigError("PLATECELL_THREADS must be a positive integer, "
                              "got %r" % env)
        print("platecell: PLATECELL_THREADS=%d overrides --threads=%d"
              % (t, args.threads), file=sys.stderr)
        return t
    return args.threads


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
    model = _parse_model(cfg)
    seed = _seed(cfg)
    box = cfg.get("L", cfg.get("box_side"))
    if isinstance(box, bool) or not isinstance(box, (int, float)) or not box > 0:
        raise ConfigError("L (box side): must be a positive number")
    r = sample_realization(model, seed, float(box))
    payload = {"realization": fileio.realization_to_dict(r)}
    raster = cfg.get("raster")
    if raster is not None:
        for key in ("n1", "n2"):
            if key not in raster:
                raise ConfigError("raster.%s: missing" % key)
        pg = rasterize(r, int(raster["n1"]), int(raster["n2"]))
        payload["phase_grid"] = fileio.phase_grid_to_dict(pg)
    return _finish(args, payload, started, cfg)


def _cmd_solve_cell(args, cfg, started):
    grid = _parse_grid(cfg)
    materials = _parse_materials(cfg)
    _, phases = _realize_phases(cfg, grid)
    block = _get(cfg, "load")
    B = _parse_sym2(block["B"], "load.B") if "B" in block else None
    G = _parse_sym2(block["G"], "load.G") if "G" in block else None
    load = CellLoad(B=B, G=G)
    field = solve_corrector(grid, phases, materials, load, tol=_tol(cfg))
    fileio.write_field(args.out + ".field", field.values, grid)
    payload = {
        "seed": _seed(cfg),
        "grid": grid.to_dict(),
        "cg_residuals": [float(v) for v in field.residuals],
        "field_file": args.out + ".field",
    }
    return _finish(args, payload, started, cfg)


def _cmd_effective(args, cfg, started):
    grid = _parse_grid(cfg)
    materials = _parse_materials(cfg)
    _, phases = _realize_phases(cfg, grid)
    ct = coupled_tensor(grid, phases, materials, tol=_tol(cfg))
    form = effective_bending(ct)
    payload = fileio.tensor_result_dict(ct, form, grid,
                                        extra={"seed": _seed(cfg)})
    if cfg.get("rescale_check", False):
        payload["rescale_discrepancy"] = gamma_rescale_check(
            grid, phases, materials, tol=_tol(cfg))
    return _finish(args, payload, started, cfg)


def _cmd_sweep_gamma(args, cfg, started):
    materials = _parse_materials(cfg)
    gammas = cfg.get("gammas")
    if not isinstance(gammas, list) or not gammas or \
            any(not isinstance(g, (int, float)) or g <= 0 for g in gammas):
        raise ConfigError("gammas: must be a nonempty list of positive "
                          "numbers")
    base = _parse_grid(cfg)
    results = []
    for g in gammas:
        grid = RVEGrid(base.n1, base.n2, base.n3, float(g), base.box_side)
        _, phases = _realize_phases(cfg, grid)
        ct = coupled_tensor(grid, phases, materials, tol=_tol(cfg))
        form = effective_bending(ct)
        results.append([float(v) for v in form.voigt3.ravel()])
    stack = np.asarray(results).reshape(len(gammas), 3, 3)
    spread = float(np.max(np.abs(stack - stack[0])))
    payload = {
        "seed": _seed(cfg),
        "gammas": [float(g) for g in gammas],
        "voigt3_per_gamma": results,
        "max_spread": spread,
    }
    return _finish(args, payload, started, cfg)


def _cmd_isotropy(args, cfg, started):
    grid = _parse_grid(cfg)
    materials = _parse_materials(cfg)
    model = _parse_model(cfg)
    seeds = cfg.get("seeds")
    if not isinstance(seeds, list) or not seeds or \
            any(not isinstance(s, int) or isinstance(s, bool) or s < 0
                for s in seeds):
        raise ConfigError("seeds: must be a nonempty list of nonnegative "
                          "integers")
    rotations = cfg.get("rotations", 8)
    ens = ensemble_effective(model, materials, grid, seeds, tol=_tol(cfg),
                             threads=_threads(args))
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
    model = _parse_model(cfg)
    seed = _seed(cfg)
    box = cfg.get("L", cfg.get("box_side"))
    if isinstance(box, bool) or not isinstance(box, (int, float)) or not box > 0:
        raise ConfigError("L (box side): must be a positive number")
    window = cfg.get("window")
    if not isinstance(window, list) or len(window) != 4:
        raise ConfigError("window: must be [x0, y0, x1, y1]")
    epsilons = cfg.get("epsilons")
    if not isinstance(epsilons, list) or not epsilons:
        raise ConfigError("epsilons: must be a nonempty list")
    f_table = cfg.get("f_table")
    if not isinstance(f_table, (list, dict)) or not f_table:
        raise ConfigError("f_table: must map phases to values")
    if isinstance(f_table, dict):
        try:
            f_table = {int(k): float(v) for k, v in f_table.items()}
        except (TypeError, ValueError) as exc:
            raise ConfigError("f_table: %s" % exc) from exc
    r = sample_realization(model, seed, float(box))
    series = birkhoff_average(r, f_table, window, epsilons,
                              step=cfg.get("step"))
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
    grid = _parse_grid(cfg)
    field_file = cfg.get("field")
    if field_file is not None:
        if not isinstance(field_file, str):
            raise ConfigError("field: must be the path of a field file")
        try:
            values, _ = fileio.read_field(field_file)
            field = MixedField(values, grid, layout="nodes")
        except OSError as exc:
            raise ConfigError("field: cannot read field file: %s" % exc) \
                from exc
        except ConfigError as exc:
            raise ConfigError("field: %s" % exc) from exc
    else:
        field = random_mixed_field(grid, _seed(cfg))
    dec = decompose_mixed(field, tol=_tol(cfg, default=1e-10))
    report = orthogonality_report(field, dec)
    payload = {
        "mean": [float(v) for v in dec.mean],
        "report": {k: float(v) for k, v in report.items()},
        "cg_residual": float(dec.residuals[-1]),
    }
    if cfg.get("write_potential", False):
        psi = dec.psi[..., None] * np.array([1.0, 0.0, 0.0])
        fileio.write_field(args.out + ".psi.field", psi, grid)
        payload["psi_file"] = args.out + ".psi.field"
    return _finish(args, payload, started, cfg)


def _cmd_recovery(args, cfg, started):
    grid = _parse_grid(cfg)
    materials = _parse_materials(cfg)
    _, phases = _realize_phases(cfg, grid)
    iso_block = _get(cfg, "isometry")
    kind = iso_block.get("kind")
    domain = iso_block.get("domain", [0.0, 0.0, 1.0, 1.0])
    iso = IsometrySpec(kind, domain, radius=iso_block.get("radius"))
    rec = cfg.get("recovery", {})
    rcfg = RecoveryConfig(
        gamma=grid.gamma,
        patch_size=rec.get("patch_size", 0.25),
        ramp_width=rec.get("ramp_width"),
        cells_per_scale=rec.get("cells_per_scale", 4),
        h_schedule=rec.get("h_schedule"),
        corrector_tol=rec.get("corrector_tol", 1e-10))
    if rcfg.h_schedule is None:
        raise ConfigError("recovery.h_schedule: missing")
    source = CellCorrectorSource(grid, phases, materials,
                                 tol=rcfg.corrector_tol)
    family = build_recovery(iso, rcfg, source)
    gaps = recovery_gaps(family)
    payload = {
        "seed": _seed(cfg),
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


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        print("platecell: --threads must be >= 1", file=sys.stderr)
        return 2
    started = time.perf_counter()
    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
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
    except ConvergenceError as exc:
        hist_path = args.out + ".residuals.json"
        try:
            fileio.write_json(hist_path,
                              {"residual_history": exc.residual_history or []})
            print("platecell: solver failed; residual history in %s"
                  % hist_path, file=sys.stderr)
        except OSError:
            pass
        print("platecell: numerical failure: %s" % exc, file=sys.stderr)
        return 1
    except DegenerateRealizationError as exc:
        print("platecell: degenerate realization: %s" % exc, file=sys.stderr)
        return 1
    except NumericalError as exc:
        print("platecell: numerical failure: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
