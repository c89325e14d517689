"""Serialization of realizations, grids, fields, tensors and series.

All JSON emitted here is canonical -- sorted keys, fixed separators, no
trailing whitespace -- so identical inputs produce byte-identical artifacts
regardless of dict construction order or thread scheduling.  Timing and other
run-dependent metadata never go into the primary payloads; drivers that want
them write sidecar files instead.

Nodal 3-vector fields use a one-line JSON header followed by raw
little-endian float64 in C order (slow axes first: x1 index, x2 index, node
layer, component), which keeps multi-megabyte correctors compact and exact.
"""

import csv
import json

import numpy as np

from .errors import ConfigError, as_array, as_index, as_real
from .microstructure import _PERIODIC_KINDS, MicrostructureModel, \
    MicrostructureRealization, PhaseGrid


def canonical_json(obj):
    """Deterministic JSON text for a JSON-compatible object."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def write_json(path, obj):
    """Canonical JSON to `path`, serialized before the file is opened."""
    text = canonical_json(obj) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Realizations and phase grids
# ---------------------------------------------------------------------------

def realization_to_dict(r):
    """JSON-compatible dict of a microstructure realization.

    Periodic media carry no points; their dumps have an empty list there.
    """
    pts = [] if r.points is None else \
        [[float(x), float(y), int(m)] for (x, y), m in zip(r.points, r.marks)]
    return {
        "model": r.model.to_dict(),
        "seed": int(r.seed),
        "box_side": float(r.box_side),
        "offset": [float(v) for v in r.offset],
        "points": pts,
    }


def realization_from_dict(d):
    try:
        model = MicrostructureModel.from_dict(d["model"])
        points = d["points"]
        if not points and model.kind not in _PERIODIC_KINDS:
            raise ConfigError("realization of a %r model has no points"
                              % model.kind)
        return MicrostructureRealization(
            model, d["seed"], d["box_side"],
            points=[p[:2] for p in points] if points else None,
            marks=[p[2] for p in points] if points else None,
            offset=d.get("offset", (0.0, 0.0)))
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ConfigError("malformed realization file: %s" % exc) from exc


def phase_grid_to_dict(pg):
    return {
        "n1": int(pg.n1),
        "n2": int(pg.n2),
        "box_side": float(pg.box_side),
        "cell_phase": [int(v) for v in pg.cell_phase.ravel()],
    }


def phase_grid_from_dict(d):
    try:
        n1, n2 = as_index(d["n1"], "n1"), as_index(d["n2"], "n2")
        cells = as_array(d["cell_phase"], "cell_phase", (n1 * n2,),
                         integer=True)
        return PhaseGrid(n1, n2, d["box_side"], cells.reshape(n1, n2))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError("malformed phase grid: %s" % exc) from exc


# ---------------------------------------------------------------------------
# Binary nodal fields (correctors, decompositions)
# ---------------------------------------------------------------------------

def write_field(path, values, grid):
    """Write a nodal (n1, n2, n3+1, 3) field with a JSON header line."""
    values = np.ascontiguousarray(values, dtype="<f8")
    want = (grid.n1, grid.n2, grid.n3 + 1, 3)
    if values.shape != want:
        raise ConfigError("write_field: values shape %s, want %s"
                          % (values.shape, want))
    header = canonical_json({
        "n1": grid.n1, "n2": grid.n2, "n3": grid.n3,
        "L": grid.box_side, "gamma": grid.gamma,
    })
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.write(b"\n")
        fh.write(values.tobytes())


def read_field(path):
    """Read a field written by write_field: (values, header dict), checked."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        raw = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
        n1, n2, n3 = (as_index(header[k], "header " + k)
                      for k in ("n1", "n2", "n3"))
        header["L"] = as_real(header["L"], "header L", 0)
        values = as_array(np.frombuffer(raw, dtype="<f8").reshape(
            n1, n2, n3 + 1, 3), "values")
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError("malformed field file %s: %s" % (path, exc)) from exc
    return values.copy(), header


# ---------------------------------------------------------------------------
# Tensors and tabular series
# ---------------------------------------------------------------------------

def tensor_result_dict(ct, form, grid, extra=None):
    """JSON payload for a solved cell problem.

    Args:
        ct: CoupledEffectiveTensor.
        form: EffectiveBendingForm derived from it.
        grid: RVEGrid.
        extra: optional extra keys (seed, config echo, ...).
    """
    out = {
        "grid": grid.to_dict(),
        "gamma": float(grid.gamma),
        "voigt6": [float(v) for v in ct.matrix.ravel()],
        "voigt3": [float(v) for v in form.voigt3.ravel()],
        "cg_residuals": [float(v) for v in ct.residuals],
        "asymmetry": float(ct.asymmetry),
    }
    if extra:
        out.update(extra)
    return out


def write_series_csv(path, series):
    """CSV of a BirkhoffSeries: epsilon, average, reference, error."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["epsilon", "average", "reference", "error"])
        for e, a, err in zip(series.epsilons, series.averages, series.errors):
            w.writerow([repr(float(e)), repr(float(a)),
                        repr(float(series.reference)), repr(float(err))])


def write_ensemble_csv(path, ensemble, defects):
    """CSV of per-seed Voigt entries and isotropy defects."""
    cols = ["seed"] + ["v%d%d" % (i, j) for i in range(3) for j in range(3)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(cols + ["defect"])
        for seed, form, defect in zip(ensemble.seeds, ensemble.forms,
                                      defects, strict=True):
            w.writerow([seed] + [repr(float(v)) for v in form.voigt3.ravel()]
                       + [repr(float(defect))])
