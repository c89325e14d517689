"""Serialization: canonical JSON, realization/grid/field dumps, CSV tables."""

import csv
import json
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from platecell import (
    BirkhoffSeries,
    ConfigError,
    EffectiveBendingForm,
    MicrostructureModel,
    PhaseGrid,
    RVEGrid,
    coupled_tensor,
    material_table,
    rasterize,
    sample_realization,
    shift,
)
from platecell.fileio import (
    canonical_json,
    phase_grid_to_dict,
    read_field,
    realization_to_dict,
    tensor_result_dict,
    write_ensemble_csv,
    write_field,
    write_json,
    write_series_csv,
)
from oracles import phase_grid_from_dict, read_json, realization_from_dict


# ---------------------------------------------------------------------------
# Canonical JSON
# ---------------------------------------------------------------------------

def test_canonical_json_order_independent():
    a = canonical_json({"b": 1, "a": [1, 2], "c": {"y": 0.5, "x": None}})
    b = canonical_json({"c": {"x": None, "y": 0.5}, "a": [1, 2], "b": 1})
    assert a == b
    assert " " not in a
    with pytest.raises(ValueError):
        canonical_json({"v": float("nan")})


def test_write_read_json(tmp_path):
    obj = {"grid": {"n1": 4}, "values": [1.5, -2.0], "tag": "run"}
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    write_json(p1, obj)
    write_json(p2, {"tag": "run", "values": [1.5, -2.0], "grid": {"n1": 4}})
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")
    assert read_json(p1) == obj


# ---------------------------------------------------------------------------
# Realizations and phase grids
# ---------------------------------------------------------------------------

def test_voronoi_realization_round_trip():
    model = MicrostructureModel("poisson_voronoi", intensity=20.0)
    r = shift(sample_realization(model, 3, 2.0), (0.37, 1.2))
    d = json.loads(canonical_json(realization_to_dict(r)))
    r2 = realization_from_dict(d)
    assert r2.seed == r.seed
    assert r2.box_side == r.box_side
    npt.assert_array_equal(r2.points, r.points)
    npt.assert_array_equal(r2.marks, r.marks)
    npt.assert_array_equal(r2.offset, r.offset)
    npt.assert_array_equal(rasterize(r2, 16, 16).cell_phase,
                           rasterize(r, 16, 16).cell_phase)


def test_periodic_realization_round_trip():
    model = MicrostructureModel("checkerboard", period_hint=1.0)
    r = sample_realization(model, 0, 2.0)
    d = realization_to_dict(r)
    assert d["points"] == []
    r2 = realization_from_dict(json.loads(canonical_json(d)))
    npt.assert_array_equal(rasterize(r2, 8, 8).cell_phase,
                           rasterize(r, 8, 8).cell_phase)


def test_realization_malformed():
    model = MicrostructureModel("poisson_voronoi", intensity=20.0)
    good = realization_to_dict(sample_realization(model, 1, 2.0))
    for breakage in (
            lambda d: d.update(points=[]),             # no points, not periodic
            lambda d: d.update(seed=2.7),              # truncated before
            lambda d: d.update(seed=True),             # read as 1 before
            lambda d: d.update(seed="8"),
            # numbers below were coerced before: "2.0" -> 2.0, true -> 1.0,
            # "0.25" -> 0.25 and a 0.7 mark -> 0
            lambda d: d.update(box_side="2.0"),
            lambda d: d.update(box_side=True),
            lambda d: d.update(box_side=float("inf")),
            lambda d: d.update(box_side=10 ** 400),
            lambda d: d.update(offset=["0.5", True]),
            lambda d: d.update(offset=[0.5, True]),
            lambda d: d.update(offset=[0.5, 0.5, 0.5]),
            lambda d: d["points"][0].__setitem__(0, "0.25"),
            lambda d: d["points"][0].__setitem__(1, None),
            lambda d: d["points"][0].__setitem__(2, 0.7),
            lambda d: d["points"][0].__setitem__(2, True),
            # non-positive box sides were loaded as given before
            lambda d: d.update(box_side=-2.0),
            lambda d: d.update(box_side=0.0),
    ):
        d = json.loads(canonical_json(good))
        breakage(d)
        with pytest.raises(ConfigError):
            realization_from_dict(d)


def test_phase_grid_round_trip():
    ids = np.random.default_rng(0).integers(0, 3, size=(4, 6))
    pg = PhaseGrid(4, 6, 2.5, ids)
    d = json.loads(canonical_json(phase_grid_to_dict(pg)))
    pg2 = phase_grid_from_dict(d)
    assert (pg2.n1, pg2.n2, pg2.box_side) == (4, 6, 2.5)
    npt.assert_array_equal(pg2.cell_phase, ids)


# ---------------------------------------------------------------------------
# Binary nodal fields
# ---------------------------------------------------------------------------

def test_field_round_trip(tmp_path):
    grid = RVEGrid(4, 6, 4, 1.7, 2.5)
    values = np.random.default_rng(2).normal(size=(4, 6, 5, 3))
    path = tmp_path / "field.bin"
    write_field(path, values, grid)
    got, header = read_field(path)
    npt.assert_array_equal(got, values)         # bit-exact
    assert header == {"n1": 4, "n2": 6, "n3": 4, "L": 2.5, "gamma": 1.7}


def test_field_rejects_wrong_shape(tmp_path):
    grid = RVEGrid(4, 4, 4, 1.0, 1.0)
    with pytest.raises(ConfigError):
        write_field(tmp_path / "f.bin", np.zeros((4, 4, 4, 3)), grid)


def test_field_malformed_file(tmp_path):
    grid = RVEGrid(2, 2, 2, 1.0, 1.0)
    path = tmp_path / "f.bin"
    write_field(path, np.zeros((2, 2, 3, 3)), grid)
    blob = path.read_bytes()
    truncated = tmp_path / "t.bin"
    truncated.write_bytes(blob[:-8])
    with pytest.raises(ConfigError):
        read_field(truncated)
    garbled = tmp_path / "g.bin"
    garbled.write_bytes(b"not json\n" + blob.split(b"\n", 1)[1])
    with pytest.raises(ConfigError):
        read_field(garbled)
    body = blob.split(b"\n", 1)[1]
    for header in ({"n1": "2", "n2": 2, "n3": 2}, {"n1": 2, "n2": 2, "n3": 2.5},
                   {"n1": 2.0, "n2": 2, "n3": 2}, {"n1": True, "n2": 2, "n3": 2},
                   [2, 2, 2]):
        bad = tmp_path / "h.bin"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(ConfigError, match="h.bin"):
            read_field(bad)
    # sizes below RVEGrid's bounds, each with a body they reshape: numpy
    # inferred the axis of a negative size and read a 0 as empty
    for key, size, shape in (("n1", -1, (2, 2, 3, 3)),
                             ("n1", 0, (0, 2, 3, 3)),
                             ("n3", 1, (2, 2, 2, 3)),
                             ("n3", -3, (2, 2, 3, 3))):
        header = {"n1": 2, "n2": 2, "n3": 2, "L": 1.0, "gamma": 1.0, key: size}
        bad.write_bytes(json.dumps(header).encode() + b"\n"
                        + np.zeros(shape).tobytes())
        with pytest.raises(ConfigError, match="header " + key):
            read_field(bad)


def test_field_bytes_deterministic(tmp_path):
    grid = RVEGrid(4, 4, 2, 0.5, 1.0)
    values = np.random.default_rng(5).normal(size=(4, 4, 3, 3))
    write_field(tmp_path / "a.bin", values, grid)
    write_field(tmp_path / "b.bin", values, grid)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


# ---------------------------------------------------------------------------
# Tensor payloads and CSV tables
# ---------------------------------------------------------------------------

def test_tensor_result_dict():
    grid = RVEGrid(2, 2, 2, 1.0, 1.0)
    phases = PhaseGrid(2, 2, 1.0, np.zeros((2, 2), dtype=int))
    ct = coupled_tensor(grid, phases, material_table([(0, 1.0, 1.0)]),
                        tol=1e-10)
    d = tensor_result_dict(ct, EffectiveBendingForm(ct.matrix[3:, 3:]), grid,
                           extra={"seed": 7})
    assert set(d) == {"grid", "gamma", "voigt6", "voigt3", "cg_residuals",
                      "asymmetry", "seed"}
    assert len(d["voigt6"]) == 36
    assert len(d["voigt3"]) == 9
    assert d["grid"]["n1"] == 2
    assert d["seed"] == 7
    # everything is plain JSON scalars: canonical text survives a round trip
    assert json.loads(canonical_json(d)) == d


def test_series_csv(tmp_path):
    series = BirkhoffSeries([0.5, 0.25], [0.375, 0.4375], 0.5)
    path = tmp_path / "series.csv"
    write_series_csv(path, series)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epsilon", "average", "reference", "error"]
    assert [float(v) for v in rows[1]] == [0.5, 0.375, 0.5, 0.125]
    assert [float(v) for v in rows[2]] == [0.25, 0.4375, 0.5, 0.0625]


def test_ensemble_csv(tmp_path):
    forms = [SimpleNamespace(voigt3=np.arange(9, dtype=float).reshape(3, 3)),
             SimpleNamespace(voigt3=np.full((3, 3), 0.5))]
    ensemble = SimpleNamespace(seeds=[4, 9], forms=forms)
    path = tmp_path / "ens.csv"
    write_ensemble_csv(path, ensemble, defects=[0.125, 0.25])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["seed"] + ["v%d%d" % (i, j)
                                  for i in range(3) for j in range(3)] \
        + ["defect"]
    assert rows[1][0] == "4"
    assert [float(v) for v in rows[1][1:]] == list(range(9)) + [0.125]
    assert [float(v) for v in rows[2][1:]] == [0.5] * 9 + [0.25]
    # one defect per seed, no fewer
    with pytest.raises(ValueError):
        write_ensemble_csv(path, ensemble, defects=[0.125])


def test_write_json_leaves_no_file_when_it_cannot_serialize(tmp_path):
    # a non-finite number used to truncate the file to 0 bytes and then raise
    path = tmp_path / "o.json"
    with pytest.raises(ValueError):
        write_json(path, {"x": float("nan")})
    assert not path.exists()
    write_json(path, {"x": 1.0})
    with pytest.raises(ValueError):
        write_json(path, {"x": float("inf")})
    assert read_json(path) == {"x": 1.0}
