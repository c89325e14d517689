"""The benchmark's trace hooks still bind to the package.

perfbench/spans.py wraps named functions and methods of the package to time
its layers.  A rename there drops the metrics behind it without an error, so
this test fails instead when any hook no longer resolves.
"""

from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_bench_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    assert tracer.missing == set()


def test_cell_solve_hooks_fire(monkeypatch):
    # resolving is not enough: the package must call each hooked name at run
    # time, through the binding the hook patches
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    from platecell import PhaseGrid, RVEGrid, effective_form, material_table

    grid = RVEGrid(4, 4, 2, 1.0, 1.0)
    phases = PhaseGrid(4, 4, 1.0, np.indices((4, 4)).sum(axis=0) % 2)
    mats = material_table([(0, 1.0, 1.0), (1, 4.0, 4.0)])
    tracer = spans.Tracer()
    tracer.install(0)
    try:
        effective_form(grid, phases, mats)
    finally:
        tracer.uninstall()
    recorded = {span[0] for span in tracer.spans}
    assert {"operator_setup", "operator_rhs", "operator_solve",
            "block_pcg"} <= recorded
    # krylov.project_s times the kernel projection, which block_pcg applies
    # to the right-hand side and the solution: two inner spans per solve
    solves = [k for k, span in enumerate(tracer.spans)
              if span[0] == "block_pcg"]
    projections = [span[3] for span in tracer.spans if span[0] == "project"]
    assert solves and sorted(projections) == sorted(solves * 2)
    # every matvec gets an (ndof, m) block, m = 3 bending loads: the base of
    # dofcols and of the kernel flops behind matvec_gflops
    ndof = [span[5]["ndof"] for span in tracer.spans
            if span[0] == "operator_setup"]
    matvecs = [span[5] for span in tracer.spans if span[0] == "matvec"]
    assert len(ndof) == 1 and matvecs
    for counts in matvecs:
        assert counts["dofcols"] == ndof[0] * 3
        assert counts["flops"] == 2 * 24 * 24 * grid.n_elements * 3


def test_recovery_hooks_fire(monkeypatch):
    # recovery.quad_points and recovery.plan_s read these spans: every
    # distinct quadrature point of the cell passes through scaled_gradient
    # once per thickness Gauss point, with the points as its second,
    # positional argument
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    from platecell import CellCorrectorSource, PhaseGrid, RVEGrid, \
        RecoveryConfig, material_table, recovery

    grid = RVEGrid(4, 4, 2, 1.0, 1.0)
    phases = PhaseGrid(4, 4, 1.0, np.indices((4, 4)).sum(axis=0) % 2)
    mats = material_table([(0, 1.0, 1.0), (1, 4.0, 4.0)])
    source = CellCorrectorSource(grid, phases, mats)
    iso = recovery.cylinder_isometry(1.0)
    family = recovery.build_recovery(iso, RecoveryConfig(), source)
    sampler = family.sampler(0.5)
    form = source.effective()
    tracer = spans.Tracer()
    tracer.install(0)
    try:
        recovery.evaluate_scaled_energy(sampler)
        recovery.limit_energy(form, iso)
    finally:
        tracer.uninstall()
    recorded = [span[0] for span in tracer.spans]
    assert {"plan", "scaled_gradient", "svk_energy", "evaluate_scaled_energy",
            "limit_energy"} <= set(recorded)
    # eps = h / gamma = 0.5: the unit domain holds 2 x 2 periods of the
    # 4 x 4 cell, whose 16 elements give 2 x 2 distinct points each
    quad_points = (2 * 4) ** 2
    points = [span[5]["points"] for span in tracer.spans
              if span[0] == "scaled_gradient"]
    assert points == [quad_points] * (2 * grid.n3)
    # one plan; one density evaluation per phase, over every height
    assert recorded.count("plan") == 1
    assert recorded.count("svk_energy") == 2
