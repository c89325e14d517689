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
