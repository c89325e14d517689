"""The benchmark's trace hooks still bind to the package.

perfbench/spans.py wraps named functions and methods of the package to time
its layers.  A rename there drops the metrics behind it without an error, so
this test fails instead when any hook no longer resolves.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_bench_hook_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    tracer = spans.Tracer()
    assert tracer.missing == set()
