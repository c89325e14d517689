"""Self-check of the benchmark itself (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_selfcheck.py

1. Exact counts repeat: two traced runs on the same seed give identical
   values for every per-layer metric marked exact in spans.LAYER_METRICS.
2. A held-out seed, never used while the benchmark was tuned, runs every
   workload with zero failed ops, so later claims can be re-run on it.
3. A hook whose name is gone drops only its own metrics, without a crash.
"""

import json
import os
import subprocess
import sys

import pytest

from spans import LAYER_METRICS, Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
WORKLOADS = ("finecell", "ensemble", "recovery", "fields")
HELD_OUT_SEED = 424242
EXACT = sorted(name for name, spec in LAYER_METRICS.items() if spec[2])


def _run(workload, seed, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload):
    first, second = (_run(workload, 3, trace=1) for _ in range(2))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    counts = [{name: r["metrics"][name]["value"] for name in EXACT}
              for r in (first, second)]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_has_no_failures(workload):
    result = _run(workload, HELD_OUT_SEED, trace=0, seconds=2)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] >= 1


def test_missing_hook_drops_only_its_metrics(monkeypatch, tmp_path):
    import platecell.cli
    import workloads

    monkeypatch.delattr(platecell.cli, "orthogonality_report")
    tracer = Tracer()
    assert tracer.missing == {"orthogonality_report"}
    w = workloads.make("recovery", 1, str(tmp_path))
    tracer.install(0)
    try:
        w.check(w.run(w.prepare(0)))
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, [0])
    assert "decomposition.report_s" not in metrics
    assert set(metrics) == set(LAYER_METRICS) - {"decomposition.report_s"}
    assert metrics["recovery.quad_points"]["value"] > 0
