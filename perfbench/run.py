"""platecell benchmark: one client, closed loop, one process.

    python3 perfbench/run.py --workload finecell --seed 1 --seconds 25 --trace 0

Runs seeded ops of one workload (see workloads.py) back to back for
``--seconds`` seconds, checks every op, and prints as its last stdout line
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones (setup_s, ops_per_s,
op_p50_s, op_tail_s, peak_rss_mb); with ``--trace 1`` every other op is
traced and the metrics are the per-layer ones (see spans.py), and the spans
are written to ``.perfbench_out/`` in the checkout.

The end-to-end timings are calibrated: the machine-speed probe
(``machine.ref_kernel_s``) runs after every set-up and every op, and each
wall time is rescaled by ``machine.REF_NOMINAL_S`` over the median of the
probes around it.  The shared machine's speed drifts by up to 1.8x over
seconds to minutes, for the package and the probe alike; the rescaled times
do not.  The raw wall times are in the detail line.

BLAS is pinned to one thread before numpy loads.  The package is imported
from ``src/`` of the checkout this file sits in.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

import machine  # noqa: E402

for _var in machine.BLAS_ENV:   # before numpy loads
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("finecell", "ensemble", "recovery", "fields")
SETUP_REPEATS = 5      # set-ups per run; setup_s reports their median
EXACT_OPS = 4          # traced ops that the exact counts are taken over
PROBE_HALF = 2         # op k's speed: the median probe of ops k-2..k+2
WARMUP_BASE = 1 << 30  # op ids of warm-up ops, disjoint from measured ops
ERRORS_SHOWN = 3


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


class Loop:
    """Attempts ops, times the ones that pass, and counts failures."""

    def __init__(self, workload, failure_type):
        self.w = workload
        self.failure_type = failure_type
        self.attempted = 0
        self.failed = 0

    def attempt(self, k, tracer=None):
        """Run op k; return its duration, or None if it raised or failed."""
        self.attempted += 1
        inputs = self.w.prepare(k)
        try:
            if tracer is None:
                t0 = time.perf_counter()
                result = self.w.run(inputs)
                dt = time.perf_counter() - t0
            else:
                tracer.install(k)
                try:
                    result = self.w.run(inputs)
                finally:
                    dt = tracer.uninstall()
            self.w.check(result)
        except Exception as exc:  # an op failure must not end the run
            self.failed += 1
            if self.failed <= ERRORS_SHOWN:
                kind = "check" if isinstance(exc, self.failure_type) else "raise"
                print("perfbench: op %d failed (%s): %s" % (k, kind, exc),
                      file=sys.stderr)
                if kind == "raise":
                    traceback.print_exc(file=sys.stderr)
            return None
        return dt


def _tail(latencies):
    """The highest percentile with at least ten ops beyond it.

    Returns (value, percentile, ops beyond, ops).  With 20 ops or fewer that
    percentile would be the median or below, so it falls back to the maximum.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = 10 if n > 20 else 0
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond, n


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _scales(probes):
    """Per-op factor that rescales a wall time to the probe's nominal speed."""
    n = len(probes)
    return [machine.REF_NOMINAL_S / statistics.median(
        probes[max(0, k - PROBE_HALF):min(n, k + PROBE_HALF + 1)])
        for k in range(n)]


def main(argv=None):
    args = _args(argv)
    if not os.path.isfile(os.path.join(SRC, "platecell", "__init__.py")):
        print("perfbench: no platecell package under %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from spans import Tracer, layer_metrics
    import_s = time.perf_counter() - _START

    machine.ref_kernel_s()   # builds the probe's inputs; untimed
    os.makedirs(os.path.join(ROOT, ".perfbench_tmp"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_tmp"))
    try:
        # Each set-up builds the workload's inputs and runs one untimed
        # warm-up op; warm-ups count as attempted ops.
        setups, setup_probes, attempted, failed = [], [], 0, 0
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            loop = Loop(workloads.make(args.workload, args.seed, workdir),
                        workloads.OpFailed)
            loop.attempt(WARMUP_BASE + i)
            setups.append(time.perf_counter() - t0)
            setup_probes.append(machine.ref_kernel_s())
            attempted += loop.attempted
            failed += loop.failed
        loop.attempted, loop.failed = attempted, failed

        # ops[k] = (op time or None if it failed, loop time, traced);
        # the loop time adds the op's input generation and check.
        tracer = Tracer() if args.trace else None
        ops, probes = [], []
        k = 0
        t_begin = time.perf_counter()
        while (time.perf_counter() - t_begin < args.seconds
               or (tracer is not None and k < 2 * EXACT_OPS)):
            use = tracer if tracer is not None and k % 2 else None
            t0 = time.perf_counter()
            dt = loop.attempt(k, use)
            ops.append((dt, time.perf_counter() - t0, use is not None))
            probes.append(machine.ref_kernel_s())
            k += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    scales = _scales(probes)
    plain = [dt for dt, _, t in ops if dt is not None and not t]
    traced = [dt for dt, _, t in ops if dt is not None and t]
    setup_scale = machine.REF_NOMINAL_S / statistics.median(setup_probes)
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "ops_attempted": loop.attempted, "ops_failed": loop.failed,
        "import_s": import_s, "setup_runs_s": setups,
        "machine.ref_kernel_s": {
            "nominal": machine.REF_NOMINAL_S,
            "setup_median": statistics.median(setup_probes),
            "min": min(probes), "median": statistics.median(probes),
            "max": max(probes)},
        "machine": machine.describe(),
    }
    if not plain and not traced:
        metrics = {}
    elif tracer is None:
        latencies = [dt * c for (dt, _, _), c in zip(ops, scales)
                     if dt is not None]
        busy = sum(b * c for (_, b, _), c in zip(ops, scales))
        tail, pct, beyond, n = _tail(latencies)
        detail["op_tail"] = {"percentile": pct, "ops_beyond": beyond,
                             "ops": n}
        detail["wall"] = {
            "setup_s": import_s + statistics.median(setups),
            "ops_per_s": len(plain) / sum(b for _, b, _ in ops),
            "op_p50_s": statistics.median(plain),
            "op_tail_s": _tail(plain)[0]}
        metrics = {
            "setup_s": _metric(
                (import_s + statistics.median(setups)) * setup_scale, "s"),
            "ops_per_s": _metric(len(latencies) / busy, "1/s"),
            "op_p50_s": _metric(statistics.median(latencies), "s"),
            "op_tail_s": _metric(tail, "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
        }
    else:
        traced_ids = sorted({s[4] for s in tracer.spans})
        metrics = layer_metrics(tracer, traced_ids[:EXACT_OPS])
        metrics["machine.ref_kernel_s"] = _metric(
            statistics.median(probes), "s")
        overhead = (statistics.fmean(traced) / statistics.fmean(plain) - 1.0
                    if traced and plain else 0.0)
        metrics["trace.overhead_frac"] = _metric(overhead, "ratio")
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "trace-%s-seed%d.json"
                            % (args.workload, args.seed))
        tracer.write(path)
        detail["trace_file"] = os.path.relpath(path, ROOT)
        detail["traced_ops"] = len(traced)
        detail["untraced_ops"] = len(plain)

    print(json.dumps({"detail": detail}))
    for name, m in metrics.items():
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": loop.failed == 0 and bool(metrics),
                      "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
