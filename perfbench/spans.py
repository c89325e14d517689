"""Traced runs: spans around platecell's layer entry points, and the
per-layer metrics computed from them.

The span file of a traced run is JSON: ``fields`` names the columns of each
row of ``spans``; ``parent`` is the row index of the enclosing span.

Hooks rebind names where the package binds them (module attributes and class
methods) for the duration of one op, and restore them afterwards; nothing
under ``src/`` is edited.  Each wrapper records a span (name, start, end,
parent span, op id) plus counts in memory.  A layer's self time is its span's
duration minus the time its child spans cover.

A hook whose target no longer exists (say, a later change renamed it) is
reported missing; the metrics that depend on it are left out of the result
with a warning instead of crashing the run.
"""

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute path, counter) -- the attribute path is either
# "name" (a module-level binding) or "Class.method".
HOOKS = (
    ("block_pcg", "platecell.cellsolve", "block_pcg", "pcg"),
    ("block_pcg", "platecell.decomposition", "block_pcg", "pcg"),
    ("operator_setup", "platecell.cellsolve", "CellOperator.__init__", "ndof"),
    ("operator_rhs", "platecell.cellsolve", "CellOperator.rhs", None),
    ("operator_solve", "platecell.cellsolve", "CellOperator.solve", None),
    ("coupled_tensor", "platecell.cellsolve", "coupled_tensor", None),
    ("sample_realization", "platecell.microstructure", "sample_realization",
     None),
    ("rasterize", "platecell.microstructure", "rasterize", None),
    ("phase_at", "platecell.microstructure", "phase_at", "points"),
    ("birkhoff_average", "platecell.ergodic", "birkhoff_average", None),
    ("decompose_mixed", "platecell.cli", "decompose_mixed", None),
    ("orthogonality_report", "platecell.cli", "orthogonality_report", None),
    ("corrector_source", "platecell.recovery", "CellCorrectorSource.__init__",
     None),
    ("build_recovery", "platecell.recovery", "build_recovery", None),
    ("solve_corrector", "platecell.recovery", "solve_corrector", None),
    ("plan", "platecell.recovery", "DeformationSampler.plan", None),
    ("scaled_gradient", "platecell.recovery",
     "DeformationSampler.scaled_gradient", "points"),
    ("evaluate_scaled_energy", "platecell.recovery", "evaluate_scaled_energy",
     None),
    ("limit_energy", "platecell.recovery", "limit_energy", None),
    ("svk_energy", "platecell.recovery", "svk_energy", None),
    ("write_json", "platecell.fileio", "write_json", None),
    ("cli_main", "platecell.cli", "main", None),
)


class Tracer:
    """In-memory span recorder plus the hooks that feed it."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op, counts]
        self._stack = []
        self.op = None
        self._patches = []       # (owner, attr, original, wrapper)
        for name, module, path, counter in HOOKS:
            target = self._resolve(module, path)
            if target is None:
                print("perfbench: warning: hook %s (%s.%s) not found"
                      % (name, module, path), file=sys.stderr)
                continue
            owner, attr, original = target
            self._patches.append(
                (owner, attr, original, self._wrap(name, original, counter)))
        # a span name is missing when none of its bindings was found
        found = {wrapper.span_name for _, _, _, wrapper in self._patches}
        self.missing = {name for name, _, _, _ in HOOKS} - found
        if "block_pcg" not in self.missing:
            params = inspect.signature(self._pcg_original()).parameters
            for inner in ("matvec", "project"):
                if inner not in params:
                    self.missing.add(inner)
                    print("perfbench: warning: block_pcg takes no %r; its "
                          "metrics are left out" % inner, file=sys.stderr)

    @staticmethod
    def _resolve(module, path):
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return None
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None:
            return None
        if inspect.isclass(owner):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if not callable(original):
            return None
        return owner, attr, original

    def _pcg_original(self):
        return next(orig for owner, attr, orig, _ in self._patches
                    if attr == "block_pcg")

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self.op, {}]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._enter(name)
            try:
                if counter == "pcg":
                    args, kwargs = tracer._wrap_pcg_args(fn, args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if counter == "pcg":
                span[5]["iters"] = len(result[1]) - 1
            elif counter == "ndof":
                span[5]["ndof"] = args[0].ndof
            elif counter == "points":
                # the points are the second argument of phase_at(r, x) and of
                # DeformationSampler.scaled_gradient(self, xp, x3)
                shape = np.shape(args[1])
                span[5]["points"] = shape[0] if len(shape) == 2 else 1
            return result

        wrapper.span_name = name
        return wrapper

    def _wrap_pcg_args(self, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        for inner in ("matvec", "project"):
            if inner in bound.arguments:
                bound.arguments[inner] = self._wrap_inner(
                    inner, bound.arguments[inner])
        return bound.args, bound.kwargs

    def _wrap_inner(self, name, fn):
        tracer = self
        # a CellOperator's bound matvec: count its element-kernel flops
        owner = getattr(fn, "__self__", None)
        n_el = getattr(getattr(owner, "grid", None), "n_elements", None) \
            if name == "matvec" and hasattr(owner, "ke") else None

        def inner(U):
            span = tracer._enter(name)
            try:
                return fn(U)
            finally:
                tracer._exit(span)
                cols = U.shape[1] if U.ndim == 2 else 1
                span[5]["dofcols"] = U.shape[0] * cols
                if n_el is not None:
                    k = owner.ke.shape[-1]
                    span[5]["flops"] = 2 * k * k * n_el * cols

        return inner

    # -- installation ----------------------------------------------------------

    def install(self, op_id):
        """Patch every hook and open the root span of op ``op_id``."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.op = op_id
        self._op_span = self._enter("op")

    def uninstall(self):
        """Close the op's root span and restore the originals.

        Returns:
            float: the op's duration in seconds.
        """
        self._exit(self._op_span)
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.op = None
        return self._op_span[2] - self._op_span[1]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "counts"],
                       "spans": self.spans}, fh)


class _Totals:
    """Span durations, self times, calls and counts summed by span name."""

    def __init__(self, spans, ops):
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(lambda: defaultdict(float))
        self.flop_time = 0.0
        self.birkhoff_points = 0
        child_time = defaultdict(float)
        for span in spans:
            if span[4] in ops and span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        for i, (name, start, end, parent, op, counts) in enumerate(spans):
            if op not in ops:
                continue
            self.time[name] += end - start
            self.self_time[name] += end - start - child_time[i]
            self.calls[name] += 1
            for key, value in counts.items():
                self.counts[name][key] += value
            if "flops" in counts:
                self.flop_time += end - start
            if name == "phase_at" and parent is not None \
                    and spans[parent][0] == "birkhoff_average":
                self.birkhoff_points += counts["points"]


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


# name -> (unit, hooks it needs, whether it is an exact count, value).
# Times are seconds per traced op; exact counts are per op over the first
# traced ops, which a seed fixes.  A layer that does not run on a workload
# reads 0.
LAYER_METRICS = {
    "krylov.iters": ("count/op", ("block_pcg",), True,
                     lambda t, n: t.counts["block_pcg"]["iters"] / n),
    "krylov.matvec_calls": ("count/op", ("block_pcg", "matvec"), True,
                            lambda t, n: t.calls["matvec"] / n),
    "krylov.matvec_s": ("s/op", ("block_pcg", "matvec"), False,
                        lambda t, n: t.time["matvec"] / n),
    "krylov.matvec_us_per_dofcol": (
        "us/dofcol", ("block_pcg", "matvec"), False,
        lambda t, n: _ratio(t.time["matvec"], t.counts["matvec"]["dofcols"],
                            1e6)),
    "krylov.project_s": ("s/op", ("block_pcg", "project"), False,
                         lambda t, n: t.time["project"] / n),
    "krylov.self_s": ("s/op", ("block_pcg", "matvec", "project"), False,
                      lambda t, n: t.self_time["block_pcg"] / n),
    "krylov.share": ("ratio", ("block_pcg",), False,
                     lambda t, n: _ratio(t.time["block_pcg"], t.time["op"])),
    "cellsolve.setup_s": ("s/op", ("operator_setup",), False,
                          lambda t, n: t.time["operator_setup"] / n),
    "cellsolve.rhs_s": ("s/op", ("operator_rhs",), False,
                        lambda t, n: t.time["operator_rhs"] / n),
    "cellsolve.closure_s": (
        "s/op", ("coupled_tensor", "operator_setup", "operator_rhs",
                 "operator_solve"), False,
        lambda t, n: t.self_time["coupled_tensor"] / n),
    "cellsolve.ndof": ("dof", ("operator_setup",), False,
                       lambda t, n: _ratio(t.counts["operator_setup"]["ndof"],
                                           t.calls["operator_setup"])),
    "cellsolve.matvec_gflops": (
        "GFLOP/s", ("block_pcg", "matvec"), False,
        lambda t, n: _ratio(t.counts["matvec"]["flops"], t.flop_time, 1e-9)),
    "microstructure.sample_s": ("s/op", ("sample_realization",), False,
                                lambda t, n: t.time["sample_realization"] / n),
    "microstructure.rasterize_s": ("s/op", ("rasterize",), False,
                                   lambda t, n: t.time["rasterize"] / n),
    "microstructure.lookup_us_per_point": (
        "us/point", ("phase_at",), False,
        lambda t, n: _ratio(t.time["phase_at"], t.counts["phase_at"]["points"],
                            1e6)),
    "ergodic.birkhoff_s": ("s/op", ("birkhoff_average",), False,
                           lambda t, n: t.time["birkhoff_average"] / n),
    "ergodic.birkhoff_points": ("count/op", ("birkhoff_average", "phase_at"),
                                True, lambda t, n: t.birkhoff_points / n),
    "recovery.build_s": ("s/op", ("build_recovery",), False,
                         lambda t, n: t.time["build_recovery"] / n),
    "recovery.corrector_solves": ("count/op", ("solve_corrector",), True,
                                  lambda t, n: t.calls["solve_corrector"] / n),
    "recovery.plan_s": ("s/op", ("plan",), False,
                        lambda t, n: t.time["plan"] / n),
    "recovery.gradient_s": ("s/op", ("scaled_gradient",), False,
                            lambda t, n: t.time["scaled_gradient"] / n),
    "recovery.quad_points": (
        "count/op", ("scaled_gradient",), True,
        lambda t, n: t.counts["scaled_gradient"]["points"] / n),
    "recovery.us_per_point": (
        "us/point", ("evaluate_scaled_energy", "scaled_gradient"), False,
        lambda t, n: _ratio(t.time["evaluate_scaled_energy"],
                            t.counts["scaled_gradient"]["points"], 1e6)),
    "recovery.limit_s": ("s/op", ("limit_energy",), False,
                         lambda t, n: t.time["limit_energy"] / n),
    "material.svk_s": ("s/op", ("svk_energy",), False,
                       lambda t, n: t.time["svk_energy"] / n),
    "decomposition.decompose_s": ("s/op", ("decompose_mixed",), False,
                                  lambda t, n: t.time["decompose_mixed"] / n),
    "decomposition.report_s": (
        "s/op", ("orthogonality_report",), False,
        lambda t, n: t.time["orthogonality_report"] / n),
    "fileio.write_s": ("s/op", ("write_json",), False,
                       lambda t, n: t.time["write_json"] / n),
    "cli.self_s": ("s/op", ("cli_main",), False,
                   lambda t, n: t.self_time["cli_main"] / n),
}


def layer_metrics(tracer, exact_ops):
    """Per-layer metrics of a traced run.

    Args:
        tracer: the Tracer that recorded the run.
        exact_ops: ids of the traced ops that exact counts are taken over.

    Returns:
        dict name -> {"value", "unit"}; metrics whose hooks are missing are
        left out (with a warning on stderr).
    """
    traced = {span[4] for span in tracer.spans}
    exact_ops = set(exact_ops)
    all_totals = _Totals(tracer.spans, traced)
    exact_totals = _Totals(tracer.spans, exact_ops)
    out = {}
    for name, (unit, hooks, exact, value) in LAYER_METRICS.items():
        gone = [h for h in hooks if h in tracer.missing]
        if gone:
            print("perfbench: warning: %s absent (missing hooks %s)"
                  % (name, ", ".join(gone)), file=sys.stderr)
            continue
        if exact:
            v = value(exact_totals, len(exact_ops))
        else:
            v = value(all_totals, len(traced))
        out[name] = {"value": float(v), "unit": unit}
    return out
