"""Machine description and the machine-speed probe.

Run ``python3 perfbench/machine.py`` to print the description as JSON (with
BLAS pinned to one thread, as in the benchmark); the benchmark prints the
same description with every run.
"""

import json
import os
import platform
import time

# Thread-count variables of the BLAS builds numpy may use; the benchmark sets
# each to 1.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes():
    """{"L2": "2048K", "L3": ...} from sysfs for cpu0, where it exists."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level"), encoding="utf-8") as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size"), encoding="utf-8") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            out["L" + level] = size
    return out


def _blas_name(np):
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "%s %s" % (info.get("name"), info.get("version"))
    except (TypeError, KeyError):
        return "unknown"


def describe():
    """Machine facts the benchmark's timings depend on."""
    import numpy as np

    caches = _cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_cache": caches.get("L2"),
        "l3_cache": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(np),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
    }


# The probe's median time on the machine in MACHINE.json.  Calibrated timings
# are wall times rescaled to the speed at which the probe takes this long.
REF_NOMINAL_S = 0.014

_REF_INPUTS = {}


def _ref_inputs():
    import numpy as np

    if not _REF_INPUTS:
        rng = np.random.default_rng(0)
        _REF_INPUTS.update(
            a=rng.standard_normal((256, 256)),
            v=rng.standard_normal(200_000),
            table=rng.standard_normal((8, 8, 5, 3)),
            i=rng.integers(0, 8, 4000),
            j=rng.integers(0, 8, 4000),
            w=rng.random(4000),
            rot=rng.standard_normal((4000, 3, 3)),
        )
    return _REF_INPUTS


def ref_kernel_s():
    """Time of one pass of a fixed numpy kernel: the machine-speed probe.

    The kernel mixes the kinds of work the workloads do: dense matmuls and a
    sort, table gathers with batched 3x3 products, and a plain Python loop.
    Its inputs are fixed and it calls nothing from platecell, so a change to
    the package cannot change its time; only the machine's speed can.
    """
    import numpy as np

    x = _ref_inputs()
    t0 = time.perf_counter()
    for _ in range(8):
        b = x["a"] @ x["a"]
    np.sort(x["v"] + b[0, 0])
    for _ in range(3):
        acc = np.zeros((4000, 3))
        for k in range(4):
            for c in range(2):
                acc += (x["w"] * (1.0 - x["w"]))[:, None] \
                    * x["table"][x["i"], x["j"], k + c]
            acc = np.einsum("mij,mj->mi", x["rot"], acc)
            acc /= np.abs(acc).max()
        s = 0.0
        for n in range(3000):
            s += n * 0.5
    return time.perf_counter() - t0


if __name__ == "__main__":
    for _var in BLAS_ENV:
        os.environ[_var] = "1"
    print(json.dumps(describe(), indent=2))
