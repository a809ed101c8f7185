"""One benchmark process: set up, run one sweep through ``modgraph.cli.main``,
write a JSON report.

    python bench/child.py SPEC.json

SPEC holds ``mode`` (``setup``, ``sweep``, ``trace`` or ``memory``), the
CLI ``argv``, the ``config`` path and the ``report`` path.  ``setup`` stops
once the process is ready for its first task; ``sweep`` runs untraced;
``trace`` records spans (see tracing.py); ``memory`` records tracemalloc
peaks per span, in a process of its own so that tracemalloc's cost never
lands in span times.
"""

import ctypes
import json
import os
import resource
import sys
import time


def blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in os.path.basename(line.rstrip())})
    except OSError:
        return {}
    counts = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                counts[os.path.basename(path)] = fn()
                break
    return counts


with open(sys.argv[1]) as fh:
    spec = json.load(fh)

import modgraph  # noqa: E402
import modgraph.cli  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse  # noqa: E402,F401  (loaded lazily by the library)
import scipy.sparse.csgraph  # noqa: E402,F401

modgraph.experiments.ExperimentConfig.from_file(spec["config"])
report = {"t_ready": time.perf_counter()}

if spec["mode"] != "setup":
    recorder = None
    if spec["mode"] in ("trace", "memory"):
        import tracing
        recorder = tracing.Recorder(memory=spec["mode"] == "memory")
        recorder.install()
        if recorder.memory:
            import tracemalloc
            tracemalloc.start()
    results = []
    run_experiment = modgraph.cli.run_experiment

    def capture(*args, **kwargs):
        results.append(run_experiment(*args, **kwargs))
        return results[-1]

    modgraph.cli.run_experiment = capture
    start = time.perf_counter()
    exit_code = modgraph.cli.main(spec["argv"])
    report["sweep_s"] = time.perf_counter() - start
    report["exit_code"] = exit_code
    if recorder is not None:
        if recorder.memory:
            tracemalloc.stop()
        report["trace"] = recorder.dump()
    result = results[0]
    report["task_ms"] = [rec["walltime_ms"] for rec in result.records]
    report["checks"] = {c.name: c.passed for c in result.checks}

report["env"] = {"blas_threads": blas_threads(), "numpy": numpy.__version__,
                 "scipy": scipy.__version__}
report["maxrss_kb"] = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                          resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
with open(spec["report"], "w") as fh:
    json.dump(report, fh)
