"""One benchmark run in a fresh process.

    python3 perfbench/child.py SRC CONFIG {plain,trace}

Imports fednoise from SRC (and refuses a copy from anywhere else), runs
``run_experiment`` on the JSON config, and prints one JSON line: monotonic
timestamps in ns (comparable with the parent's clock on Linux), round
durations, the wall time of each segment between SGD steps (see
``spans.segments``), CPU seconds and peak RSS of this process, the final
accuracy, the SHA-256 of ``metrics.csv`` and the environment. A ``plain``
run wraps only the round and step clock; a ``trace`` run wraps every
layer and adds the per-layer metrics.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import time


def blas_info() -> dict:
    """BLAS name, version, CPU kernel and thread count as numpy loaded it."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_core": None, "blas_threads": None,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            core = getattr(lib, f"{prefix}_get_corename{suffix}", None)
            if threads is None or core is None:
                continue
            threads.restype, core.restype = ctypes.c_int, ctypes.c_char_p
            info["blas_threads"], info["blas_core"] = threads(), core().decode()
            return info
    return info


def main(argv: list) -> int:
    src, config_path, mode = argv
    import_start = time.monotonic_ns()
    sys.path.insert(0, src)
    import fednoise

    import_ns = time.monotonic_ns() - import_start
    home = os.path.realpath(os.path.dirname(fednoise.__file__))
    if os.path.dirname(home) != os.path.realpath(src):
        print(f"fednoise was imported from {home}, not from {src}", file=sys.stderr)
        return 2

    import spans

    tracer = spans.Tracer().install(None if mode == "trace" else spans.CLOCK)
    summary = fednoise.run_experiment(config_path)
    done = time.monotonic_ns()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    with open(os.path.join(summary["config_echo"]["out"], "metrics.csv"), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()

    rounds = sorted((s for s in tracer.spans if s[1] == "federation.round"), key=lambda s: s[2])
    (fed,) = [s for s in tracer.spans if s[1] == "federation.run"]
    (root,) = [s for s in tracer.spans if s[1] == "harness.run_experiment"]
    scipy = sys.modules.get("scipy")
    result = {
        "first_round_ns": rounds[0][2],
        "fed_end_ns": fed[3],
        "done_ns": done,
        "round_ns": [s[3] - s[2] for s in rounds],
        "segments": spans.segments(tracer.spans),
        "experiment_ns": root[3] - root[2],
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "final_acc": summary["final_acc_last10_mean"],
        "sha256": digest,
        "env": {"python": platform.python_version(),
                "numpy": sys.modules["numpy"].__version__,
                "scipy": scipy.__version__ if scipy else None, **blas_info()},
    }
    if mode == "trace":
        result["layers"] = spans.layer_metrics(tracer.spans, import_ns)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
