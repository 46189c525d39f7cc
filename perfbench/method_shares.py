"""Per-method layer shares: one short traced run per method, as a Markdown table.

    python3 perfbench/method_shares.py [--rounds 5] [--seed 0]

Each of the 8 methods runs on the lsr_tabular setup (10k x 32 synthetic
data, 100 clients, K=5, symmetric 40% noise) with the method swapped in,
in a fresh traced process. A share is the layer's self time over the
run_experiment time, as in the benchmark's ``<layer>.share``. The table is
reported, not gated.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys

from run import HERE, SRC, spawn
from spans import LAYERS
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    from fednoise.federation import METHODS

    workdir = os.path.join(HERE, "work", f"shares-{os.getpid()}")
    os.makedirs(workdir)
    rows = []
    try:
        for method in METHODS:
            cfg = workloads.config("lsr_tabular", args.seed, workdir)
            cfg["federation"].update(method=method, rounds=args.rounds)
            path = workloads.write_config(cfg, os.path.join(workdir, f"{method}.json"))
            _, result = spawn([os.path.join(HERE, "child.py"), SRC, path, "trace"], 300)
            if isinstance(result, str):
                raise SystemExit(f"{method}: {result}")
            layers = result["layers"]
            round_ms = statistics.median(result["round_ns"]) / 1e6
            rows.append([method, f"{round_ms:.0f}"]
                        + [f"{100 * layers[f'{layer}.share']:.1f}" for layer in LAYERS])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    header = ["method", "ms/round", *(f"{layer} %" for layer in LAYERS)]
    print("| " + " | ".join(header) + " |")
    print("|" + "|".join("---" for _ in header) + "|")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
