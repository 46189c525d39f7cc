"""Golden SHA-256 hashes of fednoise's metrics.csv, stored in golden.json.

Two kinds of hash:

* ``workloads``: the hash of each benchmark workload's metrics.csv for
  seeds 0 to SEEDS - 1, at full benchmark size;
* ``methods``: one short fixed config per method (all 8), each run with
  workers=1 and workers=2, which must give the same hash.

Float results depend on the BLAS kernel, so the file records the OpenBLAS
core it was made on; on another core the stored hashes are not compared
and the benchmark falls back to checking that repeated runs agree.

    python3 perfbench/golden.py methods     # hash the 8 method configs (JSON line)
    python3 perfbench/golden.py update      # rewrite golden.json (several minutes)
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden.json")
SEEDS = 32
WORKERS = (1, 2)


def method_config(method: str, workers: int, out: str) -> dict:
    """A short fixed config: 600 samples, 10 clients, 3 rounds."""
    return {
        "seed": 0,
        "out": out,
        "dataset": {"kind": "synthetic", "n_train": 600, "n_test": 200,
                    "num_classes": 10, "dim": 32},
        "noise": {"kind": "symmetric", "ratio": 0.4},
        "federation": {"num_clients": 10, "clients_per_round": 3, "rounds": 3,
                       "local_epochs": 2, "batch_size": 30, "method": method,
                       "workers": workers},
    }


def csv_hash(out_dir: str) -> str:
    with open(os.path.join(out_dir, "metrics.csv"), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def hash_methods(workdir: str) -> dict:
    """Run every method at each worker count in this process: {method: [hash...]}."""
    import fednoise

    hashes = {}
    for method in fednoise.METHODS:
        hashes[method] = []
        for workers in WORKERS:
            out = os.path.join(workdir, f"{method}-w{workers}")
            fednoise.run_experiment(config=method_config(method, workers, out))
            hashes[method].append(csv_hash(out))
            shutil.rmtree(out)
    return hashes


def load() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def check_methods(report: dict, golden: dict) -> list:
    """One (label, ok, detail) per method run, from the ``methods`` command's output.

    Each hash is compared with golden.json when the BLAS core matches the
    one the file was made on, else with the workers=1 hash of its method.
    """
    comparable = report["blas_core"] == golden["blas_core"]
    checks = []
    for method, per_workers in report["hashes"].items():
        want = golden["methods"].get(method)
        for workers, got in zip(WORKERS, per_workers):
            if comparable:
                ok, detail = got == want, f"{got[:12]} vs golden {str(want)[:12]}"
            else:
                ok, detail = got == per_workers[0], f"{got[:12]} vs workers=1 {per_workers[0][:12]}"
            checks.append((f"{method} workers={workers}", ok, detail))
    return checks


def update() -> None:
    """Recompute every stored hash with the code under src/."""
    import workloads
    from child import blas_info

    workdir = os.path.join(HERE, "work", "golden")
    os.makedirs(workdir, exist_ok=True)
    try:
        methods = hash_methods(workdir)
        for method, (first, *rest) in methods.items():
            if any(h != first for h in rest):
                raise SystemExit(f"{method}: metrics.csv differs between worker counts")
        import fednoise

        golden = {"blas_core": blas_info()["blas_core"],
                  "methods": {m: h[0] for m, h in methods.items()}, "workloads": {}}
        for name in workloads.WORKLOADS:
            golden["workloads"][name] = {}
            for seed in range(SEEDS):
                cfg = workloads.config(name, seed, workdir)
                fednoise.run_experiment(config=cfg)
                golden["workloads"][name][str(seed)] = csv_hash(cfg["out"])
                print(name, seed, golden["workloads"][name][str(seed)][:12], flush=True)
        with open(GOLDEN, "w") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list) -> int:
    sys.path.insert(0, SRC)
    if argv == ["methods"]:
        workdir = os.path.join(HERE, "work", f"methods-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        try:
            from child import blas_info

            hashes = hash_methods(workdir)
            print(json.dumps({"blas_core": blas_info()["blas_core"], "hashes": hashes}))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if argv == ["update"]:
        update()
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
