"""Smoke tests for the benchmark at tiny size.

    python3 -m pytest -q perfbench/smoke.py

The file name keeps these out of the repository's own test collection, so
the tier-1 suite does not get slower. They check that BENCHMARK.json and
the code agree, that every metric prints with its unit, that spans nest,
that counts repeat exactly, that the generated images are learnable, that
the method hashes match golden.json, and that the benchmark refuses to run
without the fednoise sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import golden  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture
def workdir(request):
    """A fresh directory under perfbench/work, removed after the test."""
    path = os.path.join(HERE, "work", f"smoke-{os.getpid()}-{request.node.name}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=175)


def traced_run(name: str, workdir: str) -> list:
    import fednoise

    cfg = workloads.config(name, 0, workdir, tiny=True)
    tracer = spans.Tracer().install()
    try:
        fednoise.run_experiment(config=cfg)
    finally:
        tracer.uninstall()
    return tracer.spans


def test_benchmark_json_matches_the_code(spec):
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] \
        == [(name, workloads.WORKLOADS[name]) for name in workloads.GATED]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == list(run.E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_its_unit(spec, trace, kind):
    proc = bench("--workload", "ce_k20_w2", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines), name
    assert any(line.split()[:1] == ["failed_frac"] for line in lines)


def test_spans_nest_and_self_times_are_not_negative(workdir):
    recorded = traced_run("ce_k20_w2", workdir)
    by_id = {s[0]: s for s in recorded}
    roots = [s for s in recorded if s[4] is None]
    assert [s[1] for s in roots] == ["harness.run_experiment"]
    for sid, name, start, end, parent, thread, _ in recorded:
        assert start <= end
        if parent is not None:
            p = by_id[parent]
            assert p[2] <= start and end <= p[3], (name, p[1])
    main = threading.get_ident()
    pooled = [s for s in recorded if s[5] != main]
    assert pooled, "workers=2 should run clients on pool threads"
    assert all(by_id[s[4]][1] != "harness.run_experiment" for s in pooled)
    assert {by_id[s[4]][1] for s in pooled if s[1] == "federation.local_train"} \
        == {"federation.round"}
    assert min(spans.self_times(recorded).values()) >= 0


def test_counts_repeat_exactly(workdir):
    first = spans.layer_metrics(traced_run("coteach_noniid", os.path.join(workdir, "a")), 0)
    second = spans.layer_metrics(traced_run("coteach_noniid", os.path.join(workdir, "b")), 0)
    assert first["losses.small_loss_select.calls"] > 0
    for name in spans.COUNTS & set(first):
        assert first[name] == second[name], name


def test_layer_shares_sum_to_one(workdir):
    metrics = spans.layer_metrics(traced_run("image_lsr", workdir), 0)
    assert metrics["augment.apply_batch.calls"] > 0 and metrics["data.load_idx.self_ms"] > 0
    assert sum(metrics[f"{layer}.share"] for layer in spans.LAYERS) == pytest.approx(1.0)


def test_image_data_is_learnable(workdir):
    import fednoise

    cfg = workloads.config("image_lsr", 0, workdir, tiny=True)
    cfg["noise"]["ratio"] = 0.0
    cfg["federation"]["rounds"] = 10
    summary = fednoise.run_experiment(config=cfg)
    assert summary["final_acc_last10_mean"] > 0.5  # chance is 0.1


def test_method_hashes_match_golden_at_both_worker_counts(workdir):
    from child import blas_info

    report = {"blas_core": blas_info()["blas_core"],
              "hashes": golden.hash_methods(workdir)}
    checks = golden.check_methods(report, golden.load())
    assert len(checks) == 16
    assert all(ok for _, ok, _ in checks), [c for c in checks if not c[1]]


def test_stored_workload_hashes_agree_between_worker_counts():
    stored = golden.load()["workloads"]
    assert len(stored["ce_k20"]) == golden.SEEDS
    assert stored["ce_k20_w2"] == stored["ce_k20"]


def test_refuses_to_run_without_the_sources(workdir):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), workdir)
    shutil.copytree(HERE, os.path.join(workdir, "perfbench"),
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = bench("--workload", "lsr_tabular", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=workdir)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
