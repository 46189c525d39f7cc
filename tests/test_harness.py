"""Config materialization, experiment runner outputs, and the CLI."""

import ast
import copy
import dataclasses
import json
import logging
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from fednoise import harness
from fednoise.augment import AugmentPolicy, FeatureJitter, HorizontalFlip, Rotation
from fednoise.federation import RoundMetrics
from fednoise.harness import (
    GAMMA_TABLE,
    ConfigError,
    compare_methods,
    main,
    materialize_config,
    run_experiment,
    run_from_config,
    write_metrics_csv,
)
from test_data import write_idx_pair


def tiny_config(**over):
    cfg = {
        "seed": 0,
        "dataset": {"n_train": 120, "n_test": 40, "num_classes": 4, "dim": 6},
        "noise": {"kind": "symmetric", "ratio": 0.3},
        "federation": {
            "num_clients": 6,
            "clients_per_round": 2,
            "rounds": 3,
            "local_epochs": 1,
            "batch_size": 10,
            "method": "lsr",
            "hidden_layers": [8],
        },
    }
    cfg.update(over)
    return cfg


class TestMaterializeDefaults:
    def test_empty_config_fills_documented_defaults(self):
        echo = materialize_config({})
        assert echo["seed"] == 0
        assert echo["out"] == "fednoise-out"
        assert echo["dataset"] == {
            "kind": "synthetic", "n_train": 10000, "n_test": 2000,
            "num_classes": 10, "dim": 32, "seed": 0,
        }
        assert echo["noise"] == {"kind": "symmetric", "ratio": 0.4, "seed": 0}
        assert echo["federation"]["method"] == "lsr"
        assert echo["federation"]["rounds"] == 100
        assert echo["augment"] == "default"

    def test_master_seed_flows_into_null_sub_seeds(self):
        echo = materialize_config({"seed": 7})
        assert echo["dataset"]["seed"] == 7
        assert echo["noise"]["seed"] == 7
        echo = materialize_config({"seed": 7, "noise": {"seed": 3}})
        assert echo["noise"]["seed"] == 3

    def test_warmup_defaults_to_fifth_of_rounds(self):
        assert materialize_config({})["federation"]["warmup_rounds"] == 20
        echo = materialize_config({"federation": {"rounds": 150}})
        assert echo["federation"]["warmup_rounds"] == 30
        echo = materialize_config({"federation": {"rounds": 150, "warmup_rounds": 5}})
        assert echo["federation"]["warmup_rounds"] == 5

    def test_gamma_resolved_from_noise_level(self):
        for ratio, gamma in GAMMA_TABLE["symmetric"].items():
            echo = materialize_config({"noise": {"kind": "symmetric", "ratio": ratio}})
            assert echo["lsr"]["gamma"] == gamma
        for ratio, gamma in GAMMA_TABLE["pairwise"].items():
            echo = materialize_config({"noise": {"kind": "pairwise", "ratio": ratio}})
            assert echo["lsr"]["gamma"] == gamma

    def test_gamma_nearest_entry_ties_to_lower(self, monkeypatch):
        echo = materialize_config({"noise": {"ratio": 0.33}})
        assert echo["lsr"]["gamma"] == GAMMA_TABLE["symmetric"][0.3]
        echo = materialize_config({"noise": {"ratio": 0.68}})
        assert echo["lsr"]["gamma"] == GAMMA_TABLE["symmetric"][0.7]
        echo = materialize_config({"noise": {"ratio": 0.72}})
        assert echo["lsr"]["gamma"] == GAMMA_TABLE["symmetric"][0.7]
        echo = materialize_config({"noise": {"kind": "none", "ratio": 0.0}})
        assert echo["lsr"]["gamma"] == 0.2
        # exact float tie needs binary-representable keys; lower ratio wins
        monkeypatch.setitem(GAMMA_TABLE, "symmetric", {0.25: 0.11, 0.75: 0.99})
        echo = materialize_config({"noise": {"ratio": 0.5}})
        assert echo["lsr"]["gamma"] == 0.11

    def test_explicit_gamma_wins_over_table(self):
        echo = materialize_config({"lsr": {"gamma": 0.77}})
        assert echo["lsr"]["gamma"] == 0.77

    def test_distill_kind_follows_partition(self):
        assert materialize_config({})["lsr"]["distill_kind"] == "js"
        echo = materialize_config({"partition": {"kind": "noniid"}})
        assert echo["lsr"]["distill_kind"] == "l1"
        echo = materialize_config({"partition": {"kind": "noniid"}, "lsr": {"distill_kind": "l2"}})
        assert echo["lsr"]["distill_kind"] == "l2"

    def test_entropy_weight_defaults_by_method(self):
        assert materialize_config({})["lsr"]["entropy_weight"] == 0.0
        echo = materialize_config({"federation": {"method": "lsr_plus"}})
        assert echo["lsr"]["entropy_weight"] == 0.6

    def test_coteaching_rate_defaults_to_noise_ratio(self):
        echo = materialize_config({"noise": {"ratio": 0.7}})
        assert echo["coteaching"]["noise_rate"] == 0.7
        echo = materialize_config({"noise": {"kind": "none", "ratio": 0.0}})
        assert echo["coteaching"]["noise_rate"] == 0.0
        echo = materialize_config({"coteaching": {"noise_rate": 0.25}})
        assert echo["coteaching"]["noise_rate"] == 0.25

    def test_input_dict_never_mutated(self):
        raw = {"federation": {"rounds": 10}}
        before = copy.deepcopy(raw)
        materialize_config(raw, {"seed": 9})
        assert raw == before


class TestMaterializeValidation:
    def test_unknown_keys_named_in_error(self):
        with pytest.raises(ConfigError, match="typo"):
            materialize_config({"typo": 1})
        with pytest.raises(ConfigError, match=r"federation\.'roundz'"):
            materialize_config({"federation": {"roundz": 5}})
        with pytest.raises(ConfigError, match=r"lsr\.'temp'"):
            materialize_config({"lsr": {"temp": 0.5}})

    def test_value_checks(self):
        with pytest.raises(ConfigError):
            materialize_config({"seed": -1})
        with pytest.raises(ConfigError):
            materialize_config({"seed": True})
        with pytest.raises(ConfigError):
            materialize_config({"out": ""})
        with pytest.raises(ConfigError):
            materialize_config({"noise": {"ratio": 1.0}})
        with pytest.raises(ConfigError):
            materialize_config({"noise": {"kind": "salt"}})
        with pytest.raises(ConfigError):
            materialize_config({"partition": {"kind": "dirichlet"}})
        with pytest.raises(ConfigError):
            materialize_config({"federation": {"method": "dropout"}})
        with pytest.raises(ConfigError):
            materialize_config({"federation": {"hidden_layers": []}})
        with pytest.raises(ConfigError):
            materialize_config({"lsr": {"fix_lambda": 1.5}})
        with pytest.raises(ConfigError):
            materialize_config(["not", "a", "dict"])

    def test_dataset_kind_specific_keys(self):
        with pytest.raises(ConfigError):
            materialize_config({"dataset": {"kind": "parquet"}})
        with pytest.raises(ConfigError, match="dataset.train_path"):
            materialize_config({"dataset": {"kind": "csv"}})
        with pytest.raises(ConfigError, match=r"dataset\.'n_train'"):
            materialize_config({"dataset": {"kind": "idx", "n_train": 5}})
        echo = materialize_config(
            {"dataset": {"kind": "csv", "train_path": "a.csv", "test_path": "b.csv"}}
        )
        assert echo["dataset"]["num_classes"] is None

    def test_synthetic_dim_bound_matches_the_generator(self):
        # generate_synthetic needs dim >= 2; the config must say so up front.
        with pytest.raises(ConfigError, match="dataset.dim"):
            materialize_config({"dataset": {"dim": 1}})
        assert materialize_config({"dataset": {"dim": 2}})["dataset"]["dim"] == 2

    def test_augment_forms(self):
        assert materialize_config({"augment": "none"})["augment"] == "none"
        spec = [{"kind": "feature_jitter", "sigma": 0.2}]
        assert materialize_config({"augment": spec})["augment"] == spec
        with pytest.raises(ConfigError):
            materialize_config({"augment": "every"})
        with pytest.raises(ConfigError):
            materialize_config({"augment": [{"kind": "blur"}]})
        with pytest.raises(ConfigError, match="sigma"):
            materialize_config({"augment": [{"kind": "rotation", "sigma": 0.1}]})
        with pytest.raises(ConfigError):
            materialize_config({"augment": [{"sigma": 0.1}]})

    def test_overrides_apply_dotted_paths(self):
        echo = materialize_config(
            {"federation": {"rounds": 10}},
            {"seed": 5, "federation.method": "sym_ce", "noise.ratio": 0.5},
        )
        assert echo["seed"] == 5
        assert echo["federation"]["method"] == "sym_ce"
        assert echo["federation"]["rounds"] == 10
        assert echo["noise"]["ratio"] == 0.5
        with pytest.raises(ConfigError):
            materialize_config({}, {"a.b.c": 1})


WRONG_TYPED = [
    ("federation.lr", {"federation": {"lr": "fast"}}),
    ("federation.workers", {"federation": {"workers": "2"}}),
    ("federation.batch_size", {"federation": {"batch_size": 2.5}}),
    ("federation.local_epochs", {"federation": {"local_epochs": 1.5}}),
    ("federation.rounds", {"federation": {"rounds": 2.0}}),
    ("federation.clients_per_round", {"federation": {"clients_per_round": True}}),
    ("noise.seed", {"noise": {"seed": 1.5}}),
    ("sym_ce.alpha", {"sym_ce": {"alpha": "x"}}),
    ("lsr.sharpen_temp", {"lsr": {"sharpen_temp": "x"}}),
    ("lsr.clamp_lo", {"lsr": {"clamp_lo": None}}),
    ("coteaching.ramp_rounds", {"coteaching": {"ramp_rounds": "x"}}),
    ("augment[0].sigma", {"augment": [{"kind": "feature_jitter", "sigma": "x"}]}),
]


@pytest.mark.parametrize("key,raw", WRONG_TYPED, ids=[k for k, _ in WRONG_TYPED])
def test_wrong_typed_value_names_key(key, raw):
    with pytest.raises(ConfigError, match=re.escape(key)):
        materialize_config(raw)


def test_dataclass_bounds_checked_before_the_run():
    with pytest.raises(ConfigError, match=r"augment\[0\]: jitter sigma"):
        materialize_config({"augment": [{"kind": "feature_jitter", "sigma": -1.0}]})
    with pytest.raises(ConfigError, match="federation: lr"):
        materialize_config({"federation": {"lr": -0.1}})
    with pytest.raises(ConfigError, match="coteaching: noise_rate"):
        materialize_config({"coteaching": {"noise_rate": 1.0}})


def test_augment_op_defaults():
    spec = [{"kind": "rotation"}, {"kind": "horizontal_flip"}, {"kind": "feature_jitter"}]
    policy = harness._build_policy(spec)
    assert policy == AugmentPolicy((Rotation(30.0), HorizontalFlip(0.5), FeatureJitter(0.05)))
    assert materialize_config({"augment": spec})["augment"] == spec


def test_dataclass_sections_state_each_field_once():
    # A dataclass-backed section has one key per field, in field order, each
    # typed from the field's annotation.
    sections = {**harness._AUGMENT_OPS.kinds, **harness._SCHEMA.entries}
    backed = [spec for spec in sections.values() if getattr(spec, "cls", None) is not None]
    assert len(backed) == 8
    for spec in backed:
        fields = dataclasses.fields(spec.cls)
        assert list(spec.entries) == [f.name for f in fields]
        for f in fields:
            assert harness._ANNOTATION_TYPES[f.type] in harness._TYPES


def test_integers_for_float_keys_echo_as_given(tmp_path):
    def run(ratio, gamma, out):
        cfg = tiny_config(out=str(tmp_path / out))
        cfg["noise"]["ratio"] = ratio
        cfg["lsr"] = {"gamma": gamma}
        echo = run_experiment(config=cfg)["config_echo"]
        return echo, (tmp_path / out / "metrics.csv").read_bytes()

    echo, ints = run(0, 1, "ints")
    assert repr(echo["noise"]["ratio"]) == "0" and repr(echo["lsr"]["gamma"]) == "1"
    assert ints == run(0.0, 1.0, "floats")[1]


def test_docstring_config_block_matches_schema():
    doc = harness.__doc__
    start = doc.index("\n    {\n")
    block = doc[start:doc.index("\n    }\n", start) + len("\n    }")]
    assert json.loads(block) == harness._walk({}, harness._SCHEMA, "")


class TestRunFromConfig:
    def test_image_augment_on_flat_features_rejected(self):
        cfg = tiny_config(augment=[{"kind": "rotation"}])
        with pytest.raises(ConfigError, match="flat"):
            run_from_config(materialize_config(cfg))

    def test_default_augment_resolves_to_jitter_for_flat_data(self):
        _, echo = run_from_config(materialize_config(tiny_config()))
        assert echo["augment"] == [{"kind": "feature_jitter", "sigma": 0.6}]

    def test_partition_mismatch_surfaces_as_config_error(self):
        cfg = tiny_config()
        cfg["federation"]["num_clients"] = 7  # 120 samples do not split 7 ways
        cfg["federation"]["clients_per_round"] = 2
        with pytest.raises(ConfigError):
            run_from_config(materialize_config(cfg))


class TestRunExperiment:
    def test_writes_metrics_and_summary(self, tmp_path):
        out = tmp_path / "run1"
        summary = run_experiment(config=tiny_config(out=str(out)))
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "round,test_accuracy,mean_train_loss,gamma_t,selected_clients"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0"
        assert 0.0 <= float(first[1]) <= 1.0
        assert len(first[4].split(";")) == 2

        stored = json.loads((out / "summary.json").read_text())
        accs = [float(l.split(",")[1]) for l in lines[1:]]
        np.testing.assert_allclose(stored["final_acc_last10_mean"], np.mean(accs))
        np.testing.assert_allclose(stored["best_acc"], max(accs))
        assert stored == json.loads(json.dumps(summary))
        assert stored["config_echo"]["lsr"]["gamma"] == GAMMA_TABLE["symmetric"][0.3]
        assert not [p for p in out.iterdir() if p.name.startswith(".tmp-")]

    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        # metrics.csv is a non-empty directory, so the rename onto it fails
        # and the temporary file written beside it must be removed.
        out = tmp_path / "out"
        (out / "metrics.csv").mkdir(parents=True)
        (out / "metrics.csv" / "keep").write_text("x")
        with pytest.raises(OSError):
            run_experiment(config=tiny_config(out=str(out)))
        assert not [p for p in out.iterdir() if p.name.startswith(".tmp-")]

    def test_rerun_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_experiment(config=tiny_config(out=str(a)))
        run_experiment(config=tiny_config(out=str(b)))
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

    def test_worker_count_does_not_change_output_bytes(self, tmp_path):
        a = tmp_path / "w1"
        b = tmp_path / "w3"
        cfg = tiny_config(out=str(a))
        run_experiment(config=cfg)
        cfg_b = tiny_config(out=str(b))
        cfg_b["federation"]["workers"] = 3
        run_experiment(config=cfg_b)
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

    def test_outputs_follow_the_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            run_experiment(config=tiny_config(out=str(tmp_path / "run")))
        finally:
            os.umask(old)
        for name in ("metrics.csv", "summary.json"):
            assert (tmp_path / "run" / name).stat().st_mode & 0o777 == 0o644

    def test_logs_each_round_as_it_completes(self, tmp_path, caplog):
        out = tmp_path / "logged"
        with caplog.at_level(logging.INFO, logger="fednoise"):
            run_experiment(config=tiny_config(out=str(out)))
        rounds = [r.getMessage() for r in caplog.records if r.getMessage().startswith("round ")]
        rows = (out / "metrics.csv").read_text().splitlines()[1:]
        assert len(rounds) == len(rows) == 3
        for message, row in zip(rounds, rows):
            t, acc = row.split(",")[:2]
            assert message.startswith(f"round {t}: accuracy {float(acc):.4f}, mean train loss ")

    def test_echo_replays_byte_identically(self, tmp_path):
        first = tmp_path / "orig"
        run_experiment(config=tiny_config(out=str(first)))
        echo = json.loads((first / "summary.json").read_text())["config_echo"]
        echo["out"] = str(tmp_path / "replay")
        run_experiment(config=echo)
        assert (first / "metrics.csv").read_bytes() == (
            tmp_path / "replay" / "metrics.csv"
        ).read_bytes()

    def test_zero_rounds_writes_header_only(self, tmp_path):
        out = tmp_path / "dry"
        cfg = tiny_config(out=str(out))
        cfg["federation"]["rounds"] = 0
        cfg["federation"]["warmup_rounds"] = 0
        summary = run_experiment(config=cfg)
        assert (out / "metrics.csv").read_text() == (
            "round,test_accuracy,mean_train_loss,gamma_t,selected_clients\n"
        )
        assert summary["final_acc_last10_mean"] is None
        assert summary["best_acc"] is None

    def test_exactly_one_config_source(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment()
        with pytest.raises(ConfigError):
            run_experiment(config_path="x.json", config={})
        with pytest.raises(ConfigError, match="cannot read"):
            run_experiment(config_path=str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            run_experiment(config_path=str(bad))

    def test_metrics_csv_format_exact(self, tmp_path):
        path = tmp_path / "m.csv"
        rows = [
            RoundMetrics(0, 0.5, 1.25, 0.0, (3, 1)),
            RoundMetrics(1, 0.625, float("nan"), 0.1, (0,)),
        ]
        write_metrics_csv(str(path), rows)
        assert path.read_text() == (
            "round,test_accuracy,mean_train_loss,gamma_t,selected_clients\n"
            "0,0.5,1.25,0.0,3;1\n"
            "1,0.625,nan,0.1,0\n"
        )


def test_package_exports_each_module_all_once():
    import fednoise
    from fednoise import augment, data, federation, losses, model, numerics

    modules = (augment, data, federation, harness, losses, model, numerics)
    exported = fednoise.__all__
    assert len(exported) == len(set(exported))
    assert set(exported) == {"__version__"}.union(*(m.__all__ for m in modules))
    for module in modules:
        for name in module.__all__:
            assert getattr(fednoise, name) is getattr(module, name), name


# `main` is the console script's entry point: pyproject.toml's
# [project.scripts] table names it, no module calls it.
_ENTRY_POINTS = {"main"}


def _used_names(path):
    """Every Name id and Attribute attr in a file; an import names none."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Name, ast.Attribute))
    }


@pytest.mark.parametrize(
    "module", ["augment", "data", "federation", "harness", "losses", "model", "numerics"]
)
def test_every_public_name_has_a_user(module):
    # A name in a module's __all__ is used by the package itself or by the
    # acceptance criteria; a helper that only unit tests call is not public.
    import importlib

    import fednoise

    used = set().union(*map(_used_names, Path(fednoise.__file__).parent.glob("*.py")))
    used |= _used_names(Path(__file__).with_name("test_acceptance.py")) | _ENTRY_POINTS
    mod = importlib.import_module(f"fednoise.{module}")
    unused = [name for name in mod.__all__ if name not in used]
    assert not unused, f"fednoise.{module} names no run and no acceptance test uses: {unused}"


# Runs in a fresh interpreter: pytest itself has loaded these modules.
_LAZY_IMPORTS_SCRIPT = textwrap.dedent("""
    import json, sys
    import fednoise

    assert "numpy.random" in sys.modules, "importing fednoise did not load numpy.random"
    fednoise.run_experiment(config=json.loads(sys.argv[1]))
    unused = ("numpy.ma", "argparse", "concurrent.futures", "csv")
    loaded = [name for name in unused if name in sys.modules]
    assert not loaded, f"a one-worker tabular run loaded {loaded}"
""")


def test_tabular_run_loads_no_module_it_never_uses(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    config = tiny_config(out=str(tmp_path / "run"))
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_IMPORTS_SCRIPT, json.dumps(config)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


class TestCompareMethods:
    def test_rows_in_input_order_with_stats(self, tmp_path):
        out = tmp_path / "cmp"
        cfg = tiny_config()
        report = compare_methods(cfg, ["sym_ce", "fedavg_ce"], [0, 1], str(out))
        methods = [row["method"] for row in report["methods"]]
        assert methods == ["sym_ce", "fedavg_ce"]
        row = report["methods"][0]
        assert row["seeds"] == [0, 1]
        assert len(row["final_accs"]) == 2
        np.testing.assert_allclose(row["final_mean"], np.mean(row["final_accs"]))
        np.testing.assert_allclose(row["final_std"], np.std(row["final_accs"]))

        csv_lines = (out / "compare.csv").read_text().splitlines()
        assert csv_lines[0] == "method,final_mean,final_std,best_mean,best_std"
        assert csv_lines[1].startswith("sym_ce,")
        assert csv_lines[2].startswith("fedavg_ce,")
        stored = json.loads((out / "compare.json").read_text())
        assert stored == json.loads(json.dumps(report))

    def test_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            compare_methods(tiny_config(), [], [0], str(tmp_path))
        with pytest.raises(ConfigError):
            compare_methods(tiny_config(), ["fedavg_ce"], [], str(tmp_path))
        with pytest.raises(ConfigError, match="method"):
            compare_methods(tiny_config(), ["mixup"], [0], str(tmp_path))
        # A config path is no second accepted form; main reads the file.
        with pytest.raises(ConfigError, match="JSON object"):
            compare_methods(str(tmp_path / "config.json"), ["fedavg_ce"], [0], str(tmp_path))


class TestCli:
    def write_config(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_config(out=str(tmp_path / "out"))))
        return path

    def test_run_subcommand(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        code = main(["run", "--config", str(path)])
        assert code == 0
        assert "final accuracy" in capsys.readouterr().out
        assert (tmp_path / "out" / "metrics.csv").exists()

    def test_run_overrides(self, tmp_path):
        path = self.write_config(tmp_path)
        code = main([
            "run", "--config", str(path),
            "--seed", "3", "--method", "fedavg_ce", "--noise-kind", "pairwise",
            "--noise-ratio", "0.2", "--rounds", "2", "--workers", "2",
            "--out", str(tmp_path / "over"),
        ])
        assert code == 0
        echo = json.loads((tmp_path / "over" / "summary.json").read_text())["config_echo"]
        assert echo["seed"] == 3
        assert echo["federation"]["method"] == "fedavg_ce"
        assert echo["noise"] == {"kind": "pairwise", "ratio": 0.2, "seed": 3}
        assert echo["federation"]["rounds"] == 2
        assert echo["federation"]["workers"] == 2
        assert len((tmp_path / "over" / "metrics.csv").read_text().splitlines()) == 3

    def test_bad_config_exits_2_naming_key(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"typo": 1}))
        code = main(["run", "--config", str(path)])
        assert code == 2
        assert "typo" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{broken")
        code = main(["run", "--config", str(path)])
        assert code == 2
        assert "JSON" in capsys.readouterr().err

    def test_compare_subcommand(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        code = main([
            "compare", "--config", str(path),
            "--methods", "fedavg_ce,sym_ce", "--seeds", "0",
            "--out", str(tmp_path / "cmp"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.index("fedavg_ce:") < out.index("sym_ce:")
        assert (tmp_path / "cmp" / "compare.csv").exists()

    def test_wrong_typed_value_exits_2_naming_key(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_config(federation={"lr": "fast"})))
        code = main(["run", "--config", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "federation.lr" in err

    @pytest.mark.parametrize("label", ["nan", "inf", "1e30"])
    def test_unusable_csv_label_exits_2_naming_row(self, tmp_path, capsys, label):
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        train.write_text(f"0,1.0\n{label},2.0\n")
        test.write_text("0,1.0\n1,2.0\n")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(tiny_config(
            dataset={"kind": "csv", "train_path": str(train), "test_path": str(test)},
        )))
        code = main(["run", "--config", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: dataset: {train}: row 2 label {label} ")

    def test_idx_test_label_unseen_in_training_exits_2_naming_file(self, tmp_path, capsys):
        # The training labels give 2 classes; the test set holds a class 2.
        paths = {}
        for split, labels in (("train", [0, 1, 0, 1]), ("test", [0, 2])):
            (tmp_path / split).mkdir()
            images = np.zeros((len(labels), 2, 2), np.uint8)
            pair = write_idx_pair(tmp_path / split, images, np.array(labels))
            paths[f"{split}_images"], paths[f"{split}_labels"] = pair
        config = tmp_path / "config.json"
        config.write_text(json.dumps(tiny_config(
            dataset={"kind": "idx", **paths}, augment="none",
            federation={"num_clients": 2, "clients_per_round": 1, "rounds": 1},
        )))
        code = main(["run", "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: dataset: {paths['test_labels']}: label 2 ")

    def test_compare_missing_config_exits_2(self, tmp_path, capsys):
        code = main([
            "compare", "--config", str(tmp_path / "missing.json"),
            "--methods", "fedavg_ce", "--seeds", "0",
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: cannot read")

    def test_compare_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{broken")
        code = main([
            "compare", "--config", str(path), "--methods", "fedavg_ce", "--seeds", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "JSON" in err

    @pytest.mark.parametrize("cmd", ["run", "compare"])
    def test_a_diverged_run_exits_1_with_one_error_line(self, tmp_path, cmd):
        # Training that diverges raises ValueError; the console script
        # reports it on one stderr line, not as a traceback, even with
        # numpy's RuntimeWarnings turned into errors. A config error, a
        # ValueError too, still exits 2.
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else ""),
               "PYTHONWARNINGS": "error::RuntimeWarning"}
        script = "import sys; from fednoise.harness import main; sys.exit(main(sys.argv[1:]))"
        args = {"run": [], "compare": ["--methods", "lsr", "--seeds", "0"]}[cmd]
        diverged = "error: round 0, method lsr, lr 1e+200: clients ["
        for federation, code, start in (({"lr": 1e200}, 1, diverged),
                                        ({"lr": -1.0}, 2, "config error: federation: lr ")):
            config = tmp_path / "config.json"
            config.write_text(json.dumps(tiny_config(
                out=str(tmp_path / "out"),
                federation={**tiny_config()["federation"], **federation},
            )))
            proc = subprocess.run(
                [sys.executable, "-c", script, cmd, "--config", str(config), *args],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == code, proc.stderr
            assert proc.stderr.startswith(start), proc.stderr
            assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr

    def test_compare_rejects_non_integer_seeds(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        code = main([
            "compare", "--config", str(path),
            "--methods", "fedavg_ce", "--seeds", "zero",
        ])
        assert code == 2
        assert "seeds" in capsys.readouterr().err
