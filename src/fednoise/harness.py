"""Experiment runner: JSON config in, metrics CSV plus summary JSON out.

A config file fully determines a run. Every optional knob has a default,
and the fully resolved config is echoed into the summary so a run can be
replayed byte-for-byte from its own output. Output files are written
atomically (temp file in the target directory, then rename).

Config layout (all sections optional, shown with defaults):

    {
      "seed": 0,
      "out": "fednoise-out",
      "dataset": {"kind": "synthetic", "n_train": 10000, "n_test": 2000,
                   "num_classes": 10, "dim": 32, "seed": null},
      "noise": {"kind": "symmetric", "ratio": 0.4, "seed": null},
      "partition": {"kind": "iid", "classes_per_client": 2},
      "federation": {"num_clients": 100, "clients_per_round": 5,
                      "rounds": 100, "local_epochs": 5, "batch_size": 60,
                      "lr": 0.15, "method": "lsr", "warmup_rounds": null,
                      "hidden_layers": [128, 64], "workers": 1},
      "lsr": {"sharpen_temp": 0.5, "distill_temp": 0.3333333333333333,
               "gamma": null, "entropy_weight": null, "distill_kind": null,
               "clamp_lo": 1e-06, "fix_lambda": null},
      "sym_ce": {"alpha": 0.1, "beta": 1.0, "log_zero": -4.0},
      "coteaching": {"noise_rate": null, "ramp_rounds": 10,
                      "schedule_unit": "round"},
      "augment": "default"
    }

Nulls resolve to derived values: noise.seed and dataset.seed fall back to
the master seed, warmup_rounds to 20% of the rounds, gamma to a tuned
per-noise-level table, distill_kind to "js" under IID partitioning and
"l1" otherwise, entropy_weight to 0.6 for lsr_plus and 0 for every other
method, and coteaching.noise_rate to the injected noise ratio. "default"
augmentation picks rotation for single-channel images, flip plus jitter
for multi-channel ones, and feature jitter for flat feature vectors.
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import os
import sys
import tempfile

import numpy as np

from .augment import AugmentPolicy, FeatureJitter, HorizontalFlip, Rotation
from .data import (
    LabeledDataset,
    NoiseSpec,
    generate_synthetic,
    inject_pairwise_noise,
    inject_symmetric_noise,
    load_csv,
    load_idx,
    partition_iid,
    partition_noniid,
    subset,
)
from .federation import (
    METHODS,
    CoteachingConfig,
    FedConfig,
    RunResult,
    evaluate,
    run_federation,
)
from .losses import LsrHyperParams, SymCeParams

__all__ = [
    "ConfigError",
    "GAMMA_TABLE",
    "materialize_config",
    "run_from_config",
    "run_experiment",
    "compare_methods",
    "evaluate",
    "main",
]

logger = logging.getLogger("fednoise")


class ConfigError(ValueError):
    """Raised for unknown keys or unusable values in an experiment config."""


# Regularization weight per noise setting, keyed by kind then ratio. Ratios
# between table entries take the nearest entry (ties to the lower ratio).
GAMMA_TABLE = {
    "symmetric": {0.3: 0.15, 0.4: 0.20, 0.5: 0.25, 0.6: 0.30, 0.7: 0.60},
    "pairwise": {0.2: 0.40, 0.3: 0.60, 0.4: 1.00},
}
_GAMMA_FALLBACK = 0.2  # used when noise.kind is "none"

_TOP_KEYS = (
    "seed",
    "out",
    "dataset",
    "noise",
    "partition",
    "federation",
    "lsr",
    "sym_ce",
    "coteaching",
    "augment",
)

_DATASET_KEYS = {
    "synthetic": ("kind", "n_train", "n_test", "num_classes", "dim", "seed"),
    "idx": ("kind", "train_images", "train_labels", "test_images", "test_labels", "num_classes"),
    "csv": ("kind", "train_path", "test_path", "num_classes"),
}

_AUGMENT_OPS = {
    "rotation": (Rotation, {"max_degrees": 30.0}),
    "horizontal_flip": (HorizontalFlip, {"prob": 0.5}),
    "feature_jitter": (FeatureJitter, {"sigma": 0.05}),
}


def _check_keys(section: dict, allowed, where: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown config key {where}.{key!r}" if where else f"unknown config key {key!r}")


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    return dict(value)


def _fill(section: dict, defaults: dict, where: str) -> dict:
    _check_keys(section, defaults.keys(), where)
    out = dict(defaults)
    out.update(section)
    return out


def _require_number(value, where: str, lo=None, hi=None):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{where} must be >= {lo}, got {value!r}")
    if hi is not None and value > hi:
        raise ConfigError(f"{where} must be <= {hi}, got {value!r}")
    return value


def _require_int(value, where: str, lo=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(f"{where} must be >= {lo}, got {value!r}")
    return value


def _nearest_gamma(kind: str, ratio: float) -> float:
    table = GAMMA_TABLE.get(kind)
    if table is None:
        return _GAMMA_FALLBACK
    best = min(table, key=lambda r: (abs(r - ratio), r))
    return table[best]


def _apply_overrides(raw: dict, overrides: dict) -> None:
    for path, value in overrides.items():
        parts = path.split(".")
        if len(parts) == 1:
            raw[parts[0]] = value
            continue
        if len(parts) != 2:
            raise ConfigError(f"override path {path!r} is too deep")
        head, tail = parts
        node = raw.setdefault(head, {})
        if not isinstance(node, dict):
            raise ConfigError(f"config section {head!r} must be an object")
        node[tail] = value


def materialize_config(raw: dict, overrides: "dict | None" = None) -> dict:
    """Validate a raw config and fill every default and derived value.

    Returns a new fully-resolved dict (the echo). Unknown keys raise
    ConfigError naming the offending key. Augmentation stays symbolic when
    it is "default"/"none" because its resolution needs the dataset; values
    that survive into the echo after a run are always concrete.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    raw = copy.deepcopy(raw)
    if overrides:
        _apply_overrides(raw, overrides)
    _check_keys(raw, _TOP_KEYS, "")

    echo: dict = {}
    echo["seed"] = _require_int(raw.get("seed", 0), "seed", lo=0)
    out = raw.get("out", "fednoise-out")
    if not isinstance(out, str) or not out:
        raise ConfigError(f"out must be a non-empty path, got {out!r}")
    echo["out"] = out

    dataset = _section(raw, "dataset")
    kind = dataset.get("kind", "synthetic")
    if kind not in _DATASET_KEYS:
        raise ConfigError(f"dataset.kind must be one of {sorted(_DATASET_KEYS)}, got {kind!r}")
    _check_keys(dataset, _DATASET_KEYS[kind], "dataset")
    if kind == "synthetic":
        ds = {
            "kind": "synthetic",
            "n_train": _require_int(dataset.get("n_train", 10000), "dataset.n_train", lo=1),
            "n_test": _require_int(dataset.get("n_test", 2000), "dataset.n_test", lo=1),
            "num_classes": _require_int(dataset.get("num_classes", 10), "dataset.num_classes", lo=2),
            "dim": _require_int(dataset.get("dim", 32), "dataset.dim", lo=1),
            "seed": dataset.get("seed"),
        }
        if ds["seed"] is None:
            ds["seed"] = echo["seed"]
        else:
            ds["seed"] = _require_int(ds["seed"], "dataset.seed", lo=0)
    elif kind == "idx":
        ds = {"kind": "idx"}
        for key in ("train_images", "train_labels", "test_images", "test_labels"):
            value = dataset.get(key)
            if not isinstance(value, str) or not value:
                raise ConfigError(f"dataset.{key} must be a path, got {value!r}")
            ds[key] = value
        ds["num_classes"] = dataset.get("num_classes")
        if ds["num_classes"] is not None:
            _require_int(ds["num_classes"], "dataset.num_classes", lo=2)
    else:
        ds = {"kind": "csv"}
        for key in ("train_path", "test_path"):
            value = dataset.get(key)
            if not isinstance(value, str) or not value:
                raise ConfigError(f"dataset.{key} must be a path, got {value!r}")
            ds[key] = value
        ds["num_classes"] = dataset.get("num_classes")
        if ds["num_classes"] is not None:
            _require_int(ds["num_classes"], "dataset.num_classes", lo=2)
    echo["dataset"] = ds

    noise = _fill(_section(raw, "noise"), {"kind": "symmetric", "ratio": 0.4, "seed": None}, "noise")
    if noise["kind"] not in ("symmetric", "pairwise", "none"):
        raise ConfigError(
            f"noise.kind must be 'symmetric', 'pairwise' or 'none', got {noise['kind']!r}"
        )
    _require_number(noise["ratio"], "noise.ratio", lo=0.0)
    if noise["ratio"] >= 1.0:
        raise ConfigError(f"noise.ratio must be below 1, got {noise['ratio']!r}")
    noise["ratio"] = float(noise["ratio"])
    if noise["seed"] is None:
        noise["seed"] = echo["seed"]
    else:
        _require_int(noise["seed"], "noise.seed", lo=0)
    echo["noise"] = noise

    partition = _fill(
        _section(raw, "partition"), {"kind": "iid", "classes_per_client": 2}, "partition"
    )
    if partition["kind"] not in ("iid", "noniid"):
        raise ConfigError(f"partition.kind must be 'iid' or 'noniid', got {partition['kind']!r}")
    _require_int(partition["classes_per_client"], "partition.classes_per_client", lo=1)
    echo["partition"] = partition

    fed = _fill(
        _section(raw, "federation"),
        {
            "num_clients": 100,
            "clients_per_round": 5,
            "rounds": 100,
            "local_epochs": 5,
            "batch_size": 60,
            "lr": 0.15,
            "method": "lsr",
            "warmup_rounds": None,
            "hidden_layers": [128, 64],
            "workers": 1,
        },
        "federation",
    )
    if fed["method"] not in METHODS:
        raise ConfigError(f"federation.method must be one of {METHODS}, got {fed['method']!r}")
    _require_int(fed["rounds"], "federation.rounds", lo=0)
    if fed["warmup_rounds"] is None:
        fed["warmup_rounds"] = int(round(0.2 * fed["rounds"]))
    else:
        _require_int(fed["warmup_rounds"], "federation.warmup_rounds", lo=0)
    if not isinstance(fed["hidden_layers"], (list, tuple)) or not fed["hidden_layers"]:
        raise ConfigError("federation.hidden_layers must be a non-empty list of widths")
    fed["hidden_layers"] = [
        _require_int(h, "federation.hidden_layers", lo=1) for h in fed["hidden_layers"]
    ]
    echo["federation"] = fed

    lsr = _fill(
        _section(raw, "lsr"),
        {
            "sharpen_temp": 0.5,
            "distill_temp": 1.0 / 3.0,
            "gamma": None,
            "entropy_weight": None,
            "distill_kind": None,
            "clamp_lo": 1e-6,
            "fix_lambda": None,
        },
        "lsr",
    )
    if lsr["gamma"] is None:
        lsr["gamma"] = _nearest_gamma(noise["kind"], noise["ratio"])
    else:
        _require_number(lsr["gamma"], "lsr.gamma", lo=0.0)
        lsr["gamma"] = float(lsr["gamma"])
    if lsr["entropy_weight"] is None:
        lsr["entropy_weight"] = 0.6 if fed["method"] == "lsr_plus" else 0.0
    else:
        _require_number(lsr["entropy_weight"], "lsr.entropy_weight", lo=0.0)
        lsr["entropy_weight"] = float(lsr["entropy_weight"])
    if lsr["distill_kind"] is None:
        lsr["distill_kind"] = "js" if partition["kind"] == "iid" else "l1"
    if lsr["fix_lambda"] is not None:
        _require_number(lsr["fix_lambda"], "lsr.fix_lambda", lo=0.0, hi=1.0)
        lsr["fix_lambda"] = float(lsr["fix_lambda"])
    echo["lsr"] = lsr

    echo["sym_ce"] = _fill(
        _section(raw, "sym_ce"), {"alpha": 0.1, "beta": 1.0, "log_zero": -4.0}, "sym_ce"
    )

    ct = _fill(
        _section(raw, "coteaching"),
        {"noise_rate": None, "ramp_rounds": 10, "schedule_unit": "round"},
        "coteaching",
    )
    if ct["noise_rate"] is None:
        ct["noise_rate"] = noise["ratio"] if noise["kind"] != "none" else 0.0
    else:
        _require_number(ct["noise_rate"], "coteaching.noise_rate", lo=0.0)
        ct["noise_rate"] = float(ct["noise_rate"])
    echo["coteaching"] = ct

    augment = raw.get("augment", "default")
    if isinstance(augment, str):
        if augment not in ("default", "none"):
            raise ConfigError(f"augment must be 'default', 'none' or an op list, got {augment!r}")
    elif isinstance(augment, list):
        for i, op in enumerate(augment):
            if not isinstance(op, dict) or "kind" not in op:
                raise ConfigError(f"augment[{i}] must be an object with a 'kind'")
            if op["kind"] not in _AUGMENT_OPS:
                raise ConfigError(
                    f"augment[{i}].kind must be one of {sorted(_AUGMENT_OPS)}, got {op['kind']!r}"
                )
            allowed = ("kind", *_AUGMENT_OPS[op["kind"]][1].keys())
            _check_keys(op, allowed, f"augment[{i}]")
    else:
        raise ConfigError(f"augment must be 'default', 'none' or an op list, got {augment!r}")
    echo["augment"] = augment

    return echo


def _default_augment(train: LabeledDataset) -> list:
    # Flat feature vectors cannot flip or rotate, so the second view comes
    # from Gaussian jitter alone. Sigma 0.6 is calibrated against the
    # synthetic generator (within-class spread 0.25): large enough that the
    # two views disagree where labels are wrong, small enough that clean
    # structure survives. Images keep conventional geometric augmentations.
    if train.image_shape is None:
        return [{"kind": "feature_jitter", "sigma": 0.6}]
    if train.image_shape[2] == 1:
        return [{"kind": "rotation", "max_degrees": 30.0}]
    return [{"kind": "horizontal_flip", "prob": 0.5}, {"kind": "feature_jitter", "sigma": 0.05}]


def _build_policy(spec) -> AugmentPolicy:
    if spec == "none" or spec == []:
        return AugmentPolicy()
    ops = []
    for op in spec:
        cls, defaults = _AUGMENT_OPS[op["kind"]]
        kwargs = {k: op.get(k, v) for k, v in defaults.items()}
        ops.append(cls(**kwargs))
    return AugmentPolicy(tuple(ops))


def _load_datasets(echo: dict) -> tuple:
    ds = echo["dataset"]
    if ds["kind"] == "synthetic":
        total = generate_synthetic(
            ds["n_train"] + ds["n_test"], ds["num_classes"], ds["dim"], ds["seed"]
        )
        train = subset(total, np.arange(ds["n_train"]))
        test = subset(total, np.arange(ds["n_train"], total.n))
        return train, test
    if ds["kind"] == "idx":
        train = load_idx(ds["train_images"], ds["train_labels"], ds["num_classes"])
        test = load_idx(ds["test_images"], ds["test_labels"], train.num_classes)
        return train, test
    train = load_csv(ds["train_path"], ds["num_classes"])
    test = load_csv(ds["test_path"], train.num_classes)
    return train, test


def run_from_config(echo: dict) -> tuple:
    """Execute a fully materialized config in process.

    Returns (RunResult, echo) with the echo's dataset-dependent nulls
    (num_classes, symbolic augmentation) replaced by their resolved values.
    Raises ConfigError when the pieces do not fit together.
    """
    try:
        train, test = _load_datasets(echo)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"dataset: {exc}") from exc
    if train.feature_dim != test.feature_dim or train.num_classes != test.num_classes:
        raise ConfigError(
            f"train/test mismatch: {train.feature_dim}d/{train.num_classes}c vs "
            f"{test.feature_dim}d/{test.num_classes}c"
        )
    echo["dataset"]["num_classes"] = train.num_classes

    noise = echo["noise"]
    try:
        spec = NoiseSpec(kind=noise["kind"], ratio=noise["ratio"], seed=noise["seed"])
        if spec.kind == "symmetric":
            train = inject_symmetric_noise(train, spec)
        elif spec.kind == "pairwise":
            train = inject_pairwise_noise(train, spec)

        part = echo["partition"]
        if part["kind"] == "iid":
            shards = partition_iid(train, echo["federation"]["num_clients"], echo["seed"])
        else:
            shards = partition_noniid(
                train,
                echo["federation"]["num_clients"],
                part["classes_per_client"],
                echo["seed"],
            )

        fed = echo["federation"]
        cfg = FedConfig(
            num_clients=fed["num_clients"],
            clients_per_round=fed["clients_per_round"],
            rounds=fed["rounds"],
            local_epochs=fed["local_epochs"],
            batch_size=fed["batch_size"],
            lr=fed["lr"],
            method=fed["method"],
            warmup_rounds=fed["warmup_rounds"],
            hidden_layers=tuple(fed["hidden_layers"]),
            workers=fed["workers"],
        )
        lsr = echo["lsr"]
        hp = LsrHyperParams(
            sharpen_temp=lsr["sharpen_temp"],
            distill_temp=lsr["distill_temp"],
            gamma=lsr["gamma"],
            entropy_weight=lsr["entropy_weight"],
            distill_kind=lsr["distill_kind"],
            clamp_lo=lsr["clamp_lo"],
            fix_lambda=lsr["fix_lambda"],
        )
        sym = echo["sym_ce"]
        sp = SymCeParams(alpha=sym["alpha"], beta=sym["beta"], log_zero=sym["log_zero"])
        ctc = echo["coteaching"]
        ct = CoteachingConfig(
            noise_rate=ctc["noise_rate"],
            ramp_rounds=ctc["ramp_rounds"],
            schedule_unit=ctc["schedule_unit"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if echo["augment"] == "default":
        echo["augment"] = _default_augment(train)
    policy = _build_policy(echo["augment"])
    if policy.needs_image() and train.image_shape is None:
        raise ConfigError("augmentation needs image-shaped features but the dataset is flat")

    logger.info(
        "running %s: %d clients, %d rounds, noise %s/%.2f",
        cfg.method, cfg.num_clients, cfg.rounds, spec.kind, spec.ratio,
    )
    result = run_federation(cfg, train, shards, test, echo["seed"], hp=hp, sp=sp, ct=ct, policy=policy)
    return result, echo


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_metrics_csv(path: str, metrics: list) -> None:
    """One row per round; floats via repr so re-runs compare byte-for-byte."""
    lines = ["round,test_accuracy,mean_train_loss,gamma_t,selected_clients"]
    for m in metrics:
        clients = ";".join(str(c) for c in m.selected_clients)
        lines.append(
            f"{m.round},{m.test_accuracy!r},{m.mean_train_loss!r},{m.gamma_t!r},{clients}"
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def _summarize(result: RunResult) -> dict:
    accs = [m.test_accuracy for m in result.metrics]
    if not accs:
        return {"final_acc_last10_mean": None, "best_acc": None}
    return {
        "final_acc_last10_mean": float(np.mean(accs[-10:])),
        "best_acc": float(max(accs)),
    }


def run_experiment(config_path: "str | None" = None, overrides: "dict | None" = None,
                   config: "dict | None" = None) -> dict:
    """Load, run, and write metrics.csv plus summary.json under the out dir.

    Exactly one of config_path / config must be given. Returns the summary
    dict (which embeds the resolved config echo).
    """
    if (config_path is None) == (config is None):
        raise ConfigError("pass exactly one of config_path or config")
    if config_path is not None:
        try:
            with open(config_path, "r") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        raw = config
    echo = materialize_config(raw, overrides)
    result, echo = run_from_config(echo)

    out_dir = echo["out"]
    os.makedirs(out_dir, exist_ok=True)
    write_metrics_csv(os.path.join(out_dir, "metrics.csv"), result.metrics)
    summary = _summarize(result)
    summary["seed"] = echo["seed"]
    summary["config_echo"] = echo
    _atomic_write(
        os.path.join(out_dir, "summary.json"),
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
    )
    logger.info("wrote %s", os.path.join(out_dir, "metrics.csv"))
    return summary


def compare_methods(config, methods: list, seeds: list, out_dir: str) -> dict:
    """Run each method across the seeds and tabulate accuracy statistics.

    Writes compare.json and compare.csv (rows in input method order, stds
    are population stds). Returns the comparison dict.
    """
    if not methods or not seeds:
        raise ConfigError("compare needs at least one method and one seed")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"federation.method must be one of {METHODS}, got {m!r}")
    if isinstance(config, str):
        try:
            with open(config, "r") as fh:
                base = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        base = config
    rows = []
    for method in methods:
        finals, bests = [], []
        for seed in seeds:
            echo = materialize_config(
                base, {"federation.method": method, "seed": int(seed)}
            )
            result, _ = run_from_config(echo)
            summ = _summarize(result)
            finals.append(summ["final_acc_last10_mean"])
            bests.append(summ["best_acc"])
        complete = all(v is not None for v in finals)
        rows.append(
            {
                "method": method,
                "seeds": [int(s) for s in seeds],
                "final_accs": finals,
                "best_accs": bests,
                "final_mean": float(np.mean(finals)) if complete else None,
                "final_std": float(np.std(finals)) if complete else None,
                "best_mean": float(np.mean(bests)) if complete else None,
                "best_std": float(np.std(bests)) if complete else None,
            }
        )
    report = {"methods": rows}
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(
        os.path.join(out_dir, "compare.json"),
        json.dumps(report, indent=2, sort_keys=True) + "\n",
    )
    lines = ["method,final_mean,final_std,best_mean,best_std"]
    for row in rows:
        lines.append(
            f"{row['method']},{row['final_mean']!r},{row['final_std']!r},"
            f"{row['best_mean']!r},{row['best_std']!r}"
        )
    _atomic_write(os.path.join(out_dir, "compare.csv"), "\n".join(lines) + "\n")
    return report


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="fednoise",
        description="Federated training under label noise with self-regularization.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log per-round progress")
    sub = parser.add_subparsers(dest="cmd", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the JSON config")
    run_p.add_argument("--seed", type=int, help="override the master seed")
    run_p.add_argument("--method", choices=METHODS, help="override federation.method")
    run_p.add_argument("--noise-kind", "--noise-type", dest="noise_kind",
                       choices=("symmetric", "pairwise", "none"), help="override noise.kind")
    run_p.add_argument("--noise-ratio", type=float, help="override noise.ratio")
    run_p.add_argument("--rounds", type=int, help="override federation.rounds")
    run_p.add_argument("--workers", type=int, help="override federation.workers")
    run_p.add_argument("--out", help="override the output directory")

    cmp_p = sub.add_parser("compare", help="run several methods across seeds")
    cmp_p.add_argument("--config", required=True, help="path to the JSON config")
    cmp_p.add_argument("--methods", required=True,
                       help="comma-separated method names, e.g. fedavg_ce,lsr")
    cmp_p.add_argument("--seeds", required=True, help="comma-separated integer seeds")
    cmp_p.add_argument("--out", help="output directory (default: config out + '-compare')")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.cmd == "run":
            overrides = {}
            if args.seed is not None:
                overrides["seed"] = args.seed
            if args.method is not None:
                overrides["federation.method"] = args.method
            if args.noise_kind is not None:
                overrides["noise.kind"] = args.noise_kind
            if args.noise_ratio is not None:
                overrides["noise.ratio"] = args.noise_ratio
            if args.rounds is not None:
                overrides["federation.rounds"] = args.rounds
            if args.workers is not None:
                overrides["federation.workers"] = args.workers
            if args.out is not None:
                overrides["out"] = args.out
            summary = run_experiment(config_path=args.config, overrides=overrides)
            final = summary["final_acc_last10_mean"]
            print(f"final accuracy (last-10 mean): {final}")
        else:
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            try:
                seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
            except ValueError as exc:
                raise ConfigError(f"seeds must be integers: {exc}") from None
            with open(args.config, "r") as fh:
                base = json.load(fh)
            out_dir = args.out
            if out_dir is None:
                out_dir = str(base.get("out", "fednoise-out")) + "-compare"
            report = compare_methods(base, methods, seeds, out_dir)
            for row in report["methods"]:
                print(f"{row['method']}: final {row['final_mean']} +/- {row['final_std']}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
