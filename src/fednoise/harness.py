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

The other dataset kinds take file paths: "idx" needs train_images,
train_labels, test_images and test_labels, and "csv" needs train_path and
test_path; both accept num_classes (null: read from the training labels).
"augment" may also be "none" or a list of ops, each {"kind": "rotation"},
{"kind": "horizontal_flip"} or {"kind": "feature_jitter"} with an optional
max_degrees, prob or sigma (defaults: the fields of the op classes in
fednoise.augment). A key accepts null only where its default is null.

Nulls resolve to derived values: noise.seed and dataset.seed fall back to
the master seed, warmup_rounds to 20% of the rounds, gamma to a tuned
per-noise-level table, distill_kind to "js" under IID partitioning and
"l1" otherwise, entropy_weight to 0.6 for lsr_plus and 0 for every other
method, and coteaching.noise_rate to the injected noise ratio. "default"
augmentation picks rotation for images and feature jitter for flat feature
vectors. Numbers are echoed as given, so a config that writes 1 for a
float-valued key echoes 1.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import logging
import os
import sys
from typing import NamedTuple

import numpy as np

from .augment import AugmentPolicy, FeatureJitter, HorizontalFlip, Rotation
from .data import (
    NOISE_KINDS,
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

_REQUIRED = object()  # the default of a key that has none

# Value types: (description, test). Every value is echoed as given, so a
# config that writes 1 for a "num" key echoes 1.
_TYPES = {
    "int": ("an integer", lambda v: isinstance(v, int)),
    "num": ("a number", lambda v: isinstance(v, (int, float))),
    "str": ("a string", lambda v: isinstance(v, str)),
    "path": ("a non-empty path", lambda v: isinstance(v, str) and v != ""),
    "widths": (
        "a list of integer widths",
        lambda v: isinstance(v, (list, tuple))
        and all(isinstance(h, int) and not isinstance(h, bool) for h in v),
    ),
    "augment": (
        "'default', 'none' or an op list",
        lambda v: isinstance(v, list) or v in ("default", "none"),
    ),
}


class _Key(NamedTuple):
    """One config key. null is accepted exactly where the default is null."""

    type: str
    default: object = _REQUIRED
    lo: object = None
    choices: tuple = ()


class _Section(NamedTuple):
    """An object of keys; cls, when set, is built from it and checks the bounds."""

    entries: dict
    cls: object = None


class _ByKind(NamedTuple):
    """An object whose keys, besides "kind", depend on its "kind"."""

    kinds: dict
    default: object = _REQUIRED


# Dataclass field annotation (a string, as every module postpones its
# annotations) -> the value type of its config key.
_ANNOTATION_TYPES = {"int": "int", "float": "num", "float | None": "num", "str": "str",
                     "tuple": "widths"}


def _fields(cls, **derived) -> _Section:
    """A dataclass-backed section: one key per field, in field order, typed by
    its annotation and defaulting to its default, except that ``derived``
    gives the full _Key of each field whose null default _derive resolves."""
    return _Section({
        f.name: derived.get(f.name) or _Key(_ANNOTATION_TYPES[f.type], f.default)
        for f in dataclasses.fields(cls)
    }, cls)


_AUGMENT_OPS = _ByKind({
    "rotation": _fields(Rotation),
    "horizontal_flip": _fields(HorizontalFlip),
    "feature_jitter": _fields(FeatureJitter),
})

# The config schema. Bounds of dataclass-backed sections live in the
# dataclasses' __post_init__; a null default marks a value _derive resolves.
_SCHEMA = _Section({
    "seed": _Key("int", 0, lo=0),
    "out": _Key("path", "fednoise-out"),
    "dataset": _ByKind({
        "synthetic": _Section({
            "n_train": _Key("int", 10000, lo=1),
            "n_test": _Key("int", 2000, lo=1),
            "num_classes": _Key("int", 10, lo=2),
            "dim": _Key("int", 32, lo=2),
            "seed": _Key("int", None, lo=0),
        }),
        "idx": _Section({
            "train_images": _Key("path"),
            "train_labels": _Key("path"),
            "test_images": _Key("path"),
            "test_labels": _Key("path"),
            "num_classes": _Key("int", None, lo=2),
        }),
        "csv": _Section({
            "train_path": _Key("path"),
            "test_path": _Key("path"),
            "num_classes": _Key("int", None, lo=2),
        }),
    }, default="synthetic"),
    "noise": _fields(NoiseSpec, seed=_Key("int", None, lo=0)),
    "partition": _Section({
        "kind": _Key("str", "iid", choices=("iid", "noniid")),
        "classes_per_client": _Key("int", 2, lo=1),
    }),
    "federation": _fields(FedConfig, warmup_rounds=_Key("int", None)),
    "lsr": _fields(
        LsrHyperParams, gamma=_Key("num", None), entropy_weight=_Key("num", None),
        distill_kind=_Key("str", None),
    ),
    "sym_ce": _fields(SymCeParams),
    "coteaching": _fields(CoteachingConfig, noise_rate=_Key("num", None)),
    "augment": _Key("augment", "default"),
})


def _walk(value, spec, where: str):
    """Check a config value against its schema entry; fill missing defaults.

    Unknown keys, wrong types and values outside the table's bounds raise
    ConfigError naming the key. Returns a new value.
    """
    if isinstance(spec, _Key):
        if value is _REQUIRED:
            raise ConfigError(f"{where} is required")
        if value is None and spec.default is None:
            return None
        name, ok = _TYPES[spec.type]
        if isinstance(value, bool) or not ok(value):
            raise ConfigError(f"{where} must be {name}, got {value!r}")
        if spec.lo is not None and value < spec.lo:
            raise ConfigError(f"{where} must be >= {spec.lo}, got {value!r}")
        if spec.choices and value not in spec.choices:
            raise ConfigError(f"{where} must be one of {list(spec.choices)}, got {value!r}")
        return list(value) if spec.type == "widths" else value
    if not isinstance(value, dict):
        raise ConfigError(f"config section {where!r} must be an object")
    if isinstance(spec, _ByKind):
        kind_key = _Key("str", spec.default, choices=tuple(spec.kinds))
        kind = _walk(value.get("kind", spec.default), kind_key, f"{where}.kind")
        rest = {k: v for k, v in value.items() if k != "kind"}
        return {"kind": kind, **_walk(rest, spec.kinds[kind], where)}
    for key in value:
        if key not in spec.entries:
            name = f"{where}.{key!r}" if where else repr(key)
            raise ConfigError(f"unknown config key {name}")
    out = {}
    for key, sub in spec.entries.items():
        default = sub.default if isinstance(sub, _Key) else {}
        out[key] = _walk(value.get(key, default), sub, f"{where}.{key}" if where else key)
    return out


def _build(values: dict, section: _Section, where: str):
    try:
        return section.cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _params(echo: dict) -> dict:
    """Build every dataclass-backed section of a materialized config."""
    return {
        name: _build(echo[name], spec, name)
        for name, spec in _SCHEMA.entries.items()
        if isinstance(spec, _Section) and spec.cls is not None
    }


def _nearest_gamma(kind: str, ratio: float) -> float:
    table = GAMMA_TABLE.get(kind)
    if table is None:
        return _GAMMA_FALLBACK
    best = min(table, key=lambda r: (abs(r - ratio), r))
    return table[best]


def _derive(echo: dict) -> None:
    """Resolve the nulls whose values follow from other keys, in place."""
    noise, fed, lsr, ct = echo["noise"], echo["federation"], echo["lsr"], echo["coteaching"]
    if echo["dataset"]["kind"] == "synthetic" and echo["dataset"]["seed"] is None:
        echo["dataset"]["seed"] = echo["seed"]
    if noise["seed"] is None:
        noise["seed"] = echo["seed"]
    if fed["warmup_rounds"] is None:
        fed["warmup_rounds"] = int(round(0.2 * fed["rounds"]))
    if lsr["gamma"] is None:
        lsr["gamma"] = _nearest_gamma(noise["kind"], noise["ratio"])
    if lsr["entropy_weight"] is None:
        lsr["entropy_weight"] = 0.6 if fed["method"] == "lsr_plus" else 0.0
    if lsr["distill_kind"] is None:
        lsr["distill_kind"] = "js" if echo["partition"]["kind"] == "iid" else "l1"
    if ct["noise_rate"] is None:
        ct["noise_rate"] = noise["ratio"] if noise["kind"] != "none" else 0.0


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

    Returns a new fully-resolved dict (the echo). Unknown keys, wrong types
    and out-of-range values raise ConfigError naming the offending key or
    section. Augmentation stays symbolic when it is "default"/"none"
    because its resolution needs the dataset; values that survive into the
    echo after a run are always concrete.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    raw = copy.deepcopy(raw)
    if overrides:
        _apply_overrides(raw, overrides)
    echo = _walk(raw, _SCHEMA, "")
    _derive(echo)
    _params(echo)  # built here only to check the dataclasses' bounds
    if echo["augment"] != "default":
        _build_policy(echo["augment"])
    return echo


def _default_augment(train: LabeledDataset) -> list:
    # Flat feature vectors cannot flip or rotate, so the second view comes
    # from Gaussian jitter alone. Sigma 0.6 is calibrated against the
    # synthetic generator (within-class spread 0.25): large enough that the
    # two views disagree where labels are wrong, small enough that clean
    # structure survives. Images keep the ops' default geometric settings.
    if train.image_shape is None:
        return [{"kind": "feature_jitter", "sigma": 0.6}]
    return [{"kind": "rotation", **dataclasses.asdict(Rotation())}]


def _build_policy(spec) -> AugmentPolicy:
    # An op list stays in the echo as given, so its defaults are filled here.
    if spec == "none":
        return AugmentPolicy()
    ops = []
    for i, op in enumerate(spec):
        values = _walk(op, _AUGMENT_OPS, f"augment[{i}]")
        kind = values.pop("kind")
        ops.append(_build(values, _AUGMENT_OPS.kinds[kind], f"augment[{i}]"))
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
    p = _params(echo)
    cfg, spec = p["federation"], p["noise"]
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

    try:
        if spec.kind == "symmetric":
            train = inject_symmetric_noise(train, spec)
        elif spec.kind == "pairwise":
            train = inject_pairwise_noise(train, spec)

        part = echo["partition"]
        if part["kind"] == "iid":
            shards = partition_iid(train, cfg.num_clients, echo["seed"])
        else:
            shards = partition_noniid(
                train, cfg.num_clients, part["classes_per_client"], echo["seed"]
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
    result = run_federation(
        cfg, train, shards, test, echo["seed"],
        hp=p["lsr"], sp=p["sym_ce"], ct=p["coteaching"], policy=policy,
    )
    return result, echo


def _atomic_write(path: str, text: str) -> None:
    # Created 0o666 beside the target, so the umask sets the mode as for open().
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.getpid()}-{os.urandom(6).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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


def _read_config(path: str):
    try:
        with open(path, "r") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def run_experiment(config_path: "str | None" = None, overrides: "dict | None" = None,
                   config: "dict | None" = None) -> dict:
    """Load, run, and write metrics.csv plus summary.json under the out dir.

    Exactly one of config_path / config must be given. Returns the summary
    dict (which embeds the resolved config echo).
    """
    if (config_path is None) == (config is None):
        raise ConfigError("pass exactly one of config_path or config")
    raw = _read_config(config_path) if config_path is not None else config
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


def compare_methods(config: dict, methods: list, seeds: list, out_dir: str) -> dict:
    """Run each method across the seeds and tabulate accuracy statistics.

    Writes compare.json and compare.csv (rows in input method order, stds
    are population stds). Returns the comparison dict.
    """
    if not methods or not seeds:
        raise ConfigError("compare needs at least one method and one seed")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"federation.method must be one of {METHODS}, got {m!r}")
    rows = []
    for method in methods:
        finals, bests = [], []
        for seed in seeds:
            echo = materialize_config(
                config, {"federation.method": method, "seed": int(seed)}
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


# `fednoise run` flag (argparse dest) -> the config key it overrides.
_RUN_OVERRIDES = {
    "seed": "seed",
    "method": "federation.method",
    "noise_kind": "noise.kind",
    "noise_ratio": "noise.ratio",
    "rounds": "federation.rounds",
    "workers": "federation.workers",
    "out": "out",
}


def _parse_args(argv):
    import argparse  # a library run never parses a command line

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
    run_p.add_argument("--noise-kind", choices=NOISE_KINDS, help="override noise.kind")
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
            overrides = {
                path: getattr(args, dest)
                for dest, path in _RUN_OVERRIDES.items()
                if getattr(args, dest) is not None
            }
            summary = run_experiment(config_path=args.config, overrides=overrides)
            final = summary["final_acc_last10_mean"]
            print(f"final accuracy (last-10 mean): {final}")
        else:
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            try:
                seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
            except ValueError as exc:
                raise ConfigError(f"seeds must be integers: {exc}") from None
            base = _read_config(args.config)
            out_dir = args.out
            if out_dir is None:
                out_dir = materialize_config(base)["out"] + "-compare"
            report = compare_methods(base, methods, seeds, out_dir)
            for row in report["methods"]:
                print(f"{row['method']}: final {row['final_mean']} +/- {row['final_std']}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
