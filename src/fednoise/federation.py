"""Federated averaging round loop and the per-method local trainers.

One round: sample a client subset, train each selected client from the
current global parameters on its own shard, then average the returned
parameter vectors weighted by shard size, in selection order. Evaluation
runs on the clean test set after every aggregation.

Every method trains through one loop, :func:`_local_sgd`, which trains a
cohort of K clients in lockstep. Their parameters are stacked as one
``(K, P)`` array per network (see :mod:`fednoise.model`), so each batch
costs one ``forward_vjp`` per view, one call of the method's loss and one
``sgd_step`` per network for the whole cohort. Each public
``local_train_*`` function trains one cohort with its method: it takes
the tuple of global networks (one, or two for co-teaching; any other
count is a ValueError before any work), a list of equal-size shards and
one RngStream per shard, builds the method's per-batch objective, and
returns ((K, P) parameters per network, a (K,) array of each client's
mean batch loss). A trainer that serves two methods takes its variant
from ``cfg.method``.

Clients in a cohort must walk the same batch sizes, so ``run_federation``
groups the selected clients by shard size; both partitioners make equal
shards, which gives one cohort per round. ``workers`` cuts each cohort
into up to that many contiguous chunks, which run on a thread pool of
that size made once per run; with one worker they run inline. Their
stacks are joined in selection order into one (K, P) ``ModelParams`` per
network, whose rows :func:`aggregate` averages.

Determinism contract: every consumer of randomness derives its own
RngStream path from the master seed (client selection per round, batch
shuffling per client/round/epoch, augmentation and mixing draws per
client and batch). Within a cohort these draws stay per client, and each
client's slice of the stacked arithmetic equals the arithmetic on that
client alone, so results depend neither on how clients are grouped nor
on ``workers``, which changes only the wall clock. A cohort step builds
its K clients' generators for one path at once with
:func:`~fednoise.numerics.generators`, which gives the same states as
each client stream's own ``child(...).generator()``.
"""

from __future__ import annotations

import logging
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .augment import AugmentPolicy, apply_batch
from .data import ClientShard, LabeledDataset
from .losses import (
    LsrHyperParams,
    SymCeParams,
    ce_loss,
    ce_per_sample,
    lsr_plus_loss,
    lsr_total_loss,
    sharpened_ce_loss,
    sharpened_ce_per_sample,
    small_loss_select,
    symce_lsr_loss,
    symmetric_ce_loss,
)
from .model import ModelParams, forward, forward_vjp, init_params, sgd_step
from .numerics import RngStream, _check_int_fields, generators, sample_mix_weight

__all__ = [
    "METHODS",
    "FedConfig",
    "CoteachingConfig",
    "RoundMetrics",
    "RunResult",
    "select_clients",
    "gamma_schedule",
    "coteach_keep_ratio",
    "local_train_ce",
    "local_train_ce_aug",
    "local_train_symce",
    "local_train_lsr",
    "local_train_symce_lsr",
    "local_train_coteaching",
    "aggregate",
    "evaluate",
    "run_federation",
]

logger = logging.getLogger("fednoise")

METHODS = (
    "fedavg_ce",
    "lsr",
    "lsr_plus",
    "sym_ce",
    "coteaching",
    "coteaching_lsr",
    "sym_ce_lsr",
    "ce_aug",
)


@dataclass(frozen=True)
class FedConfig:
    """Protocol-level knobs shared by all methods."""

    num_clients: int = 100
    clients_per_round: int = 5
    rounds: int = 100
    local_epochs: int = 5
    batch_size: int = 60
    lr: float = 0.15
    method: str = "lsr"
    warmup_rounds: int = 20
    hidden_layers: tuple = (128, 64)
    workers: int = 1  # threads that split each cohort; never changes results

    def __post_init__(self) -> None:
        _check_int_fields(self)
        if self.num_clients < 1:
            raise ValueError(f"num_clients must be positive, got {self.num_clients}")
        if not (1 <= self.clients_per_round <= self.num_clients):
            raise ValueError(
                f"clients_per_round must lie in [1, {self.num_clients}], "
                f"got {self.clients_per_round}"
            )
        if self.rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {self.rounds}")
        # local_epochs = 0 is allowed as a degenerate dry-run value; trainers
        # return the global parameters untouched.
        if self.local_epochs < 0:
            raise ValueError(f"local_epochs must be non-negative, got {self.local_epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if not (np.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and non-negative, got {self.lr}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.warmup_rounds < 0:
            raise ValueError(f"warmup_rounds must be non-negative, got {self.warmup_rounds}")
        if self.rounds and self.warmup_rounds > self.rounds:
            raise ValueError(
                f"warmup_rounds {self.warmup_rounds} exceeds rounds {self.rounds}"
            )
        hidden = tuple(int(h) for h in self.hidden_layers)
        for width, h in zip(self.hidden_layers, hidden):
            if width != h:
                raise ValueError(f"hidden width {width!r} is not an integer")
        if not hidden or any(h < 1 for h in hidden):
            raise ValueError(f"hidden_layers must be positive widths, got {self.hidden_layers}")
        object.__setattr__(self, "hidden_layers", hidden)
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")


@dataclass(frozen=True)
class CoteachingConfig:
    """Mutual-selection schedule: keep 1 - min(rate * t / ramp, rate)."""

    noise_rate: float = 0.2
    ramp_rounds: int = 10
    schedule_unit: str = "round"

    def __post_init__(self) -> None:
        _check_int_fields(self)
        if not (np.isfinite(self.noise_rate) and 0.0 <= self.noise_rate < 1.0):
            raise ValueError(f"noise_rate must lie in [0, 1), got {self.noise_rate}")
        if self.ramp_rounds < 1:
            raise ValueError(f"ramp_rounds must be positive, got {self.ramp_rounds}")
        if self.schedule_unit not in ("round", "epoch"):
            raise ValueError(
                f"schedule_unit must be 'round' or 'epoch', got {self.schedule_unit!r}"
            )


@dataclass(frozen=True)
class RoundMetrics:
    """Per-round record written to the metrics CSV."""

    round: int
    test_accuracy: float
    mean_train_loss: float
    gamma_t: float
    selected_clients: tuple


@dataclass
class RunResult:
    """Round metrics plus the final global parameters.

    final_params is the tuple of global networks: one ModelParams, or
    (net_a, net_b) for co-teaching. param_history is filled only when
    requested: that tuple after every aggregation, in round order.
    """

    metrics: list
    final_params: tuple
    param_history: "list | None" = field(default=None)


def select_clients(num_clients: int, k: int, rng: RngStream) -> np.ndarray:
    """k distinct client ids drawn uniformly without replacement."""
    if not (1 <= k <= num_clients):
        raise ValueError(f"cannot select {k} of {num_clients} clients")
    gen = rng.generator()
    return gen.choice(num_clients, size=k, replace=False).astype(np.int64)


def gamma_schedule(round_idx: int, warmup_rounds: int, gamma: float) -> float:
    """Linear warm-up from 0 to gamma over warmup_rounds, then flat."""
    if round_idx < 0:
        raise ValueError(f"round index must be non-negative, got {round_idx}")
    if gamma < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    if warmup_rounds <= 0:
        return float(gamma)
    return float(gamma * min(round_idx / warmup_rounds, 1.0))


def coteach_keep_ratio(ct: CoteachingConfig, step: int) -> float:
    """Fraction of each batch kept at schedule step t: 1 - min(rate*t/ramp, rate)."""
    if step < 0:
        raise ValueError(f"schedule step must be non-negative, got {step}")
    return 1.0 - min(ct.noise_rate * step / ct.ramp_rounds, ct.noise_rate)


def _check_shard(shard: ClientShard) -> None:
    if shard.n_k == 0:
        raise ValueError(f"client {shard.client_id} has an empty shard")


def _shard_arrays(dataset: LabeledDataset, shards: list):
    """Features (K, n, d) and observed labels (K, n) of K equal-size shards."""
    for shard in shards:
        _check_shard(shard)
    rows = np.stack([shard.indices for shard in shards])
    return dataset.features[rows], dataset.observed_labels[rows]


def _check_nets(trainer: str, nets: tuple, count: int = 1) -> None:
    """Raise ValueError unless ``trainer`` got the ``count`` networks it trains."""
    if len(nets) != count:
        noun = "network" if count == 1 else "networks"
        raise ValueError(f"{trainer} trains {count} {noun}, got {len(nets)}")


def _iter_batches(n: int, cfg: FedConfig, streams: list):
    """(epoch, batch_counter, (K, B) row indices) over a seeded shuffle per
    client and epoch: consecutive batches of at most n rows, the final
    short batch kept."""
    batch = min(cfg.batch_size, n)
    for epoch in range(cfg.local_epochs):
        perm = np.stack([gen.permutation(n) for gen in generators(streams, "shuffle", epoch)])
        for bi, start in enumerate(range(0, n, batch)):
            yield epoch, bi, perm[:, start : start + batch]


def _local_sgd(globals_: tuple, feats, labels, cfg: FedConfig, streams: list, objective):
    """Train a cohort of K clients in lockstep from the global networks.

    ``feats`` (K, n, d) and ``labels`` (K, n) hold each client's shard and
    ``streams`` its RngStream, whose shuffles it walks. Per batch,
    ``objective(nets, x, y, epoch, bi)`` gets the stacked (K, B, d) rows
    and (K, B) labels and gives the (K,) batch losses and one (K, P)
    gradient array per net; each net then takes one SGD step, in tuple
    order. Returns ((K, P) nets, (K,) mean batch loss of each client).
    """
    k = len(streams)
    nets = tuple(ModelParams(np.broadcast_to(g.flat, (k, g.flat.size)), g.shapes) for g in globals_)
    clients = np.arange(k)[:, None]
    losses = []
    for epoch, bi, picks in _iter_batches(labels.shape[1], cfg, streams):
        rows = clients, picks
        loss, grads = objective(nets, feats[rows], labels[rows], epoch, bi)
        nets = tuple(sgd_step(net, g, cfg.lr) for net, g in zip(nets, grads))
        losses.append(loss)
    if not losses:
        return nets, np.full(k, np.nan)
    # Each client's steps lie contiguous, so its mean sums them as a 1-D
    # mean over that client's losses would.
    return nets, np.stack(losses, axis=-1).mean(axis=-1)


def _single_view(loss_fn):
    """Objective scoring one network's logits on the batch as given."""

    def objective(nets, x, y, epoch, bi):
        logits, vjp = forward_vjp(nets[0], x)
        out = loss_fn(logits, y)
        return out.scalar, (vjp(out.adjoint_o1),)

    return objective


def _two_view(
    loss_fn, dataset: LabeledDataset, hp: LsrHyperParams, policy: AugmentPolicy, streams: list
):
    """Objective summing both heads' gradients under ``loss_fn(o1, o2, y, lam)``.

    Each client augments its rows and draws its mixing weight from its own
    stream, unless ``hp.fix_lambda`` pins every weight. A head whose adjoint
    is zero (identity augmentation, a weight pinned to 1) adds a gradient of
    signed zeros, which leaves every non-zero sum and parameter bit-identical,
    so degenerate configurations still match the single-view trainers.
    """

    def objective(nets, x, y, epoch, bi):
        x_aug = apply_batch(policy, x, streams, ("augment", epoch, bi), dataset.image_shape)
        o1, vjp1 = forward_vjp(nets[0], x)
        o2, vjp2 = forward_vjp(nets[0], x_aug)
        if hp.fix_lambda is None:
            lam = sample_mix_weight(streams, "mixweight", epoch, bi)
        else:
            lam = np.full(len(streams), float(hp.fix_lambda))
        out = loss_fn(o1, o2, y, lam)
        return out.scalar, (vjp1(out.adjoint_o1) + vjp2(out.adjoint_o2),)

    return objective


def local_train_ce(
    nets: tuple,
    dataset: LabeledDataset,
    shards: list,
    cfg: FedConfig,
    streams: list,
) -> tuple:
    """Plain cross-entropy SGD on each shard's observed labels."""
    _check_nets("local_train_ce", nets)
    objective = _single_view(ce_loss)
    return _local_sgd(nets, *_shard_arrays(dataset, shards), cfg, streams, objective)


def local_train_ce_aug(
    nets: tuple,
    dataset: LabeledDataset,
    shards: list,
    cfg: FedConfig,
    policy: AugmentPolicy,
    streams: list,
) -> tuple:
    """Cross-entropy on each shard expanded with one augmented copy per row.

    This is the mixing-removal ablation: the augmented views enter as extra
    training rows under the same labels instead of being fused into one
    prediction. The shard doubles before batching, so each epoch walks twice
    as many batches of the configured size.
    """
    _check_nets("local_train_ce_aug", nets)
    feats, labels = _shard_arrays(dataset, shards)
    aug = apply_batch(policy, feats, streams, ("augment", "expand"), dataset.image_shape)
    feats = np.concatenate([feats, aug], axis=1)
    labels = np.concatenate([labels, labels], axis=1)
    return _local_sgd(nets, feats, labels, cfg, streams, _single_view(ce_loss))


def local_train_symce(
    nets: tuple,
    dataset: LabeledDataset,
    shards: list,
    cfg: FedConfig,
    sp: SymCeParams,
    streams: list,
) -> tuple:
    """Symmetric cross-entropy SGD on each shard's observed labels."""
    _check_nets("local_train_symce", nets)
    objective = _single_view(partial(symmetric_ce_loss, sp=sp))
    return _local_sgd(nets, *_shard_arrays(dataset, shards), cfg, streams, objective)


def local_train_lsr(
    nets: tuple,
    dataset: LabeledDataset,
    shards: list,
    cfg: FedConfig,
    hp: LsrHyperParams,
    policy: AugmentPolicy,
    streams: list,
    gamma_t: float,
) -> tuple:
    """Self-regularized local training: dual forward, mixed sharpened CE,
    plus the warm-up-weighted distillation term (and the entropy penalty
    when ``cfg.method`` is "lsr_plus")."""
    _check_nets("local_train_lsr", nets)
    loss = lsr_plus_loss if cfg.method == "lsr_plus" else lsr_total_loss
    objective = _two_view(partial(loss, gamma_t=gamma_t, hp=hp), dataset, hp, policy, streams)
    return _local_sgd(nets, *_shard_arrays(dataset, shards), cfg, streams, objective)


def local_train_symce_lsr(
    nets: tuple,
    dataset: LabeledDataset,
    shards: list,
    cfg: FedConfig,
    sp: SymCeParams,
    hp: LsrHyperParams,
    policy: AugmentPolicy,
    streams: list,
    gamma_t: float,
) -> tuple:
    """Symmetric CE on mixed logits plus the self-distillation term
    (:func:`~fednoise.losses.symce_lsr_loss`) over the two views."""
    _check_nets("local_train_symce_lsr", nets)
    loss_fn = partial(symce_lsr_loss, gamma_t=gamma_t, sp=sp, hp=hp)
    objective = _two_view(loss_fn, dataset, hp, policy, streams)
    return _local_sgd(nets, *_shard_arrays(dataset, shards), cfg, streams, objective)


def local_train_coteaching(
    nets: tuple,
    dataset: LabeledDataset,
    shards: list,
    cfg: FedConfig,
    ct: CoteachingConfig,
    hp: LsrHyperParams,
    streams: list,
    round_idx: int,
) -> tuple:
    """Train two peer networks, each on the other's low-loss picks.

    Per batch, both networks score every sample; network A's smallest-loss
    subset becomes B's training rows and vice versa, on the premise that
    low-loss samples more likely carry correct labels. The kept share
    ramps from 1 down to 1 - ``ct.noise_rate``. When ``cfg.method`` is
    "coteaching_lsr", the score and the update loss use the prediction
    sharpened by ``hp``. Each batch's loss is the mean of the two updates'.
    """
    _check_nets("local_train_coteaching", nets, 2)
    per_sample, loss_fn = ce_per_sample, ce_loss
    if cfg.method == "coteaching_lsr":
        per_sample = partial(sharpened_ce_per_sample, hp=hp)
        loss_fn = partial(sharpened_ce_loss, hp=hp)
    update = _single_view(loss_fn)

    def objective(nets, x, y, epoch, bi):
        per_a, per_b = (per_sample(forward(net, x), y) for net in nets)
        step = round_idx if ct.schedule_unit == "round" else round_idx * cfg.local_epochs + epoch
        keep = coteach_keep_ratio(ct, step)
        picks_a = small_loss_select(per_a, keep)  # (K, ceil(keep * B)); A's picks train B
        picks_b = small_loss_select(per_b, keep)
        clients = np.arange(len(picks_a))[:, None]
        (loss_a, (grad_a,)), (loss_b, (grad_b,)) = (
            update((net,), x[clients, picks], y[clients, picks], epoch, bi)
            for net, picks in zip(nets, (picks_b, picks_a))
        )
        return (loss_a + loss_b) / 2, (grad_a, grad_b)

    return _local_sgd(nets, *_shard_arrays(dataset, shards), cfg, streams, objective)


def aggregate(models: ModelParams, sizes: list) -> ModelParams:
    """Average a (K, P) cohort's rows into (P,) parameters, weighted by the K shard sizes.

    Computed as anchor + sum_k w_k * (row_k - anchor) with row 0 as anchor:
    identical rows come back bit-identical, a single row is returned
    unchanged, and the weights sum to one by construction.
    """
    flat = models.flat
    if flat.ndim != 2 or flat.shape[0] == 0:
        raise ValueError(f"aggregate expects (K, P) parameters with K >= 1, got {flat.shape}")
    if flat.shape[0] != len(sizes):
        raise ValueError(f"{flat.shape[0]} models but {len(sizes)} sizes")
    sizes_arr = np.asarray(sizes, dtype=np.float64)
    if np.any(sizes_arr <= 0) or not np.all(np.isfinite(sizes_arr)):
        raise ValueError(f"shard sizes must be positive, got {sizes}")
    total = sizes_arr.sum()
    anchor = flat[0]
    delta = np.zeros_like(anchor)
    for row, s in zip(flat, sizes_arr):
        delta += (s / total) * (row - anchor)
    return ModelParams(anchor + delta, models.shapes)


_EVAL_CHUNK = 512  # test rows per forward pass of evaluate


def evaluate(params: ModelParams, test_set: LabeledDataset) -> float:
    """Top-1 accuracy of one (P,) network on the true labels; argmax ties go to the lower class.

    The test rows go through the network in blocks of ``_EVAL_CHUNK``, so
    the activations held at once stay small whatever the test set's size.
    """
    if test_set.n == 0:
        raise ValueError("cannot evaluate on an empty test set")
    hits = 0
    for start in range(0, test_set.n, _EVAL_CHUNK):
        block = test_set.features[start : start + _EVAL_CHUNK]
        preds = np.argmax(forward(params, block), axis=1)
        hits += int((preds == test_set.true_labels[start : start + _EVAL_CHUNK]).sum())
    return hits / test_set.n


def run_federation(
    cfg: FedConfig,
    train_set: LabeledDataset,
    shards: list,
    test_set: LabeledDataset,
    seed: int,
    hp: LsrHyperParams = LsrHyperParams(),
    sp: SymCeParams = SymCeParams(),
    ct: CoteachingConfig = CoteachingConfig(),
    policy: AugmentPolicy = AugmentPolicy(),
    record_history: bool = False,
) -> RunResult:
    """Run the full federated protocol and return per-round metrics.

    Every draw derives from the integer master ``seed``. The reported
    mean_train_loss averages the selected clients' per-step batch losses;
    gamma_t records the warm-up schedule value whether or not the method
    consumes it. For the two-network method, test accuracy is the mean of
    the two networks' accuracies and both networks are aggregated
    separately across their client replicas.
    """
    if len(shards) != cfg.num_clients:
        raise ValueError(f"{len(shards)} shards for {cfg.num_clients} clients")
    for shard in shards:
        _check_shard(shard)
    # ce_aug trains on each shard plus one augmented copy of it.
    rows = min(shard.n_k for shard in shards) * (2 if cfg.method == "ce_aug" else 1)
    if cfg.batch_size > rows:
        warnings.warn(
            f"batch size {cfg.batch_size} exceeds shard size {rows}; "
            "such shards train on one full batch per epoch",
            stacklevel=2,
        )
    stream = RngStream(seed)

    layer_sizes = [train_set.feature_dim, *cfg.hidden_layers, train_set.num_classes]
    twin = cfg.method in ("coteaching", "coteaching_lsr")
    globals_ = tuple(
        init_params(layer_sizes, stream.child("init", i)) for i in range(2 if twin else 1)
    )

    metrics: list = []
    history: "list | None" = [] if record_history else None
    executor = nullcontext()
    if cfg.workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a pooled run loads it

        executor = ThreadPoolExecutor(cfg.workers)
    with executor as pool:
        run_chunks = map if pool is None else pool.map
        for t in range(cfg.rounds):
            selected = select_clients(
                cfg.num_clients, cfg.clients_per_round, stream.child("select", t)
            ).tolist()
            gamma_t = gamma_schedule(t, cfg.warmup_rounds, hp.gamma)

            # One lockstep cohort per shard size, cut into contiguous chunks for
            # the workers; aggregation still runs in selection order.
            cohorts: dict = {}
            for cid in selected:
                cohorts.setdefault(shards[cid].n_k, []).append(cid)
            chunks = [
                chunk.tolist() for ids in cohorts.values()
                for chunk in np.array_split(ids, min(cfg.workers, len(ids)))
            ]

            def train(ids: list):
                # The trainers are looked up in this module at call time, so
                # a wrapper patched over one (a tracer's span) is the one run.
                args = (globals_, train_set, [shards[c] for c in ids], cfg)
                streams = [stream.child("client", c, t) for c in ids]
                if cfg.method == "fedavg_ce":
                    return local_train_ce(*args, streams)
                if cfg.method == "ce_aug":
                    return local_train_ce_aug(*args, policy, streams)
                if cfg.method == "sym_ce":
                    return local_train_symce(*args, sp, streams)
                if cfg.method in ("lsr", "lsr_plus"):
                    return local_train_lsr(*args, hp, policy, streams, gamma_t)
                if cfg.method == "sym_ce_lsr":
                    return local_train_symce_lsr(*args, sp, hp, policy, streams, gamma_t)
                # FedConfig admits no method but the co-teaching pair here.
                return local_train_coteaching(*args, ct, hp, streams, t)

            chunk_nets, chunk_losses = zip(*run_chunks(train, chunks))
            order = [cid for ids in chunks for cid in ids]
            rows = [order.index(cid) for cid in selected]  # cohort order -> selection order
            sizes = [shards[cid].n_k for cid in selected]
            globals_ = tuple(
                aggregate(
                    ModelParams(np.concatenate([c.flat for c in stacks])[rows], g.shapes), sizes
                )
                for g, stacks in zip(globals_, zip(*chunk_nets))
            )
            losses = np.concatenate(chunk_losses)[rows]
            acc = np.mean([evaluate(net, test_set) for net in globals_])
            metrics.append(
                RoundMetrics(
                    round=t,
                    test_accuracy=float(acc),
                    mean_train_loss=float(np.mean(losses)),
                    gamma_t=gamma_t,
                    selected_clients=tuple(selected),
                )
            )
            logger.info(
                "round %d: accuracy %.4f, mean train loss %.4f",
                t, metrics[-1].test_accuracy, metrics[-1].mean_train_loss,
            )
            if history is not None:
                history.append(globals_)

    return RunResult(metrics=metrics, final_params=globals_, param_history=history)
