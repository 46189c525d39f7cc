"""Federated averaging round loop and the per-method local trainers.

One round, :func:`_round`: sample a client subset, train each selected
client from the current global parameters on its own shard, then average
the returned parameter vectors weighted by shard size, in selection order.
Evaluation runs on the clean test set after every aggregation. Only the
round index t and the global networks cross a round: every draw in round
t comes from a stream path that names t, and nothing else is carried. A
round that fails says where: its ValueError is raised again naming t,
the method, the lr and the selected clients whose training fails when
each trains alone. A round runs with numpy's overflow and invalid-value
warnings off: the non-finite logits and parameters they would warn of
raise ValueError instead.

Every method trains through one loop, :func:`_local_sgd`, which trains a
cohort of K clients in lockstep as one network-major parameter stack (see
:mod:`fednoise.model`): rows [0, K) hold the first network's K copies and,
for co-teaching, rows [K, 2K) the second's. Each batch costs one call of
the method's loss, one ``forward_vjp`` per view and one ``sgd_step`` for
the whole stack, whose gradient goes into one buffer that lives for the
cohort's training. Each public ``local_train_*`` function trains one
cohort with its method: it takes the tuple of global networks (one, or
two for co-teaching; any other count is a ValueError before any work), a
list of equal-size shards and one RngStream per shard, builds the
method's per-batch objective, and returns ((K, P) parameters per network,
a (K,) array of each client's mean batch loss). A trainer that serves two
methods takes its variant from ``cfg.method``.

Clients in a cohort must walk the same batch sizes, so each round groups
the selected clients by shard size; both partitioners make equal
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
from dataclasses import dataclass
from functools import partial

import numpy as np

from .augment import AugmentPolicy, apply_batch
from .data import ClientShard, LabeledDataset
from .losses import (
    LsrHyperParams,
    SymCeParams,
    ce_loss,
    ce_per_sample,
    lsr_total_loss,
    sharpened_ce_loss,
    sharpened_ce_per_sample,
    small_loss_select,
    symce_lsr_loss,
    symmetric_ce_loss,
)
from .model import ModelParams, forward, forward_vjp, init_params, sgd_step
from .numerics import RngStream, _check_int_fields, _frozen, generators, sample_mix_weight

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
    """Mutual-selection schedule: in round t each network keeps
    1 - min(rate * t / ramp_rounds, rate) of every batch."""

    noise_rate: float = 0.2
    ramp_rounds: int = 10

    def __post_init__(self) -> None:
        _check_int_fields(self)
        if not (np.isfinite(self.noise_rate) and 0.0 <= self.noise_rate < 1.0):
            raise ValueError(f"noise_rate must lie in [0, 1), got {self.noise_rate}")
        if self.ramp_rounds < 1:
            raise ValueError(f"ramp_rounds must be positive, got {self.ramp_rounds}")


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
    (net_a, net_b) for co-teaching.
    """

    metrics: list
    final_params: tuple


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


def coteach_keep_ratio(ct: CoteachingConfig, round_idx: int) -> float:
    """Fraction of each batch kept in round t: 1 - min(rate*t/ramp, rate)."""
    if round_idx < 0:
        raise ValueError(f"round index must be non-negative, got {round_idx}")
    return 1.0 - min(ct.noise_rate * round_idx / ct.ramp_rounds, ct.noise_rate)


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
    ``streams`` its RngStream, whose shuffles it walks. The networks train
    as one stack whose rows [i*K, (i+1)*K) are network i's K copies. Per
    batch, ``objective(net, x, y, epoch, bi, grad)`` gets that stack, the
    (K, B, d) rows and (K, B) labels, writes the stack's gradient into the
    buffer ``grad``, which lives for this cohort's training only, and gives
    the (K,) batch losses; the stack then takes one SGD step. Returns
    ((K, P) nets, (K,) mean batch loss of each client).
    """
    k, shapes = len(streams), globals_[0].shapes
    net = ModelParams(_frozen(np.repeat(np.stack([g.flat for g in globals_]), k, axis=0)), shapes)
    grad = np.empty(net.flat.shape)
    clients = np.arange(k)[:, None]
    losses = []
    for epoch, bi, picks in _iter_batches(labels.shape[1], cfg, streams):
        x, y = feats[clients, picks], labels[clients, picks]
        losses.append(objective(net, x, y, epoch, bi, grad))
        net = sgd_step(net, grad, cfg.lr)
    parts = np.split(net.flat, len(globals_))
    nets = (net,) if len(parts) == 1 else tuple(ModelParams(p, shapes) for p in parts)
    if not losses:
        return nets, np.full(k, np.nan)
    # Each client's steps lie contiguous, so its mean sums them as a 1-D
    # mean over that client's losses would.
    return nets, np.stack(losses, axis=-1).mean(axis=-1)


def _single_view(loss_fn):
    """Objective scoring the stack's logits on the batch as given."""

    def objective(net, x, y, epoch, bi, grad):
        logits, vjp = forward_vjp(net, x)
        out = loss_fn(logits, y)
        vjp(out.adjoint_o1, out=grad)
        return out.scalar

    return objective


def _two_view(
    loss_fn, dataset: LabeledDataset, hp: LsrHyperParams, policy: AugmentPolicy, streams: list
):
    """Objective summing both heads' gradients under ``loss_fn(o1, o2, y, lam)``.

    Each client augments its rows and draws its mixing weight from its own
    stream, unless ``hp.fix_lambda`` pins every weight. A head whose adjoint
    is zero (identity augmentation, a weight pinned to 1) adds a gradient of
    signed zeros, which leaves every non-zero sum and parameter bit-identical,
    so degenerate configurations still match the single-view trainers. The
    second view's gradient goes to a buffer made at the first step and is
    added into the first view's in place.
    """
    second = None

    def objective(net, x, y, epoch, bi, grad):
        nonlocal second
        x_aug = apply_batch(policy, x, streams, ("augment", epoch, bi), dataset.image_shape)
        o1, vjp1 = forward_vjp(net, x)
        o2, vjp2 = forward_vjp(net, x_aug)
        if hp.fix_lambda is None:
            lam = sample_mix_weight(streams, "mixweight", epoch, bi)
        else:
            lam = np.full(len(streams), float(hp.fix_lambda))
        out = loss_fn(o1, o2, y, lam)
        if second is None:
            second = np.empty_like(grad)
        vjp1(out.adjoint_o1, out=grad)
        grad += vjp2(out.adjoint_o2, out=second)
        return out.scalar

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
    """Self-regularized local training for ``lsr`` and ``lsr_plus`` alike
    (:func:`~fednoise.losses.lsr_total_loss` over the two views): mixed
    sharpened CE, the warm-up-weighted distillation term and, at a non-zero
    ``hp.entropy_weight``, the entropy penalty."""
    _check_nets("local_train_lsr", nets)
    loss_fn = partial(lsr_total_loss, gamma_t=gamma_t, hp=hp)
    objective = _two_view(loss_fn, dataset, hp, policy, streams)
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
    low-loss samples more likely carry correct labels. The kept share is
    ``coteach_keep_ratio(ct, round_idx)``, taken once for every batch of
    the round, so it ramps by round from 1 down to 1 - ``ct.noise_rate``.
    When ``cfg.method`` is "coteaching_lsr", the score and the update loss
    use the prediction sharpened by ``hp``. Each batch's loss is the mean
    of the two updates'. Both networks train as one (2K, P) stack, A's rows
    first, so a batch costs one scoring forward, one selection and one
    update.
    """
    _check_nets("local_train_coteaching", nets, 2)
    per_sample, loss_fn = ce_per_sample, ce_loss
    if cfg.method == "coteaching_lsr":
        per_sample = partial(sharpened_ce_per_sample, hp=hp)
        loss_fn = partial(sharpened_ce_loss, hp=hp)
    update = _single_view(loss_fn)
    keep = coteach_keep_ratio(ct, round_idx)

    def objective(net, x, y, epoch, bi, grad):
        k, x, y = len(x), np.concatenate((x, x)), np.concatenate((y, y))
        picks = small_loss_select(per_sample(forward(net, x), y), keep)
        picks = np.concatenate((picks[k:], picks[:k]))  # A's picks train B and vice versa
        rows = np.arange(2 * k)[:, None]
        loss = update(net, x[rows, picks], y[rows, picks], epoch, bi, grad)
        return (loss[:k] + loss[k:]) / 2

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
    A network whose logits are non-finite on any test row is a ValueError,
    not a score.
    """
    if test_set.n == 0:
        raise ValueError("cannot evaluate on an empty test set")
    hits = 0
    for start in range(0, test_set.n, _EVAL_CHUNK):
        logits = forward(params, test_set.features[start : start + _EVAL_CHUNK])
        if not np.isfinite(logits).all():
            raise ValueError("test-set logits must be finite")
        preds = np.argmax(logits, axis=1)
        hits += int((preds == test_set.true_labels[start : start + _EVAL_CHUNK]).sum())
    return hits / test_set.n


# Overflow and invalid-value warnings are off while a round runs: a
# non-finite value is a ValueError where it is checked instead.
_quiet = partial(np.errstate, over="ignore", invalid="ignore")


@_quiet()
def _round(
    t: int, globals_: tuple, run_chunks, cfg: FedConfig, train_set: LabeledDataset,
    shards: list, test_set: LabeledDataset, stream: RngStream,
    hp: LsrHyperParams, sp: SymCeParams, ct: CoteachingConfig, policy: AugmentPolicy,
) -> tuple:
    """Round t from the global networks: (new global networks, RoundMetrics).

    ``run_chunks`` is ``map`` or the run's thread pool's ``map``. A
    ValueError in the round is raised again as ``round t, method m, lr x:
    clients [...] failed: cause``, naming in selection order the clients
    that fail when each is trained alone, the first one's error as cause.
    A client's slice of a cohort is computed as it alone would be, so the
    message is the same at any ``workers``. When no client fails alone (an
    aggregation or evaluation error), it names none and gives the round's.
    """
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

    @_quiet()  # numpy's error state is per thread, and a pool thread runs this
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

    order = [cid for ids in chunks for cid in ids]
    rows = [order.index(cid) for cid in selected]  # cohort order -> selection order
    sizes = [shards[cid].n_k for cid in selected]
    try:
        chunk_nets, chunk_losses = zip(*run_chunks(train, chunks))
        nets = tuple(
            aggregate(ModelParams(np.concatenate([c.flat for c in stacks])[rows], g.shapes), sizes)
            for g, stacks in zip(globals_, zip(*chunk_nets))
        )
        acc = np.mean([evaluate(net, test_set) for net in nets])
    except ValueError as exc:
        failed = {}
        for cid in selected:
            try:
                train([cid])
            except ValueError as own:
                failed[cid] = own
        cause = next(iter(failed.values()), exc)
        named = f"clients {list(failed)} failed: " if failed else ""
        where = f"round {t}, method {cfg.method}, lr {cfg.lr:g}"
        raise ValueError(f"{where}: {named}{cause}") from cause
    return nets, RoundMetrics(
        round=t,
        test_accuracy=float(acc),
        mean_train_loss=float(np.mean(np.concatenate(chunk_losses)[rows])),
        gamma_t=gamma_t,
        selected_clients=tuple(selected),
    )


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
) -> RunResult:
    """Run the full federated protocol and return per-round metrics.

    Every draw derives from the integer master ``seed``. Each round is one
    :func:`_round` call, and only (t, global networks) crosses a round. The
    reported mean_train_loss averages the selected clients' per-step batch
    losses; gamma_t records the warm-up schedule value whether or not the
    method consumes it. For the two-network method, test accuracy is the
    mean of the two networks' accuracies and both networks are aggregated
    separately across their client replicas. A round's ValueError is
    raised again naming the round, the method, the lr and the clients
    whose training fails alone (see :func:`_round`).
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
    executor = nullcontext()
    if cfg.workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # only a pooled run loads it

        executor = ThreadPoolExecutor(cfg.workers)
    with executor as pool:
        run_chunks = map if pool is None else pool.map
        for t in range(cfg.rounds):
            globals_, m = _round(t, globals_, run_chunks, cfg, train_set, shards, test_set,
                                 stream, hp, sp, ct, policy)
            metrics.append(m)
            logger.info("round %d: accuracy %.4f, mean train loss %.4f",
                        t, m.test_accuracy, m.mean_train_loss)

    return RunResult(metrics=metrics, final_params=globals_)
