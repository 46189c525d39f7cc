"""Training losses with exact adjoints at the logit heads.

Every loss returns a :class:`LossOutput` carrying the batch-mean scalar and
the gradients of that scalar with respect to the two logit inputs. Losses
that read a single logits array leave ``adjoint_o2`` at zero. The model
module turns these adjoints into parameter gradients; keeping the chain rule
explicit here is what makes the finite-difference oracles in the test suite
possible.

Logits are ``(..., B, M)`` with labels ``(..., B)``: one batch passes
``(B, M)`` and a cohort of K clients ``(K, B, M)``; a 0-d or ``(K,)`` mixing
weight is checked once and shaped to broadcast. A lone ``(M,)`` row or a 0-d
label is rejected. Every reduction runs along the last axes, so each
client's slice is computed exactly as the 2-D call on that slice would be.
The scalar has shape ``(...)``; a single batch gives a numpy float64.

The regularized classification loss works on probabilities rather than
logits: the two softmax outputs are convexly mixed, the mixture is sharpened
by an exponent 1/T, and the sharpened mixture is scored with cross-entropy
against the (possibly noisy) label. Confidently wrong predictions therefore
pay more than under plain cross-entropy, which is the mechanism that slows
label memorization.

The self-distillation term compares temperature-scaled softmax outputs of
the clean and augmented passes. Both outputs are floored at ``clamp_lo``
(no renormalization) before the divergence so logs stay finite. Supported
divergences: ``js`` (Jensen-Shannon), ``l1``, ``l2``, and ``cosine``. The
cosine variant matches each side against a detached copy of the other
(gradients do not flow through the stopped side) and halves the sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import softmax, softmax_vjp, tempered_softmax

__all__ = [
    "LsrHyperParams",
    "SymCeParams",
    "LossOutput",
    "ce_loss",
    "ce_per_sample",
    "lsr_cls_loss",
    "self_distill_loss",
    "lsr_total_loss",
    "lsr_plus_loss",
    "symmetric_ce_loss",
    "symce_lsr_loss",
    "sharpened_ce_loss",
    "sharpened_ce_per_sample",
    "small_loss_select",
]

@dataclass(frozen=True)
class LsrHyperParams:
    """Knobs for the self-regularized objective.

    sharpen_temp:   exponent temperature T for the sharpened mixture (T < 1
                    peaks the distribution; T = 1 disables sharpening).
    distill_temp:   temperature dividing the logits inside the distillation
                    softmax (values < 1 peak the compared distributions).
    gamma:          full weight of the distillation term after warm-up.
    entropy_weight: weight of the entropy penalty (entropy minimization) on
                    both predictions, the "plus" objective; 0 disables it.
    distill_kind:   js | l1 | l2 | cosine | none.
    clamp_lo:       floor applied to compared probabilities, and to the
                    sharpened target probability inside the log.
    fix_lambda:     when set, use this constant mixing weight instead of a
                    Beta(1, 1) draw (ablation switch).
    """

    sharpen_temp: float = 0.5
    distill_temp: float = 1.0 / 3.0
    gamma: float = 0.2
    entropy_weight: float = 0.0
    distill_kind: str = "js"
    clamp_lo: float = 1e-6
    fix_lambda: float | None = None

    def __post_init__(self) -> None:
        if not (np.isfinite(self.sharpen_temp) and self.sharpen_temp > 0):
            raise ValueError(f"sharpen_temp must be positive, got {self.sharpen_temp}")
        if not (np.isfinite(self.distill_temp) and self.distill_temp > 0):
            raise ValueError(f"distill_temp must be positive, got {self.distill_temp}")
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if not (np.isfinite(self.entropy_weight) and self.entropy_weight >= 0):
            raise ValueError(
                f"entropy_weight must be non-negative, got {self.entropy_weight}"
            )
        kinds = (*_DISTILL_GRADS, "none")
        if self.distill_kind not in kinds:
            raise ValueError(
                f"distill_kind must be one of {kinds}, got {self.distill_kind!r}"
            )
        if not (0.0 < self.clamp_lo < 1.0):
            raise ValueError(f"clamp_lo must lie in (0, 1), got {self.clamp_lo}")
        if self.fix_lambda is not None and not (0.0 <= self.fix_lambda <= 1.0):
            raise ValueError(f"fix_lambda must lie in [0, 1], got {self.fix_lambda}")


@dataclass(frozen=True)
class SymCeParams:
    """Weights for the symmetric cross-entropy baseline.

    The reverse term scores the label one-hot under the prediction, with
    log(0) replaced by the finite constant ``log_zero``.
    """

    alpha: float = 0.1
    beta: float = 1.0
    log_zero: float = -4.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if not (np.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be non-negative, got {self.beta}")
        if not (np.isfinite(self.log_zero) and self.log_zero < 0):
            raise ValueError(f"log_zero must be a negative constant, got {self.log_zero}")


@dataclass(frozen=True)
class LossOutput:
    """Batch-mean scalar plus gradients at the two logit heads."""

    scalar: float
    adjoint_o1: np.ndarray
    adjoint_o2: np.ndarray


def _check_logits_labels(logits: np.ndarray, labels: np.ndarray):
    o = np.asarray(logits, dtype=np.float64)
    if o.ndim < 2:
        raise ValueError(f"logits must be (..., B, M), got shape {o.shape}")
    y = np.asarray(labels)
    if y.shape != o.shape[:-1]:
        raise ValueError(f"labels shape {y.shape} does not match logits {o.shape[:-1]}")
    if not np.issubdtype(y.dtype, np.integer):
        raise ValueError("labels must be integers")
    if o.shape[-2] == 0:
        raise ValueError("empty batch")
    if y.min() < 0 or y.max() >= o.shape[-1]:
        raise ValueError(
            f"labels must lie in [0, {o.shape[-1]}), got range [{y.min()}, {y.max()}]"
        )
    if not np.all(np.isfinite(o)):
        raise ValueError("logits must be finite")
    return o, y.astype(np.int64)


def _check_heads(o1: np.ndarray, o2: np.ndarray):
    """Both logit heads as float64 (..., B, M) arrays of one shape."""
    o1 = np.asarray(o1, dtype=np.float64)
    o2 = np.asarray(o2, dtype=np.float64)
    if o1.shape != o2.shape or o1.ndim < 2:
        raise ValueError(f"logit heads must be (..., B, M) of one shape: {o1.shape} vs {o2.shape}")
    return o1, o2


def _mix_weight(lam, lead: tuple) -> np.ndarray:
    """The checked mixing weight, 0-d or of shape ``lead``, with two unit axes
    appended so that it broadcasts over the (..., B, M) arrays it mixes."""
    arr = np.asarray(lam, dtype=np.float64)
    if not np.all(np.isfinite(arr) & (arr >= 0.0) & (arr <= 1.0)):
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam}")
    if arr.ndim and arr.shape != lead:
        raise ValueError(f"mixing weights of shape {arr.shape} for leading axes {lead}")
    return arr[..., None, None]


def _label_index(y: np.ndarray) -> tuple:
    """Index that picks a[..., b, y[..., b]] out of a (..., B, M) array a,
    giving shape (..., B); for one batch it is (arange(B), y)."""
    return (*np.indices(y.shape, sparse=True), y)


def _log_softmax(o: np.ndarray) -> np.ndarray:
    shifted = o - o.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def ce_per_sample(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample cross-entropy, -log softmax(o)[y], shape (..., B)."""
    o, y = _check_logits_labels(logits, labels)
    return -_log_softmax(o)[_label_index(y)]


def ce_loss(logits: np.ndarray, labels: np.ndarray) -> LossOutput:
    """Mean cross-entropy against integer labels.

    adjoint_o1 = (softmax(o) - onehot(y)) / B, the classic closed form.
    """
    o, y = _check_logits_labels(logits, labels)
    batch = o.shape[-2]
    at_y = _label_index(y)
    logp = _log_softmax(o)
    scalar = -logp[at_y].mean(axis=-1)
    adj = np.exp(logp)
    adj[at_y] -= 1.0
    adj /= batch
    return LossOutput(scalar, adj, np.zeros_like(o))


def _sharpened_nll(p: np.ndarray, y: np.ndarray, hp: LsrHyperParams):
    """Per-row -log sharpen(p, T)[y], floored at clamp_lo inside the log, and
    a function giving the gradient of their batch mean with respect to the
    (..., B, M) probabilities p."""
    at_y = _label_index(y)
    u = 1.0 / hp.sharpen_temp
    powered = p**u
    norm = powered.sum(axis=-1)
    if np.any(norm == 0):
        raise ValueError(
            f"p ** (1 / sharpen_temp) underflowed to zero in a whole row; "
            f"sharpen_temp {hp.sharpen_temp} is too small"
        )
    sharp_y = powered[at_y] / norm

    def grad():
        # d(-log sharp_y)/dp_i = u * (p_i^(u-1) / norm - [i == y] / p_y),
        # treating p as free variables; softmax_vjp absorbs the simplex
        # constraint. Rows where the clamp is active contribute zero gradient.
        grad_p = u * p ** (u - 1.0) / norm[..., None]
        grad_p[at_y] -= u / p[at_y]
        grad_p[sharp_y <= hp.clamp_lo] = 0.0
        grad_p /= p.shape[-2]
        return grad_p

    return -np.log(np.maximum(sharp_y, hp.clamp_lo)), grad


def lsr_cls_loss(
    o1: np.ndarray,
    o2: np.ndarray,
    labels: np.ndarray,
    lam: "float | np.ndarray",
    hp: LsrHyperParams,
) -> LossOutput:
    """Cross-entropy of the sharpened mixed prediction against the labels.

    Pipeline per sample: p = lam * softmax(o1) + (1 - lam) * softmax(o2),
    then loss = -log( p[y]^(1/T) / sum_j p[j]^(1/T) ), floored at clamp_lo
    inside the log. The gradient flows into both heads through the mixture.
    """
    o1, o2 = _check_heads(o1, o2)
    o1, y = _check_logits_labels(o1, labels)
    weight = _mix_weight(lam, o1.shape[:-2])

    # T = 1 with lam = 1 is plain cross-entropy on o1. Take the direct code
    # path, per client of a cohort, so the degenerate configuration is
    # arithmetic-for-arithmetic identical to ce_loss, not merely close.
    plain = hp.sharpen_temp == 1.0 and np.any(weight == 1.0)
    if plain:
        base = ce_loss(o1, y)
        if np.all(weight == 1.0):
            return LossOutput(base.scalar, base.adjoint_o1, np.zeros_like(o2))

    p1 = softmax(o1)
    p2 = softmax(o2)
    rows, grad = _sharpened_nll(weight * p1 + (1.0 - weight) * p2, y, hp)
    scalar, grad_p = rows.mean(axis=-1), grad()
    adj1 = softmax_vjp(p1, weight * grad_p)
    adj2 = softmax_vjp(p2, (1.0 - weight) * grad_p)
    if plain:
        # A cohort whose clients disagree: take plain CE where lam = 1.
        pick = weight == 1.0
        scalar = np.where(pick[..., 0, 0], base.scalar, scalar)
        adj1 = np.where(pick, base.adjoint_o1, adj1)
        adj2 = np.where(pick, 0.0, adj2)
    return LossOutput(scalar, adj1, adj2)


def _distill_grads_js(c1, c2, batch):
    mid = 0.5 * (c1 + c2)
    kl1 = (c1 * np.log(c1 / mid)).sum(axis=-1)
    kl2 = (c2 * np.log(c2 / mid)).sum(axis=-1)
    scalar = (0.5 * (kl1 + kl2)).mean(axis=-1)
    # With mid = (c1 + c2) / 2 held exact, dJS/dc1 collapses to log(c1/mid)/2.
    g1 = 0.5 * np.log(c1 / mid) / batch
    g2 = 0.5 * np.log(c2 / mid) / batch
    return scalar, g1, g2


def _distill_grads_l1(c1, c2, batch):
    diff = c1 - c2
    scalar = np.abs(diff).sum(axis=-1).mean(axis=-1)
    g1 = np.sign(diff) / batch
    return scalar, g1, -g1


def _distill_grads_l2(c1, c2, batch):
    diff = c1 - c2
    scalar = (diff**2).sum(axis=-1).mean(axis=-1)
    g1 = 2.0 * diff / batch
    return scalar, g1, -g1


def _distill_grads_cosine(c1, c2, batch):
    n1 = np.linalg.norm(c1, axis=-1, keepdims=True)
    n2 = np.linalg.norm(c2, axis=-1, keepdims=True)
    dot = (c1 * c2).sum(axis=-1, keepdims=True)
    cos = dot / (n1 * n2)
    scalar = (1.0 - cos)[..., 0].mean(axis=-1)
    # Each half treats the other side as a stopped (detached) target, and
    # the two halves are averaged, hence the 0.5 factor.
    g1 = 0.5 * (cos * c1 / n1**2 - c2 / (n1 * n2)) / batch
    g2 = 0.5 * (cos * c2 / n2**2 - c1 / (n1 * n2)) / batch
    return scalar, g1, g2


# Divergence name -> (scalar, dL/dc1, dL/dc2) on the floored tempered outputs.
_DISTILL_GRADS = {
    "js": _distill_grads_js,
    "l1": _distill_grads_l1,
    "l2": _distill_grads_l2,
    "cosine": _distill_grads_cosine,
}


def self_distill_loss(o1: np.ndarray, o2: np.ndarray, hp: LsrHyperParams) -> LossOutput:
    """Divergence between the two tempered softmax outputs.

    Both outputs are floored at clamp_lo (never renormalized) before the
    divergence; the floor also kills the gradient where it is active. The
    scalar is the batch mean; identical heads give exactly zero for js, l1
    and l2, and zero for cosine as well since the compared vectors align.
    """
    o1, o2 = _check_heads(o1, o2)
    if hp.distill_kind == "none":
        raise ValueError("self_distill_loss called with distill_kind='none'")
    if o1.shape[-2] == 0:
        raise ValueError("empty batch")

    batch = o1.shape[-2]
    q1 = tempered_softmax(o1, hp.distill_temp)
    q2 = tempered_softmax(o2, hp.distill_temp)
    c1 = np.maximum(q1, hp.clamp_lo)
    c2 = np.maximum(q2, hp.clamp_lo)
    scalar, g1, g2 = _DISTILL_GRADS[hp.distill_kind](c1, c2, batch)
    g1 = g1 * (q1 > hp.clamp_lo)
    g2 = g2 * (q2 > hp.clamp_lo)
    adj1 = softmax_vjp(q1, g1, hp.distill_temp)
    adj2 = softmax_vjp(q2, g2, hp.distill_temp)
    return LossOutput(scalar, adj1, adj2)


def _add_distill(out: LossOutput, o1, o2, gamma_t: float, hp: LsrHyperParams) -> LossOutput:
    """``out`` plus gamma_t times the distillation term between the two heads."""
    if not (np.isfinite(gamma_t) and gamma_t >= 0):
        raise ValueError(f"gamma_t must be non-negative, got {gamma_t}")
    if gamma_t == 0.0 or hp.distill_kind == "none":
        return out
    reg = self_distill_loss(o1, o2, hp)
    return LossOutput(
        out.scalar + gamma_t * reg.scalar,
        out.adjoint_o1 + gamma_t * reg.adjoint_o1,
        out.adjoint_o2 + gamma_t * reg.adjoint_o2,
    )


def lsr_total_loss(
    o1: np.ndarray,
    o2: np.ndarray,
    labels: np.ndarray,
    lam: "float | np.ndarray",
    gamma_t: float,
    hp: LsrHyperParams,
) -> LossOutput:
    """Classification term plus gamma_t times the distillation term."""
    return _add_distill(lsr_cls_loss(o1, o2, labels, lam, hp), o1, o2, gamma_t, hp)


def lsr_plus_loss(
    o1: np.ndarray,
    o2: np.ndarray,
    labels: np.ndarray,
    lam: "float | np.ndarray",
    gamma_t: float,
    hp: LsrHyperParams,
) -> LossOutput:
    """Total loss plus an entropy penalty on both raw predictions.

    Adds entropy_weight * mean_b( H(softmax(o1)) + H(softmax(o2)) ) / 2,
    where H is Shannon entropy in nats. Minimizing the penalty pushes both
    predictions toward lower entropy, firming up the model's confidence when
    long training under heavy noise would otherwise erode it.
    """
    out = lsr_total_loss(o1, o2, labels, lam, gamma_t, hp)
    if hp.entropy_weight == 0.0:
        return out
    o1, o2 = _check_heads(o1, o2)
    batch = o1.shape[-2]
    w = hp.entropy_weight

    scalar = out.scalar
    adjs = []
    for o, base_adj in ((o1, out.adjoint_o1), (o2, out.adjoint_o2)):
        p = softmax(o)
        logp = np.log(np.maximum(p, 1e-300))
        scalar = scalar + w * 0.5 * -(p * logp).sum(axis=-1).mean(axis=-1)
        # dH/dp_i = -(log p_i + 1); entries with p_i = 0 are zeroed by the
        # p factor inside softmax_vjp.
        grad_p = w * 0.5 * (-(logp + 1.0)) / batch
        adjs.append(base_adj + softmax_vjp(p, grad_p))
    return LossOutput(scalar, adjs[0], adjs[1])


def symmetric_ce_loss(logits: np.ndarray, labels: np.ndarray, sp: SymCeParams) -> LossOutput:
    """alpha * CE(prediction, label) + beta * reverse CE.

    The reverse term scores the one-hot label under the prediction; with
    log(0) := log_zero it reduces per sample to -log_zero * (1 - p[y]).
    """
    o, y = _check_logits_labels(logits, labels)
    batch = o.shape[-2]
    at_y = _label_index(y)
    logp = _log_softmax(o)
    p = np.exp(logp)
    p_y = p[at_y]

    ce_rows = -logp[at_y]
    rce_rows = -sp.log_zero * (1.0 - p_y)
    scalar = (sp.alpha * ce_rows + sp.beta * rce_rows).mean(axis=-1)

    adj = p.copy()
    adj[at_y] -= 1.0
    adj *= sp.alpha
    # Reverse term: dRCE/dp_i = log_zero * [i == y]; pull through softmax.
    onehot_grad = np.zeros_like(p)
    onehot_grad[at_y] = sp.log_zero
    adj += sp.beta * softmax_vjp(p, onehot_grad)
    adj /= batch
    return LossOutput(scalar, adj, np.zeros_like(o))


def symce_lsr_loss(
    o1: np.ndarray,
    o2: np.ndarray,
    labels: np.ndarray,
    lam: "float | np.ndarray",
    gamma_t: float,
    sp: SymCeParams,
    hp: LsrHyperParams,
) -> LossOutput:
    """Symmetric CE on mixed logits plus gamma_t times the distillation term.

    The raw logits are mixed (logit-level, matching symmetric CE's own loss
    form), so both heads receive gradient through the linear mix; the
    distillation term is the one :func:`lsr_total_loss` adds.
    """
    o1, o2 = _check_heads(o1, o2)
    lam = _mix_weight(lam, o1.shape[:-2])
    sym = symmetric_ce_loss(lam * o1 + (1.0 - lam) * o2, labels, sp)
    out = LossOutput(sym.scalar, lam * sym.adjoint_o1, (1.0 - lam) * sym.adjoint_o1)
    return _add_distill(out, o1, o2, gamma_t, hp)


def sharpened_ce_loss(logits: np.ndarray, labels: np.ndarray, hp: LsrHyperParams) -> LossOutput:
    """Cross-entropy of the sharpened single-head prediction (no mixing).

    Equals ``lsr_cls_loss(logits, logits, labels, 1.0, hp)`` bit for bit,
    since at weight 1 that mixture ``1.0 * p + 0.0 * p`` is ``p`` exactly.
    T = 1 is plain :func:`ce_loss`.
    """
    o, y = _check_logits_labels(logits, labels)
    if hp.sharpen_temp == 1.0:
        return ce_loss(o, y)
    p = softmax(o)
    rows, grad = _sharpened_nll(p, y, hp)
    return LossOutput(rows.mean(axis=-1), softmax_vjp(p, grad()), np.zeros_like(o))


def sharpened_ce_per_sample(
    logits: np.ndarray, labels: np.ndarray, hp: LsrHyperParams
) -> np.ndarray:
    """Per-sample -log sharpen(softmax(o), T)[y], floored at clamp_lo: the rows
    whose mean :func:`sharpened_ce_loss` takes. T = 1 is :func:`ce_per_sample`."""
    o, y = _check_logits_labels(logits, labels)
    if hp.sharpen_temp == 1.0:
        return ce_per_sample(o, y)
    return _sharpened_nll(softmax(o), y, hp)[0]


def small_loss_select(losses: np.ndarray, keep_ratio: float) -> np.ndarray:
    """Indices of the ceil(keep_ratio * B) smallest losses of each (..., B)
    row, ascending.

    A (B,) batch gives (count,) indices and a (K, B) cohort (K, count), each
    row picked as that row alone would be. Ties are broken toward the lower
    index; empty rows yield empty selections. keep_ratio must lie in
    (0, 1].
    """
    if not (np.isfinite(keep_ratio) and 0.0 < keep_ratio <= 1.0):
        raise ValueError(f"keep_ratio must lie in (0, 1], got {keep_ratio}")
    arr = np.asarray(losses, dtype=np.float64)
    if arr.ndim < 1:
        raise ValueError(f"losses must be a (..., B) array, got shape {arr.shape}")
    n = arr.shape[-1]
    if n == 0:
        return np.zeros(arr.shape, dtype=np.int64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("losses must be finite")
    # The tiny slack keeps float dust in keep_ratio * n (for example
    # 0.7 * 10 landing a hair above 7) from inflating the count.
    count = int(math.ceil(keep_ratio * n - 1e-9))
    count = max(1, min(count, n))
    picked = np.argsort(arr, axis=-1, kind="stable")[..., :count]
    return np.sort(picked, axis=-1).astype(np.int64)
