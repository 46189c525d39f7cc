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
by an exponent 1/T with T in (0, 1], and the sharpened mixture is scored
with cross-entropy against the (possibly noisy) label. Confidently wrong
predictions therefore pay more than under plain cross-entropy, which is the
mechanism that slows label memorization.

The self-distillation term compares temperature-scaled softmax outputs of
the clean and augmented passes. Both outputs are floored at ``_CLAMP_LO``
(no renormalization) before the divergence so logs stay finite. Supported
divergences: ``js`` (Jensen-Shannon), ``l1``, ``l2``, and ``cosine``. The
cosine variant matches each side against a detached copy of the other
(gradients do not flow through the stopped side) and halves the sum.

The two-head losses (:func:`lsr_total_loss`, which :func:`lsr_plus_loss`
calls, and :func:`symce_lsr_loss`) run as one pass over the heads stacked as
one ``(2, ..., B, M)`` array: logits and labels are checked once, each row's
max is taken once and serves both the plain and the tempered softmax, and
each softmax, floor and softmax vjp runs once for both heads; the
classification term and the entropy penalty share the plain softmax. The
public terms :func:`lsr_cls_loss` and :func:`self_distill_loss` are built
from the same pieces, and the pass equals their composition bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import _row_max, _softmax_at, softmax_vjp

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

# Floor on compared probabilities, and on the sharpened target probability
# inside the log, so logs stay finite; the gradient is zero where it binds.
_CLAMP_LO = 1e-6


@dataclass(frozen=True)
class LsrHyperParams:
    """Knobs for the self-regularized objective.

    sharpen_temp:   exponent temperature T in (0, 1] for the sharpened
                    mixture (T < 1 peaks the distribution; T = 1 disables
                    sharpening). Above 1 it would flatten the mixture, and
                    p ** (1/T - 1) in its adjoint would divide by zero.
    distill_temp:   temperature dividing the logits inside the distillation
                    softmax (values < 1 peak the compared distributions).
    gamma:          full weight of the distillation term after warm-up; 0
                    turns the term off (the paper's ablation).
    entropy_weight: weight of the entropy penalty (entropy minimization) on
                    both predictions, the "plus" objective; 0 disables it.
    distill_kind:   js | l1 | l2 | cosine.
    fix_lambda:     when set, use this constant mixing weight instead of a
                    Beta(1, 1) draw (ablation switch).
    """

    sharpen_temp: float = 0.5
    distill_temp: float = 1.0 / 3.0
    gamma: float = 0.2
    entropy_weight: float = 0.0
    distill_kind: str = "js"
    fix_lambda: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.sharpen_temp <= 1.0):
            raise ValueError(f"sharpen_temp must lie in (0, 1], got {self.sharpen_temp}")
        if not (np.isfinite(self.distill_temp) and self.distill_temp > 0):
            raise ValueError(f"distill_temp must be positive, got {self.distill_temp}")
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if not (np.isfinite(self.entropy_weight) and self.entropy_weight >= 0):
            raise ValueError(
                f"entropy_weight must be non-negative, got {self.entropy_weight}"
            )
        if self.distill_kind not in _DISTILL_GRADS:
            raise ValueError(
                f"distill_kind must be one of {tuple(_DISTILL_GRADS)}, got {self.distill_kind!r}"
            )
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


def _check_finite(o: np.ndarray) -> None:
    if not np.all(np.isfinite(o)):
        raise ValueError("logits must be finite")


def _check_logits_labels(logits: np.ndarray, labels: np.ndarray, heads: int = 0):
    """Logits as float64 (..., B, M) and labels as int64 (..., B), both
    checked; the first ``heads`` axes of the logits stack heads that share
    the labels."""
    o = np.asarray(logits, dtype=np.float64)
    if o.ndim < 2:
        raise ValueError(f"logits must be (..., B, M), got shape {o.shape}")
    y = np.asarray(labels)
    if y.shape != o.shape[heads:-1]:
        raise ValueError(
            f"labels shape {y.shape} does not match logits {o.shape[heads:-1]}"
        )
    if not np.issubdtype(y.dtype, np.integer):
        raise ValueError("labels must be integers")
    if o.shape[-2] == 0:
        raise ValueError("empty batch")
    if y.min() < 0 or y.max() >= o.shape[-1]:
        raise ValueError(
            f"labels must lie in [0, {o.shape[-1]}), got range [{y.min()}, {y.max()}]"
        )
    _check_finite(o)
    return o, y.astype(np.int64)


def _stack_heads(o1: np.ndarray, o2: np.ndarray) -> np.ndarray:
    """Both logit heads, float64 (..., B, M) arrays of one shape, stacked
    as one (2, ..., B, M) array."""
    o1 = np.asarray(o1, dtype=np.float64)
    o2 = np.asarray(o2, dtype=np.float64)
    if o1.shape != o2.shape or o1.ndim < 2:
        raise ValueError(f"logit heads must be (..., B, M) of one shape: {o1.shape} vs {o2.shape}")
    return np.stack((o1, o2))


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
    return _ce(*_check_logits_labels(logits, labels))


def _ce(o: np.ndarray, y: np.ndarray) -> LossOutput:
    """:func:`ce_loss` of checked logits and labels."""
    batch = o.shape[-2]
    at_y = _label_index(y)
    logp = _log_softmax(o)
    scalar = -logp[at_y].mean(axis=-1)
    adj = np.exp(logp)
    adj[at_y] -= 1.0
    adj /= batch
    return LossOutput(scalar, adj, np.zeros_like(o))


def _sharpened_nll(p: np.ndarray, y: np.ndarray, hp: LsrHyperParams):
    """Per-row -log sharpen(p, T)[y], floored at _CLAMP_LO inside the log, and
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
        # constraint. Rows where the clamp is active contribute zero
        # gradient, so 1 / p_y is taken only where it is not: p_y may be 0
        # there.
        live = sharp_y > _CLAMP_LO
        grad_p = u * p ** (u - 1.0) / norm[..., None]
        grad_p[at_y] -= np.divide(u, p[at_y], out=np.zeros_like(sharp_y), where=live)
        grad_p[~live] = 0.0
        grad_p /= p.shape[-2]
        return grad_p

    return -np.log(np.maximum(sharp_y, _CLAMP_LO)), grad


def _lsr_inputs(o1, o2, labels, lam):
    """The heads stacked as one checked (2, ..., B, M) array, the int64
    labels and the mixing weight shaped to broadcast over one head."""
    o, y = _check_logits_labels(_stack_heads(o1, o2), labels, heads=1)
    return o, y, _mix_weight(lam, o.shape[1:-2])


def _lsr_cls(o, p, y, weight, hp: LsrHyperParams):
    """(scalar, (2, ..., B, M) adjoint) of :func:`lsr_cls_loss` on the
    checked stacked heads ``o`` with plain softmax ``p``."""
    # T = 1 with lam = 1 is plain cross-entropy on o1. Take the direct code
    # path, per client of a cohort, so the degenerate configuration is
    # arithmetic-for-arithmetic identical to ce_loss, not merely close.
    plain = hp.sharpen_temp == 1.0 and np.any(weight == 1.0)
    if plain:
        base = _ce(o[0], y)
        if np.all(weight == 1.0):
            return base.scalar, np.stack((base.adjoint_o1, base.adjoint_o2))

    rows, grad = _sharpened_nll(weight * p[0] + (1.0 - weight) * p[1], y, hp)
    scalar, grad_p = rows.mean(axis=-1), grad()
    adj = softmax_vjp(p, np.stack((weight * grad_p, (1.0 - weight) * grad_p)))
    if plain:
        # A cohort whose clients disagree: take plain CE where lam = 1.
        pick = weight == 1.0
        scalar = np.where(pick[..., 0, 0], base.scalar, scalar)
        adj[0] = np.where(pick, base.adjoint_o1, adj[0])
        adj[1] = np.where(pick, 0.0, adj[1])
    return scalar, adj


def lsr_cls_loss(
    o1: np.ndarray,
    o2: np.ndarray,
    labels: np.ndarray,
    lam: "float | np.ndarray",
    hp: LsrHyperParams,
) -> LossOutput:
    """Cross-entropy of the sharpened mixed prediction against the labels.

    Pipeline per sample: p = lam * softmax(o1) + (1 - lam) * softmax(o2),
    then loss = -log( p[y]^(1/T) / sum_j p[j]^(1/T) ), floored at _CLAMP_LO
    inside the log. The gradient flows into both heads through the mixture.
    """
    o, y, weight = _lsr_inputs(o1, o2, labels, lam)
    scalar, adj = _lsr_cls(o, _softmax_at(o, _row_max(o)), y, weight, hp)
    return LossOutput(scalar, adj[0], adj[1])


def _distill_grads_js(c, batch):
    mid = 0.5 * (c[0] + c[1])
    log_ratio = np.log(c / mid)
    kl = (c * log_ratio).sum(axis=-1)
    scalar = (0.5 * (kl[0] + kl[1])).mean(axis=-1)
    # With mid = (c1 + c2) / 2 held exact, dJS/dc1 collapses to log(c1/mid)/2.
    log_ratio *= 0.5
    log_ratio /= batch
    return scalar, log_ratio


def _distill_grads_l1(c, batch):
    diff = c[0] - c[1]
    scalar = np.abs(diff).sum(axis=-1).mean(axis=-1)
    g1 = np.sign(diff) / batch
    return scalar, np.stack((g1, -g1))


def _distill_grads_l2(c, batch):
    diff = c[0] - c[1]
    scalar = (diff**2).sum(axis=-1).mean(axis=-1)
    g1 = 2.0 * diff / batch
    return scalar, np.stack((g1, -g1))


def _distill_grads_cosine(c, batch):
    n = np.linalg.norm(c, axis=-1, keepdims=True)
    cross = n[0] * n[1]
    cos = (c[0] * c[1]).sum(axis=-1, keepdims=True) / cross
    scalar = (1.0 - cos)[..., 0].mean(axis=-1)
    # Each half treats the other side as a stopped (detached) target, and
    # the two halves are averaged, hence the 0.5 factor.
    return scalar, 0.5 * (cos * c / n**2 - c[::-1] / cross) / batch


# Divergence name -> (scalar, stacked (dL/dc1, dL/dc2)) on the floored
# tempered outputs c, stacked as (2, ..., B, M).
_DISTILL_GRADS = {
    "js": _distill_grads_js,
    "l1": _distill_grads_l1,
    "l2": _distill_grads_l2,
    "cosine": _distill_grads_cosine,
}


def _distill(o, top, hp: LsrHyperParams):
    """(scalar, (2, ..., B, M) adjoint) of :func:`self_distill_loss` on the
    checked stacked heads ``o`` with row maxima ``top``."""
    q = _softmax_at(o, top, hp.distill_temp)
    scalar, g = _DISTILL_GRADS[hp.distill_kind](np.maximum(q, _CLAMP_LO), o.shape[-2])
    g *= q > _CLAMP_LO
    return scalar, softmax_vjp(q, g, hp.distill_temp)


def self_distill_loss(o1: np.ndarray, o2: np.ndarray, hp: LsrHyperParams) -> LossOutput:
    """Divergence between the two tempered softmax outputs.

    Both outputs are floored at _CLAMP_LO (never renormalized) before the
    divergence; the floor also kills the gradient where it is active. The
    scalar is the batch mean; identical heads give exactly zero for js, l1
    and l2, and zero for cosine as well since the compared vectors align.
    """
    o = _stack_heads(o1, o2)
    if o.shape[-2] == 0:
        raise ValueError("empty batch")
    _check_finite(o)
    scalar, adj = _distill(o, _row_max(o), hp)
    return LossOutput(scalar, adj[0], adj[1])


def _add_distill(scalar, adj, o, top, gamma_t: float, hp: LsrHyperParams) -> LossOutput:
    """(scalar, stacked adjoint) plus gamma_t times the distillation term
    between the checked stacked heads ``o``, as a LossOutput."""
    if not (np.isfinite(gamma_t) and gamma_t >= 0):
        raise ValueError(f"gamma_t must be non-negative, got {gamma_t}")
    if gamma_t != 0.0:
        reg, reg_adj = _distill(o, top, hp)
        scalar = scalar + gamma_t * reg
        reg_adj *= gamma_t
        adj += reg_adj
    return LossOutput(scalar, adj[0], adj[1])


def lsr_total_loss(
    o1: np.ndarray,
    o2: np.ndarray,
    labels: np.ndarray,
    lam: "float | np.ndarray",
    gamma_t: float,
    hp: LsrHyperParams,
) -> LossOutput:
    """Classification term plus gamma_t times the distillation term, plus
    entropy_weight * mean_b( H(softmax(o1)) + H(softmax(o2)) ) / 2.

    H is Shannon entropy in nats. Minimizing the penalty pushes both
    predictions toward lower entropy, firming up the model's confidence
    when long training under heavy noise would otherwise erode it. At
    entropy weight 0 the pass equals, bit for bit, ``lsr_cls_loss`` plus
    gamma_t times ``self_distill_loss``.
    """
    o, y, weight = _lsr_inputs(o1, o2, labels, lam)
    top = _row_max(o)
    p = _softmax_at(o, top)
    out = _add_distill(*_lsr_cls(o, p, y, weight, hp), o, top, gamma_t, hp)
    if hp.entropy_weight == 0.0:
        return out
    w = hp.entropy_weight
    logp = np.log(np.maximum(p, 1e-300))
    entropy = -(p * logp).sum(axis=-1).mean(axis=-1)
    scalar = out.scalar + w * 0.5 * entropy[0] + w * 0.5 * entropy[1]
    # dH/dp_i = -(log p_i + 1); entries with p_i = 0 are zeroed by the
    # p factor inside softmax_vjp.
    adj = softmax_vjp(p, w * 0.5 * (-(logp + 1.0)) / o.shape[-2])
    adj[0] += out.adjoint_o1
    adj[1] += out.adjoint_o2
    return LossOutput(scalar, adj[0], adj[1])


def lsr_plus_loss(o1, o2, labels, lam, gamma_t: float, hp: LsrHyperParams) -> LossOutput:
    """:func:`lsr_total_loss`, named for the method whose entropy weight
    defaults to 0.6."""
    return lsr_total_loss(o1, o2, labels, lam, gamma_t, hp)


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
    o = _stack_heads(o1, o2)
    lam = _mix_weight(lam, o.shape[1:-2])
    # A finite mix implies finite heads, so symmetric_ce_loss's check of it
    # covers both.
    sym = symmetric_ce_loss(lam * o[0] + (1.0 - lam) * o[1], labels, sp)
    adj = np.stack((lam * sym.adjoint_o1, (1.0 - lam) * sym.adjoint_o1))
    return _add_distill(sym.scalar, adj, o, _row_max(o), gamma_t, hp)


def sharpened_ce_loss(logits: np.ndarray, labels: np.ndarray, hp: LsrHyperParams) -> LossOutput:
    """Cross-entropy of the sharpened single-head prediction (no mixing).

    Equals ``lsr_cls_loss(logits, logits, labels, 1.0, hp)`` bit for bit,
    since at weight 1 that mixture ``1.0 * p + 0.0 * p`` is ``p`` exactly.
    T = 1 is plain :func:`ce_loss`.
    """
    o, y = _check_logits_labels(logits, labels)
    if hp.sharpen_temp == 1.0:
        return ce_loss(o, y)
    p = _softmax_at(o, _row_max(o))
    rows, grad = _sharpened_nll(p, y, hp)
    return LossOutput(rows.mean(axis=-1), softmax_vjp(p, grad()), np.zeros_like(o))


def sharpened_ce_per_sample(
    logits: np.ndarray, labels: np.ndarray, hp: LsrHyperParams
) -> np.ndarray:
    """Per-sample -log sharpen(softmax(o), T)[y], floored at _CLAMP_LO: the rows
    whose mean :func:`sharpened_ce_loss` takes. T = 1 is :func:`ce_per_sample`."""
    o, y = _check_logits_labels(logits, labels)
    if hp.sharpen_temp == 1.0:
        return ce_per_sample(o, y)
    return _sharpened_nll(_softmax_at(o, _row_max(o)), y, hp)[0]


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
    if not np.all(np.isfinite(arr)):
        raise ValueError("losses must be finite")
    # The tiny slack keeps float dust in keep_ratio * n (for example
    # 0.7 * 10 landing a hair above 7) from inflating the count.
    count = int(math.ceil(keep_ratio * n - 1e-9))
    count = max(1, min(count, n))
    picked = np.argsort(arr, axis=-1, kind="stable")[..., :count]
    return np.sort(picked, axis=-1).astype(np.int64)
