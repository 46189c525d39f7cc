"""Fully-connected classifier stored as one flat parameter vector.

The flat layout is load-bearing: federated averaging and SGD both operate
on the single float64 vector, so parameter arithmetic is plain numpy and
bit-reproducible. Layer structure lives in ``shapes`` as
``(in_dim, out_dim)`` pairs; each layer owns ``in_dim * out_dim`` weights
followed by ``out_dim`` biases. Hidden activations are ReLU, the final layer
emits raw logits.

A cohort of K networks with one architecture is stored as a ``(K, P)``
array, one flat vector per row. Each layer's weights are then a ``(K, in,
out)`` view into it, so a cohort runs on ``(K, B, d)`` inputs through one
stacked ``np.matmul`` per layer, which computes every slice exactly as the
same product on one network would. ``sgd_step`` is elementwise and so works
on either layout. One network takes ``(B, d)`` inputs, never a ``(d,)`` row.

Parameter gradients are exact reverse-mode, written out by hand, and come
as plain read-only float64 arrays of the parameters' shape, (P,) or (K, P).
:func:`forward_vjp` runs one forward pass and returns the logits with a
``vjp`` closure that maps an adjoint at the logits to that gradient, reusing
that pass's activations; any loss that can state dL/d(logits) composes with it.
``vjp(adjoint, out)`` writes the gradient into the caller's writeable buffer
and returns it, so a training loop can hold one gradient buffer for a
cohort's whole local training. Objectives that run the network on two views
(clean and augmented input) call it once per view and add the two gradients.
:func:`forward` and :func:`backward` are one-pass conveniences over it;
``backward`` allocates the buffer itself and returns it read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, _frozen, _immutable

__all__ = [
    "ModelParams",
    "init_params",
    "forward",
    "forward_vjp",
    "backward",
    "sgd_step",
]


def _check_layers(shapes: tuple[tuple[int, int], ...]) -> None:
    """Raise ValueError unless the (in, out) pairs chain positive widths into
    a network of at least one layer."""
    chained = all(out == nxt for (_, out), (nxt, _) in zip(shapes, shapes[1:]))
    if not shapes or min(map(min, shapes)) < 1 or not chained:
        raise ValueError(f"layers {shapes} do not chain positive widths")


@dataclass(frozen=True)
class ModelParams:
    """Immutable flat parameters, (P,) or a (K, P) cohort, plus per-layer
    (in_dim, out_dim) pairs."""

    flat: np.ndarray
    shapes: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        flat = _immutable(self.flat, np.float64)
        if flat.ndim not in (1, 2):
            raise ValueError(f"flat parameters must be (P,) or (K, P), got shape {flat.shape}")
        shapes = tuple((int(i), int(o)) for i, o in self.shapes)
        _check_layers(shapes)
        expected = sum((i + 1) * o for i, o in shapes)
        if flat.shape[-1] != expected:
            raise ValueError(
                f"flat vector has {flat.shape[-1]} entries, shapes demand {expected}"
            )
        if not np.all(np.isfinite(flat)):
            raise ValueError("parameters must be finite")
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "shapes", shapes)

    @property
    def in_dim(self) -> int:
        return self.shapes[0][0]

    @property
    def out_dim(self) -> int:
        return self.shapes[-1][1]


def _layer_views(flat: np.ndarray, shapes: tuple[tuple[int, int], ...]):
    """Yield (W, b) views into (P,) or (K, P) parameters, in layer order:
    W is (..., in_dim, out_dim) and b is (..., 1, out_dim)."""
    lead = flat.shape[:-1]
    offset = 0
    for in_dim, out_dim in shapes:
        w = flat[..., offset : offset + in_dim * out_dim].reshape(*lead, in_dim, out_dim)
        offset += in_dim * out_dim
        b = flat[..., offset : offset + out_dim].reshape(*lead, 1, out_dim)
        offset += out_dim
        yield w, b


def init_params(layer_sizes: "list[int] | tuple[int, ...]", stream: RngStream) -> ModelParams:
    """Glorot-uniform weights, zero biases, deterministic under the stream,
    for positive widths: the input, at least one hidden and the output."""
    sizes = list(layer_sizes)
    if len(sizes) < 3:
        raise ValueError("need at least input, one hidden, and output widths")
    if any(int(s) < 1 for s in sizes):
        raise ValueError(f"layer widths must be positive, got {sizes}")
    shapes = tuple(zip(map(int, sizes[:-1]), map(int, sizes[1:])))
    gen = stream.child("model-init").generator()
    parts = []
    for in_dim, out_dim in shapes:
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        parts += [gen.uniform(-limit, limit, size=in_dim * out_dim), np.zeros(out_dim)]
    return ModelParams(np.concatenate(parts), shapes)


def _check_input(params: ModelParams, x: np.ndarray) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    lead = params.flat.shape[:-1]
    if arr.ndim != len(lead) + 2 or arr.shape[: len(lead)] != lead:
        want = f"(K, B, d) with K = {lead[0]}" if lead else "(B, d)"
        raise ValueError(f"input has shape {arr.shape}, a model of this layout expects {want}")
    if arr.shape[-1] != params.in_dim:
        raise ValueError(
            f"input has feature dim {arr.shape[-1]}, model expects {params.in_dim}"
        )
    return arr


def forward_vjp(params: ModelParams, x: np.ndarray):
    """One forward pass: (logits, vjp) for a batch (B, d), giving (B, M)
    logits, or for a (K, P) cohort on (K, B, d) inputs, giving (K, B, M).

    ``vjp(adjoint, out)`` maps dLoss/dLogits of this pass to the exact
    parameter gradient, (P,) or (K, P), reusing the pass's activations. It
    writes each layer's weight and bias gradients straight into their views
    of ``out``, a writeable C-contiguous float64 array of the parameters'
    shape, and returns ``out``. Zero adjoints yield a zero gradient; the map
    is linear in the adjoint.
    """
    arr = _check_input(params, x)
    layers = list(_layer_views(params.flat, params.shapes))
    acts = [arr]
    for li, (w, b) in enumerate(layers):
        z = acts[-1] @ w
        z += b
        acts.append(z if li == len(layers) - 1 else np.maximum(z, 0.0, out=z))
    logits = acts[-1]

    def vjp(adjoint: np.ndarray, out: np.ndarray) -> np.ndarray:
        dz = np.asarray(adjoint, dtype=np.float64)
        if dz.shape != logits.shape:
            raise ValueError(
                f"adjoint shape {dz.shape} does not match logits shape {logits.shape}"
            )
        if not (
            isinstance(out, np.ndarray) and out.dtype == np.float64
            and out.shape == params.flat.shape
            and out.flags.writeable and out.flags.c_contiguous
        ):
            raise ValueError(
                f"out must be a writeable C-contiguous float64 array of shape "
                f"{params.flat.shape}"
            )
        views = list(_layer_views(out, params.shapes))
        for li in range(len(layers) - 1, -1, -1):
            gw, gb = views[li]
            np.matmul(np.swapaxes(acts[li], -1, -2), dz, out=gw)
            np.sum(dz, axis=-2, keepdims=True, out=gb)
            if li > 0:
                # acts[li] = relu(z), so acts[li] > 0 exactly where z > 0.
                dz = dz @ np.swapaxes(layers[li][0], -1, -2)
                dz *= acts[li] > 0.0
        return out

    return logits, vjp


def forward(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Logits for a batch (B, d) -> (B, M), or a (K, P) cohort's
    (K, B, d) -> (K, B, M)."""
    return forward_vjp(params, x)[0]


def backward(params: ModelParams, x: np.ndarray, adjoint: np.ndarray) -> np.ndarray:
    """Exact parameter gradient given dLoss/dLogits for this batch.

    Runs its own forward pass; callers that also need the logits should
    use :func:`forward_vjp` and pay for one pass. Returns a fresh read-only
    array.
    """
    return _frozen(forward_vjp(params, x)[1](adjoint, np.empty(params.flat.shape)))


def sgd_step(params: ModelParams, grads: np.ndarray, lr: float) -> ModelParams:
    """One plain gradient step, elementwise on (P,) or (K, P); returns new
    params, inputs untouched."""
    if not np.isfinite(lr) or lr < 0:
        raise ValueError(f"learning rate must be finite and non-negative, got {lr}")
    if grads.shape != params.flat.shape:
        raise ValueError(f"gradient shape {grads.shape} differs from parameters' {params.flat.shape}")
    step = lr * grads
    return ModelParams(_frozen(np.subtract(params.flat, step, out=step)), params.shapes)
