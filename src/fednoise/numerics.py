"""Probability transforms, splittable random streams, and the one rule by
which the package's immutable types hold arrays.

Conventions used across the package: logit and probability vectors are plain
numpy float64 arrays, either a single row ``(M,)``, a batch of rows
``(B, M)``, or a cohort of batches ``(K, B, M)``; every transform here works
along the last axis. A probability array has entries in [0, 1] that sum to 1
per row.

All logarithms are natural logarithms. :func:`sample_mix_weight` draws
from an :class:`RngStream`, never from a live generator.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream",
    "softmax",
    "tempered_softmax",
    "sharpen",
    "sample_mix_weight",
    "softmax_vjp",
]


def _path_step(step: int | str) -> int:
    """Normalize one path component to a non-negative integer.

    Strings are hashed with crc32 so call sites can use readable tags
    ("shuffle", "augment") while the stream identity stays integer-based
    and stable across runs and platforms.
    """
    if isinstance(step, str):
        return zlib.crc32(step.encode("utf-8"))
    step = int(step)
    if step < 0:
        raise ValueError(f"rng path steps must be non-negative, got {step}")
    return step


def _immutable(values, dtype) -> np.ndarray:
    """``values`` as a read-only ``dtype`` array that nothing else can write.

    A C-contiguous array of that dtype that owns its data and is already
    read-only is adopted as is. Anything else is copied into C order: a
    caller's array stays writeable, a view's base cannot change the result,
    and every layer view of a (K, P) stack has contiguous rows (a broadcast
    copied in its own stride order would not). Code that wraps an array it
    has just built freezes it with :func:`_frozen` first, so nothing is
    copied.
    """
    if (
        isinstance(values, np.ndarray)
        and values.dtype == dtype
        and values.base is None
        and not values.flags.writeable
        and values.flags.c_contiguous
    ):
        return values
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream identified by a seed and a derivation path.

    Two streams with the same ``(master_seed, path)`` produce bit-identical
    draws; streams with different paths are statistically independent
    (numpy ``SeedSequence`` spawn keys provide the split). Streams are cheap
    value objects: derive one per purpose instead of sharing a generator, so
    consuming randomness in one place never shifts draws anywhere else.
    """

    master_seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        seed = self.master_seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
            raise TypeError(f"master_seed must be an integer, got {seed!r}")
        if seed < 0:
            raise ValueError("master_seed must be non-negative")

    def child(self, *steps: int | str) -> "RngStream":
        """Derive the sub-stream at ``path + steps``."""
        extra = tuple(_path_step(s) for s in steps)
        return RngStream(self.master_seed, self.path + extra)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax along the last axis, with max-subtraction for
    overflow safety.

    Raises ValueError on non-finite input. Output rows are strictly positive
    up to float underflow and sum to 1 within float tolerance.
    """
    o = np.asarray(logits, dtype=np.float64)
    if o.ndim < 1 or o.shape[-1] < 1:
        raise ValueError(f"softmax expects a (..., M) array, got shape {o.shape}")
    if not np.all(np.isfinite(o)):
        raise ValueError("softmax input must be finite")
    shifted = o - o.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def tempered_softmax(logits: np.ndarray, temp: float) -> np.ndarray:
    """softmax(logits / temp). temp < 1 peaks the output, temp > 1 flattens it."""
    if not np.isfinite(temp) or temp <= 0:
        raise ValueError(f"temperature must be positive, got {temp}")
    o = np.asarray(logits, dtype=np.float64)
    return softmax(o / temp)


def sharpen(probs: np.ndarray, temp: float) -> np.ndarray:
    """Rescale a distribution by the power 1/temp and renormalize.

    sharpen(p, T)_i = p_i^(1/T) / sum_j p_j^(1/T). One-hot rows are fixed
    points for every temperature; temp = 1 is the identity.
    """
    if not np.isfinite(temp) or temp <= 0:
        raise ValueError(f"temperature must be positive, got {temp}")
    p = np.asarray(probs, dtype=np.float64)
    if np.any(p < 0):
        raise ValueError("sharpen input must be non-negative")
    if temp == 1.0:
        return p.copy()
    powered = p ** (1.0 / temp)
    total = powered.sum(axis=-1, keepdims=True)
    if np.any(total <= 0) or not np.all(np.isfinite(total)):
        raise ValueError("sharpen underflowed or overflowed; temperature too extreme")
    return powered / total


def sample_mix_weight(rng: RngStream) -> float:
    """Draw the convex mixing weight for prediction averaging, Beta(1, 1)."""
    return float(rng.generator().beta(1.0, 1.0))


def softmax_vjp(probs: np.ndarray, grad_out: np.ndarray, temp: float = 1.0) -> np.ndarray:
    """Pull a gradient at softmax output back to the logits.

    probs must be the softmax (or tempered softmax) output itself. For
    q = softmax(o / temp), returns dL/do given dL/dq = grad_out:
    (J^T v)_j = q_j * (v_j - sum_i v_i q_i) / temp.
    """
    q = np.asarray(probs, dtype=np.float64)
    v = np.asarray(grad_out, dtype=np.float64)
    inner = (v * q).sum(axis=-1, keepdims=True)
    return q * (v - inner) / temp
