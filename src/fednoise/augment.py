"""Mild stochastic input transformations for the dual-forward objective.

Policies are ordered lists of ops. :func:`apply_batch` augments a cohort
of K clients' batches at once. Each op draws from its own sub-stream of
each client's RngStream, so inserting or removing one op never shifts the
randomness of the others, and one client's draws never depend on the
others'; each op's function takes that sub-stream's numpy Generator. Image
ops (rotation, flip) need the dataset's ``image_shape`` metadata; purely
tabular data can only be jittered. scipy is imported only when a policy
holding a :class:`Rotation` is built or an image is rotated, so a run that
never rotates never loads it.

Augmentation here is deliberately weak: the downstream objective compares
predictions on the original and transformed input, so the transform must
preserve the label.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .numerics import generators

__all__ = [
    "UnsupportedAugmentationError",
    "Rotation",
    "HorizontalFlip",
    "FeatureJitter",
    "AugmentPolicy",
    "random_rotation",
    "horizontal_flip",
    "feature_jitter",
    "apply_batch",
]


class UnsupportedAugmentationError(ValueError):
    """An op in the policy cannot run on this data (missing image metadata)."""


@dataclass(frozen=True)
class Rotation:
    """Rotate the image by an angle drawn uniformly from [-max_degrees, +max_degrees]."""

    max_degrees: float = 30.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.max_degrees) and self.max_degrees >= 0):
            raise ValueError(f"max_degrees must be non-negative, got {self.max_degrees}")


@dataclass(frozen=True)
class HorizontalFlip:
    """Mirror the image left-right with the given probability."""

    prob: float = 0.5

    def __post_init__(self) -> None:
        if not (np.isfinite(self.prob) and 0.0 <= self.prob <= 1.0):
            raise ValueError(f"flip probability must lie in [0, 1], got {self.prob}")


@dataclass(frozen=True)
class FeatureJitter:
    """Add independent Gaussian noise with the given standard deviation."""

    sigma: float = 0.05

    def __post_init__(self) -> None:
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"jitter sigma must be non-negative, got {self.sigma}")


@functools.cache
def _ndimage():
    """``scipy.ndimage``, imported on first use: only rotation needs it."""
    from scipy import ndimage

    return ndimage


_IMAGE_OPS = (Rotation, HorizontalFlip)
_ALL_OPS = (Rotation, HorizontalFlip, FeatureJitter)


@dataclass(frozen=True)
class AugmentPolicy:
    """Ordered op list; an empty policy is the identity transform."""

    ops: tuple = ()

    def __post_init__(self) -> None:
        ops = tuple(self.ops)
        for op in ops:
            if not isinstance(op, _ALL_OPS):
                raise ValueError(f"unknown augmentation op {op!r}")
            if isinstance(op, Rotation):
                _ndimage()  # pay the import while the run is set up
        object.__setattr__(self, "ops", ops)

    def needs_image(self) -> bool:
        return any(isinstance(op, _IMAGE_OPS) for op in self.ops)


def random_rotation(
    image: np.ndarray, max_degrees: float, rng: np.random.Generator
) -> np.ndarray:
    """Rotate about the image center, bilinear resampling, zero fill outside.

    Accepts (H, W) or (H, W, C) arrays. max_degrees = 0 returns an exact
    copy without consuming randomness.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim not in (2, 3):
        raise UnsupportedAugmentationError(
            f"rotation needs a (H, W) or (H, W, C) image, got shape {img.shape}"
        )
    if max_degrees == 0:
        return img.copy()
    angle = float(rng.uniform(-max_degrees, max_degrees))
    return _ndimage().rotate(
        img, angle, axes=(1, 0), reshape=False, order=1, mode="constant", cval=0.0
    )


def horizontal_flip(
    image: np.ndarray, prob: float, rng: np.random.Generator
) -> np.ndarray:
    """Mirror columns with the given probability (left-right flip)."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim not in (2, 3):
        raise UnsupportedAugmentationError(
            f"flip needs a (H, W) or (H, W, C) image, got shape {img.shape}"
        )
    if rng.random() < prob:
        return img[:, ::-1].copy()
    return img.copy()


def feature_jitter(
    x: np.ndarray, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """Add N(0, sigma^2) noise elementwise; sigma = 0 is the identity."""
    arr = np.asarray(x, dtype=np.float64)
    return arr + rng.normal(0.0, sigma, size=arr.shape)


def _to_image(x_flat: np.ndarray, image_shape: tuple) -> np.ndarray:
    h, w, c = image_shape
    img = x_flat.reshape(h, w, c)
    return img[:, :, 0] if c == 1 else img


def apply_batch(
    policy: AugmentPolicy,
    batch: np.ndarray,
    streams: list,
    steps: tuple,
    image_shape: "tuple[int, int, int] | None" = None,
) -> np.ndarray:
    """Run the policy on a (K, B, d) cohort batch, one independent draw per sample.

    Op i draws client k's rows, in row order, from the sub-stream at
    ``steps + (i,)`` of ``streams[k]``, so every sample gets fresh
    randomness and re-running with the same streams and steps reproduces
    the batch bit-for-bit. :func:`~fednoise.numerics.generators` builds the
    K generators of each op at once. The jitter op draws one vectorized
    normal block per client; the image ops loop over rows.
    """
    arr = np.asarray(batch, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"apply_batch expects (K, B, d), got shape {arr.shape}")
    if arr.shape[0] != len(streams):
        raise ValueError(f"{arr.shape[0]} clients' batches but {len(streams)} streams")
    if policy.needs_image() and image_shape is None:
        raise UnsupportedAugmentationError(
            "policy contains image ops but the data has no image shape"
        )
    out = arr.copy()
    for i, op in enumerate(policy.ops):
        for rows, gen in zip(out, generators(streams, *steps, i)):
            if isinstance(op, FeatureJitter):
                rows[:] = feature_jitter(rows, op.sigma, gen)
            elif isinstance(op, Rotation):
                for b in range(rows.shape[0]):
                    img = _to_image(rows[b], image_shape)
                    rows[b] = random_rotation(img, op.max_degrees, gen).reshape(-1)
            else:
                for b in range(rows.shape[0]):
                    img = _to_image(rows[b], image_shape)
                    rows[b] = horizontal_flip(img, op.prob, gen).reshape(-1)
    return out
