"""Mild stochastic input transformations for the dual-forward objective.

Policies are ordered lists of ops. :func:`apply_batch` augments a cohort
of K clients' batches at once. Each op draws from its own sub-stream of
each client's RngStream, so inserting or removing one op never shifts the
randomness of the others, and one client's draws never depend on the
others'. Image ops (rotation, flip) need the dataset's ``image_shape``
metadata; purely tabular data can only be jittered.

Augmentation here is deliberately weak: the downstream objective compares
predictions on the original and transformed input, so the transform must
preserve the label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import generators

__all__ = [
    "UnsupportedAugmentationError",
    "Rotation",
    "HorizontalFlip",
    "FeatureJitter",
    "AugmentPolicy",
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
        object.__setattr__(self, "ops", ops)

    def needs_image(self) -> bool:
        return any(isinstance(op, _IMAGE_OPS) for op in self.ops)


# cephes' sindg/cosdg polynomials for sine and cosine on [-pi/4, pi/4].
_SINCOF = (
    1.58962301572218447952e-10,
    -2.50507477628503540135e-8,
    2.75573136213856773549e-6,
    -1.98412698295895384658e-4,
    8.33333333332211858862e-3,
    -1.66666666666666307295e-1,
)
_COSCOF = (
    1.13678171382044553091e-11,
    -2.08758833757683644217e-9,
    2.75573155429816611547e-7,
    -2.48015872936186303776e-5,
    1.38888888888806666760e-3,
    -4.16666666666666348141e-2,
    4.99999999999999999798e-1,
)
_PI180 = 1.74532925199432957692e-2


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _cos_sin_degrees(degrees: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Cosine and sine of angles in degrees, as cephes ``cosdg``/``sindg`` give them.

    The angle is rounded to a multiple of 90 degrees, whose quadrant picks
    which of cephes' polynomials (sine or cosine of the remaining offset, at
    most 45 degrees) gives each result and with which sign. Angles above
    1e14 degrees in magnitude, where cephes gives up and returns 0, are not
    special-cased.
    """
    neg = degrees < 0
    x = np.abs(degrees)
    y = np.floor(x / 45.0)
    y += y % 2
    quadrant = y % 8 // 2
    z = (x - y * 45.0) * _PI180
    zz = z * z
    sin_z = z + z * (zz * _polevl(zz, _SINCOF))
    cos_z = 1.0 - zz * _polevl(zz, _COSCOF)
    odd = quadrant % 2 == 1
    cos = np.where(odd, sin_z, cos_z)
    sin = np.where(odd, cos_z, sin_z)
    flip_cos = (quadrant == 1) | (quadrant == 2)
    return np.where(flip_cos, -cos, cos), np.where(neg != (quadrant >= 2), -sin, sin)


def _bilinear_taps(coord: np.ndarray, size: int) -> tuple:
    """Lower and upper pixel index along one axis, and their (n, 1) weights.

    A coordinate on the last pixel gets an upper tap of weight 0, which
    SciPy reads from the mirrored pixel ``size - 2`` (pixel 0 if size is 1).
    """
    lo = np.floor(coord)
    w_lo = 1.0 - (coord - lo)
    lo = lo.astype(np.intp)
    hi = lo + 1
    hi[hi == size] = max(size - 2, 0)
    return lo, hi, w_lo[:, None], (1.0 - w_lo)[:, None]


def _rotate(images: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """Rotate each of N (H, W, C) images about its centre by its angle in degrees.

    Bilinear resampling with zero fill, bit for bit what SciPy's
    ``ndimage.rotate(image, angle, axes=(1, 0), reshape=False, order=1,
    mode="constant")`` gives for each image, because it repeats that
    function's arithmetic step for step:

    - the cosine and sine are cephes ``cosdg``/``sindg``
      (:func:`_cos_sin_degrees`); ``np.cos(np.deg2rad(a))`` differs in
      the last bit for about 70% of angles drawn in [-720, 720];
    - the centre shift is ``center - rot @ center`` with ``@`` on the
      (N, 2, 2) stack of rotation matrices, where SciPy uses ``@`` on one
      2x2 matrix; the elementwise ``c*v0 + s*v1`` differs in about a
      quarter of 16x16 shifts under OpenBLAS on SkylakeX;
    - output pixel (i, j) reads input coordinate ``shift + i*m0 + j*m1``,
      added in that order, for each row m of the rotation matrix;
    - the weights along an axis are ``w0 = 1 - frac`` and ``w1 = 1 - w0``;
    - the corners are summed from 0.0 in the order (0,0), (0,1), (1,0),
      (1,1), each as ``(pixel*wy)*wx``;
    - a coordinate is inside when ``0 <= y <= H-1`` and ``0 <= x <= W-1``;
      an output pixel whose coordinate is outside is 0.

    The result can differ from SciPy's under a BLAS whose stacked ``@``
    rounds the centre shift differently from its one-matrix ``@`` (the
    bitwise tests against SciPy guard that), and for angles above 1e14
    degrees in magnitude (see :func:`_cos_sin_degrees`).
    """
    h, w = images.shape[1:3]
    cos, sin = _cos_sin_degrees(degrees)
    rot = np.stack([np.stack([cos, sin], -1), np.stack([-sin, cos], -1)], -2)
    center = (np.array([h, w]) - 1) / 2
    shift = center - rot @ center
    i = np.arange(h, dtype=np.float64)[:, None]
    j = np.arange(w, dtype=np.float64)
    rot, shift = rot[:, :, :, None, None], shift[:, :, None, None]
    y = shift[:, 0] + i * rot[:, 0, 0] + j * rot[:, 0, 1]
    x = shift[:, 1] + i * rot[:, 1, 0] + j * rot[:, 1, 1]
    inside = np.flatnonzero((y >= 0) & (y <= h - 1) & (x >= 0) & (x <= w - 1))
    y0, y1, wy0, wy1 = _bilinear_taps(y.ravel().take(inside), h)
    x0, x1, wx0, wx1 = _bilinear_taps(x.ravel().take(inside), w)
    pixels = images.reshape(-1, images.shape[3])
    first = inside - inside % (h * w)  # first pixel of each point's image
    row0, row1 = first + y0 * w, first + y1 * w
    out = np.zeros_like(pixels)
    out[inside] = (
        0.0
        + (pixels.take(row0 + x0, 0) * wy0) * wx0
        + (pixels.take(row0 + x1, 0) * wy0) * wx1
        + (pixels.take(row1 + x0, 0) * wy1) * wx0
        + (pixels.take(row1 + x1, 0) * wy1) * wx1
    )
    return out.reshape(images.shape)


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
    K generators of each op at once. Each op transforms a client's whole
    batch at once: the jitter op draws one normal block, the rotation op B
    angles (none when ``max_degrees`` is 0) and the flip op B uniforms.
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
                rows += gen.normal(0.0, op.sigma, size=rows.shape)
            else:
                images = rows.reshape(len(rows), *image_shape)
                if isinstance(op, HorizontalFlip):
                    flip = gen.random(len(images)) < op.prob
                    images[flip] = images[flip, :, ::-1]
                elif op.max_degrees:
                    m = op.max_degrees
                    images[:] = _rotate(images, gen.uniform(-m, m, size=len(images)))
    return out
