"""Probability transforms, splittable random streams, and the one rule by
which the package's immutable types hold arrays.

Logit and probability arrays are plain numpy float64 arrays. The
transforms here take any ``(..., M)`` array and work along its last axis;
the losses take ``(..., B, M)`` logits, a batch ``(B, M)`` or a cohort of
batches ``(K, B, M)``, never a lone ``(M,)`` row. A probability array has
entries in [0, 1] that sum to 1 per row.

All logarithms are natural logarithms. :func:`sample_mix_weight` draws
from a cohort's :class:`RngStream` list, never from a live generator.

Random streams: an :class:`RngStream` names a numpy ``SeedSequence`` by its
master seed and spawn-key path, and :meth:`RngStream.generator` builds
``Generator(PCG64(SeedSequence(seed, spawn_key=path)))`` through numpy.
:func:`generators` gives the same generators for the child at one path of
each of K streams, roots included, without building K ``SeedSequence``
objects: it carries on each stream's mixed entropy pool with the child's
words and derives the K PCG64 states with a few uint32 array operations.
This copies ``SeedSequence``'s mixing and output hash, whose results NEP
19 fixes for all numpy versions, so both routes give the same bytes.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "RngStream",
    "generators",
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


# SeedSequence's hash constants (numpy.random.bit_generator), fixed by NEP 19.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_WORDS = 4


def _words(value: int) -> list:
    """The little-endian uint32 words numpy's ``SeedSequence`` reads from a
    non-negative integer; 0 gives one zero word."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash_consts(init: int, mult: int, call: int) -> tuple:
    """(XOR, multiplier) of SeedSequence's multiply-xorshift hash at its
    ``call``-th use (0-based): the constant starts at ``init`` and is
    multiplied by ``mult`` between the XOR and the multiplication."""
    xor = init * pow(mult, call, 1 << 32) & _MASK32
    return xor, xor * mult & _MASK32


def _hashmix(value: int, call: int) -> int:
    """SeedSequence's ``hashmix`` of one word at the pool hash's ``call``-th use."""
    xor, mult = _hash_consts(_INIT_A, _MULT_A, call)
    value = (value ^ xor) * mult & _MASK32
    return value ^ (value >> 16)


# generate_state's output hash over the eight uint32 words of a PCG64
# seed, which cycle twice through the pool: as (2, 4) rows.
_STATE_XOR, _STATE_MULT = np.array(
    [_hash_consts(_INIT_B, _MULT_B, i) for i in range(8)], dtype=np.uint32
).T.reshape(2, 2, _POOL_WORDS)


@functools.cache
def _mix_terms(first: int, steps: tuple) -> np.ndarray:
    """(S, 4) uint32 rows ``MIX_R * hashmix(w)`` that the S entropy words of
    ``steps`` subtract in ``mix`` from the four pool words, the first of
    them being entropy word ``first`` past the pool's four.

    An ``lsr`` cohort with one augment op asks for ``local_epochs * (2 *
    batches + 1)`` pairs, the same ones every round; a bounded LRU cache
    misses on all of them once that cycle outgrows it."""
    words = [w for step in steps for w in _words(_path_step(step))]
    terms = [
        [_hashmix(w, 16 + 4 * j + d) for d in range(_POOL_WORDS)]
        for j, w in enumerate(words, start=first)
    ]
    return _frozen(np.array(terms, dtype=np.uint32) * _MIX_R)


@functools.cache
def _row_seed():
    """An ``ISeedSequence`` type whose instances hand PCG64 one precomputed
    (4,) uint64 state row. Built on first use, so loading this module does
    not load ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class RowSeed(ISeedSequence):
        def __init__(self, row: np.ndarray) -> None:
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            return self.row

    return RowSeed


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


def _check_int_fields(obj) -> None:
    """Raise ValueError naming the first ``int``-annotated field of the
    dataclass ``obj`` that holds a bool or a non-integer; numpy integers
    pass. Annotations are read as strings, as every module postpones them."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type == "int" and (
            isinstance(value, bool) or not isinstance(value, (int, np.integer))
        ):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")


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
        """Fresh generator positioned at the start of this stream, built by
        numpy's own ``SeedSequence``. :func:`generators` must match it."""
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))

    @functools.cached_property
    def _pool(self) -> tuple:
        """(numpy's mixed (4,) uint32 entropy pool for this stream, the
        number of entropy words mixed into it). A root's seed is not padded
        to the pool size with zero words as a child's is, but numpy gives
        the pool words past it ``hashmix(0)``, as a zero word would, so a
        root's pool carries on too. Not a field, so equality, hash and repr
        ignore it."""
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=self.path)
        seed_words = max(len(_words(int(self.master_seed))), _POOL_WORDS)
        return seq.pool, seed_words + sum(len(_words(step)) for step in self.path)


def generators(streams: list, *steps: int | str) -> list:
    """``[s.child(*steps).generator() for s in streams]``, state for state.

    SeedSequence mixes its entropy words into a 4-word pool. Past the first
    four, the j-th word w (0-based) mixes into pool word d as
    ``mix(pool[d], hashmix(w))`` at the hash's call 16 + 4j + d. Every
    child here appends the same words, so their hashes are shared and a few
    (K, 4) array operations per word carry all K pools on. The PCG64 state
    is then ``generate_state(4, uint64)`` of each pool, taken for all K
    rows at once. A cohort whose pools hold different word counts is
    derived one stream at a time, the same way.
    """
    if not streams:
        return []
    counts = {s._pool[1] for s in streams}
    if len(counts) > 1:
        return [g for s in streams for g in generators([s], *steps)]
    pool = np.array([s._pool[0] for s in streams])
    for term in _mix_terms(counts.pop() - _POOL_WORDS, steps):
        pool *= _MIX_L
        pool -= term
        pool ^= pool >> 16
    out = pool[:, None, :] ^ _STATE_XOR
    out *= _STATE_MULT
    out ^= out >> 16
    # Word pairs read little-endian, as numpy does. PCG64 reads each row's
    # raw memory, so the (K, 4) rows must be C-contiguous, as here.
    rows = out.reshape(len(streams), 8).astype("<u4", copy=False).view("<u8")
    rows = rows.astype(np.uint64, copy=False)
    row_seed, generator, pcg64 = _row_seed(), np.random.Generator, np.random.PCG64
    return [generator(pcg64(row_seed(row))) for row in rows]


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
    return _softmax_at(o, _row_max(o))


def _row_max(o: np.ndarray) -> np.ndarray:
    """``o.max(axis=-1, keepdims=True)`` of finite ``o``, for a softmax
    shift. numpy reduces a short last axis one row at a time, several
    times slower than the leading axis of a class-major copy, and a max
    is exact in any order. Only the sign of a zero max may differ, which
    exp maps to the same 1."""
    return np.ascontiguousarray(np.moveaxis(o, -1, 0)).max(axis=0)[..., None]


def _softmax_at(o: np.ndarray, top: np.ndarray, temp: float = 1.0) -> np.ndarray:
    """``tempered_softmax(o, temp)`` of finite logits, unchecked, given
    their row maxima ``top = _row_max(o)``. One max serves every
    temperature: division by a positive constant is monotone, so
    max(o / T) == max(o) / T exactly, and the output is bit for bit that
    of ``tempered_softmax``."""
    if temp != 1.0:
        o, top = o / temp, top / temp
    e = np.subtract(o, top)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


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


def sample_mix_weight(streams: list, *steps: int | str) -> np.ndarray:
    """(K,) convex mixing weights for prediction averaging, Beta(1, 1): one
    draw from the child at ``steps`` of each of the K client streams."""
    return np.array([gen.beta(1.0, 1.0) for gen in generators(streams, *steps)])


def softmax_vjp(probs: np.ndarray, grad_out: np.ndarray, temp: float = 1.0) -> np.ndarray:
    """Pull a gradient at softmax output back to the logits.

    probs must be the softmax (or tempered softmax) output itself. For
    q = softmax(o / temp), returns dL/do given dL/dq = grad_out:
    (J^T v)_j = q_j * (v_j - sum_i v_i q_i) / temp.
    """
    q = np.asarray(probs, dtype=np.float64)
    v = np.asarray(grad_out, dtype=np.float64)
    inner = (v * q).sum(axis=-1, keepdims=True)
    out = q * (v - inner)
    if temp != 1.0:
        out /= temp
    return out
