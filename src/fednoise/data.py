"""Datasets, label-noise injection, and client partitioning.

A :class:`LabeledDataset` always carries two label arrays: ``true_labels``
(used for evaluation and for class-aware partitioning) and
``observed_labels`` (what trainers see). Noise injectors rewrite only the
observed labels; features and true labels are never modified, so the clean
ground truth stays available for measurement.

Partitioners return :class:`ClientShard` index sets into the training
dataset. Shard indices are disjoint and all shards have one size: the iid
partitioner raises :class:`PartitionError` when the samples do not divide
evenly across the clients, and the non-iid one drops the surplus with a
warning.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .numerics import RngStream, _check_int_fields, _frozen, _immutable

__all__ = [
    "DataError",
    "FormatError",
    "PartitionError",
    "LabeledDataset",
    "ClientShard",
    "NoiseSpec",
    "load_idx",
    "load_csv",
    "generate_synthetic",
    "subset",
    "inject_symmetric_noise",
    "inject_pairwise_noise",
    "transition_counts",
    "partition_iid",
    "partition_noniid",
]

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801

# Chord distance between the two centers of a synthetic class pair. At the
# fixed within-class spread of 0.25 this puts twin boundaries 1.6 standard
# deviations from each center: hard enough that corrupted labels erode test
# accuracy over long runs, wide enough that clean data stays linearly
# separable at the 90 percent level.
_PAIR_SEPARATION = 0.8


class FormatError(ValueError):
    """A file does not conform to its declared format."""


class DataError(ValueError):
    """File parsed fine but the content is semantically invalid."""


class PartitionError(ValueError):
    """The requested partition cannot be built from this dataset."""


@dataclass(frozen=True)
class LabeledDataset:
    """Immutable feature matrix with true and observed integer labels.

    features:        (n, d) float64, finite.
    true_labels:     (n,) int64 in [0, num_classes).
    observed_labels: (n,) int64 in [0, num_classes); starts equal to
                     true_labels until a noise injector replaces it.
    image_shape:     (height, width, channels) when the flat features are a
                     raster image, else None.

    Arrays are held as ``numerics._immutable`` gives them: a caller's
    writeable array, or a view of one, is copied, never frozen in place.
    """

    features: np.ndarray
    true_labels: np.ndarray
    observed_labels: np.ndarray
    num_classes: int
    image_shape: "tuple[int, int, int] | None" = None

    def __post_init__(self) -> None:
        _check_int_fields(self)
        feats = _immutable(self.features, np.float64)
        true = _immutable(self.true_labels, np.int64)
        obs = _immutable(self.observed_labels, np.int64)
        if feats.ndim != 2:
            raise DataError(f"features must be (n, d), got shape {feats.shape}")
        if not np.all(np.isfinite(feats)):
            raise DataError("features must be finite")
        n = feats.shape[0]
        if true.shape != (n,) or obs.shape != (n,):
            raise DataError("label arrays must match the number of samples")
        m = int(self.num_classes)
        if m < 1:
            raise DataError(f"num_classes must be positive, got {m}")
        for name, arr in (("true", true), ("observed", obs)):
            if arr.size and (arr.min() < 0 or arr.max() >= m):
                raise DataError(f"{name} labels must lie in [0, {m})")
        if self.image_shape is not None:
            shape = tuple(int(v) for v in self.image_shape)
            if len(shape) != 3 or any(v < 1 for v in shape):
                raise DataError(f"image_shape must be (H, W, C), got {self.image_shape}")
            if shape[0] * shape[1] * shape[2] != feats.shape[1]:
                raise DataError(
                    f"image_shape {shape} does not match feature dim {feats.shape[1]}"
                )
            object.__setattr__(self, "image_shape", shape)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "true_labels", true)
        object.__setattr__(self, "observed_labels", obs)
        object.__setattr__(self, "num_classes", m)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class ClientShard:
    """One client's index set into the training dataset."""

    client_id: int
    indices: np.ndarray

    def __post_init__(self) -> None:
        _check_int_fields(self)
        idx = _immutable(self.indices, np.int64)
        if idx.ndim != 1:
            raise PartitionError("shard indices must be a 1-D array")
        # Neighbours after a sort, not np.unique: that loads numpy.ma.
        ordered = np.sort(idx)
        if (ordered[1:] == ordered[:-1]).any():
            raise PartitionError(f"client {self.client_id} has duplicate indices")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "client_id", int(self.client_id))

    @property
    def n_k(self) -> int:
        return self.indices.size


NOISE_KINDS = ("symmetric", "pairwise", "none")


@dataclass(frozen=True)
class NoiseSpec:
    """Label-noise recipe: kind ('symmetric' | 'pairwise' | 'none'), ratio, seed."""

    kind: str = "symmetric"
    ratio: float = 0.4
    seed: int = 0

    def __post_init__(self) -> None:
        _check_int_fields(self)
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"noise kind must be symmetric|pairwise|none, got {self.kind!r}")
        if not (np.isfinite(self.ratio) and 0.0 <= self.ratio < 1.0):
            raise ValueError(f"noise ratio must lie in [0, 1), got {self.ratio}")
        if self.kind == "pairwise" and self.ratio > 0.5:
            warnings.warn(
                f"pairwise noise ratio {self.ratio} > 0.5: flipped labels outnumber "
                "correct ones within each class",
                stacklevel=2,
            )


def _read_idx(path: str, magic: int, dims: int, kind: str, unit: str):
    """One checked IDX file: (header sizes, uint8 payload).

    The header is ``magic`` and then ``dims`` sizes, all big-endian uint32;
    the payload after it must hold exactly the product of the sizes.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    head = 4 * (dims + 1)
    if len(blob) < head:
        raise FormatError(f"{path}: truncated IDX {kind} header")
    found, *sizes = struct.unpack(f">{dims + 1}I", blob[:head])
    if found != magic:
        raise FormatError(f"{path}: bad magic 0x{found:08x}, expected 0x{magic:08x}")
    payload = np.frombuffer(blob, dtype=np.uint8, offset=head)
    promised = math.prod(sizes)
    if payload.size != promised:
        raise FormatError(
            f"{path}: payload holds {payload.size} {unit}, header promises {promised}"
        )
    return sizes, payload


def load_idx(
    images_path: str,
    labels_path: str,
    num_classes: "int | None" = None,
) -> LabeledDataset:
    """Load an images/labels file pair in the classic IDX byte format.

    Images: magic 0x00000803, then count/rows/cols as big-endian uint32,
    then raw unsigned bytes; pixel values are scaled to [0, 1]. Labels:
    magic 0x00000801, then count, then one unsigned byte per sample.
    """
    (n, rows, cols), pixels = _read_idx(images_path, _IDX_IMAGES_MAGIC, 3, "image", "bytes")
    (n_labels,), raw_labels = _read_idx(labels_path, _IDX_LABELS_MAGIC, 1, "label", "labels")
    if n_labels != n:
        raise FormatError(
            f"image/label count mismatch: {n} images vs {n_labels} labels"
        )

    features = _frozen(pixels.astype(np.float64).reshape(n, rows * cols) / 255.0)
    labels = _frozen(raw_labels.astype(np.int64))
    if num_classes is None:
        num_classes = int(labels.max()) + 1 if n else 1
    elif n and labels.max() >= num_classes:
        raise DataError(
            f"{labels_path}: label {labels.max()} out of range for {num_classes} classes"
        )
    return LabeledDataset(
        features=features,
        true_labels=labels,
        observed_labels=labels,
        num_classes=num_classes,
        image_shape=(int(rows), int(cols), 1),
    )


def load_csv(path: str, num_classes: "int | None" = None) -> LabeledDataset:
    """Load samples from CSV rows of ``label, feature_1, ..., feature_d``.

    A single header row is tolerated (detected by a non-numeric first cell).
    """
    import csv  # only CSV datasets pay for the module

    rows: list[list[str]] = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if row:
                rows.append(row)
    if rows:
        try:
            float(rows[0][0])
        except ValueError:
            rows = rows[1:]  # header row
    if not rows:
        raise FormatError(f"{path}: no data rows")

    width = len(rows[0])
    if width < 2:
        raise FormatError(f"{path}: rows need a label plus at least one feature")
    labels = np.zeros(len(rows), dtype=np.int64)
    features = np.zeros((len(rows), width - 1), dtype=np.float64)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise FormatError(f"{path}: row {i + 1} has {len(row)} cells, expected {width}")
        try:
            label_val = float(row[0])
            features[i] = [float(c) for c in row[1:]]
        except ValueError as exc:
            raise FormatError(f"{path}: row {i + 1} holds a non-numeric cell") from exc
        if not (label_val.is_integer() and -(2**63) <= label_val < 2**63):
            raise DataError(f"{path}: row {i + 1} label {row[0]} is not an int64 integer")
        labels[i] = int(label_val)

    if labels.min() < 0:
        raise DataError(f"{path}: negative label on some row")
    if num_classes is None:
        num_classes = int(labels.max()) + 1
    elif labels.max() >= num_classes:
        raise DataError(
            f"{path}: label {labels.max()} out of range for {num_classes} classes"
        )
    return LabeledDataset(
        features=_frozen(features),
        true_labels=_frozen(labels),
        observed_labels=labels,
        num_classes=int(num_classes),
    )


def generate_synthetic(
    n: int, num_classes: int, dim: int, seed: int
) -> LabeledDataset:
    """Balanced Gaussian class clusters centered on the unit sphere.

    Class centers come in pairs: a random midpoint direction is drawn per
    pair, then the two centers are split to chord distance 0.8 apart and
    normalized back onto the sphere (odd class counts leave one unpaired
    center at its midpoint). Within-pair boundaries are therefore tight
    while cross-pair boundaries stay wide, so a linear probe on clean
    labels lands above 90 percent while corrupted labels still have nearby
    wrong classes to drag the late rounds toward. Samples scatter around
    their center with per-coordinate standard deviation 0.25. Sample i
    belongs to class ``i % num_classes``, so any prefix or suffix whose
    length divides num_classes stays balanced, which keeps train/test
    splits stratified without extra bookkeeping. Every draw derives from the
    integer ``seed``.
    """
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    if n < num_classes:
        raise ValueError(f"need n >= num_classes, got n={n}, classes={num_classes}")
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    stream = RngStream(seed)
    gen_centers = stream.child("centers").generator()
    pairs = num_classes // 2
    mids = gen_centers.normal(size=(pairs + num_classes % 2, dim))
    mids /= np.linalg.norm(mids, axis=1, keepdims=True)
    # Offsets orthogonal to each midpoint keep both twins at equal radius
    # before the renormalization.
    off = gen_centers.normal(size=(pairs, dim))
    off -= (off * mids[:pairs]).sum(axis=1, keepdims=True) * mids[:pairs]
    off /= np.linalg.norm(off, axis=1, keepdims=True)
    centers = np.empty((num_classes, dim))
    centers[0 : 2 * pairs : 2] = mids[:pairs] + 0.5 * _PAIR_SEPARATION * off
    centers[1 : 2 * pairs : 2] = mids[:pairs] - 0.5 * _PAIR_SEPARATION * off
    if num_classes % 2:
        centers[-1] = mids[-1]
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)

    labels = np.arange(n, dtype=np.int64) % num_classes
    gen_samples = stream.child("samples").generator()
    features = centers[labels] + 0.25 * gen_samples.normal(size=(n, dim))
    return LabeledDataset(
        features=_frozen(features),
        true_labels=_frozen(labels),
        observed_labels=labels,
        num_classes=num_classes,
    )


def subset(ds: LabeledDataset, indices: np.ndarray) -> LabeledDataset:
    """Dataset restricted to the given sample indices (order preserved)."""
    idx = np.asarray(indices, dtype=np.int64)
    return LabeledDataset(
        features=_frozen(ds.features[idx]),
        true_labels=_frozen(ds.true_labels[idx]),
        observed_labels=_frozen(ds.observed_labels[idx]),
        num_classes=ds.num_classes,
        image_shape=ds.image_shape,
    )


def _even_split(k: int, buckets: int, gen: np.random.Generator) -> np.ndarray:
    """Split k items across buckets as evenly as possible, remainder seeded."""
    base, rem = divmod(k, buckets)
    counts = np.full(buckets, base, dtype=np.int64)
    if rem:
        counts[gen.choice(buckets, size=rem, replace=False)] += 1
    return counts


def _flip_per_class(ds: LabeledDataset, spec: NoiseSpec, kind: str, relabel) -> LabeledDataset:
    """Flip round(ratio * class_count) observed labels in each true class.

    Class by class, a seeded shuffle picks the flipped members, and then
    ``relabel(cls, k, gen)`` gives their k new labels from the same generator.
    """
    if spec.kind != kind:
        raise ValueError(f"expected a {kind} NoiseSpec, got kind={spec.kind!r}")
    if ds.num_classes < 2:
        raise DataError(f"{kind} noise needs at least 2 classes")
    if spec.ratio == 0.0:
        return ds
    observed = ds.observed_labels.copy()
    gen = RngStream(spec.seed).child(f"noise-{kind}").generator()
    for cls in range(ds.num_classes):
        members = np.flatnonzero(ds.true_labels == cls)
        k = int(round(spec.ratio * members.size))
        if k == 0:
            continue
        chosen = gen.permutation(members)[:k]
        observed[chosen] = relabel(cls, k, gen)
    return replace(ds, observed_labels=_frozen(observed))


def inject_symmetric_noise(ds: LabeledDataset, spec: NoiseSpec) -> LabeledDataset:
    """Flip round(ratio * class_count) labels per true class, spread uniformly.

    Within each true class the flipped samples are picked by a seeded
    shuffle, and their new labels are drawn uniformly from the other
    num_classes - 1 classes, split as evenly as the flip count allows.
    """
    m = ds.num_classes

    def relabel(cls, k, gen):
        return np.repeat(np.delete(np.arange(m), cls), _even_split(k, m - 1, gen))

    return _flip_per_class(ds, spec, "symmetric", relabel)


def inject_pairwise_noise(ds: LabeledDataset, spec: NoiseSpec) -> LabeledDataset:
    """Flip round(ratio * class_count) labels per class c to class (c+1) mod M."""
    m = ds.num_classes
    return _flip_per_class(ds, spec, "pairwise", lambda cls, k, gen: (cls + 1) % m)


def transition_counts(ds: LabeledDataset) -> np.ndarray:
    """(M, M) matrix counting samples with true class i observed as class j."""
    m = ds.num_classes
    counts = np.zeros((m, m), dtype=np.int64)
    np.add.at(counts, (ds.true_labels, ds.observed_labels), 1)
    return counts


def partition_iid(ds: LabeledDataset, num_clients: int, seed: int) -> list[ClientShard]:
    """Seeded global shuffle followed by contiguous equal slices.

    Requires the sample count to divide evenly by num_clients.
    """
    if num_clients < 1:
        raise PartitionError(f"num_clients must be positive, got {num_clients}")
    if ds.n % num_clients != 0:
        raise PartitionError(
            f"cannot split {ds.n} samples evenly across {num_clients} clients"
        )
    per = ds.n // num_clients
    perm = RngStream(seed).child("partition-iid").generator().permutation(ds.n)
    return [
        ClientShard(i, perm[i * per : (i + 1) * per]) for i in range(num_clients)
    ]


def partition_noniid(
    ds: LabeledDataset,
    num_clients: int,
    classes_per_client: int,
    seed: int,
) -> list[ClientShard]:
    """Give each client samples from a fixed set of distinct true classes.

    Class sets are chosen by a seeded greedy draw that keeps the number of
    clients holding each class balanced; each client then takes slices of
    its classes equal up to one row, so all shards have the same size.
    Samples that the arithmetic cannot place are dropped with a warning.
    Raises PartitionError with a per-class diagnostic when some class would
    need more samples than it has.
    """
    m = ds.num_classes
    if num_clients < 1:
        raise PartitionError(f"num_clients must be positive, got {num_clients}")
    if not (1 <= classes_per_client <= m):
        raise PartitionError(
            f"classes_per_client must lie in [1, {m}], got {classes_per_client}"
        )
    shard_size = ds.n // num_clients
    if shard_size < classes_per_client:
        raise PartitionError(
            f"shard size {shard_size} cannot cover {classes_per_client} classes"
        )
    if ds.n % num_clients:
        warnings.warn(
            f"dropping {ds.n % num_clients} surplus samples to keep shards equal",
            stacklevel=2,
        )
    gen = RngStream(seed).child("partition-noniid").generator()

    # Deal class slots to clients, always drawing from the classes with the
    # most slots left (seeded tie-break); this keeps the deal feasible and
    # the per-class client counts within one of each other.
    slots_left = _even_split(num_clients * classes_per_client, m, gen)
    client_classes: list[np.ndarray] = []
    for cid in range(num_clients):
        open_classes = np.flatnonzero(slots_left > 0)
        if open_classes.size < classes_per_client:
            raise PartitionError(
                f"class slots exhausted at client {cid}: "
                f"{open_classes.size} classes open, need {classes_per_client}"
            )
        keys = gen.random(open_classes.size)
        order = open_classes[np.lexsort((keys, -slots_left[open_classes]))]
        picked = np.sort(order[:classes_per_client])
        slots_left[picked] -= 1
        client_classes.append(picked)

    # Per-class take per client: base rows of every class it holds, and one
    # extra row from rem of them, placed on augmenting paths.
    base, rem = divmod(shard_size, classes_per_client)
    takes = np.zeros((num_clients, m), dtype=np.int64)
    for cid, classes in enumerate(client_classes):
        takes[cid, classes] = base

    demand = takes.sum(axis=0)
    supply = np.bincount(ds.true_labels, minlength=m)
    short = np.flatnonzero(demand > supply)
    if short.size:
        detail = ", ".join(
            f"class {c}: need {demand[c]}, have {supply[c]}" for c in short
        )
        raise PartitionError(f"infeasible class assignment ({detail})")

    def take_extra(cid: int, seen: set) -> bool:
        """Give client cid an extra row, moving other holders' extra rows on if need be."""
        for cls in client_classes[cid]:
            if takes[cid, cls] > base or cls in seen:
                continue
            seen.add(cls)
            holders = np.flatnonzero(takes[:, cls] > base)
            if holders.size == supply[cls] - demand[cls]:  # no row left
                mover = next((h for h in holders if take_extra(h, seen)), None)
                if mover is None:
                    continue
                takes[mover, cls] -= 1
            takes[cid, cls] += 1
            return True
        return False

    for cid in range(num_clients):
        if not all(take_extra(cid, set()) for _ in range(rem)):
            raise PartitionError(f"infeasible class assignment: no rows left for client {cid}")

    pools = {
        cls: iter(gen.permutation(np.flatnonzero(ds.true_labels == cls)))
        for cls in range(m)
    }
    shards = []
    for cid in range(num_clients):
        picked_rows = []
        for cls in client_classes[cid]:
            pool = pools[cls]
            picked_rows.extend(next(pool) for _ in range(takes[cid, cls]))
        shards.append(ClientShard(cid, _frozen(np.array(picked_rows, dtype=np.int64))))
    return shards
