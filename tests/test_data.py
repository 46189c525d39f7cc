"""Dataset loaders, synthetic generator, noise injection, partitions."""

import hashlib
import itertools
import struct

import numpy as np
import pytest

from fednoise.data import (
    ClientShard,
    DataError,
    FormatError,
    LabeledDataset,
    NoiseSpec,
    PartitionError,
    generate_synthetic,
    inject_pairwise_noise,
    inject_symmetric_noise,
    load_csv,
    load_idx,
    partition_iid,
    partition_noniid,
    subset,
    transition_counts,
)


def write_idx_pair(tmp_path, images, labels):
    """Write an images/labels IDX pair from a uint8 (n, r, c) array."""
    n, r, c = images.shape
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x803, n, r, c) + images.tobytes())
    lab_path.write_bytes(struct.pack(">II", 0x801, n) + labels.astype(np.uint8).tobytes())
    return str(img_path), str(lab_path)


class TestLabeledDataset:
    def test_validation(self):
        with pytest.raises(DataError):
            LabeledDataset(np.zeros((2, 3, 1)), np.zeros(2, int), np.zeros(2, int), 2)
        with pytest.raises(DataError):
            LabeledDataset(np.full((2, 3), np.nan), np.zeros(2, int), np.zeros(2, int), 2)
        with pytest.raises(DataError):
            LabeledDataset(np.zeros((2, 3)), np.array([0, 5]), np.zeros(2, int), 2)
        with pytest.raises(DataError):
            LabeledDataset(np.zeros((2, 4)), np.zeros(2, int), np.zeros(2, int), 2,
                           image_shape=(2, 3, 1))

    def test_arrays_frozen(self):
        ds = generate_synthetic(20, 4, 6, 0)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            ds.observed_labels[0] = 1

    def test_caller_arrays_stay_writeable(self):
        feats, labels = np.zeros((4, 3)), np.arange(4) % 2
        LabeledDataset(feats, labels, labels, 2)
        feats[0, 0] = 1.0
        labels[0] = 1
        indices = np.arange(4)
        ClientShard(0, indices)
        indices[0] = 9

    def test_view_base_cannot_change_the_dataset(self):
        base = np.zeros((4, 3))
        labels = np.arange(4) % 2
        ds = LabeledDataset(base[:, :], labels[:], labels.copy(), 2)
        base[0, 0] = 5.0
        labels[0] = 1
        assert ds.features[0, 0] == 0.0
        assert ds.true_labels[0] == 0

    def test_properties(self):
        ds = generate_synthetic(20, 4, 6, 0)
        assert ds.n == 20
        assert ds.feature_dim == 6
        assert ds.image_shape is None


class TestGenerateSynthetic:
    def test_deterministic_per_seed(self):
        a = generate_synthetic(100, 10, 8, 3)
        b = generate_synthetic(100, 10, 8, 3)
        np.testing.assert_array_equal(a.features, b.features)
        c = generate_synthetic(100, 10, 8, 4)
        assert not np.array_equal(a.features, c.features)

    def test_balanced_round_robin_labels(self):
        ds = generate_synthetic(50, 5, 4, 0)
        np.testing.assert_array_equal(ds.true_labels, np.arange(50) % 5)
        np.testing.assert_array_equal(ds.observed_labels, ds.true_labels)
        counts = np.bincount(ds.true_labels)
        np.testing.assert_array_equal(counts, np.full(5, 10))

    def test_class_centers_on_unit_sphere(self):
        # class means estimated from many draws must sit near radius 1
        ds = generate_synthetic(20000, 10, 16, 1)
        for cls in range(10):
            mean = ds.features[ds.true_labels == cls].mean(axis=0)
            np.testing.assert_allclose(np.linalg.norm(mean), 1.0, atol=0.05)

    def test_within_class_spread(self):
        ds = generate_synthetic(20000, 10, 16, 2)
        for cls in range(0, 10, 3):
            block = ds.features[ds.true_labels == cls]
            sd = (block - block.mean(axis=0)).std()
            np.testing.assert_allclose(sd, 0.25, atol=0.01)

    def test_paired_centers_closer_than_cross_pairs(self):
        ds = generate_synthetic(30000, 6, 12, 5)
        means = np.stack([ds.features[ds.true_labels == c].mean(axis=0) for c in range(6)])
        within = [np.linalg.norm(means[2 * i] - means[2 * i + 1]) for i in range(3)]
        cross = [
            np.linalg.norm(means[i] - means[j])
            for i in range(6)
            for j in range(i + 1, 6)
            if j != i + 1 or i % 2 == 1
        ]
        assert max(within) < min(cross)
        # construction targets chord 0.8 before the final renormalization
        np.testing.assert_allclose(within, 0.743, atol=0.05)

    def test_odd_class_count_supported(self):
        ds = generate_synthetic(70, 7, 9, 0)
        assert np.bincount(ds.true_labels).tolist() == [10] * 7

    def test_linear_probe_clears_90_percent(self):
        # independent oracle: multinomial logistic regression on clean labels
        sklearn = pytest.importorskip("sklearn.linear_model")
        ds = generate_synthetic(10000, 10, 32, 1)
        clf = sklearn.LogisticRegression(max_iter=1000)
        clf.fit(ds.features, ds.true_labels)
        assert clf.score(ds.features, ds.true_labels) > 0.90

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            generate_synthetic(100, 1, 8, 0)
        with pytest.raises(ValueError):
            generate_synthetic(3, 5, 8, 0)
        with pytest.raises(ValueError):
            generate_synthetic(100, 5, 1, 0)
        with pytest.raises(TypeError):
            generate_synthetic(100, 5, 8, seed=2.5)


class TestSubset:
    def test_preserves_order_and_noise(self):
        ds = generate_synthetic(100, 10, 8, 0)
        noisy = inject_symmetric_noise(ds, NoiseSpec("symmetric", 0.4, seed=0))
        idx = np.array([7, 3, 50])
        sub = subset(noisy, idx)
        np.testing.assert_array_equal(sub.features, noisy.features[idx])
        np.testing.assert_array_equal(sub.observed_labels, noisy.observed_labels[idx])
        np.testing.assert_array_equal(sub.true_labels, noisy.true_labels[idx])

    def test_prefix_suffix_stay_balanced(self):
        ds = generate_synthetic(120, 10, 8, 0)
        head = subset(ds, np.arange(100))
        tail = subset(ds, np.arange(100, 120))
        assert np.bincount(head.true_labels).tolist() == [10] * 10
        assert np.bincount(tail.true_labels).tolist() == [2] * 10


class TestSymmetricNoise:
    def test_exact_transition_counts(self):
        # M=10, ratio 0.4, 1000 per class: 600 stay, 44 or 45 per wrong class
        ds = generate_synthetic(10000, 10, 8, 1)
        noisy = inject_symmetric_noise(ds, NoiseSpec("symmetric", 0.4, seed=1))
        t = transition_counts(noisy)
        np.testing.assert_array_equal(np.diag(t), np.full(10, 600))
        off = t[~np.eye(10, dtype=bool)].reshape(10, 9)
        np.testing.assert_array_equal(off.sum(axis=1), np.full(10, 400))
        assert set(np.unique(off)) == {44, 45}
        # 400 = 44 * 9 + 4, so exactly four buckets get the extra flip
        np.testing.assert_array_equal((off == 45).sum(axis=1), np.full(10, 4))

    def test_rows_preserve_class_totals(self):
        ds = generate_synthetic(5000, 10, 8, 2)
        noisy = inject_symmetric_noise(ds, NoiseSpec("symmetric", 0.3, seed=2))
        t = transition_counts(noisy)
        np.testing.assert_array_equal(t.sum(axis=1), np.bincount(ds.true_labels))

    def test_true_labels_untouched(self):
        ds = generate_synthetic(1000, 10, 8, 0)
        noisy = inject_symmetric_noise(ds, NoiseSpec("symmetric", 0.5, seed=0))
        np.testing.assert_array_equal(noisy.true_labels, ds.true_labels)
        assert not np.array_equal(noisy.observed_labels, ds.observed_labels)

    def test_deterministic_per_seed(self):
        ds = generate_synthetic(1000, 10, 8, 0)
        a = inject_symmetric_noise(ds, NoiseSpec("symmetric", 0.4, seed=7))
        b = inject_symmetric_noise(ds, NoiseSpec("symmetric", 0.4, seed=7))
        np.testing.assert_array_equal(a.observed_labels, b.observed_labels)
        c = inject_symmetric_noise(ds, NoiseSpec("symmetric", 0.4, seed=8))
        assert not np.array_equal(a.observed_labels, c.observed_labels)

    def test_zero_ratio_is_identity(self):
        ds = generate_synthetic(100, 10, 8, 0)
        assert inject_symmetric_noise(ds, NoiseSpec("symmetric", 0.0)) is ds

    def test_kind_mismatch_rejected(self):
        ds = generate_synthetic(100, 10, 8, 0)
        with pytest.raises(ValueError):
            inject_symmetric_noise(ds, NoiseSpec("pairwise", 0.4))


class TestPairwiseNoise:
    def test_exact_superdiagonal(self):
        ds = generate_synthetic(10000, 10, 8, 1)
        noisy = inject_pairwise_noise(ds, NoiseSpec("pairwise", 0.4, seed=1))
        t = transition_counts(noisy)
        expect = np.zeros((10, 10), dtype=np.int64)
        for c in range(10):
            expect[c, c] = 600
            expect[c, (c + 1) % 10] = 400
        np.testing.assert_array_equal(t, expect)

    def test_wraparound_last_class(self):
        ds = generate_synthetic(300, 3, 4, 0)
        noisy = inject_pairwise_noise(ds, NoiseSpec("pairwise", 0.2, seed=0))
        t = transition_counts(noisy)
        assert t[2, 0] == 20

    def test_ratio_above_half_warns(self):
        with pytest.warns(UserWarning):
            NoiseSpec("pairwise", 0.6)

    def test_kind_mismatch_rejected(self):
        ds = generate_synthetic(100, 10, 8, 0)
        with pytest.raises(ValueError):
            inject_pairwise_noise(ds, NoiseSpec("symmetric", 0.4))


class TestNoiseSpecValidation:
    def test_kind_and_ratio(self):
        with pytest.raises(ValueError):
            NoiseSpec("gaussian", 0.1)
        with pytest.raises(ValueError):
            NoiseSpec("symmetric", 1.0)
        with pytest.raises(ValueError):
            NoiseSpec("symmetric", -0.1)


# The int fields of the data records refuse a bool or a non-integer by name
# and take a numpy integer.
INT_FIELDS = {
    "num_classes": lambda v: LabeledDataset(np.zeros((2, 3)), [0, 1], [0, 1], v),
    "client_id": lambda v: ClientShard(v, [0, 1]),
    "seed": lambda v: NoiseSpec(seed=v),
}


@pytest.mark.parametrize("name", INT_FIELDS)
def test_int_fields_take_integers_only(name):
    make = INT_FIELDS[name]
    for value in (2.0, 2.5, True):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            make(value)
    assert getattr(make(np.int64(3)), name) == 3


class TestTransitionCounts:
    def test_clean_data_is_diagonal(self):
        ds = generate_synthetic(500, 5, 4, 0)
        t = transition_counts(ds)
        np.testing.assert_array_equal(t, np.diag(np.full(5, 100)))


class TestPartitionIid:
    def test_disjoint_cover_equal_sizes(self):
        ds = generate_synthetic(1000, 10, 8, 0)
        shards = partition_iid(ds, 100, seed=3)
        assert len(shards) == 100
        sizes = {s.n_k for s in shards}
        assert sizes == {10}
        union = np.concatenate([s.indices for s in shards])
        np.testing.assert_array_equal(np.sort(union), np.arange(1000))

    def test_deterministic(self):
        ds = generate_synthetic(200, 10, 8, 0)
        a = partition_iid(ds, 20, seed=5)
        b = partition_iid(ds, 20, seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.indices, y.indices)

    def test_uneven_split_uses_every_row(self):
        ds = generate_synthetic(100, 10, 8, 0)
        shards = partition_iid(ds, 7, seed=0)
        assert [s.n_k for s in shards] == [15, 15] + [14] * 5
        union = np.concatenate([s.indices for s in shards])
        np.testing.assert_array_equal(np.sort(union), np.arange(100))

    def test_client_count_outside_one_to_n_rejected(self):
        ds = generate_synthetic(20, 4, 8, 0)
        assert len(partition_iid(ds, 20, seed=0)) == 20
        for clients in (0, 21):
            with pytest.raises(PartitionError, match=r"\[1, 20\]"):
                partition_iid(ds, clients, seed=0)

    def test_client_ids_sequential(self):
        ds = generate_synthetic(100, 10, 8, 0)
        shards = partition_iid(ds, 10, seed=0)
        assert [s.client_id for s in shards] == list(range(10))


class TestPartitionNoniid:
    def test_each_client_sees_exactly_q_classes(self):
        ds = generate_synthetic(1000, 10, 8, 0)
        shards = partition_noniid(ds, 50, 2, seed=1)
        assert len(shards) == 50
        for s in shards:
            classes = np.unique(ds.true_labels[s.indices])
            assert classes.size == 2
            assert s.n_k == 20

    def test_disjoint_indices(self):
        ds = generate_synthetic(1000, 10, 8, 0)
        shards = partition_noniid(ds, 50, 2, seed=1)
        union = np.concatenate([s.indices for s in shards])
        assert np.unique(union).size == union.size

    def test_deterministic(self):
        ds = generate_synthetic(1000, 10, 8, 0)
        a = partition_noniid(ds, 50, 2, seed=9)
        b = partition_noniid(ds, 50, 2, seed=9)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.indices, y.indices)

    def test_impossible_demand_raises_with_diagnostic(self):
        # one giant class and nine tiny ones cannot satisfy a balanced deal
        feats = np.zeros((1000, 4))
        labels = np.concatenate([np.zeros(991, int), np.arange(1, 10)])
        ds = LabeledDataset(feats, labels, labels.copy(), 10)
        with pytest.raises(PartitionError, match="class"):
            partition_noniid(ds, 100, 2, seed=0)

    def test_balanced_requests_with_a_remainder(self):
        # The grid's requests split evenly across clients and class slots,
        # but classes_per_client does not divide the shard size. Every one
        # is accepted: each client holds q classes, no row of a held class
        # is dropped, and each class is cut among its holders into slices
        # within one row of each other.
        requests = 0
        for n, m in itertools.product((60, 97, 120, 200, 333), range(2, 8)):
            ds = generate_synthetic(n, m, 4, seed=3)
            for clients, q in itertools.product(range(2, 11), range(1, m + 1)):
                shard = n // clients
                if n % clients or clients * q % m or shard % q == 0 or shard < q:
                    continue
                requests += 1
                shards = partition_noniid(ds, clients, q, seed=7)
                union = np.concatenate([s.indices for s in shards])
                assert np.unique(union).size == union.size
                held = np.unique(ds.true_labels[union])
                assert union.size == np.isin(ds.true_labels, held).sum()
                slices = np.array([
                    np.bincount(ds.true_labels[s.indices], minlength=m) for s in shards
                ])
                assert ((slices > 0).sum(axis=1) == q).all()
                for cls in held:
                    cut = slices[slices[:, cls] > 0, cls]
                    assert cut.max() - cut.min() <= 1
        assert requests == 84

    def test_mnist_class_counts_use_every_row(self):
        # MNIST's training class counts: seven classes hold fewer than the
        # 6000 rows that 100 equal shards of two equal class slices need.
        counts = [5923, 6742, 5958, 6131, 5842, 5421, 5918, 6265, 5851, 5949]
        labels = np.repeat(np.arange(10), counts)
        ds = LabeledDataset(np.zeros((labels.size, 1)), labels, labels, 10)
        shards = partition_noniid(ds, 100, 2, seed=0)
        union = np.concatenate([s.indices for s in shards])
        np.testing.assert_array_equal(np.sort(union), np.arange(60000))
        assert {np.unique(labels[s.indices]).size for s in shards} == {2}
        sizes = [s.n_k for s in shards]
        assert (min(sizes), max(sizes)) == (563, 651)

    def test_class_with_fewer_rows_than_holders_is_named(self):
        labels = np.array([0] * 10 + [1] * 3)
        ds = LabeledDataset(np.zeros((13, 2)), labels, labels, 2)
        with pytest.raises(PartitionError, match="class 1 has 3 rows for 4 clients"):
            partition_noniid(ds, 4, 2, seed=0)

    def test_argument_validation(self):
        ds = generate_synthetic(100, 10, 8, 0)
        with pytest.raises(PartitionError):
            partition_noniid(ds, 100, 0, seed=0)
        with pytest.raises(PartitionError):
            partition_noniid(ds, 100, 11, seed=0)


def draws_digest(arrays) -> str:
    """First 16 hex digits of a SHA-256 over int64 arrays and their lengths."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype="<i8")
        h.update(len(a).to_bytes(8, "little"))
        h.update(a.tobytes())
    return h.hexdigest()[:16]


class TestPinnedDraws:
    """Exact seeded draws of the noise injectors and partitioners.

    The digests pin the order of the draws: drawing the same numbers in
    another order changes them even when every count stays the same.
    """

    DS = generate_synthetic(200, 5, 4, seed=3)
    # The benchmark's gated workloads partition the first 10000 rows of
    # this dataset across 100 clients with seed 0.
    GATED = subset(generate_synthetic(12000, 10, 32, 0), np.arange(10000))

    def test_symmetric_noise(self):
        noisy = inject_symmetric_noise(self.DS, NoiseSpec("symmetric", 0.35, seed=5))
        assert draws_digest([noisy.observed_labels]) == "016a48152d0b06f1"

    def test_pairwise_noise(self):
        noisy = inject_pairwise_noise(self.DS, NoiseSpec("pairwise", 0.35, seed=5))
        assert draws_digest([noisy.observed_labels]) == "2e4528c3c1e2d3e1"

    def test_iid_partition(self):
        shards = partition_iid(self.DS, 10, seed=6)
        assert draws_digest([s.indices for s in shards]) == "4642a78674bcdd6f"

    def test_noniid_partition(self):
        shards = partition_noniid(self.DS, 10, 2, seed=7)
        assert draws_digest([s.indices for s in shards]) == "b7747e7925e4a54c"

    def test_gated_noniid_partition(self):
        shards = partition_noniid(self.GATED, 100, 2, seed=0)
        assert draws_digest([s.indices for s in shards]) == "c0de0d7b086ba6ca"

    def test_gated_iid_partition(self):
        shards = partition_iid(self.GATED, 100, seed=0)
        assert draws_digest([s.indices for s in shards]) == "509bd83293bb9345"


class TestClientShard:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(PartitionError):
            ClientShard(0, np.array([1, 1, 2]))


class TestLoadIdx:
    def test_round_trip(self, tmp_path):
        gen = np.random.default_rng(0)
        images = gen.integers(0, 256, size=(6, 4, 3), dtype=np.uint8)
        labels = np.array([0, 1, 2, 0, 1, 2], dtype=np.uint8)
        ds = load_idx(*write_idx_pair(tmp_path, images, labels))
        assert ds.n == 6
        assert ds.image_shape == (4, 3, 1)
        assert ds.num_classes == 3
        np.testing.assert_allclose(
            ds.features, images.reshape(6, 12).astype(np.float64) / 255.0, atol=1e-15
        )
        np.testing.assert_array_equal(ds.true_labels, labels)

    def test_pixels_scaled_to_unit_interval(self, tmp_path):
        images = np.full((2, 2, 2), 255, dtype=np.uint8)
        ds = load_idx(*write_idx_pair(tmp_path, images, np.zeros(2, np.uint8)))
        assert ds.features.max() == 1.0

    def test_explicit_num_classes(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        ds = load_idx(*write_idx_pair(tmp_path, images, np.zeros(2, np.uint8)), num_classes=10)
        assert ds.num_classes == 10

    def test_bad_image_magic(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), np.zeros(1, np.uint8))
        blob = bytearray(open(img, "rb").read())
        blob[3] = 0x99
        open(img, "wb").write(bytes(blob))
        with pytest.raises(FormatError, match="magic") as err:
            load_idx(img, lab)
        assert str(err.value).startswith(img)

    def test_truncated_payload(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), np.zeros(2, np.uint8))
        blob = open(img, "rb").read()
        open(img, "wb").write(blob[:-3])
        with pytest.raises(FormatError, match="payload") as err:
            load_idx(img, lab)
        assert str(err.value).startswith(img)

    # The image-side magic and payload cases are the two tests above.
    @pytest.mark.parametrize("which, damage, match", [
        ("labels", "magic", "bad magic 0x00000899"),
        ("images", "header", "truncated IDX image header"),
        ("labels", "header", "truncated IDX label header"),
        ("labels", "payload", "payload holds 1 labels, header promises 2"),
    ])
    def test_corrupt_file_is_named(self, tmp_path, which, damage, match):
        paths = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), np.zeros(2, np.uint8))
        path = paths[0] if which == "images" else paths[1]
        blob = bytearray(open(path, "rb").read())
        if damage == "magic":
            blob[3] = 0x99
        elif damage == "header":
            blob = blob[:7]
        else:
            blob = blob[:-1]
        open(path, "wb").write(bytes(blob))
        with pytest.raises(FormatError, match=match) as err:
            load_idx(*paths)
        assert str(err.value).startswith(path)

    def test_label_beyond_num_classes_names_the_file(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), np.array([0, 4]))
        with pytest.raises(DataError, match="label 4 out of range for 4 classes") as err:
            load_idx(img, lab, num_classes=4)
        assert str(err.value).startswith(lab)

    def test_count_mismatch(self, tmp_path):
        img, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), np.zeros(2, np.uint8))
        lab = tmp_path / "short.idx"
        lab.write_bytes(struct.pack(">II", 0x801, 1) + b"\x00")
        with pytest.raises(FormatError, match="mismatch"):
            load_idx(img, str(lab))


class TestLoadCsv:
    def test_round_trip_with_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("label,f1,f2\n0,0.5,1.5\n2,-1.0,2.0\n")
        ds = load_csv(str(path))
        assert ds.n == 2
        assert ds.num_classes == 3
        np.testing.assert_allclose(ds.features, [[0.5, 1.5], [-1.0, 2.0]], atol=1e-15)
        np.testing.assert_array_equal(ds.true_labels, [0, 2])

    def test_no_header_accepted(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,0.25\n0,0.75\n")
        ds = load_csv(str(path))
        assert ds.n == 2

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(FormatError):
            load_csv(str(path))

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0,2.0\n1,3.0\n")
        with pytest.raises(FormatError, match="row 2"):
            load_csv(str(path))

    def test_non_numeric_feature_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1.0\n1,abc\n")
        with pytest.raises(FormatError, match="non-numeric"):
            load_csv(str(path))

    def test_fractional_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        # Non-finite labels and ones past int64 are rejected like fractions.
        for label in ("0.5", "nan", "inf", "-inf", "1e30", "9.3e18"):
            path.write_text(f"0,2.0\n{label},1.0\n")
            with pytest.raises(DataError, match="integer") as err:
                load_csv(str(path))
            assert str(err.value).startswith(f"{path}: row 2 label {label} ")

    def test_negative_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("-1,1.0\n")
        with pytest.raises(DataError, match="negative"):
            load_csv(str(path))

    def test_label_out_of_declared_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("5,1.0\n")
        with pytest.raises(DataError, match="range"):
            load_csv(str(path), num_classes=3)
