"""Augmentation ops: rotation, flip, jitter, policy composition."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from fednoise.augment import (
    AugmentPolicy,
    FeatureJitter,
    HorizontalFlip,
    Rotation,
    UnsupportedAugmentationError,
    _cos_sin_degrees,
    _rotate,
    apply_batch,
)
from fednoise.numerics import RngStream


def radial_image(size=15):
    """Rotation-invariant-friendly test image: value depends on radius only."""
    c = (size - 1) / 2
    yy, xx = np.mgrid[0:size, 0:size]
    r = np.sqrt((yy - c) ** 2 + (xx - c) ** 2)
    return np.exp(-0.5 * (r / 3.0) ** 2)


def rotate(img, angle):
    """_rotate on one (H, W) image."""
    return _rotate(img[None, :, :, None], np.array([angle]))[0, :, :, 0]


def one_client(policy, rows, stream, steps=(), image_shape=None):
    """apply_batch on a cohort of one client's (B, d) rows."""
    return apply_batch(policy, rows[None], [stream], steps, image_shape)[0]


class TestRotation:
    def test_quarter_turns_near_exact_on_radial_image(self):
        # a radially symmetric image is invariant under any rotation about
        # its center; 90/180/270 hit the grid exactly up to interpolation
        img = radial_image()
        out = _rotate(np.stack([img[:, :, None]] * 3), np.array([90.0, 180.0, 270.0]))
        for rotated in out:
            np.testing.assert_allclose(rotated[:, :, 0], img, atol=1e-6)

    def test_forward_backward_round_trip(self):
        # smooth off-center bump: rotation-sensitive, yet band-limited enough
        # that two bilinear resamplings nearly invert each other
        yy, xx = np.mgrid[0:15, 0:15]
        img = np.exp(-0.5 * (((yy - 4.0) / 2.5) ** 2 + ((xx - 9.0) / 2.5) ** 2))
        rot = rotate(img, 23.0)
        assert np.abs(rot - img).max() > 0.1  # the forward rotation moved mass
        back = rotate(rot, -23.0)
        # interior pixels survive the round trip; borders lose mass to the
        # zero fill, so compare away from the edge
        np.testing.assert_allclose(back[4:-4, 4:-4], img[4:-4, 4:-4], atol=0.15)

    def test_each_image_turns_by_its_own_angle(self):
        img = np.random.default_rng(0).random((9, 11, 2))
        angles = np.array([23.0, -40.0, 0.0])
        out = _rotate(np.stack([img] * 3), angles)
        for rotated, angle in zip(out, angles):
            for c in range(2):
                np.testing.assert_array_equal(rotated[:, :, c], rotate(img[:, :, c], angle))

    def test_zero_degrees_is_identity(self):
        img = radial_image()
        np.testing.assert_array_equal(rotate(img, 0.0), img)
        out = one_client(
            AugmentPolicy((Rotation(0.0),)), img.reshape(1, -1), RngStream(0),
            image_shape=(15, 15, 1),
        )
        np.testing.assert_array_equal(out[0].reshape(15, 15), img)

    def test_shape_preserved_with_channels(self):
        gen = np.random.default_rng(1)
        rows = gen.random((3, 8 * 8 * 3))
        out = one_client(AugmentPolicy((Rotation(30.0),)), rows, RngStream(0),
                         image_shape=(8, 8, 3))
        assert out.shape == rows.shape
        assert not np.array_equal(out, rows)

    def test_angle_within_bounds(self):
        # draws stay inside [-max, +max]: rotating by at most ~0 degrees
        # cannot move mass far; compare against the worst case at 5 degrees
        img = radial_image()
        out = one_client(AugmentPolicy((Rotation(5.0),)), np.stack([img.ravel()] * 4),
                         RngStream(3), image_shape=(15, 15, 1))
        assert np.abs(out - img.ravel()).max() < 0.1

    def test_deterministic_under_stream(self):
        gen = np.random.default_rng(2)
        rows = gen.random((3, 100))
        policy = AugmentPolicy((Rotation(30.0),))
        a = one_client(policy, rows, RngStream(4), image_shape=(10, 10, 1))
        b = one_client(policy, rows, RngStream(4), image_shape=(10, 10, 1))
        np.testing.assert_array_equal(a, b)

    def test_image_shape_must_match_features(self):
        for op in (Rotation(30.0), HorizontalFlip(0.5)):
            with pytest.raises(ValueError):
                one_client(AugmentPolicy((op,)), np.zeros((2, 10)), RngStream(0),
                           image_shape=(4, 4, 1))

    def test_negative_max_degrees_rejected(self):
        with pytest.raises(ValueError):
            Rotation(-1.0)


class TestHorizontalFlip:
    def flip(self, rows, image_shape, *probs):
        policy = AugmentPolicy(tuple(HorizontalFlip(p) for p in probs))
        return one_client(policy, rows, RngStream(0), image_shape=image_shape)

    def test_forced_flip_is_exact_mirror(self):
        gen = np.random.default_rng(3)
        img = gen.random((6, 7))
        out = self.flip(img.reshape(1, -1), (6, 7, 1), 1.0)
        np.testing.assert_array_equal(out[0].reshape(6, 7), img[:, ::-1])

    def test_double_forced_flip_is_identity(self):
        gen = np.random.default_rng(4)
        rows = gen.random((2, 6 * 7 * 3))
        np.testing.assert_array_equal(self.flip(rows, (6, 7, 3), 1.0, 1.0), rows)

    def test_prob_zero_never_flips(self):
        gen = np.random.default_rng(5)
        rows = gen.random((5, 20))
        np.testing.assert_array_equal(self.flip(rows, (4, 5, 1), 0.0), rows)

    def test_flip_rate_near_prob(self):
        rows = np.tile(np.arange(6.0), (400, 1))
        out = one_client(AugmentPolicy((HorizontalFlip(0.3),)), rows, RngStream(6),
                         image_shape=(2, 3, 1))
        flipped = np.any(out != rows, axis=1)
        np.testing.assert_array_equal(
            out[flipped], rows[flipped].reshape(-1, 2, 3)[:, :, ::-1].reshape(-1, 6)
        )
        assert abs(flipped.mean() - 0.3) < 0.07

    def test_prob_validated(self):
        with pytest.raises(ValueError):
            HorizontalFlip(1.5)


class TestFeatureJitter:
    def jitter(self, sigma, rows, stream):
        return one_client(AugmentPolicy((FeatureJitter(sigma),)), rows, stream)

    def test_sigma_zero_identity(self):
        x = np.arange(10.0).reshape(2, 5)
        np.testing.assert_array_equal(self.jitter(0.0, x, RngStream(0)), x)

    def test_noise_statistics(self):
        out = self.jitter(0.5, np.zeros((200, 100)), RngStream(1))
        assert abs(out.mean()) < 0.02
        assert abs(out.std() - 0.5) < 0.02

    def test_same_stream_same_jitter(self):
        x = np.ones((2, 5))
        a = self.jitter(0.3, x, RngStream(2))
        b = self.jitter(0.3, x, RngStream(2))
        assert not np.array_equal(a, x)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("sigma", [0.6, 0.0, 1e-3])
    @pytest.mark.parametrize("shape", [(5, 60, 32), (3, 7, 5), (2, 1, 3)])
    def test_cohort_adds_one_normal_block_per_client(self, shape, sigma):
        # Client k's rows plus one (B, d) normal block drawn from op 0's
        # generator, added in place: the bytes of rows + noise.
        batch = np.random.default_rng(4).normal(size=shape)
        streams = [RngStream(8).child("client", k) for k in range(shape[0])]
        steps = ("augment", 2)
        out = apply_batch(AugmentPolicy((FeatureJitter(sigma),)), batch, streams, steps)
        want = np.stack([
            rows + s.child(*steps, 0).generator().normal(0.0, sigma, size=rows.shape)
            for rows, s in zip(batch, streams)
        ])
        assert out.tobytes() == want.tobytes()

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            FeatureJitter(-0.1)


class TestPolicy:
    def test_empty_policy_is_identity(self):
        x = np.arange(6.0)
        out = one_client(AugmentPolicy(), x[None], RngStream(0))[0]
        np.testing.assert_array_equal(out, x)
        assert out is not x

    def test_forced_flip_plus_zero_rotation_is_exact_mirror(self):
        gen = np.random.default_rng(7)
        img = gen.random((5, 4))
        policy = AugmentPolicy((HorizontalFlip(1.0), Rotation(0.0)))
        out = one_client(policy, img.reshape(1, -1), RngStream(0), image_shape=(5, 4, 1))[0]
        np.testing.assert_array_equal(out.reshape(5, 4), img[:, ::-1])

    def test_image_op_on_tabular_data_rejected(self):
        policy = AugmentPolicy((Rotation(30.0),))
        with pytest.raises(UnsupportedAugmentationError):
            one_client(policy, np.zeros((1, 10)), RngStream(0))
        with pytest.raises(UnsupportedAugmentationError):
            one_client(policy, np.zeros((2, 10)), RngStream(0))

    def test_needs_image_flag(self):
        assert AugmentPolicy((Rotation(10.0),)).needs_image()
        assert AugmentPolicy((HorizontalFlip(0.5),)).needs_image()
        assert not AugmentPolicy((FeatureJitter(0.1),)).needs_image()

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            AugmentPolicy(("rotate",))

    def test_deterministic_per_path(self):
        policy = AugmentPolicy((FeatureJitter(0.5),))
        x = np.ones(8)
        a = one_client(policy, x[None], RngStream(1), ("augment", 0, 0))[0]
        b = one_client(policy, x[None], RngStream(1), ("augment", 0, 0))[0]
        c = one_client(policy, x[None], RngStream(1), ("augment", 0, 1))[0]
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_ops_consume_independent_streams(self):
        # removing the first op must not change what the second op draws
        x = np.zeros(6)
        both = AugmentPolicy((FeatureJitter(1.0), FeatureJitter(1.0)))
        jitter_only = one_client(AugmentPolicy((FeatureJitter(1.0),)), x[None], RngStream(5))[0]
        combined = one_client(both, x[None], RngStream(5))[0]
        # first op's contribution equals the single-op run
        assert not np.array_equal(combined, jitter_only)


class TestApplyBatch:
    def test_rows_get_independent_draws(self):
        policy = AugmentPolicy((FeatureJitter(1.0),))
        out = one_client(policy, np.zeros((3, 5)), RngStream(0))
        assert not np.array_equal(out[0], out[1])

    def test_batch_reproducible(self):
        policy = AugmentPolicy((FeatureJitter(0.5),))
        x = np.ones((4, 6))
        a = one_client(policy, x, RngStream(3))
        b = one_client(policy, x, RngStream(3))
        np.testing.assert_array_equal(a, b)

    def test_image_ops_per_row(self):
        gen = np.random.default_rng(8)
        batch = gen.random((3, 20))
        policy = AugmentPolicy((HorizontalFlip(1.0),))
        out = one_client(policy, batch, RngStream(0), image_shape=(4, 5, 1))
        for b in range(3):
            np.testing.assert_array_equal(
                out[b].reshape(4, 5), batch[b].reshape(4, 5)[:, ::-1]
            )

    def test_empty_batch_passthrough(self):
        policy = AugmentPolicy((FeatureJitter(0.5),))
        out = one_client(policy, np.zeros((0, 4)), RngStream(0))
        assert out.shape == (0, 4)
        policy = AugmentPolicy((Rotation(30.0), HorizontalFlip(0.5)))
        out = one_client(policy, np.zeros((0, 4)), RngStream(0), image_shape=(2, 2, 1))
        assert out.shape == (0, 4)

    def test_input_never_mutated(self):
        policy = AugmentPolicy((FeatureJitter(1.0),))
        x = np.ones((2, 2, 3))
        before = x.copy()
        apply_batch(policy, x, [RngStream(0), RngStream(1)], ())
        np.testing.assert_array_equal(x, before)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match=r"\(K, B, d\)"):
            apply_batch(AugmentPolicy(), np.zeros((2, 4)), [RngStream(0)] * 2, ())
        with pytest.raises(ValueError, match=r"\(K, B, d\)"):
            apply_batch(AugmentPolicy(), np.zeros((1, 2, 2, 2)), [RngStream(0)], ())
        with pytest.raises(ValueError, match="streams"):
            apply_batch(AugmentPolicy(), np.zeros((2, 2, 2)), [RngStream(0)], ())

    @pytest.mark.parametrize(
        "policy, image_shape",
        [
            (AugmentPolicy((FeatureJitter(0.4),)), None),
            (AugmentPolicy((Rotation(25.0),)), (4, 5, 1)),
            (AugmentPolicy((HorizontalFlip(0.5),)), (4, 5, 1)),
            (AugmentPolicy((HorizontalFlip(0.5), Rotation(25.0), FeatureJitter(0.4))), (2, 5, 2)),
        ],
        ids=["jitter", "rotation", "flip", "all_three"],
    )
    def test_cohort_rows_match_each_clients_own_streams(self, policy, image_shape):
        # Client k's rows are the ops applied in turn with op i's generator
        # from streams[k].child(*steps, i), as if that client ran alone.
        gen = np.random.default_rng(9)
        batch = gen.random((4, 6, 20))
        streams = [RngStream(12).child("client", c, 3) for c in (0, 7, 2, 9)]
        steps = ("augment", 1, 2)
        out = apply_batch(policy, batch, streams, steps, image_shape)
        want = per_row_reference(policy, batch, streams, steps, image_shape)
        assert out.tobytes() == want.tobytes()
        assert not np.array_equal(out[0], out[1])


def per_row_reference(policy, batch, streams, steps, image_shape):
    """The policy one row at a time, each image rotated by scipy.ndimage.rotate.

    Each row draws its own scalar angle or flip uniform, in row order, from
    the op's generator, as apply_batch did before it worked on whole batches.
    """
    out = batch.copy()
    for rows, stream in zip(out, streams):
        for i, op in enumerate(policy.ops):
            rng = stream.child(*steps, i).generator()
            if isinstance(op, FeatureJitter):
                rows[:] = rows + rng.normal(0.0, op.sigma, size=rows.shape)
                continue
            ndimage = pytest.importorskip("scipy.ndimage")
            for row in rows:
                img = row.reshape(image_shape)
                img = img[:, :, 0] if image_shape[2] == 1 else img
                if isinstance(op, Rotation) and op.max_degrees:
                    angle = rng.uniform(-op.max_degrees, op.max_degrees)
                    img = ndimage.rotate(
                        img, angle, axes=(1, 0), reshape=False, order=1, mode="constant"
                    )
                elif isinstance(op, HorizontalFlip) and rng.random() < op.prob:
                    img = img[:, ::-1]
                row[:] = img.reshape(-1)
    return out


class TestScipyReference:
    """The batch rotation and flip give scipy's per-image output bit for bit."""

    @pytest.mark.parametrize("prob", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("max_degrees", [0.0, 30.0, 90.0, 720.0])
    @pytest.mark.parametrize("image_shape", [(16, 16, 1), (15, 17, 1), (9, 32, 3), (1, 5, 1)])
    def test_apply_batch_matches_per_row_scipy(self, image_shape, max_degrees, prob):
        gen = np.random.default_rng(10)
        batch = gen.standard_normal((3, 7, int(np.prod(image_shape))))
        streams = [RngStream(13).child("client", c) for c in (4, 1, 8)]
        steps = ("augment", 0, 3)
        for policy in (
            AugmentPolicy((Rotation(max_degrees), HorizontalFlip(prob))),
            AugmentPolicy((HorizontalFlip(prob), Rotation(max_degrees))),
        ):
            out = apply_batch(policy, batch, streams, steps, image_shape)
            want = per_row_reference(policy, batch, streams, steps, image_shape)
            assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("pixels", ["normal", "signed_zeros", "non_finite"])
    @pytest.mark.parametrize("image_shape", [(15, 17, 1), (9, 32, 3), (2, 2, 1)])
    def test_rotate_matches_scipy_on_grid_angles(self, image_shape, pixels):
        # multiples of 15 degrees put coordinates exactly on pixels, on the
        # last pixel and on the image edge, where the inside test and the
        # zero-weight taps decide the result: a -0.0 or negative pixel times
        # a zero weight is -0.0, which only a sum started at 0.0 turns into
        # +0.0, and an inf or nan pixel shows which pixel a zero-weight
        # tap reads
        ndimage = pytest.importorskip("scipy.ndimage")
        angles = np.concatenate([np.arange(-720.0, 721.0, 15.0), [0.0, -0.0, 1e-12, -1e-12]])
        gen = np.random.default_rng(11)
        images = gen.standard_normal((len(angles),) + image_shape)
        if pixels == "signed_zeros":
            images = -np.abs(images)
            images[gen.random(images.shape) < 0.3] = -0.0
        elif pixels == "non_finite":
            images[gen.random(images.shape) < 0.02] = np.inf
            images[gen.random(images.shape) < 0.02] = np.nan
        with np.errstate(invalid="ignore"):
            out = _rotate(images, angles)
        for img, angle, got in zip(images, angles, out):
            want = ndimage.rotate(img, angle, axes=(1, 0), reshape=False, order=1, mode="constant")
            assert got.tobytes() == want.tobytes(), angle

    def test_degree_trig_matches_cephes(self):
        special = pytest.importorskip("scipy.special")
        gen = np.random.default_rng(12)
        angles = np.concatenate([
            [0.0, -0.0, 1e-12, -1e-12],
            np.arange(-720.0, 721.0, 15.0),
            gen.uniform(-720.0, 720.0, 20000),
            gen.uniform(-1.0, 1.0, 1000),
            gen.uniform(-1e6, 1e6, 1000),
        ])
        cos, sin = _cos_sin_degrees(angles)
        assert cos.tobytes() == special.cosdg(angles).tobytes()
        assert sin.tobytes() == special.sindg(angles).tobytes()


# Runs in a fresh interpreter: other tests (and scikit-learn) may already
# have loaded scipy into the pytest process.
_NO_SCIPY_SCRIPT = textwrap.dedent("""
    import json, sys
    import numpy as np
    import fednoise

    fednoise.run_experiment(config=json.loads(sys.argv[1]))
    policy = fednoise.AugmentPolicy((fednoise.Rotation(), fednoise.HorizontalFlip()))
    streams = [fednoise.RngStream(0).child("client", c) for c in range(3)]
    images = np.random.default_rng(0).random((3, 4, 8 * 8 * 3))
    out = fednoise.apply_batch(policy, images, streams, ("augment", 0, 0), (8, 8, 3))
    assert not np.array_equal(out, images)
    assert "scipy" not in sys.modules, "a run loaded scipy"
""")


def test_no_run_loads_scipy(tmp_path):
    config = {
        "seed": 0,
        "out": str(tmp_path / "run"),
        "dataset": {"n_train": 60, "n_test": 20, "num_classes": 3, "dim": 4},
        "federation": {"num_clients": 3, "clients_per_round": 2, "rounds": 2,
                       "local_epochs": 1, "batch_size": 10, "method": "lsr",
                       "hidden_layers": [5]},
    }
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(config)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
