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
    apply_batch,
    feature_jitter,
    horizontal_flip,
    random_rotation,
)
from fednoise.numerics import RngStream


def radial_image(size=15):
    """Rotation-invariant-friendly test image: value depends on radius only."""
    c = (size - 1) / 2
    yy, xx = np.mgrid[0:size, 0:size]
    r = np.sqrt((yy - c) ** 2 + (xx - c) ** 2)
    return np.exp(-0.5 * (r / 3.0) ** 2)


class ForcedAngleGen:
    """Stand-in generator returning a fixed uniform draw (selects the angle)."""

    def __init__(self, angle, lo, hi):
        self.value = angle
        self.lo = lo
        self.hi = hi

    def uniform(self, lo, hi):
        assert (lo, hi) == (self.lo, self.hi)
        return self.value


class TestRotation:
    def test_quarter_turns_near_exact_on_radial_image(self):
        # a radially symmetric image is invariant under any rotation about
        # its center; 90/180/270 hit the grid exactly up to interpolation
        img = radial_image()
        for angle in (90.0, 180.0, 270.0):
            out = random_rotation(img, 360.0, ForcedAngleGen(angle, -360.0, 360.0))
            np.testing.assert_allclose(out, img, atol=1e-6)

    def test_forward_backward_round_trip(self):
        # smooth off-center bump: rotation-sensitive, yet band-limited enough
        # that two bilinear resamplings nearly invert each other
        yy, xx = np.mgrid[0:15, 0:15]
        img = np.exp(-0.5 * (((yy - 4.0) / 2.5) ** 2 + ((xx - 9.0) / 2.5) ** 2))
        rot = random_rotation(img, 360.0, ForcedAngleGen(23.0, -360.0, 360.0))
        assert np.abs(rot - img).max() > 0.1  # the forward rotation moved mass
        back = random_rotation(rot, 360.0, ForcedAngleGen(-23.0, -360.0, 360.0))
        # interior pixels survive the round trip; borders lose mass to the
        # zero fill, so compare away from the edge
        np.testing.assert_allclose(back[4:-4, 4:-4], img[4:-4, 4:-4], atol=0.15)

    def test_zero_degrees_is_identity(self):
        img = radial_image()
        out = random_rotation(img, 0.0, RngStream(0).generator())
        np.testing.assert_array_equal(out, img)

    def test_shape_preserved_with_channels(self):
        gen = np.random.default_rng(1)
        img = gen.random((8, 8, 3))
        out = random_rotation(img, 30.0, gen)
        assert out.shape == (8, 8, 3)

    def test_angle_within_bounds(self):
        # draws stay inside [-max, +max]: rotating by at most ~0 degrees
        # cannot move mass far; compare against the worst case at 5 degrees
        img = radial_image()
        out = random_rotation(img, 5.0, RngStream(3).generator())
        assert np.abs(out - img).max() < 0.1

    def test_deterministic_under_stream(self):
        gen = np.random.default_rng(2)
        img = gen.random((10, 10))
        a = random_rotation(img, 30.0, RngStream(4).generator())
        b = random_rotation(img, 30.0, RngStream(4).generator())
        np.testing.assert_array_equal(a, b)

    def test_flat_vector_rejected(self):
        with pytest.raises(UnsupportedAugmentationError):
            random_rotation(np.zeros(10), 30.0, RngStream(0).generator())

    def test_negative_max_degrees_rejected(self):
        with pytest.raises(ValueError):
            Rotation(-1.0)


class TestHorizontalFlip:
    def test_forced_flip_is_exact_mirror(self):
        gen = np.random.default_rng(3)
        img = gen.random((6, 7))
        out = horizontal_flip(img, 1.0, RngStream(0).generator())
        np.testing.assert_array_equal(out, img[:, ::-1])

    def test_double_forced_flip_is_identity(self):
        gen = np.random.default_rng(4)
        img = gen.random((6, 7, 3))
        once = horizontal_flip(img, 1.0, RngStream(0).generator())
        twice = horizontal_flip(once, 1.0, RngStream(0).generator())
        np.testing.assert_array_equal(twice, img)

    def test_prob_zero_never_flips(self):
        gen = np.random.default_rng(5)
        img = gen.random((4, 5))
        out = horizontal_flip(img, 0.0, RngStream(1).generator())
        np.testing.assert_array_equal(out, img)

    def test_flip_rate_near_prob(self):
        img = np.arange(6.0).reshape(2, 3)
        flipped = 0
        gen = np.random.default_rng(6)
        for _ in range(400):
            out = horizontal_flip(img, 0.3, gen)
            flipped += int(not np.array_equal(out, img))
        assert abs(flipped / 400 - 0.3) < 0.07

    def test_prob_validated(self):
        with pytest.raises(ValueError):
            HorizontalFlip(1.5)


class TestFeatureJitter:
    def test_sigma_zero_identity(self):
        x = np.arange(5.0)
        np.testing.assert_array_equal(feature_jitter(x, 0.0, RngStream(0).generator()), x)

    def test_noise_statistics(self):
        x = np.zeros(20000)
        out = feature_jitter(x, 0.5, RngStream(1).generator())
        assert abs(out.mean()) < 0.02
        assert abs(out.std() - 0.5) < 0.02

    def test_same_stream_same_jitter(self):
        x = np.ones(10)
        a = feature_jitter(x, 0.3, RngStream(2).generator())
        b = feature_jitter(x, 0.3, RngStream(2).generator())
        np.testing.assert_array_equal(a, b)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            FeatureJitter(-0.1)


def test_single_ops_take_a_generator_not_a_stream():
    # apply_batch hands each op its sub-stream's Generator; an RngStream is
    # no second accepted form.
    img = np.ones((4, 4))
    for op in (
        lambda rng: random_rotation(img, 10.0, rng),
        lambda rng: horizontal_flip(img, 0.5, rng),
        lambda rng: feature_jitter(img, 0.1, rng),
    ):
        with pytest.raises(AttributeError):
            op(RngStream(0))


def one_client(policy, rows, stream, steps=(), image_shape=None):
    """apply_batch on a cohort of one client's (B, d) rows."""
    return apply_batch(policy, rows[None], [stream], steps, image_shape)[0]


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
        for k, stream in enumerate(streams):
            want = batch[k].copy()
            for i, op in enumerate(policy.ops):
                rng = stream.child(*steps, i).generator()
                if isinstance(op, FeatureJitter):
                    want = feature_jitter(want, op.sigma, rng)
                    continue
                h, w, c = image_shape
                for b in range(len(want)):
                    img = want[b].reshape(h, w, c)
                    img = img[:, :, 0] if c == 1 else img
                    if isinstance(op, Rotation):
                        img = random_rotation(img, op.max_degrees, rng)
                    else:
                        img = horizontal_flip(img, op.prob, rng)
                    want[b] = img.reshape(-1)
            assert out[k].tobytes() == want.tobytes()
        assert not np.array_equal(out[0], out[1])


# Runs in a fresh interpreter: other tests (and scikit-learn) may already
# have loaded scipy into the pytest process.
_LAZY_SCIPY_SCRIPT = textwrap.dedent("""
    import json, sys
    import fednoise

    fednoise.run_experiment(config=json.loads(sys.argv[1]))
    assert "scipy" not in sys.modules, "a tabular run loaded scipy"
    fednoise.AugmentPolicy((fednoise.Rotation(),))
    assert "scipy.ndimage" in sys.modules, "a rotating policy did not load scipy.ndimage"
""")


def test_scipy_loaded_only_when_a_policy_rotates(tmp_path):
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
        [sys.executable, "-c", _LAZY_SCIPY_SCRIPT, json.dumps(config)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
