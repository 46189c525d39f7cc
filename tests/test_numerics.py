"""Probability transforms and random-stream determinism."""

import random

import numpy as np
import pytest

from fednoise.numerics import (
    RngStream,
    generators,
    sample_mix_weight,
    sharpen,
    softmax,
    softmax_vjp,
    tempered_softmax,
)


class TestRngStream:
    def test_same_path_same_draws(self):
        a = RngStream(7).child("shuffle", 3).generator().normal(size=8)
        b = RngStream(7).child("shuffle", 3).generator().normal(size=8)
        np.testing.assert_array_equal(a, b)

    def test_different_paths_differ(self):
        a = RngStream(7).child("shuffle", 3).generator().normal(size=8)
        b = RngStream(7).child("shuffle", 4).generator().normal(size=8)
        assert not np.array_equal(a, b)

    def test_string_and_int_steps_mix(self):
        s = RngStream(0).child("client", 12, "epoch", 3)
        assert len(s.path) == 4
        # string tags hash to stable integers, so the path is reproducible
        t = RngStream(0).child("client", 12, "epoch", 3)
        assert s == t

    def test_generator_restarts_at_stream_origin(self):
        s = RngStream(11, (5,))
        first = s.generator().integers(0, 1000, size=4)
        second = s.generator().integers(0, 1000, size=4)
        np.testing.assert_array_equal(first, second)

    def test_child_does_not_mutate_parent(self):
        s = RngStream(3)
        s.child(1, 2)
        assert s.path == ()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            RngStream(0).child(-2)

    @pytest.mark.parametrize("seed", ["5", 5.7, 5.0, True, None])
    def test_non_integer_seed_rejected_on_construction(self, seed):
        # Rejected here, not later inside numpy at generator().
        with pytest.raises(TypeError, match="master_seed must be an integer"):
            RngStream(seed)

    def test_numpy_integer_seed_accepted(self):
        a = RngStream(np.int64(5)).child("x").generator().normal(size=4)
        b = RngStream(5).child("x").generator().normal(size=4)
        np.testing.assert_array_equal(a, b)

    def test_sibling_streams_statistically_independent(self):
        # correlation across many sibling draws should be tiny
        root = RngStream(123)
        a = np.concatenate([root.child(i, 0).generator().normal(size=4) for i in range(200)])
        b = np.concatenate([root.child(i, 1).generator().normal(size=4) for i in range(200)])
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.1


class TestSoftmax:
    def test_rows_sum_to_one(self):
        gen = np.random.default_rng(0)
        for _ in range(25):
            o = gen.normal(scale=5.0, size=(6, 9))
            p = softmax(o)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(p >= 0)

    def test_shift_invariance(self):
        gen = np.random.default_rng(1)
        o = gen.normal(size=(4, 5))
        np.testing.assert_allclose(softmax(o), softmax(o + 100.0), atol=1e-12)

    def test_extreme_logits_stable(self):
        p = softmax(np.array([1000.0, 0.0, -1000.0]))
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p[0], 1.0, atol=1e-12)

    def test_single_row_shape_preserved(self):
        assert softmax(np.zeros(4)).shape == (4,)
        assert softmax(np.zeros((2, 4))).shape == (2, 4)

    def test_uniform_on_equal_logits(self):
        np.testing.assert_allclose(softmax(np.full(8, 3.0)), np.full(8, 0.125), atol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            softmax(np.array([np.inf, 0.0]))


class TestTemperedSoftmax:
    def test_matches_scaled_logits(self):
        gen = np.random.default_rng(2)
        o = gen.normal(size=(3, 6))
        np.testing.assert_allclose(tempered_softmax(o, 0.5), softmax(o / 0.5), atol=1e-12)

    def test_temp_one_is_softmax(self):
        o = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(tempered_softmax(o, 1.0), softmax(o), atol=1e-15)

    def test_low_temp_peaks(self):
        o = np.array([1.0, 0.0, -1.0])
        hot = tempered_softmax(o, 0.25)
        assert hot[0] > softmax(o)[0]

    def test_bad_temperature(self):
        for t in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError):
                tempered_softmax(np.zeros(3), t)


class TestSharpen:
    def test_pinned_value(self):
        # T = 1/2 squares then renormalizes: 0.36/0.52 and 0.16/0.52
        out = sharpen(np.array([0.6, 0.4]), 0.5)
        np.testing.assert_allclose(out, [0.6923076923, 0.3076923077], atol=1e-6)

    def test_identity_at_temp_one(self):
        gen = np.random.default_rng(3)
        p = softmax(gen.normal(size=(5, 7)))
        np.testing.assert_array_equal(sharpen(p, 1.0), p)

    def test_one_hot_fixed_point(self):
        e = np.zeros(6)
        e[2] = 1.0
        for t in (0.25, 0.5, 2.0):
            np.testing.assert_allclose(sharpen(e, t), e, atol=1e-12)

    def test_uniform_fixed_point(self):
        u = np.full(5, 0.2)
        np.testing.assert_allclose(sharpen(u, 0.5), u, atol=1e-12)

    def test_preserves_argmax_and_raises_it(self):
        gen = np.random.default_rng(4)
        for _ in range(30):
            p = softmax(gen.normal(size=9))
            s = sharpen(p, 0.5)
            assert s.argmax() == p.argmax()
            assert s.max() >= p.max() - 1e-12
            np.testing.assert_allclose(s.sum(), 1.0, atol=1e-12)

    def test_matches_power_formula(self):
        gen = np.random.default_rng(5)
        p = softmax(gen.normal(size=(4, 6)))
        u = p**2.0
        np.testing.assert_allclose(sharpen(p, 0.5), u / u.sum(axis=1, keepdims=True), atol=1e-12)

    def test_negative_probs_rejected(self):
        with pytest.raises(ValueError):
            sharpen(np.array([0.5, -0.1, 0.6]), 0.5)

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            sharpen(np.full(3, 1 / 3), 0.0)


class TestMixWeight:
    def test_uniform_range_and_determinism(self):
        streams = [RngStream(9).child("client", c, 0) for c in range(3)]
        lam1 = sample_mix_weight(streams, "mixweight", 0, 0)
        lam2 = sample_mix_weight(streams, "mixweight", 0, 0)
        assert lam1.shape == (3,)
        np.testing.assert_array_equal(lam1, lam2)
        assert np.all((0.0 <= lam1) & (lam1 <= 1.0))
        for s, lam in zip(streams, lam1):
            assert lam == s.child("mixweight", 0, 0).generator().beta(1.0, 1.0)

    def test_beta_1_1_moments(self):
        root = RngStream(6)
        draws = sample_mix_weight([root.child("client", i) for i in range(4000)], "mixweight")
        # Beta(1, 1) is Uniform(0, 1): mean 1/2, var 1/12
        assert abs(draws.mean() - 0.5) < 0.02
        assert abs(draws.var() - 1.0 / 12.0) < 0.01

    def test_generator_is_not_a_stream(self):
        # The weights are drawn from stream origins; live generators are no
        # second accepted form.
        with pytest.raises(AttributeError):
            sample_mix_weight([np.random.default_rng(0)], "mixweight")


def _numpy_generator(seed, path):
    """The oracle: numpy's own SeedSequence, PCG64 and Generator."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=path)
    return np.random.Generator(np.random.PCG64(seq))


def _assert_same_generators(got, streams, steps):
    assert len(got) == len(streams)
    for gen, stream in zip(got, streams):
        want = _numpy_generator(stream.master_seed, stream.child(*steps).path)
        assert gen.bit_generator.state == want.bit_generator.state
        assert gen.random(3).tobytes() == want.random(3).tobytes()
        assert gen.integers(0, 2**63, size=2).tobytes() == want.integers(0, 2**63, size=2).tobytes()


class TestGenerators:
    """generators() against numpy's own SeedSequence derivation."""

    @staticmethod
    def _step(rnd):
        kind = rnd.randrange(4)
        if kind == 0:
            return rnd.choice(["shuffle", "augment", "mixweight", "expand", "client"])
        if kind == 1:
            return rnd.randrange(2**32)
        if kind == 2:
            return rnd.randrange(2**32, 2**96)
        return rnd.randrange(50)

    def test_matches_numpy_on_random_streams(self):
        rnd = random.Random(20260)
        for _ in range(2000):
            seed = rnd.choice([
                0, rnd.randrange(2**32), rnd.randrange(2**32, 2**64),
                rnd.randrange(2**128, 2**192),
            ])
            base = [self._step(rnd) for _ in range(rnd.randint(0, 3))]
            k = rnd.randint(1, 6)
            # One- or two-word client ids: a cohort of one kind derives its
            # streams together, a mixed one takes the fallback.
            one, two = (0, 2**32), (2**32, 2**64)
            ranges = rnd.choice([[one], [two], [one, two]])
            ids = [rnd.randrange(*rnd.choice(ranges)) for _ in range(k)]
            streams = [RngStream(seed).child(*base, c) for c in ids]
            steps = [self._step(rnd) for _ in range(rnd.randint(1, 4))]
            _assert_same_generators(generators(streams, *steps), streams, steps)

    def test_no_steps_is_each_streams_own_generator(self):
        streams = [RngStream(3), RngStream(2**130), RngStream(3).child("client", 7)]
        _assert_same_generators(generators(streams), streams, ())

    def test_mixed_word_counts_and_roots_fall_back(self, monkeypatch):
        calls = []
        original = RngStream.generator
        monkeypatch.setattr(
            RngStream, "generator", lambda self: calls.append(self) or original(self)
        )
        same = [RngStream(1).child("client", c) for c in (0, 5, 2**32 - 1)]
        _assert_same_generators(generators(same, "shuffle", 2), same, ("shuffle", 2))
        assert not calls  # one word count: derived together
        cohorts = (
            [RngStream(1).child("client", 3), RngStream(1).child("client", 2**40)],
            [RngStream(2**128).child(1), RngStream(5).child(1)],
            [RngStream(1), RngStream(1).child(4)],
        )
        for streams in cohorts:
            calls.clear()
            _assert_same_generators(generators(streams, "augment", 0), streams, ("augment", 0))
            assert len(calls) == len(streams)

    def test_empty_cohort(self):
        assert generators([], "shuffle", 0) == []

    def test_generators_are_independent_objects(self):
        streams = [RngStream(4).child("client", 1)] * 2
        a, b = generators(streams, "shuffle", 0)
        assert a is not b
        first = a.random(4)
        np.testing.assert_array_equal(b.random(4), first)

    def test_cached_pool_ignored_by_eq_hash_repr(self):
        s = RngStream(5).child("client", 1, 2)
        t = RngStream(5).child("client", 1, 2)
        generators([s], "shuffle", 0)
        assert "_pool" in vars(s) and "_pool" not in vars(t)
        assert s == t
        assert hash(s) == hash(t)
        assert repr(s) == repr(t)
        assert "_pool" not in repr(s)


class TestSoftmaxVjp:
    def test_matches_finite_differences(self):
        gen = np.random.default_rng(7)
        eps = 1e-6
        for _ in range(20):
            o = gen.normal(size=6)
            v = gen.normal(size=6)
            for temp in (1.0, 0.5, 3.0):
                q = tempered_softmax(o, temp)
                g = softmax_vjp(q, v, temp)
                fd = np.empty(6)
                for j in range(6):
                    op = o.copy()
                    om = o.copy()
                    op[j] += eps
                    om[j] -= eps
                    fd[j] = (
                        (tempered_softmax(op, temp) * v).sum()
                        - (tempered_softmax(om, temp) * v).sum()
                    ) / (2 * eps)
                np.testing.assert_allclose(g, fd, atol=1e-6)

    def test_gradient_rows_sum_to_zero(self):
        # logit gradients of any softmax functional live on the simplex tangent
        gen = np.random.default_rng(8)
        q = softmax(gen.normal(size=(5, 8)))
        g = softmax_vjp(q, gen.normal(size=(5, 8)))
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-12)
