"""Flat-vector MLP: init, forward, exact gradients, SGD."""

import numpy as np
import pytest

from fednoise.model import (
    ModelParams,
    backward,
    forward,
    forward_vjp,
    init_params,
    param_count,
    sgd_step,
)
from fednoise.losses import ce_loss
from fednoise.numerics import RngStream


def tiny_net(seed=0, sizes=(5, 7, 4, 3)):
    return init_params(list(sizes), RngStream(seed))


class TestParamCount:
    def test_reference_architecture(self):
        # 784*128+128 + 128*64+64 + 64*10+10
        assert param_count([784, 128, 64, 10]) == 109386

    def test_matches_init_size(self):
        sizes = [12, 8, 5]
        assert init_params(sizes, RngStream(0)).flat.size == param_count(sizes)

    def test_too_few_layers_rejected(self):
        with pytest.raises(ValueError):
            param_count([10, 3])

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            param_count([10, 0, 3])


class TestInit:
    def test_deterministic_per_seed(self):
        a = init_params([6, 4, 3], RngStream(42))
        b = init_params([6, 4, 3], RngStream(42))
        np.testing.assert_array_equal(a.flat, b.flat)
        c = init_params([6, 4, 3], RngStream(43))
        assert not np.array_equal(a.flat, c.flat)

    def test_stream_seed_accepted(self):
        # The stream's whole path seeds the draws; a bare int is not a stream.
        a = init_params([6, 4, 3], RngStream(42).child("init", 0))
        b = init_params([6, 4, 3], RngStream(42).child("init", 0))
        np.testing.assert_array_equal(a.flat, b.flat)
        assert not np.array_equal(a.flat, init_params([6, 4, 3], RngStream(42)).flat)
        with pytest.raises(AttributeError):
            init_params([6, 4, 3], 42)

    def test_weights_within_glorot_bound_biases_zero(self):
        sizes = [30, 20, 10]
        p = init_params(sizes, RngStream(7))
        offset = 0
        for in_dim, out_dim in p.shapes:
            limit = np.sqrt(6.0 / (in_dim + out_dim))
            w = p.flat[offset : offset + in_dim * out_dim]
            assert np.all(np.abs(w) <= limit)
            # uniform draws should actually use the range, not collapse
            assert np.abs(w).max() > 0.5 * limit
            offset += in_dim * out_dim
            b = p.flat[offset : offset + out_dim]
            np.testing.assert_array_equal(b, np.zeros(out_dim))
            offset += out_dim

    def test_shapes_chain(self):
        p = init_params([9, 5, 4, 2], RngStream(0))
        assert p.shapes == ((9, 5), (5, 4), (4, 2))
        assert p.in_dim == 9
        assert p.out_dim == 2


class TestModelParamsValidation:
    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ModelParams(np.zeros(10), ((3, 2),))

    def test_nonfinite_rejected(self):
        flat = np.zeros(8)
        flat[3] = np.nan
        with pytest.raises(ValueError):
            ModelParams(flat, ((3, 2),))

    @pytest.mark.parametrize("shapes", [(), ((-1, 2),), ((0, 3),), ((2, 3), (4, 1))],
                             ids=["no-layers", "negative-width", "zero-width", "unchained"])
    def test_layers_that_form_no_network_rejected(self, shapes):
        with pytest.raises(ValueError, match="do not chain positive widths"):
            ModelParams(np.zeros(0), shapes)

    def test_flat_is_frozen(self):
        p = tiny_net()
        with pytest.raises(ValueError):
            p.flat[0] = 99.0

    def test_cohort_is_stored_c_contiguous(self):
        # A copy in a broadcast's own stride order would be column-major,
        # and every layer view of it strided; a read-only column-major
        # array is copied, not adopted.
        p = tiny_net()
        fortran = np.asfortranarray(np.tile(p.flat, (3, 1)))
        fortran.setflags(write=False)
        for stacked in (np.broadcast_to(p.flat, (3, p.flat.size)), fortran):
            flat = ModelParams(stacked, p.shapes).flat
            assert flat.flags.c_contiguous
            np.testing.assert_array_equal(flat, np.tile(p.flat, (3, 1)))


class TestForward:
    def test_batch_and_single_shapes(self):
        p = tiny_net()
        x1 = np.ones((1, 5))
        xb = np.ones((6, 5))
        assert forward(p, x1).shape == (1, 3)
        assert forward(p, xb).shape == (6, 3)
        np.testing.assert_allclose(forward(p, xb)[:1], forward(p, x1), atol=1e-12)

    def test_manual_two_layer_computation(self):
        # W1 = identity-ish, relu, then sum; checked by hand
        flat = np.concatenate(
            [
                np.eye(2).ravel(),  # W1 (2x2)
                np.array([0.0, -1.0]),  # b1
                np.array([[1.0], [1.0]]).ravel(),  # W2 (2x1)
                np.array([0.5]),  # b2
            ]
        )
        p = ModelParams(flat, ((2, 2), (2, 1)))
        # z1 = [3, 2-1] = [3, 1]; relu same; out = 3 + 1 + 0.5
        np.testing.assert_allclose(forward(p, np.array([[3.0, 2.0]])), [[4.5]], atol=1e-12)
        # negative pre-activation is cut by relu
        # z1 = [1, -5]; relu [1, 0]; out = 1.5
        np.testing.assert_allclose(forward(p, np.array([[1.0, -4.0]])), [[1.5]], atol=1e-12)

    def test_wrong_feature_dim_rejected(self):
        with pytest.raises(ValueError, match="feature dim 4"):
            forward(tiny_net(), np.ones((2, 4)))

    def test_lone_sample_rejected_naming_the_layout(self):
        # One network takes (B, d) only; a (d,) sample has no batch axis.
        p = tiny_net()
        for call in (
            lambda: forward(p, np.ones(5)),
            lambda: forward_vjp(p, np.ones(5)),
            lambda: backward(p, np.ones(5), np.zeros(3)),
        ):
            with pytest.raises(ValueError, match=r"expects \(B, d\)"):
                call()


class TestBackward:
    def test_finite_difference_through_loss(self):
        # full-network gradient check on a small net, central differences
        gen = np.random.default_rng(0)
        p = tiny_net(seed=1)
        x = gen.normal(size=(4, 5))
        y = gen.integers(0, 3, size=4)
        out = ce_loss(forward(p, x), y)
        g = backward(p, x, out.adjoint_o1)
        eps = 1e-5
        idx = gen.choice(p.flat.size, size=25, replace=False)
        for j in idx:
            fp = p.flat.copy()
            fm = p.flat.copy()
            fp[j] += eps
            fm[j] -= eps
            lp = ce_loss(forward(ModelParams(fp, p.shapes), x), y).scalar
            lm = ce_loss(forward(ModelParams(fm, p.shapes), x), y).scalar
            np.testing.assert_allclose(g[j], (lp - lm) / (2 * eps), atol=1e-6)

    def test_linear_in_adjoint(self):
        gen = np.random.default_rng(1)
        p = tiny_net()
        x = gen.normal(size=(3, 5))
        a1 = gen.normal(size=(3, 3))
        a2 = gen.normal(size=(3, 3))
        g1 = backward(p, x, a1)
        g2 = backward(p, x, a2)
        g12 = backward(p, x, 2.0 * a1 + a2)
        np.testing.assert_allclose(g12, 2.0 * g1 + g2, atol=1e-10)

    def test_zero_adjoint_zero_gradient(self):
        p = tiny_net()
        g = backward(p, np.ones((2, 5)), np.zeros((2, 3)))
        np.testing.assert_array_equal(g, np.zeros(p.flat.size))

    def test_adjoint_shape_checked(self):
        p = tiny_net()
        with pytest.raises(ValueError):
            backward(p, np.ones((2, 5)), np.zeros((3, 3)))

    def test_gradient_is_a_read_only_float64_array_of_parameter_shape(self):
        # vjp and backward give a plain ndarray shaped like the parameters,
        # for one (P,) network on (B, d) rows and a (K, P) cohort on
        # (K, B, d) rows alike, and no caller can write into it.
        gen = np.random.default_rng(4)
        net = tiny_net()
        cohort = ModelParams(np.stack([tiny_net(0).flat, tiny_net(1).flat]), net.shapes)
        for params, lead in ((net, ()), (cohort, (2,))):
            x = gen.normal(size=(*lead, 3, 5))
            adjoint = gen.normal(size=(*lead, 3, 3))
            for g in (forward_vjp(params, x)[1](adjoint), backward(params, x, adjoint)):
                assert type(g) is np.ndarray
                assert g.dtype == np.float64 and g.shape == params.flat.shape
                assert not g.flags.writeable

    def test_vjp_writes_into_a_given_buffer(self):
        # vjp(adjoint, out=buf) fills the caller's buffer with the bits
        # vjp(adjoint) gives and returns that buffer, writeable as it was;
        # the form without out still returns a fresh read-only array.
        gen = np.random.default_rng(5)
        net = tiny_net()
        cohort = ModelParams(np.stack([tiny_net(0).flat, tiny_net(1).flat]), net.shapes)
        for params, lead in ((net, ()), (cohort, (2,))):
            x = gen.normal(size=(*lead, 3, 5))
            adjoint = gen.normal(size=(*lead, 3, 3))
            _, vjp = forward_vjp(params, x)
            buf = np.full(params.flat.shape, np.nan)
            got = vjp(adjoint, out=buf)
            fresh = vjp(adjoint)
            assert got is buf and buf.flags.writeable
            assert np.array_equal(buf, fresh)
            assert not fresh.flags.writeable
            assert fresh is not vjp(adjoint)

    def test_vjp_rejects_an_unfit_buffer(self):
        net = tiny_net()
        _, vjp = forward_vjp(net, np.ones((2, 5)))
        adjoint = np.ones((2, 3))
        size = net.flat.size
        frozen = np.zeros(size)
        frozen.setflags(write=False)
        for bad in (np.zeros(size + 1), np.zeros(size, dtype=np.float32), frozen,
                    np.zeros(2 * size)[::2], np.zeros((1, size))):
            with pytest.raises(ValueError, match="out must be"):
                vjp(adjoint, out=bad)

    def test_gradients_add(self):
        gen = np.random.default_rng(2)
        p = tiny_net()
        x = gen.normal(size=(2, 5))
        a = gen.normal(size=(2, 3))
        total = backward(p, x, a) + backward(p, x, a)
        np.testing.assert_allclose(total, 2.0 * backward(p, x, a), atol=1e-12)


class TestSgdStep:
    def test_plain_update_no_momentum(self):
        p = tiny_net()
        g = np.ones(p.flat.size)
        q = sgd_step(p, g, 0.1)
        np.testing.assert_allclose(q.flat, p.flat - 0.1, atol=1e-15)
        # repeating the same step from q moves again by the same amount
        r = sgd_step(q, g, 0.1)
        np.testing.assert_allclose(r.flat, p.flat - 0.2, atol=1e-15)

    def test_inputs_untouched(self):
        p = tiny_net()
        before = p.flat.copy()
        sgd_step(p, np.ones(p.flat.size), 0.5)
        np.testing.assert_array_equal(p.flat, before)

    def test_bad_lr_rejected(self):
        p = tiny_net()
        g = np.zeros(p.flat.size)
        with pytest.raises(ValueError):
            sgd_step(p, g, -0.1)
        with pytest.raises(ValueError):
            sgd_step(p, g, np.nan)

    def test_size_mismatch_rejected(self):
        # A gradient of another shape is refused and the parameters stay
        # as they were: a (K, P) gradient against (P,) parameters, a (P,)
        # one against a (K, P) cohort, or one of the wrong P.
        net = tiny_net()
        cohort = ModelParams(np.stack([tiny_net(0).flat, tiny_net(1).flat]), net.shapes)
        size = net.flat.size
        cases = [
            (net, np.zeros((2, size))),
            (net, np.zeros(size - 1)),
            (cohort, np.zeros(size)),
            (cohort, np.zeros((2, size + 1))),
        ]
        for params, grads in cases:
            before = params.flat.copy()
            with pytest.raises(ValueError, match="gradient shape"):
                sgd_step(params, grads, 0.1)
            np.testing.assert_array_equal(params.flat, before)


class TestCohort:
    @pytest.mark.parametrize("batch", [1, 6])
    def test_stacked_pass_and_step_equal_each_slice(self, batch):
        gen = np.random.default_rng(3)
        nets = [tiny_net(seed) for seed in range(4)]
        cohort = ModelParams(np.stack([net.flat for net in nets]), nets[0].shapes)
        x = gen.normal(size=(4, batch, 5))
        adjoint = gen.normal(size=(4, batch, 3))
        logits, vjp = forward_vjp(cohort, x)
        grads = vjp(adjoint)
        stepped = sgd_step(cohort, grads, 0.1)
        assert logits.shape == (4, batch, 3)
        assert grads.shape == stepped.flat.shape == cohort.flat.shape
        for k, net in enumerate(nets):
            alone, alone_vjp = forward_vjp(net, x[k])
            np.testing.assert_array_equal(logits[k], alone)
            g = alone_vjp(adjoint[k])
            np.testing.assert_array_equal(grads[k], g)
            np.testing.assert_array_equal(stepped.flat[k], sgd_step(net, g, 0.1).flat)

    def test_cohort_shapes_checked(self):
        cohort = ModelParams(np.stack([tiny_net(0).flat, tiny_net(1).flat]), tiny_net().shapes)
        with pytest.raises(ValueError):
            forward(cohort, np.ones((3, 5)))  # no client axis
        with pytest.raises(ValueError):
            forward(cohort, np.ones((3, 2, 5)))  # three clients for two nets
        _, vjp = forward_vjp(cohort, np.ones((2, 3, 5)))
        with pytest.raises(ValueError):
            vjp(np.ones((3, 3)))
        with pytest.raises(ValueError):
            sgd_step(cohort, np.zeros(cohort.flat.shape[1]), 0.1)

    def test_nonfinite_cohort_rejected(self):
        flat = np.stack([tiny_net(0).flat, tiny_net(1).flat])
        flat[1, 4] = np.inf
        with pytest.raises(ValueError):
            ModelParams(flat, tiny_net().shapes)
