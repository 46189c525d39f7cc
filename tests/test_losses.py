"""Loss values and exact adjoints, checked against finite differences."""

import re
import warnings

import numpy as np
import pytest

from fednoise import losses, numerics
from fednoise.federation import gamma_schedule
from fednoise.losses import (
    LossOutput,
    LsrHyperParams,
    SymCeParams,
    ce_loss,
    ce_per_sample,
    lsr_cls_loss,
    lsr_plus_loss,
    lsr_total_loss,
    self_distill_loss,
    sharpened_ce_loss,
    sharpened_ce_per_sample,
    small_loss_select,
    symce_lsr_loss,
    symmetric_ce_loss,
)
from fednoise.numerics import sharpen, softmax, tempered_softmax


def fd_grad(fn, o, eps=1e-6):
    """Central finite differences of a scalar function at a logits array."""
    g = np.zeros_like(o)
    it = np.nditer(o, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        op = o.copy()
        om = o.copy()
        op[idx] += eps
        om[idx] -= eps
        g[idx] = (fn(op) - fn(om)) / (2 * eps)
    return g


class TestCeLoss:
    def test_uniform_logits_give_log_m(self):
        for m in (2, 5, 10):
            out = ce_loss(np.zeros((3, m)), np.array([0, 1, m - 1]))
            np.testing.assert_allclose(out.scalar, np.log(m), atol=1e-12)

    def test_per_sample_matches_mean(self):
        gen = np.random.default_rng(0)
        o = gen.normal(size=(6, 4))
        y = gen.integers(0, 4, size=6)
        np.testing.assert_allclose(ce_per_sample(o, y).mean(), ce_loss(o, y).scalar, atol=1e-12)

    def test_closed_form_adjoint(self):
        gen = np.random.default_rng(1)
        o = gen.normal(size=(5, 7))
        y = gen.integers(0, 7, size=5)
        out = ce_loss(o, y)
        expect = softmax(o)
        expect[np.arange(5), y] -= 1.0
        expect /= 5
        np.testing.assert_allclose(out.adjoint_o1, expect, atol=1e-12)
        np.testing.assert_array_equal(out.adjoint_o2, np.zeros_like(o))

    def test_adjoint_matches_fd(self):
        gen = np.random.default_rng(2)
        for _ in range(10):
            o = gen.normal(scale=2.0, size=(4, 5))
            y = gen.integers(0, 5, size=4)
            fd = fd_grad(lambda q: ce_loss(q, y).scalar, o)
            np.testing.assert_allclose(ce_loss(o, y).adjoint_o1, fd, atol=1e-7)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            ce_loss(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(ValueError):
            ce_loss(np.zeros((2, 3)), np.array([-1, 0]))
        with pytest.raises(ValueError):
            ce_loss(np.zeros((2, 3)), np.array([0.5, 1.5]))
        with pytest.raises(ValueError):
            ce_loss(np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_lone_row_rejected_naming_the_layout(self):
        # Logits always carry a batch axis: an (M,) row is no accepted form
        # for one-head or two-head losses, and a 0-d label none for labels.
        hp = LsrHyperParams()
        row = np.zeros(3)
        for call in (
            lambda: ce_loss(row, np.array([0])),
            lambda: ce_per_sample(row, np.array([0])),
            lambda: lsr_cls_loss(row, row, np.array([0]), 0.5, hp),
            lambda: self_distill_loss(row, row, hp),
        ):
            with pytest.raises(ValueError, match=r"\(\.\.\., B, M\)"):
                call()
        with pytest.raises(ValueError, match=r"labels shape \(\) does not match"):
            ce_loss(np.zeros((1, 3)), np.array(0))


class TestLsrClsLoss:
    def test_adjoints_match_fd_both_heads(self):
        gen = np.random.default_rng(3)
        hp = LsrHyperParams()
        for _ in range(10):
            o1 = gen.normal(scale=2.0, size=(4, 6))
            o2 = gen.normal(scale=2.0, size=(4, 6))
            y = gen.integers(0, 6, size=4)
            lam = float(gen.uniform(0.1, 0.9))
            out = lsr_cls_loss(o1, o2, y, lam, hp)
            fd1 = fd_grad(lambda q: lsr_cls_loss(q, o2, y, lam, hp).scalar, o1)
            fd2 = fd_grad(lambda q: lsr_cls_loss(o1, q, y, lam, hp).scalar, o2)
            np.testing.assert_allclose(out.adjoint_o1, fd1, atol=1e-7)
            np.testing.assert_allclose(out.adjoint_o2, fd2, atol=1e-7)

    def test_collapse_to_plain_ce_is_bitwise(self):
        gen = np.random.default_rng(4)
        hp = LsrHyperParams(sharpen_temp=1.0)
        o1 = gen.normal(size=(5, 8))
        o2 = gen.normal(size=(5, 8))
        y = gen.integers(0, 8, size=5)
        out = lsr_cls_loss(o1, o2, y, 1.0, hp)
        ref = ce_loss(o1, y)
        assert out.scalar == ref.scalar
        np.testing.assert_array_equal(out.adjoint_o1, ref.adjoint_o1)
        np.testing.assert_array_equal(out.adjoint_o2, np.zeros_like(o2))

    def test_confidently_wrong_pays_more_than_ce(self):
        # property loop: a wrong class holding most of the mass makes the
        # sharpened objective strictly larger than plain cross-entropy
        gen = np.random.default_rng(5)
        hp = LsrHyperParams()
        for _ in range(30):
            m = int(gen.integers(4, 12))
            p_max = float(gen.uniform(0.6, 0.95))
            wrong = int(gen.integers(1, m))
            rest = gen.uniform(0.05, 1.0, size=m)
            rest[wrong] = 0.0
            rest *= (1.0 - p_max) / rest.sum()
            p = rest
            p[wrong] = p_max
            o = np.log(p)[None, :]
            y = np.array([0])  # true label holds little mass
            sharp = lsr_cls_loss(o, o, y, 1.0, hp).scalar
            plain = ce_loss(o, y).scalar
            assert sharp > plain

    def test_clamped_rows_contribute_zero_gradient(self):
        hp = LsrHyperParams(clamp_lo=1e-3)
        # label class has essentially no mass: sharpened target underflows
        o = np.array([[20.0, 0.0, -20.0]])
        y = np.array([2])
        out = lsr_cls_loss(o, o, y, 0.5, hp)
        np.testing.assert_allclose(out.scalar, -np.log(1e-3), atol=1e-9)
        np.testing.assert_array_equal(out.adjoint_o1, np.zeros_like(o))
        np.testing.assert_array_equal(out.adjoint_o2, np.zeros_like(o))

    def test_lambda_one_ignores_second_head_value(self):
        gen = np.random.default_rng(6)
        hp = LsrHyperParams()
        o1 = gen.normal(size=(3, 5))
        y = gen.integers(0, 5, size=3)
        a = lsr_cls_loss(o1, gen.normal(size=(3, 5)), y, 1.0, hp)
        b = lsr_cls_loss(o1, gen.normal(size=(3, 5)), y, 1.0, hp)
        assert a.scalar == b.scalar
        np.testing.assert_array_equal(a.adjoint_o2, np.zeros((3, 5)))

    def test_shape_mismatch_rejected(self):
        hp = LsrHyperParams()
        with pytest.raises(ValueError):
            lsr_cls_loss(np.zeros((2, 3)), np.zeros((2, 4)), np.array([0, 1]), 0.5, hp)

    def test_scalar_weight_validated(self):
        o = np.zeros((2, 3))
        for lam in (-0.1, 1.1, np.nan):
            with pytest.raises(ValueError, match="mixing weight"):
                lsr_cls_loss(o, o, np.array([0, 1]), lam, LsrHyperParams())

    def test_weight_endpoints_and_midpoint(self):
        # lam = 0 scores the second head alone, bit for bit as lam = 1
        # scores the first; lam = 1/2 scores the even mixture.
        gen = np.random.default_rng(12)
        hp = LsrHyperParams()
        o1, o2 = gen.normal(scale=2.0, size=(2, 4, 6))
        y = gen.integers(0, 6, size=4)
        zero = lsr_cls_loss(o1, o2, y, 0.0, hp)
        one = lsr_cls_loss(o2, o1, y, 1.0, hp)
        assert zero.scalar == one.scalar
        np.testing.assert_array_equal(zero.adjoint_o1, one.adjoint_o2)
        np.testing.assert_array_equal(zero.adjoint_o2, one.adjoint_o1)
        mixed = sharpen(0.5 * softmax(o1) + 0.5 * softmax(o2), hp.sharpen_temp)
        expect = -np.log(mixed[np.arange(4), y]).mean()
        np.testing.assert_allclose(lsr_cls_loss(o1, o2, y, 0.5, hp).scalar, expect, rtol=1e-12)


class TestSelfDistill:
    @pytest.mark.parametrize("kind", ["js", "l1", "l2"])
    def test_identical_heads_zero(self, kind):
        gen = np.random.default_rng(7)
        hp = LsrHyperParams(distill_kind=kind)
        o = gen.normal(size=(4, 6))
        out = self_distill_loss(o, o, hp)
        np.testing.assert_allclose(out.scalar, 0.0, atol=1e-12)
        np.testing.assert_allclose(out.adjoint_o1, 0.0, atol=1e-12)

    def test_cosine_identical_heads_zero(self):
        gen = np.random.default_rng(8)
        hp = LsrHyperParams(distill_kind="cosine")
        o = gen.normal(size=(4, 6))
        out = self_distill_loss(o, o, hp)
        np.testing.assert_allclose(out.scalar, 0.0, atol=1e-12)
        np.testing.assert_allclose(out.adjoint_o1, 0.0, atol=1e-12)

    def test_js_disjoint_supports_is_ln2(self):
        hp = LsrHyperParams(distill_kind="js", distill_temp=1.0)
        o1 = np.array([[40.0, 0.0]])
        o2 = np.array([[0.0, 40.0]])
        out = self_distill_loss(o1, o2, hp)
        np.testing.assert_allclose(out.scalar, np.log(2), atol=1e-3)

    def test_js_symmetric_in_heads(self):
        gen = np.random.default_rng(9)
        hp = LsrHyperParams(distill_kind="js")
        o1 = gen.normal(size=(3, 5))
        o2 = gen.normal(size=(3, 5))
        a = self_distill_loss(o1, o2, hp)
        b = self_distill_loss(o2, o1, hp)
        np.testing.assert_allclose(a.scalar, b.scalar, atol=1e-12)
        np.testing.assert_allclose(a.adjoint_o1, b.adjoint_o2, atol=1e-12)

    @pytest.mark.parametrize("kind", ["js", "l1", "l2"])
    def test_adjoints_match_fd(self, kind):
        gen = np.random.default_rng(10)
        hp = LsrHyperParams(distill_kind=kind)
        for _ in range(8):
            o1 = gen.normal(size=(3, 4))
            o2 = gen.normal(size=(3, 4))
            out = self_distill_loss(o1, o2, hp)
            fd1 = fd_grad(lambda q: self_distill_loss(q, o2, hp).scalar, o1)
            fd2 = fd_grad(lambda q: self_distill_loss(o1, q, hp).scalar, o2)
            np.testing.assert_allclose(out.adjoint_o1, fd1, atol=1e-6)
            np.testing.assert_allclose(out.adjoint_o2, fd2, atol=1e-6)

    def test_cosine_adjoint_matches_branch_frozen_fd(self):
        # each cosine half treats the other head as a detached target, so
        # the oracle freezes the opposite branch at the base point
        gen = np.random.default_rng(11)
        hp = LsrHyperParams(distill_kind="cosine")

        def half_scalar(o_var, c_fixed, temp, lo):
            q = tempered_softmax(o_var, temp)
            c = np.maximum(q, lo)
            n1 = np.linalg.norm(c, axis=1)
            n2 = np.linalg.norm(c_fixed, axis=1)
            cos = (c * c_fixed).sum(axis=1) / (n1 * n2)
            return 0.5 * float((1.0 - cos).mean())

        for _ in range(8):
            o1 = gen.normal(size=(3, 4))
            o2 = gen.normal(size=(3, 4))
            out = self_distill_loss(o1, o2, hp)
            c2 = np.maximum(tempered_softmax(o2, hp.distill_temp), hp.clamp_lo)
            c1 = np.maximum(tempered_softmax(o1, hp.distill_temp), hp.clamp_lo)
            fd1 = fd_grad(lambda q: half_scalar(q, c2, hp.distill_temp, hp.clamp_lo), o1)
            fd2 = fd_grad(lambda q: half_scalar(q, c1, hp.distill_temp, hp.clamp_lo), o2)
            np.testing.assert_allclose(out.adjoint_o1, fd1, atol=1e-6)
            np.testing.assert_allclose(out.adjoint_o2, fd2, atol=1e-6)

    def test_distill_temperature_scales_logits(self):
        # temp 1/3 compares softmax(3 * o); verify against the raw formula
        gen = np.random.default_rng(12)
        hp = LsrHyperParams(distill_kind="l2", distill_temp=1.0 / 3.0)
        o1 = gen.normal(size=(2, 4))
        o2 = gen.normal(size=(2, 4))
        out = self_distill_loss(o1, o2, hp)
        q1 = softmax(3.0 * o1)
        q2 = softmax(3.0 * o2)
        np.testing.assert_allclose(out.scalar, ((q1 - q2) ** 2).sum(axis=1).mean(), atol=1e-12)

    def test_kind_none_rejected(self):
        # gamma = 0 is the one way to switch the term off.
        with pytest.raises(ValueError, match=re.escape(
            "distill_kind must be one of ('js', 'l1', 'l2', 'cosine'), got 'none'"
        )):
            LsrHyperParams(distill_kind="none")


class TestLsrTotal:
    def test_combines_cls_and_distill_linearly(self):
        gen = np.random.default_rng(13)
        hp = LsrHyperParams(distill_kind="js")
        o1 = gen.normal(size=(4, 5))
        o2 = gen.normal(size=(4, 5))
        y = gen.integers(0, 5, size=4)
        cls = lsr_cls_loss(o1, o2, y, 0.3, hp)
        reg = self_distill_loss(o1, o2, hp)
        total = lsr_total_loss(o1, o2, y, 0.3, 0.7, hp)
        np.testing.assert_allclose(total.scalar, cls.scalar + 0.7 * reg.scalar, atol=1e-12)
        np.testing.assert_allclose(
            total.adjoint_o1, cls.adjoint_o1 + 0.7 * reg.adjoint_o1, atol=1e-12
        )

    def test_gamma_zero_is_cls_only(self):
        gen = np.random.default_rng(14)
        hp = LsrHyperParams()
        o1 = gen.normal(size=(3, 4))
        o2 = gen.normal(size=(3, 4))
        y = gen.integers(0, 4, size=3)
        total = lsr_total_loss(o1, o2, y, 0.5, 0.0, hp)
        cls = lsr_cls_loss(o1, o2, y, 0.5, hp)
        assert total.scalar == cls.scalar
        np.testing.assert_array_equal(total.adjoint_o1, cls.adjoint_o1)

    def test_kind_none_drops_regularizer(self):
        # The ablation is gamma = 0: past the warm-up its weight is still 0,
        # so no divergence adds to the loss.
        gen = np.random.default_rng(15)
        o1 = gen.normal(size=(3, 4))
        o2 = gen.normal(size=(3, 4))
        y = gen.integers(0, 4, size=3)
        for kind in ("js", "l1", "l2", "cosine"):
            hp = LsrHyperParams(gamma=0.0, distill_kind=kind)
            total = lsr_total_loss(o1, o2, y, 0.5, gamma_schedule(30, 20, hp.gamma), hp)
            cls = lsr_cls_loss(o1, o2, y, 0.5, hp)
            assert total.scalar == cls.scalar
            np.testing.assert_array_equal(total.adjoint_o1, cls.adjoint_o1)
            np.testing.assert_array_equal(total.adjoint_o2, cls.adjoint_o2)

    def test_adjoints_match_fd(self):
        gen = np.random.default_rng(16)
        hp = LsrHyperParams(distill_kind="l2")
        for _ in range(6):
            o1 = gen.normal(size=(3, 4))
            o2 = gen.normal(size=(3, 4))
            y = gen.integers(0, 4, size=3)
            out = lsr_total_loss(o1, o2, y, 0.4, 0.6, hp)
            fd1 = fd_grad(lambda q: lsr_total_loss(q, o2, y, 0.4, 0.6, hp).scalar, o1)
            np.testing.assert_allclose(out.adjoint_o1, fd1, atol=1e-6)

    def test_negative_gamma_rejected(self):
        hp = LsrHyperParams()
        with pytest.raises(ValueError):
            lsr_total_loss(np.zeros((1, 3)), np.zeros((1, 3)), np.array([0]), 0.5, -0.1, hp)


class TestLsrPlus:
    def test_entropy_bonus_added(self):
        gen = np.random.default_rng(17)
        hp0 = LsrHyperParams(entropy_weight=0.0)
        hp = LsrHyperParams(entropy_weight=0.6)
        o1 = gen.normal(size=(4, 5))
        o2 = gen.normal(size=(4, 5))
        y = gen.integers(0, 5, size=4)
        base = lsr_plus_loss(o1, o2, y, 0.5, 0.2, hp0)
        plus = lsr_plus_loss(o1, o2, y, 0.5, 0.2, hp)
        p1 = softmax(o1)
        p2 = softmax(o2)
        h = 0.5 * (
            -(p1 * np.log(p1)).sum(axis=1).mean() - (p2 * np.log(p2)).sum(axis=1).mean()
        )
        np.testing.assert_allclose(plus.scalar - base.scalar, 0.6 * h, atol=1e-12)

    def test_weight_zero_identical_to_total(self):
        gen = np.random.default_rng(18)
        hp = LsrHyperParams(entropy_weight=0.0)
        o1 = gen.normal(size=(3, 4))
        o2 = gen.normal(size=(3, 4))
        y = gen.integers(0, 4, size=3)
        a = lsr_plus_loss(o1, o2, y, 0.5, 0.3, hp)
        b = lsr_total_loss(o1, o2, y, 0.5, 0.3, hp)
        assert a.scalar == b.scalar
        np.testing.assert_array_equal(a.adjoint_o1, b.adjoint_o1)

    def test_one_row_max_and_one_plain_softmax_per_call(self, monkeypatch):
        # The classification term and the entropy penalty share one plain
        # softmax, and the tempered one reuses its row maxima.
        maxima, temps = [], []

        def row_max(o):
            maxima.append(o.shape)
            return numerics._row_max(o)

        def softmax_at(o, top, temp=1.0):
            temps.append(temp)
            return numerics._softmax_at(o, top, temp)

        monkeypatch.setattr(losses, "_row_max", row_max)
        monkeypatch.setattr(losses, "_softmax_at", softmax_at)
        gen = np.random.default_rng(20)
        o1, o2 = gen.normal(size=(2, 3, 6, 4))
        y = gen.integers(0, 4, size=(3, 6))
        lsr_plus_loss(o1, o2, y, 0.4, 0.5, LsrHyperParams(entropy_weight=0.6))
        assert maxima == [(2, 3, 6, 4)]
        assert temps == [1.0, LsrHyperParams().distill_temp]

    def test_adjoints_match_fd(self):
        gen = np.random.default_rng(19)
        hp = LsrHyperParams(entropy_weight=0.6, distill_kind="js")
        for _ in range(6):
            o1 = gen.normal(size=(3, 4))
            o2 = gen.normal(size=(3, 4))
            y = gen.integers(0, 4, size=3)
            out = lsr_plus_loss(o1, o2, y, 0.3, 0.5, hp)
            fd1 = fd_grad(lambda q: lsr_plus_loss(q, o2, y, 0.3, 0.5, hp).scalar, o1)
            fd2 = fd_grad(lambda q: lsr_plus_loss(o1, q, y, 0.3, 0.5, hp).scalar, o2)
            np.testing.assert_allclose(out.adjoint_o1, fd1, atol=1e-6)
            np.testing.assert_allclose(out.adjoint_o2, fd2, atol=1e-6)


class TestSymmetricCe:
    def test_pinned_half_confidence_value(self):
        # p[y] = 0.5 via two equal logits: 0.1 * ln 2 + 4 * 0.5 = 2.0693
        sp = SymCeParams(alpha=0.1, beta=1.0, log_zero=-4.0)
        out = symmetric_ce_loss(np.zeros((1, 2)), np.array([0]), sp)
        np.testing.assert_allclose(out.scalar, 2.0693, atol=1e-4)

    def test_reverse_term_closed_form(self):
        gen = np.random.default_rng(20)
        sp = SymCeParams(alpha=0.0, beta=1.0, log_zero=-4.0)
        o = gen.normal(size=(5, 6))
        y = gen.integers(0, 6, size=5)
        p_y = softmax(o)[np.arange(5), y]
        np.testing.assert_allclose(
            symmetric_ce_loss(o, y, sp).scalar, (4.0 * (1.0 - p_y)).mean(), atol=1e-12
        )

    def test_alpha_only_is_plain_ce(self):
        gen = np.random.default_rng(21)
        sp = SymCeParams(alpha=1.0, beta=0.0)
        o = gen.normal(size=(4, 5))
        y = gen.integers(0, 5, size=4)
        np.testing.assert_allclose(
            symmetric_ce_loss(o, y, sp).scalar, ce_loss(o, y).scalar, atol=1e-12
        )

    def test_adjoint_matches_fd(self):
        gen = np.random.default_rng(22)
        sp = SymCeParams()
        for _ in range(10):
            o = gen.normal(scale=2.0, size=(4, 5))
            y = gen.integers(0, 5, size=4)
            out = symmetric_ce_loss(o, y, sp)
            fd = fd_grad(lambda q: symmetric_ce_loss(q, y, sp).scalar, o)
            np.testing.assert_allclose(out.adjoint_o1, fd, atol=1e-7)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SymCeParams(alpha=-0.1)
        with pytest.raises(ValueError):
            SymCeParams(beta=-1.0)
        with pytest.raises(ValueError):
            SymCeParams(log_zero=0.0)


class TestSymceLsr:
    @pytest.mark.parametrize("gamma_t", [0.0, 0.6])
    def test_adjoints_match_fd_both_heads(self, gamma_t):
        gen = np.random.default_rng(24)
        sp = SymCeParams()
        hp = LsrHyperParams(distill_kind="js")
        for _ in range(6):
            o1 = gen.normal(size=(3, 4))
            o2 = gen.normal(size=(3, 4))
            y = gen.integers(0, 4, size=3)
            out = symce_lsr_loss(o1, o2, y, 0.3, gamma_t, sp, hp)
            fd1 = fd_grad(lambda q: symce_lsr_loss(q, o2, y, 0.3, gamma_t, sp, hp).scalar, o1)
            fd2 = fd_grad(lambda q: symce_lsr_loss(o1, q, y, 0.3, gamma_t, sp, hp).scalar, o2)
            np.testing.assert_allclose(out.adjoint_o1, fd1, atol=1e-6)
            np.testing.assert_allclose(out.adjoint_o2, fd2, atol=1e-6)

    def test_gamma_zero_is_symmetric_ce_of_mixed_logits(self):
        gen = np.random.default_rng(25)
        sp = SymCeParams()
        o1 = gen.normal(size=(3, 4))
        o2 = gen.normal(size=(3, 4))
        y = gen.integers(0, 4, size=3)
        out = symce_lsr_loss(o1, o2, y, 0.3, 0.0, sp, LsrHyperParams())
        assert out.scalar == symmetric_ce_loss(0.3 * o1 + 0.7 * o2, y, sp).scalar

    def test_validation(self):
        sp, hp = SymCeParams(), LsrHyperParams()
        o, y = np.zeros((2, 3)), np.array([0, 1])
        with pytest.raises(ValueError):
            symce_lsr_loss(o, np.zeros((2, 4)), y, 0.5, 0.1, sp, hp)
        with pytest.raises(ValueError):
            symce_lsr_loss(o, o, y, 1.5, 0.1, sp, hp)
        with pytest.raises(ValueError):
            symce_lsr_loss(o, o, y, 0.5, -0.1, sp, hp)


class TestSharpenedCe:
    def test_matches_cls_loss_at_lambda_one(self):
        gen = np.random.default_rng(23)
        hp = LsrHyperParams()
        o = gen.normal(size=(4, 5))
        y = gen.integers(0, 5, size=4)
        a = sharpened_ce_loss(o, y, hp)
        b = lsr_cls_loss(o, o, y, 1.0, hp)
        assert a.scalar == b.scalar
        np.testing.assert_array_equal(a.adjoint_o2, np.zeros_like(o))

    @pytest.mark.parametrize("temp", [0.5, 1.0])
    @pytest.mark.parametrize("lead", [(), (3,)], ids=["batch", "cohort"])
    def test_bitwise_equal_to_cls_loss_at_lambda_one(self, temp, lead):
        gen = np.random.default_rng(26)
        hp = LsrHyperParams(sharpen_temp=temp)
        o = gen.normal(size=(*lead, 7, 5)) * 4.0
        y = gen.integers(0, 5, size=(*lead, 7))
        a = sharpened_ce_loss(o, y, hp)
        b = lsr_cls_loss(o, o, y, 1.0, hp)
        np.testing.assert_array_equal(a.scalar, b.scalar)
        assert a.adjoint_o1.tobytes() == b.adjoint_o1.tobytes()
        assert a.adjoint_o2.tobytes() == np.zeros_like(o).tobytes()

    def test_per_sample_matches_mean(self):
        gen = np.random.default_rng(24)
        hp = LsrHyperParams()
        o = gen.normal(size=(6, 4))
        y = gen.integers(0, 4, size=6)
        np.testing.assert_allclose(
            sharpened_ce_per_sample(o, y, hp).mean(),
            sharpened_ce_loss(o, y, hp).scalar,
            atol=1e-12,
        )

    def test_temp_one_is_plain_ce_rows(self):
        gen = np.random.default_rng(25)
        hp = LsrHyperParams(sharpen_temp=1.0)
        o = gen.normal(size=(5, 6))
        y = gen.integers(0, 6, size=5)
        np.testing.assert_allclose(
            sharpened_ce_per_sample(o, y, hp), ce_per_sample(o, y), atol=1e-12
        )

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["batch", "cohort"])
    def test_temp_one_rows_are_ce_rows_bitwise(self, lead):
        # As sharpened_ce_loss is ce_loss at T = 1, its rows are ce_per_sample's.
        gen = np.random.default_rng(27)
        o = gen.normal(size=(*lead, 9, 5)) * 4.0
        y = gen.integers(0, 5, size=(*lead, 9))
        got = sharpened_ce_per_sample(o, y, LsrHyperParams(sharpen_temp=1.0))
        assert got.tobytes() == ce_per_sample(o, y).tobytes()

    @pytest.mark.parametrize("temp", [0.3, 0.5, 2.0])
    def test_rows_are_the_loss_rows_bitwise(self, temp):
        # The per-sample rows and the loss's scalar come from one formula.
        gen = np.random.default_rng(28)
        hp = LsrHyperParams(sharpen_temp=temp)
        o = gen.normal(size=(3, 8, 6)) * 3.0
        y = gen.integers(0, 6, size=(3, 8))
        rows = sharpened_ce_per_sample(o, y, hp)
        assert rows.mean(axis=-1).tobytes() == sharpened_ce_loss(o, y, hp).scalar.tobytes()

    @pytest.mark.parametrize(
        "loss",
        [
            lambda o, y, hp: sharpened_ce_loss(o, y, hp),
            lambda o, y, hp: sharpened_ce_per_sample(o, y, hp),
            lambda o, y, hp: lsr_cls_loss(o, o, y, 0.5, hp),
        ],
        ids=["sharpened_ce_loss", "sharpened_ce_per_sample", "lsr_cls_loss"],
    )
    def test_underflowing_temperature_rejected(self, loss):
        # Uniform rows give p = 0.1 per class, and 0.1 ** 1000 underflows to
        # zero in every entry: the loss must refuse, not return nan.
        o = np.zeros((4, 10))
        y = np.arange(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sharpen_temp"):
                loss(o, y, LsrHyperParams(sharpen_temp=0.001))


class TestAdjointTangency:
    def test_all_adjoint_rows_sum_to_zero(self):
        # every loss differentiates through a softmax, so logit gradients
        # must be orthogonal to the all-ones direction
        gen = np.random.default_rng(26)
        hp = LsrHyperParams(entropy_weight=0.3, distill_kind="js")
        sp = SymCeParams()
        o1 = gen.normal(size=(4, 6))
        o2 = gen.normal(size=(4, 6))
        y = gen.integers(0, 6, size=4)
        outs = [
            ce_loss(o1, y),
            lsr_cls_loss(o1, o2, y, 0.4, hp),
            self_distill_loss(o1, o2, hp),
            lsr_total_loss(o1, o2, y, 0.4, 0.5, hp),
            lsr_plus_loss(o1, o2, y, 0.4, 0.5, hp),
            symmetric_ce_loss(o1, y, sp),
        ]
        for out in outs:
            np.testing.assert_allclose(out.adjoint_o1.sum(axis=1), 0.0, atol=1e-10)
            np.testing.assert_allclose(out.adjoint_o2.sum(axis=1), 0.0, atol=1e-10)


class TestSmallLossSelect:
    def test_keeps_smallest_ascending(self):
        losses = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
        np.testing.assert_array_equal(small_loss_select(losses, 0.6), [1, 2, 3])

    def test_keep_all(self):
        losses = np.array([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(small_loss_select(losses, 1.0), [0, 1, 2])

    def test_count_is_ceil(self):
        # 0.5 of 5 keeps ceil(2.5) = 3
        assert small_loss_select(np.arange(5.0), 0.5).size == 3

    def test_float_dust_does_not_inflate_count(self):
        # 0.7 * 10 must keep exactly 7 despite floating point representation
        assert small_loss_select(np.arange(10.0), 0.7).size == 7

    def test_at_least_one_kept(self):
        assert small_loss_select(np.array([1.0, 2.0]), 0.01).size == 1

    def test_stable_tie_break_toward_lower_index(self):
        losses = np.array([2.0, 1.0, 1.0, 1.0])
        np.testing.assert_array_equal(small_loss_select(losses, 0.5), [1, 2])

    def test_empty_input(self):
        out = small_loss_select(np.zeros(0), 0.5)
        assert out.size == 0
        assert out.dtype == np.int64
        out = small_loss_select(np.zeros((3, 0)), 0.5)
        assert out.shape == (3, 0) and out.dtype == np.int64

    def test_validation(self):
        with pytest.raises(ValueError):
            small_loss_select(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            small_loss_select(np.array([1.0]), 1.5)
        with pytest.raises(ValueError):
            small_loss_select(np.array([np.inf]), 0.5)
        with pytest.raises(ValueError, match="finite"):
            small_loss_select(np.array([[1.0, 2.0], [np.nan, 0.0]]), 0.5)
        with pytest.raises(ValueError):
            small_loss_select(np.float64(1.0), 0.5)

    def test_cohort_rows_pick_as_each_row_alone(self):
        losses = np.array([
            [2.0, 1.0, 1.0, 1.0, 3.0, 1.0],
            [0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
            [4.0, 3.0, 3.0, 0.0, 3.0, 4.0],
        ])
        for keep in (0.1, 0.5, 0.7, 1.0):
            got = small_loss_select(losses, keep)
            want = np.stack([small_loss_select(row, keep) for row in losses])
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)


class TestHyperParamValidation:
    def test_lsr_fields(self):
        with pytest.raises(ValueError):
            LsrHyperParams(sharpen_temp=0.0)
        with pytest.raises(ValueError):
            LsrHyperParams(distill_temp=-1.0)
        with pytest.raises(ValueError):
            LsrHyperParams(gamma=-0.1)
        with pytest.raises(ValueError):
            LsrHyperParams(entropy_weight=-0.5)
        with pytest.raises(ValueError):
            LsrHyperParams(distill_kind="kl")
        with pytest.raises(ValueError):
            LsrHyperParams(clamp_lo=0.0)
        with pytest.raises(ValueError):
            LsrHyperParams(fix_lambda=1.5)

    def test_defaults_are_the_documented_ones(self):
        hp = LsrHyperParams()
        assert hp.sharpen_temp == 0.5
        assert hp.distill_temp == pytest.approx(1.0 / 3.0)
        assert hp.distill_kind == "js"
        assert hp.clamp_lo == 1e-6
        assert hp.fix_lambda is None


class TestLossOutputType:
    def test_fields(self):
        out = ce_loss(np.zeros((2, 3)), np.array([0, 1]))
        assert isinstance(out, LossOutput)
        assert isinstance(out.scalar, float)
        assert out.adjoint_o1.shape == (2, 3)
        assert out.adjoint_o2.shape == (2, 3)


def _distill_setting(kind, gamma_t, **hp_kw):
    """(hyperparameters, distillation weight) for a test's divergence kind.

    "none" is the paper's ablation, gamma = 0: the warm-up schedule then
    weighs the term 0 at the warm-up's start (gamma_t = 0) and after it.
    """
    if kind != "none":
        return LsrHyperParams(distill_kind=kind, **hp_kw), gamma_t
    hp = LsrHyperParams(gamma=0.0, **hp_kw)
    weight = gamma_schedule(1 if gamma_t else 0, 1, hp.gamma)
    assert weight == 0.0
    return hp, weight


def _stacked_cases():
    """name -> loss(o1, o2, y, lam) over one batch or a (K, B, M) cohort."""
    sp = SymCeParams(alpha=0.3, beta=0.8)
    cases = {
        "ce_loss": lambda o1, o2, y, lam: ce_loss(o1, y),
        "ce_per_sample": lambda o1, o2, y, lam: ce_per_sample(o1, y),
        "lsr_plus_loss": lambda o1, o2, y, lam: lsr_plus_loss(
            o1, o2, y, lam, 0.3, LsrHyperParams(entropy_weight=0.4)),
        "symmetric_ce_loss": lambda o1, o2, y, lam: symmetric_ce_loss(o1, y, sp),
        "symce_lsr_loss": lambda o1, o2, y, lam: symce_lsr_loss(
            o1, o2, y, lam, 0.3, sp, LsrHyperParams()),
        "sharpened_ce_loss": lambda o1, o2, y, lam: sharpened_ce_loss(o1, y, LsrHyperParams()),
        "sharpened_ce_per_sample": lambda o1, o2, y, lam: sharpened_ce_per_sample(
            o1, y, LsrHyperParams()),
        # T = 1 takes plain CE exactly for the clients whose lam is 1.
        "lsr_total_loss[T=1]": lambda o1, o2, y, lam: lsr_total_loss(
            o1, o2, y, lam, 0.0, LsrHyperParams(sharpen_temp=1.0)),
    }
    for kind in ("js", "l1", "l2", "cosine", "none"):
        hp, gamma_t = _distill_setting(kind, 0.3)
        cases[f"lsr_total_loss[{kind}]"] = (
            lambda o1, o2, y, lam, hp=hp, gamma_t=gamma_t:
            lsr_total_loss(o1, o2, y, lam, gamma_t, hp))
    return cases


STACKED = _stacked_cases()


class TestStackedCohort:
    @pytest.mark.parametrize("name", sorted(STACKED))
    @pytest.mark.parametrize("batch", [1, 7, 40])
    def test_each_slice_equals_the_2d_call(self, name, batch):
        # At this seed plain CE and the general path at lam = 1 give
        # different scalars, so the per-client CE branch is visible.
        gen = np.random.default_rng(28)
        k, m = 3, 5
        o1 = gen.normal(scale=3.0, size=(k, batch, m))
        o2 = gen.normal(scale=3.0, size=(k, batch, m))
        y = gen.integers(0, m, size=(k, batch))
        lam = np.array([1.0, *gen.uniform(0.1, 0.9, size=k - 1)])
        fn = STACKED[name]
        stacked = fn(o1, o2, y, lam)
        for i in range(k):
            alone = fn(o1[i], o2[i], y[i], float(lam[i]))
            if isinstance(alone, LossOutput):
                assert isinstance(alone.scalar, float)
                assert stacked.scalar.shape == (k,)
                assert stacked.scalar[i] == alone.scalar
                np.testing.assert_array_equal(stacked.adjoint_o1[i], alone.adjoint_o1)
                np.testing.assert_array_equal(stacked.adjoint_o2[i], alone.adjoint_o2)
            else:
                np.testing.assert_array_equal(stacked[i], alone)

    def test_per_client_weights_are_checked(self):
        o = np.zeros((2, 3, 4))
        y = np.zeros((2, 3), dtype=int)
        hp = LsrHyperParams()
        with pytest.raises(ValueError):
            lsr_total_loss(o, o, y, np.array([0.5, 1.5]), 0.1, hp)
        with pytest.raises(ValueError):
            lsr_total_loss(o, o, y, np.array([0.5, 0.5, 0.5]), 0.1, hp)
        with pytest.raises(ValueError):
            ce_loss(o, np.zeros((3, 2), dtype=int))


# The LSR family as separate calls, one head and one term at a time: a
# reference for the one-pass implementation, which must match it bit for
# bit. Each softmax takes its own row max, the tempered one of o / T.
def _ref_softmax(o):
    shifted = o - o.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _ref_softmax_vjp(q, v, temp=1.0):
    inner = (v * q).sum(axis=-1, keepdims=True)
    return q * (v - inner) / temp


def _ref_at(y):
    return (*np.indices(y.shape, sparse=True), y)


def _ref_ce(o, y):
    at_y = _ref_at(y)
    shifted = o - o.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    adj = np.exp(logp)
    adj[at_y] -= 1.0
    adj /= o.shape[-2]
    return -logp[at_y].mean(axis=-1), adj


def _ref_cls(o1, o2, y, lam, hp):
    weight = np.asarray(lam, dtype=np.float64)[..., None, None]
    plain = hp.sharpen_temp == 1.0 and np.any(weight == 1.0)
    if plain:
        base_scalar, base_adj = _ref_ce(o1, y)
        if np.all(weight == 1.0):
            return base_scalar, base_adj, np.zeros_like(o2)
    p1, p2 = _ref_softmax(o1), _ref_softmax(o2)
    p = weight * p1 + (1.0 - weight) * p2
    at_y = _ref_at(y)
    u = 1.0 / hp.sharpen_temp
    powered = p**u
    norm = powered.sum(axis=-1)
    sharp_y = powered[at_y] / norm
    scalar = (-np.log(np.maximum(sharp_y, hp.clamp_lo))).mean(axis=-1)
    grad_p = u * p ** (u - 1.0) / norm[..., None]
    grad_p[at_y] -= u / p[at_y]
    grad_p[sharp_y <= hp.clamp_lo] = 0.0
    grad_p /= p.shape[-2]
    adj1 = _ref_softmax_vjp(p1, weight * grad_p)
    adj2 = _ref_softmax_vjp(p2, (1.0 - weight) * grad_p)
    if plain:
        pick = weight == 1.0
        scalar = np.where(pick[..., 0, 0], base_scalar, scalar)
        adj1 = np.where(pick, base_adj, adj1)
        adj2 = np.where(pick, 0.0, adj2)
    return scalar, adj1, adj2


def _ref_distill(o1, o2, hp):
    batch = o1.shape[-2]
    q1 = _ref_softmax(o1 / hp.distill_temp)
    q2 = _ref_softmax(o2 / hp.distill_temp)
    c1, c2 = np.maximum(q1, hp.clamp_lo), np.maximum(q2, hp.clamp_lo)
    if hp.distill_kind == "js":
        mid = 0.5 * (c1 + c2)
        kl1 = (c1 * np.log(c1 / mid)).sum(axis=-1)
        kl2 = (c2 * np.log(c2 / mid)).sum(axis=-1)
        scalar = (0.5 * (kl1 + kl2)).mean(axis=-1)
        g1 = 0.5 * np.log(c1 / mid) / batch
        g2 = 0.5 * np.log(c2 / mid) / batch
    elif hp.distill_kind == "l1":
        scalar = np.abs(c1 - c2).sum(axis=-1).mean(axis=-1)
        g1 = np.sign(c1 - c2) / batch
        g2 = -g1
    elif hp.distill_kind == "l2":
        scalar = ((c1 - c2) ** 2).sum(axis=-1).mean(axis=-1)
        g1 = 2.0 * (c1 - c2) / batch
        g2 = -g1
    else:
        n1 = np.linalg.norm(c1, axis=-1, keepdims=True)
        n2 = np.linalg.norm(c2, axis=-1, keepdims=True)
        cos = (c1 * c2).sum(axis=-1, keepdims=True) / (n1 * n2)
        scalar = (1.0 - cos)[..., 0].mean(axis=-1)
        g1 = 0.5 * (cos * c1 / n1**2 - c2 / (n1 * n2)) / batch
        g2 = 0.5 * (cos * c2 / n2**2 - c1 / (n1 * n2)) / batch
    adj1 = _ref_softmax_vjp(q1, g1 * (q1 > hp.clamp_lo), hp.distill_temp)
    adj2 = _ref_softmax_vjp(q2, g2 * (q2 > hp.clamp_lo), hp.distill_temp)
    return scalar, adj1, adj2


def _ref_add_distill(out, o1, o2, gamma_t, hp):
    if gamma_t == 0.0:
        return out
    reg = _ref_distill(o1, o2, hp)
    return tuple(a + gamma_t * r for a, r in zip(out, reg))


def _ref_loss(name, o1, o2, y, lam, gamma_t, hp):
    """(scalar, adjoint_o1, adjoint_o2) of the named loss, composed term by term."""
    if name == "symce_lsr_loss":
        sp = SymCeParams(alpha=0.3, beta=0.8)
        weight = np.asarray(lam, dtype=np.float64)[..., None, None]
        mixed = weight * o1 + (1.0 - weight) * o2
        at_y = _ref_at(y)
        shifted = mixed - mixed.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        p = np.exp(logp)
        scalar = (sp.alpha * -logp[at_y] + sp.beta * -sp.log_zero * (1.0 - p[at_y])).mean(axis=-1)
        adj = p.copy()
        adj[at_y] -= 1.0
        adj *= sp.alpha
        onehot_grad = np.zeros_like(p)
        onehot_grad[at_y] = sp.log_zero
        adj += sp.beta * _ref_softmax_vjp(p, onehot_grad)
        adj /= o1.shape[-2]
        return _ref_add_distill((scalar, weight * adj, (1.0 - weight) * adj), o1, o2, gamma_t, hp)
    out = _ref_add_distill(_ref_cls(o1, o2, y, lam, hp), o1, o2, gamma_t, hp)
    if hp.entropy_weight == 0.0:
        return out
    w, scalar, adjs = hp.entropy_weight, out[0], []
    for o, base_adj in ((o1, out[1]), (o2, out[2])):
        p = _ref_softmax(o)
        logp = np.log(np.maximum(p, 1e-300))
        scalar = scalar + w * 0.5 * -(p * logp).sum(axis=-1).mean(axis=-1)
        adjs.append(base_adj + _ref_softmax_vjp(p, w * 0.5 * (-(logp + 1.0)) / o.shape[-2]))
    return scalar, adjs[0], adjs[1]


_FUSED = {
    "lsr_total_loss": lambda o1, o2, y, lam, g, hp: lsr_total_loss(o1, o2, y, lam, g, hp),
    "lsr_plus_loss": lambda o1, o2, y, lam, g, hp: lsr_plus_loss(o1, o2, y, lam, g, hp),
    "symce_lsr_loss": lambda o1, o2, y, lam, g, hp: symce_lsr_loss(
        o1, o2, y, lam, g, SymCeParams(alpha=0.3, beta=0.8), hp),
}


class TestOnePassMatchesComposition:
    @pytest.mark.parametrize("gamma_t", [0.0, 0.2])
    @pytest.mark.parametrize("weights", ["zero", "one", "drawn", "mixed"])
    @pytest.mark.parametrize("temp", [0.5, 1.0])
    @pytest.mark.parametrize("kind", ["js", "l1", "l2", "cosine", "none"])
    @pytest.mark.parametrize("name, entropy_weight", [
        ("lsr_total_loss", 0.0), ("lsr_total_loss", 0.1), ("lsr_plus_loss", 0.0),
        ("lsr_plus_loss", 0.1), ("symce_lsr_loss", 0.0),
    ])
    def test_bitwise_equal(self, name, entropy_weight, kind, temp, weights, gamma_t):
        # Every distill kind, the gamma = 0 ablation, the T = 1 plain-CE path
        # (all, none or some of a cohort's clients at lam = 1), and the
        # warm-up's gamma_t = 0.
        gen = np.random.default_rng(22)
        k, b, m = 3, 7, 5
        o1 = gen.normal(scale=3.0, size=(k, b, m))
        o2 = gen.normal(scale=3.0, size=(k, b, m))
        y = gen.integers(0, m, size=(k, b))
        lam = {"zero": np.zeros(k), "one": np.ones(k), "drawn": gen.uniform(size=k),
               "mixed": np.array([1.0, *gen.uniform(size=k - 1)])}[weights]
        hp, gamma_t = _distill_setting(kind, gamma_t, sharpen_temp=temp,
                                       entropy_weight=entropy_weight)
        want = _ref_loss(name, o1, o2, y, lam, gamma_t, hp)
        for lead in (slice(None), 0):  # a cohort, and one batch with a scalar weight
            lam_in = lam[lead] if lead == 0 else lam
            got = _FUSED[name](o1[lead], o2[lead], y[lead], lam_in, gamma_t, hp)
            for a, w in zip((got.scalar, got.adjoint_o1, got.adjoint_o2), want):
                assert np.array_equal(a, w[lead]), (lead, a, w[lead])

    @pytest.mark.parametrize("temp", [0.5, 1.0])
    @pytest.mark.parametrize("weights", ["zero", "one", "drawn", "mixed"])
    def test_cls_term_alone_bitwise_equal(self, temp, weights):
        gen = np.random.default_rng(23)
        o1, o2 = gen.normal(scale=3.0, size=(2, 3, 7, 5))
        y = gen.integers(0, 5, size=(3, 7))
        lam = {"zero": np.zeros(3), "one": np.ones(3), "drawn": gen.uniform(size=3),
               "mixed": np.array([1.0, 0.3, 0.6])}[weights]
        hp = LsrHyperParams(sharpen_temp=temp)
        got = lsr_cls_loss(o1, o2, y, lam, hp)
        for a, w in zip((got.scalar, got.adjoint_o1, got.adjoint_o2), _ref_cls(o1, o2, y, lam, hp)):
            assert np.array_equal(a, w)

    @pytest.mark.parametrize("kind", ["js", "l1", "l2", "cosine"])
    def test_distill_term_alone_bitwise_equal(self, kind):
        gen = np.random.default_rng(24)
        o1, o2 = gen.normal(scale=3.0, size=(2, 3, 7, 5))
        hp = LsrHyperParams(distill_kind=kind)
        got = self_distill_loss(o1, o2, hp)
        for a, w in zip((got.scalar, got.adjoint_o1, got.adjoint_o2), _ref_distill(o1, o2, hp)):
            assert np.array_equal(a, w)


class TestSaturatedLabelMass:
    def test_no_warning_when_p_y_underflows_to_zero(self):
        # softmax gives the label class exactly 0 in the first row; the
        # clamp zeroes that row's gradient, so no 1 / p_y may be taken.
        o = np.array([[0.0, 800.0, 0.0], [0.5, 0.1, -0.2]])
        y = np.array([0, 1])
        assert softmax(o)[0, 0] == 0.0
        hp = LsrHyperParams()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            single = sharpened_ce_loss(o, y, hp)
            total = lsr_total_loss(o, o, y, 0.3, 0.2, hp)
        for out in (single, total):
            assert np.isfinite(out.scalar)
            assert np.all(np.isfinite(out.adjoint_o1)) and np.all(np.isfinite(out.adjoint_o2))
        np.testing.assert_array_equal(single.adjoint_o1[0], 0.0)
