"""Acceptance suite: one test per criterion, each reporting a PASS/FAIL line.

Criteria 1-3 are analytic oracles (finite differences, exact corruption
counts, closed-form loss values). Criteria 4-6 and 9 are behavioral checks
on the desk-scale reference setup (10k samples, 32 dims, 10 classes, 100
clients, 150 rounds) shared through the session-cached grid fixture.
Criteria 7-8 are exact determinism checks.
"""

import math
import time

import numpy as np

from conftest import record_criterion, run_with_history
from fednoise.augment import AugmentPolicy
from fednoise.data import (
    NoiseSpec,
    generate_synthetic,
    inject_pairwise_noise,
    inject_symmetric_noise,
    partition_iid,
    subset,
    transition_counts,
)
from fednoise.federation import FedConfig, run_federation
from fednoise.harness import run_experiment
from fednoise.losses import (
    LsrHyperParams,
    SymCeParams,
    ce_loss,
    lsr_cls_loss,
    lsr_plus_loss,
    lsr_total_loss,
    self_distill_loss,
    symmetric_ce_loss,
)
from fednoise.model import ModelParams, backward, forward, init_params
from fednoise.numerics import RngStream, sharpen, tempered_softmax

FD_STEP = 1e-4
FD_REL_TOL = 1e-3


# A finite-difference step that crosses a hidden ReLU crease (or, for the
# L1 divergence, an absolute-value crease where the two heads tie on some
# class) measures a different function on each side and certifies nothing,
# so instances are re-drawn until every pre-activation clears the step by a
# wide margin. Rejection rates are modest and the re-draws are seeded.
_RELU_MARGIN = 5e-3
_PROB_GAP = 2e-3


def _relu_margin(params, x):
    flat = params.flat
    offset = 0
    layers = []
    for in_dim, out_dim in params.shapes:
        w = flat[offset : offset + in_dim * out_dim].reshape(in_dim, out_dim)
        offset += in_dim * out_dim
        b = flat[offset : offset + out_dim]
        offset += out_dim
        layers.append((w, b))
    h = x
    margin = np.inf
    for w, b in layers[:-1]:
        z = h @ w + b
        margin = min(margin, float(np.abs(z).min()))
        h = np.maximum(z, 0.0)
    return margin


def _fd_param_grad(scalar_fn, params):
    base = params.flat
    grad = np.empty(base.size)
    for i in range(base.size):
        up = base.copy()
        up[i] += FD_STEP
        down = base.copy()
        down[i] -= FD_STEP
        grad[i] = (
            scalar_fn(ModelParams(up, params.shapes))
            - scalar_fn(ModelParams(down, params.shapes))
        ) / (2.0 * FD_STEP)
    return grad


def _rel_err(analytic, fd):
    return float(np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12))


def _single_head_err(loss_fn, stream):
    for attempt in range(50):
        sub = stream.child("try", attempt)
        params = init_params([6, 10, 5], sub.child("w"))
        gen = sub.generator()
        x = gen.normal(size=(7, 6))
        y = gen.integers(0, 5, size=7)
        if _relu_margin(params, x) < _RELU_MARGIN:
            continue
        out = loss_fn(forward(params, x), y)
        analytic = backward(params, x, out.adjoint_o1)
        fd = _fd_param_grad(lambda p: loss_fn(forward(p, x), y).scalar, params)
        return _rel_err(analytic, fd)
    raise AssertionError("could not draw a crease-free instance")


def _pair_head_err(loss_fn, stream, scale=1.0, gap_temp=None):
    # scale 0.5 marks losses whose adjoints implement detached-target
    # halves: the differentiated objective is half the printed scalar on
    # each side. gap_temp enables the head-tie rejection at that softmax
    # temperature.
    for attempt in range(50):
        sub = stream.child("try", attempt)
        pa = init_params([5, 8, 4], sub.child("a"))
        pb = init_params([5, 8, 4], sub.child("b"))
        gen = sub.generator()
        x = gen.normal(size=(6, 5))
        y = gen.integers(0, 4, size=6)
        if _relu_margin(pa, x) < _RELU_MARGIN or _relu_margin(pb, x) < _RELU_MARGIN:
            continue
        o1 = forward(pa, x)
        o2 = forward(pb, x)
        if gap_temp is not None:
            q1 = tempered_softmax(o1, gap_temp)
            q2 = tempered_softmax(o2, gap_temp)
            if np.abs(q1 - q2).min() < _PROB_GAP:
                continue
        out = loss_fn(o1, o2, y)
        g1 = backward(pa, x, out.adjoint_o1)
        g2 = backward(pb, x, out.adjoint_o2)
        fd1 = _fd_param_grad(
            lambda p: scale * loss_fn(forward(p, x), o2, y).scalar, pa
        )
        fd2 = _fd_param_grad(
            lambda p: scale * loss_fn(o1, forward(p, x), y).scalar, pb
        )
        return max(_rel_err(g1, fd1), _rel_err(g2, fd2))
    raise AssertionError("could not draw a crease-free instance")


def test_criterion_1_gradient_oracle():
    start = time.perf_counter()
    root = RngStream(2026)
    hp = LsrHyperParams()
    sp = SymCeParams()
    checks = {
        "ce": lambda s: _single_head_err(ce_loss, s),
        "lsr_cls": lambda s: _pair_head_err(
            lambda o1, o2, y: lsr_cls_loss(
                o1, o2, y, float(s.child("lam").generator().uniform(0.05, 0.95)), hp
            ),
            s,
        ),
        "distill_js": lambda s: _pair_head_err(
            lambda o1, o2, y: self_distill_loss(
                o1, o2, LsrHyperParams(distill_kind="js")
            ),
            s,
        ),
        "distill_l1": lambda s: _pair_head_err(
            lambda o1, o2, y: self_distill_loss(
                o1, o2, LsrHyperParams(distill_kind="l1")
            ),
            s,
            gap_temp=hp.distill_temp,
        ),
        "distill_l2": lambda s: _pair_head_err(
            lambda o1, o2, y: self_distill_loss(
                o1, o2, LsrHyperParams(distill_kind="l2")
            ),
            s,
        ),
        "distill_cosine": lambda s: _pair_head_err(
            lambda o1, o2, y: self_distill_loss(
                o1, o2, LsrHyperParams(distill_kind="cosine")
            ),
            s,
            scale=0.5,
        ),
        "lsr_total": lambda s: _pair_head_err(
            lambda o1, o2, y: lsr_total_loss(
                o1, o2, y, float(s.child("lam").generator().uniform(0.05, 0.95)),
                0.3, LsrHyperParams(distill_kind="js"),
            ),
            s,
        ),
        "lsr_plus": lambda s: _pair_head_err(
            lambda o1, o2, y: lsr_plus_loss(
                o1, o2, y, float(s.child("lam").generator().uniform(0.05, 0.95)),
                0.3, LsrHyperParams(distill_kind="js", entropy_weight=0.6),
            ),
            s,
        ),
        "symmetric_ce": lambda s: _single_head_err(
            lambda o, y: symmetric_ce_loss(o, y, sp), s
        ),
    }
    worst = 0.0
    for name, check in checks.items():
        for i in range(20):
            err = check(root.child(name, i))
            worst = max(worst, err)
            assert err < FD_REL_TOL, f"{name} instance {i}: relative error {err:.2e}"
    elapsed = time.perf_counter() - start
    passed = worst < FD_REL_TOL and elapsed < 60.0
    record_criterion(
        1,
        passed,
        f"9 loss ops x 20 instances, worst FD relative error {worst:.2e} "
        f"(tol 1e-3), {elapsed:.1f}s",
    )
    assert elapsed < 60.0, f"oracle took {elapsed:.1f}s"


def test_criterion_2_transition_matrices():
    ds = generate_synthetic(10000, 10, 8, seed=5)
    per_class = 1000
    for ratio in (0.3, 0.4, 0.5, 0.6, 0.7):
        noisy = inject_symmetric_noise(ds, NoiseSpec("symmetric", ratio, seed=11))
        counts = transition_counts(noisy)
        flipped = int(round(ratio * per_class))
        base, rem = divmod(flipped, 9)
        for c in range(10):
            row = counts[c]
            assert row[c] == per_class - flipped
            off = np.delete(row, c)
            assert off.sum() == flipped
            assert set(np.unique(off)) <= {base, base + 1}
            assert int((off == base + 1).sum()) == rem
    for ratio in (0.2, 0.3, 0.4):
        noisy = inject_pairwise_noise(ds, NoiseSpec("pairwise", ratio, seed=11))
        counts = transition_counts(noisy)
        flipped = int(round(ratio * per_class))
        expect = np.zeros((10, 10), dtype=np.int64)
        for c in range(10):
            expect[c, c] = per_class - flipped
            expect[c, (c + 1) % 10] = flipped
        np.testing.assert_array_equal(counts, expect)
    record_criterion(
        2,
        True,
        "transition matrices exact for 5 symmetric and 3 pairwise ratios "
        "(M=10, 1000 samples per class)",
    )


def test_criterion_3_analytic_values():
    sharp = sharpen(np.array([0.6, 0.4]), 0.5)
    np.testing.assert_allclose(sharp, [0.6923, 0.3077], atol=1e-4)

    js = self_distill_loss(
        np.array([[40.0, 0.0]]),
        np.array([[0.0, 40.0]]),
        LsrHyperParams(distill_kind="js", distill_temp=1.0),
    ).scalar
    assert abs(js - math.log(2.0)) < 1e-3

    uniform_ce = ce_loss(np.zeros((3, 10)), np.array([0, 4, 9])).scalar
    assert abs(uniform_ce - math.log(10.0)) < 1e-9

    sym = symmetric_ce_loss(
        np.zeros((1, 2)), np.array([0]), SymCeParams(alpha=0.1, beta=1.0, log_zero=-4.0)
    ).scalar
    assert abs(sym - 2.0693) < 1e-4

    record_criterion(
        3,
        True,
        "sharpen [0.6923, 0.3077], disjoint JS ln2, uniform CE ln10, "
        "symmetric CE 2.0693 all within stated tolerances",
    )


def _last10(curve):
    return float(curve[-10:].mean())


def test_criterion_4_memorization_decline(grid):
    start = time.perf_counter()
    curves = [grid("fedavg_ce", "symmetric", 0.4, seed) for seed in (0, 1, 2)]
    elapsed = time.perf_counter() - start
    hits = 0
    parts = []
    for seed, acc in enumerate(curves):
        peak_round = int(np.argmax(acc))
        peak = float(acc[peak_round])
        last10 = _last10(acc)
        ok = peak_round < len(acc) - 1 and peak - last10 >= 0.03
        hits += ok
        parts.append(f"seed {seed}: peak {peak:.4f}@r{peak_round}, last10 {last10:.4f}")
    passed = hits >= 2 and elapsed <= 600.0
    record_criterion(
        4,
        passed,
        f"plain CE declines >=3pt after an early peak in {hits}/3 seeds "
        f"({'; '.join(parts)}), {elapsed:.0f}s",
    )
    assert hits >= 2, parts
    assert elapsed <= 600.0, f"three 150-round runs took {elapsed:.0f}s"


def test_criterion_5_method_ordering(grid):
    seeds = (0, 1, 2)
    ce_sym = np.mean([_last10(grid("fedavg_ce", "symmetric", 0.4, s)) for s in seeds])
    lsr_sym = np.mean([_last10(grid("lsr", "symmetric", 0.4, s)) for s in seeds])
    ce_pair = np.mean([_last10(grid("fedavg_ce", "pairwise", 0.4, s)) for s in seeds])
    lsr_pair = np.mean([_last10(grid("lsr", "pairwise", 0.4, s)) for s in seeds])
    sym_margin = lsr_sym - ce_sym
    pair_margin = lsr_pair - ce_pair
    sym_ok = sym_margin >= 0.05
    pair_ok = pair_margin >= 0.03
    record_criterion(
        5,
        sym_ok and pair_ok,
        f"symmetric 0.4: lsr {lsr_sym:.4f} vs ce {ce_sym:.4f}, margin "
        f"{100 * sym_margin:+.2f}pt (need >= +5); pairwise 0.4: lsr {lsr_pair:.4f} "
        f"vs ce {ce_pair:.4f}, margin {100 * pair_margin:+.2f}pt (need >= +3)",
    )
    assert pair_ok, f"pairwise margin {100 * pair_margin:+.2f}pt below +3pt"
    assert sym_ok, f"symmetric margin {100 * sym_margin:+.2f}pt below +5pt"


def test_criterion_6_ablation_directions(grid):
    seeds = (0, 1, 2)
    aug_hits = 0
    aug_parts = []
    for s in seeds:
        full = _last10(grid("lsr", "symmetric", 0.5, s))
        plain_aug = _last10(grid("ce_aug", "symmetric", 0.5, s))
        aug_hits += full > plain_aug
        aug_parts.append(f"{full:.4f}>{plain_aug:.4f}")
    gamma_hits = 0
    gamma_parts = []
    for s in seeds:
        full = _last10(grid("lsr", "symmetric", 0.7, s))
        no_reg = _last10(grid("lsr", "symmetric", 0.7, s, gamma=0.0))
        gamma_hits += full > no_reg
        gamma_parts.append(f"{full:.4f}>{no_reg:.4f}")
    passed = aug_hits >= 2 and gamma_hits >= 2
    record_criterion(
        6,
        passed,
        f"mixing removal hurts at 0.5 symmetric in {aug_hits}/3 seeds "
        f"({', '.join(aug_parts)}); gamma=0 hurts at 0.7 symmetric in "
        f"{gamma_hits}/3 seeds ({', '.join(gamma_parts)})",
    )
    assert aug_hits >= 2, aug_parts
    assert gamma_hits >= 2, gamma_parts


def test_criterion_7_collapse_equivalence():
    total = generate_synthetic(1200, 10, 16, seed=8)
    train = inject_symmetric_noise(
        subset(total, np.arange(1000)), NoiseSpec("symmetric", 0.4, seed=8)
    )
    test = subset(total, np.arange(1000, 1200))
    shards = partition_iid(train, 10, seed=8)
    base = dict(
        num_clients=10, clients_per_round=3, rounds=8, local_epochs=2,
        batch_size=20, lr=0.15, warmup_rounds=0, hidden_layers=(16,),
    )
    ce, ce_history = run_with_history(
        FedConfig(**base, method="fedavg_ce"), train, shards, test, seed=4,
    )
    collapsed, collapsed_history = run_with_history(
        FedConfig(**base, method="lsr"), train, shards, test, seed=4,
        hp=LsrHyperParams(sharpen_temp=1.0, fix_lambda=1.0, gamma=0.0),
        policy=AugmentPolicy(),
    )
    same = all(
        np.array_equal(a.flat, b.flat)
        for (a,), (b,) in zip(ce_history, collapsed_history)
    ) and np.array_equal(ce.final_params[0].flat, collapsed.final_params[0].flat)
    record_criterion(
        7,
        same,
        "collapsed mixing (T=1, lambda=1, gamma=0, identity augmentation) is "
        "bit-identical to plain CE over all 8 rounds",
    )
    assert same
    assert [m.test_accuracy for m in ce.metrics] == [
        m.test_accuracy for m in collapsed.metrics
    ]


def test_criterion_8_determinism(tmp_path):
    cfg = {
        "seed": 3,
        "dataset": {"n_train": 2000, "n_test": 400, "num_classes": 10, "dim": 32},
        "noise": {"kind": "symmetric", "ratio": 0.4},
        "federation": {
            "num_clients": 20, "clients_per_round": 5, "rounds": 10,
            "local_epochs": 5, "batch_size": 60, "lr": 0.15, "method": "lsr",
        },
    }
    blobs = []
    for name, workers in (("w1", 1), ("w1-again", 1), ("w3", 3), ("w5", 5)):
        run = dict(cfg)
        run["out"] = str(tmp_path / name)
        run["federation"] = dict(cfg["federation"], workers=workers)
        run_experiment(config=run)
        blobs.append((tmp_path / name / "metrics.csv").read_bytes())
    same = all(b == blobs[0] for b in blobs[1:])
    record_criterion(
        8,
        same,
        "metrics CSV byte-identical across a re-run and worker counts 1/3/5",
    )
    assert same


def test_criterion_9_composition(grid):
    seeds = (0, 1, 2)
    hits = 0
    parts = []
    for s in seeds:
        plain = _last10(grid("coteaching", "symmetric", 0.7, s))
        combined = _last10(grid("coteaching_lsr", "symmetric", 0.7, s))
        hits += combined >= plain
        parts.append(f"{combined:.4f}>={plain:.4f}")
    passed = hits >= 2
    record_criterion(
        9,
        passed,
        f"co-teaching with mixing beats plain co-teaching at 0.7 symmetric in "
        f"{hits}/3 seeds ({', '.join(parts)})",
    )
    assert hits >= 2, parts
