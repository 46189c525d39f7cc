"""Round loop, client selection, aggregation, and method dispatch."""

import dataclasses
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

import fednoise.federation

from conftest import run_with_history
from fednoise.data import (
    ClientShard,
    NoiseSpec,
    generate_synthetic,
    inject_symmetric_noise,
    partition_iid,
    partition_noniid,
    subset,
)
from fednoise.augment import AugmentPolicy, FeatureJitter
from fednoise.federation import (
    METHODS,
    CoteachingConfig,
    FedConfig,
    RoundMetrics,
    aggregate,
    coteach_keep_ratio,
    evaluate,
    gamma_schedule,
    local_train_ce,
    local_train_coteaching,
    run_federation,
    select_clients,
)
from fednoise.losses import (
    LsrHyperParams,
    SymCeParams,
    ce_loss,
    ce_per_sample,
    lsr_total_loss,
    sharpened_ce_loss,
    sharpened_ce_per_sample,
    small_loss_select,
)
from fednoise.model import ModelParams, backward, forward, init_params, sgd_step
from fednoise.numerics import RngStream, _mix_terms


def small_world(n=120, clients=6, seed=0, noise=0.0):
    ds = generate_synthetic(n + 40, 4, 6, seed)
    train = ds
    from fednoise.data import subset

    train = subset(ds, np.arange(n))
    test = subset(ds, np.arange(n, n + 40))
    if noise:
        train = inject_symmetric_noise(train, NoiseSpec("symmetric", noise, seed=seed))
    shards = partition_iid(train, clients, seed=seed)
    return train, shards, test


def uneven_shards(train):
    """Six shards of the small world: clients 0, 2, 4 hold 15 rows, 1, 3, 5 hold 25."""
    order = np.random.default_rng(8).permutation(train.n)
    bounds = np.cumsum([0, 15, 25, 15, 25, 15, 25])
    return [ClientShard(c, order[bounds[c] : bounds[c + 1]]) for c in range(6)]


class TestFedConfig:
    def test_defaults(self):
        cfg = FedConfig()
        assert cfg.num_clients == 100
        assert cfg.clients_per_round == 5
        assert cfg.local_epochs == 5
        assert cfg.batch_size == 60
        assert cfg.lr == 0.15
        assert cfg.hidden_layers == (128, 64)

    def test_validation(self):
        with pytest.raises(ValueError):
            FedConfig(num_clients=0)
        with pytest.raises(ValueError):
            FedConfig(clients_per_round=101)
        with pytest.raises(ValueError):
            FedConfig(rounds=-1)
        with pytest.raises(ValueError):
            FedConfig(local_epochs=-1)
        with pytest.raises(ValueError):
            FedConfig(batch_size=0)
        with pytest.raises(ValueError):
            FedConfig(lr=-0.1)
        with pytest.raises(ValueError):
            FedConfig(method="label_smoothing")
        with pytest.raises(ValueError):
            FedConfig(rounds=10, warmup_rounds=11)
        with pytest.raises(ValueError):
            FedConfig(hidden_layers=())
        with pytest.raises(ValueError, match="hidden width 2.7 is not an integer"):
            FedConfig(hidden_layers=(2.7, 3))
        with pytest.raises(ValueError):
            FedConfig(workers=0)

    def test_hidden_layers_coerced_to_ints(self):
        cfg = FedConfig(hidden_layers=[16.0, 8.0])
        assert cfg.hidden_layers == (16, 8)


class TestCoteachingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoteachingConfig(noise_rate=1.0)
        with pytest.raises(ValueError):
            CoteachingConfig(ramp_rounds=0)
        # The kept share ramps by round; there is no other schedule unit.
        assert [f.name for f in dataclasses.fields(CoteachingConfig)] == [
            "noise_rate", "ramp_rounds"]


# Every int field of the two configs refuses a bool or a non-integer by name,
# before any bound is checked, and takes a numpy integer.
INT_FIELDS = [
    *((FedConfig, name) for name in (
        "num_clients", "clients_per_round", "rounds", "local_epochs", "batch_size",
        "warmup_rounds", "workers",
    )),
    (CoteachingConfig, "ramp_rounds"),
]


@pytest.mark.parametrize("cls,name", INT_FIELDS, ids=[name for _, name in INT_FIELDS])
def test_int_fields_take_integers_only(cls, name):
    for value in (2.0, 2.5, True):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            cls(**{name: value})
    value = np.int64(getattr(cls(), name))
    assert getattr(cls(**{name: value}), name) == value


class TestSelectClients:
    def test_distinct_in_range_deterministic(self):
        a = select_clients(100, 5, RngStream(1).child("select", 0))
        b = select_clients(100, 5, RngStream(1).child("select", 0))
        np.testing.assert_array_equal(a, b)
        assert a.size == 5
        assert np.unique(a).size == 5
        assert a.min() >= 0 and a.max() < 100

    def test_rounds_differ(self):
        draws = {
            tuple(select_clients(100, 5, RngStream(1).child("select", t))) for t in range(10)
        }
        assert len(draws) > 1

    def test_all_clients_eventually_seen(self):
        seen = set()
        for t in range(200):
            seen.update(select_clients(20, 5, RngStream(2).child("select", t)).tolist())
        assert seen == set(range(20))

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            select_clients(5, 6, RngStream(0))
        with pytest.raises(ValueError):
            select_clients(5, 0, RngStream(0))


class TestGammaSchedule:
    def test_linear_ramp_then_flat(self):
        assert gamma_schedule(0, 20, 0.4) == 0.0
        np.testing.assert_allclose(gamma_schedule(10, 20, 0.4), 0.2)
        assert gamma_schedule(20, 20, 0.4) == 0.4
        assert gamma_schedule(150, 20, 0.4) == 0.4

    def test_zero_warmup_is_full_weight(self):
        assert gamma_schedule(0, 0, 0.3) == 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_schedule(-1, 10, 0.2)
        with pytest.raises(ValueError):
            gamma_schedule(0, 10, -0.2)


class TestCoteachKeepRatio:
    def test_ramp_shape(self):
        ct = CoteachingConfig(noise_rate=0.4, ramp_rounds=10)
        assert coteach_keep_ratio(ct, 0) == 1.0
        np.testing.assert_allclose(coteach_keep_ratio(ct, 5), 0.8)
        np.testing.assert_allclose(coteach_keep_ratio(ct, 10), 0.6)
        np.testing.assert_allclose(coteach_keep_ratio(ct, 100), 0.6)

    def test_zero_rate_keeps_everything(self):
        ct = CoteachingConfig(noise_rate=0.0)
        assert coteach_keep_ratio(ct, 50) == 1.0


def stack(*nets):
    """One (K, P) cohort holding the given networks as its rows."""
    return ModelParams(np.stack([net.flat for net in nets]), nets[0].shapes)


class TestAggregate:
    def test_single_model_unchanged_bitwise(self):
        p = init_params([4, 3, 2], RngStream(0))
        out = aggregate(stack(p), [10])
        np.testing.assert_array_equal(out.flat, p.flat)

    def test_identical_models_bit_identical(self):
        p = init_params([4, 3, 2], RngStream(0))
        out = aggregate(stack(p, p, p), [3, 5, 2])
        np.testing.assert_array_equal(out.flat, p.flat)

    def test_weighted_mean(self):
        cohort = ModelParams(np.array([[1.0, 0.0, 0.0], [4.0, 3.0, 0.0]]), ((2, 1),))
        out = aggregate(cohort, [1, 3])
        np.testing.assert_allclose(out.flat, [3.25, 2.25, 0.0], atol=1e-15)

    def test_validation(self):
        p = init_params([4, 3, 2], RngStream(0))
        with pytest.raises(ValueError):
            aggregate(ModelParams(np.zeros((0, p.flat.size)), p.shapes), [])
        with pytest.raises(ValueError):
            aggregate(stack(p), [1, 2])
        with pytest.raises(ValueError):
            aggregate(stack(p), [0])

    def test_only_a_stacked_cohort_is_accepted(self):
        # One (P,) network is not a cohort, and a list of networks is no
        # second accepted form.
        p = init_params([4, 3, 2], RngStream(0))
        with pytest.raises(ValueError, match=r"\(K, P\)"):
            aggregate(p, [1])
        with pytest.raises(AttributeError):
            aggregate([p], [1])


def diverging_world():
    """700 synthetic rows: 600 training rows under symmetric 0.4 noise,
    iid over 10 clients, and 100 test rows."""
    total = generate_synthetic(700, 10, 16, seed=8)
    train = inject_symmetric_noise(
        subset(total, np.arange(600)), NoiseSpec("symmetric", 0.4, seed=8)
    )
    return train, partition_iid(train, 10, seed=8), subset(total, np.arange(600, 700))


class TestEvaluate:
    def test_matches_direct_argmax_across_chunks(self, monkeypatch):
        train, _, test = small_world()
        p = init_params([6, 8, 4], RngStream(3))
        direct = float(
            (np.argmax(forward(p, test.features), axis=1) == test.true_labels).mean()
        )
        assert evaluate(p, test) == direct
        monkeypatch.setattr(fednoise.federation, "_EVAL_CHUNK", 7)
        assert evaluate(p, test) == direct

    def test_non_finite_logits_raise_instead_of_scoring(self):
        # Finite parameters whose logits overflow on some test row: argmax
        # would still score them, so evaluate refuses the network instead.
        _, _, test = small_world()
        p = init_params([6, 8, 4], RngStream(3))
        huge = ModelParams(p.flat * 1e200, p.shapes)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="test-set logits must be finite"):
                evaluate(huge, test)

    def test_empty_test_set_rejected(self):
        from fednoise.data import LabeledDataset

        empty = LabeledDataset(np.zeros((0, 4)), np.zeros(0, int), np.zeros(0, int), 2)
        p = init_params([4, 3, 2], RngStream(0))
        with pytest.raises(ValueError):
            evaluate(p, empty)


class TestRunFederationMechanics:
    @pytest.mark.parametrize("method", ["fedavg_ce", "lsr", "coteaching"])
    def test_one_step_sgd_oracle(self, method):
        # single client, one round, full-batch epochs: the federated result
        # must equal SGD steps hand-computed from the public model and losses
        twin = method == "coteaching"
        train, _, test = small_world(n=20, clients=1, seed=4)
        shards = partition_iid(train, 1, seed=4)
        cfg = FedConfig(
            num_clients=1, clients_per_round=1, rounds=1, local_epochs=2 if twin else 1,
            batch_size=20, lr=0.15, method=method, warmup_rounds=0, hidden_layers=(5,),
        )
        hp = LsrHyperParams()
        policy = AugmentPolicy((FeatureJitter(0.3),))
        # round 0 of the ramp keeps every row
        ct = CoteachingConfig(noise_rate=0.4, ramp_rounds=2)
        result = run_federation(cfg, train, shards, test, seed=11, hp=hp, ct=ct, policy=policy)

        stream = RngStream(11)
        nets = [init_params([6, 5, 4], stream.child("init", i)) for i in range(1 + twin)]
        client_stream = stream.child("client", 0, 0)
        losses = []
        for epoch in range(cfg.local_epochs):
            order = client_stream.child("shuffle", epoch).generator().permutation(20)
            rows = shards[0].indices[order]
            x = train.features[rows]
            y = train.observed_labels[rows]
            if method == "fedavg_ce":
                out = ce_loss(forward(nets[0], x), y)
                grads = [backward(nets[0], x, out.adjoint_o1)]
                losses.append(out.scalar)
            elif method == "lsr":
                # The policy's one op, jitter, and the Beta(1, 1) mixing weight,
                # drawn by hand from numpy-seeded generators of the client stream.
                jitter = client_stream.child("augment", epoch, 0, 0).generator()
                x_aug = x + jitter.normal(0.0, 0.3, size=x.shape)
                lam = client_stream.child("mixweight", epoch, 0).generator().beta(1.0, 1.0)
                p = nets[0]
                out = lsr_total_loss(forward(p, x), forward(p, x_aug), y, lam, hp.gamma, hp)
                assert np.any(out.adjoint_o2)
                grads = [backward(p, x, out.adjoint_o1) + backward(p, x_aug, out.adjoint_o2)]
                losses.append(out.scalar)
            else:
                keep = coteach_keep_ratio(ct, 0)
                picks = [small_loss_select(ce_per_sample(forward(p, x), y), keep) for p in nets]
                assert picks[0].size == 20
                # each net trains on its peer's picks
                outs = [ce_loss(forward(p, x[q]), y[q]) for p, q in zip(nets, picks[::-1])]
                grads = [
                    backward(p, x[q], o.adjoint_o1) for p, q, o in zip(nets, picks[::-1], outs)
                ]
                losses.append(float(np.mean([o.scalar for o in outs])))
            nets = [sgd_step(p, g, 0.15) for p, g in zip(nets, grads)]

        assert len(result.final_params) == len(nets)
        for got, want in zip(result.final_params, nets):
            np.testing.assert_array_equal(got.flat, want.flat)
        assert result.metrics[0].mean_train_loss == float(np.mean(losses))

    def test_round_metrics_fields(self):
        train, shards, test = small_world()
        cfg = FedConfig(
            num_clients=6, clients_per_round=2, rounds=3, local_epochs=1,
            batch_size=10, method="lsr", warmup_rounds=2, hidden_layers=(5,),
        )
        hp = LsrHyperParams(gamma=0.4)
        result = run_federation(cfg, train, shards, test, seed=0, hp=hp)
        assert len(result.metrics) == 3
        for t, m in enumerate(result.metrics):
            assert isinstance(m, RoundMetrics)
            assert m.round == t
            assert 0.0 <= m.test_accuracy <= 1.0
            assert len(m.selected_clients) == 2
            assert all(0 <= c < 6 for c in m.selected_clients)
            np.testing.assert_allclose(m.gamma_t, gamma_schedule(t, 2, 0.4))

    def test_zero_rounds_returns_init(self):
        train, shards, test = small_world()
        cfg = FedConfig(
            num_clients=6, clients_per_round=2, rounds=0, local_epochs=1,
            batch_size=10, method="fedavg_ce", warmup_rounds=0, hidden_layers=(5,),
        )
        result = run_federation(cfg, train, shards, test, seed=9)
        assert result.metrics == []
        expect = init_params([6, 5, 4], RngStream(9).child("init", 0))
        np.testing.assert_array_equal(result.final_params[0].flat, expect.flat)

    def test_zero_epochs_rejected(self):
        # rounds = 0 is the one dry run; a round trains at least one epoch.
        with pytest.raises(ValueError, match="local_epochs must be positive, got 0"):
            FedConfig(local_epochs=0)

    @pytest.mark.parametrize("method", METHODS)
    def test_worker_count_does_not_change_results(self, method):
        # Each round trains one cohort of 15-row and one of 25-row shards.
        # workers=2 cuts each cohort into uneven 2+1 chunks, workers=3 and 4
        # into chunks of one client; all must agree with workers=1 bit for
        # bit. The worker counts run in one test, so workers=1 runs once.
        train, _, test = small_world(noise=0.3)
        shards = uneven_shards(train)
        base = dict(
            num_clients=6, clients_per_round=6, rounds=3, local_epochs=2,
            batch_size=5, method=method, warmup_rounds=1, hidden_layers=(6,),
        )
        kw = dict(
            seed=5, hp=LsrHyperParams(entropy_weight=0.1),
            policy=AugmentPolicy((FeatureJitter(0.4),)),
        )
        a = run_federation(FedConfig(**base, workers=1), train, shards, test, **kw)
        for workers in (2, 3, 4):
            b = run_federation(FedConfig(**base, workers=workers), train, shards, test, **kw)
            for got, want in zip(a.final_params, b.final_params, strict=True):
                np.testing.assert_array_equal(got.flat, want.flat, err_msg=f"workers={workers}")
            for field in ("test_accuracy", "mean_train_loss", "selected_clients"):
                np.testing.assert_array_equal(
                    [getattr(m, field) for m in a.metrics],
                    [getattr(m, field) for m in b.metrics],
                    err_msg=f"{field} at workers={workers}",
                )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_chunk_is_one_trainer_call(self, monkeypatch, workers):
        # run_federation must look local_train_ce up in the module at call
        # time (a tracer patches it there) and call it once per chunk: each
        # shard-size cohort, in selection order, cut into min(workers, K)
        # contiguous chunks of near-equal size.
        train, _, test = small_world()
        shards = uneven_shards(train)
        calls = []

        def spy(nets, dataset, chunk, cfg, streams):
            assert len(chunk) == len(streams)
            calls.append(tuple(shard.client_id for shard in chunk))
            return local_train_ce(nets, dataset, chunk, cfg, streams)

        monkeypatch.setattr(fednoise.federation, "local_train_ce", spy)
        cfg = FedConfig(
            num_clients=6, clients_per_round=6, rounds=3, local_epochs=1, batch_size=5,
            method="fedavg_ce", warmup_rounds=0, hidden_layers=(5,), workers=workers,
        )
        result = run_federation(cfg, train, shards, test, seed=3)
        for m in result.metrics:
            selected = list(m.selected_clients)
            sizes = dict.fromkeys(shards[c].n_k for c in selected)
            cohorts = [[c for c in selected if shards[c].n_k == n] for n in sizes]
            n_calls = sum(min(workers, len(ids)) for ids in cohorts)
            round_calls, calls = calls[:n_calls], calls[n_calls:]
            # Pool threads may start a round's chunks in any order.
            round_calls.sort(key=lambda ids: selected.index(ids[0]))
            for ids in cohorts:
                chunks = [list(chunk) for chunk in round_calls if chunk[0] in ids]
                assert len(chunks) == min(workers, len(ids))
                assert [c for chunk in chunks for c in chunk] == ids
                assert max(map(len, chunks)) - min(map(len, chunks)) <= 1
        assert calls == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_round_aggregates_in_selection_order(self, workers):
        # The two shard-size cohorts train apart, and aggregation must still
        # see the clients in selection order, which fixes its anchor and its
        # weights: the round equals each client trained alone, stacked in
        # selection order and averaged.
        train, _, test = small_world()
        shards = uneven_shards(train)
        cfg = FedConfig(
            num_clients=6, clients_per_round=4, rounds=1, local_epochs=2, batch_size=5,
            method="fedavg_ce", warmup_rounds=0, hidden_layers=(5,), workers=workers,
        )
        result = run_federation(cfg, train, shards, test, seed=3)
        selected = list(result.metrics[0].selected_clients)
        sizes = [shards[c].n_k for c in selected]
        assert sorted(sizes, key=sizes.index) != sizes  # the cohorts interleave

        stream = RngStream(3)
        net = init_params([6, 5, 4], stream.child("init", 0))
        alone = [
            local_train_ce((net,), train, [shards[c]], cfg, [stream.child("client", c, 0)])
            for c in selected
        ]
        stacked = np.concatenate([nets[0].flat for nets, _ in alone])
        want = aggregate(ModelParams(stacked, net.shapes), sizes)
        np.testing.assert_array_equal(result.final_params[0].flat, want.flat)
        losses = np.concatenate([loss for _, loss in alone])
        assert result.metrics[0].mean_train_loss == float(np.mean(losses))

    @pytest.mark.parametrize(
        "method, partition",
        [("lsr", "iid"), ("fedavg_ce", "iid"), ("ce_aug", "iid"), ("sym_ce_lsr", "iid"),
         ("coteaching_lsr", "noniid")],
    )
    def test_round_depends_only_on_t_and_networks(self, method, partition):
        # Six rounds, then rounds 6-11 through _round from networks rebuilt
        # out of nothing but each network's bytes and shapes: metrics and
        # final networks must be an uninterrupted 12-round run's, bit for bit.
        train, shards, test = small_world(noise=0.3)
        if partition == "noniid":
            shards = partition_noniid(train, 6, 2, seed=0)
        cfg = FedConfig(
            num_clients=6, clients_per_round=3, rounds=12, local_epochs=2, batch_size=10,
            method=method, warmup_rounds=4, hidden_layers=(6,),
        )
        hp, sp = LsrHyperParams(), SymCeParams()
        ct = CoteachingConfig(noise_rate=0.3, ramp_rounds=8)
        policy = AugmentPolicy((FeatureJitter(0.3),))
        kw = dict(hp=hp, sp=sp, ct=ct, policy=policy)
        whole = run_federation(cfg, train, shards, test, seed=5, **kw)
        head = run_federation(dataclasses.replace(cfg, rounds=6), train, shards, test, seed=5, **kw)

        nets = tuple(
            ModelParams(np.frombuffer(net.flat.tobytes()), net.shapes)
            for net in head.final_params
        )
        metrics = list(head.metrics)
        for t in range(6, 12):
            nets, m = fednoise.federation._round(
                t, nets, map, cfg, train, shards, test, RngStream(5), hp, sp, ct, policy
            )
            metrics.append(m)
        assert metrics == whole.metrics
        assert len(nets) == len(whole.final_params)
        for got, want in zip(nets, whole.final_params):
            assert got.shapes == want.shapes
            assert got.flat.tobytes() == want.flat.tobytes()

    def test_a_second_round_reuses_every_step_path(self, monkeypatch):
        # 20 local epochs of 10 batches ask numerics.generators for
        # 20 * (2 * 10 + 1) = 420 step paths per lsr cohort (shuffle per
        # epoch, augment and mix weight per batch), more than an LRU cache
        # of 256 holds; round 2 asks for the same ones and must miss none.
        ds = generate_synthetic(240, 4, 6, 0)
        train, test = subset(ds, np.arange(200)), subset(ds, np.arange(200, 240))
        cfg = FedConfig(
            num_clients=2, clients_per_round=1, rounds=2, local_epochs=20,
            batch_size=10, method="lsr", warmup_rounds=0, hidden_layers=(4,),
        )
        misses = []
        real = fednoise.federation._round

        def spy(*args):
            out = real(*args)
            misses.append(_mix_terms.cache_info().misses)
            return out

        monkeypatch.setattr(fednoise.federation, "_round", spy)
        _mix_terms.cache_clear()
        run_federation(
            cfg, train, partition_iid(train, 2, seed=0), test, seed=0,
            policy=AugmentPolicy((FeatureJitter(0.3),)),
        )
        assert misses == [420, 420]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("method, lr", [("fedavg_ce", 1e12), ("lsr", 1e300)])
    def test_training_error_names_round_clients_method_and_lr(self, method, lr, workers):
        # A trainer's ValueError (here a diverged network's non-finite
        # logits) reaches the caller naming where it happened, without a
        # numpy warning on the way.
        train, shards, test = diverging_world()
        cfg = FedConfig(
            num_clients=10, clients_per_round=3, rounds=4, local_epochs=2, batch_size=20,
            method=method, warmup_rounds=0, hidden_layers=(16,), lr=lr, workers=workers,
        )
        with pytest.raises(ValueError) as info:
            run_federation(cfg, train, shards, test, seed=4)
        head = re.escape(f", method {method}, lr {lr:g}: clients [")
        where = re.match(rf"round (\d+){head}([\d, ]+)\] failed: ", str(info.value))
        assert where, str(info.value)
        selected = select_clients(10, 3, RngStream(4).child("select", int(where[1])))
        ids = [int(c) for c in where[2].split(", ")]
        assert set(ids) <= set(selected.tolist())
        assert isinstance(info.value.__cause__, ValueError)
        assert str(info.value).endswith(f"failed: {info.value.__cause__}")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", ["fedavg_ce", "ce_aug", "coteaching_lsr"])
    def test_training_error_names_the_diverged_client_at_any_workers(self, method, monkeypatch):
        # The error names the selected clients whose training fails alone,
        # and the whole message is the same at workers 1, 2 and 3. At lr
        # 1e200 every co-teaching client fails in round 0, through both
        # networks. The ce_aug run's global network overflows on a test row
        # in round 1, which evaluation refuses before any client fails;
        # unscored, its round 2 names all three clients, although one
        # lockstep cohort stops at client 2's first failing step.
        train, shards, test = diverging_world()
        lr = 1e200 if method == "coteaching_lsr" else 1e12

        def messages():
            out = []
            for workers in (1, 2, 3):
                cfg = FedConfig(
                    num_clients=10, clients_per_round=3, rounds=4, local_epochs=2,
                    batch_size=20, method=method, warmup_rounds=0, hidden_layers=(16,),
                    lr=lr, workers=workers,
                )
                with pytest.raises(ValueError) as info:
                    run_federation(cfg, train, shards, test, seed=4)
                out.append(str(info.value))
            assert out[0] == out[1] == out[2]
            return out[0]

        where, why = {
            "fedavg_ce": ("round 3", "clients [9] failed: logits"),
            "ce_aug": ("round 1", "test-set logits"),
            "coteaching_lsr": ("round 0", "clients [6, 8, 2] failed: logits"),
        }[method]
        assert messages() == f"{where}, method {method}, lr {lr:g}: {why} must be finite"
        if method == "ce_aug":
            monkeypatch.setattr(fednoise.federation, "evaluate", lambda net, test_set: 0.0)
            assert messages() == (
                "round 2, method ce_aug, lr 1e+12: clients [8, 7, 2] failed: logits must be finite"
            )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_step_past_the_float_range_names_every_client(self, monkeypatch, workers):
        # Finite logits but a gradient that sends every client's SGD step
        # past the float range: the parameters' own check fails the round,
        # and each selected client, trained alone, fails with it.
        train, shards, test = small_world()

        def overflowing(logits, labels):
            out = ce_loss(logits, labels)
            return dataclasses.replace(out, adjoint_o1=out.adjoint_o1 * 1e300)

        monkeypatch.setattr(fednoise.federation, "ce_loss", overflowing)
        cfg = FedConfig(
            num_clients=6, clients_per_round=3, rounds=2, local_epochs=1, batch_size=10,
            method="fedavg_ce", warmup_rounds=0, hidden_layers=(5,), lr=1e10, workers=workers,
        )
        with pytest.raises(ValueError) as info:
            run_federation(cfg, train, shards, test, seed=3)
        selected = select_clients(6, 3, RngStream(3).child("select", 0)).tolist()
        assert str(info.value) == (
            f"round 0, method fedavg_ce, lr 1e+10: clients {selected} failed: "
            "parameters must be finite"
        )

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_failed_round_names_the_clients_that_fail_alone(self, monkeypatch, workers):
        # A trainer that refuses chosen clients: every chunk holding one
        # fails, and the round names exactly the chosen clients, in
        # selection order, with the first one's own error as the cause.
        train, shards, test = small_world()
        refused = {1, 4}

        def spy(nets, dataset, chunk, cfg, streams):
            bad = [shard.client_id for shard in chunk if shard.client_id in refused]
            if bad:
                raise ValueError(f"client {bad[0]} refused")
            return local_train_ce(nets, dataset, chunk, cfg, streams)

        monkeypatch.setattr(fednoise.federation, "local_train_ce", spy)
        cfg = FedConfig(
            num_clients=6, clients_per_round=6, rounds=1, local_epochs=1, batch_size=10,
            method="fedavg_ce", warmup_rounds=0, hidden_layers=(5,), workers=workers,
        )
        net = init_params([6, 5, 4], RngStream(3).child("init", 0))
        args = (cfg, train, shards, test, RngStream(3), LsrHyperParams(), SymCeParams(),
                CoteachingConfig(), AugmentPolicy())
        with ThreadPoolExecutor(workers) as pool:
            with pytest.raises(ValueError) as info:
                fednoise.federation._round(0, (net,), pool.map, *args)
        selected = select_clients(6, 6, RngStream(3).child("select", 0)).tolist()
        named = [c for c in selected if c in refused]
        assert str(info.value) == (
            f"round 0, method fedavg_ce, lr 0.15: clients {named} failed: "
            f"client {named[0]} refused"
        )
        assert str(info.value.__cause__) == f"client {named[0]} refused"

    @pytest.mark.parametrize("method", METHODS)
    def test_global_networks_are_one_tuple(self, method):
        # final_params and the networks each round returns are the tuple of
        # global networks: two for co-teaching, one for every other method.
        train, shards, test = small_world(noise=0.3)
        cfg = FedConfig(
            num_clients=6, clients_per_round=2, rounds=2, local_epochs=1,
            batch_size=10, method=method, warmup_rounds=0, hidden_layers=(5,),
        )
        result, history = run_with_history(cfg, train, shards, test, seed=1)
        count = 2 if method in ("coteaching", "coteaching_lsr") else 1
        assert len(history) == 2
        assert history[-1] is result.final_params
        for nets in (result.final_params, *history):
            assert isinstance(nets, tuple) and len(nets) == count
            assert all(isinstance(net, ModelParams) for net in nets)

    def test_trainer_rejects_a_wrong_network_count(self):
        # A single-network trainer given two networks, or co-teaching given
        # one, raises instead of training a subset of them.
        train, shards, _ = small_world()
        cfg = FedConfig(
            num_clients=6, clients_per_round=1, rounds=1, local_epochs=1,
            batch_size=10, method="fedavg_ce", warmup_rounds=0, hidden_layers=(5,),
        )
        co = dataclasses.replace(cfg, method="coteaching")
        net = init_params([6, 5, 4], RngStream(0))
        args = (train, shards[:1])
        streams = [RngStream(0).child("client", 0, 0)]
        ct, hp = CoteachingConfig(), LsrHyperParams()
        assert len(local_train_ce((net,), *args, cfg, streams)[0]) == 1
        assert len(local_train_coteaching((net, net), *args, co, ct, hp, streams, 0)[0]) == 2
        with pytest.raises(ValueError):
            local_train_ce((net, net), *args, cfg, streams)
        with pytest.raises(ValueError):
            local_train_coteaching((net,), *args, co, ct, hp, streams, 0)

    @pytest.mark.parametrize(
        "trainer, need",
        [
            ("local_train_ce", 1),
            ("local_train_ce_aug", 1),
            ("local_train_symce", 1),
            ("local_train_lsr", 1),
            ("local_train_symce_lsr", 1),
            ("local_train_coteaching", 2),
        ],
    )
    def test_trainer_names_the_network_count_it_needs(self, trainer, need):
        # Every trainer checks the count, and the error names the trainer,
        # the count it trains and the count it got.
        train, shards, _ = small_world()
        cfg = FedConfig(
            num_clients=6, clients_per_round=1, rounds=1, local_epochs=1,
            batch_size=10, method="fedavg_ce", warmup_rounds=0, hidden_layers=(5,),
        )
        streams = [RngStream(0).child("client", 0, 0)]
        sp, hp, ct = SymCeParams(), LsrHyperParams(), CoteachingConfig()
        policy = AugmentPolicy((FeatureJitter(0.3),))
        extra = {
            "local_train_ce": (streams,),
            "local_train_ce_aug": (policy, streams),
            "local_train_symce": (sp, streams),
            "local_train_lsr": (hp, policy, streams, 0.5),
            "local_train_symce_lsr": (sp, hp, policy, streams, 0.5),
            "local_train_coteaching": (ct, hp, streams, 0),
        }[trainer]
        net = init_params([6, 5, 4], RngStream(0))
        given = 3 - need
        noun = "network" if need == 1 else "networks"
        with pytest.raises(ValueError, match=f"^{trainer} trains {need} {noun}, got {given}$"):
            getattr(fednoise.federation, trainer)((net,) * given, train, shards[:1], cfg, *extra)

    def test_shard_count_mismatch_rejected(self):
        train, shards, test = small_world()
        cfg = FedConfig(
            num_clients=7, clients_per_round=2, rounds=1, warmup_rounds=0, hidden_layers=(5,)
        )
        with pytest.raises(ValueError):
            run_federation(cfg, train, shards, test, seed=0)

    def test_empty_shard_rejected_naming_the_client(self):
        train, shards, test = small_world()
        shards[3] = ClientShard(3, np.zeros(0, dtype=np.int64))
        cfg = FedConfig(
            num_clients=6, clients_per_round=2, rounds=1, local_epochs=1,
            batch_size=10, method="fedavg_ce", warmup_rounds=0, hidden_layers=(5,),
        )
        with pytest.raises(ValueError, match="client 3 has an empty shard"):
            run_federation(cfg, train, shards, test, seed=0)

    def test_local_trainer_rejects_empty_shard_naming_the_client(self):
        train, _, _ = small_world()
        cfg = FedConfig(
            num_clients=6, clients_per_round=2, rounds=1, local_epochs=1,
            batch_size=10, method="fedavg_ce", warmup_rounds=0, hidden_layers=(5,),
        )
        params = init_params([6, 5, 4], RngStream(0))
        with pytest.raises(ValueError, match="client 0 has an empty shard"):
            local_train_ce((params,), train, [ClientShard(0, [])], cfg, [RngStream(0)])

    def test_batch_larger_than_shard_warns_and_trains(self):
        # One warning per run, located at the caller, however many clients
        # and rounds train on the clamped batch, at either worker count.
        train, shards, test = small_world()
        for workers in (1, 2):
            cfg = FedConfig(
                num_clients=6, clients_per_round=3, rounds=2, local_epochs=1, batch_size=500,
                method="fedavg_ce", warmup_rounds=0, hidden_layers=(5,), workers=workers,
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = run_federation(cfg, train, shards, test, seed=0)
            assert [str(w.message) for w in caught] == [
                "batch size 500 exceeds shard size 20; "
                "such shards train on one full batch per epoch"
            ], workers
            assert caught[0].filename == __file__
            assert np.isfinite(result.metrics[0].mean_train_loss)

    def test_batch_warning_counts_ce_aug_rows_twice(self):
        train, shards, test = small_world()
        cfg = FedConfig(
            num_clients=6, clients_per_round=2, rounds=1, local_epochs=1, batch_size=30,
            method="ce_aug", warmup_rounds=0, hidden_layers=(5,),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_federation(cfg, train, shards, test, seed=0)  # 40 rows per client
        with pytest.warns(UserWarning, match="batch size 41 exceeds shard size 40"):
            run_federation(dataclasses.replace(cfg, batch_size=41), train, shards, test, seed=0)


class TestMethodEquivalences:
    def test_collapsed_lsr_is_bitwise_plain_ce(self):
        # T=1, lambda fixed at 1, gamma 0, identity augmentation: the
        # regularized method must walk the exact same trajectory as plain CE
        train, shards, test = small_world(noise=0.4)
        base = dict(
            num_clients=6, clients_per_round=3, rounds=3, local_epochs=2,
            batch_size=10, warmup_rounds=0, hidden_layers=(6,),
        )
        hp = LsrHyperParams(sharpen_temp=1.0, fix_lambda=1.0, gamma=0.0)
        ce = run_federation(FedConfig(**base, method="fedavg_ce"), train, shards, test, seed=3)
        lsr = run_federation(
            FedConfig(**base, method="lsr"), train, shards, test, seed=3,
            hp=hp, policy=AugmentPolicy(),
        )
        np.testing.assert_array_equal(ce.final_params[0].flat, lsr.final_params[0].flat)
        assert [m.test_accuracy for m in ce.metrics] == [m.test_accuracy for m in lsr.metrics]
        assert [m.mean_train_loss for m in ce.metrics] == [
            m.mean_train_loss for m in lsr.metrics
        ]

    @pytest.mark.parametrize("method", ["lsr", "sym_ce_lsr"])
    def test_zero_weighted_view_leaves_training_unchanged(self, method):
        # With gamma 0 the view mixed in with weight 0 gets a zero adjoint,
        # and summing its gradient must not move a bit: jittering that view,
        # or swapping which identical view carries the weight, changes nothing.
        train, shards, test = small_world(noise=0.4)
        cfg = FedConfig(
            num_clients=6, clients_per_round=3, rounds=3, local_epochs=2,
            batch_size=10, method=method, warmup_rounds=0, hidden_layers=(6,),
        )

        def run(fix_lambda, policy):
            result, history = run_with_history(
                cfg, train, shards, test, seed=3, policy=policy,
                hp=LsrHyperParams(fix_lambda=fix_lambda, gamma=0.0),
            )
            params = [p.flat.tobytes() for (p,) in history]
            return params, [m.mean_train_loss for m in result.metrics]

        identity = run(1.0, AugmentPolicy())
        assert run(1.0, AugmentPolicy((FeatureJitter(0.3),))) == identity
        assert run(0.0, AugmentPolicy()) == identity

    def test_lsr_plus_is_lsr_at_the_same_entropy_weight(self):
        # Both methods run lsr_total_loss; only harness's default entropy
        # weight tells them apart, and an explicit weight acts under lsr.
        train, shards, test = small_world(noise=0.4)
        policy = AugmentPolicy((FeatureJitter(0.3),))

        def run(method, entropy_weight):
            cfg = FedConfig(
                num_clients=6, clients_per_round=3, rounds=3, local_epochs=2,
                batch_size=10, method=method, warmup_rounds=1, hidden_layers=(6,),
            )
            result = run_federation(
                cfg, train, shards, test, seed=3, policy=policy,
                hp=LsrHyperParams(entropy_weight=entropy_weight),
            )
            return result.metrics, [p.flat.tobytes() for p in result.final_params]

        lsr = run("lsr", 0.6)
        assert run("lsr_plus", 0.6) == lsr
        assert run("lsr", 0.0) != lsr

    def test_coteaching_zero_rate_first_net_matches_plain_ce(self):
        # keep ratio 1 disables the selection, so network A sees exactly the
        # batches plain CE sees and must land on identical parameters
        train, shards, test = small_world(noise=0.3)
        base = dict(
            num_clients=6, clients_per_round=3, rounds=3, local_epochs=2,
            batch_size=10, warmup_rounds=0, hidden_layers=(6,),
        )
        ct = CoteachingConfig(noise_rate=0.0)
        ce = run_federation(FedConfig(**base, method="fedavg_ce"), train, shards, test, seed=6)
        co = run_federation(
            FedConfig(**base, method="coteaching"), train, shards, test, seed=6, ct=ct
        )
        np.testing.assert_array_equal(co.final_params[0].flat, ce.final_params[0].flat)

    def test_coteaching_lsr_at_temp_one_is_bitwise_coteaching(self):
        # At T = 1 the sharpened score and loss are plain CE's, so the two
        # co-teaching variants must walk the same trajectory.
        train, shards, test = small_world(noise=0.3)
        base = dict(
            num_clients=6, clients_per_round=3, rounds=3, local_epochs=2,
            batch_size=10, warmup_rounds=0, hidden_layers=(6,),
        )
        hp = LsrHyperParams(sharpen_temp=1.0)
        ct = CoteachingConfig(noise_rate=0.3, ramp_rounds=2)
        runs = [
            run_with_history(
                FedConfig(**base, method=m), train, shards, test, seed=4, hp=hp, ct=ct,
            )
            for m in ("coteaching", "coteaching_lsr")
        ]
        plain, sharp = ([[p.flat.tobytes() for p in nets] for nets in h] for _, h in runs)
        assert plain == sharp
        assert runs[0][0].metrics == runs[1][0].metrics

    @pytest.mark.parametrize("method", ["coteaching", "coteaching_lsr"])
    def test_coteaching_stack_equals_two_separate_cohorts(self, method):
        # The (2K, P) stack must train each network bit for bit as a (K, P)
        # cohort of its own would, on its peer's picks. Round 1 of a
        # one-round ramp keeps 7 of 10 rows in every batch.
        train, shards, _ = small_world(noise=0.3)
        cfg = FedConfig(
            num_clients=6, clients_per_round=3, rounds=1, local_epochs=2,
            batch_size=10, method=method, warmup_rounds=0, hidden_layers=(6,),
        )
        ct = CoteachingConfig(noise_rate=0.3, ramp_rounds=1)
        hp = LsrHyperParams()
        stream = RngStream(2)
        nets = tuple(init_params([6, 6, 4], stream.child("init", i)) for i in range(2))
        ids = [1, 4, 2]
        streams = [stream.child("client", c, 0) for c in ids]
        got, got_loss = local_train_coteaching(
            nets, train, [shards[c] for c in ids], cfg, ct, hp, streams, 1
        )

        per_sample, loss_fn = ce_per_sample, ce_loss
        if method == "coteaching_lsr":
            per_sample = partial(sharpened_ce_per_sample, hp=hp)
            loss_fn = partial(sharpened_ce_loss, hp=hp)
        k, clients = len(ids), np.arange(len(ids))[:, None]
        cohorts = [ModelParams(np.stack([net.flat] * k), net.shapes) for net in nets]
        feats = np.stack([train.features[shards[c].indices] for c in ids])
        labels = np.stack([train.observed_labels[shards[c].indices] for c in ids])
        losses = []
        for epoch in range(2):
            shuffles = [s.child("shuffle", epoch).generator() for s in streams]
            perm = np.stack([gen.permutation(20) for gen in shuffles])
            for start in (0, 10):
                rows = perm[:, start : start + 10]
                x, y = feats[clients, rows], labels[clients, rows]
                keep = coteach_keep_ratio(ct, 1)
                picks = [small_loss_select(per_sample(forward(p, x), y), keep) for p in cohorts]
                assert picks[0].shape == (k, 7)
                assert not np.array_equal(picks[0], picks[1])
                outs, grads = [], []
                for p, q in zip(cohorts, picks[::-1]):  # each network trains on its peer's picks
                    out = loss_fn(forward(p, x[clients, q]), y[clients, q])
                    outs.append(out.scalar)
                    grads.append(backward(p, x[clients, q], out.adjoint_o1))
                losses.append((outs[0] + outs[1]) / 2)
                cohorts = [sgd_step(p, g, cfg.lr) for p, g in zip(cohorts, grads)]

        assert [net.flat.tobytes() for net in got] == [p.flat.tobytes() for p in cohorts]
        assert got_loss.tobytes() == np.stack(losses, axis=-1).mean(axis=-1).tobytes()

    @pytest.mark.parametrize("method", ["coteaching", "coteaching_lsr"])
    def test_coteaching_stack_is_the_same_at_any_workers(self, method):
        # K = 5 trains as one (10, P) stack at workers=1, and as stacks of
        # 3 + 2 and 2 + 2 + 1 clients at workers 2 and 3: metrics and both
        # final networks must agree byte for byte.
        train, shards, test = small_world(noise=0.3)
        base = dict(
            num_clients=6, clients_per_round=5, rounds=3, local_epochs=2,
            batch_size=10, method=method, warmup_rounds=0, hidden_layers=(6,),
        )
        ct = CoteachingConfig(noise_rate=0.3, ramp_rounds=2)
        runs = [
            run_federation(FedConfig(**base, workers=w), train, shards, test, seed=8, ct=ct)
            for w in (1, 2, 3)
        ]
        for run in runs[1:]:
            assert run.metrics == runs[0].metrics
            assert [n.flat.tobytes() for n in run.final_params] == [
                n.flat.tobytes() for n in runs[0].final_params
            ]

    def test_twin_accuracy_is_mean_of_both_nets(self):
        train, shards, test = small_world()
        cfg = FedConfig(
            num_clients=6, clients_per_round=2, rounds=1, local_epochs=1,
            batch_size=10, method="coteaching", warmup_rounds=0, hidden_layers=(5,),
        )
        result = run_federation(cfg, train, shards, test, seed=7)
        pa, pb = result.final_params
        expect = 0.5 * (evaluate(pa, test) + evaluate(pb, test))
        np.testing.assert_allclose(result.metrics[0].test_accuracy, expect, atol=1e-12)

    def test_all_methods_run_one_round(self):
        train, shards, test = small_world(noise=0.3)
        pol = AugmentPolicy((FeatureJitter(0.3),))
        for method in (
            "fedavg_ce", "lsr", "lsr_plus", "sym_ce", "coteaching",
            "coteaching_lsr", "sym_ce_lsr", "ce_aug",
        ):
            cfg = FedConfig(
                num_clients=6, clients_per_round=2, rounds=1, local_epochs=1,
                batch_size=10, method=method, warmup_rounds=0, hidden_layers=(5,),
            )
            result = run_federation(cfg, train, shards, test, seed=1, policy=pol)
            assert len(result.metrics) == 1
            assert np.isfinite(result.metrics[0].test_accuracy)

    def test_seed_changes_trajectory(self):
        train, shards, test = small_world(noise=0.3)
        cfg = FedConfig(
            num_clients=6, clients_per_round=3, rounds=2, local_epochs=1,
            batch_size=10, method="fedavg_ce", warmup_rounds=0, hidden_layers=(5,),
        )
        a = run_federation(cfg, train, shards, test, seed=1)
        b = run_federation(cfg, train, shards, test, seed=2)
        assert not np.array_equal(a.final_params[0].flat, b.final_params[0].flat)
