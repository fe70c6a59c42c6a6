import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from powerlaw_hpo.neural_core import AdamState, DenseNetwork, forward, l1_loss
from powerlaw_hpo.surrogate import (
    ConditionedNetwork,
    DplEnsemble,
    DplNetwork,
    Stagnation,
    TrainerSchedule,
    TrainingData,
    _power_law_head,
    _power_law_head_backward,
    member_init_seed,
    should_restart,
    train_member_epochs,
)

from helpers import (
    max_relative_error,
    numeric_gradient,
    reference_conditioned_predict,
    reference_conditioned_step,
    reference_dpl_predict,
    reference_dpl_step,
)


def _power_law_data(seed=1, n_configs=6, budgets=(0.25, 0.5, 0.75, 1.0)):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n_configs, 2))
    rows, bs, ys = [], [], []
    for i in range(n_configs):
        a, b_, g = 0.2 + 0.2 * x[i, 0], 0.5, 0.5 + 0.5 * x[i, 1]
        for bb in budgets:
            rows.append(x[i])
            bs.append(bb)
            ys.append(a + b_ * bb ** (-g))
    return TrainingData(configs=np.array(rows), budgets=np.array(bs), losses=np.array(ys))


class TestPredictMember:
    def test_zero_network_predicts_zero(self):
        member = DplNetwork(2, seed=0, hidden_width=8)
        member.body.flat_params[...] = 0.0
        for b in (0.1, 0.5, 1.0):
            assert float(member.predict(np.array([0.3, 0.6]), b)[0]) == 0.0

    def test_forced_raw_outputs(self):
        # raw = (1, 1, 40, 1, 40): saturated gates give beta=gamma~1, so
        # the prediction at full budget is alpha + beta = 2
        member = DplNetwork(2, seed=0, hidden_width=8)
        member.body.flat_params[...] = 0.0
        member.body.biases[-1][...] = np.array([1.0, 1.0, 40.0, 1.0, 40.0])
        assert float(member.predict(np.array([0.3, 0.6]), 1.0)[0]) == pytest.approx(2.0, abs=1e-6)

    def test_full_budget_equals_alpha_plus_beta(self):
        rng = np.random.default_rng(3)
        for seed in range(20):
            member = DplNetwork(3, seed=[seed], hidden_width=8)
            member.body.flat_params += rng.uniform(-0.5, 0.5, member.body.flat_params.shape)
            config = rng.uniform(0, 1, 3)
            raw, _ = forward(member.body, config[None, :])
            sig = 1.0 / (1.0 + np.exp(-raw[0, 2]))
            alpha_plus_beta = raw[0, 0] + raw[0, 1] * sig
            assert abs(float(member.predict(config, 1.0)[0]) - alpha_plus_beta) <= 1e-12

    @pytest.mark.parametrize("network", [DplNetwork, ConditionedNetwork])
    @pytest.mark.parametrize("b", [0.0, -0.5, 1.5, 5.0, math.nan, math.inf, [0.5, math.nan]])
    def test_budget_domain(self, network, b):
        # both member types share one rule, and NaN lies outside (0, 1]
        member = network(2, seed=0, hidden_width=8)
        with pytest.raises(ValueError, match=r"^normalized budgets must lie in \(0, 1\]$"):
            member.predict(np.array([[0.1, 0.2], [0.3, 0.4]]), b)

    @pytest.mark.parametrize("network", [DplNetwork, ConditionedNetwork])
    @pytest.mark.parametrize("b", [1.0, 1e-300, [0.25, 1.0]])
    def test_budget_domain_edges_accepted(self, network, b):
        # (0, 1] is open below and closed above; a scalar budget is broadcast
        # to every row, the same as passing it once per row
        member = network(2, seed=0, hidden_width=8)
        configs = np.array([[0.1, 0.2], [0.3, 0.4]])
        pred = member.predict(configs, b)
        assert pred.shape == (2,)
        assert np.array_equal(pred, member.predict(configs, np.broadcast_to(b, (2,))))


class TestHeadGradient:
    def test_matches_finite_differences(self):
        # d(prediction)/d(raw outputs) through both GLU gates, 100 points
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(100):
            raw = rng.uniform(-2, 2, (1, 5))
            b = rng.uniform(0.05, 1.0, 1)
            pred, cache = _power_law_head(raw, b)
            analytic = _power_law_head_backward(cache, np.ones(1))[0]
            numeric = np.empty(5)
            h = 1e-6
            for j in range(5):
                up = raw.copy()
                up[0, j] += h
                down = raw.copy()
                down[0, j] -= h
                numeric[j] = (_power_law_head(up, b)[0] - _power_law_head(down, b)[0])[0] / (2 * h)
            worst = max(worst, max_relative_error(analytic, numeric))
        assert worst < 1e-5


# per member type: the input columns beyond the configs, the head width,
# and the reference training step and prediction
_REFERENCES = {
    DplNetwork: (0, 5, reference_dpl_step, reference_dpl_predict),
    ConditionedNetwork: (1, 1, reference_conditioned_step, reference_conditioned_predict),
}


def _same(a, b) -> bool:
    return np.array_equal(a, b, equal_nan=True)


class TestOneMemberImplementation:
    def test_conditioned_member_shares_the_training_code(self):
        # the rebinding keeps an entry in ConditionedNetwork's own __dict__
        # for the tracer to hook, holding DplNetwork's function
        for name in ("train_batch", "full_loss"):
            assert ConditionedNetwork.__dict__[name] is DplNetwork.__dict__[name]

    # a failure is reported unshrunk: shrinking these nested draws takes minutes
    @settings(max_examples=60, derandomize=True, deadline=None, phases=[Phase.generate])
    @given(
        data=st.data(),
        network=st.sampled_from([DplNetwork, ConditionedNetwork]),
        hp_dim=st.integers(1, 3),
        width=st.integers(2, 16),
        n_rows=st.integers(1, 70),
        seed=st.integers(0, 2**32),
    )
    def test_matches_reference_bit_for_bit(self, data, network, hp_dim, width, n_rows, seed):
        budget_inputs, head_width, step, predict = _REFERENCES[network]
        unit = st.floats(0.0, 1.0)
        budget = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))
        configs = data.draw(st.lists(st.lists(unit, min_size=hp_dim, max_size=hp_dim),
                                     min_size=n_rows, max_size=n_rows))
        budgets = data.draw(st.lists(budget, min_size=n_rows, max_size=n_rows))
        losses = data.draw(st.lists(st.floats(0.0, 1.5), min_size=n_rows, max_size=n_rows))
        if data.draw(st.booleans()):
            losses[-1] = math.inf  # a batch holding this row skips its step
        rows = TrainingData(configs=configs, budgets=budgets, losses=losses)
        # repeated indices, as an oversampled refine batch holds
        batches = data.draw(st.lists(
            st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=70).map(np.array),
            min_size=1, max_size=5))

        member = network(hp_dim, [seed], hidden_width=width)
        dims = (hp_dim + budget_inputs, width, width, head_width)
        assert member.body.layer_dims == dims
        body = DenseNetwork.create(dims, [seed])
        adam = AdamState.for_params(body.flat_params)
        grad = DenseNetwork.zeros(dims)
        for idx in batches:
            assert _same(member.train_batch(rows, idx), step(body, adam, grad, rows, idx))
            assert _same(member.body.flat_params, body.flat_params)
            assert _same(member.adam.first_moment, adam.first_moment)
            assert _same(member.adam.second_moment, adam.second_moment)
            assert member.adam.step_count == adam.step_count
        expected = predict(body, rows.configs, rows.budgets)
        assert _same(member.predict(rows.configs, rows.budgets), expected)
        with np.errstate(invalid="ignore"):
            assert _same(member.full_loss(rows), l1_loss(expected, rows.losses)[0])

    @pytest.mark.parametrize("network", [DplNetwork, ConditionedNetwork])
    def test_train_batch_gradient_matches_finite_differences(self, network):
        # the gradient train_batch hands to Adam, at the parameters before
        # its step, against central differences of the same batch's loss
        data = _power_law_data(n_configs=4)
        idx = np.array([0, 5, 9, 14, 15, 15])  # the last row twice, as refine does
        batch = TrainingData(configs=data.configs[idx], budgets=data.budgets[idx],
                             losses=data.losses[idx])
        member = network(2, seed=[4], hidden_width=6)
        before = member.body.flat_params.copy()
        member.train_batch(data, idx)
        analytic = member._grad.flat_params.copy()
        member.body.flat_params[...] = before
        numeric = numeric_gradient(lambda: member.full_loss(batch), member.body.flat_params)
        assert max_relative_error(analytic, numeric) < 1e-5


class _FixedMember:
    def __init__(self, value):
        self.value = float(value)

    def predict(self, configs, b_norm):
        return np.full(np.atleast_2d(configs).shape[0], self.value)


def _fixed_ensemble(values):
    ens = DplEnsemble(hp_dim=2, seed=0, n_members=len(values), hidden_width=4)
    ens.members = [_FixedMember(v) for v in values]
    return ens


class TestPosterior:
    def test_two_member_arithmetic(self):
        mean, var = _fixed_ensemble([0.2, 0.4]).posterior_batch(np.atleast_2d(np.zeros(2)), 1.0)
        assert abs(mean[0] - 0.3) <= 1e-12
        assert abs(var[0] - 0.01) <= 1e-12

    def test_three_member_arithmetic(self):
        x = np.atleast_2d(np.zeros(2))
        mean, var = _fixed_ensemble([1.0, 2.0, 3.0]).posterior_batch(x, 1.0)
        assert abs(mean[0] - 2.0) <= 1e-12
        assert abs(var[0] - 2.0 / 3.0) <= 1e-12

    def test_identical_members_zero_variance(self):
        _, var = _fixed_ensemble([0.7, 0.7, 0.7]).posterior_batch(np.atleast_2d(np.zeros(2)), 1.0)
        assert var[0] == 0.0

    def test_single_member(self):
        member = DplNetwork(2, seed=4, hidden_width=8)
        ens = DplEnsemble(hp_dim=2, seed=0, n_members=1, hidden_width=8)
        ens.members = [member]
        config = np.array([0.2, 0.9])
        mean, var = ens.posterior_batch(np.atleast_2d(config), 0.5)
        assert mean[0] == pytest.approx(float(member.predict(config, 0.5)[0]), abs=1e-12)
        assert var[0] == 0.0

    def test_permutation_invariant(self):
        x = np.atleast_2d(np.zeros(2))
        a_mean, a_var = _fixed_ensemble([0.1, 0.5, 0.9]).posterior_batch(x, 1.0)
        b_mean, b_var = _fixed_ensemble([0.9, 0.1, 0.5]).posterior_batch(x, 1.0)
        assert a_mean[0] == pytest.approx(b_mean[0], abs=1e-15)
        assert a_var[0] == pytest.approx(b_var[0], abs=1e-15)


class TestPosteriorBudget:
    @pytest.mark.parametrize("b", [0.0, -0.5, 1.5, math.nan, math.inf, [0.5, math.nan]])
    def test_budget_outside_unit_interval_rejected(self, b):
        # a NaN budget raises instead of returning a NaN posterior
        ens = DplEnsemble(hp_dim=2, seed=0, n_members=2, hidden_width=4)
        with pytest.raises(ValueError, match=r"^normalized budgets must lie in \(0, 1\]$"):
            ens.posterior_batch(np.array([[0.1, 0.2], [0.3, 0.4]]), b)


class TestFitInitial:
    def test_noiseless_power_law_history(self):
        # measured behavior at the mandated lr: the L1 random-walk floor
        # sits near 0.01, so the frozen bound is 0.03
        data = _power_law_data()
        ens = DplEnsemble(hp_dim=2, seed=0)
        loss = ens.fit_initial(data, TrainerSchedule.for_curve_length(8))
        assert loss < 0.03

    def test_members_disagree_off_data(self):
        data = _power_law_data()
        ens = DplEnsemble(hp_dim=2, seed=0)
        ens.fit_initial(data, TrainerSchedule.for_curve_length(8))
        probe = np.array([0.11, 0.93])
        preds = [float(m.predict(probe, 0.37)[0]) for m in ens.members]
        assert len(set(preds)) > 1

    def test_single_observation_overfits(self):
        data = TrainingData(
            configs=np.array([[0.4, 0.7]]), budgets=np.array([0.25]), losses=np.array([0.62])
        )
        ens = DplEnsemble(hp_dim=2, seed=5)
        ens.fit_initial(data, TrainerSchedule.for_curve_length(8))
        mean, _ = ens.posterior_batch(np.atleast_2d(np.array([0.4, 0.7])), 0.25)
        assert abs(mean[0] - 0.62) < 0.05


class TestRefine:
    def test_newest_point_in_every_batch(self):
        data = _power_law_data(n_configs=20)  # 80 rows -> multiple batches
        ens = DplEnsemble(hp_dim=2, seed=0, n_members=2)
        sched = TrainerSchedule.for_curve_length(8, refine_epochs=3)
        ens.fit_initial(data, sched)
        log: list = []
        for member in ens.members:
            def logged(data, idx, train=member.train_batch):
                log.append(idx.copy())
                return train(data, idx)

            member.train_batch = logged
        newest = len(data) - 1
        ens.refine(data, sched)
        assert log, "instrumented batch log must record batches"
        assert all(newest in batch for batch in log)

    def test_refine_deterministic_from_seed(self):
        # two ensembles built from one seed train bit for bit alike through
        # every phase, a restart included
        data = _power_law_data()
        sched = TrainerSchedule.for_curve_length(8, initial_epochs=20)
        ens_a, ens_b = (DplEnsemble(hp_dim=2, seed=3, n_members=3, hidden_width=16)
                        for _ in range(2))
        for phase in ("fit_initial", "restart", "refine", "refine", "restart", "refine"):
            assert getattr(ens_a, phase)(data, sched) == getattr(ens_b, phase)(data, sched)
            for ma, mb in zip(ens_a.members, ens_b.members):
                assert np.array_equal(ma.body.flat_params, mb.body.flat_params)
                assert np.array_equal(ma.adam.first_moment, mb.adam.first_moment)
                assert np.array_equal(ma.adam.second_moment, mb.adam.second_moment)
                assert ma.adam.step_count == mb.adam.step_count

    def test_loss_non_increasing_in_expectation(self):
        # measured: per-seed deltas fluctuate at the optimizer noise floor
        # (about +-5e-3) with mean below zero; freeze the mean bound
        data = _power_law_data()
        sched = TrainerSchedule.for_curve_length(8)
        deltas = []
        for seed in range(8):
            ens = DplEnsemble(hp_dim=2, seed=seed)
            loss = ens.fit_initial(data, sched)
            for _ in range(30):
                loss = ens.refine(data, sched)
            final = ens.refine(data, sched)
            deltas.append(final - loss)
        assert float(np.mean(deltas)) < 5e-4

    def test_refine_before_fit_rejected(self):
        ens = DplEnsemble(hp_dim=2, seed=0, hidden_width=4)
        with pytest.raises(RuntimeError):
            ens.refine(_power_law_data(), TrainerSchedule())


class TestShouldRestart:
    def test_decreasing_losses_never_restart(self):
        stag = Stagnation(threshold=3)
        assert not any(should_restart(stag, loss) for loss in (0.5, 0.4, 0.3, 0.2, 0.1))

    def test_stagnation_counter_arithmetic(self):
        sched = TrainerSchedule.for_curve_length(50)
        assert sched.restart_threshold_iterations == 60
        stag = Stagnation(sched.restart_threshold_iterations)
        assert not should_restart(stag, 0.5)  # improvement from +inf
        for i in range(60):
            assert not should_restart(stag, 0.5), f"tick {i}"
        assert should_restart(stag, 0.5)  # 61st stagnant tick

    def test_non_finite_loss_restarts_immediately(self):
        stag = Stagnation(threshold=60)
        assert should_restart(stag, math.nan)
        assert should_restart(stag, math.inf)

    def test_improvement_resets_counter(self):
        stag = Stagnation(threshold=2)
        should_restart(stag, 1.0)
        should_restart(stag, 1.0)
        should_restart(stag, 0.9)  # improvement
        assert stag.iterations_since_improvement == 0
        assert stag.best_fit_loss == 0.9


class TestRestart:
    def test_restart_reinitializes_bit_exact(self):
        data = _power_law_data()
        sched = TrainerSchedule.for_curve_length(8, initial_epochs=5)
        ens = DplEnsemble(hp_dim=2, seed=11, n_members=3)
        ens.fit_initial(data, sched)
        ens.restart(data, sched)
        assert ens.init_round == 2
        # post-restart parameters are init_weights output for the restart
        # seeds, then trained; re-derive by replaying the same seeds
        replay = DplEnsemble(hp_dim=2, seed=11, n_members=3)
        replay.fit_round = 1  # restart trains with the second batch stream
        replay.init_round = 1
        replay.fit_initial(data, sched)
        for a, b in zip(ens.members, replay.members):
            assert np.array_equal(a.body.flat_params, b.body.flat_params)

    def test_restart_seed_derivation_exposed(self):
        ens = DplEnsemble(hp_dim=2, seed=11, n_members=2, hidden_width=4)
        data = TrainingData(
            configs=np.array([[0.5, 0.5]]), budgets=np.array([1.0]), losses=np.array([0.3])
        )
        sched = TrainerSchedule(initial_epochs=0, restart_threshold_iterations=1)
        ens.fit_initial(data, sched)
        untouched = DplNetwork(2, member_init_seed(11, 0, 1), hidden_width=4)
        assert np.array_equal(ens.members[0].body.flat_params, untouched.body.flat_params)


class TestEnsembleShape:
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("hidden_width", 8.0, "must be an integer, got 8.0"),
            ("hidden_width", np.int64(8), f"must be an integer, got {np.int64(8)!r}"),
            ("hp_dim", 2.9, "must be an integer, got 2.9"),
            ("n_members", 2.5, "must be an integer, got 2.5"),
            ("seed", -1, "must be >= 0, got -1"),
            ("n_members", 0, "must be >= 1, got 0"),
        ],
    )
    def test_constructor_rejects_bad_shape(self, key, value, message):
        kwargs = {"hp_dim": 2, "seed": 0, "hidden_width": 4, key: value}
        with pytest.raises(ValueError, match=rf"^{key}: {re.escape(message)}$"):
            DplEnsemble(**kwargs)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(
        hp_dim=st.integers(1, 3),
        seed=st.integers(0, 2**32),
        n_members=st.integers(1, 3),
        hidden_width=st.integers(1, 8),
    )
    def test_accepted_shape_builds(self, hp_dim, seed, n_members, hidden_width):
        ens = DplEnsemble(hp_dim, seed, n_members=n_members, hidden_width=hidden_width)
        assert len(ens.members) == n_members
        for k, member in enumerate(ens.members):
            assert member.body.layer_dims == (hp_dim, hidden_width, hidden_width, 5)
            fresh = DplNetwork(hp_dim, member_init_seed(seed, k, 0), hidden_width)
            assert np.array_equal(member.body.flat_params, fresh.body.flat_params)


class TestTrainerSchedule:
    def test_zero_epochs_and_thresholds_allowed(self):
        TrainerSchedule(
            initial_epochs=0, refine_epochs=0, initial_phase_iterations=0,
            restart_threshold_iterations=0, batch_size=1,
        )

    @pytest.mark.parametrize("value", [2.0, True, "3", None, np.int64(3)])
    @pytest.mark.parametrize("key", [f.name for f in fields(TrainerSchedule)])
    def test_non_int_rejected(self, key, value):
        with pytest.raises(ValueError, match=rf"^{key}: must be an integer"):
            TrainerSchedule(**{key: value})

    @pytest.mark.parametrize("key", ["initial_epochs", "refine_epochs", "initial_phase_iterations",
                                     "restart_threshold_iterations"])
    def test_negative_count_rejected(self, key):
        with pytest.raises(ValueError, match=rf"^{key}: must be >= 0, got -1$"):
            TrainerSchedule(**{key: -1})

    def test_batch_size_below_one_rejected(self):
        with pytest.raises(ValueError, match=r"^batch_size: must be >= 1, got 0$"):
            TrainerSchedule(batch_size=0)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("batch_size", 0, "must be >= 1, got 0"),
            ("refine_epochs", -1, "must be >= 0, got -1"),
            ("initial_epochs", "250", "must be an integer, got '250'"),
        ],
    )
    def test_invalid_schedule_value_names_field(self, key, value, message):
        with pytest.raises(ValueError, match=rf"^{key}: {re.escape(message)}$"):
            TrainerSchedule(**{key: value})


class TestConditionedNetwork:
    def test_zero_network_predicts_zero(self):
        net = ConditionedNetwork(2, seed=0, hidden_width=8)
        net.body.flat_params[...] = 0.0
        assert float(net.predict(np.array([0.3, 0.6]), 0.5)[0]) == 0.0

    def test_input_dimension_contract(self):
        net = ConditionedNetwork(2, seed=0, hidden_width=8)
        with pytest.raises(ValueError):
            net.predict(np.array([[0.3, 0.6, 0.9]]), 0.5)  # budget is appended internally

    def test_trains_with_shared_loop(self):
        data = _power_law_data()
        net = ConditionedNetwork(2, seed=1)
        sched = TrainerSchedule.for_curve_length(8)
        rng = np.random.default_rng(0)
        loss = train_member_epochs(net, data, sched.initial_epochs, sched.batch_size, rng)
        assert math.isfinite(loss)
        assert loss < 0.2


class TestTrainingData:
    @pytest.mark.parametrize(
        "budgets",
        [[1.5, 0.5], [0.0, 0.5], [math.nan, 0.5], [-0.5, 0.5], [0.5, math.inf], [0.5, 5.0]],
    )
    def test_budget_range_enforced(self, budgets):
        with pytest.raises(ValueError, match=r"^normalized budgets must lie in \(0, 1\]$"):
            TrainingData(configs=np.zeros((2, 2)), budgets=budgets, losses=[0.1, 0.2])

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            TrainingData(
                configs=np.zeros((2, 2)), budgets=np.array([0.5]), losses=np.array([0.1, 0.2])
            )
