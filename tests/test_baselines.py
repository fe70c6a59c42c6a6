import json

import pytest

from powerlaw_hpo.baselines import (
    DEFAULT_ETA,
    geometric_rungs,
    hyperband_brackets,
    run_asha,
    run_hyperband,
    run_random_search,
    run_successive_halving,
    successive_halving_bracket,
)
from powerlaw_hpo.benchmarks import BenchmarkFormatError, generate_synthetic, load_benchmark
from powerlaw_hpo.hpo_loop import RunContext, RunSettings


def _table(n_configs=30, b_max=9, seed=0, noise=0.0):
    return generate_synthetic(seed=seed, n_configs=n_configs, hp_dim=2, b_max=b_max,
                              noise_std=noise)


def _observe_log(monkeypatch):
    observed = []
    orig = RunContext.observe

    def spy(ctx, cid, budget):
        observed.append((cid, budget))
        return orig(ctx, cid, budget)

    monkeypatch.setattr(RunContext, "observe", spy)
    return observed


class TestGeometricRungs:
    def test_power_ladder(self):
        assert geometric_rungs(9, 3) == (1, 3, 9)

    def test_cap_at_b_max(self):
        assert geometric_rungs(25, 3) == (1, 3, 9, 25)

    def test_trivial(self):
        assert geometric_rungs(1, 3) == (1,)

    def test_eta_validated(self):
        with pytest.raises(ValueError):
            geometric_rungs(9, 1)


class TestRandomSearch:
    def test_exactly_twenty_full_evaluations(self):
        table = _table(n_configs=50)
        traj = run_random_search(table, RunSettings(seed=0, budget_multiplier=20))
        assert len(traj.points) == 20
        assert traj.points[-1].steps_consumed == 20 * table.b_max

    def test_deterministic(self):
        table = _table()
        a = run_random_search(table, RunSettings(seed=4))
        b = run_random_search(table, RunSettings(seed=4))
        assert a.points == b.points

    def test_single_config_benchmark_flags_leftover(self):
        table = _table(n_configs=1)
        traj = run_random_search(table, RunSettings(seed=0, budget_multiplier=20))
        assert len(traj.points) == 1

    def test_never_repeats_configs(self, monkeypatch):
        observed = _observe_log(monkeypatch)
        table = _table(n_configs=25)
        run_random_search(table, RunSettings(seed=1, budget_multiplier=20))
        ids = [cid for cid, _ in observed]
        assert len(ids) == len(set(ids))
        assert all(b == table.b_max for _, b in observed)


class TestSuccessiveHalving:
    def test_bracket_step_arithmetic(self):
        # 9 configs at rungs {1,3,9}: 9*1 + 3*2 + 1*6 = 21 incremental steps
        table = _table(n_configs=9)
        ctx = RunContext(table, RunSettings(seed=0, total_step_budget=1000), "sh")
        done = successive_halving_bracket(ctx, list(table.config_ids), (1, 3, 9), eta=3)
        assert done
        assert ctx.steps_consumed == 21

    def test_promotion_tie_breaks_by_lowest_id(self, tmp_path, monkeypatch):
        # returns tie at the first rung; curves diverge later so the table
        # itself is not degenerate
        doc = {
            "name": "ties",
            "metric": "loss",
            "b_max": 3,
            "hyperparameters": [{"name": "x", "min": 0.0, "max": 1.0}],
            "configs": [
                {"id": i, "values": [i / 10], "curve": [0.5, 0.5, 0.3 + i / 100]}
                for i in range(9)
            ],
        }
        path = tmp_path / "ties.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        table = load_benchmark(path)
        ctx = RunContext(table, RunSettings(seed=0, total_step_budget=1000), "sh")
        observed = _observe_log(monkeypatch)
        successive_halving_bracket(ctx, list(range(9)), (1, 3), eta=3)
        promoted = [cid for cid, b in observed if b == 3]
        assert promoted == [0, 1, 2]

    def test_single_config_bracket_reaches_top(self, monkeypatch):
        table = _table(n_configs=5)
        ctx = RunContext(table, RunSettings(seed=0, total_step_budget=1000), "sh")
        observed = _observe_log(monkeypatch)
        successive_halving_bracket(ctx, [2], (1, 3, 9), eta=3)
        assert observed == [(2, 1), (2, 3), (2, 9)]

    def test_promotion_invariant_to_loss_scaling(self, tmp_path, monkeypatch):
        base = _table(n_configs=27, seed=5)
        scaled_doc = {
            "name": "scaled",
            "metric": "loss",
            "b_max": base.b_max,
            "hyperparameters": [
                {"name": n, "min": lo, "max": hi}
                for n, (lo, hi) in zip(base.hp_names, base.bounds)
            ],
            "configs": [
                {
                    "id": int(cid),
                    "values": base.raw_values[i].tolist(),
                    "curve": (3.0 * base.loss_curves[i]).tolist(),
                }
                for i, cid in enumerate(base.config_ids)
            ],
        }
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(scaled_doc), encoding="utf-8")
        scaled = load_benchmark(path)
        log_a = _observe_log(monkeypatch)
        run_successive_halving(base, RunSettings(seed=7, budget_multiplier=5))
        seq_a = list(log_a)
        monkeypatch.undo()
        log_b = _observe_log(monkeypatch)
        run_successive_halving(scaled, RunSettings(seed=7, budget_multiplier=5))
        assert seq_a == list(log_b)

    def test_full_run_respects_budget(self):
        table = _table(n_configs=40)
        settings = RunSettings(seed=3, budget_multiplier=20)
        traj = run_successive_halving(table, settings)
        assert traj.points[-1].steps_consumed <= 20 * table.b_max

    def test_schedule_for_table(self, monkeypatch):
        table = _table(b_max=25)
        assert geometric_rungs(table.b_max, DEFAULT_ETA) == (1, 3, 9, 25)
        observed = _observe_log(monkeypatch)
        run_successive_halving(table, RunSettings(seed=0, budget_multiplier=20))
        assert {b for _, b in observed} == {1, 3, 9, 25}

    def test_eta_two_respects_budget(self, monkeypatch):
        # rungs 1, 2, 4, 8, 16, 25 want 32 configs; the 10-config pool is used whole
        table = _table(n_configs=10, b_max=25)
        observed = _observe_log(monkeypatch)
        traj = run_successive_halving(table, RunSettings(seed=0, budget_multiplier=3), eta=2)
        assert traj.points and traj.points[-1].steps_consumed <= 3 * table.b_max
        assert {b for _, b in observed} <= {1, 2, 4, 8, 16, 25}


class TestHyperband:
    def test_bracket_plan_for_27(self):
        plan = hyperband_brackets(27, 3)
        assert [n for n, _ in plan] == [27, 12, 6, 4]
        assert [rungs[0] for _, rungs in plan] == [1, 3, 9, 27]
        assert plan[0][1] == (1, 3, 9, 27)

    def test_bracket_plan_trivial_b_max(self):
        assert hyperband_brackets(1, 3) == [(1, (1,))]

    def test_step_accounting_matches_closed_form(self):
        # disjoint fresh cohorts: bracket costs are exactly the rung sums
        table = _table(n_configs=20, b_max=9)
        ctx = RunContext(table, RunSettings(seed=0, total_step_budget=10_000), "hb")
        plan = hyperband_brackets(9, 3)
        assert [n for n, _ in plan] == [9, 5, 3]
        cohorts = [list(range(0, 9)), list(range(9, 14)), list(range(14, 17))]
        expected = [
            9 * 1 + 3 * 2 + 1 * 6,   # 21
            5 * 3 + 1 * 6,           # 21
            3 * 9,                   # 27
        ]
        total = 0
        for cohort, (n, rungs), cost in zip(cohorts, plan, expected):
            assert len(cohort) == n
            before = ctx.steps_consumed
            successive_halving_bracket(ctx, cohort, rungs, eta=3)
            assert ctx.steps_consumed - before == cost
            total += cost
        assert ctx.steps_consumed == total

    def test_full_run_respects_budget_and_is_deterministic(self):
        table = _table(n_configs=40, b_max=9)
        settings = RunSettings(seed=9, budget_multiplier=20)
        a = run_hyperband(table, settings)
        b = run_hyperband(table, settings)
        assert a.points == b.points
        assert a.points[-1].steps_consumed <= 20 * table.b_max

    def test_b_max_one_degenerates_to_full_budget_sampling(self, monkeypatch):
        observed = _observe_log(monkeypatch)
        table = _table(n_configs=30, b_max=1)
        run_hyperband(table, RunSettings(seed=2, total_step_budget=10))
        assert observed, "must evaluate something"
        assert all(b == 1 for _, b in observed)


class TestAsha:
    def test_first_tick_samples_new_config(self, monkeypatch):
        observed = _observe_log(monkeypatch)
        table = _table(n_configs=20, b_max=9)
        run_asha(table, RunSettings(seed=0, total_step_budget=2))
        # init design plus one rung-0 sample
        assert len(observed) == 2
        assert observed[1][1] == 1

    def test_promotes_best_of_three_completions(self, monkeypatch):
        observed = _observe_log(monkeypatch)
        table = _table(n_configs=20, b_max=9)
        # init(1) + three rung-0 samples(3) + one promotion to budget 3(2)
        run_asha(table, RunSettings(seed=0, total_step_budget=6), eta=3)
        rung0 = [(cid, b) for cid, b in observed[1:4]]
        assert all(b == 1 for _, b in rung0)
        promo = observed[4]
        assert promo[1] == 3
        losses = {cid: table.loss_curves[table.index_of(cid), 0] for cid, _ in rung0}
        assert promo[0] == min(losses, key=lambda c: (losses[c], c))

    def test_deterministic(self):
        table = _table(n_configs=25, b_max=9)
        settings = RunSettings(seed=5, budget_multiplier=10)
        a = run_asha(table, settings)
        b = run_asha(table, settings)
        assert a.points == b.points

    def test_respects_budget(self):
        table = _table(n_configs=25, b_max=9)
        traj = run_asha(table, RunSettings(seed=1, budget_multiplier=20))
        assert traj.points[-1].steps_consumed <= 20 * table.b_max


class TestSharedInvariants:
    @pytest.mark.parametrize(
        "runner", [run_random_search, run_successive_halving, run_hyperband, run_asha]
    )
    def test_non_increasing_incumbent_and_budget_ceiling(self, runner):
        for seed in range(3):
            table = _table(n_configs=30, b_max=9, seed=seed, noise=0.02)
            traj = runner(table, RunSettings(seed=seed, budget_multiplier=12))
            incumbents = [p.incumbent_loss for p in traj.points]
            assert all(a >= b for a, b in zip(incumbents, incumbents[1:]))
            steps = [p.steps_consumed for p in traj.points]
            assert all(a < b for a, b in zip(steps, steps[1:]))
            assert steps[-1] <= 12 * table.b_max

    @pytest.mark.parametrize("runner", [run_successive_halving, run_hyperband, run_asha])
    @pytest.mark.parametrize(
        "eta, message",
        [(2.5, "must be an integer, got 2.5"), (3.0, "must be an integer, got 3.0"),
         (True, "must be an integer, got True"), (1, "must be >= 2, got 1")],
    )
    def test_eta_must_be_an_int_of_at_least_two(self, runner, eta, message):
        # checked before any rung is built: a float eta would fail in the rung
        # slicing, with numpy's TypeError
        with pytest.raises(BenchmarkFormatError) as info:
            runner(_table(), RunSettings(seed=0, budget_multiplier=2), eta=eta)
        assert str(info.value) == f"eta: {message}"
