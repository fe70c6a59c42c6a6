import dataclasses
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerlaw_hpo import hpo_loop
from powerlaw_hpo.baselines import BASELINE_RUNNERS
from powerlaw_hpo.benchmarks import BenchmarkFormatError, evaluate, generate_synthetic, oracle
from powerlaw_hpo.history import History, Observation
from powerlaw_hpo.hpo_loop import (
    RunContext,
    TRAJECTORY_COLUMNS,
    RunSettings,
    incumbent_regret,
    regret_span,
    run_dpl,
)
from powerlaw_hpo.surrogate import DplEnsemble, TrainerSchedule


def _fast_schedule(b_max):
    # keeps loop-level tests quick; the surrogate itself is tested elsewhere
    return TrainerSchedule.for_curve_length(
        b_max, initial_epochs=20, refine_epochs=5, initial_phase_iterations=3
    )


class _OracleEnsemble:
    """Test double: zero-variance posterior equal to the true final loss."""

    def __init__(self, table):
        self.finals = {tuple(np.round(table.scaled_values[i], 12)): table.loss_curves[i, -1]
                       for i in range(table.n_configs)}

    def fit_initial(self, data, schedule):
        return 0.0

    def refine(self, data, schedule):
        return 0.0

    def restart(self, data, schedule):
        return 0.0

    def posterior_batch(self, configs, b_norm):
        configs = np.atleast_2d(configs)
        means = np.array([self.finals[tuple(np.round(v, 12))] for v in configs])
        return means, np.zeros(len(means))


class TestRunDpl:
    def test_single_config_advances_step_by_step(self, tiny_table):
        single = generate_synthetic(seed=1, n_configs=1, hp_dim=2, b_max=30)
        settings = RunSettings(seed=0, total_step_budget=10)
        traj = run_dpl(single, settings, schedule=_fast_schedule(30))
        steps = [p.steps_consumed for p in traj.points]
        assert steps == list(range(1, 11))
        assert len(traj.points) == 10

    def test_pool_exhaustion_flagged(self):
        single = generate_synthetic(seed=1, n_configs=1, hp_dim=2, b_max=4)
        settings = RunSettings(seed=0, total_step_budget=40)
        traj = run_dpl(single, settings, schedule=_fast_schedule(4))
        assert traj.points[-1].steps_consumed == 4

    def test_same_seed_identical_trajectories(self, tiny_table):
        settings = RunSettings(seed=3, total_step_budget=15)
        a = run_dpl(tiny_table, settings, schedule=_fast_schedule(tiny_table.b_max))
        b = run_dpl(tiny_table, settings, schedule=_fast_schedule(tiny_table.b_max))
        assert a.points == b.points

    def test_budget_conservation_and_monotone_incumbent(self, tiny_table):
        settings = RunSettings(seed=1, total_step_budget=25)
        traj = run_dpl(tiny_table, settings, schedule=_fast_schedule(tiny_table.b_max))
        steps = [p.steps_consumed for p in traj.points]
        assert all(a < b for a, b in zip(steps, steps[1:]))
        assert steps[-1] <= 25
        incumbents = [p.incumbent_loss for p in traj.points]
        assert all(a >= b for a, b in zip(incumbents, incumbents[1:]))

    def test_per_config_budget_contiguity(self, tiny_table, monkeypatch):
        settings = RunSettings(seed=5, total_step_budget=30)
        observed = []
        orig = RunContext.observe

        def spy(ctx, cid, budget):
            observed.append((cid, budget))
            return orig(ctx, cid, budget)

        monkeypatch.setattr(RunContext, "observe", spy)
        monkeypatch.setattr(hpo_loop, "DplEnsemble", lambda **_: _OracleEnsemble(tiny_table))
        run_dpl(tiny_table, settings)
        budgets_seen: dict[int, list[int]] = {}
        for cid, budget in observed:
            budgets_seen.setdefault(cid, []).append(budget)
        for budgets in budgets_seen.values():
            assert budgets == list(range(1, len(budgets) + 1))

    def test_oracle_double_advances_only_best_candidates(self, monkeypatch):
        # with a perfectly accurate zero-variance surrogate, every advance
        # after the initial design targets the config whose true final loss
        # is minimal among the candidates
        for seed in range(3):
            table = generate_synthetic(seed=seed + 40, n_configs=5, hp_dim=2, b_max=6)
            finals = dict(zip(table.config_ids, table.loss_curves[:, -1]))
            best_id = min(finals, key=finals.get)
            observed = []
            orig = RunContext.observe

            def spy(ctx, cid, budget, _rec=observed):
                _rec.append(cid)
                return orig(ctx, cid, budget)

            monkeypatch.setattr(RunContext, "observe", spy)
            monkeypatch.setattr(hpo_loop, "DplEnsemble", lambda **_: _OracleEnsemble(table))
            settings = RunSettings(seed=seed, total_step_budget=6)
            run_dpl(table, settings)
            monkeypatch.undo()
            assert observed[1:], "loop must advance beyond the initial design"
            assert all(cid == best_id for cid in observed[1:])


class _PhaseRecorder(_OracleEnsemble):
    """Oracle double that records each fit phase; every fit improves on the
    last (no stagnation restart), except call ``inf_at``, which returns inf."""

    def __init__(self, table, inf_at=None):
        super().__init__(table)
        self.phases = []
        self.inf_at = inf_at

    def _fit(self, phase):
        self.phases.append(phase)
        return math.inf if len(self.phases) == self.inf_at else 1.0 / len(self.phases)

    def fit_initial(self, data, schedule):
        return self._fit("fit_initial")

    def refine(self, data, schedule):
        return self._fit("refine")

    def restart(self, data, schedule):
        return self._fit("restart")


class TestPhaseOrder:
    """Which fit runs at which iteration: three initial fits (the schedule's
    ``initial_phase_iterations``), then refinement, and one restart right
    after a non-finite fit loss."""

    def _phases(self, monkeypatch, inf_at=None):
        table = generate_synthetic(seed=2, n_configs=5, hp_dim=2, b_max=4)
        recorder = _PhaseRecorder(table, inf_at)
        monkeypatch.setattr(hpo_loop, "DplEnsemble", lambda **_: recorder)
        run_dpl(table, RunSettings(seed=0, total_step_budget=10), schedule=_fast_schedule(4))
        return recorder.phases

    def test_initial_fits_then_refine(self, monkeypatch):
        assert self._phases(monkeypatch) == ["fit_initial"] * 3 + ["refine"] * 6

    def test_non_finite_fit_loss_restarts_then_refines(self, monkeypatch):
        assert self._phases(monkeypatch, inf_at=5) == (
            ["fit_initial"] * 3 + ["refine", "refine", "restart"] + ["refine"] * 3
        )


class TestNoInitialPhase:
    def test_zero_initial_iterations_run_like_one(self):
        # the first iteration has no fit to refine, so it fits from scratch
        table = generate_synthetic(seed=2, n_configs=5, hp_dim=2, b_max=4)
        settings = RunSettings(seed=0, total_step_budget=8)
        rows = [
            run_dpl(table, settings, schedule=TrainerSchedule.for_curve_length(
                4, initial_epochs=5, refine_epochs=2, initial_phase_iterations=k)).to_rows()
            for k in (0, 1)
        ]
        assert len(rows[0]) == 8 and rows[0] == rows[1]


class TestIncumbentRegret:
    def test_simple_difference(self, tiny_table):
        h = History()
        h.append(Observation(config_id=0, budget=1, loss=oracle(tiny_table) + 0.05))
        assert incumbent_regret(h, tiny_table) == pytest.approx(0.05)

    def test_zero_when_oracle_found(self, tiny_table):
        h = History()
        h.append(Observation(config_id=0, budget=1, loss=oracle(tiny_table)))
        assert incumbent_regret(h, tiny_table) == 0.0

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            table = generate_synthetic(seed=seed, n_configs=6, hp_dim=2, b_max=5,
                                       noise_std=0.05)
            h = History()
            for cid in table.config_ids[:3]:
                for b in range(1, 4):
                    h.append(Observation(config_id=cid, budget=b,
                                         loss=evaluate(table, cid, b)))
            brute_best = min(evaluate(table, cid, b)
                             for cid in table.config_ids[:3] for b in range(1, 4))
            brute_oracle = min(evaluate(table, cid, b)
                               for cid in table.config_ids
                               for b in range(1, table.b_max + 1))
            assert incumbent_regret(h, table) == brute_best - brute_oracle

    def test_empty_history_rejected(self, tiny_table):
        with pytest.raises(ValueError):
            incumbent_regret(History(), tiny_table)


class TestRunContext:
    def test_incremental_cost_accounting(self, tiny_table):
        ctx = RunContext(tiny_table, RunSettings(seed=0, total_step_budget=100), "t")
        cid = tiny_table.config_ids[0]
        ctx.observe(cid, 2)
        assert ctx.steps_consumed == 2
        ctx.observe(cid, 5)
        assert ctx.steps_consumed == 5
        # re-reading inside the paid prefix is free and adds nothing
        before_points = len(ctx.points)
        ctx.observe(cid, 3)
        assert ctx.steps_consumed == 5
        assert len(ctx.points) == before_points
        assert len(ctx.history) == 2

    def test_budget_ceiling_enforced(self, tiny_table):
        ctx = RunContext(tiny_table, RunSettings(seed=0, total_step_budget=3), "t")
        cid = tiny_table.config_ids[0]
        assert not ctx.can_afford(cid, 5)
        with pytest.raises(RuntimeError):
            ctx.observe(cid, 5)

    def test_candidate_pool_excludes_fully_evaluated(self, tiny_table):
        ctx = RunContext(tiny_table, RunSettings(seed=0, total_step_budget=100), "t")
        cid = tiny_table.config_ids[0]
        ctx.observe(cid, tiny_table.b_max)
        rows = ctx.candidate_pool()
        assert tiny_table.index_of(cid) not in rows
        assert rows == sorted(set(rows)) and len(rows) == tiny_table.n_configs - 1


    @pytest.mark.parametrize(
        "curves, message",
        [
            ([[0.7, 0.5], [0.6, 0.5]], "is degenerate: all configurations share the same best loss"),
            ([[1e308, 1e308], [-1e308, -1e308], [0.0, 0.0]], "normalized regret, .* is nan"),
            ([[1.0, 0.0], [1.0, 5e-324], [1.0, 1e-323]], "normalized regret, .* is inf"),
        ],
        ids=["degenerate", "overflowing-span", "subnormal-span"],
    )
    def test_unnormalizable_regret_rejected(self, curves, message):
        table = generate_synthetic(seed=0, n_configs=len(curves), hp_dim=1, b_max=2)
        table = dataclasses.replace(table, raw_curves=np.array(curves))
        with pytest.raises(BenchmarkFormatError, match=f"^benchmark '{table.name}' .*{message}"):
            regret_span(table)
        with pytest.raises(BenchmarkFormatError, match=message):
            RunContext(table, RunSettings(), "rs")

    def test_lone_config_span_is_one(self):
        table = generate_synthetic(seed=0, n_configs=1, hp_dim=1, b_max=2)
        assert RunContext(table, RunSettings(), "rs").normalization_span == 1.0


class TestRunSettings:
    @pytest.mark.parametrize(
        "field, value",
        [("budget_multiplier", 0), ("budget_multiplier", -2), ("total_step_budget", 0)],
    )
    def test_invalid_budget_rejected(self, field, value):
        # checked once at construction, so every method fails the same way
        with pytest.raises(ValueError, match=field):
            RunSettings(**{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed: must be >= 0, got -1$"):
            RunSettings(seed=-1)

    @pytest.mark.parametrize(
        "field, value",
        [("seed", True), ("seed", 1.5), ("seed", np.int64(1)), ("budget_multiplier", 2.5),
         ("budget_multiplier", False), ("total_step_budget", 7.5)],
    )
    def test_non_int_rejected(self, field, value):
        message = rf"^{field}: must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            RunSettings(**{field: value})

    def test_smallest_valid_settings_accepted(self, tiny_table):
        settings = RunSettings(budget_multiplier=1)
        assert settings.resolve_budget(tiny_table) == tiny_table.b_max
        assert RunSettings(total_step_budget=1).resolve_budget(tiny_table) == 1


class TestTrajectory:
    def test_rows_carry_normalization(self, tiny_table):
        settings = RunSettings(seed=2, total_step_budget=10)
        traj = run_dpl(tiny_table, settings, schedule=_fast_schedule(tiny_table.b_max))
        rows = traj.to_rows()
        assert len(rows) == len(traj.points)
        for row, point in zip(rows, traj.points):
            assert row[0] == 2 and row[1] == "dpl"
            assert row[7] == pytest.approx(point.incumbent_regret / traj.normalization_span)

    def test_wall_time_zero_by_default(self, tiny_table):
        assert TRAJECTORY_COLUMNS[4] == "wall_time_s"
        for method in ("dpl", *BASELINE_RUNNERS):
            traj = _run_method(method, tiny_table, RunSettings(seed=2, total_step_budget=8))
            rows = traj.to_rows()
            assert rows, method
            assert all(row[4] == 0.0 for row in rows), method


TINY_SCHEDULE = TrainerSchedule.for_curve_length(
    3, initial_epochs=3, refine_epochs=2, initial_phase_iterations=2
)


def _small_ensemble(hp_dim, seed):
    return DplEnsemble(hp_dim, seed, n_members=2, hidden_width=8)


def _run_method(method, table, run_settings):
    if method != "dpl":
        return BASELINE_RUNNERS[method](table, run_settings)
    # a patch, not monkeypatch: Hypothesis tests call this, and a
    # function-scoped fixture there fails Hypothesis' health check
    with mock.patch.object(hpo_loop, "DplEnsemble", _small_ensemble):
        return run_dpl(table, run_settings, schedule=TINY_SCHEDULE)


class TestSharedSchedule:
    def test_same_seed_runs_sharing_a_schedule_are_identical(self):
        # at seed 0 the first run never restarts; a stagnation counter kept
        # in the schedule would make the second run restart once
        table = generate_synthetic(seed=3, n_configs=6, hp_dim=2, b_max=3, noise_std=0.01)
        run_settings = RunSettings(seed=0, budget_multiplier=6)
        first = _run_method("dpl", table, run_settings).to_rows()
        assert _run_method("dpl", table, run_settings).to_rows() == first

    def test_schedule_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            TINY_SCHEDULE.restart_threshold_iterations = 1


class TestLoopInvariants:
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        n_configs=st.sampled_from([1, 2, 5]),
        b_max=st.sampled_from([1, 2, 4]),
        hp_dim=st.sampled_from([1, 3]),
        multiplier=st.sampled_from([1, 3, 50]),
        method=st.sampled_from(["dpl", *BASELINE_RUNNERS]),
        seed=st.integers(0, 2**16),
    )
    def test_every_method_keeps_the_invariants(
        self, n_configs, b_max, hp_dim, multiplier, method, seed
    ):
        table = generate_synthetic(
            seed=seed, n_configs=n_configs, hp_dim=hp_dim, b_max=b_max, noise_std=0.01
        )
        run_settings = RunSettings(seed=seed, budget_multiplier=multiplier)
        run = _run_method(method, table, run_settings)
        steps = [p.steps_consumed for p in run.points]
        incumbents = [p.incumbent_loss for p in run.points]
        # the points are History's records, replayed here independently
        records = list(run.history)
        assert len(run.points) == len(records)
        paid: dict[int, int] = {}
        total, best = 0, math.inf
        replayed_steps, running_best = [], []
        for obs in records:
            total += obs.budget - paid.get(obs.config_id, 0)
            paid[obs.config_id] = obs.budget
            best = min(best, obs.loss)
            replayed_steps.append(total)
            running_best.append(best)
        assert steps == replayed_steps
        assert incumbents == running_best
        assert run.steps_consumed == run.history.steps == steps[-1]
        assert steps, "every method observes at least one configuration"
        assert steps[-1] <= run_settings.resolve_budget(table)
        assert all(a < b for a, b in zip(steps, steps[1:]))
        if method == "dpl":  # the first config at step 1, then one step per observation
            assert steps == list(range(1, len(steps) + 1))
        assert all(a >= b for a, b in zip(incumbents, incumbents[1:]))
        assert all(p.incumbent_regret >= 0.0 for p in run.points)
        assert _run_method(method, table, run_settings).to_rows() == run.to_rows()


class TestPoolExhaustion:
    """Every method stops once no configuration can take another step."""

    @pytest.mark.parametrize("n_configs", [1, 2])
    @pytest.mark.parametrize("method", ["dpl", *BASELINE_RUNNERS])
    def test_stops_below_the_budget(self, method, n_configs):
        table = generate_synthetic(seed=1, n_configs=n_configs, hp_dim=2, b_max=4)
        run_settings = RunSettings(seed=0, budget_multiplier=50)
        steps = _run_method(method, table, run_settings).points[-1].steps_consumed
        assert steps < run_settings.resolve_budget(table)
        if method in ("dpl", "rs"):  # both take every config to b_max before stopping
            assert steps == n_configs * table.b_max
