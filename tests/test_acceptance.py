"""End-to-end acceptance suite.

Each test covers one release criterion and prints a [PASS]/[FAIL] line
(visible with ``pytest -s``).  The heavyweight experiments run last.
"""

import math
import time

import numpy as np

from powerlaw_hpo.acquisition import expected_improvement
from powerlaw_hpo.baselines import (
    hyperband_brackets,
    run_asha,
    run_hyperband,
    run_random_search,
    run_successive_halving,
    successive_halving_bracket,
)
from powerlaw_hpo.benchmarks import evaluate, generate_synthetic, oracle
from powerlaw_hpo.cli import main as cli_main
from powerlaw_hpo.curve_models import (
    ExtendedCoefficients,
    FitConfig,
    Formulation,
    LearningCurve,
    PowerLawCoefficients,
    eval_broken_power_law,
    eval_power_law,
    eval_scaled_power_law,
    eval_shifted_power_law,
    fit_single_curve,
    min_smooth,
    predict,
)
from powerlaw_hpo.forecasting import ForecastModel, run_forecast_experiment
from powerlaw_hpo.history import History, Observation
from powerlaw_hpo.hpo_loop import RunContext, RunSettings, incumbent_regret, run_dpl
from powerlaw_hpo.neural_core import forward
from powerlaw_hpo.surrogate import DplEnsemble, DplNetwork

from helpers import dpl_analytic_gradient, dpl_loss, max_relative_error, numeric_gradient


def _criterion(number, description):
    """Print one pass/fail line per criterion around the test body."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"[{verdict}] criterion {number}: {description}")
            return False

    return _Reporter()


class _FixedMember:
    def __init__(self, value):
        self.value = float(value)

    def predict(self, configs, b_norm):
        return np.full(np.atleast_2d(configs).shape[0], self.value)


def _fixed_ensemble(values):
    ens = DplEnsemble(hp_dim=2, seed=0, n_members=len(values), hidden_width=4)
    ens.members = [_FixedMember(v) for v in values]
    ens.fitted = True
    return ens


def test_criterion_1_gradient_correctness():
    with _criterion(1, "full-network backward matches finite differences"):
        start = time.monotonic()
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            member = DplNetwork(3, [seed, 99], hidden_width=8)
            member.body.flat_params += rng.uniform(-0.5, 0.5, member.body.flat_params.shape)
            x = rng.uniform(0, 1, (4, 3))
            b = rng.uniform(0.05, 1.0, 4)
            y = rng.uniform(0, 1, 4)
            analytic = dpl_analytic_gradient(member, x, b, y)
            numeric = numeric_gradient(lambda: dpl_loss(member, x, b, y), member.body.flat_params)
            worst = max(worst, max_relative_error(analytic, numeric))
        elapsed = time.monotonic() - start
        assert worst < 1e-5, f"max relative error {worst}"
        assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"


def test_criterion_2_curve_model_identities():
    with _criterion(2, "curve-model identities exact to 1e-12"):
        rng = np.random.default_rng(12)
        for _ in range(200):
            alpha, beta = rng.uniform(-1, 1, 2)
            gamma = rng.uniform(0, 3)
            b = rng.uniform(0.01, 1.0)
            ext = ExtendedCoefficients(alpha, beta, gamma, d=rng.uniform(0.01, 2), e=1.0)
            assert abs(eval_scaled_power_law(ext, b) - eval_shifted_power_law(ext, b)) <= 1e-12
            broken = ExtendedCoefficients(
                alpha, beta, gamma, c=0.0, d=rng.uniform(0.1, 2), f=rng.uniform(0.2, 2)
            )
            plain = eval_power_law(PowerLawCoefficients(alpha, beta, gamma), b)
            assert abs(eval_broken_power_law(broken, b) - plain) <= 1e-12
        for seed in range(20):
            member = DplNetwork(3, [seed], hidden_width=8)
            member.body.flat_params += rng.uniform(-0.5, 0.5, member.body.flat_params.shape)
            config = rng.uniform(0, 1, 3)
            raw, _ = forward(member.body, config[None, :])
            sig = 1.0 / (1.0 + np.exp(-raw[0, 2]))
            assert abs(float(member.predict(config, 1.0)[0]) - (raw[0, 0] + raw[0, 1] * sig)) <= 1e-12


def test_criterion_3_posterior_statistics():
    with _criterion(3, "ensemble posterior mean/variance arithmetic"):
        p = _fixed_ensemble([0.2, 0.4]).posterior(np.zeros(2), 1.0)
        assert abs(p.mean - 0.3) <= 1e-12 and abs(p.variance - 0.01) <= 1e-12
        p = _fixed_ensemble([1.0, 2.0, 3.0]).posterior(np.zeros(2), 1.0)
        assert abs(p.mean - 2.0) <= 1e-12 and abs(p.variance - 2.0 / 3.0) <= 1e-12
        p = _fixed_ensemble([0.7, 0.7, 0.7, 0.7, 0.7]).posterior(np.zeros(2), 1.0)
        assert p.variance == 0.0


def test_criterion_4_expected_improvement_analytics():
    with _criterion(4, "EI closed form, non-negativity and monotonicity"):
        assert abs(expected_improvement(0.5, 1.0, 0.5) - 1.0 / math.sqrt(2 * math.pi)) <= 1e-9
        means = np.linspace(-3, 3, 100)
        stds = np.linspace(0, 2, 100)
        grid = np.array([[expected_improvement(m, s, 0.0) for s in stds] for m in means])
        assert np.all(grid >= 0)
        assert np.all(np.diff(grid, axis=0) <= 1e-12), "EI must not increase with mean"
        assert np.all(np.diff(grid, axis=1) >= -1e-12), "EI must not decrease with std"


def test_criterion_5_per_curve_fit_recovery():
    with _criterion(5, "per-curve fit recovers noiseless final values"):
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        steps = np.arange(1, 51, dtype=float)
        hits = 0
        for i in range(100):
            alpha = rng.uniform(0.05, 0.5)
            beta = rng.uniform(0.3, 1.0)
            gamma = rng.uniform(0.3, 3.0)
            curve = alpha + beta * steps ** (-gamma)
            result = fit_single_curve(curve[:10], max_budget=50, fit_config=FitConfig(seed=i))
            pred = predict(Formulation.POWER_LAW, result.coefficients, 1.0)
            hits += abs(pred - curve[-1]) < 1e-2
        elapsed = time.monotonic() - start
        assert hits >= 95, f"only {hits}/100 curves within 1e-2"
        assert elapsed < 60.0, f"fit recovery took {elapsed:.1f}s"


def test_criterion_6_forecasting_experiment():
    with _criterion(6, "forecasting: per-curve PL ranks, DPL >= CondNN"):
        table = generate_synthetic(seed=606, n_configs=200, hp_dim=2, b_max=25, noise_std=0.0)
        pl = run_forecast_experiment(table, 0.5, ForecastModel.PER_CURVE_POWER_LAW, seed=0)
        assert pl.spearman >= 0.99, f"per-curve PL spearman {pl.spearman}"
        dpl_scores, cond_scores = [], []
        for seed in range(10):
            dpl_scores.append(
                run_forecast_experiment(table, 0.2, ForecastModel.DPL, seed=seed).spearman
            )
            cond_scores.append(
                run_forecast_experiment(table, 0.2, ForecastModel.CONDITIONED_NN, seed=seed).spearman
            )
        assert float(np.median(dpl_scores)) >= float(np.median(cond_scores)), (
            f"median DPL {np.median(dpl_scores)} < median CondNN {np.median(cond_scores)}"
        )


def test_criterion_8_scheduler_accounting():
    with _criterion(8, "SH/Hyperband schedules and budget ceilings"):
        table9 = generate_synthetic(seed=8, n_configs=9, hp_dim=2, b_max=9)
        ctx = RunContext(table9, RunSettings(seed=0, total_step_budget=1000), "sh")
        assert successive_halving_bracket(ctx, list(table9.config_ids), (1, 3, 9), eta=3)
        assert ctx.steps_consumed == 21
        plan = hyperband_brackets(27, 3)
        assert [n for n, _ in plan] == [27, 12, 6, 4]
        table = generate_synthetic(seed=88, n_configs=40, hp_dim=2, b_max=9, noise_std=0.02)
        for runner in (run_random_search, run_successive_halving, run_hyperband, run_asha):
            for seed in range(3):
                traj = runner(table, RunSettings(seed=seed, budget_multiplier=15))
                assert traj.points[-1].steps_consumed <= 15 * table.b_max, runner.__name__
        dpl_traj = run_dpl(table, RunSettings(seed=0, budget_multiplier=5))
        assert dpl_traj.points[-1].steps_consumed <= 5 * table.b_max


def test_criterion_9_regret_oracle_brute_force():
    with _criterion(9, "regret and oracle match exhaustive scans"):
        rng = np.random.default_rng(9)
        for trial in range(50):
            table = generate_synthetic(
                seed=trial, n_configs=int(rng.integers(3, 12)), hp_dim=2,
                b_max=int(rng.integers(2, 10)), noise_std=0.1,
            )
            brute_oracle = min(
                evaluate(table, cid, b)
                for cid in table.config_ids
                for b in range(1, table.b_max + 1)
            )
            assert oracle(table) == brute_oracle
            h = History()
            sampled = rng.choice(table.config_ids, size=min(3, table.n_configs), replace=False)
            for cid in sampled:
                for b in range(1, int(rng.integers(1, table.b_max + 1)) + 1):
                    if b > table.b_max:
                        break
                    h.append(Observation(int(cid), b, evaluate(table, int(cid), b)))
            brute_best = min(o.loss for o in h)
            assert incumbent_regret(h, table) == brute_best - brute_oracle


def test_criterion_10_cli_determinism(tmp_path):
    with _criterion(10, "CLI commands are byte-reproducible"):
        bench = tmp_path / "bench.json"
        synth_args = ["synth", "--seed", "3", "--configs", "8", "--hp-dim", "2",
                      "--b-max", "3", "--noise", "0.01", "--out"]
        bench2 = tmp_path / "bench2.json"
        assert cli_main(synth_args + [str(bench)]) == 0
        assert cli_main(synth_args + [str(bench2)]) == 0
        assert bench.read_bytes() == bench2.read_bytes()

        run_args = lambda out: [
            "run", "--benchmarks", str(bench), "--methods", "dpl,rs,sh,hb,asha",
            "--seeds", "0", "--budget-multiplier", "2", "--out", str(out),
        ]
        out_a, out_b = tmp_path / "runA", tmp_path / "runB"
        assert cli_main(run_args(out_a)) == 0
        assert cli_main(run_args(out_b)) == 0
        names = sorted(p.name for p in out_a.glob("*.csv"))
        assert names == sorted(p.name for p in out_b.glob("*.csv"))
        assert len(names) == 5 + 1
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

        fc_args = lambda out: [
            "forecast", "--benchmark", str(bench), "--fractions", "0.5",
            "--models", "pl,dpl,condnn", "--seeds", "0", "--out", str(out),
        ]
        fc_a, fc_b = tmp_path / "fcA.csv", tmp_path / "fcB.csv"
        assert cli_main(fc_args(fc_a)) == 0
        assert cli_main(fc_args(fc_b)) == 0
        assert fc_a.read_bytes() == fc_b.read_bytes()

        rep_a, rep_b = tmp_path / "repA.csv", tmp_path / "repB.csv"
        assert cli_main(["report", "--in", str(out_a), "--out", str(rep_a)]) == 0
        assert cli_main(["report", "--in", str(out_a), "--out", str(rep_b)]) == 0
        assert rep_a.read_bytes() == rep_b.read_bytes()


def test_criterion_11_min_smoothing():
    with _criterion(11, "min-smoothing is the idempotent prefix minimum"):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            values = rng.uniform(0, 2, size=int(rng.integers(1, 60)))
            curve = LearningCurve.from_values(values)
            smoothed = min_smooth(curve)
            assert smoothed.values == tuple(np.minimum.accumulate(values).tolist())
            assert min_smooth(smoothed).values == smoothed.values
            assert all(a >= b for a, b in zip(smoothed.values, smoothed.values[1:]))


def test_criterion_7_end_to_end_hpo_superiority():
    with _criterion(7, "DPL beats random search at desk scale"):
        start = time.monotonic()
        table = generate_synthetic(seed=42, n_configs=200, hp_dim=2, b_max=12, noise_std=0.01)
        wins = 0
        dpl_finals, rs_finals = [], []
        for seed in range(10):
            settings = RunSettings(seed=seed)
            dpl_final = run_dpl(table, settings).final_normalized_regret()
            rs_final = run_random_search(table, settings).final_normalized_regret()
            wins += dpl_final <= rs_final
            dpl_finals.append(dpl_final)
            rs_finals.append(rs_final)
        elapsed = time.monotonic() - start
        assert wins >= 8, f"DPL won only {wins}/10 paired seeds"
        assert float(np.mean(dpl_finals)) < float(np.mean(rs_finals)), (
            f"mean DPL regret {np.mean(dpl_finals)} not below RS {np.mean(rs_finals)}"
        )
        assert elapsed < 900.0, f"end-to-end comparison took {elapsed:.0f}s"
