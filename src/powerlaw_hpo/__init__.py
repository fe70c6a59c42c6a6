"""Multi-fidelity hyperparameter optimization with power-law surrogates."""

from .acquisition import expected_improvement
from .benchmarks import BenchmarkTable, generate_synthetic, load_benchmark, save_benchmark
from .curve_models import FitConfig, LearningCurve, fit_single_curve, min_smooth
from .forecasting import ForecastModel, ForecastReport, run_forecast_experiment, spearman
from .history import History, Observation
from .hpo_loop import RunContext, RunSettings, incumbent_regret, run_dpl
from .baselines import run_asha, run_hyperband, run_random_search, run_successive_halving
from .surrogate import DplEnsemble, TrainerSchedule, TrainingData

__version__ = "0.1.0"

__all__ = [
    "BenchmarkTable",
    "DplEnsemble",
    "FitConfig",
    "ForecastModel",
    "ForecastReport",
    "History",
    "LearningCurve",
    "Observation",
    "RunContext",
    "RunSettings",
    "TrainerSchedule",
    "TrainingData",
    "expected_improvement",
    "fit_single_curve",
    "generate_synthetic",
    "incumbent_regret",
    "load_benchmark",
    "min_smooth",
    "run_asha",
    "run_dpl",
    "run_forecast_experiment",
    "run_hyperband",
    "run_random_search",
    "run_successive_halving",
    "save_benchmark",
    "spearman",
    "__version__",
]
