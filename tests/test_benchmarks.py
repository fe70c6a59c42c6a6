import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerlaw_hpo.baselines import (
    geometric_rungs,
    hyperband_brackets,
    run_asha,
    run_hyperband,
    run_successive_halving,
)
from powerlaw_hpo.benchmarks import (
    SYNTH_GAMMA_RANGE,
    BenchmarkFormatError,
    BenchmarkTable,
    count,
    evaluate,
    generate_synthetic,
    load_benchmark,
    oracle,
    save_benchmark,
    table_to_document,
)
from powerlaw_hpo.curve_models import FitConfig, fit_single_curve
from powerlaw_hpo.forecasting import ForecastModel, run_forecast_experiment
from powerlaw_hpo.history import History, Observation
from powerlaw_hpo.hpo_loop import RunSettings
from powerlaw_hpo.surrogate import DplEnsemble, TrainerSchedule


def _minimal_doc(**overrides):
    doc = {
        "name": "mini",
        "metric": "loss",
        "b_max": 2,
        "hyperparameters": [{"name": "lr", "min": 0.0, "max": 1.0}],
        "configs": [{"id": 0, "values": [0.5], "curve": [0.9, 0.4]}],
    }
    doc.update(overrides)
    return doc


def _write(tmp_path, doc, name="bench.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _assert_same_table(a, b):
    for name in ("raw_values", "loss_curves", "scaled_values"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("name", "b_max", "bounds", "hp_names", "config_ids"):
        assert getattr(a, name) == getattr(b, name), name


class TestLoadBenchmark:
    def test_minimal_file(self, tmp_path):
        table = load_benchmark(_write(tmp_path, _minimal_doc()))
        assert table.n_configs == 1
        assert table.b_max == 2
        assert table.loss_curves.shape == (1, 2)
        assert evaluate(table, 0, 1) == 0.9

    def test_accuracy_converted_to_loss(self, tmp_path):
        doc = _minimal_doc(metric="accuracy", configs=[
            {"id": 0, "values": [0.5], "curve": [0.6, 0.8]},
        ])
        table = load_benchmark(_write(tmp_path, doc))
        assert np.allclose(table.loss_curves[0], [0.4, 0.2])

    def test_accuracy_table_saves_as_loss(self, tmp_path):
        loaded = load_benchmark(_write(tmp_path, self.EDGE_DOC))
        curves = [cfg["curve"] for cfg in self.EDGE_DOC["configs"]]
        assert np.array_equal(loaded.loss_curves, 1.0 - np.asarray(curves, dtype=float))
        path = tmp_path / "saved.json"
        save_benchmark(loaded, path)
        assert json.loads(path.read_text(encoding="utf-8"))["metric"] == "loss"
        reloaded = load_benchmark(path)
        assert reloaded.loss_curves.tobytes() == loaded.loss_curves.tobytes()
        _assert_same_table(loaded, reloaded)

    @pytest.mark.parametrize("generator", [{"coefficients": [[0.1, 0.8, 1.5]] * 8}, []])
    def test_generator_block_ignored(self, tmp_path, generator):
        # older synth files end in this block; it is ignored like any unknown key
        doc = table_to_document(generate_synthetic(seed=5, n_configs=8, hp_dim=3, b_max=7,
                                                   noise_std=0.02))
        plain = load_benchmark(_write(tmp_path, doc, "plain.json"))
        doc["generator"] = generator
        _assert_same_table(load_benchmark(_write(tmp_path, doc, "generator.json")), plain)

    def test_curve_length_error_names_config(self, tmp_path):
        doc = _minimal_doc(configs=[{"id": 7, "values": [0.5], "curve": [0.9]}])
        with pytest.raises(BenchmarkFormatError, match=r"config id 7"):
            load_benchmark(_write(tmp_path, doc))

    def test_out_of_bounds_value_rejected(self, tmp_path):
        doc = _minimal_doc(configs=[{"id": 0, "values": [1.5], "curve": [0.9, 0.4]}])
        with pytest.raises(BenchmarkFormatError, match=r"configs\[0\].values\[0\]"):
            load_benchmark(_write(tmp_path, doc))

    def test_duplicate_ids_rejected(self, tmp_path):
        doc = _minimal_doc(configs=[
            {"id": 0, "values": [0.5], "curve": [0.9, 0.4]},
            {"id": 0, "values": [0.6], "curve": [0.8, 0.3]},
        ])
        with pytest.raises(BenchmarkFormatError, match="duplicate"):
            load_benchmark(_write(tmp_path, doc))

    def test_missing_key_diagnostic(self, tmp_path):
        doc = _minimal_doc()
        del doc["b_max"]
        with pytest.raises(BenchmarkFormatError, match="b_max"):
            load_benchmark(_write(tmp_path, doc))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(BenchmarkFormatError, match="invalid JSON"):
            load_benchmark(path)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("configs", 0, "values"), ["a"], r"^configs\[0\]\.values\[0\]: must be a number"),
            (("configs", 0, "values"), [True], r"^configs\[0\]\.values\[0\]: must be a number"),
            (("configs", 0, "curve"), [None, 0.4],
             r"^configs\[0\]\.curve\[0\]: must be a number, got None \(config id 0\)$"),
            (("configs", 0, "curve"), [0.9, "0.5"], r"^configs\[0\]\.curve\[1\]: must be a number"),
            (("configs", 0, "curve"), [False, 0.4], r"^configs\[0\]\.curve\[0\]: must be a number"),
            (("b_max",), True, r"^b_max: must be an integer, got True$"),
            (("configs", 0, "id"), True, r"^configs\[0\]\.id: must be an integer, got True$"),
            (("hyperparameters", 0, "min"), False,
             r"^hyperparameters\[0\]\.min: must be a number, got False$"),
            (("hyperparameters", 0, "max"), True,
             r"^hyperparameters\[0\]\.max: must be a number, got True$"),
            # integers too large for a float: a 401-digit JSON integer
            (("configs", 0, "curve"), [0.9, 10**400],
             r"^configs\[0\]\.curve\[1\]: integer too large for a float \(config id 0\)$"),
            (("hyperparameters", 0, "max"), 10**400,
             r"^hyperparameters\[0\]\.max: integer too large for a float$"),
        ],
    )
    def test_only_json_numbers_accepted(self, tmp_path, path, value, message):
        doc = _minimal_doc()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(BenchmarkFormatError, match=message):
            load_benchmark(_write(tmp_path, doc))

    @pytest.mark.parametrize(
        "lo, hi, got",
        [
            (-math.inf, math.inf, "(-inf, inf)"),
            (0.0, math.inf, "(0.0, inf)"),
            (-math.inf, 0, "(-inf, 0.0)"),
            (math.inf, math.inf, "(inf, inf)"),
            # each bound is finite, but max - min overflows
            (-1.7e308, 1.7e308, "(-1.7e+308, 1.7e+308)"),
            (-1e308, 1e308, "(-1e+308, 1e+308)"),
        ],
    )
    def test_infinite_bounds_or_span_rejected(self, tmp_path, lo, hi, got):
        doc = _minimal_doc(hyperparameters=[{"name": "lr", "min": 0.0, "max": 1.0},
                                            {"name": "wd", "min": lo, "max": hi}],
                           configs=[{"id": 0, "values": [0.5, 0], "curve": [0.9, 0.4]}])
        with pytest.raises(BenchmarkFormatError) as exc:
            load_benchmark(_write(tmp_path, doc))
        assert str(exc.value) == (
            f"hyperparameters[1]: bounds and max - min must be finite, got {got}"
        )

    def test_widest_finite_span_loads(self, tmp_path):
        scaled = _scaled(tmp_path, [-8e307, 0.0, 8e307], lo=-8e307, hi=8e307)
        assert scaled.tolist() == [0.0, 0.5, 1.0]

    def test_load_save_load_round_trips_bit_exact(self, tmp_path):
        table = generate_synthetic(seed=5, n_configs=8, hp_dim=3, b_max=7, noise_std=0.02)
        first = tmp_path / "a.json"
        save_benchmark(table, first)
        loaded = load_benchmark(first)
        second = tmp_path / "b.json"
        save_benchmark(loaded, second)
        reloaded = load_benchmark(second)
        assert first.read_bytes() == second.read_bytes()
        _assert_same_table(loaded, reloaded)
        assert table_to_document(loaded) == table_to_document(reloaded)

    EDGE_DOC = _minimal_doc(
        name="Übung ε-σ ✓ \"q\" \\ \t",
        metric="accuracy",
        b_max=4,
        hyperparameters=[{"name": "depth", "min": 0, "max": 8},
                         {"name": "ω", "min": -1e308, "max": 0.0}],
        configs=[
            {"id": 0, "values": [-0.0, -1e308], "curve": [0.0, -0.0, 5e-324, 1e308]},
            {"id": -7, "values": [5e-324, -5e-324], "curve": [1.0, 0.1, 1 / 3, 0.5]},
            {"id": 2**40, "values": [8, 0.0], "curve": [0, 1, -1e-300, 2.5e-7]},
        ],
    )

    def test_saved_bytes_match_streaming_encoder(self, tmp_path):
        tables = [
            load_benchmark(_write(tmp_path, self.EDGE_DOC)),
            generate_synthetic(seed=4, n_configs=30, hp_dim=3, b_max=9, noise_std=0.05),
        ]
        for table in tables:
            path = tmp_path / "saved.json"
            save_benchmark(table, path)
            expected = "".join(json.JSONEncoder().iterencode(table_to_document(table))) + "\n"
            assert path.read_bytes() == expected.encode("ascii")


def _good_config(cid):
    return {"id": cid, "values": [0.5, 2], "curve": [0.9, 0.5, 0.3]}


def _table_with(bad, index=1, n_configs=3):
    """A two-hyperparameter, b_max 3 table whose ``configs[index]`` is ``bad``."""
    configs = [_good_config(10 + i) for i in range(n_configs)]
    configs[index] = bad
    return _minimal_doc(
        b_max=3,
        hyperparameters=[{"name": "lr", "min": 0.0, "max": 1.0},
                         {"name": "depth", "min": 1, "max": 8}],
        configs=configs,
    )


def _bad(**fields):
    """configs[1] with id 9 and ``fields`` replaced (a None value deletes the key)."""
    cfg = dict(_good_config(9), **fields)
    return {k: v for k, v in cfg.items() if v is not None}


class TestConfigMessages:
    """The full message of each check on a config, and which check fires first."""

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([1], "configs[1]: must be an object"),
            ({"values": [0.5, 2], "curve": [0.9, 0.5, 0.3]}, "configs[1].id: missing"),
            (_bad(values=None), "configs[1].values: missing"),
            (_bad(curve=None), "configs[1].curve: missing"),
            (_bad(id="9"), "configs[1].id: must be an integer, got '9'"),
            (_bad(id=2.0), "configs[1].id: must be an integer, got 2.0"),
            (_bad(id=10), "configs[1].id: duplicate config id 10"),
            (_bad(values="ab"), "configs[1].values: must have 2 entries"),
            (_bad(values=[0.5]), "configs[1].values: must have 2 entries"),
            (_bad(values=[0.5, "3"]), "configs[1].values[1]: must be a number, got '3'"),
            (_bad(values=[None, True]), "configs[1].values[0]: must be a number, got None"),
            (_bad(values=[0.5, 10**400]), "configs[1].values[1]: integer too large for a float"),
            (_bad(values=[0.5, 9]),
             "configs[1].values[1]: value 9.0 outside bounds [1.0, 8.0] (config id 9)"),
            (_bad(values=[-0.25, 2]),
             "configs[1].values[0]: value -0.25 outside bounds [0.0, 1.0] (config id 9)"),
            (_bad(values=[math.nan, 2]),
             "configs[1].values[0]: value nan outside bounds [0.0, 1.0] (config id 9)"),
            (_bad(values=[0.5, math.inf]),
             "configs[1].values[1]: value inf outside bounds [1.0, 8.0] (config id 9)"),
            (_bad(curve=[0.9, 0.5]),
             "configs[1].curve: expected length b_max=3, got 2 (config id 9)"),
            (_bad(curve="abc"), "configs[1].curve: expected length b_max=3, got ? (config id 9)"),
            (_bad(curve=[0.9, None, 0.3]),
             "configs[1].curve[1]: must be a number, got None (config id 9)"),
            (_bad(curve=[0.9, 0.5, 10**400]),
             "configs[1].curve[2]: integer too large for a float (config id 9)"),
            (_bad(curve=[0.9, math.inf, 0.3]), "configs[1].curve: non-finite value (config id 9)"),
            (_bad(curve=[math.nan, 0.5, 0.3]), "configs[1].curve: non-finite value (config id 9)"),
            # the table checks bounds and finiteness once the loader has read
            # every config, and within a config its values before its curve
            (_bad(values=[2.0, 2], curve=[0.9]),
             "configs[1].curve: expected length b_max=3, got 1 (config id 9)"),
            (_bad(values=[2.0, 2], curve=[0.9, math.nan, 0.3]),
             "configs[1].values[0]: value 2.0 outside bounds [0.0, 1.0] (config id 9)"),
        ],
    )
    def test_full_message(self, tmp_path, bad, message):
        with pytest.raises(BenchmarkFormatError) as exc:
            load_benchmark(_write(tmp_path, _table_with(bad)))
        assert str(exc.value) == message

    def test_shape_faults_reported_before_bounds(self, tmp_path):
        # the loader reads every config before the table checks its values
        doc = _table_with(_bad(values=[1.5, 2]), n_configs=5)
        doc["configs"][3]["curve"] = [0.9]
        with pytest.raises(BenchmarkFormatError) as exc:
            load_benchmark(_write(tmp_path, doc))
        assert str(exc.value) == "configs[3].curve: expected length b_max=3, got 1 (config id 13)"

    @pytest.mark.parametrize(
        "bad, message",
        [
            (_bad(curve=[0.9]), "configs[1].curve: expected length b_max=3, got 1 (config id 9)"),
            (_bad(id=10), "metric: must be 'loss' or 'accuracy', got 'acc'"),
        ],
    )
    def test_metric_checked_after_configs(self, tmp_path, bad, message):
        doc = _table_with(bad)
        doc["metric"] = "acc"
        with pytest.raises(BenchmarkFormatError) as exc:
            load_benchmark(_write(tmp_path, doc))
        assert str(exc.value) == message

    def test_first_failing_config_is_named(self, tmp_path):
        doc = _table_with(_bad(values=[1.5, 2]), n_configs=5)
        doc["configs"][3]["curve"] = [0.9, math.inf, 0.3]
        with pytest.raises(BenchmarkFormatError) as exc:
            load_benchmark(_write(tmp_path, doc))
        assert str(exc.value) == (
            "configs[1].values[0]: value 1.5 outside bounds [0.0, 1.0] (config id 9)"
        )


def _without(keys):
    """An edit that deletes ``doc[keys[0]]...[keys[-1]]``."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]
    return edit


class TestDocumentMessages:
    """The structural rules of a table file, in the wording every reader shares
    (``<path>: missing``, ``must be a list``, ``must be an object``)."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (_without(["name"]), "name: missing"),
            (_without(["metric"]), "metric: missing"),
            (lambda doc: doc.update(metric="acc"),
             "metric: must be 'loss' or 'accuracy', got 'acc'"),
            (_without(["b_max"]), "b_max: missing"),
            (_without(["hyperparameters"]), "hyperparameters: missing"),
            (_without(["configs"]), "configs: missing"),
            (_without(["hyperparameters", 0, "name"]), "hyperparameters[0].name: missing"),
            (_without(["hyperparameters", 0, "min"]), "hyperparameters[0].min: missing"),
            (_without(["hyperparameters", 0, "max"]), "hyperparameters[0].max: missing"),
            (lambda doc: doc.update(b_max=0), "b_max: must be >= 1, got 0"),
            (lambda doc: doc.update(b_max=2.0), "b_max: must be an integer, got 2.0"),
            (lambda doc: doc.update(hyperparameters={"lr": {}}), "hyperparameters: must be a list"),
            (lambda doc: doc.update(hyperparameters=[]), "hyperparameters: must not be empty"),
            (lambda doc: doc.update(hyperparameters=["lr"]),
             "hyperparameters[0]: must be an object"),
            (lambda doc: doc.update(configs={}), "configs: must be a list"),
            (lambda doc: doc.update(configs=[]), "configs: must not be empty"),
            (lambda doc: doc["hyperparameters"][0].update(min="0"),
             "hyperparameters[0].min: must be a number, got '0'"),
            (lambda doc: doc["hyperparameters"][0].update(max=None),
             "hyperparameters[0].max: must be a number, got None"),
            (lambda doc: doc["hyperparameters"][0].update(min=2, max=1),
             "hyperparameters[0]: must have min <= max, got (2.0, 1.0)"),
            (lambda doc: doc["hyperparameters"][0].update(min=math.nan),
             "hyperparameters[0]: must have min <= max, got (nan, 1.0)"),
        ],
    )
    def test_full_message(self, tmp_path, edit, message):
        doc = _minimal_doc()
        edit(doc)
        with pytest.raises(BenchmarkFormatError) as exc:
            load_benchmark(_write(tmp_path, doc))
        assert str(exc.value) == message

    @pytest.mark.parametrize("doc", [[], 5, "x", None])
    def test_document_not_an_object(self, tmp_path, doc):
        path = _write(tmp_path, doc)
        with pytest.raises(BenchmarkFormatError) as exc:
            load_benchmark(path)
        assert str(exc.value) == f"{path}: must be an object"


def _scaled(tmp_path, values, lo=0.0, hi=1.0):
    """scaled_values[:, 0] of a one-hyperparameter table holding ``values``."""
    doc = _minimal_doc(
        hyperparameters=[{"name": "lr", "min": lo, "max": hi}],
        configs=[{"id": i, "values": [v], "curve": [0.9, 0.4]} for i, v in enumerate(values)],
    )
    return load_benchmark(_write(tmp_path, doc)).scaled_values[:, 0]


class TestScaleConfig:
    def test_bounds_map_to_unit_interval(self, tmp_path):
        scaled = _scaled(tmp_path, [2.0, 6.0, 4.0], lo=2.0, hi=6.0)
        assert scaled[0] == 0.0
        assert scaled[1] == 1.0
        assert scaled[2] == 0.5

    def test_degenerate_dimension_maps_to_zero(self, tmp_path):
        assert _scaled(tmp_path, [3.0], lo=3.0, hi=3.0)[0] == 0.0

    def test_out_of_bounds_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            _scaled(tmp_path, [1.2])

    def test_affine_order_preserving(self, tmp_path):
        vals = np.linspace(-1, 3, 9)
        scaled = list(_scaled(tmp_path, vals.tolist(), lo=-1.0, hi=3.0))
        assert all(a < b for a, b in zip(scaled, scaled[1:]))
        diffs = np.diff(scaled)
        assert np.allclose(diffs, diffs[0])

    def test_matches_per_value_formula(self, tmp_path):
        # the whole-table divide gives the per-value min-max formula bit for bit
        rng = np.random.default_rng(8)
        bounds = [(-3.0, 7.5), (2.0, 2.0), (1e-4, 3e-4)]
        values = [[rng.uniform(lo, hi) for lo, hi in bounds] for _ in range(20)]
        doc = _minimal_doc(
            hyperparameters=[{"name": f"x{j}", "min": lo, "max": hi}
                             for j, (lo, hi) in enumerate(bounds)],
            configs=[{"id": i, "values": v, "curve": [0.9, 0.4]} for i, v in enumerate(values)],
        )
        scaled = load_benchmark(_write(tmp_path, doc)).scaled_values
        expected = [[0.0 if hi == lo else (v - lo) / (hi - lo) for v, (lo, hi) in zip(row, bounds)]
                    for row in values]
        assert scaled.tolist() == expected


class TestEvaluate:
    def test_pure_lookup(self, tiny_table):
        first = evaluate(tiny_table, 3, 4)
        assert evaluate(tiny_table, 3, 4) == first
        assert first == tiny_table.loss_curves[3, 3]

    def test_budget_bounds(self, tiny_table):
        with pytest.raises(ValueError):
            evaluate(tiny_table, 0, 0)
        with pytest.raises(ValueError):
            evaluate(tiny_table, 0, tiny_table.b_max + 1)

    def test_unknown_config(self, tiny_table):
        with pytest.raises(KeyError):
            evaluate(tiny_table, 999, 1)

    def test_unknown_config_error_names_the_id(self, tiny_table):
        for cid in (999, -1, tiny_table.n_configs):
            with pytest.raises(KeyError, match=f"^'unknown config id {cid}'$"):
                evaluate(tiny_table, cid, 1)
        assert evaluate(tiny_table, tiny_table.config_ids[-1], 1) == tiny_table.loss_curves[-1, 0]


class TestOracleAndRegret:
    def test_oracle_is_global_minimum(self, tiny_table):
        brute = min(
            evaluate(tiny_table, cid, b)
            for cid in tiny_table.config_ids
            for b in range(1, tiny_table.b_max + 1)
        )
        assert oracle(tiny_table) == brute

    def test_oracle_below_everything(self, tiny_table):
        assert np.all(oracle(tiny_table) <= tiny_table.loss_curves)

    def test_brute_force_equivalence_random_tables(self):
        for seed in range(10):
            table = generate_synthetic(seed=seed, n_configs=50, hp_dim=2, b_max=20,
                                       noise_std=0.05)
            brute = min(float(v) for row in table.loss_curves for v in row)
            assert oracle(table) == brute


class TestGenerateSynthetic:
    def test_noiseless_curves_are_power_laws(self):
        # for a + b * s^-g the drops over steps s, 2s, 4s, 8s shrink by 2^-g
        # each, so d1 * d3 == d2^2 and g == log2(d1 / d2)
        table = generate_synthetic(seed=3, n_configs=20, hp_dim=2, b_max=24, noise_std=0.0)
        for s in (1, 2, 3):
            y = table.loss_curves[:, [s - 1, 2 * s - 1, 4 * s - 1, 8 * s - 1]]
            d1, d2, d3 = (y[:, :-1] - y[:, 1:]).T
            np.testing.assert_allclose(d1 * d3, d2**2, rtol=1e-9)
            gamma = np.log2(d1 / d2)
            assert np.all((SYNTH_GAMMA_RANGE[0] < gamma) & (gamma < SYNTH_GAMMA_RANGE[1]))

    def test_same_seed_identical(self):
        a = generate_synthetic(seed=9, n_configs=10, hp_dim=2, b_max=5, noise_std=0.01)
        b = generate_synthetic(seed=9, n_configs=10, hp_dim=2, b_max=5, noise_std=0.01)
        assert np.array_equal(a.loss_curves, b.loss_curves)
        assert np.array_equal(a.raw_values, b.raw_values)
        assert a.name == b.name

    def test_noiseless_curves_non_increasing(self):
        table = generate_synthetic(seed=11, n_configs=30, hp_dim=3, b_max=12, noise_std=0.0)
        diffs = np.diff(table.loss_curves, axis=1)
        assert np.all(diffs <= 0)

    def test_noise_stays_in_range(self):
        table = generate_synthetic(seed=2, n_configs=30, hp_dim=2, b_max=12, noise_std=0.3)
        assert table.loss_curves.min() > 0
        assert table.loss_curves.max() <= 1.5

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_synthetic(seed=0, n_configs=0)
        for noise in (math.nan, math.inf, -0.1):
            with pytest.raises(ValueError, match=r"^noise_std: must be a finite number >= 0"):
                generate_synthetic(seed=0, noise_std=noise)

    @pytest.mark.parametrize("noise", ["0.1", True, np.float64(0.1), None])
    def test_noise_must_be_a_number(self, noise):
        # a bool is not 1.0 and a numpy float is not a float, as counts reject
        # bools and numpy integers
        with pytest.raises(BenchmarkFormatError) as info:
            generate_synthetic(seed=0, noise_std=noise)
        assert str(info.value) == f"noise_std: must be a number, got {noise!r}"

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed: must be >= 0, got -1$"):
            generate_synthetic(seed=-1)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_configs=st.integers(1, 12),
        hp_dim=st.integers(1, 4),
        b_max=st.integers(1, 15),
        noise_std=st.sampled_from([0.0, 0.01, 0.3]),
    )
    def test_equals_its_saved_and_loaded_copy(self, tmp_path_factory, seed, n_configs, hp_dim,
                                              b_max, noise_std):
        # the generator builds its table from its arrays, without the loader's
        # checks; the file it saves must load back as the same table
        table = generate_synthetic(seed=seed, n_configs=n_configs, hp_dim=hp_dim, b_max=b_max,
                                   noise_std=noise_std)
        path = tmp_path_factory.mktemp("synth") / "t.json"
        save_benchmark(table, path)
        loaded = load_benchmark(path)
        _assert_same_table(table, loaded)
        assert all(type(cid) is int for cid in table.config_ids + loaded.config_ids)

    def test_views_derive_from_the_stored_fields(self, tiny_table):
        # scaled_values is computed, never passed in
        values = tiny_table.raw_values.copy()
        values[:, 1] = 0.5
        rescaled = dataclasses.replace(tiny_table, raw_values=values,
                                       bounds=((0.0, 2.0), (0.5, 0.5)))
        assert np.array_equal(rescaled.scaled_values[:, 0], values[:, 0] / 2.0)
        assert np.all(rescaled.scaled_values[:, 1] == 0.0)
        with pytest.raises(TypeError):
            BenchmarkTable(**{f.name: getattr(tiny_table, f.name)
                              for f in dataclasses.fields(BenchmarkTable)})

    def test_tables_are_immutable(self, tiny_table):
        with pytest.raises(ValueError):
            tiny_table.loss_curves[0, 0] = 123.0
        with pytest.raises(ValueError):
            tiny_table.scaled_values[0, 0] = 123.0


_SIX = generate_synthetic(seed=0, n_configs=6, hp_dim=2, b_max=4)


def _six_with(name, *entries):
    """A copy of ``_SIX``'s array ``name`` with each ``(row, column, value)`` set."""
    arr = getattr(_SIX, name).copy()
    for row, col, value in entries:
        arr[row, col] = value
    return arr


class TestTableRules:
    """A table built in code obeys the loader's rules: each field is checked
    when the table is built, not when a run first reads it."""

    @pytest.mark.parametrize(
        "changes, message",
        [
            # a numpy id used to build, then fail the run's first History.append
            ({"config_ids": tuple(np.arange(6))}, "configs[0].id: must be an integer, got np.int64(0)"),
            ({"config_ids": (0, 1, 2, "3", 4, 5)}, "configs[3].id: must be an integer, got '3'"),
            # a repeated id used to hide the first row from every lookup
            ({"config_ids": (0, 0, 1, 2, 3, 4)}, "configs[1].id: duplicate config id 0"),
            ({"config_ids": (0, 1, 2, 3, 4)}, "raw_values: must have shape (5, 2), got (6, 2)"),
            # a short curve used to raise IndexError in evaluate at the last step
            ({"loss_curves": _SIX.loss_curves[:, :3]},
             "loss_curves: must have shape (6, 4), got (6, 3)"),
            ({"b_max": 5}, "loss_curves: must have shape (6, 5), got (6, 4)"),
            # a float b_max used to build and then fail every curve lookup
            ({"b_max": 4.0}, "b_max: must be an integer, got 4.0"),
            ({"raw_values": _SIX.raw_values[:, :1]},
             "raw_values: must have shape (6, 2), got (6, 1)"),
            ({"hp_names": ("x0",)}, "bounds: must have shape (1, 2), got (2, 2)"),
            ({"bounds": ((0.0, 1.0),) * 3}, "bounds: must have shape (2, 2), got (3, 2)"),
            # a ragged pair used to raise numpy's own ValueError (inhomogeneous shape)
            ({"bounds": ((0.0, 1.0), (0.0,))}, "bounds: must have shape (2, 2), got a ragged nesting"),
            # a list used to build as far as setflags, then raise AttributeError
            ({"raw_values": _SIX.raw_values.tolist()}, "raw_values: must be a float64 array, got list"),
            ({"loss_curves": _SIX.loss_curves.tolist()},
             "loss_curves: must be a float64 array, got list"),
            # an integer array used to fail the scaling's in-place divide with a TypeError
            ({"raw_values": np.ones((6, 2), dtype=int)},
             "raw_values: must be a float64 array, got int64 array"),
            # a NaN curve entry used to build; a forecast then reported a NaN
            # error and a run failed on its regret scale
            ({"loss_curves": _six_with("loss_curves", (2, 1, math.nan))},
             "configs[2].curve: non-finite value (config id 2)"),
            ({"loss_curves": _six_with("loss_curves", (5, 3, -math.inf))},
             "configs[5].curve: non-finite value (config id 5)"),
            # an out-of-bounds value used to build and scale past 1
            ({"raw_values": _six_with("raw_values", (4, 1, 7.0))},
             "configs[4].values[1]: value 7.0 outside bounds [0.0, 1.0] (config id 4)"),
            ({"raw_values": _six_with("raw_values", (0, 0, -0.5), (0, 1, math.nan))},
             "configs[0].values[0]: value -0.5 outside bounds [0.0, 1.0] (config id 0)"),
            ({"raw_values": _six_with("raw_values", (3, 1, math.nan))},
             "configs[3].values[1]: value nan outside bounds [0.0, 1.0] (config id 3)"),
            # the first bad config is named; within one, its values first
            ({"raw_values": _six_with("raw_values", (3, 0, 2.0)),
              "loss_curves": _six_with("loss_curves", (1, 0, math.nan))},
             "configs[1].curve: non-finite value (config id 1)"),
            ({"raw_values": _six_with("raw_values", (1, 0, 2.0)),
              "loss_curves": _six_with("loss_curves", (1, 0, math.nan))},
             "configs[1].values[0]: value 2.0 outside bounds [0.0, 1.0] (config id 1)"),
        ],
    )
    def test_bad_field_rejected_on_construction(self, changes, message):
        with pytest.raises(BenchmarkFormatError) as info:
            dataclasses.replace(_SIX, **changes)
        assert str(info.value) == message

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(data=st.data(), n_configs=st.integers(1, 6), hp_dim=st.integers(1, 3),
           b_max=st.integers(1, 4))
    def test_value_checks_match_per_config_loop(self, data, n_configs, hp_dim, b_max):
        # the table's whole-array checks name the same first fault as the
        # loader's former loop, which checked each config's values, then its curve
        def rows(width, entries):
            return data.draw(st.lists(st.lists(st.sampled_from(entries), min_size=width,
                                               max_size=width),
                                      min_size=n_configs, max_size=n_configs))

        bounds = tuple(data.draw(st.sampled_from([(0.0, 1.0), (0.25, 0.25), (-5e-324, 3.0)]))
                       for _ in range(hp_dim))
        values = rows(hp_dim, [0.0, -0.0, 0.25, 1.0, 3.0, -5e-324, 1.0000000000000002, 7.0,
                               math.nan, math.inf, -math.inf])
        curves = rows(b_max, [0.5, -1e308, math.nan, math.inf])
        ids = tuple(range(5, 5 + n_configs))
        expected = None
        for i, (vals, curve) in enumerate(zip(values, curves)):
            for j, (v, (lo, hi)) in enumerate(zip(vals, bounds)):
                if expected is None and not lo <= v <= hi:
                    expected = (f"configs[{i}].values[{j}]: value {v} outside bounds"
                                f" [{lo}, {hi}] (config id {ids[i]})")
            if expected is None and not all(map(math.isfinite, curve)):
                expected = f"configs[{i}].curve: non-finite value (config id {ids[i]})"
        build = functools.partial(
            BenchmarkTable, name="t", b_max=b_max, hp_names=tuple("abc"[:hp_dim]),
            bounds=bounds, config_ids=ids, raw_values=np.array(values),
            loss_curves=np.array(curves),
        )
        if expected is None:
            build()
        else:
            with pytest.raises(BenchmarkFormatError) as info:
                build()
            assert str(info.value) == expected

    def test_negative_ids_accepted(self):
        table = dataclasses.replace(_SIX, config_ids=(-3, 7, 0, -1, 2, 5))
        assert [table.index_of(cid) for cid in (-3, 7, 0, -1, 2, 5)] == list(range(6))


_COUNT_TABLE = generate_synthetic(seed=0, n_configs=4, hp_dim=2, b_max=5)
_SETTINGS = RunSettings(seed=0, total_step_budget=10)

# every count a caller or a document hands to the package: (field path,
# floor, a call that passes the value to that entry point)
COUNT_CHECKS = {
    "RunSettings.seed": ("seed", 0, lambda v: RunSettings(seed=v)),
    "RunSettings.budget_multiplier":
        ("budget_multiplier", 1, lambda v: RunSettings(budget_multiplier=v)),
    "RunSettings.total_step_budget":
        ("total_step_budget", 1, lambda v: RunSettings(total_step_budget=v)),
    "FitConfig.max_epochs": ("max_epochs", 1, lambda v: FitConfig(max_epochs=v)),
    "FitConfig.restarts": ("restarts", 1, lambda v: FitConfig(restarts=v)),
    "FitConfig.seed": ("seed", 0, lambda v: FitConfig(seed=v)),
    "FitConfig.seed-tuple": ("seed[1]", 0, lambda v: FitConfig(seed=(0, v))),
    **{
        f"TrainerSchedule.{field.name}": (
            field.name, 1 if field.name == "batch_size" else 0,
            lambda v, key=field.name: TrainerSchedule(**{key: v}),
        )
        for field in dataclasses.fields(TrainerSchedule)
    },
    **{
        f"DplEnsemble.{key}": (
            key, 0 if key == "seed" else 1,
            lambda v, key=key: DplEnsemble(**{"hp_dim": 2, "seed": 0, key: v}),
        )
        for key in ("hp_dim", "seed", "n_members", "hidden_width")
    },
    "generate_synthetic.seed": ("seed", 0, lambda v: generate_synthetic(seed=v)),
    "generate_synthetic.n_configs":
        ("n_configs", 1, lambda v: generate_synthetic(seed=0, n_configs=v)),
    "generate_synthetic.hp_dim": ("hp_dim", 1, lambda v: generate_synthetic(seed=0, hp_dim=v)),
    "generate_synthetic.b_max": ("b_max", 1, lambda v: generate_synthetic(seed=0, b_max=v)),
    **{
        f"run_forecast_experiment.seed-{model.value}": (
            "seed", 0,
            lambda v, model=model: run_forecast_experiment(_COUNT_TABLE, 0.5, model, seed=v),
        )
        for model in ForecastModel
    },
    "geometric_rungs.eta": ("eta", 2, lambda v: geometric_rungs(9, v)),
    "hyperband_brackets.eta": ("eta", 2, lambda v: hyperband_brackets(9, v)),
    **{
        f"{run.__name__}.eta": ("eta", 2, lambda v, run=run: run(_COUNT_TABLE, _SETTINGS, eta=v))
        for run in (run_successive_halving, run_hyperband, run_asha)
    },
    "fit_single_curve.max_budget":
        ("max_budget", 1, lambda v: fit_single_curve([0.5, 0.4], max_budget=v)),
    "History.append.budget": ("budget", 1, lambda v: History().append(Observation(1, v, 0.3))),
    "Benchmark.b_max": ("b_max", 1, lambda v: dataclasses.replace(_COUNT_TABLE, b_max=v)),
}


class TestCount:
    def test_returns_the_value(self):
        assert count(0, "x") == 0
        assert count(2, "eta", floor=2) == 2

    @pytest.mark.parametrize("entry", list(COUNT_CHECKS))
    @pytest.mark.parametrize(
        "kind", ["bool", "float", "numpy", "below-floor", "string", "integral-float"]
    )
    def test_every_entry_point_shares_the_rule(self, entry, kind):
        # a string is how a CSV or command line carries a count, and an
        # integral float how a JSON writer may: neither is an int
        path, floor, call = COUNT_CHECKS[entry]
        value = {"bool": True, "float": 1.5, "numpy": np.int64(1), "below-floor": floor - 1,
                 "string": "3", "integral-float": 2.0}[kind]
        if kind == "below-floor":
            expected = f"{path}: must be >= {floor}, got {value}"
        else:
            expected = f"{path}: must be an integer, got {value!r}"
        with pytest.raises(BenchmarkFormatError) as info:
            call(value)
        assert str(info.value) == expected
