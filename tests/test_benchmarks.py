import json

import numpy as np
import pytest

from powerlaw_hpo.benchmarks import (
    BenchmarkFormatError,
    evaluate,
    generate_synthetic,
    load_benchmark,
    oracle,
    save_benchmark,
    table_to_document,
)


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
        assert np.allclose(table.raw_curves[0], [0.6, 0.8])

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

    def test_load_save_load_round_trips_bit_exact(self, tmp_path):
        table = generate_synthetic(seed=5, n_configs=8, hp_dim=3, b_max=7, noise_std=0.02)
        first = tmp_path / "a.json"
        save_benchmark(table, first)
        loaded = load_benchmark(first)
        second = tmp_path / "b.json"
        save_benchmark(loaded, second)
        reloaded = load_benchmark(second)
        assert first.read_bytes() == second.read_bytes()
        assert np.array_equal(loaded.raw_curves, reloaded.raw_curves)
        assert np.array_equal(loaded.raw_values, reloaded.raw_values)
        assert table_to_document(loaded) == table_to_document(reloaded)


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
    def test_round_trip_against_stored_coefficients(self):
        table = generate_synthetic(seed=3, n_configs=20, hp_dim=2, b_max=15, noise_std=0.0)
        steps = np.arange(1, 16, dtype=float)
        for i in range(20):
            a, b_, g = table.generator_coefficients[i]
            regen = a + b_ * steps ** (-g)
            assert np.array_equal(regen, table.loss_curves[i])

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

    def test_tables_are_immutable(self, tiny_table):
        with pytest.raises(ValueError):
            tiny_table.loss_curves[0, 0] = 123.0
        with pytest.raises(ValueError):
            tiny_table.scaled_values[0, 0] = 123.0
