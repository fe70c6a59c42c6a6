"""Tabular learning-curve benchmarks: ingestion, scaling, oracle and
synthetic generation.

File format (UTF-8 JSON, no comments): an object with
  name: string
  metric: "loss" | "accuracy"
  b_max: integer
  hyperparameters: [{name, min, max}, ...]
  configs: [{id: int, values: [...], curve: [...]}, ...]
  generator (optional): {"coefficients": [[alpha, beta, gamma], ...]}

Accuracy-direction curves are assumed to lie in [0, 1] and are converted
to losses (1 - value) at load time; everything downstream minimizes.
Loaders for external curve collections should apply any source-specific
trimming (e.g. dropping unreliable first/last steps) before writing files
in this format; the loader itself does not alter curves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np


class BenchmarkFormatError(ValueError):
    """Input that breaks a rule (a benchmark file, a snapshot or an argument),
    with a field-path diagnostic."""


def require(cond: bool, path: str, msg: str):
    if not cond:
        raise BenchmarkFormatError(f"{path}: {msg}")


def count(value, path: str, floor: int = 0) -> int:
    """``value`` if it is an ``int`` >= ``floor``; bools, floats and numpy
    integers fail."""
    if type(value) is not int:
        raise BenchmarkFormatError(f"{path}: must be an integer, got {value!r}")
    if value < floor:
        raise BenchmarkFormatError(f"{path}: must be >= {floor}, got {value}")
    return value


def number(v, path: str, note: str = "") -> float:
    """A JSON number as a float; strings, null, bools (an int subclass) and
    integers beyond the float range fail."""
    require(type(v) is float or type(v) is int, path, f"must be a number, got {v!r}{note}")
    try:
        return float(v)
    except OverflowError:
        raise BenchmarkFormatError(f"{path}: integer too large for a float{note}") from None


def numbers(
    items: list, array: str, i: int, field: str = "", cid: int | None = None
) -> list[float]:
    """Each entry of ``{array}[{i}]{field}`` as a float, failing as ``number``
    does; the path and the config-id note are built only on failure."""
    try:
        out = [float(v) for v in items if type(v) is float or type(v) is int]
    except OverflowError:
        out = []
    if len(out) != len(items):
        note = "" if cid is None else f" (config id {cid})"
        for j, v in enumerate(items):
            number(v, f"{array}[{i}]{field}[{j}]", note)
    return out


@dataclass(frozen=True)
class BenchmarkTable:
    """Immutable map from configuration to full learning curve.

    ``raw_curves`` keeps the file's values (in its declared metric
    direction) so tables round-trip bit-exactly; ``loss_curves`` is the
    minimization-oriented view used everywhere else.
    """

    name: str
    metric_direction: str          # "loss" or "accuracy"
    b_max: int
    hp_names: tuple[str, ...]
    bounds: tuple[tuple[float, float], ...]
    config_ids: tuple[int, ...]
    raw_values: np.ndarray         # (n, hp_dim)
    raw_curves: np.ndarray         # (n, b_max), as stored in the file
    loss_curves: np.ndarray        # (n, b_max)
    scaled_values: np.ndarray      # (n, hp_dim), min-max scaled
    generator_coefficients: np.ndarray | None = None  # (n, 3) if synthetic

    def __post_init__(self):
        for arr in (self.raw_values, self.raw_curves, self.loss_curves, self.scaled_values):
            arr.setflags(write=False)
        if self.generator_coefficients is not None:
            self.generator_coefficients.setflags(write=False)
        object.__setattr__(self, "_id_index", {cid: i for i, cid in enumerate(self.config_ids)})

    @property
    def n_configs(self) -> int:
        return len(self.config_ids)

    @property
    def hp_dim(self) -> int:
        return len(self.hp_names)

    def index_of(self, config_id: int) -> int:
        return self._id_index[config_id]


def evaluate(table: BenchmarkTable, config_id: int, budget: int) -> float:
    """Loss of a configuration at an exact budget step (pure lookup)."""
    if not 1 <= budget <= table.b_max:
        raise ValueError(f"budget {budget} outside [1, {table.b_max}]")
    try:
        row = table.index_of(config_id)
    except KeyError:
        raise KeyError(f"unknown config id {config_id}") from None
    return float(table.loss_curves[row, budget - 1])


def oracle(table: BenchmarkTable) -> float:
    """Global minimum loss over all configurations and budgets."""
    if table.n_configs == 0:
        raise ValueError("empty table")
    return float(table.loss_curves.min())


def _as_table(doc: dict, source: str) -> BenchmarkTable:
    require(isinstance(doc, dict), source, "top level must be an object")
    for key in ("name", "metric", "b_max", "hyperparameters", "configs"):
        require(key in doc, source, f"missing required key '{key}'")
    require(isinstance(doc["name"], str), "name", "must be a string")
    metric = doc["metric"]
    require(metric in ("loss", "accuracy"), "metric", f"must be 'loss' or 'accuracy', got {metric!r}")
    b_max = doc["b_max"]
    require(type(b_max) is int and b_max >= 1, "b_max", "must be a positive integer")

    hps = doc["hyperparameters"]
    require(isinstance(hps, list) and hps, "hyperparameters", "must be a non-empty array")
    names, bounds = [], []
    for i, hp in enumerate(hps):
        path = f"hyperparameters[{i}]"
        require(isinstance(hp, dict), path, "must be an object")
        for key in ("name", "min", "max"):
            require(key in hp, path, f"missing '{key}'")
        require(isinstance(hp["name"], str), f"{path}.name", "must be a string")
        lo, hi = hp["min"], hp["max"]
        require(
            type(lo) in (int, float) and type(hi) in (int, float) and lo <= hi,
            path, f"bounds must be numbers with min <= max, got ({lo!r}, {hi!r})",
        )
        lo, hi = number(lo, f"{path}.min"), number(hi, f"{path}.max")
        # scaling divides by the span, so an infinite bound or an
        # overflowing span would turn every scaled value into NaN or 0.0
        require(math.isfinite(hi - lo), path,
                 f"bounds and max - min must be finite, got ({lo!r}, {hi!r})")
        names.append(hp["name"])
        bounds.append((lo, hi))

    configs = doc["configs"]
    require(isinstance(configs, list) and configs, "configs", "must be a non-empty array")
    # the checks below run once per config, so each formats its message
    # only when it fails
    ids, values, curves = [], [], []
    seen = set()
    for i, cfg in enumerate(configs):
        if not isinstance(cfg, dict):
            raise BenchmarkFormatError(f"configs[{i}]: must be an object")
        for key in ("id", "values", "curve"):
            if key not in cfg:
                raise BenchmarkFormatError(f"configs[{i}]: missing '{key}'")
        cid = cfg["id"]
        if type(cid) is not int:
            raise BenchmarkFormatError(f"configs[{i}].id: must be an integer")
        if cid in seen:
            raise BenchmarkFormatError(f"configs[{i}].id: duplicate config id {cid}")
        seen.add(cid)
        vals = cfg["values"]
        if not (isinstance(vals, list) and len(vals) == len(names)):
            raise BenchmarkFormatError(f"configs[{i}].values: must have {len(names)} entries")
        vals = numbers(vals, "configs", i, ".values")
        for j, (v, (lo, hi)) in enumerate(zip(vals, bounds)):
            if not lo <= v <= hi:
                raise BenchmarkFormatError(
                    f"configs[{i}].values[{j}]: value {v} outside bounds [{lo}, {hi}]"
                    f" (config id {cid})"
                )
        curve = cfg["curve"]
        if not (isinstance(curve, list) and len(curve) == b_max):
            got = len(curve) if isinstance(curve, list) else "?"
            raise BenchmarkFormatError(
                f"configs[{i}].curve: expected length b_max={b_max}, got {got} (config id {cid})"
            )
        curve = numbers(curve, "configs", i, ".curve", cid)
        if not all(map(math.isfinite, curve)):
            raise BenchmarkFormatError(f"configs[{i}].curve: non-finite value (config id {cid})")
        ids.append(cid)
        values.append(vals)
        curves.append(curve)

    gen = None
    if "generator" in doc:
        path = "generator.coefficients"
        require(isinstance(doc["generator"], dict), "generator", "must be an object")
        coeffs = doc["generator"].get("coefficients")
        require(
            isinstance(coeffs, list) and len(coeffs) == len(ids),
            path, "must list one [alpha, beta, gamma] per config",
        )
        rows = []
        for i, row in enumerate(coeffs):
            if not (isinstance(row, list) and len(row) == 3):
                raise BenchmarkFormatError(f"{path}[{i}]: must be [alpha, beta, gamma]")
            rows.append(numbers(row, path, i))
        gen = np.asarray(rows, dtype=float)

    raw_values = np.asarray(values, dtype=float)
    raw_curves = np.asarray(curves, dtype=float)
    loss_curves = 1.0 - raw_curves if metric == "accuracy" else raw_curves.copy()
    # min-max scale by the declared bounds (not observed extrema); a
    # degenerate dimension (min == max) maps to 0
    lo, hi = np.array(bounds).T
    scaled = np.zeros_like(raw_values)
    np.divide(raw_values - lo, hi - lo, out=scaled, where=hi > lo)
    return BenchmarkTable(
        name=doc["name"],
        metric_direction=metric,
        b_max=b_max,
        hp_names=tuple(names),
        bounds=tuple(bounds),
        config_ids=tuple(ids),
        raw_values=raw_values,
        raw_curves=raw_curves,
        loss_curves=loss_curves,
        scaled_values=scaled,
        generator_coefficients=gen,
    )


def load_benchmark(path) -> BenchmarkTable:
    """Load and validate a benchmark file; errors carry field paths."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise BenchmarkFormatError(f"{path}: not UTF-8 ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise BenchmarkFormatError(f"{path}: invalid JSON ({exc})") from exc
    return _as_table(doc, str(path))


def table_to_document(table: BenchmarkTable) -> dict:
    doc = {
        "name": table.name,
        "metric": table.metric_direction,
        "b_max": table.b_max,
        "hyperparameters": [
            {"name": n, "min": lo, "max": hi}
            for n, (lo, hi) in zip(table.hp_names, table.bounds)
        ],
        "configs": [
            {"id": int(cid), "values": vals, "curve": curve}
            for cid, vals, curve in zip(
                table.config_ids, table.raw_values.tolist(), table.raw_curves.tolist()
            )
        ],
    }
    if table.generator_coefficients is not None:
        doc["generator"] = {"coefficients": table.generator_coefficients.tolist()}
    return doc


def save_benchmark(table: BenchmarkTable, path) -> None:
    """Write a table back to disk in the benchmark JSON schema.

    ``json.dumps`` takes the one-shot C encoder, which writes the same
    bytes as the streaming ``json.dump`` in a fraction of its time.
    """
    text = json.dumps(table_to_document(table)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# Coefficient ranges for synthetic curves; curve values stay within (0, 1.5).
SYNTH_ALPHA_RANGE = (0.05, 0.5)
SYNTH_BETA_RANGE = (0.3, 1.0)
SYNTH_GAMMA_RANGE = (0.3, 3.0)


def _smooth_unit_map(x: np.ndarray, weights: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Fixed smooth map [0,1]^d -> (0,1): tanh of a random affine+sine mix."""
    lin = x @ weights[:-1] + weights[-1]
    wob = np.sin(2.0 * np.pi * (x @ phases[:-1]) + phases[-1])
    return 0.5 * (1.0 + np.tanh(lin + 0.3 * wob))


def generate_synthetic(
    seed: int,
    n_configs: int = 200,
    hp_dim: int = 2,
    b_max: int = 25,
    noise_std: float = 0.0,
) -> BenchmarkTable:
    """Build a power-law benchmark with stored ground-truth coefficients.

    Hyperparameter vectors are uniform in [0,1]^hp_dim and map smoothly to
    (alpha, beta, gamma); curves are alpha + beta * step^(-gamma) over raw
    steps 1..b_max, plus optional Gaussian noise clipped into (0, 1.5).
    The counts must be ``int``s (``seed`` >= 0, the others >= 1) and
    ``noise_std`` a finite number >= 0 (a bool or a numpy float fails), or
    BenchmarkFormatError names the field.
    """
    count(seed, "seed")
    count(n_configs, "n_configs", floor=1)
    count(hp_dim, "hp_dim", floor=1)
    count(b_max, "b_max", floor=1)
    number(noise_std, "noise_std")
    require(0.0 <= noise_std < math.inf, "noise_std",
            f"must be a finite number >= 0, got {noise_std}")
    rng = np.random.default_rng([seed, 0xBE7C])
    x = rng.uniform(0.0, 1.0, size=(n_configs, hp_dim))
    ranges = (SYNTH_ALPHA_RANGE, SYNTH_BETA_RANGE, SYNTH_GAMMA_RANGE)
    coeffs = np.empty((n_configs, 3))
    for j, (lo, hi) in enumerate(ranges):
        weights = rng.normal(0.0, 1.5, size=hp_dim + 1)
        phases = rng.normal(0.0, 1.0, size=hp_dim + 1)
        coeffs[:, j] = lo + (hi - lo) * _smooth_unit_map(x, weights, phases)
    steps = np.arange(1, b_max + 1, dtype=float)
    curves = coeffs[:, [0]] + coeffs[:, [1]] * steps[None, :] ** (-coeffs[:, [2]])
    if noise_std > 0:
        curves = curves + rng.normal(0.0, noise_std, size=curves.shape)
        curves = np.clip(curves, 1e-6, 1.5)
    doc = {
        "name": f"synthetic-s{seed}-n{n_configs}-d{hp_dim}-b{b_max}",
        "metric": "loss",
        "b_max": b_max,
        "hyperparameters": [
            {"name": f"x{j}", "min": 0.0, "max": 1.0} for j in range(hp_dim)
        ],
        "configs": [
            {"id": i, "values": vals, "curve": curve}
            for i, (vals, curve) in enumerate(zip(x.tolist(), curves.tolist()))
        ],
        "generator": {"coefficients": coeffs.tolist()},
    }
    return _as_table(doc, "<synthetic>")
