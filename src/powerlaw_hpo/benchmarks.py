"""Tabular learning-curve benchmarks: ingestion, scaling, oracle and
synthetic generation.

File format (UTF-8 JSON, no comments): an object with
  name: string
  metric: "loss" | "accuracy"
  b_max: integer
  hyperparameters: [{name, min, max}, ...]
  configs: [{id: int, values: [...], curve: [...]}, ...]

Other keys are ignored.  A table holds loss curves only: the loader reads
``metric`` and converts accuracy-direction curves (assumed to lie in
[0, 1]) to losses (1 - value), so everything downstream minimizes, and a
saved table reads "loss".  Loaders for external curve collections should
apply any source-specific trimming (e.g. dropping unreliable first/last
steps) before writing files in this format; the loader itself does not
otherwise alter curves.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np


class BenchmarkFormatError(ValueError):
    """Input that breaks a rule (a benchmark file, a trajectory CSV or an
    argument), with a field-path diagnostic."""


def require(cond: bool, path: str, msg: str):
    if not cond:
        raise BenchmarkFormatError(f"{path}: {msg}")


def count(value, path: str, floor: float = 0) -> int:
    """``value`` if it is an ``int`` >= ``floor`` (``-math.inf`` admits any
    int); bools, floats and numpy integers fail."""
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
    items: list, array: str, i: int, suffix: str = "", cid: int | None = None
) -> list[float]:
    """Each entry of ``{array}[{i}]{suffix}`` as a float, failing as ``number``
    does; the path and the config-id note are built only on failure."""
    try:
        out = [float(v) for v in items if type(v) is float or type(v) is int]
    except OverflowError:
        out = []
    if len(out) != len(items):
        note = "" if cid is None else f" (config id {cid})"
        for j, v in enumerate(items):
            number(v, f"{array}[{i}]{suffix}[{j}]", note)
    return out


def finite(v, path: str) -> float:
    """A JSON number, as ``number`` reads it, that is neither NaN nor infinite."""
    v = number(v, path)
    require(math.isfinite(v), path, f"must be finite, got {v}")
    return v


def node(value, kind: type, path: str):
    """``value``, which must be a JSON array (``kind`` list) or object (``kind`` dict)."""
    require(isinstance(value, kind), path, f"must be {'a list' if kind is list else 'an object'}")
    return value


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def field(doc: dict, key: str, path: str = "", kind: type | None = None):
    """``doc[key]`` of the object at ``path`` (``<path>.<key>: missing`` if
    absent), checked by ``node`` when ``kind`` is given."""
    if key not in doc:
        raise BenchmarkFormatError(f"{_at(path, key)}: missing")
    return doc[key] if kind is None else node(doc[key], kind, _at(path, key))


@dataclass(frozen=True)
class BenchmarkTable:
    """Immutable map from configuration to full learning curve.

    ``scaled_values`` is derived from the other fields on construction.
    Construction also checks, for a table built in code as for a loaded
    one, each id (an ``int`` that no earlier config holds), ``b_max`` (an
    ``int`` >= 1), that the curves and values are float64 numpy arrays,
    that the shapes of those and of ``bounds`` agree with ``hp_names``,
    ``b_max`` and the number of configs, that each value lies within its
    bounds and that each curve entry is finite.
    """

    name: str
    b_max: int
    hp_names: tuple[str, ...]
    bounds: tuple[tuple[float, float], ...]
    config_ids: tuple[int, ...]
    raw_values: np.ndarray         # (n, hp_dim)
    loss_curves: np.ndarray        # (n, b_max)
    scaled_values: np.ndarray = dataclass_field(init=False)  # (n, hp_dim), min-max scaled

    def __post_init__(self):
        index = {}
        for i, cid in enumerate(self.config_ids):
            count(cid, f"configs[{i}].id", floor=-math.inf)  # an id may be negative
            if index.setdefault(cid, i) != i:
                raise BenchmarkFormatError(f"configs[{i}].id: duplicate config id {cid}")
        count(self.b_max, "b_max", floor=1)
        for name, arr in (("raw_values", self.raw_values), ("loss_curves", self.loss_curves)):
            if not (isinstance(arr, np.ndarray) and arr.dtype == float):
                got = f"{arr.dtype} array" if isinstance(arr, np.ndarray) else type(arr).__name__
                raise BenchmarkFormatError(f"{name}: must be a float64 array, got {got}")
        n, hp_dim = self.n_configs, self.hp_dim
        for name, arr, shape in (("bounds", self.bounds, (hp_dim, 2)),
                                 ("raw_values", self.raw_values, (n, hp_dim)),
                                 ("loss_curves", self.loss_curves, (n, self.b_max))):
            try:
                got = np.shape(arr)
            except ValueError:  # numpy gives a ragged nesting no shape
                got = "a ragged nesting"
            require(got == shape, name, f"must have shape {shape}, got {got}")
        lo, hi = np.array(self.bounds).T
        values = self.raw_values
        # the first config with a value outside its bounds (NaN included) or
        # a non-finite curve entry; within a config, its values fail first
        outside = ~((lo <= values) & (values <= hi))
        bad = outside.any(axis=1) | ~np.isfinite(self.loss_curves).all(axis=1)
        if bad.any():
            i = int(bad.argmax())
            cid = self.config_ids[i]
            if outside[i].any():
                j = int(outside[i].argmax())
                raise BenchmarkFormatError(
                    f"configs[{i}].values[{j}]: value {float(values[i, j])} outside bounds"
                    f" [{self.bounds[j][0]}, {self.bounds[j][1]}] (config id {cid})"
                )
            raise BenchmarkFormatError(f"configs[{i}].curve: non-finite value (config id {cid})")
        # min-max scale by the declared bounds (not observed extrema); a
        # degenerate dimension (min == max) maps to 0
        scaled = np.zeros_like(values)
        np.divide(values - lo, hi - lo, out=scaled, where=hi > lo)
        object.__setattr__(self, "scaled_values", scaled)
        for arr in (values, self.loss_curves, scaled):
            arr.setflags(write=False)
        object.__setattr__(self, "_id_index", index)

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
    node(doc, dict, source)
    require(isinstance(field(doc, "name"), str), "name", "must be a string")
    metric = field(doc, "metric")
    b_max = count(field(doc, "b_max"), "b_max", floor=1)

    hps = field(doc, "hyperparameters", kind=list)
    require(hps, "hyperparameters", "must not be empty")
    names, bounds = [], []
    for i, hp in enumerate(hps):
        path = f"hyperparameters[{i}]"
        node(hp, dict, path)
        require(isinstance(field(hp, "name", path), str), f"{path}.name", "must be a string")
        lo = number(field(hp, "min", path), f"{path}.min")
        hi = number(field(hp, "max", path), f"{path}.max")
        require(lo <= hi, path, f"must have min <= max, got ({lo!r}, {hi!r})")
        # scaling divides by the span, so an infinite bound or an
        # overflowing span would turn every scaled value into NaN or 0.0
        require(math.isfinite(hi - lo), path,
                 f"bounds and max - min must be finite, got ({lo!r}, {hi!r})")
        names.append(hp["name"])
        bounds.append((lo, hi))

    configs = field(doc, "configs", kind=list)
    require(configs, "configs", "must not be empty")
    # the checks below run once per config, so each formats its message
    # only when it fails; BenchmarkTable checks the ids, bounds and finiteness
    ids, values, curves = [], [], []
    for i, cfg in enumerate(configs):
        path = f"configs[{i}]"
        node(cfg, dict, path)
        cid, vals, curve = (field(cfg, "id", path), field(cfg, "values", path),
                            field(cfg, "curve", path))
        if not (isinstance(vals, list) and len(vals) == len(names)):
            raise BenchmarkFormatError(f"{path}.values: must have {len(names)} entries")
        vals = numbers(vals, "configs", i, ".values")
        if not (isinstance(curve, list) and len(curve) == b_max):
            got = len(curve) if isinstance(curve, list) else "?"
            raise BenchmarkFormatError(
                f"{path}.curve: expected length b_max={b_max}, got {got} (config id {cid})"
            )
        ids.append(cid)
        values.append(vals)
        curves.append(numbers(curve, "configs", i, ".curve", cid))

    require(metric in ("loss", "accuracy"), "metric",
            f"must be 'loss' or 'accuracy', got {metric!r}")
    curves = np.asarray(curves, dtype=float)
    return BenchmarkTable(
        name=doc["name"],
        b_max=b_max,
        hp_names=tuple(names),
        bounds=tuple(bounds),
        config_ids=tuple(ids),
        raw_values=np.asarray(values, dtype=float),
        loss_curves=1.0 - curves if metric == "accuracy" else curves,
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
    return {
        "name": table.name,
        "metric": "loss",
        "b_max": table.b_max,
        "hyperparameters": [
            {"name": n, "min": lo, "max": hi}
            for n, (lo, hi) in zip(table.hp_names, table.bounds)
        ],
        "configs": [
            {"id": cid, "values": vals, "curve": curve}
            for cid, vals, curve in zip(
                table.config_ids, table.raw_values.tolist(), table.loss_curves.tolist()
            )
        ],
    }


def save_benchmark(table: BenchmarkTable, path) -> None:
    """Write a table back to disk in the benchmark JSON schema.

    ``json.dumps`` takes the one-shot C encoder, which writes the same
    bytes as the streaming ``json.dump`` in a fraction of its time.
    """
    text = json.dumps(table_to_document(table)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# Coefficient ranges for synthetic curves; curve values stay within (0, 1.5].
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
    """Build a power-law benchmark.

    Hyperparameter vectors are uniform in [0,1]^hp_dim and map smoothly to
    (alpha, beta, gamma); curves are alpha + beta * step^(-gamma) over raw
    steps 1..b_max, plus optional Gaussian noise clipped into [1e-6, 1.5].
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
    return BenchmarkTable(
        name=f"synthetic-s{seed}-n{n_configs}-d{hp_dim}-b{b_max}",
        b_max=b_max,
        hp_names=tuple(f"x{j}" for j in range(hp_dim)),
        bounds=((0.0, 1.0),) * hp_dim,
        config_ids=tuple(range(n_configs)),
        raw_values=x,
        loss_curves=curves,
    )
