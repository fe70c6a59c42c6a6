"""Spans and result marks attached to powerlaw_hpo from outside its source.

Every hook replaces a public name where its caller looks it up (a module
global, a class attribute or a dict entry), so nothing under ``src/``
changes and the originals are restored when the ``with`` block ends.

``Tracer`` keeps one aggregate per (span name, parent span name) instead
of a span list: a traced run fires hundreds of thousands of inner spans.
Only the spans whose percentiles are reported keep their durations.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from array import array

import numpy as np

from powerlaw_hpo import acquisition, cli, curve_models, forecasting, hpo_loop, surrogate

ROOT_SPAN = "root"
LAYERS = (
    "neural_core",
    "surrogate",
    "acquisition",
    "hpo_loop",
    "curve_models",
    "forecasting",
    "baselines",
    "benchmarks",
    "cli",
)
# spans whose per-call durations are kept for percentiles
SAMPLED_SPANS = ("surrogate.train_batch", "acquisition.select_next", "curve_models.fit_single_curve")


@contextlib.contextmanager
def patched(replacements):
    """Install (owner, key, new_value) replacements; restore them on exit.

    ``owner`` is a module, a class or a dict.
    """
    saved = []
    try:
        for owner, key, value in replacements:
            if isinstance(owner, dict):
                saved.append((owner, key, owner[key]))
                owner[key] = value
            else:
                saved.append((owner, key, owner.__dict__[key]))
                setattr(owner, key, value)
        yield
    finally:
        for owner, key, value in reversed(saved):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) of ``values``; 0.0 when there are none."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _macs(layer_dims) -> int:
    """Multiply-accumulates per row of one dense forward pass."""
    return sum(a * b for a, b in zip(layer_dims[:-1], layer_dims[1:]))


def _forward_work(args, kwargs):
    net, inputs = args[0], args[1]
    rows = 1 if np.ndim(inputs) == 1 else np.shape(inputs)[0]
    return rows, 2 * rows * _macs(net.layer_dims)


def _backward_work(args, kwargs):
    # weight gradients for every layer, input gradients for all but the first
    net, cache = args[0], args[1]
    rows = cache.inputs[0].shape[0]
    dims = net.layer_dims
    return rows, 2 * rows * (2 * _macs(dims) - dims[0] * dims[1])


def _pool_rows(args, kwargs):
    return len(args[1]), 0  # posterior_batch(self, configs, b_norm)


def _scan_rows(args, kwargs):
    return len(args[0]), 0  # select_next(candidates, ensemble, history)


def _forecast_span(args, kwargs):
    model = kwargs["model"] if "model" in kwargs else args[2]
    return f"forecasting.{model.value}"


class Tracer:
    """Nested spans aggregated per (name, parent).

    Each aggregate holds [calls, total_s, self_s, rows, flop]; self time is
    the span's duration minus the time its child spans cover.
    """

    def __init__(self):
        self.stack: list[list] = []  # frames: [name, start, child_time]
        self.agg: dict[tuple[str, str | None], list] = {}
        self.samples = {name: array("d") for name in SAMPLED_SPANS}

    def wrap(self, name, fn, work=None):
        """Return ``fn`` wrapped in a span; ``name`` may be a callable of the args."""
        stack, agg, clock = self.stack, self.agg, time.perf_counter
        samples = self.samples.get(name) if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(args, kwargs)
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0, 0.0]
            stack.append(frame)
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][2] += duration
                record = agg.get((span, parent))
                if record is None:
                    record = agg[(span, parent)] = [0, 0.0, 0.0, 0, 0]
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[2]
                if work is not None:
                    rows, flop = work(args, kwargs)
                    record[3] += rows
                    record[4] += flop
                if samples is not None:
                    samples.append(duration)

        return traced

    def replacements(self):
        w = self.wrap
        replacements = [
            (cli, "load_benchmark", w("cli.load_benchmark", cli.load_benchmark)),
            (cli, "_write_csv", w("cli.write_csv", cli._write_csv)),
            (cli, "_aggregate_directory", w("cli.aggregate", cli._aggregate_directory)),
            (cli, "run_dpl", w("hpo_loop.run_dpl", cli.run_dpl)),
            (cli, "run_forecast_experiment",
             w(_forecast_span, cli.run_forecast_experiment)),
            (hpo_loop.RunContext, "observe", w("hpo_loop.observe", hpo_loop.RunContext.observe)),
            (hpo_loop.RunContext, "candidate_pool",
             w("hpo_loop.candidate_pool", hpo_loop.RunContext.candidate_pool)),
            (hpo_loop, "evaluate", w("benchmarks.evaluate", hpo_loop.evaluate)),
            (acquisition, "select_next",
             w("acquisition.select_next", acquisition.select_next, _scan_rows)),
            (forecasting, "fit_single_curve",
             w("curve_models.fit_single_curve", forecasting.fit_single_curve)),
            (forecasting, "train_member_epochs",
             w("surrogate.train_member_epochs", forecasting.train_member_epochs)),
            (surrogate, "train_member_epochs",
             w("surrogate.train_member_epochs", surrogate.train_member_epochs)),
            (surrogate, "forward",
             w("neural_core.surrogate.forward", surrogate.forward, _forward_work)),
            (surrogate, "backward",
             w("neural_core.surrogate.backward", surrogate.backward, _backward_work)),
            (surrogate, "adam_step", w("neural_core.surrogate.adam_step", surrogate.adam_step)),
            (curve_models, "adam_step",
             w("neural_core.curve_models.adam_step", curve_models.adam_step)),
        ]
        ens = surrogate.DplEnsemble
        for method in ("fit_initial", "refine", "restart"):
            replacements.append((ens, method, w(f"surrogate.{method}", getattr(ens, method))))
        replacements.append(
            (ens, "posterior_batch", w("surrogate.posterior_batch", ens.posterior_batch, _pool_rows))
        )
        for cls in (surrogate.DplNetwork, surrogate.ConditionedNetwork):
            replacements.append((cls, "train_batch", w("surrogate.train_batch", cls.train_batch)))
            replacements.append((cls, "full_loss", w("surrogate.full_loss", cls.full_loss)))
        for key, runner in cli.BASELINE_RUNNERS.items():
            replacements.append((cli.BASELINE_RUNNERS, key, w(f"baselines.{key}", runner)))
        return replacements

    def call(self, fn, *args):
        """Run ``fn(*args)`` as the root span with every layer hook installed."""
        with patched(self.replacements()):
            return self.wrap(ROOT_SPAN, fn)(*args)

    # -- reading the aggregates -------------------------------------------

    def _sum(self, name, field, parent=None, exclude_parent=None):
        total = 0
        for (span, par), record in self.agg.items():
            if span != name:
                continue
            if parent is not None and par != parent:
                continue
            if exclude_parent is not None and par == exclude_parent:
                continue
            total += record[field]
        return total

    def calls(self, name, **kw):
        return self._sum(name, 0, **kw)

    def total_s(self, name, **kw):
        return self._sum(name, 1, **kw)

    def self_s(self, name, **kw):
        return self._sum(name, 2, **kw)

    def rows(self, name, **kw):
        return self._sum(name, 3, **kw)

    def flop(self, name, **kw):
        return self._sum(name, 4, **kw)

    def percentile(self, name, q):
        return percentile(self.samples[name], q)

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer (span-name prefix), plus the root's remainder."""
        out = {layer: 0.0 for layer in LAYERS}
        out[ROOT_SPAN] = 0.0
        for (span, _), record in self.agg.items():
            out[span.split(".", 1)[0]] += record[2]
        return out

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced call, by name (unit-free values)."""
        fwd, bwd = "neural_core.surrogate.forward", "neural_core.surrogate.backward"
        gflop = (self.flop(fwd) + self.flop(bwd)) / 1e9
        nn_busy = self.total_s(fwd) + self.total_s(bwd)
        dpl = "hpo_loop.run_dpl"
        m = {
            "neural_core.surrogate.forward_s": self.total_s(fwd),
            "neural_core.surrogate.forward_calls": self.calls(fwd),
            "neural_core.surrogate.forward_rows": self.rows(fwd),
            "neural_core.surrogate.backward_s": self.total_s(bwd),
            "neural_core.surrogate.adam_step_s": self.total_s("neural_core.surrogate.adam_step"),
            "neural_core.surrogate.adam_step_calls": self.calls("neural_core.surrogate.adam_step"),
            "neural_core.curve_models.adam_step_s": self.total_s("neural_core.curve_models.adam_step"),
            "neural_core.curve_models.adam_step_calls": self.calls("neural_core.curve_models.adam_step"),
            "neural_core.gflop_computed": gflop,
            "neural_core.gflops_per_s": gflop / nn_busy if nn_busy > 0 else 0.0,
            "surrogate.fit_initial_s": self.total_s("surrogate.fit_initial", exclude_parent="surrogate.restart"),
            "surrogate.fit_initial_calls": self.calls("surrogate.fit_initial", exclude_parent="surrogate.restart"),
            "surrogate.refine_s": self.total_s("surrogate.refine"),
            "surrogate.refine_calls": self.calls("surrogate.refine"),
            "surrogate.restart_s": self.total_s("surrogate.restart"),
            "surrogate.restart_calls": self.calls("surrogate.restart"),
            "surrogate.train_batch_calls": self.calls("surrogate.train_batch"),
            "surrogate.train_batch_us_p50": 1e6 * self.percentile("surrogate.train_batch", 50),
            "surrogate.train_batch_us_p99": 1e6 * self.percentile("surrogate.train_batch", 99),
            "surrogate.head_self_s": self.self_s("surrogate.train_batch"),
            "surrogate.full_loss_s": self.total_s("surrogate.full_loss"),
            "surrogate.posterior_batch_s": self.total_s("surrogate.posterior_batch"),
            "surrogate.posterior_batch_rows": self.rows("surrogate.posterior_batch"),
            "surrogate.train_member_epochs_s": self.total_s("surrogate.train_member_epochs"),
            "acquisition.select_next_s": self.total_s("acquisition.select_next"),
            "acquisition.select_next_calls": self.calls("acquisition.select_next"),
            "acquisition.candidates_scanned": self.rows("acquisition.select_next"),
            "acquisition.ei_self_s": self.self_s("acquisition.select_next"),
            "acquisition.select_next_ms_p50": 1e3 * self.percentile("acquisition.select_next", 50),
            "hpo_loop.iterations": sum(
                self.calls(f"surrogate.{phase}", parent=dpl)
                for phase in ("fit_initial", "refine", "restart")
            ),
            "hpo_loop.observe_calls": self.calls("hpo_loop.observe", parent=dpl),
            "hpo_loop.observe_s": self.total_s("hpo_loop.observe", parent=dpl),
            "hpo_loop.candidate_pool_s": self.total_s("hpo_loop.candidate_pool"),
            "hpo_loop.self_s": self.self_s(dpl),
            "curve_models.fit_single_curve_calls": self.calls("curve_models.fit_single_curve"),
            "curve_models.fit_single_curve_ms_p50": 1e3 * self.percentile("curve_models.fit_single_curve", 50),
            "curve_models.adam_steps": self.calls("neural_core.curve_models.adam_step"),
            "curve_models.fit_self_s": self.self_s("curve_models.fit_single_curve"),
            "benchmarks.evaluate_calls": self.calls("benchmarks.evaluate"),
            "cli.load_benchmark_s": self.total_s("cli.load_benchmark"),
            "cli.write_csv_s": self.total_s("cli.write_csv"),
            "cli.aggregate_s": self.total_s("cli.aggregate"),
        }
        for model in ("pl", "dpl", "condnn"):
            m[f"forecasting.{model}_s"] = self.total_s(f"forecasting.{model}")
        for key in cli.BASELINE_RUNNERS:
            m[f"baselines.{key}_s"] = self.total_s(f"baselines.{key}")
        return m


class LatencyProbe:
    """Times between consecutive results a caller receives, in seconds.

    In a DPL cell a result is an observation chosen by the loop: the gap
    between consecutive ``RunContext.observe`` calls (the first, random
    one only starts the clock).  In a forecast cell a result is one
    finished forecast: each per-curve fit of a ``pl`` cell, or the whole
    cell for the shared ``dpl`` and ``condnn`` models.

    It also counts ``candidates_scanned`` like the tracer does, so an
    untraced run notices a changed HPO decision that leaves the output
    CSVs unchanged (they record only the incumbent per step).
    """

    def __init__(self):
        self.gaps: list[float] = []
        self.candidates_scanned = 0
        self._in_dpl = False
        self._last: float | None = None
        self._marked = False

    def _mark(self) -> None:
        now = time.perf_counter()
        if self._last is not None:
            self.gaps.append(now - self._last)
        self._last = now
        self._marked = True

    def replacements(self):
        run_dpl = cli.run_dpl
        observe = hpo_loop.RunContext.observe
        run_forecast = cli.run_forecast_experiment
        fit_curve = forecasting.fit_single_curve
        select_next = acquisition.select_next

        def dpl_cell(*args, **kwargs):
            self._in_dpl, self._last = True, None
            try:
                return run_dpl(*args, **kwargs)
            finally:
                self._in_dpl = False

        def observed(ctx, *args, **kwargs):
            if self._in_dpl:
                self._mark()
            return observe(ctx, *args, **kwargs)

        def forecast_cell(*args, **kwargs):
            self._last, self._marked = time.perf_counter(), False
            report = run_forecast(*args, **kwargs)
            if not self._marked:
                self._mark()
            self._last = None
            return report

        def curve_fitted(*args, **kwargs):
            result = fit_curve(*args, **kwargs)
            if self._last is not None:
                self._mark()
            return result

        def selected(candidates, *args, **kwargs):
            self.candidates_scanned += len(candidates)
            return select_next(candidates, *args, **kwargs)

        return [
            (cli, "run_dpl", dpl_cell),
            (hpo_loop.RunContext, "observe", observed),
            (cli, "run_forecast_experiment", forecast_cell),
            (forecasting, "fit_single_curve", curve_fitted),
            (acquisition, "select_next", selected),
        ]
