"""The benchmark's span hooks still resolve against the package.

``perfbench/tracer.py`` replaces public names where their callers look
them up (module globals, class attributes, ``BASELINE_RUNNERS`` entries).
A rename, a moved import or a merged class would make a hook raise, stop
its span from firing, or wrap one call twice.  This drives the CLI under
the tracer on a tiny table and checks all three.
"""

import itertools
import sys
from pathlib import Path

import pytest

from powerlaw_hpo import cli, forecasting, hpo_loop
from powerlaw_hpo.surrogate import TrainerSchedule

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer  # noqa: E402

FORECAST_MODELS = ("pl", "dpl", "condnn")


class _TinySchedule:
    """Stands in for TrainerSchedule where the loop and the forecast build one."""

    @staticmethod
    def for_curve_length(lc_length):
        return TrainerSchedule.for_curve_length(
            lc_length, initial_epochs=3, refine_epochs=2, initial_phase_iterations=1
        )


@pytest.fixture()
def tiny_runs(monkeypatch):
    monkeypatch.setattr(hpo_loop, "TrainerSchedule", _TinySchedule)
    monkeypatch.setattr(forecasting, "TrainerSchedule", _TinySchedule)
    # fit_initial, then refine and restart in turn, so every phase is traced
    ticks = itertools.count(1)
    monkeypatch.setattr(hpo_loop, "should_restart", lambda stagnation, loss: next(ticks) % 2 == 0)


def test_every_hook_resolves_and_fires_once(tiny_runs, tmp_path):
    bench = tmp_path / "bench.json"
    assert cli.main([
        "synth", "--seed", "3", "--configs", "6", "--hp-dim", "2", "--b-max", "8",
        "--noise", "0.01", "--out", str(bench),
    ]) == 0

    tracer = Tracer()
    wrap = tracer.wrap
    named: set[str] = set()

    def recording_wrap(name, fn, work=None):
        if isinstance(name, str):
            named.add(name)
        return wrap(name, fn, work)

    tracer.wrap = recording_wrap
    assert tracer.call(cli.main, [
        "run", "--benchmarks", str(bench), "--methods", "dpl,rs,sh,hb,asha", "--seeds", "0",
        "--budget-multiplier", "1", "--out", str(tmp_path / "runs"),
    ]) == 0
    assert tracer.call(cli.main, [
        "forecast", "--benchmark", str(bench), "--fractions", "0.5",
        "--models", ",".join(FORECAST_MODELS), "--seeds", "0", "--out", str(tmp_path / "fc.csv"),
    ]) == 0

    assert all(span != parent for span, parent in tracer.agg), "a hook wraps a hooked call"
    fired = {span for span, _ in tracer.agg}
    expected = named | {f"forecasting.{model}" for model in FORECAST_MODELS}
    assert expected - fired == set()
