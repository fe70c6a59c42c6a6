import math

import pytest

from powerlaw_hpo.benchmarks import BenchmarkFormatError
from powerlaw_hpo.history import History, Observation


def test_append_and_iterate():
    h = History()
    h.append(Observation(config_id=1, budget=1, loss=0.9))
    h.append(Observation(config_id=1, budget=2, loss=0.8))
    h.append(Observation(config_id=2, budget=1, loss=0.7))
    assert len(h) == 3
    assert [o.budget for o in h] == [1, 2, 1]
    assert list(h)[2].config_id == 2


def test_per_config_budgets_strictly_increasing():
    h = History()
    h.append(Observation(config_id=1, budget=2, loss=0.9))
    with pytest.raises(ValueError):
        h.append(Observation(config_id=1, budget=2, loss=0.8))  # duplicate
    with pytest.raises(ValueError):
        h.append(Observation(config_id=1, budget=1, loss=0.8))  # regression


def test_budget_order_error_names_the_field():
    h = History()
    h.append(Observation(config_id=1, budget=2, loss=0.9))
    with pytest.raises(BenchmarkFormatError) as info:
        h.append(Observation(config_id=1, budget=2, loss=0.8))
    assert str(info.value) == "budget: must be above config 1's previous budget 2, got 2"


def test_max_budget_tracking():
    h = History()
    assert h.max_budget_for(5) == 0
    h.append(Observation(config_id=5, budget=3, loss=0.5))
    assert h.max_budget_for(5) == 3


def test_rejects_bad_records():
    h = History()
    with pytest.raises(ValueError):
        h.append(Observation(config_id=1, budget=0, loss=0.5))
    with pytest.raises(ValueError):
        h.append(Observation(config_id=1, budget=1, loss=math.inf))


def _totals(h):
    return list(h.costs), h.steps, h.best_loss


def test_totals_follow_interleaved_appends():
    h = History()
    assert _totals(h) == ([], 0, math.inf)
    h.append(Observation(config_id=1, budget=2, loss=0.9))
    h.append(Observation(config_id=2, budget=1, loss=0.95))
    h.append(Observation(config_id=1, budget=5, loss=0.6))
    h.append(Observation(config_id=2, budget=4, loss=0.7))
    assert _totals(h) == ([2, 1, 3, 3], 9, 0.6)
    h.append(Observation(config_id=3, budget=1, loss=0.4))
    assert _totals(h) == ([2, 1, 3, 3, 1], 10, 0.4)


@pytest.mark.parametrize(
    "obs",
    [
        Observation(config_id=1, budget=3, loss=0.1),         # duplicate
        Observation(config_id=1, budget=2, loss=0.1),         # regression
        Observation(config_id=2, budget=1, loss=math.nan),    # non-finite
        Observation(config_id=2, budget=1, loss=-math.inf),
        Observation(config_id=2, budget=0, loss=0.1),         # below 1
        Observation(config_id=2, budget=2.5, loss=0.1),       # not an int
        Observation(config_id=2, budget=True, loss=0.1),
    ],
    ids=["duplicate", "regression", "nan", "-inf", "zero-budget", "float-budget", "bool-budget"],
)
def test_rejected_append_changes_nothing(obs):
    h = History()
    h.append(Observation(config_id=1, budget=3, loss=0.5))
    before = _totals(h)
    with pytest.raises(ValueError):
        h.append(obs)
    assert _totals(h) == before
    assert len(h) == 1 and h.max_budget_for(2) == 0


@pytest.mark.parametrize(
    "obs, message",
    [
        (Observation(config_id="a", budget=1, loss=0.1), "config_id: must be an integer, got 'a'"),
        (Observation(config_id=1.5, budget=1, loss=0.1), "config_id: must be an integer, got 1.5"),
        (Observation(config_id=True, budget=1, loss=0.1),
         "config_id: must be an integer, got True"),
        (Observation(config_id=2, budget=1, loss=True), "loss: must be a number, got True"),
        (Observation(config_id=2, budget=1, loss="0.3"), "loss: must be a number, got '0.3'"),
        (Observation(config_id=2, budget=1, loss=math.nan), "loss: must be finite, got nan"),
    ],
    ids=["str-id", "float-id", "bool-id", "bool-loss", "str-loss", "nan-loss"],
)
def test_rejected_field_is_named_and_changes_nothing(obs, message):
    h = History()
    h.append(Observation(config_id=1, budget=3, loss=0.5))
    before = _totals(h)
    with pytest.raises(BenchmarkFormatError) as info:
        h.append(obs)
    assert str(info.value) == message
    assert _totals(h) == before and len(h) == 1


def test_negative_and_int_loss_records_accepted():
    # a benchmark file may hold negative ids, and a JSON loss may be an integer
    h = History()
    h.append(Observation(config_id=-7, budget=2, loss=1))
    assert _totals(h) == ([2], 2, 1) and h.max_budget_for(-7) == 2
