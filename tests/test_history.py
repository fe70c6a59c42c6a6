import math

import pytest

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
