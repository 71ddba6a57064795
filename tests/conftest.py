import pytest

from diagonalis import seriesbox


@pytest.fixture
def cold_plans(monkeypatch):
    """An empty box-plan memo for one test, so that a test that watches
    `_shape_groups` or the sweep compiler sees its own boxes build their
    plans, not a plan that an earlier test left warm; the session's memo is
    put back afterwards."""
    monkeypatch.setattr(seriesbox, "_PLANS", {})
