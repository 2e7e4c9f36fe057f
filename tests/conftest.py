"""Hypothesis settings and fixtures for the test suite; shared helpers live in reference.py."""

import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture
def forking(monkeypatch):
    """Let a run fork one worker per task, and a csv read one per range, however little work they hold.

    decomposed_mst and read_points share the threshold, so tiny inputs take both fork paths.
    """
    monkeypatch.setattr("geomst.decompose._FORK_MIN_S", 0.0)
