"""Hypothesis settings and fixtures for the test suite; shared helpers live in reference.py."""

import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture
def forking(monkeypatch):
    """Let a run fork one worker per task however little work they hold, so tiny inputs take the fork path."""
    monkeypatch.setattr("geomst.decompose._FORK_MIN_S", 0.0)
