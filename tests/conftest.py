"""Hypothesis settings for the test suite; shared helpers live in reference.py."""

from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")
