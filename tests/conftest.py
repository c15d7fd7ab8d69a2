"""Hypothesis runs derandomized and without an example database, so a
failing example is the same on every run and on every machine; each test
keeps its own max_examples and @example pins."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
