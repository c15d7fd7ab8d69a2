"""Hypothesis runs derandomized and without an example database, so a
failing example is the same on every run and on every machine; each test
keeps its own max_examples and @example pins.

BLAS runs on one thread, set before anything imports numpy, as the CLI sets
it: the suite runs the BLAS setup that a pqslln command runs."""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

from hypothesis import settings  # noqa: E402

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
