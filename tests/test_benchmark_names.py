"""The traced benchmark run (slln_bench/run.py --trace 1) patches pqslln
functions by name; a name it wraps that the package no longer has makes that
run raise AttributeError.  This test installs the same wrappers on the same
modules, so a rename or deletion fails here first."""

import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "slln_bench")


def test_every_name_the_benchmark_wraps_exists(monkeypatch):
    pytest.importorskip("mpmath")  # slln_bench/reference.py needs it
    monkeypatch.syspath_prepend(BENCH)  # undone with the path load_program adds
    import layers
    import run
    from spans import Tracer

    pq = run.load_program(os.path.dirname(BENCH))
    tracer = Tracer()
    try:
        layers.Instrumentation(tracer, pq).install()
        assert tracer._patches
    finally:
        tracer.restore()
    assert not hasattr(pq.mc_engine.dense_ratio_moments, "__wrapped__")
