"""The streaming kernel against exact rational sums of the same float terms.

W at every snapshot must be within REL_BOUND of the exact sum of the terms
the kernel computes (the bound in the kernels module docstring).  Every
stream runs twice: with a fresh workspace for each chunk, and with one
workspace per chunk size reused for every chunk of that size.  Each chunk's
workspace is planned for its position before the kernel runs on it.
"""

from fractions import Fraction

import numpy as np
import pytest

from pqslln import kernels

REL_BOUND = Fraction(1e-14)


def chunk_terms(x, n0, s0, q, e1):
    """The float terms the kernel sums for one chunk, and the running S."""
    s_run = s0 + np.cumsum(np.asarray(x, dtype=float))
    n = float(n0) + 1.0 + np.arange(s_run.size, dtype=float)
    return s_run, np.abs(s_run) ** float(q) * n ** float(e1)


def workspaces():
    """size -> a workspace made on first use and reused after, filled with NaN
    first so that no result can rest on what a workspace held before."""
    spaces = {}

    def work(size):
        if size not in spaces:
            spaces[size] = space = kernels.Workspace(size)
            for arr in (space.s_run, space.terms, space.n_pow):
                arr.fill(np.nan)
        return spaces[size]

    return work


def stream(chunks, q, e1, snaps_of):
    """Run the kernel over consecutive chunks, with fresh and then with
    reused workspaces, checking S bit for bit and W against the exact running
    sum at every snapshot; returns the final state, the same both ways."""
    states = [stream_once(chunks, q, e1, snaps_of, work_of)
              for work_of in (kernels.Workspace, workspaces())]
    assert states[0] == states[1]
    return states[0]


def stream_once(chunks, q, e1, snaps_of, work_of):
    state = (0.0, 0.0, 0.0)
    exact = Fraction(0)
    n0 = 0
    for x in chunks:
        snaps = np.asarray(snaps_of(n0, len(x)), dtype=np.int64)
        s_ref, terms = chunk_terms(x, n0, state[0], q, e1)
        work = work_of(len(x))
        work.plan(n0, e1, snaps)
        s_vals, w_vals, state = kernels.accumulate_chunk(x, state, q, work)
        np.testing.assert_array_equal(s_vals, s_ref[snaps])
        prev = 0
        for k, snap in enumerate(snaps.tolist()):
            exact += sum(map(Fraction, terms[prev:snap + 1].tolist()), Fraction(0))
            prev = snap + 1
            assert abs(Fraction(w_vals[k]) - exact) <= REL_BOUND * exact, (n0 + snap, w_vals[k])
        exact += sum(map(Fraction, terms[prev:].tolist()), Fraction(0))
        n0 += len(x)
    w, comp = state[1], state[2]
    assert abs(Fraction(w) + Fraction(comp) - exact) <= REL_BOUND * exact
    return state


def dyadic(n0, size):
    """Local indices of the positions 1, 2, 4, ... (1-based) inside the chunk."""
    pos = 2 ** np.arange(0, 64)
    pos = pos[(pos > n0) & (pos <= n0 + size)]
    return pos - n0 - 1


def test_several_chunks_with_dyadic_snapshots():
    gen = np.random.default_rng(1)
    chunks = [np.where(gen.random(4096) < 0.5, -1.0, 1.0) for _ in range(4)]
    stream(chunks, 0.5, -(0.5 / 1.5) - 1.0, dyadic)


def test_short_segment_off_the_block_grid():
    # snapshots at 599 and 700: the second segment is 101 terms long and
    # starts at 600, inside the second block of the chunk
    gen = np.random.default_rng(2)
    chunks = [gen.standard_normal(1500), gen.standard_normal(1500)]
    assert 600 % kernels.BLOCK and 101 < kernels.BLOCK
    stream(chunks, 1.0, -2.0, lambda n0, size: [599, 700] if n0 == 0 else [3, 1499])


def test_heavy_tailed_terms_span_thirty_decades():
    gen = np.random.default_rng(3)
    size = 3000
    mags = 10.0 ** gen.uniform(-20.0, 20.0, size)
    x = np.where(gen.random(size) < 0.5, -mags, mags)
    _, terms = chunk_terms(x, 0, 0.0, 1.0, -1.5)
    assert np.log10(terms.max() / terms.min()) > 30
    stream([x[:1024], x[1024:]], 1.0, -1.5, dyadic)


def test_adversarial_block_needs_a_pairwise_reduce():
    # terms [1.0] + [2^-54] * 511: a left-to-right reduce stays at 1.0,
    # 2.8e-14 relative (about 128 ulp) below the exact sum
    x = np.zeros(kernels.BLOCK)
    x[0], x[1] = 1.0, 2.0 ** -27 - 1.0
    _, terms = chunk_terms(x, 0, 0.0, 2.0, 0.0)
    assert terms.tolist() == [1.0] + [2.0 ** -54] * (kernels.BLOCK - 1)
    naive = 0.0
    for t in terms.tolist():
        naive += t
    exact = sum(map(Fraction, terms.tolist()), Fraction(0))
    assert naive == 1.0 and abs(Fraction(naive) - exact) > REL_BOUND * exact
    stream([x], 2.0, 0.0, lambda n0, size: [size - 1])


def test_overflow_leaves_w_non_finite():
    # the finite terms sum past the float range: W goes non-finite, which
    # censors the replication, and nothing raises
    x = np.zeros(1024)
    x[0] = 1e308
    work = kernels.Workspace(x.size)
    work.plan(0, 0.0, [1023])
    with np.errstate(over="ignore", invalid="ignore"):
        _, w_vals, state = kernels.accumulate_chunk(x, (0.0, 0.0, 0.0), 1.0, work)
    assert not np.isfinite(w_vals[0]) and not np.isfinite(state[1])


@pytest.mark.parametrize("size", [1, 511, 512, 513, 1025])
def test_chunk_sizes_around_the_block(size):
    gen = np.random.default_rng(size)
    stream([gen.standard_normal(size)], 0.5, -1.25, lambda n0, size: [size - 1])


def test_streams_sharing_a_plan_match_streams_alone():
    # three streams take turns on one workspace, planned once per chunk
    # position, as the replications of a block do: each gets, bit for bit,
    # what it gets streamed alone on a workspace of its own
    gen = np.random.default_rng(4)
    streams = [[gen.standard_normal(1024) for _ in range(3)] for _ in range(3)]
    q, e1 = 0.5, -1.5
    alone = []
    for chunks in streams:
        state, rows = (0.0, 0.0, 0.0), []
        for c, x in enumerate(chunks):
            work = kernels.Workspace(x.size)
            work.plan(1024 * c, e1, dyadic(1024 * c, x.size))
            s_vals, w_vals, state = kernels.accumulate_chunk(x, state, q, work)
            rows.append((s_vals.tolist(), w_vals.tolist()))
        alone.append((rows, state))
    shared = kernels.Workspace(1024)
    states, rows = [(0.0, 0.0, 0.0)] * 3, [[], [], []]
    for c in range(3):
        shared.plan(1024 * c, e1, dyadic(1024 * c, 1024))
        for i, chunks in enumerate(streams):
            s_vals, w_vals, states[i] = kernels.accumulate_chunk(chunks[c], states[i], q, shared)
            rows[i].append((s_vals.tolist(), w_vals.tolist()))
    assert list(zip(rows, states)) == alone


@pytest.mark.parametrize("size, snaps", [
    (1, []), (1, [0]), (511, [510]), (512, [0, 511]), (1500, [599, 700]),
    (4096, [0, 1, 3, 7, 511, 1023, 2047, 4095]), (4096, []), (1 << 16, [511, 512, 40_000]),
], ids=str)
def test_plan_starts_equal_numpy_union1d(size, snaps):
    work = kernels.Workspace(size)
    work.plan(0, -1.5, snaps)
    ends = [k + 1 for k in snaps if k + 1 < size]
    want = np.union1d(np.arange(0, size, kernels.BLOCK), np.array(ends, dtype=np.int64))
    assert work.starts.dtype == want.dtype
    np.testing.assert_array_equal(work.starts, want)
