"""Hot accumulation kernel of the streaming pass.

The streaming pass of the engine spends its time in one loop: extend the
partial sum S_n by a chunk of increments and accumulate

    W_n = sum_{m <= n} (|S_m| / m^(1/p))^q / m

at every m, reporting (S_n, W_n) at requested positions.  W has ~n_max terms
of wildly varying magnitude.  The chunk is cut into blocks at every multiple
of BLOCK and at every snapshot; one `np.add.reduceat` sums each block with
numpy's pairwise reduce, each inter-snapshot segment is the `math.fsum`
(exactly rounded) of its block sums, and a hi/lo pair carries W across
segments and chunks.

Error bound.  Every term is nonnegative, so a sum whose terms each pass
through at most k roundings is within gamma_k = k*u/(1 - k*u) of the exact
sum (Higham 1993, "The accuracy of floating point summation"), u = 2^-53.
numpy's pairwise reduce sums leaves of at most 128 terms with 8 interleaved
accumulators of at most 16 terms, joins the accumulators in a 3-level tree,
adds at most 7 leftover terms one by one, and joins the leaves in a binary
tree; reduceat adds the block's first term last.  That is at most 30
roundings for a 512-term block.  The fsum of the block sums and the hi/lo
carry add about two more, so W at every snapshot is within gamma_32
(3.6e-15) of the exact sum of the computed terms; tests/test_kernels.py
holds it to 1e-14 against exact Fraction sums.  Rounding in the terms
themselves (the power and the cumulative sum) is not part of this bound.

Buffers.  The chunk-sized arrays of a chunk -- the running S, |S|^q, n^e1
and their product -- live in a `Workspace` that the caller owns and passes to
every chunk of one size, so a stream of chunks allocates nothing per chunk.
What every stream shares at one chunk position -- the n^e1 row and the cut
points of the blocks and segments -- `Workspace.plan` builds once, and then
any number of streams (the replications of an `mc_engine` block) each run
`accumulate_chunk` on it in turn.  The cut points are sorted and their
duplicates dropped by hand: `np.union1d` would load `numpy.ma`, which a
`simulate` process does not otherwise import.  Each array is computed by
the same operations in the same order whatever the workspace held before,
so the terms and the bound above do not depend on where they are stored or
on how many streams share a plan.
"""

from __future__ import annotations

import math

import numpy as np

BLOCK = 512


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


class Workspace:
    """The arrays `accumulate_chunk` fills for a chunk of `size` increments:
    the running S and the terms, which mean nothing between calls; and, from
    `plan`, what a chunk position gives every stream alike: n^e1 at its
    steps, its snapshots, and its cut points.  One workspace serves one
    thread at a time."""

    def __init__(self, size: int):
        self.s_run, self.terms, self.n_pow = np.empty((3, size))
        self.steps = np.arange(size, dtype=float)  # the offsets 0..size-1 that n is built from
        self.snaps = self.starts = self.segment_ends = None

    def plan(self, n0, e1, snaps) -> None:
        """Ready the workspace for chunks of the steps n0 + 1 .. n0 + size:
        n^e1 with e1 = -(q/p) - 1, the sorted local indices `snaps` at which
        to report, the block starts (every multiple of BLOCK and every
        segment start) and, per segment, the index in the starts where it ends."""
        size = self.steps.size
        np.add(self.steps, float(n0) + 1.0, out=self.n_pow)
        self.n_pow **= float(e1)
        self.snaps = np.asarray(snaps, dtype=np.int64)
        ends = self.snaps + 1
        if not ends.size or ends[-1] < size:
            ends = np.append(ends, size)  # the tail after the last snapshot
        # np.union1d of the multiples of BLOCK and the segment starts
        starts = np.sort(np.concatenate([np.arange(0, size, BLOCK), ends[:-1]]))
        self.starts = starts[np.append(True, starts[1:] != starts[:-1])]
        self.segment_ends = np.searchsorted(self.starts, ends).tolist()


def accumulate_chunk(x, state, q, work: Workspace):
    """Stream one chunk.

    x: increments; state: (S, W, comp) after the steps before the chunk; q:
    the exponent of |S|; work: a `Workspace` of x's size, planned for the
    chunk's position.  Returns (s_at_snaps, w_at_snaps, new_state), none of
    which shares memory with `work`.
    """
    x = np.asarray(x, dtype=float)
    s0, w, comp = (float(v) for v in state)
    s_run = np.cumsum(x, out=work.s_run)
    s_run += s0
    terms = np.abs(s_run, out=work.terms)
    terms **= float(q)
    terms *= work.n_pow  # |S_m|^q m^e1
    block_sums = np.add.reduceat(terms, work.starts).tolist()
    out_w = np.empty(work.snaps.size, dtype=float)
    prev = 0
    for k, end in enumerate(work.segment_ends):
        w, err = _two_sum(w, math.fsum(block_sums[prev:end]))
        comp += err
        w, comp = _two_sum(w, comp)
        prev = end
        if k < out_w.size:
            out_w[k] = w + comp
    return s_run[work.snaps], out_w, (float(s_run[-1]), w, comp)
