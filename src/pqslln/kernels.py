"""Hot accumulation kernel of the streaming pass.

The streaming pass of the engine spends its time in one loop: extend the
partial sum S_n by a chunk of increments and accumulate

    W_n = sum_{m <= n} (|S_m| / m^(1/p))^q / m

at every m, reporting (S_n, W_n) at requested positions.  W has ~n_max terms
of wildly varying magnitude, so it is carried in compensated form: each
inter-snapshot segment is summed with math.fsum (exactly rounded) and a
hi/lo pair is carried across segments.  The kernel is plain numpy, so a run
is byte-identical for a fixed seed on every machine.
"""

from __future__ import annotations

import math

import numpy as np


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def accumulate_chunk(x, n0, state, q, e1, snaps):
    """Stream one chunk.

    x: increments; n0: count consumed before this chunk; state: (S, W, comp);
    q, e1: exponents with e1 = -(q/p) - 1; snaps: sorted local indices at which
    to report.  Returns (s_at_snaps, w_at_snaps, new_state).
    """
    s0, w, comp = (float(v) for v in state)
    snaps = np.asarray(snaps, dtype=np.int64)
    s_run = s0 + np.cumsum(np.asarray(x, dtype=float))
    n = float(n0) + 1.0 + np.arange(s_run.size, dtype=float)
    terms = np.abs(s_run) ** float(q) * n ** float(e1)
    ends = snaps + 1
    if not ends.size or ends[-1] < terms.size:
        ends = np.append(ends, terms.size)  # the tail after the last snapshot
    out_w = np.empty(snaps.size, dtype=float)
    prev = 0
    for k, end in enumerate(ends):
        w, err = _two_sum(w, math.fsum(terms[prev:end]))
        comp += err
        w, comp = _two_sum(w, comp)
        prev = end
        if k < snaps.size:
            out_w[k] = w + comp
    return s_run[snaps], out_w, (float(s_run[-1]), w, comp)
