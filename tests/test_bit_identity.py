"""Each evaluation that takes a shortcut, bit for bit against the way it was.

`tail_models.bisect` returns once a halving leaves both ends as they were;
`survival` evaluates a batch inside one piece without masks;
`powered_survival` skips its underflow branch when every S is a normal
double; the cumulative tail table skips its head masks when every query is
past the head; `quadrature.integrate` cuts its cells into segments in one
sorted merge instead of cell by cell.  The references below, and
`bisect_all_halvings`, are the evaluations without the shortcut.
"""

import math

import numpy as np
import pytest

from bisection import bisect_all_halvings
from pqslln import asymptotics
from pqslln import criteria as cr
from pqslln import quadrature as qd
from pqslln import tail_models as tm

TINY = np.finfo(float).tiny


def masked_survival(model, t):
    """`tm.survival` piece by piece under masks."""
    scalar = np.isscalar(t)
    tt = np.asarray(t, dtype=float)
    out = np.full_like(tt, np.nan)
    for pc in model.pieces:
        mask = (tt >= pc.t_lo) & (tt < pc.t_hi)
        if np.any(mask):
            with np.errstate(divide="ignore", over="ignore"):
                out[mask] = pc.tail.value(tt[mask])
    out[tt == math.inf] = 0.0
    out = np.clip(out, 0.0, 1.0)
    return float(out) if scalar else out


def masked_powered_survival(model, x, log_x, r=1.0):
    """`tm.powered_survival` with its underflow test on every batch."""
    last = model.pieces[-1]
    s = np.asarray(masked_survival(model, x))
    out = np.asarray(s ** r)
    deep = (s < TINY) & (x >= last.t_lo) & np.isfinite(log_x)
    if last.tail.const > 0.0 and np.any(deep):
        out[deep] = np.minimum(np.exp(r * last.tail.log_value(log_x[deep])), 1.0)
    return out


def masked_table(table, t):
    """`CumulativeTailTable.__call__` with its head masks on every batch."""
    scalar = np.isscalar(t)
    tt = np.minimum(np.atleast_1d(np.asarray(t, dtype=float)), table.t_max)
    out = np.where(tt <= table.grid[0], table._head_value * tt, 0.0)
    above = tt > table.grid[0]
    if np.any(above):
        s = np.log(tt[above])
        i = np.minimum(np.searchsorted(table._nodes, s, side="right") - 1,
                       table._nodes.size - 2)
        d = s - table._nodes[i]
        c0, c1, c2, c3 = (c[i] for c in table._coef)
        out[above] = c0 + c1 * d + c2 * (d * d) + c3 * (d * d * d)
    return float(out[0]) if scalar else out


def assert_same_bits(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def counted(f):
    """f, and a list that gets one entry per call."""
    calls = []

    def g(x):
        calls.append(1)
        return f(x)

    return g, calls


JUMP = tm.TailModel(name="jump", pieces=(
    tm.piece(0.0, 1.0, "constant", value=1.0),
    tm.piece(1.0, 1e3, "power", scale=1.0, power=0.7),
    tm.piece(1e3, math.inf, "constant", value=0.0)))
POWER_FROM_ZERO = tm.load_model({"name": "power-from-zero", "sign_law": "nonnegative", "pieces": [
    {"t_lo": 0.0, "t_hi": None, "formula_id": "power", "params": {"scale": 1.0, "power": 2.0}}]})
MODELS = [tm.pareto(2.0), tm.pareto(0.5), tm.log_power_tail(0.5, 2.0),
          tm.log_loglog_power_tail(0.5), tm.degenerate(1.5), tm.rademacher(), tm.zero(),
          JUMP, POWER_FROM_ZERO]


# ---------------------------------------------------------------------------
# bisect
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", ["linear", "cubic", "exp"])
def test_bisect_on_random_brackets_stops_early_with_the_same_ends(shape):
    rng = np.random.default_rng(40)
    left = rng.uniform(-50.0, 50.0, 400)
    right = left + rng.uniform(1e-6, 100.0, 400)
    root = left + rng.uniform(0.0, 1.0, 400) * (right - left)
    f = {"linear": lambda x: x - root, "cubic": lambda x: (x - root) ** 3,
         "exp": lambda x: np.exp(0.1 * x) - np.exp(0.1 * root)}[shape]
    g, calls = counted(f)
    assert_same_bits(tm.bisect(g, left, right), bisect_all_halvings(f, left, right))
    assert len(calls) < 100  # the early return happened


@pytest.mark.parametrize("where", ["above", "below"])
def test_bisect_of_a_root_outside_its_bracket(where):
    left, right = np.array([-3.0, 1.0, 1e5]), np.array([2.0, 1.5, 2e5])
    shift = right + 7.0 if where == "above" else left - 7.0
    f = lambda x: x - shift  # noqa: E731  f <= 0 on the whole bracket, or > 0
    g, calls = counted(f)
    assert_same_bits(tm.bisect(g, left, right), bisect_all_halvings(f, left, right))
    assert len(calls) < 100


def test_bisect_where_f_gives_nan():
    left, right = np.linspace(-1.0, 0.0, 50), np.linspace(1.0, 3.0, 50)
    for f in (lambda x: np.where(x > 0.3, np.nan, x - 0.5),   # NaN counts as above
              lambda x: np.where(x < 0.2, np.nan, x - 0.5),   # and below the root
              lambda x: np.full_like(x, np.nan)):
        assert_same_bits(tm.bisect(f, left, right), bisect_all_halvings(f, left, right))


def test_bisect_of_a_nan_bracket():
    f = lambda x: x - 0.5  # noqa: E731
    left, right = np.array([np.nan, 0.0]), np.array([1.0, np.nan])
    assert_same_bits(tm.bisect(f, left, right), bisect_all_halvings(f, left, right))


def test_bisect_of_roots_near_zero_runs_all_100_halvings():
    # width 2 / 2^100 is about 1.6e-30: no root this small has adjacent doubles by then
    root = np.array([1e-300, 5e-324, -1e-310, 0.0, -0.0, 1e-40])
    f = lambda x: x - root  # noqa: E731
    g, calls = counted(f)
    left, right = np.full(root.size, -1.0), np.full(root.size, 1.0)
    assert_same_bits(tm.bisect(g, left, right), bisect_all_halvings(f, left, right))
    assert len(calls) == 100


def test_bisect_waits_for_every_element():
    # one root that never reaches adjacent doubles keeps the others halving too
    root = np.array([0.25, 1e-300, 7.0])
    f = lambda x: x - root  # noqa: E731
    g, calls = counted(f)
    assert_same_bits(tm.bisect(g, np.full(3, -10.0), np.full(3, 10.0)),
                     bisect_all_halvings(f, np.full(3, -10.0), np.full(3, 10.0)))
    assert len(calls) == 100


@pytest.mark.parametrize("left,right,root", [
    (0.0, 1.0, 0.3), (-745.0, 709.78, 1.0), (1.0, 1.0, 0.5), (0.0, 2.0, 5.0), (-2.0, 2.0, 0.0),
])
def test_bisect_of_scalar_brackets(left, right, root):
    # scalars come back as the loop gives them: a 0-d array
    f = lambda x: np.exp(x - root) - 1.0  # noqa: E731
    assert_same_bits(tm.bisect(f, left, right), bisect_all_halvings(f, left, right))


def test_bisect_of_scalar_brackets_and_an_array_f():
    # llogl's h^-1 passes scalar ends and an f of the targets' shape
    ln_t = np.log(np.geomspace(1e-300, 1e300, 257))
    f = lambda s: 0.5 * s + np.log(np.log1p(np.exp(s))) - ln_t  # noqa: E731
    with np.errstate(over="ignore"):
        assert_same_bits(tm.bisect(f, -745.0, math.log(cr.X_MAX)),
                         bisect_all_halvings(f, -745.0, math.log(cr.X_MAX)))


def test_root_tables_and_llogl_inverse_equal_the_100_halving_ones(monkeypatch):
    models = MODELS + [tm.log_power_tail(2.0, 1.0), tm.log_loglog_power_tail(1.5)]
    logs = [(pc, *edge) for model in models for pc, edge in zip(model.pieces, model.edge_values)
            if pc.tail.b or pc.tail.c]
    t = np.geomspace(1e-200, 1e200, 1001)
    _, h_inv = cr._moment_map(0.5, 1.0)
    fast = [tm.RootTable.build(*log).cubic for log in logs] + [h_inv(t)]
    monkeypatch.setattr(tm, "bisect", bisect_all_halvings)
    slow = [tm.RootTable.build(*log).cubic for log in logs] + [h_inv(t)]
    assert len(logs) == 4
    for got, want in zip(fast, slow):
        assert_same_bits(got, want)


# ---------------------------------------------------------------------------
# survival and powered_survival
# ---------------------------------------------------------------------------


def piece_batches(model, rng):
    """Batches that lie inside one piece each, one that starts on the piece's
    left end, and batches that span pieces."""
    batches = []
    for pc in model.pieces:
        hi = pc.t_hi if math.isfinite(pc.t_hi) else max(2.0 * pc.t_lo, 1.0) * 1e6
        inside = np.sort(rng.uniform(pc.t_lo, hi, 300))
        batches += [inside, np.append(pc.t_lo, inside[inside < pc.t_hi]),
                    np.array([pc.t_lo]), np.nextafter(pc.t_hi, 0.0) * np.ones(3)]
    edges = np.array([pc.t_lo for pc in model.pieces])
    batches += [np.geomspace(1e-3, 1e8, 500), np.append(np.geomspace(1e-3, 1e8, 50), 0.0),
                np.concatenate([edges, np.nextafter(edges, np.inf)]), np.array([5.0, math.inf]),
                np.array([0.5, math.nan, 1e4]), np.array([math.inf]), np.array([]),
                np.geomspace(1e150, 1e300, 40)]
    return batches


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
def test_survival_equals_the_masked_evaluation(model):
    rng = np.random.default_rng(7)
    for batch in piece_batches(model, rng):
        assert_same_bits(tm.survival(model, batch), masked_survival(model, batch))
    for t in (0.0, 0.5, 1.0, math.e, 1e3, 1e300, math.inf):
        assert_same_bits(tm.survival(model, t), masked_survival(model, t))


def test_survival_of_a_batch_inside_one_piece_is_one_call_on_the_whole_batch(monkeypatch):
    model = tm.log_power_tail(0.5, 2.0)
    sizes = []
    real = asymptotics.LogPolyTail.value
    monkeypatch.setattr(asymptotics.LogPolyTail, "value",
                        lambda self, t: sizes.append(np.size(t)) or real(self, t))
    tm.survival(model, np.geomspace(3.0, 1e9, 1000))
    tm.survival(model, np.geomspace(1.0, 1e9, 1000))
    assert sizes[0] == 1000 and len(sizes) == 3


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
@pytest.mark.parametrize("r", [1.0, 0.5, 2.0])
def test_powered_survival_equals_the_always_tested_evaluation(model, r):
    rng = np.random.default_rng(11)
    for x in piece_batches(model, rng):
        with np.errstate(divide="ignore"):
            log_x = np.log(x)
        assert_same_bits(tm.powered_survival(model, x, log_x, r),
                         masked_powered_survival(model, x, log_x, r))


def test_powered_survival_where_s_underflows():
    # pareto(2): S(1e200) = 1e-400 underflows to 0, S(1e160) = 1e-320 is
    # subnormal; x = inf with a finite ln x is an x that overflowed
    model = tm.pareto(2.0)
    x = np.array([2.0, 1e150, 1e160, 1e200, math.inf, 1e300])
    log_x = np.log(x)
    log_x[4] = 1000.0
    for r in (1.0, 0.5, 0.01):
        got = tm.powered_survival(model, x, log_x, r)
        assert_same_bits(got, masked_powered_survival(model, x, log_x, r))
    assert got[3] > 0.0 and got[4] > 0.0  # at r = 0.01, kept by the log-domain branch
    for mixed in (x[:2], x[1:3], x[2:3], x[2:4], x[3:5]):  # x[1:3]: subnormal, none 0
        assert_same_bits(tm.powered_survival(model, mixed, np.log(mixed), 0.5),
                         masked_powered_survival(model, mixed, np.log(mixed), 0.5))


# ---------------------------------------------------------------------------
# the cumulative tail table
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("model,p", [
    (tm.pareto(2.0), 0.5), (tm.log_power_tail(0.5, 2.0), 0.5), (tm.log_loglog_power_tail(0.5), 0.5),
    (tm.degenerate(1.5), 0.7), (JUMP, 0.5), (POWER_FROM_ZERO, 1.2), (tm.pareto(0.5), 0.25),
], ids=lambda v: getattr(v, "name", str(v)))
def test_table_call_equals_the_masked_evaluation(model, p):
    table = tm.CumulativeTailTable(model, p, 1e5)
    head, t_max = table.grid[0], table.t_max
    rng = np.random.default_rng(3)
    batches = [
        np.arange(1.0, 1e5 + 1.0),                       # the series' n
        np.sort(rng.uniform(np.nextafter(head, np.inf), t_max, 2000)),
        np.geomspace(head * 1.5, t_max, 700),
        np.array([np.nextafter(head, np.inf), t_max]),   # just past the head, and t_max
        np.array([t_max * (1 + 1e-13)]),                 # past t_max within the tolerance
        table.grid,                                      # every node, the head's included
        np.array([0.0, head / 2.0, head, 1.0, t_max]),   # queries at the head
        np.array([0.0]), np.array([head]), np.array([]),
        np.geomspace(head / 100.0, t_max, 300),
    ]
    for t in batches:
        assert_same_bits(table(t), masked_table(table, t))
    for t in (0.0, head, 2.0 * head, 10.0, t_max):
        assert_same_bits(table(t), masked_table(table, t))


# ---------------------------------------------------------------------------
# the segments of a quadrature
# ---------------------------------------------------------------------------


def segments_cell_by_cell(nodes, breaks):
    """`quadrature._segments` one cell at a time."""
    segs = []
    for i, (a, b) in enumerate(zip(nodes[:-1].tolist(), nodes[1:].tolist())):
        edges = sorted({a, b, *(t for t in (*breaks, qd.LOG_FROM) if a < t < b)})
        for t_lo, t_hi in zip(edges[:-1], edges[1:]):
            on_log = t_lo >= qd.LOG_FROM
            lo, hi = (math.log(t_lo), math.log(t_hi)) if on_log else (t_lo, t_hi)
            if hi > lo:
                segs.append((i, t_lo, t_hi, on_log, lo, hi))
    if not segs:
        return (np.array([], dtype=np.intp), *np.empty((2, 0)), np.array([], dtype=bool),
                *np.empty((2, 0)))
    return tuple(map(np.array, zip(*segs)))


def test_segments_equal_the_cell_by_cell_cut():
    table = tm.CumulativeTailTable(tm.log_loglog_power_tail(0.5), 0.5, 1e5)
    cases = [
        (table.grid, set()),
        (np.array([0.0, 1e12]), {1.0, math.e, 1e3}),               # one cell, cut inside
        (np.array([0.0, 1.0, 1.0, 2.0, 8.0, 8.0, 50.0]), {1.0, 3.0, 8.0, 60.0}),  # repeats
        (np.array([0.0, 5.0, 9.0]), {qd.LOG_FROM}),                 # LOG_FROM inside a cell
        (np.array([1e300, np.nextafter(1e300, math.inf), 2e300]), set()),  # empty in ln t
        (np.array([0.0, 5.0]), {5.5, -1.0}),                       # breaks outside the nodes
        (np.geomspace(1e-6, 1e6, 200), {0.3, 7.999, 8.001, 1e9}),   # a break past the end
        (np.array([3.0]), {1.0}), (np.array([2.0, 2.0]), set()),
        (np.array([0.0, *np.geomspace(1e11, 1e12, 11)]), {2.0}),   # the divergent decade
    ]
    for nodes, breaks in cases:
        got, want = qd._segments(nodes, breaks), segments_cell_by_cell(nodes, breaks)
        assert len(got) == len(want) == 6
        for g, w in zip(got, want):
            assert g.dtype.kind == w.dtype.kind and g.tobytes() == w.tobytes()
