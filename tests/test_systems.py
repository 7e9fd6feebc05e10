"""The system zoo: constructor semantics, inverses, metrics, samplers."""

import ast
import dataclasses
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nillab
from nillab.arcs import cut_midpoints
from nillab.budgets import SearchBudget
from nillab.complexity import shadowing_net
from nillab.furstenberg import (TWO_PI, _harmonics, liouville_recipe, make_default_furstenberg,
                                make_furstenberg)
from nillab.independence import sturmian_language
from nillab.nilgroup import (abelian, element, heisenberg3, inv, load_group, power,
                             power_sequence)
from nillab.systems import (ORBIT_CHUNK, SymbolicWindow, _chunked, _times, approx_rational,
                            make_fullshift, make_inverse_limit, make_nilsystem,
                            make_rotation, make_skew_product, make_sturmian,
                            sample_points, sturmian_code, symbol_resolution,
                            wrap_dist_block)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def all_systems():
    return [
        make_rotation([GOLDEN]),
        make_rotation([GOLDEN, np.sqrt(2) - 1]),
        make_skew_product(GOLDEN),
        make_nilsystem(heisenberg3(), [GOLDEN, np.sqrt(2) / 2, 0.0]),
        make_sturmian(GOLDEN, L=12),
        make_fullshift(2, L=6),
    ]


@pytest.mark.parametrize("sys", all_systems(), ids=lambda s: s.name)
def test_step_inverse_roundtrip(sys):
    pts = sample_points(sys, 1000, seed=9)
    back = sys.inverse_step_block(sys.step_block(pts))
    if pts.dtype.kind == "f":
        resid = np.max(sys.metric_block(back, pts))
        assert resid <= 1e-9
    else:
        assert np.array_equal(back, pts)


@pytest.mark.parametrize("sys", all_systems(), ids=lambda s: s.name)
def test_metric_symmetric_and_zero_on_diagonal(sys):
    pts = sample_points(sys, 64, seed=3)
    other = sample_points(sys, 64, seed=4)
    d1 = sys.metric_block(pts, other)
    d2 = sys.metric_block(other, pts)
    assert np.allclose(d1, d2, atol=1e-15)
    # float-equality tolerance for point identity is 1e-12
    assert np.max(sys.metric_block(pts, pts)) <= 1e-12


def test_rotation_semantics():
    ident = make_rotation([0.0])
    x = np.array([0.42])
    assert np.allclose(ident.step(x), x)

    quarter = make_rotation([0.25])
    assert "not minimal" in " ".join(quarter.flags)
    orbit = quarter.orbit_block(np.array([0.0]), 5)
    assert np.allclose(orbit[:, 0], [0.0, 0.25, 0.5, 0.75, 0.0])

    golden = make_rotation([GOLDEN])
    assert golden.flags == ()
    orbit = golden.orbit_block(np.array([0.0]), 4)
    assert np.allclose(orbit[1:, 0], [0.6180339887, 0.2360679775, 0.8541019662],
                       atol=1e-9)


def test_rotation_step_is_isometry():
    sys = make_rotation([GOLDEN, 0.1234])
    pts = sample_points(sys, 500, seed=0)
    qts = sample_points(sys, 500, seed=1)
    before = sys.metric_block(pts, qts)
    after = sys.metric_block(sys.step_block(pts), sys.step_block(qts))
    assert np.max(np.abs(before - after)) <= 1e-12


def test_nilsystem_semantics():
    H = heisenberg3()
    ident = make_nilsystem(H, [0.0, 0.0, 0.0])
    x = np.array([0.3, 0.7, 0.9])
    assert np.allclose(ident.step(x), x)

    alpha, beta = GOLDEN, 0.3137
    sys = make_nilsystem(H, [alpha, 0.0, 0.0])
    orbit = sys.orbit_block(np.array([0.0, beta, 0.0]), 21)
    for n in range(21):
        assert orbit[n, 0] == pytest.approx((n * alpha) % 1.0, abs=1e-9)
        assert orbit[n, 1] == pytest.approx(beta, abs=1e-12)


def test_nilsystem_abelian_matches_rotation():
    rot = make_rotation([GOLDEN])
    nil = make_nilsystem(abelian(1), [GOLDEN])
    o1 = rot.orbit_block(np.array([0.25]), 50)
    o2 = nil.orbit_block(np.array([0.25]), 50)
    assert np.max(np.abs(o1 - o2)) <= 1e-12


def test_nilsystem_orbit_matches_stepping():
    sys = make_nilsystem(heisenberg3(), [GOLDEN, np.sqrt(2) / 2, 0.0])
    x = np.array([0.1, 0.2, 0.3])
    orbit = sys.orbit_block(x, 300)
    p = x
    for n in range(1, 300):
        p = sys.step(p)
    assert np.max(np.abs(orbit[-1] - p)) <= 1e-10
    back = sys.orbit_span(x, -5, 5)
    assert np.allclose(back[5], x)
    assert np.allclose(sys.step(back[4]), x, atol=1e-12)


def test_nilsystem_long_jump_memory():
    # a jump by n takes O(log n) group multiplications, not all n powers
    sys = make_nilsystem(heisenberg3(), [GOLDEN, np.sqrt(2) / 2, 0.0])
    x = np.array([0.1, 0.2, 0.3])
    tracemalloc.start()
    try:
        far = sys.orbit_span(x, 2_000_000, 2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert far.shape == (1, 3) and np.all((far >= 0.0) & (far < 1.0))
    assert peak <= 16 * 2 ** 20


def test_sturmian_code_examples():
    w = sturmian_code(GOLDEN, 0.0, 5)
    assert isinstance(w, SymbolicWindow)
    assert w.word[5] == 0                       # position 0 codes to 0 at z=0
    assert w.word[6:] == (1, 0, 1, 1, 0)        # positions 1..5, pinned
    # boundary lands exactly on 1 - alpha -> symbol 1 (half-open convention)
    w2 = sturmian_code(0.25, 0.75, 0)
    assert w2.word == (1,)


def test_sturmian_system_metric_and_windows():
    sys = make_sturmian(GOLDEN, L=10)
    z = np.array([0.2])
    word = sys.window(z[None])[0]
    assert word.dtype == np.int8 and word.shape == (21,)
    code = sturmian_code(GOLDEN, 0.2, 10)
    assert tuple(word) == code.word and code.provenance["alpha"] == pytest.approx(GOLDEN)
    # metric is 2^-(first differing offset)
    z2 = np.array([0.2 + 1e-9])
    assert sys.metric(z, z2) <= 1.0
    assert sys.metric(z, z) == 0.0


def test_sturmian_metric_keeps_block_shape():
    sys = make_sturmian(GOLDEN, L=10)
    P = sample_points(sys, 6, seed=0).reshape((2, 3, 1))
    Q = sample_points(sys, 6, seed=1).reshape((2, 3, 1))
    d = sys.metric_block(P, Q)
    assert d.shape == (2, 3)
    assert np.array_equal(d.reshape(-1), sys.metric_block(P.reshape(6, 1), Q.reshape(6, 1)))


def test_sturmian_rational_flagged():
    sys = make_sturmian(0.25)
    assert any("rational" in f for f in sys.flags)


def test_fullshift_semantics():
    sys = make_fullshift(2, L=6)
    pts = sample_points(sys, 8, seed=1)
    const = np.zeros_like(pts[0])
    assert np.array_equal(sys.step(const), const)

    a = pts[0].copy()
    b = a.copy()
    center = (len(a) - 1) // 2
    b[center] = 1 - b[center]
    assert sys.metric(a, b) == 1.0

    # 2^5 distinct 5-windows over the binary alphabet
    grid, _ = sys.grid(2, 0.4, SearchBudget(max_cells=10_000))    # span n + 2w - 1 = 5
    lo = center - 1
    windows = {tuple(row[lo:lo + 5]) for row in grid}
    assert len(windows) == 32


def test_fullshift_construct_point():
    sys = make_fullshift(2, L=6)
    word = np.array([1, 0, 1], dtype=np.int8)
    p = sys.construct_point([(0, word), (3, word)])
    center = (len(p) - 1) // 2
    assert tuple(p[center:center + 6]) == (1, 0, 1, 1, 0, 1)
    assert sys.construct_point([(0, word), (1, word)]) is None  # conflict
    assert sys.construct_point([(10 ** 6, word)]) is None       # overflow



def _construct_point_by_runs(width, constraints):
    """Runs written one at a time, each checked against the positions fixed
    before it: the oracle of the full shift's one-scatter construct_point."""
    center = (width - 1) // 2
    out = np.zeros(width, dtype=np.int8)
    fixed = np.zeros(width, dtype=bool)
    for offset, symbols in constraints:
        symbols = np.asarray(symbols, dtype=np.int8)
        start = center + int(offset)
        stop = start + symbols.size
        if start < 0 or stop > width:
            return None
        if np.any(fixed[start:stop] & (out[start:stop] != symbols)):
            return None
        out[start:stop] = symbols
        fixed[start:stop] = True
    return out


def test_fullshift_construct_point_matches_run_by_run_writes():
    sys = make_fullshift(3, L=2, reserve=3)
    width = len(sys.construct_point([]))
    half = (width - 1) // 2
    rng = np.random.default_rng(11)
    seen = {"none": 0, "point": 0, "overlap": 0, "empty_run": 0}
    for trial in range(2000):
        # half the lists read their runs off one sequence, so overlaps agree
        base = rng.integers(0, 3, width + 20).astype(np.int8)
        runs = []
        for _ in range(int(rng.integers(0, 6))):
            offset = int(rng.integers(-half - 3, half + 3))
            size = int(rng.integers(0, 6))
            if trial % 2:
                word = base[offset + half + 10:offset + half + 10 + size]
            else:
                word = rng.integers(0, 3, size).astype(np.int8)
            runs.append((offset, word))
        got = sys.construct_point(runs)
        want = _construct_point_by_runs(width, runs)
        assert (got is None) == (want is None), runs
        if got is not None:
            assert got.tobytes() == want.tobytes(), runs
        seen["none" if got is None else "point"] += 1
        seen["empty_run"] += any(len(w) == 0 for _, w in runs)
        spans = sorted((o, o + len(w)) for o, w in runs if len(w))
        seen["overlap"] += got is not None and any(
            b[0] < a[1] for a, b in zip(spans, spans[1:]))
    assert min(seen.values()) > 50, seen
    assert sys.construct_point([]).tobytes() == bytes(width)
    for runs in ([(-half - 1, [1])], [(half, [1, 1])], [(half + 2, [])]):
        assert sys.construct_point(runs) is None      # past either end
        assert _construct_point_by_runs(width, runs) is None
    # an empty run may start one past the last position, as a slice may
    assert sys.construct_point([(half + 1, [])]).tobytes() == bytes(width)


def test_symbolic_window_invariants():
    with pytest.raises(ValueError):
        SymbolicWindow((0, 1), 2)
    with pytest.raises(ValueError):
        SymbolicWindow((0, 5, 0), 2)


def test_inverse_limit_metric_and_validation():
    rot = make_rotation([GOLDEN])
    single = make_inverse_limit([rot], [])
    pts = sample_points(single, 16, seed=0)
    qts = sample_points(single, 16, seed=1)
    assert np.allclose(single.metric_block(pts, qts),
                       0.5 * rot.metric_block(pts, qts))

    double = make_inverse_limit([rot, rot], [lambda P: P])
    p2, q2 = sample_points(double, 8, seed=2), sample_points(double, 8, seed=3)
    base = rot.metric_block(p2[:, :1], q2[:, :1])
    assert np.allclose(double.metric_block(p2, q2), 0.75 * base)

    with pytest.raises(ValueError):
        make_inverse_limit([rot, rot], [lambda P: (2.0 * P) % 1.0])


def towers():
    """(levels, factor maps): a rotation under a skew product, and a
    2-torus rotation under a Heisenberg nilsystem."""
    b = np.sqrt(2) / 2
    return [([make_rotation([GOLDEN]), make_skew_product(GOLDEN)], [lambda P: P[..., :1]]),
            ([make_rotation([GOLDEN, b]), make_nilsystem(heisenberg3(), [GOLDEN, b, 0.0])],
             [lambda P: P[..., :2]])]


def thread_layout(levels, factor_maps):
    """Oracle: the tower with every level's point side by side in a thread.
    Returns (thread of a top block, metric of thread blocks, orbit of a
    thread block advancing each level on its own)."""
    widths = [lvl.sample_block(np.random.default_rng(0), 1).shape[1] for lvl in levels]
    splits = np.cumsum(widths)[:-1]
    weights = np.array([0.5 ** (i + 1) for i in range(len(levels))])

    def parts(P):
        return np.split(P, splits, axis=-1)

    def thread(top):
        out = [top]
        for pi in reversed(factor_maps):
            out.append(pi(out[-1]))
        return np.concatenate(out[::-1], axis=-1)

    def metric_block(P, Q):
        return sum(w * lvl.metric_block(p, q)
                   for w, lvl, p, q in zip(weights, levels, parts(P), parts(Q)))

    def orbit(X, lo, hi):
        return np.concatenate([lvl.orbit_span(p, lo, hi)
                               for lvl, p in zip(levels, parts(X))], axis=-1)

    return thread, metric_block, orbit


@pytest.mark.parametrize("levels,maps", towers(), ids=["rotation-skew", "torus-heisenberg"])
def test_tower_points_and_orbits_are_the_top_levels(levels, maps):
    tower, top = make_inverse_limit(levels, maps), levels[-1]
    X = sample_points(tower, 16, seed=5)
    assert np.array_equal(X, sample_points(top, 16, seed=5))
    for lo, hi in ((0, 40), (-30, 5000)):
        assert np.array_equal(tower.orbit_span(X, lo, hi), top.orbit_span(X, lo, hi))


@pytest.mark.parametrize("levels,maps", towers(), ids=["rotation-skew", "torus-heisenberg"])
def test_tower_metric_is_the_thread_formula(levels, maps):
    tower = make_inverse_limit(levels, maps)
    thread, thread_metric, _ = thread_layout(levels, maps)
    rows = tower.orbit_span(sample_points(tower, 20, seed=7), 0, 19).reshape(400, -1)
    P, Q = rows[:200], rows[200:]
    assert np.array_equal(tower.metric_block(P, Q), thread_metric(thread(P), thread(Q)))
    assert tower.diameter == float(np.dot([0.5, 0.25], [lvl.diameter for lvl in levels]))


def test_rotation_skew_tower_matches_its_thread_layout():
    # the skew product's first coordinate is the rotation's orbit, float for
    # float, so on this tower the thread layout's orbits and nets are the same
    levels, maps = towers()[0]
    tower = make_inverse_limit(levels, maps)
    thread, thread_metric, thread_orbit = thread_layout(levels, maps)
    X = sample_points(tower, 16, seed=3)
    assert np.array_equal(thread_orbit(thread(X), -20, 300),
                          thread(tower.orbit_span(X, -20, 300)))
    budget = SearchBudget(grid_divisor=(16.0, 4.0))
    oracle = dataclasses.replace(
        tower, metric_block=thread_metric, orbit=_chunked(thread_orbit),
        grid=lambda n, eps, budget: (thread(tower.grid(n, eps, budget)[0]), False))
    for n, eps in ((3, 0.2), (8, 0.3)):
        net, want = shadowing_net(tower, n, eps, budget), shadowing_net(oracle, n, eps, budget)
        assert np.array_equal(net["assigned"], want["assigned"])
        assert np.array_equal(thread(net["net_points"]), want["net_points"])


def test_approx_rational():
    assert approx_rational(0.25) is not None
    assert approx_rational(1 / 3) is not None
    assert approx_rational(GOLDEN) is None


def every_constructor():
    rot, skew = make_rotation([GOLDEN]), make_skew_product(GOLDEN)
    return [
        rot, skew,
        make_nilsystem(heisenberg3(), [GOLDEN, np.sqrt(2) / 2, 0.0]),
        make_sturmian(GOLDEN, L=12),
        make_fullshift(2, L=6),
        make_inverse_limit([rot, skew], [lambda P: P[..., :1]]),
        make_furstenberg(GOLDEN, [(1, 1), (2, 2), (3, 3), (5, 4)]),
    ]


@pytest.mark.parametrize("sys", every_constructor(), ids=lambda s: s.name)
def test_block_orbit_matches_point_orbits(sys):
    X = sample_points(sys, 5, seed=0)
    for lo, hi in ((-7, 12), (-300, 4500)):
        B = sys.orbit_span(X, lo, hi)
        assert B.shape == (hi - lo + 1,) + X.shape
        for i in range(len(X)):
            assert np.array_equal(B[:, i], sys.orbit_span(X[i], lo, hi))
    nested = sys.orbit_span(X.reshape((5, 1, -1)), -3, 4)
    assert np.array_equal(nested[:, :, 0], sys.orbit_span(X, -3, 4))


@pytest.mark.parametrize("sys", every_constructor(), ids=lambda s: s.name)
def test_orbit_span_rejects_a_negative_length(sys):
    X = sample_points(sys, 3, seed=0)
    # hi = lo - 1 is the empty span, which orbit_block(x, 0) asks for
    assert sys.orbit_block(X[0], 0).shape == (0,) + X[0].shape
    assert sys.orbit_span(X, 5, 4).shape == (0,) + X.shape
    for x, lo, hi in ((X[0], 0, -4), (X, 5, 3), (X, -2, -10)):
        with pytest.raises(ValueError, match="negative length"):
            sys.orbit_span(x, lo, hi)
    with pytest.raises(ValueError, match="negative length"):
        sys.orbit_block(X[0], -3)


@pytest.mark.parametrize("sys", every_constructor(), ids=lambda s: s.name)
def test_orbit_yields_consecutive_chunks(sys):
    X = sample_points(sys, 3, seed=1)
    assert list(sys.orbit(X, 5, 4)) == []
    for lo, hi in ((0, 0), (7, 4102), (-5000, 9000)):
        chunks = list(sys.orbit(X, lo, hi))
        full, rest = divmod(hi - lo + 1, ORBIT_CHUNK)
        assert [len(c) for c in chunks] == [ORBIT_CHUNK] * full + [rest] * (rest > 0)
        assert all(c.shape[1:] == X.shape and c.dtype == chunks[0].dtype for c in chunks)
        # each chunk starts one step after the last row of the one before, up
        # to the rounding of the closed forms (the skew's n^2 alpha is 1e-9 off)
        for prev, chunk in zip(chunks, chunks[1:]):
            assert np.max(sys.metric_block(sys.step(prev[-1]), chunk[0])) <= 1e-6
        assert np.array_equal(sys.orbit_span(X, lo, hi), np.concatenate(chunks))


def traced_callables():
    """The handle callables perfbench's tracer wraps, read from the tracer."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tuple(tracing.SYSTEM_CALLABLES) + ("orbit_span",)


def test_handle_protocol_is_its_fields():
    # nothing bolted onto an instance, and every callable the tracer wraps
    traced = traced_callables()
    for sys in every_constructor():
        assert vars(sys).keys() == {f.name for f in dataclasses.fields(sys)}, sys.name
        for attr in traced:
            assert callable(getattr(sys, attr)), (sys.name, attr)


def test_fullshift_orbit_is_iterated_steps():
    sys = make_fullshift(2, L=6, reserve=8)
    X = sample_points(sys, 4, seed=2)
    X[:, -3:] = 1                       # symbols at the edge of the stored range
    width, pad = X.shape[-1], 40
    padded = np.zeros((len(X), pad + width + pad), dtype=X.dtype)
    padded[:, pad:pad + width] = X
    for lo, hi in ((-5, 9), (-30, -2), (0, 25), (4, 12)):
        # row t is x shifted by t, with x zero outside its stored range
        ref = [padded[:, pad + t:pad + t + width] for t in range(lo, hi + 1)]
        assert np.array_equal(sys.orbit_span(X, lo, hi), np.stack(ref))
    # stepping x one way, forward or back, walks the same rows
    fwd = back = X
    for t in range(1, 31):
        fwd, back = sys.step_block(fwd), sys.inverse_step_block(back)
        assert np.array_equal(fwd, padded[:, pad + t:pad + t + width])
        assert np.array_equal(back, padded[:, pad - t:pad - t + width])


def _nil_orbit_per_chunk(group, tau, X, lo, hi):
    """The nilsystem orbit recomputing tau's powers in every chunk: the
    oracle of the orbit that computes them once per system."""
    tau = element(group, np.asarray(tau, dtype=float))
    m = group.dim
    count = hi - lo + 1
    out = np.empty((count,) + X.shape)
    base = np.asarray(X, dtype=float)
    if lo != 0:
        jump = power(tau if lo > 0 else inv(tau), abs(lo))
        base = group.reduce_block(group.mul_block(jump.coords, base))[0]
    lead = (1,) * (X.ndim - 1)
    filled = 0
    while filled < count:
        chunk = min(ORBIT_CHUNK, count - filled)
        powers = power_sequence(tau, chunk + 1)
        out[filled:filled + chunk] = group.reduce_block(
            group.mul_block(powers[:chunk].reshape((chunk,) + lead + (m,)), base))[0]
        filled += chunk
        if filled < count:
            base = group.reduce_block(group.mul_block(powers[chunk], base))[0]
    return out


@pytest.mark.parametrize("group, tau", [
    (heisenberg3(), [GOLDEN, np.sqrt(2) / 2, 0.0]),
    (load_group(str(Path(__file__).parent / "golden" / "filiform4.json")),
     [GOLDEN, np.sqrt(2) / 2, 0.0, 0.0]),
], ids=["heisenberg3", "filiform4"])
def test_nilsystem_orbit_matches_per_chunk_powers(group, tau):
    full = power_sequence(element(group, np.asarray(tau)), ORBIT_CHUNK + 1)
    for count in (1, 2, 7, 1000, ORBIT_CHUNK):
        # the powers are sequential, so a shorter sequence is a bit-equal prefix
        short = power_sequence(element(group, np.asarray(tau)), count + 1)
        assert np.array_equal(short.view(np.int64), full[:count + 1].view(np.int64))
    sys = make_nilsystem(group, tau)
    X = sample_points(sys, 3, seed=4)
    for start, lo, hi in ((X[0], 0, 0), (X[0], 0, 2 * ORBIT_CHUNK + 17), (X, -250, 4200),
                          (X.reshape(3, 1, -1), -(ORBIT_CHUNK + 5), 3), (X, 9, 9 + ORBIT_CHUNK)):
        got = sys.orbit_span(start, lo, hi)
        want = _nil_orbit_per_chunk(group, tau, start, lo, hi)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_wrap_dist_block_matches_a_max_over_the_last_axis():
    def axis_max(P, Q):
        diff = np.abs(np.asarray(P, dtype=float) - np.asarray(Q, dtype=float))
        return np.max(np.minimum(diff, 1.0 - diff), axis=-1)

    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        P, Q = rng.random((40, d)), rng.random((40, d))
        P[::7] = Q[::7]                                   # zero distances
        P[1], Q[2, 0] = np.nan, np.nan                    # NaN rows
        pairs = [(P, Q), (P[:, None, :], Q[None, :, :]), (P[0], Q), (P[:0], Q[:0]),
                 (P[3], Q[4]), (P[:5].tolist(), 0.5)]
        for a, b in pairs:
            got, want = wrap_dist_block(a, b), axis_max(a, b)
            assert type(got) is type(want) and got.shape == want.shape
            assert np.array_equal(np.asarray(got).view(np.int64),
                                  np.asarray(want).view(np.int64))


# -- every closed form against its `% 1.0` formula -------------------------------
# The orbits reduce mod 1 with `frac`; these are the same closed forms written
# with `% 1.0`, chunk by chunk, and the rows must agree bit for bit.


def _mod1_chunks(rows, X, lo, hi):
    return np.concatenate([rows(X, a, min(a + ORBIT_CHUNK - 1, hi))
                           for a in range(lo, hi + 1, ORBIT_CHUNK)])


def _mod1_rotation(alpha):
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float)) % 1.0
    return lambda X, lo, hi: (X + _times(lo, hi, X.ndim) * alpha) % 1.0


def _mod1_skew(alpha):
    alpha = float(alpha) % 1.0

    def rows(X, lo, hi):
        n = _times(lo, hi, X.ndim - 1)
        out = np.empty((len(n),) + X.shape)
        out[..., 0] = (X[..., 0] + n * alpha) % 1.0
        out[..., 1] = (X[..., 1] + n * X[..., 0] + n * (n - 1) / 2.0 * alpha) % 1.0
        return out
    return rows


def _mod1_furstenberg(alpha, coeffs, lam=1.0):
    freqs, weights, rotations = _harmonics(alpha, coeffs)

    def H(phases, back):
        cosines = np.take(np.cos(TWO_PI * phases), back, axis=-1)
        return np.einsum("...k,k->...", cosines, weights)

    def rows(X, lo, hi):
        n = _times(lo, hi, X.ndim - 1)
        out = np.empty((len(n),) + X.shape)
        out[..., 0] = (X[..., 0] + n * float(alpha)) % 1.0
        keys = np.column_stack([rotations, X[..., 2:].reshape(X[..., 0].size, len(freqs)).T])
        _, first, back = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        start, rotation = X[..., 2 + first], rotations[first]
        phases = (start + n[..., None] * rotation) % 1.0
        out[..., 2:] = phases[..., back]
        out[..., 1] = (X[..., 1] + lam * (H(phases, back) - H(start, back))) % 1.0
        return out
    return rows


SMALL_SERIES = [(1, 1), (2, 2), (3, 3), (5, 4)]
MOD1_FAMILIES = {
    "rotation1": lambda: (make_rotation([GOLDEN]), _mod1_rotation([GOLDEN])),
    "rotation3": lambda: (make_rotation([GOLDEN, -np.sqrt(2) / 2, -2.0 ** -60]),
                          _mod1_rotation([GOLDEN, -np.sqrt(2) / 2, -2.0 ** -60])),
    "skew": lambda: (make_skew_product(GOLDEN), _mod1_skew(GOLDEN)),
    "sturmian": lambda: (make_sturmian(-GOLDEN, L=12), _mod1_rotation(float(-GOLDEN) % 1.0)),
    "furstenberg": lambda: (make_furstenberg(GOLDEN, SMALL_SERIES, lam=0.7),
                            _mod1_furstenberg(GOLDEN, SMALL_SERIES, lam=0.7)),
    "furstenberg-default": lambda: (make_default_furstenberg(),
                                    _mod1_furstenberg(*liouville_recipe())),
}
MOD1_SPANS = [(0, 0), (0, 4095), (0, 4096), (7, 4102), (-5000, 9000), (-10000, -1),
              (10 ** 7, 10 ** 7 + 4100), (10 ** 9, 10 ** 9 + 99), (-10 ** 9, -10 ** 9 + 99)]


@pytest.mark.parametrize("family", MOD1_FAMILIES, ids=str)
def test_closed_form_orbits_keep_the_bits_of_mod_one(family):
    sys, rows = MOD1_FAMILIES[family]()
    X = sample_points(sys, 3, seed=5)
    for start in (X[0], X):
        for lo, hi in MOD1_SPANS:
            want = _mod1_chunks(rows, start, lo, hi)
            assert np.array_equal(sys.orbit_span(start, lo, hi).view(np.int64),
                                  want.view(np.int64)), (lo, hi)
    want = _mod1_chunks(rows, X[1], 0, 299_999)
    assert np.array_equal(sys.orbit_block(X[1], 300_000).view(np.int64), want.view(np.int64))


def test_sturmian_codings_keep_the_bits_of_mod_one():
    alpha = float(-GOLDEN) % 1.0
    sys = make_sturmian(-GOLDEN, L=12)
    coding = sys.coding

    def symbols(z, offsets):
        pos = (np.asarray(z, dtype=float)[..., None] + np.asarray(offsets, dtype=float)
               * alpha) % 1.0
        out = np.zeros(pos.shape, dtype=np.int8)
        out[coding.partition[1].contains(pos)] = 1
        return out

    P = np.concatenate([sample_points(sys, 200, seed=6), [[0.0], [-2.0 ** -60], [1 - alpha]]])
    assert np.array_equal(sys.window(P), symbols(P[:, 0], np.arange(-12, 13)))
    for n, eps in ((0, 0.5), (3, 0.2), (6, 0.05)):
        w = symbol_resolution(eps)
        cuts = (-np.arange(-(w - 1), n + w + 1) * alpha) % 1.0
        got = sys.grid(n, eps, SearchBudget())[0][:, 0]
        assert np.array_equal(got.view(np.int64), cut_midpoints(cuts).view(np.int64))
    for n in range(1, 40):
        mids = cut_midpoints((-np.arange(0, n + 1) * alpha) % 1.0)
        assert sturmian_language(-GOLDEN, n) == set(map(tuple, symbols(mids, np.arange(n))
                                                        .tolist()))


def test_src_reduces_float_arrays_mod_one_with_frac():
    # `x % 1.0` of an orbit chunk is 5 to 24 times slower than `frac`, with
    # the same bits; only a Python float (a `float(...)` call) may use it
    bad = []
    for path in sorted(Path(nillab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                    and isinstance(node.right, ast.Constant)
                    and type(node.right.value) in (int, float) and node.right.value == 1):
                continue
            left = node.left
            if not (isinstance(left, ast.Call) and isinstance(left.func, ast.Name)
                    and left.func.id == "float"):
                bad.append("%s:%d" % (path.name, node.lineno))
    assert not bad, "use arcs.frac for mod 1 at " + ", ".join(bad)
