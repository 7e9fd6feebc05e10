"""Target sets: depth, and the exact forms the searches read."""

import numpy as np
import pytest

from nillab import complexity, cubes, independence, targets
from nillab.budgets import SearchBudget
from nillab.complexity import Cover, _join_coverage
from nillab.cubes import cube_criterion
from nillab.furstenberg import furstenberg_point, make_furstenberg
from nillab.independence import SetTuple, check_independence
from nillab.nilgroup import heisenberg3
from nillab.systems import (SymbolicWindow, _window_distance, make_fullshift,
                            make_nilsystem, make_rotation, make_skew_product,
                            make_sturmian, open_symbol_resolution, sample_points,
                            sturmian_code)
from nillab.targets import Ball, Cylinder, CylinderUnion, visits

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def test_cylinder_past_the_window_is_refused():
    fsh = make_fullshift(2, L=8)
    P = sample_points(fsh, 1000, seed=0)
    for target in (Cylinder((0,), 9), Cylinder((1,), 9), Cylinder((0, 1), 8),
                   Cylinder((0,), -12), CylinderUnion((((0,), 0), ((1,), -9)))):
        with pytest.raises(ValueError, match="window"):
            target.depth(fsh, P)
    # words inside the window still decide membership symbol by symbol
    inside = Cylinder((1,), 8).depth(fsh, P) > 0
    center = (P.shape[1] - 1) // 2
    assert np.array_equal(inside, P[:, center + 8] == 1)


def test_cylinder_depth_on_stacked_blocks():
    # an orbit block (T, c, width) is read row by row, shape kept
    fsh, stu = make_fullshift(2, L=8), make_sturmian(GOLDEN)
    for sys, targets in (
            (fsh, (Cylinder((1, 0), -1), CylinderUnion((((0,), 0), ((1, 1), 3))))),
            (stu, (Cylinder((0, 1), 0), CylinderUnion((((1,), 0), ((0, 0), 2)))))):
        block = sys.orbit_span(sample_points(sys, 12, seed=2), 0, 4)
        for target in targets:
            got = target.depth(sys, block)
            assert got.shape == (5, 12)
            assert np.array_equal(got, np.stack([target.depth(sys, rows) for rows in block]))
            assert np.array_equal(got.ravel(), target.depth(sys, block.reshape(60, -1)))


def test_cylinder_depth_on_an_empty_block():
    # no rows, no depths: shape (0,), as a ball gives
    for sys in (make_fullshift(2, L=8), make_sturmian(GOLDEN)):
        P = sample_points(sys, 3, seed=0)[:0]
        assert Ball(tuple(sample_points(sys, 1, seed=1)[0]), 0.3).depth(sys, P).shape == (0,)
        for target in (Cylinder((1, 0), -1), CylinderUnion((((0,), 0), ((1, 1), 3)))):
            assert target.depth(sys, P).shape == (0,)


def one_row_windows(sys, L):
    """A SymbolicWindow built from one point row: the one-row reading that
    the block hook `window` must match."""
    if sys.name == "sturmian":
        return lambda point: sturmian_code(sys.coding.alpha, point[0], L)
    center = (sys.sample_block(np.random.default_rng(0), 1).shape[-1] - 1) // 2
    return lambda point: SymbolicWindow(
        tuple(int(s) for s in point[center - L:center + L + 1]), 2)


def one_row_depth(cylinders, row_window, P):
    """CylinderUnion.depth read one row at a time, through one window object per row."""
    rows = P.reshape(-1, P.shape[-1])
    words = np.stack([np.asarray(row_window(p).word) for p in rows])
    c = (words.shape[1] - 1) // 2
    reach = max(max(abs(a), abs(a + len(w) - 1)) for w, a in cylinders)
    inside = np.zeros(len(rows), dtype=bool)
    for word, anchor in cylinders:
        lo = c + anchor
        seg = words[:, lo:lo + len(word)]
        inside |= np.all(seg == np.asarray(word), axis=1)
    return np.where(inside, 2.0 ** (-(reach + 1)), -1.0).reshape(P.shape[:-1])


@pytest.mark.parametrize("sys, L", [(make_fullshift(2, L=8), 8),
                                    (make_sturmian(GOLDEN, L=16), 16)],
                         ids=["fullshift", "sturmian"])
def test_block_window_depth_matches_one_row_windows(sys, L):
    row_window = one_row_windows(sys, L)
    X = sample_points(sys, 200, seed=5)
    grid, _ = sys.grid(3, 0.25, SearchBudget())
    blocks = [X, sys.orbit_span(X[:40], 0, 12), sys.orbit_span(X[:40], -12, 0), grid]
    if sys.name == "sturmian":
        blocks.append(np.array([[1.0], [0.0], [GOLDEN]]))
    # words read off sampled rows, so that members occur
    word = tuple(int(s) for s in row_window(X[0]).word[L - 2:L + 4])
    targets = [Cylinder(word, -2), Cylinder((1, 0), -1), Cylinder((0,), L),
               Cylinder((1, 1, 0), -L),
               CylinderUnion(((word, -2), ((0, 0), 3), ((1,), -L)))]
    members = 0
    for P in blocks:
        for target in targets:
            cylinders = target.cylinders if isinstance(target, CylinderUnion) \
                else ((target.word, target.anchor),)
            got = target.depth(sys, P)
            assert got.shape == P.shape[:-1]
            assert np.array_equal(got, one_row_depth(cylinders, row_window, P))
            members += int(np.sum(got > 0))
        if sys.name == "sturmian":
            # the metric reads the same windows as two symbols_block calls did
            Q, offsets = np.roll(P, 1, axis=0), np.arange(-L, L + 1)
            old = _window_distance(sys.coding.symbols_block(P[..., 0], offsets),
                                   sys.coding.symbols_block(Q[..., 0], offsets), L)
            assert np.array_equal(sys.metric_block(P, Q), old)
    assert members > 0


def test_ball_run_reads_the_center_row():
    fsh = make_fullshift(2, L=8)
    x = sample_points(fsh, 1, seed=4)[0]
    center = (len(x) - 1) // 2
    for radius, reach in ((0.3, 1), (0.05, 4), (2.0 ** -12, 12), (2.0 ** -200, center)):
        offset, symbols = Ball(x, radius).run()
        assert offset == -reach and symbols.dtype == np.int8
        assert np.array_equal(symbols, x[center - reach:center + reach + 1])
    assert Cylinder((1, 0), -3).run()[0] == -3
    assert CylinderUnion((((0,), 0),)).run() is None


@pytest.mark.parametrize("center", [(0, 1.5, 0), (0, np.nan, 0), (0, 300, 0)])
def test_ball_run_refuses_a_centre_that_is_no_symbol_row(center):
    # int8 would read 1.5 as 1 and wrap 300: the run must not stand for another ball
    with pytest.raises(ValueError, match="no int8 symbol"):
        Ball(center, 0.3).run()


def test_arcs_of_balls_and_cylinders():
    rot = make_rotation([GOLDEN])
    arcs = Ball((0.95,), 0.1).arcs(rot.coding).arcs
    assert np.allclose(arcs, [(0.0, 0.05), (0.85, 1.0)])
    stu = make_sturmian(GOLDEN)
    # a cylinder's arc is exactly the set of circle points coding to its word
    arc = Cylinder((0, 1), -1).arcs(stu.coding)
    z = (np.arange(4000) + 0.5) / 4000
    words = stu.coding.symbols_block(z, [-1, 0])
    assert np.array_equal(arc.contains(z), np.all(words == [0, 1], axis=1))
    assert CylinderUnion((((0,), 0),)).arcs(stu.coding) is None


def test_open_symbol_resolution():
    # smallest w >= 0 with 2^-w < radius: one more at a dyadic radius
    for radius, w in ((2.0, 0), (1.0, 1), (0.75, 1), (0.5, 2), (0.3, 2),
                      (2.0 ** -4, 5), (0.05, 5), (2.0 ** -12, 13)):
        assert open_symbol_resolution(radius) == w
        assert 2.0 ** -w < radius and (w == 0 or 2.0 ** -(w - 1) >= radius)
    with pytest.raises(ValueError):
        open_symbol_resolution(0.0)


def test_ball_forms_are_open_at_dyadic_radii():
    # at radius 2^-4 a point 2^-4 from the center (first disagreement at
    # |j| = 4) lies on the sphere, outside the open ball
    fsh = make_fullshift(2, L=8)
    x = sample_points(fsh, 1, seed=4)[0]
    center = (len(x) - 1) // 2
    offset, symbols = Ball(x, 2.0 ** -4).run()
    assert offset == -4 and np.array_equal(symbols, x[center - 4:center + 5])
    stu = make_sturmian(GOLDEN)
    z = (np.arange(20_000) + 0.5) / 20_000
    for radius in (2.0 ** -2, 2.0 ** -4, 0.05):
        ball = Ball((0.3,), radius)
        arcs = ball.arcs(stu.coding)
        assert np.array_equal(arcs.contains(z), ball.depth(stu, z[:, None]) > 0)


# -- the depth table of every orbit-versus-target search ---------------------------


def visit_fixture(name):
    """(system, targets, points, cube pair, cube delta, budget)."""
    if name == "heisenberg3":
        sys = make_nilsystem(heisenberg3(), [GOLDEN, np.sqrt(2.0) / 2.0, 0.0])
        return (sys, [Ball((0.25,) * 3, 0.4), Ball((0.75,) * 3, 0.4)],
                sample_points(sys, 30, seed=1), ([0.2, 0.3, 0.4], [0.6, 0.1, 0.8]), 0.2,
                SearchBudget(max_candidates=40, n_range=10, seed=0))
    if name == "furstenberg":
        sys = make_furstenberg(GOLDEN, [(1, 1), (2, 2)])
        x1, x2 = furstenberg_point(sys, 0.1, 0.2), furstenberg_point(sys, 0.1, 0.6)
        return (sys, [Ball(tuple(x1), 0.4), Ball(tuple(x2), 0.4)],
                sample_points(sys, 30, seed=1), (x1, x2), 0.05,
                SearchBudget(max_candidates=60, n_range=30, seed=0))
    if name == "fullshift":
        sys = make_fullshift(2, L=4)
        x1, x2 = sample_points(sys, 2, seed=3)
        return (sys, [CylinderUnion((((0, 1), 0), ((0, 0), 0))), Cylinder((1, 1), -1)],
                sample_points(sys, 30, seed=1), (x1, x2), 0.05,
                SearchBudget(max_candidates=64, n_range=20, seed=1))
    sys = make_skew_product(GOLDEN)
    return (sys, [Ball((0.25, 0.25), 0.3), Ball((0.75, 0.75), 0.3)],
            sample_points(sys, 30, seed=1), ([0.2, 0.7], [0.6, 0.1]), 0.05,
            SearchBudget(max_candidates=100, n_range=40, seed=0))


def one_point_visits(sys, targets, Z, times, member):
    """Reference table: one orbit per point, from min(times[0], 0), and one
    depth call per target on it."""
    times = np.asarray(times)
    lo = min(int(times[0]), 0)
    out = np.empty((len(targets), len(Z), len(times)))
    for zi, z in enumerate(Z):
        orbit = sys.orbit_span(z, lo, int(times[-1]))[times - lo]
        for i, target in enumerate(targets):
            out[i, zi] = target.depth(sys, orbit)
    return out > 0 if member else out


FIXTURES = ["heisenberg3", "furstenberg", "fullshift", "skew"]


@pytest.mark.parametrize("name", FIXTURES)
def test_visits_matches_one_point_oracle_at_every_chunk_size(monkeypatch, name):
    sys, tgts, Z, _, _, _ = visit_fixture(name)
    members = 0
    for times in ([0, 1, 3], range(-4, 5), [2, 3, 4], [2, 5], [-3]):
        want = one_point_visits(sys, tgts, Z, times, False)
        members += int(np.sum(want > 0))
        for rows in (1, 7, 40, 1 << 14):
            monkeypatch.setattr(targets, "SCAN_ROWS", rows)
            got = visits(sys, tgts, Z, times, member=False)
            inside = visits(sys, tgts, Z, times, member=True)
            assert got.flags.c_contiguous and np.array_equal(got, want)
            assert inside.dtype == bool and np.array_equal(inside, want > 0)
    assert members > 0


def search_outputs(sys, tgts, Z, pair, delta, budget):
    """The three searches that read a depth table: the cube scan, the
    sampled independence route and the cover's join cells."""
    cube = cube_criterion(sys, np.asarray(pair[0]), np.asarray(pair[1]), 1, delta, budget)
    rep = check_independence(sys, SetTuple(tuple(tgts)), (0, 1, 3), budget)
    coverage = _join_coverage(sys, Cover(list(tgts)), Z, 3, budget)
    return (repr(cube), rep.verified, rep.failures, repr(rep.witnesses),
            coverage.tolist())


@pytest.mark.parametrize("name", FIXTURES)
def test_searches_agree_at_every_chunk_size(monkeypatch, name):
    sys, tgts, Z, pair, delta, budget = visit_fixture(name)
    want = search_outputs(sys, tgts, Z, pair, delta, budget)
    for rows in (1, 50, 1 << 14):
        monkeypatch.setattr(targets, "SCAN_ROWS", rows)
        assert search_outputs(sys, tgts, Z, pair, delta, budget) == want
    for module in (complexity, cubes, independence):
        monkeypatch.setattr(module, "visits", one_point_visits)
    assert search_outputs(sys, tgts, Z, pair, delta, budget) == want
