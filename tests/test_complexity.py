"""Shadowing nets, growth classification, cover complexity, tower bound."""

import dataclasses

import numpy as np
import pytest

from nillab.budgets import SearchBudget
from nillab.complexity import (Ball, ComplexityCurve, Cover, CylinderUnion,
                               _greedy_cover, _join_coverage, _time0_buckets,
                               classify_growth, complexity_curve,
                               cover_complexity, inverse_limit_complexity_bound,
                               shadowing_net, system_grid)
from nillab.nilgroup import heisenberg3
from nillab.systems import (GridError, make_fullshift, make_inverse_limit,
                            make_nilsystem, make_rotation, make_skew_product)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def synth_curve(fn, ns):
    return ComplexityCurve(epsilon=0.1, records=[
        {"n": n, "r": fn(n), "net_size": fn(n), "grid": 0} for n in ns])


def test_circle_net_size_at_time_zero():
    rot = make_rotation([GOLDEN])
    net = shadowing_net(rot, 0, 0.1)
    assert 5 <= net["r_estimate"] <= 10


def test_rotation_net_independent_of_horizon():
    rot = make_rotation([GOLDEN])
    r10 = shadowing_net(rot, 10, 0.1)["r_estimate"]
    r100 = shadowing_net(rot, 100, 0.1)["r_estimate"]
    assert r10 == r100


def test_rotation_curve_bounded():
    rot = make_rotation([GOLDEN])
    curve = complexity_curve(rot, 0.1, [1, 2, 3, 5, 8, 10, 16, 26, 42, 65, 100])
    assert curve.fit["class"] == "bounded"


def test_fullshift_curve_exponential():
    fsh = make_fullshift(2, L=8)
    curve = complexity_curve(fsh, 0.4, list(range(1, 11)),
                             SearchBudget(max_cells=3_000_000))
    assert list(curve.rs()) == [2 ** (n + 3) for n in range(1, 11)]
    assert curve.fit["class"] == "exponential"
    assert 0.8 <= curve.fit["log2_rate"] <= 1.2


def test_skew_curve_polynomial():
    skew = make_skew_product(GOLDEN)
    curve = complexity_curve(skew, 0.1, [1, 2, 3, 5, 8, 13, 21, 34, 55],
                             SearchBudget(grid_divisor=(16.0, 4.0),
                                          max_cells=3_000_000))
    assert curve.fit["class"] == "polynomial"
    assert 0.5 <= curve.fit["exponent"] <= 3.0


def test_net_monotonicity_in_n_and_eps():
    skew = make_skew_product(GOLDEN)
    bud = SearchBudget(grid_divisor=(8.0, 4.0))
    grid = None
    rs = [shadowing_net(skew, n, 0.1, bud)["r_estimate"] for n in (1, 4, 9, 16)]
    assert all(b >= a for a, b in zip(rs, rs[1:]))
    fine = shadowing_net(skew, 4, 0.05, SearchBudget(grid_divisor=(8.0, 4.0)))
    coarse = shadowing_net(skew, 4, 0.1, SearchBudget(grid_divisor=(16.0, 8.0)))
    # same grid when divisors scale with eps; finer eps needs more points
    assert fine["grid_size"] == coarse["grid_size"]
    assert fine["r_estimate"] >= coarse["r_estimate"]


def test_grid_refusals():
    rot = make_rotation([GOLDEN])
    with pytest.raises(GridError):
        shadowing_net(rot, 0, 0.1, SearchBudget(grid_divisor=2.0))
    with pytest.raises(GridError):
        shadowing_net(rot, 0, 0.001, SearchBudget(max_cells=100))


def test_a_missing_grid_is_a_precondition_not_a_budget():
    rot = make_rotation([GOLDEN])
    gridless = dataclasses.replace(rot, grid=None)
    tower = make_inverse_limit([rot, gridless], [lambda P: P])
    for sys, message in ((gridless, "system offers no grid"),
                         (tower, "top level offers no grid")):
        with pytest.raises(ValueError, match=message) as exc:
            shadowing_net(sys, 2, 0.1)
        assert not isinstance(exc.value, GridError)


def test_curve_fits_only_when_its_records_admit_a_fit():
    rot = make_rotation([GOLDEN])
    for n_values in ([10, 11, 12, 13, 14, 15, 16, 17], [1, 2, 4, 8, 16],
                     [0, 1, 2, 3, 5, 8, 13, 21]):
        curve = complexity_curve(rot, 0.1, n_values)
        assert curve.fit is None and len(curve.records) == len(n_values)
        with pytest.raises(ValueError):
            classify_growth(curve)
    assert complexity_curve(rot, 0.1, [1, 2, 3, 5, 8, 13, 21, 34]).fit["class"] == "bounded"
    for n_values in ([], [-1, 5]):
        with pytest.raises(ValueError, match="n-grid needs at least one horizon"):
            complexity_curve(rot, 0.1, n_values)


def test_classifier_synthetic_fixtures():
    poly = classify_growth(synth_curve(lambda n: 3 * n ** 2,
                                       [1, 2, 3, 5, 8, 13, 21, 34, 55]))
    assert poly["class"] == "polynomial"
    assert poly["exponent"] == pytest.approx(2.0, abs=0.05)

    expo = classify_growth(synth_curve(lambda n: 2 ** n, list(range(1, 12))))
    assert expo["class"] == "exponential"
    assert expo["log2_rate"] == pytest.approx(1.0, abs=0.05)

    const = classify_growth(synth_curve(lambda n: 7, [1, 2, 3, 5, 8, 13, 21, 34]))
    assert const["class"] == "bounded"


def test_classifier_preconditions():
    with pytest.raises(ValueError):
        classify_growth(synth_curve(lambda n: n, [1, 2, 3, 5]))
    with pytest.raises(ValueError):
        classify_growth(synth_curve(lambda n: n, [10, 12, 14, 16, 18, 20, 22, 24]))
    bad = synth_curve(lambda n: n, [1, 2, 3, 5, 8, 13, 21, 34])
    bad.records[3]["r"] = 1
    with pytest.raises(ValueError):
        classify_growth(bad)


def test_dimension_sanity_circle():
    rot = make_rotation([GOLDEN])
    for eps in (0.1, 0.05, 0.02):
        r = shadowing_net(rot, 0, eps)["r_estimate"]
        dim = np.log(r) / np.log(1.0 / eps)
        assert 0.8 <= dim <= 1.3


def test_cover_two_arc_circle():
    rot = make_rotation([GOLDEN])
    cover = Cover([Ball((0.0,), 0.3), Ball((0.5,), 0.3)], lebesgue_delta=0.05)
    out = cover_complexity(rot, cover, 0)
    assert out["estimate"] == 2
    assert "shadowing_bound" in out


def test_cover_constant_for_identity_map():
    ident = make_rotation([0.0])
    cover = Cover([Ball((0.0,), 0.3), Ball((0.45,), 0.3), Ball((0.8,), 0.3)])
    sizes = {cover_complexity(ident, cover, n)["estimate"] for n in (0, 3, 7)}
    assert len(sizes) == 1


def test_cover_skew_polynomial_slope():
    skew = make_skew_product(GOLDEN)
    centers = [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]
    cover = Cover([Ball(c, 0.3) for c in centers], lebesgue_delta=0.05)
    ns = [1, 2, 4, 7, 12, 20]
    cs = [cover_complexity(skew, cover, n,
                           SearchBudget(grid_divisor=(4.0, 4.0)))["estimate"]
          for n in ns]
    assert all(b >= a for a, b in zip(cs, cs[1:]))
    slope = np.polyfit(np.log(ns), np.log(cs), 1)[0]
    assert slope <= 2.5


def test_cover_validation_failure():
    rot = make_rotation([GOLDEN])
    with pytest.raises(ValueError):
        Cover([Ball((0.0,), 0.1)]).validate(rot)


def test_cover_cylinder_union_on_fullshift():
    fsh = make_fullshift(2, L=6)
    cover = Cover([CylinderUnion((((0,), 0),)), CylinderUnion((((1,), 0),))])
    out = cover_complexity(fsh, cover, 2, SearchBudget(max_cells=100_000))
    assert out["estimate"] == 8    # one cell per center word of length 3


def test_inverse_limit_bound_basics():
    level = synth_curve(lambda n: 5, [1, 2, 4, 8])
    level.epsilon = 0.04
    single = inverse_limit_complexity_bound([level], 0.8)
    assert list(single.rs()) == [5, 5, 5, 5]

    two = inverse_limit_complexity_bound([level, level], 0.3)
    assert list(two.rs()) == [25, 25, 25, 25]

    with pytest.raises(ValueError) as err:
        inverse_limit_complexity_bound([level, level], 0.2)
    assert "minimal admissible N" in str(err.value)

    coarse = synth_curve(lambda n: 5, [1, 2, 4, 8])
    coarse.epsilon = 0.9
    with pytest.raises(ValueError):
        inverse_limit_complexity_bound([coarse], 0.8)


def test_tower_measured_below_product_bound():
    rot = make_rotation([GOLDEN])
    skew = make_skew_product(GOLDEN)
    tower = make_inverse_limit([rot, skew], [lambda P: P[..., :1]])
    nvals = [1, 2, 4, 8, 16]
    eps = 0.35
    delta = eps - 0.25
    c_rot = complexity_curve(rot, delta, nvals, classify=False)
    c_skew = complexity_curve(skew, delta, nvals,
                              SearchBudget(grid_divisor=(16.0, 4.0)),
                              classify=False)
    bound = inverse_limit_complexity_bound([c_rot, c_skew], eps)
    c_tower = complexity_curve(tower, eps, nvals,
                               SearchBudget(grid_divisor=(16.0, 4.0)),
                               classify=False)
    assert np.all(c_tower.rs() <= bound.rs())


# -- the greedy kernels against the loops they replaced ------------------------


def full_scan_net(sys, n, epsilon, grid):
    """Reference net: every greedy step scans every unassigned grid point,
    one metric call per time."""
    G = len(grid)
    orbits = sys.orbit_span(grid, 0, n)
    time_order = [n, 0] + list(range(n - 1, 0, -1)) if n > 0 else [0]
    assigned = np.full(G, -1, dtype=np.int64)
    net = []
    for i in range(G):
        if assigned[i] >= 0:
            continue
        net.append(i)
        cand = np.flatnonzero(assigned < 0)
        for t in time_order:
            keep = sys.metric_block(orbits[t][cand],
                                    np.broadcast_to(orbits[t][i], orbits[t][cand].shape)
                                    ) <= epsilon
            cand = cand[keep]
            if cand.size == 0:
                break
        assigned[cand] = i
        assigned[i] = i
    return np.array(net), assigned


def assert_net_matches_full_scan(sys, n, eps, grid):
    net = shadowing_net(sys, n, eps, grid=grid)
    ref_net, ref_assigned = full_scan_net(sys, n, eps, grid)
    assert np.array_equal(net["net_indices"], ref_net)
    assert np.array_equal(net["assigned"], ref_assigned)
    return net


def cells_per_axis(sys, grid, eps):
    return _time0_buckets(sys, sys.orbit_span(grid, 0, 0)[0], eps)[2]


@pytest.mark.parametrize("alpha,n", [([GOLDEN], 7), ([GOLDEN, np.sqrt(2.0) - 1.0], 3)])
def test_rotation_net_matches_full_scan(alpha, n):
    rot = make_rotation(alpha)
    grid = system_grid(rot, n, 0.1, SearchBudget(grid_divisor=4.0))
    assert cells_per_axis(rot, grid, 0.1) == 9
    assert_net_matches_full_scan(rot, n, 0.1, grid)


@pytest.mark.parametrize("eps,n", [
    (0.1, 1), (0.1, 4), (0.1, 14), (0.05, 4), (1.0 / 3.0, 4), (0.25, 4), (0.5, 4),
    (np.nextafter(0.1, 0.0), 4), (np.nextafter(0.1, 1.0), 4)])
def test_skew_net_matches_full_scan(eps, n):
    skew = make_skew_product(GOLDEN)
    grid = system_grid(skew, n, eps, SearchBudget(grid_divisor=(4.0, 4.0)))
    assert cells_per_axis(skew, grid, eps) == max(1, int(1.0 / eps) - 1)
    assert_net_matches_full_scan(skew, n, eps, grid)


def test_non_torus_metrics_take_one_cell_and_match_full_scan():
    rot, skew = make_rotation([GOLDEN]), make_skew_product(GOLDEN)
    tower = make_inverse_limit([rot, skew], [lambda P: P[..., :1]])
    nil = make_nilsystem(heisenberg3(), [GOLDEN, np.sqrt(2.0) / 2.0, 0.0])
    for sys, n, eps, divisor in ((tower, 5, 0.3, (16.0, 4.0)), (nil, 2, 0.4, 4.0)):
        grid = system_grid(sys, n, eps, SearchBudget(grid_divisor=divisor))
        assert cells_per_axis(sys, grid, eps) == 1
        assert_net_matches_full_scan(sys, n, eps, grid)


def test_net_coordinate_exactly_one_joins_the_last_cell():
    # frac(-2^-60) rounds to exactly 1.0, which shadows 0.0 across the wrap
    rot = make_rotation([GOLDEN])
    grid = np.r_[0.0, -2.0 ** -60, (np.arange(40) + 0.5) / 40][:, None]
    assert rot.orbit_span(grid, 0, 0)[0, 1, 0] == 1.0
    net = assert_net_matches_full_scan(rot, 3, 0.1, grid)
    assert net["assigned"][1] == 0


def argmax_greedy(coverage):
    """Reference greedy cover: np.argmax over every cell's exact gain at each
    pick. The gains are kept by subtracting each pick's newly covered points,
    the same integers a recount over the uncovered points gives."""
    gains = coverage.sum(axis=1)
    by_point = np.ascontiguousarray(coverage.T)
    uncovered = np.ones(coverage.shape[1], dtype=bool)
    chosen = []
    while uncovered.any():
        best = int(np.argmax(gains))
        if gains[best] == 0:
            raise RuntimeError("grid not coverable")
        chosen.append(best)
        newly = uncovered & coverage[best]
        gains -= by_point[newly].sum(axis=0)
        uncovered &= ~newly
    return chosen


def test_greedy_cover_matches_argmax_on_tied_matrices():
    rng = np.random.default_rng(0)
    for _ in range(200):
        C, G = rng.integers(1, 40), rng.integers(1, 60)
        coverage = rng.random((C, G)) < rng.uniform(0.05, 0.6)
        # repeated rows and few points make equal gains common
        coverage = coverage[rng.integers(0, C, size=C)]
        coverage[rng.integers(0, C, size=G), np.arange(G)] = True
        assert _greedy_cover(coverage) == argmax_greedy(coverage)
    with pytest.raises(RuntimeError):
        _greedy_cover(np.array([[True, False], [True, False]]))


def loop_coverage(sys, cover, n, grid):
    """Reference join-cell coverage: one row at a time, one time at a time."""
    G = len(grid)
    depth = np.empty((n + 1, G, len(cover.sets)))
    for t, P in enumerate(sys.orbit_span(grid, 0, n)):
        depth[t] = cover.depth(sys, P)
    member = depth > 0
    cells = np.unique(np.argmax(depth, axis=2).T, axis=0)
    coverage = np.empty((len(cells), G), dtype=bool)
    for ci, cell in enumerate(cells):
        cov = member[0, :, cell[0]].copy()
        for t in range(1, n + 1):
            cov &= member[t, :, cell[t]]
        coverage[ci] = cov
    return coverage


def test_cover_greedy_matches_argmax_on_cover_skew_fixture():
    skew = make_skew_product(GOLDEN)
    centers = [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]
    cover = Cover([Ball(c, 0.3) for c in centers], lebesgue_delta=0.05)
    budget = SearchBudget(grid_divisor=(4.0, 4.0))
    for n in range(1, 21):
        grid = system_grid(skew, n, 0.05, budget)
        coverage = _join_coverage(skew, cover, grid, n, budget)
        if n in (1, 4, 12):
            assert np.array_equal(coverage, loop_coverage(skew, cover, n, grid))
        assert _greedy_cover(coverage) == argmax_greedy(coverage)
