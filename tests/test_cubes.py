"""Cubes, face moves and the witness searches."""

import itertools
import tracemalloc

import numpy as np
import pytest

from nillab import cubes, targets
from nillab.budgets import SearchBudget
from nillab.cubes import (POOL_CAP, Cube, FaceMove, RPWitness, _candidate_pool,
                          _first_hit, _live_candidates, _spiral_index, apply_face,
                          cube_criterion, rp_test, sample_cube, validate_rp_witness,
                          vertex_set)
from nillab.furstenberg import furstenberg_point, make_furstenberg
from nillab.nilgroup import heisenberg3
from nillab.systems import (cell_count, cell_index, make_fullshift, make_nilsystem,
                            make_rotation, make_skew_product)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def test_vertex_set_orders_binary_weights():
    verts = vertex_set(3)
    assert len(verts) == 8
    weights = [sum(n * e for n, e in zip((1, 2, 4), eps)) for eps in verts]
    assert sorted(weights) == list(range(8))


def test_sample_cube_constant_on_zero_vector():
    rot = make_rotation([GOLDEN])
    c = sample_cube(rot, np.array([0.3]), [0, 0])
    for eps in vertex_set(2):
        assert np.allclose(c.point(eps), [0.3])


def test_sample_cube_d2_display():
    rot = make_rotation([GOLDEN])
    m, n = 3, 5
    c = sample_cube(rot, np.array([0.0]), [m, n])
    assert c.point((0, 0))[0] == pytest.approx(0.0)
    assert c.point((1, 0))[0] == pytest.approx((m * GOLDEN) % 1.0)
    assert c.point((0, 1))[0] == pytest.approx((n * GOLDEN) % 1.0)
    assert c.point((1, 1))[0] == pytest.approx(((m + n) * GOLDEN) % 1.0)


def test_sample_cube_permutation_symmetry():
    rot = make_rotation([GOLDEN])
    n = (2, 7, 11)
    c = sample_cube(rot, np.array([0.1]), n)
    perm = (2, 0, 1)
    permuted_n = tuple(n[perm[i]] for i in range(3))
    c2 = sample_cube(rot, np.array([0.1]), permuted_n)
    assert all(np.allclose(c.permute(perm).point(eps), c2.point(eps))
               for eps in vertex_set(3))


def test_apply_face_semantics():
    rot = make_rotation([GOLDEN])
    c = sample_cube(rot, np.array([0.2]), [1])
    same = apply_face(rot, c, FaceMove(1, 1, 0))
    assert all(np.allclose(same.point(e), c.point(e)) for e in vertex_set(1))
    moved = apply_face(rot, c, FaceMove(1, 1, 1))
    assert np.allclose(moved.point((0,)), c.point((0,)))
    assert np.allclose(moved.point((1,)), rot.step(c.point((1,))))
    with pytest.raises(ValueError):
        apply_face(rot, c, FaceMove(2, 1, 1))
    with pytest.raises(ValueError):
        FaceMove(2, 3, 1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_faces_compose_to_sample_cube(d):
    skew = make_skew_product(GOLDEN)
    rng = np.random.default_rng(d)
    x = rng.uniform(0, 1, 2)
    n = [int(v) for v in rng.integers(-4, 5, d)]
    c = sample_cube(skew, x, [0] * d)
    for j in range(1, d + 1):
        c = apply_face(skew, c, FaceMove(d, j, n[j - 1]))
    direct = sample_cube(skew, x, n)
    for eps in vertex_set(d):
        assert np.max(np.abs(c.point(eps) - direct.point(eps))) <= 1e-12


def test_cube_requires_full_vertex_map():
    with pytest.raises(ValueError):
        Cube(2, {(0, 0): np.array([0.0])})


def test_rp_test_diagonal_immediate():
    rot = make_rotation([GOLDEN])
    w = rp_test(rot, np.array([0.4]), np.array([0.4]), 2, 0.01)
    assert isinstance(w, RPWitness) and w.n == (0, 0)


def test_rp_test_rotation_not_found():
    rot = make_rotation([GOLDEN])
    res = rp_test(rot, np.array([0.1]), np.array([0.4]), 1, 0.05,
                  SearchBudget(max_candidates=200, n_range=500, seed=0))
    assert not isinstance(res, RPWitness)
    assert res["status"] == "budget-exhausted"
    assert "non-membership" in res["note"]


def test_rp_test_skew_same_fiber_witness():
    skew = make_skew_product(GOLDEN)
    res = rp_test(skew, np.array([0.2, 0.1]), np.array([0.2, 0.7]), 1, 0.05,
                  SearchBudget(max_candidates=1000, n_range=5000, seed=0))
    assert isinstance(res, RPWitness)
    assert res.achieved_delta < 0.05


def test_rp_skew_same_fiber_not_found_at_order_two():
    # the skew product is a 2-step system: distinct same-fiber pairs are
    # order-1 regionally proximal but not order-2; the scan must come back
    # empty (and say only that the budget was exhausted)
    skew = make_skew_product(GOLDEN)
    res = rp_test(skew, np.array([0.2, 0.1]), np.array([0.2, 0.7]), 2, 0.05,
                  SearchBudget(max_candidates=400, n_range=60, seed=1))
    assert not isinstance(res, RPWitness)
    assert res["status"] == "budget-exhausted"


def test_rp_witness_restricts_to_lower_order():
    # finitely supported shift points are asymptotic, so a d = 2 witness
    # exists; its exponent restriction must satisfy the d = 1 conditions
    fsh = make_fullshift(2, L=4)
    rng = np.random.default_rng(3)
    x, y = fsh.sample_block(rng, 2)
    res = rp_test(fsh, x, y, 2, 0.05,
                  SearchBudget(max_candidates=64, n_range=40, seed=1))
    assert isinstance(res, RPWitness)
    ach = validate_rp_witness(
        fsh, x, y, np.array(res.x_approx, dtype=np.int8),
        np.array(res.y_approx, dtype=np.int8), res.n[:1])
    assert ach < 0.05


def test_cube_criterion_equal_points_all_realized():
    rot = make_rotation([GOLDEN])
    rep = cube_criterion(rot, np.array([0.3]), np.array([0.3]), 1, 0.02,
                         SearchBudget(max_candidates=100, n_range=20, seed=0))
    assert rep["all_realized"]


def test_cube_criterion_fullshift_all_16():
    fsh = make_fullshift(2, L=8)
    x1 = fsh.construct_point([(-8, np.zeros(17, dtype=np.int8))])
    x2 = fsh.construct_point([(-8, np.ones(17, dtype=np.int8))])
    rep = cube_criterion(fsh, x1, x2, 2, 0.05, SearchBudget(seed=0))
    assert rep["all_realized"]
    assert len(rep["patterns"]) == 16


def test_cube_criterion_rotation_mixed_pattern_fails():
    rot = make_rotation([GOLDEN])
    x1, x2 = np.array([0.1]), np.array([0.4])
    delta = rot.metric(x1, x2) / 4.0
    rep = cube_criterion(rot, x1, x2, 2, delta,
                         SearchBudget(max_candidates=300, n_range=60, seed=0))
    assert not rep["all_realized"]
    # x2 at the base vertex, x1 everywhere else cannot happen for an isometry
    assert "2111" in rep["failures"]
    # constant patterns are realized
    assert rep["patterns"]["1111"]["realized"]
    assert rep["patterns"]["2222"]["realized"]


def test_cube_criterion_rejects_large_d():
    rot = make_rotation([GOLDEN])
    with pytest.raises(ValueError):
        cube_criterion(rot, np.array([0.1]), np.array([0.2]), 4, 0.05)


def test_cube_criterion_d1_consistent_with_rp_style_search():
    # all four d = 1 patterns realizable implies both mixed orders appear
    fsh = make_fullshift(2, L=8)
    x1 = fsh.construct_point([(-8, np.zeros(17, dtype=np.int8))])
    x2 = fsh.construct_point([(-8, np.ones(17, dtype=np.int8))])
    rep = cube_criterion(fsh, x1, x2, 1, 0.05, SearchBudget(seed=0))
    assert rep["all_realized"]
    # cross-run: the witness search for the pair itself also succeeds
    cross = rp_test(fsh, x1, x2, 1, 0.5,
                    SearchBudget(max_candidates=64, n_range=64, seed=0))
    assert isinstance(cross, RPWitness)
    for key in ("12", "21"):
        n = rep["patterns"][key]["n"]
        z = np.array(rep["patterns"][key]["base_point"], dtype=np.int8)
        which = {"1": x1, "2": x2}
        orbit0 = z
        orbitn = fsh.orbit_span(z, 0, max(n))[-1] if max(n) >= 0 else z
        assert fsh.metric(orbit0, which[key[0]]) < 0.05
        assert fsh.metric(orbitn, which[key[1]]) < 0.05


def test_cube_criterion_fullshift_delta_finer_than_window():
    # delta = 2^-12 needs agreement out to |j| <= 12, past the window L = 8
    fsh = make_fullshift(2, L=8)
    x1 = fsh.construct_point([(-8, np.zeros(17, dtype=np.int8))])
    x2 = fsh.construct_point([(-8, np.ones(17, dtype=np.int8))])
    delta = 2.0 ** -12
    rep = cube_criterion(fsh, x1, x2, 1, delta, SearchBudget(seed=0))
    assert rep["all_realized"] and rep["budget"]["constructive"]
    for key, res in rep["patterns"].items():
        z = np.array(res["base_point"], dtype=np.int8)
        cube = sample_cube(fsh, z, res["n"])
        for eps, which in zip(vertex_set(1), key):
            assert fsh.metric(cube.point(eps), x1 if which == "1" else x2) < delta


def test_cube_criterion_fullshift_dyadic_delta():
    # at delta = 2^-4 a vertex 2^-4 from its center is outside the open ball
    fsh = make_fullshift(2, L=8)
    x1 = fsh.construct_point([(4, np.ones(1, dtype=np.int8))])
    x2 = fsh.construct_point([(-8, np.ones(17, dtype=np.int8))])
    delta = 2.0 ** -4
    rep = cube_criterion(fsh, x1, x2, 1, delta, SearchBudget(seed=0))
    assert rep["all_realized"] and rep["budget"]["constructive"]
    for key, res in rep["patterns"].items():
        cube = sample_cube(fsh, np.array(res["base_point"], dtype=np.int8), res["n"])
        for eps, which in zip(vertex_set(1), key):
            assert fsh.metric(cube.point(eps), x1 if which == "1" else x2) < delta


def one_by_one_pool(sys, x, delta, budget, rng):
    """Reference candidate pool: one metric call per pool point."""
    half = budget.max_candidates // 2
    orbit = sys.orbit_span(np.asarray(x), -half, half)
    order = np.argsort(np.abs(np.arange(-half, half + 1)), kind="stable")
    pool = np.concatenate([orbit[order], sys.sample_block(rng, budget.max_candidates)])
    keep = []
    for i, p in enumerate(pool):
        if sys.metric(p, x) < delta:
            keep.append(i)
            if len(keep) >= POOL_CAP:
                break
    return pool[keep]


def test_candidate_pool_matches_one_call_per_point():
    fsh = make_fullshift(2, L=8)
    cases = [
        (make_rotation([GOLDEN]), np.array([0.3]), 0.1),
        (make_skew_product(GOLDEN), np.array([0.2, 0.7]), 0.05),
        (make_nilsystem(heisenberg3(), [GOLDEN, np.sqrt(2.0) / 2.0, 0.0]),
         np.array([0.2, 0.3, 0.4]), 0.2),
        (fsh, fsh.sample_block(np.random.default_rng(1), 1)[0], 0.25),
    ]
    sizes = []
    for sys, x, delta in cases:
        budget = SearchBudget(seed=0)
        pool = _candidate_pool(sys, x, delta, budget, np.random.default_rng(0))
        ref = one_by_one_pool(sys, x, delta, budget, np.random.default_rng(0))
        assert pool.dtype == ref.dtype and np.array_equal(pool, ref)
        sizes.append(len(pool))
    # both the cap and a partial pool are exercised
    assert POOL_CAP in sizes and any(0 < k < POOL_CAP for k in sizes)


def test_fullshift_pool_holds_orbit_points_past_the_stored_range():
    # the default budget spans T^-500 x .. T^500 x, past the stored range [-136, 136]
    fsh = make_fullshift(2, L=8)
    x = fsh.sample_block(np.random.default_rng(4), 1)[0]
    assert np.array_equal(fsh.orbit_span(x, -500, 500)[500], x)
    pool = _candidate_pool(fsh, x, 0.05, SearchBudget(seed=0), np.random.default_rng(0))
    assert any(np.array_equal(p, x) for p in pool)


def one_point_ball_visits(sys, balls, zs, times, member):
    """Reference membership table of the contiguous times: one orbit per
    base point and one depth call per ball on it."""
    assert member
    orbits = [sys.orbit_span(z, times[0], times[-1]) for z in zs]
    return np.array([[ball.depth(sys, orbit) > 0 for orbit in orbits] for ball in balls])


@pytest.mark.parametrize("case", ["skew-d1", "skew-d2", "rotation-d2", "heisenberg3-d1"])
@pytest.mark.parametrize("scan_rows", [None, 200])
def test_cube_scan_matches_one_call_per_point(monkeypatch, case, scan_rows):
    sys, x1, x2, d, delta, budget, n_failures = {
        "skew-d1": (make_skew_product(GOLDEN), [0.2, 0.7], [0.6, 0.1], 1, 0.05,
                    SearchBudget(seed=0), 0),
        "skew-d2": (make_skew_product(GOLDEN), [0.2, 0.7], [0.6, 0.1], 2, 0.1,
                    SearchBudget(max_candidates=300, n_range=30, seed=0), 8),
        "rotation-d2": (make_rotation([GOLDEN]), [0.1], [0.4], 2, 0.075,
                        SearchBudget(max_candidates=300, n_range=60, seed=0), 10),
        "heisenberg3-d1": (make_nilsystem(heisenberg3(), [GOLDEN, np.sqrt(2.0) / 2.0, 0.0]),
                           [0.2, 0.3, 0.4], [0.6, 0.1, 0.8], 1, 0.2,
                           SearchBudget(max_candidates=100, n_range=20, seed=0), 0),
    }[case]
    if scan_rows is not None:
        # chunks of a few base points, so that chunk boundaries fall inside the pool
        monkeypatch.setattr(targets, "SCAN_ROWS", scan_rows)
    x1, x2 = np.array(x1), np.array(x2)
    got = cube_criterion(sys, x1, x2, d, delta, budget)
    scans = []

    def oracle(sys_, balls, zs, times, member):
        want = one_point_ball_visits(sys_, balls, zs, times, member)
        assert np.array_equal(targets.visits(sys_, balls, zs, times, member=member), want)
        scans.append(len(zs))
        return want

    monkeypatch.setattr(cubes, "visits", oracle)
    want = cube_criterion(sys, x1, x2, d, delta, budget)
    # one visits call per chunk of base points, in pool order; a pattern that
    # fails walks the whole pool
    assert all(k == scans[0] for k in scans[:-1]) and got == want
    assert sum(scans) <= budget.max_candidates
    if n_failures:
        assert sum(scans) == budget.max_candidates
    assert len(got["failures"]) == n_failures


def test_cube_scan_builds_its_table_as_find_reaches_base_points(monkeypatch):
    # every pattern is realized within the first two chunks of 81 base points
    # (times -100..100), so the table never holds the other 838 base points
    skew = make_skew_product(GOLDEN)
    scans = []

    def counted(sys_, balls, zs, times, member):
        scans.append(len(zs))
        return targets.visits(sys_, balls, zs, times, member=member)

    monkeypatch.setattr(cubes, "visits", counted)
    rep = cube_criterion(skew, np.array([0.2, 0.7]), np.array([0.6, 0.1]), 1, 0.05,
                         SearchBudget(seed=0))
    assert rep["all_realized"] and scans == [81, 81]


def test_cube_scan_holds_a_membership_table():
    # 1,000 base points over times -1000..1000: two balls' depths would take
    # 32 MB, their membership 4 MB
    skew = make_skew_product(GOLDEN)
    tracemalloc.start()
    try:
        rep = cube_criterion(skew, np.array([0.2, 0.1]), np.array([0.2, 0.7]), 1, 0.05,
                             SearchBudget(n_range=1000, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["all_realized"] and not rep["budget"]["constructive"]
    assert peak <= 12 * 2 ** 20


# -- rp_test's pruned pair scan against the loop it replaced --------------------


def unpruned_rp_test(sys, x, y, d, delta, budget):
    """Reference search: every x-candidate against every y-candidate, one
    metric call and one `_first_hit` per pair."""
    x, y = np.asarray(x), np.asarray(y)
    rng = np.random.default_rng(budget.seed)
    nonempty = [eps for eps in vertex_set(d) if any(eps)]
    if sys.metric(x, y) < delta:
        return RPWitness(tuple(np.ravel(x).tolist()), tuple(np.ravel(y).tolist()),
                         (0,) * d, validate_rp_witness(sys, x, y, x, y, (0,) * d))
    cand_x = _candidate_pool(sys, x, delta, budget, rng)
    cand_y = _candidate_pool(sys, y, delta, budget, rng)
    spiral, span, idx = _spiral_index(budget, d, nonempty)
    orbits_x = np.ascontiguousarray(np.swapaxes(sys.orbit_span(cand_x, -span, span), 0, 1))
    orbits_y = np.ascontiguousarray(np.swapaxes(sys.orbit_span(cand_y, -span, span), 0, 1))
    best = None
    for ix, ox in enumerate(orbits_x):
        for iy, oy in enumerate(orbits_y):
            s = _first_hit([sys.metric_block(ox, oy) < delta] * len(nonempty), idx)
            if s is None:
                continue
            n_vec = tuple(int(v) for v in spiral[s])
            ach = validate_rp_witness(sys, x, y, cand_x[ix], cand_y[iy], n_vec, delta=delta)
            if best is None or s < best[0]:
                best = (s, RPWitness(tuple(np.ravel(cand_x[ix]).tolist()),
                                     tuple(np.ravel(cand_y[iy]).tolist()), n_vec, ach))
        if best is not None:
            return best[1]
    return {"status": "budget-exhausted", "found": False,
            "pairs_checked": len(cand_x) * len(cand_y), "n_values": len(spiral),
            "note": "no witness at this budget; search cannot certify non-membership"}


def assert_rp_matches_unpruned(sys, x, y, d, delta, budget):
    res = rp_test(sys, x, y, d, delta, budget)
    assert repr(res) == repr(unpruned_rp_test(sys, x, y, d, delta, budget))
    return res


def pruning_cells(sys, x, y, delta, budget):
    """K of rp_test's pruning grid for the pair, from its candidate orbits."""
    rng = np.random.default_rng(budget.seed)
    cands = [_candidate_pool(sys, p, delta, budget, rng) for p in (x, y)]
    span = _spiral_index(budget, 1, [(1,)])[1]
    return cell_count(sys, delta, *[sys.orbit_span(c, -span, span) for c in cands])


def furstenberg_pair():
    fu = make_furstenberg(GOLDEN, [(1, 1), (2, 2)])
    return fu, furstenberg_point(fu, 0.1, 0.2), furstenberg_point(fu, 0.1, 0.6)


def fullshift_pair():
    fsh = make_fullshift(2, L=4)
    return (fsh,) + tuple(fsh.sample_block(np.random.default_rng(3), 2))


@pytest.mark.parametrize("case", [
    "rotation-far", "rotation-near", "rotation-far-d2", "torus2-far", "torus2-near",
    "skew-d1", "skew-d2", "furstenberg", "heisenberg", "fullshift"])
def test_rp_test_pruning_matches_unpruned_scan(case):
    rot, skew = make_rotation([GOLDEN]), make_skew_product(GOLDEN)
    rot2 = make_rotation([GOLDEN, np.sqrt(2.0) - 1.0])
    small = SearchBudget(max_candidates=300, n_range=400, seed=0)
    torus2 = SearchBudget(max_candidates=1000, n_range=200, seed=0)
    # (system, x, y, d, delta, budget, K, found)
    sys, x, y, d, delta, budget, K, found = {
        # an isometry keeps far candidates far: every candidate is dropped
        "rotation-far": (rot, [0.1], [0.4], 1, 0.05, small, 19, False),
        # 0.12 apart: the first row is empty, some candidates are dropped
        # and a later row finds the witness
        "rotation-near": (rot, [0.1], [0.22], 1, 0.05, small, 19, True),
        "rotation-far-d2": (rot, [0.1], [0.4], 2, 0.05,
                            SearchBudget(max_candidates=200, n_range=30, seed=1), 19, False),
        "torus2-far": (rot2, [0.1, 0.1], [0.1, 0.4], 1, 0.05, torus2, 19, False),
        "torus2-near": (rot2, [0.1, 0.1], [0.22, 0.1], 1, 0.05, torus2, 19, True),
        "skew-d1": (skew, [0.2, 0.1], [0.2, 0.7], 1, 0.05, small, 19, True),
        "skew-d2": (skew, [0.2, 0.1], [0.2, 0.7], 2, 0.05,
                    SearchBudget(max_candidates=400, n_range=60, seed=1), 19, False),
        # the K = 1 path: metrics other than the wrap-sup one drop nothing
        "furstenberg": furstenberg_pair() + (1, 0.05, SearchBudget(max_candidates=100,
                                                                   n_range=30, seed=0), 1, True),
        "heisenberg": (make_nilsystem(heisenberg3(), [GOLDEN, np.sqrt(2.0) / 2.0, 0.0]),
                       [0.1, 0.2, 0.3], [0.1, 0.2, 0.8], 1, 0.1,
                       SearchBudget(max_candidates=60, n_range=8, seed=0), 1, False),
        "fullshift": fullshift_pair() + (2, 0.05, SearchBudget(max_candidates=64,
                                                               n_range=40, seed=1), 1, True),
    }[case]
    x, y = np.asarray(x), np.asarray(y)
    assert pruning_cells(sys, x, y, delta, budget) == K
    res = assert_rp_matches_unpruned(sys, x, y, d, delta, budget)
    assert isinstance(res, RPWitness) == found


@pytest.mark.parametrize("case", ["skew", "rotation-near", "furstenberg"])
def test_rp_test_validates_only_the_witness_it_returns(monkeypatch, case):
    sys, x, y, budget = {
        # the winning row holds 30 hits at n_range 5000
        "skew": (make_skew_product(GOLDEN), [0.2, 0.1], [0.2, 0.7],
                 SearchBudget(max_candidates=1000, n_range=5000, seed=0)),
        "rotation-near": (make_rotation([GOLDEN]), [0.1], [0.22],
                          SearchBudget(max_candidates=300, n_range=400, seed=0)),
        "furstenberg": furstenberg_pair() + (SearchBudget(max_candidates=100, n_range=30,
                                                          seed=0),),
    }[case]
    x, y = np.asarray(x), np.asarray(y)
    want = unpruned_rp_test(sys, x, y, 1, 0.05, budget)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return validate_rp_witness(*args, **kwargs)

    monkeypatch.setattr(cubes, "validate_rp_witness", counted)
    got = rp_test(sys, x, y, 1, 0.05, budget)
    assert isinstance(got, RPWitness) and repr(got) == repr(want)
    assert len(calls) == 1
    # the one validation still raises on a witness that fails its bound
    monkeypatch.setattr(cubes, "_cube_gap", lambda *args: 1.0)
    with pytest.raises(RuntimeError, match="re-validation"):
        rp_test(sys, x, y, 1, 0.05, budget)
    assert len(calls) == 2


def test_rp_test_with_an_empty_pool_is_exhausted():
    # a NaN point is within delta of nothing, itself included
    rot = make_rotation([GOLDEN])
    budget = SearchBudget(max_candidates=100, n_range=50, seed=0)
    for x, y in (([0.1], [np.nan]), ([np.nan], [0.1])):
        res = assert_rp_matches_unpruned(rot, np.array(x), np.array(y), 1, 0.05, budget)
        assert res["status"] == "budget-exhausted" and res["pairs_checked"] == 0


def test_rp_test_pruning_drops_every_far_rotation_candidate():
    rot = make_rotation([GOLDEN])
    rng = np.random.default_rng(0)
    budget = SearchBudget(max_candidates=300, n_range=400, seed=0)
    orbits = [rot.orbit_span(_candidate_pool(rot, np.array([p]), 0.05, budget, rng), -400, 400)
              for p in (0.1, 0.4)]
    live_x, live_y = _live_candidates(rot, 0.05, *orbits)
    assert not live_x.any() and not live_y.any()


@pytest.mark.parametrize("K", [4, 9, 19])
@pytest.mark.parametrize("side", [-1, 0, 1])
def test_rp_test_cell_edge_delta(K, side):
    # delta one ulp either side of 1/(K+1), where the K rule steps
    delta = float(np.nextafter(1.0 / (K + 1), side * np.inf)) if side else 1.0 / (K + 1)
    rot = make_rotation([GOLDEN])
    assert cell_count(rot, delta, np.array([[0.5]])) == max(1, int(1.0 / delta) - 1)
    budget = SearchBudget(max_candidates=200, n_range=200, seed=0)
    for y in (0.1 + 2.5 * delta, 0.1 + 3.5 * delta):
        assert_rp_matches_unpruned(rot, np.array([0.1]), np.array([y]), 1, delta, budget)
    # points just under delta apart, across every cell edge and the wrap,
    # keep both candidates alive
    k = cell_count(rot, delta, np.array([[0.5]]))
    edges = np.r_[np.arange(k) / k, 1.0]
    for a in np.r_[edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)]:
        for b in (a + 0.999 * delta, a - 0.999 * delta):
            P = np.array([[[a % 1.0 if a != 1.0 else 1.0]]])
            Q = np.array([[[b % 1.0]]])
            if rot.metric(P[0, 0], Q[0, 0]) < delta:
                assert all(live.all() for live in _live_candidates(rot, delta, P, Q))


def test_rp_test_orbit_coordinate_one_joins_last_cell():
    rot = make_rotation([GOLDEN])
    K = cell_count(rot, 0.05, np.array([1.0]))
    assert K == 19 and cell_index(np.array([1.0]), K)[0] == K - 1
    one, zero, mid = (np.array([[[v]]]) for v in (1.0, 0.0, 0.5))
    # 1.0 and 0.0 are the same point of the circle: the last cell is next to cell 0
    assert all(live.all() for live in _live_candidates(rot, 0.05, one, zero))
    assert not any(live.any() for live in _live_candidates(rot, 0.05, one, mid))
