"""One-hop group metric and the lattice-minimized quotient distance."""

import itertools

import numpy as np
import pytest

from nillab.nilgroup import NilGroup, abelian, element, heisenberg3, mul, validate_group
from nillab.nilmetric import (BudgetError, MetricParams, dist_group,
                              dist_group_block, dist_quotient,
                              dist_quotient_block, orbit_distance_growth,
                              quotient_point)
from nillab.polynomials import SparsePoly
from nillab.systems import make_nilsystem
from nillab.targets import Ball

H = heisenberg3()
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def test_dist_group_basics():
    x = element(H, [0.3, 0.4, 0.5])
    assert dist_group(x, x) == 0.0
    a = element(H, [0, 0, 0])
    b = element(H, [0.5, 0, 0])
    assert dist_group(a, b) == 0.5
    assert dist_group(a, b) == dist_group(b, a)


def test_right_invariance_bulk():
    rng = np.random.default_rng(21)
    X = rng.uniform(-10, 10, (10_000, 3))
    Y = rng.uniform(-10, 10, (10_000, 3))
    G = rng.uniform(-10, 10, (10_000, 3))
    base = dist_group_block(H, X, Y)
    moved = dist_group_block(H, H.mul_block(X, G), H.mul_block(Y, G))
    assert np.max(np.abs(base - moved)) <= 1e-12


def test_quotient_circle_wraparound():
    C = abelian(1)
    p = quotient_point(C, [0.1])
    q = quotient_point(C, [0.9])
    assert dist_quotient(p, q, MetricParams(gamma_bound=1.0)) == pytest.approx(0.2)
    assert dist_quotient(p, p) == 0.0


def test_quotient_symmetry_and_dominance():
    rng = np.random.default_rng(22)
    for _ in range(50):
        p = quotient_point(H, rng.uniform(0, 1, 3))
        q = quotient_point(H, rng.uniform(0, 1, 3))
        dpq = dist_quotient(p, q)
        assert dpq == pytest.approx(dist_quotient(q, p), abs=1e-15)
        assert dpq <= dist_group(p.rep, q.rep) + 1e-15


def test_quotient_point_requires_reduction():
    from nillab.nilmetric import QuotientPoint
    with pytest.raises(ValueError):
        QuotientPoint(element(H, [1.2, 0.0, 0.0]))


def test_local_equivalence_with_coordinate_distance():
    # close pairs: quotient distance comparable with wrap sup-distance;
    # factors measured on this fixture and pinned with margin
    rng = np.random.default_rng(7)
    P = rng.uniform(0, 1, (2000, 3))
    Q = (P + rng.uniform(-0.05, 0.05, (2000, 3))) % 1.0
    d = dist_quotient_block(H, P, Q)
    diff = np.abs(P - Q)
    eu = np.max(np.minimum(diff, 1 - diff), axis=1)
    mask = (d <= 0.1) & (d > 0)
    ratio = d[mask] / eu[mask]
    # pinned per-group factors; the content is two-sided boundedness
    assert ratio.min() >= 0.3 and ratio.max() <= 8.0


def test_identity_of_indiscernibles_tolerance():
    p = quotient_point(H, [0.25, 0.5, 0.75])
    q = quotient_point(H, [0.25, 0.5, 0.75 + 1e-14])
    assert dist_quotient(p, q) <= 1e-12


def test_lattice_budget_error():
    p = quotient_point(H, [0.1, 0.1, 0.1])
    q = quotient_point(H, [0.2, 0.2, 0.2])
    with pytest.raises(BudgetError):
        dist_quotient(p, q, MetricParams(gamma_bound=50.0, max_cells=100))


def test_orbit_growth_rotation_flat():
    C = abelian(1)
    sys = make_nilsystem(C, [GOLDEN])
    x = quotient_point(C, [0.1])
    y = quotient_point(C, [0.13])
    res = orbit_distance_growth(sys, x, y, 200)
    assert np.max(np.abs(res["ratio"] - 1.0)) <= 1e-9


def test_orbit_growth_heisenberg_slope():
    sys = make_nilsystem(H, [GOLDEN, np.sqrt(2) / 2, 0.0])
    x = quotient_point(H, [0.3, 0.4, 0.2])
    y = quotient_point(H, [0.3 + 1e-4, 0.4, 0.2])
    res = orbit_distance_growth(sys, x, y, 400)
    assert res["base_distance"] == pytest.approx(1e-4, rel=1e-6)
    assert 0.8 <= res["loglog_slope"] <= 2.2


def test_metric_params_refuse_a_radius_below_one_or_nan():
    # an infinite radius would size no lattice box: int(ceil(inf)) overflows
    for bound in (0.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="gamma_bound"):
            MetricParams(gamma_bound=bound)


def test_orbit_growth_rejects_identical_points():
    C = abelian(1)
    sys = make_nilsystem(C, [GOLDEN])
    x = quotient_point(C, [0.1])
    with pytest.raises(ValueError):
        orbit_distance_growth(sys, x, x, 10)


# -- the pruned search against the full lattice box ------------------------------

# step-3 filiform group, the law of the benchmark's filiform4.json
FILIFORM4 = NilGroup(
    dim=4, step=3,
    mul_polys=[SparsePoly.zero(),
               SparsePoly([(1.0, (1, 0), (0, 1))]),
               SparsePoly([(1.0, (1, 0, 0), (0, 0, 1)), (0.5, (2, 0, 0), (0, 1, 0)),
                           (-0.5, (1, 0, 0), (0, 1, 0))])],
    inv_polys=[SparsePoly.zero(),
               SparsePoly([(1.0, (1, 1), ())]),
               SparsePoly([(1.0, (1, 0, 1), ()), (-0.5, (2, 1, 0), ()),
                           (-0.5, (1, 1, 0), ())])],
    name="filiform4")


def full_box_distance(grp, P, Q, params=MetricParams()):
    """Reference: dist_group against every translate of the (2C+1)^m box."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    bound = params.gamma_bound
    if bound is None:
        bound = 2.0 + max(np.max(np.abs(P)) if P.size else 0.0,
                          np.max(np.abs(Q)) if Q.size else 0.0)
    radius = int(np.ceil(bound))
    rng = range(-radius, radius + 1)
    gammas = np.array(list(itertools.product(*[rng] * grp.dim)), dtype=float)
    qg = grp.mul_block(Q[..., None, :], gammas)
    pg = grp.mul_block(P[..., None, :], gammas)
    d1 = np.min(dist_group_block(grp, P[..., None, :], qg), axis=-1)
    d2 = np.min(dist_group_block(grp, Q[..., None, :], pg), axis=-1)
    return np.minimum(d1, d2)


def assert_same_bits(grp, P, Q, params=MetricParams()):
    want = np.asarray(full_box_distance(grp, P, Q, params))
    got = np.asarray(dist_quotient_block(grp, P, Q, params))
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("grp,params,n", [
    (H, MetricParams(), 400),
    (abelian(1), MetricParams(), 400),
    (abelian(2), MetricParams(), 400),
    (FILIFORM4, MetricParams(gamma_bound=1.0), 400),
    (FILIFORM4, MetricParams(), 40),
], ids=["heisenberg3", "abelian1", "abelian2", "filiform4-radius1", "filiform4"])
def test_pruned_search_is_the_full_box_minimum(grp, params, n):
    assert validate_group(grp)["ok"]
    rng = np.random.default_rng(31)
    m = grp.dim
    P = rng.uniform(0, 1, (n, m))
    far = rng.uniform(0, 1, (n, m))
    close = (P + rng.uniform(-0.05, 0.05, (n, m))) % 1.0
    tiny = (P + rng.uniform(-1e-9, 1e-9, (n, m))) % 1.0
    for Q in (far, close, tiny, P):
        assert_same_bits(grp, P, Q, params)
    assert_same_bits(grp, close, P, params)
    # broadcast shapes, a single row and an empty block
    probe = rng.uniform(0, 1, (48 if n >= 400 else 12, m))
    assert_same_bits(grp, probe[:, None, :], probe[None, :, :], params)
    assert_same_bits(grp, P[0], far[:5], params)
    assert_same_bits(grp, P[:0], far[:0], params)
    # a NaN coordinate gives NaN, as in the full box, not a pruned-away inf
    bad = P[:3].copy()
    bad[1, -1] = np.nan
    with np.errstate(invalid="ignore"):
        got = dist_quotient_block(grp, bad, far[:3], MetricParams(gamma_bound=1.0))
    want = full_box_distance(grp, bad, far[:3], MetricParams(gamma_bound=1.0))
    assert np.array_equal(np.isnan(got), [False, True, False])
    assert np.array_equal(got, want, equal_nan=True)


def test_budget_counts_the_box_not_the_candidates():
    # the default box for reduced points has radius 3: 7^3 = 343 cells
    P = np.full((2, 3), 0.25)
    Q = np.full((2, 3), 0.5)
    assert np.array_equal(dist_quotient_block(H, P, Q, MetricParams(max_cells=343)),
                          dist_quotient_block(H, P, Q))
    with pytest.raises(BudgetError, match=r"^lattice enumeration needs 343 cells "
                                          r"\(> budget 342\); lower gamma_bound$"):
        dist_quotient_block(H, P, Q, MetricParams(max_cells=342))
    # a box far too large to enumerate is refused before any search
    with pytest.raises(BudgetError, match="needs %d cells" % (2 * 10 ** 6 + 1) ** 3):
        dist_quotient_block(H, P, Q, MetricParams(gamma_bound=1e6))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def test_block_equals_row_by_row_calls():
    # the default radius is read over the whole block: 3 for reduced rows
    rng = np.random.default_rng(8)
    P, Q = rng.uniform(0, 1, (60, 3)), rng.uniform(0, 1, (60, 3))
    Q[::3] = (P[::3] + rng.uniform(-0.02, 0.02, (20, 3))) % 1.0
    P[7] = Q[7] = 0.0           # alone this pair gets radius 2, distance 0 either way
    rows = [dist_quotient_block(H, P[i:i + 1], Q[i:i + 1])[0] for i in range(len(P))]
    assert rows[7] == 0.0
    assert np.array_equal(_bits(dist_quotient_block(H, P, Q)), _bits(rows))
    # a ball with an unreduced centre: the centre is in every call, radius 4 in each
    nil = make_nilsystem(H, [GOLDEN, np.sqrt(2.0) / 2.0, 0.0])
    ball = Ball((1.25, -0.5, 0.75), 0.3)
    orbit = nil.orbit_span(P[:20], 0, 5)                 # (6, 20, 3)
    depth = ball.depth(nil, orbit)
    assert depth.shape == (6, 20) and 0 < np.sum(depth > 0) < depth.size
    one = [[ball.depth(nil, orbit[t, z:z + 1])[0] for z in range(20)] for t in range(6)]
    assert np.array_equal(_bits(depth), _bits(one))
    # one unreduced row widens the box of every row in its block
    cap = MetricParams(max_cells=343)
    dist_quotient_block(H, P, Q, cap)
    with pytest.raises(BudgetError, match="needs 729 cells"):
        dist_quotient_block(H, np.vstack([P, [[1.5, 0.0, 0.0]]]), np.vstack([Q, Q[:1]]), cap)


@pytest.mark.parametrize("group, params", [
    (H, MetricParams()), (FILIFORM4, MetricParams()),
    (FILIFORM4, MetricParams(gamma_bound=1)), (abelian(2), MetricParams()),
], ids=["heisenberg3", "filiform4", "filiform4-gamma1", "abelian2"])
def test_nilsystem_diameter_is_the_full_probe_maximum(group, params):
    # the probe measures unordered pairs; the full matrix is its reference
    sys = make_nilsystem(group, np.full(group.dim, GOLDEN), params)
    probe = sys.sample_block(np.random.default_rng(0), 48)
    assert sys.diameter == float(np.max(sys.metric_block(probe[:, None], probe[None, :])))


def test_orbit_growth_base_distance_is_the_scalar_distance():
    rng = np.random.default_rng(41)
    for group in (H, FILIFORM4):
        sys = make_nilsystem(group, rng.uniform(0, 1, group.dim))
        for _ in range(10):
            x = quotient_point(group, rng.uniform(0, 1, group.dim))
            y = quotient_point(group, rng.uniform(0, 1, group.dim))
            d0 = orbit_distance_growth(sys, x, y, 5)["base_distance"]
            assert type(d0) is float and d0 == dist_quotient(x, y)
    with pytest.raises(ValueError, match="different groups"):
        orbit_distance_growth(sys, quotient_point(H, [0.1, 0.2, 0.3]),
                              quotient_point(FILIFORM4, [0.1, 0.2, 0.3, 0.4]), 5)
