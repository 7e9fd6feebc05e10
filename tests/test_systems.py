"""The system zoo: constructor semantics, inverses, metrics, samplers."""

import numpy as np
import pytest

from nillab.budgets import SearchBudget
from nillab.furstenberg import make_furstenberg
from nillab.nilgroup import abelian, heisenberg3
from nillab.systems import (SymbolicWindow, approx_rational, make_fullshift,
                            make_inverse_limit, make_nilsystem, make_rotation,
                            make_skew_product, make_sturmian, sample_points,
                            sturmian_code)

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
    w = sys.to_window(z)
    assert len(w.word) == 21 and w.provenance["alpha"] == pytest.approx(GOLDEN)
    # metric is 2^-(first differing offset)
    z2 = np.array([0.2 + 1e-9])
    assert sys.metric(z, z2) <= 1.0
    assert sys.metric(z, z) == 0.0


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


def test_inverse_limit_tower_rotation_skew():
    rot = make_rotation([GOLDEN])
    skew = make_skew_product(GOLDEN)
    tower = make_inverse_limit([rot, skew], [lambda P: P[..., :1]])
    pts = sample_points(tower, 32, seed=5)
    assert tower.thread_compatible(pts, tol=1e-12)
    orbit = tower.orbit_block(pts[0], 25)
    assert tower.thread_compatible(orbit, tol=1e-9)


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


def test_fullshift_orbit_is_iterated_steps():
    sys = make_fullshift(2, L=6, reserve=8)
    X = sample_points(sys, 4, seed=2)
    X[:, -3:] = 1                       # symbols at the edge of the stored range
    for lo, hi in ((-5, 9), (-30, -2), (0, 25), (4, 12)):
        ref = []
        p = X
        for _ in range(abs(lo)):
            p = sys.inverse_step_block(p) if lo < 0 else sys.step_block(p)
        ref.append(p)
        for _ in range(hi - lo):
            p = sys.step_block(p)
            ref.append(p)
        assert np.array_equal(sys.orbit_span(X, lo, hi), np.stack(ref))
