"""Birkhoff traces, ergodicity probe, oscillation statistics."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nillab.averages import (birkhoff, coordinate, coordinate_cos,
                             geometric_grid, oscillation_contrast,
                             unique_ergodicity_probe)
from nillab.furstenberg import furstenberg_point, make_default_furstenberg, make_furstenberg
from nillab.nilgroup import heisenberg3, load_group
from nillab.systems import (make_fullshift, make_nilsystem, make_rotation, make_skew_product,
                            make_sturmian, sample_points)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def test_constant_observable():
    rot = make_rotation([GOLDEN])
    tr = birkhoff(rot, lambda P: np.ones(len(P)), np.array([0.3]), n_max=4096)
    assert all(a == 1.0 for a in tr.averages)
    assert tr.oscillation == 0.0


def test_identity_map_average_is_value():
    ident = make_rotation([0.0])
    x = np.array([0.37])
    tr = birkhoff(ident, coordinate(0), x, n_max=1024)
    assert all(a == pytest.approx(0.37, abs=1e-12) for a in tr.averages)


def test_rotation_cos_average_geometric_sum_bound():
    # exact closed form of the cosine Birkhoff sum from x = 0:
    # sum_{n<N} cos(2 pi n a) = cos(pi (N-1) a) sin(pi N a) / sin(pi a),
    # so N |A_N| <= 1/2 + 1/(2 sin pi a)
    rot = make_rotation([GOLDEN])
    tr = birkhoff(rot, coordinate_cos(0), np.array([0.0]), n_max=2 ** 20)
    const = 0.5 + 1.0 / (2.0 * abs(math.sin(math.pi * GOLDEN)))
    for n, a in zip(tr.n_grid, tr.averages):
        assert abs(a) <= const / n + 1e-12
        closed = (math.cos(math.pi * (n - 1) * GOLDEN)
                  * math.sin(math.pi * n * GOLDEN)
                  / math.sin(math.pi * GOLDEN)) / n
        assert a == pytest.approx(closed, abs=1e-9)


def test_telescoping_identity():
    rot = make_rotation([GOLDEN])
    x = np.array([0.2])
    f = coordinate_cos(0)
    tr = birkhoff(rot, f, x, n_grid=[37, 38])
    a37, a38 = tr.averages
    fT37 = float(f(rot.orbit_block(x, 38)[37:38])[0])
    assert 38 * a38 - 37 * a37 == pytest.approx(fT37, abs=1e-9)


def test_geometric_grid():
    assert geometric_grid(10) == [1, 2, 4, 8, 10]
    assert geometric_grid(16) == [1, 2, 4, 8, 16]


def test_birkhoff_grid_validation():
    rot = make_rotation([GOLDEN])
    with pytest.raises(ValueError):
        birkhoff(rot, coordinate(0), np.array([0.0]), n_grid=[4, 4, 8])
    with pytest.raises(ValueError):
        birkhoff(rot, coordinate(0), np.array([0.0]))


def test_birkhoff_refuses_an_empty_grid():
    rot = make_rotation([GOLDEN])
    with pytest.raises(ValueError, match="strictly increasing and positive"):
        birkhoff(rot, coordinate(0), np.array([0.0]), n_grid=[])


def every_family():
    filiform4 = load_group(str(Path(__file__).parent / "golden" / "filiform4.json"))
    return [
        make_rotation([GOLDEN]), make_skew_product(GOLDEN),
        make_nilsystem(heisenberg3(), [GOLDEN, np.sqrt(2) / 2, 0.0]),
        make_nilsystem(filiform4, [GOLDEN, np.sqrt(2) / 2, 0.0, 0.0]),
        make_sturmian(GOLDEN, L=12), make_fullshift(2, L=2, reserve=4),
        make_furstenberg(GOLDEN, [(1, 1), (2, 2), (3, 3), (5, 4)]),
    ]


FAMILY_IDS = ["rotation", "skew", "heisenberg3", "filiform4", "sturmian", "fullshift",
              "furstenberg"]


@pytest.mark.parametrize("sys", every_family(), ids=FAMILY_IDS)
def test_birkhoff_reads_the_rows_of_orbit_block(sys):
    # N crosses many orbit chunks and three multiples of 65,536; the pass
    # sees exactly the rows of one orbit_block, bit for bit
    N = 200_000
    x = sample_points(sys, 1, seed=3)[0]
    seen = []

    def record(P):
        seen.append(np.array(P))
        return np.zeros(len(P))

    birkhoff(sys, record, x, n_max=N)
    rows = sys.orbit_block(x, N)
    assert np.array_equal(np.concatenate(seen).view(np.uint8), rows.view(np.uint8))


@pytest.mark.parametrize("sys", every_family(), ids=FAMILY_IDS)
def test_birkhoff_sum_is_one_running_sum_of_the_rows(sys):
    # N A_N is the sequential sum of f along the rows, so chunking changes no bit
    N = 200_000
    x = sample_points(sys, 1, seed=3)[0]
    f = lambda P: np.cos(np.asarray(P, dtype=float).sum(axis=-1))
    tr = birkhoff(sys, f, x, n_max=N)
    csum = np.cumsum(f(sys.orbit_block(x, N)))
    grid = np.array(tr.n_grid)
    assert np.array_equal(np.array(tr.averages), csum[grid - 1] / grid)


def test_probe_rotation_consistent():
    rot = make_rotation([GOLDEN])
    obs = [coordinate_cos(0), coordinate(0),
           lambda P: np.sin(2 * np.pi * P[..., 0])]
    obs[2].observable_id = "sin"
    starts = [np.array([z]) for z in (0.1, 0.45, 0.8)]
    rep = unique_ergodicity_probe(rot, obs, starts, 10 ** 5)
    assert rep["max_spread"] <= 0.01
    assert "consistent with unique ergodicity" in rep["verdict"]


def test_probe_identity_map_detects_start_dependence():
    ident = make_rotation([0.0])
    obs = [coordinate(0), coordinate_cos(0),
           lambda P: P[..., 0] ** 2]
    obs[2].observable_id = "sq"
    starts = [np.array([z]) for z in (0.1, 0.4, 0.9)]
    rep = unique_ergodicity_probe(ident, obs, starts, 1000)
    assert rep["verdict"] == "start-dependent averages detected"
    assert rep["spreads"]["coord[0]"] == pytest.approx(0.8, abs=1e-12)


def test_probe_preconditions():
    rot = make_rotation([GOLDEN])
    with pytest.raises(ValueError):
        unique_ergodicity_probe(rot, [coordinate(0)], [np.array([0.1])] * 3, 100)


def test_oscillation_decays_across_decades():
    # tail oscillation shrinks when the horizon grows 64-fold (10% slack);
    # successive-grid monotonicity fails at small N for the nilsystem
    def profile(sys, f, x):
        tr = birkhoff(sys, f, x, n_max=2 ** 19)
        grid, av = np.array(tr.n_grid), np.array(tr.averages)
        out = {}
        for N in grid[4:]:
            w = (grid >= N // 10) & (grid <= N)
            out[int(N)] = float(av[w].max() - av[w].min())
        return out

    rot = make_rotation([GOLDEN])
    nil = make_nilsystem(heisenberg3(), [GOLDEN, np.sqrt(2) / 2, 0.0])
    for sys, f, x in ((rot, coordinate_cos(0), np.array([0.1])),
                      (nil, coordinate_cos(2), np.array([0.1, 0.2, 0.3]))):
        prof = profile(sys, f, x)
        for N, osc in prof.items():
            if N * 64 in prof:
                assert prof[N * 64] <= 1.1 * osc + 1e-12


def test_furstenberg_oscillation_contrast():
    nil = make_nilsystem(heisenberg3(), [GOLDEN, np.sqrt(2) / 2, 0.0])
    base = birkhoff(nil, coordinate_cos(2), np.array([0.1, 0.2, 0.3]),
                    n_max=2 ** 17)
    fu = make_default_furstenberg(K=30, lam=1.0)
    tr = birkhoff(fu, coordinate_cos(1), furstenberg_point(fu, 0.15, 0.35),
                  n_max=2 ** 17)
    assert oscillation_contrast(tr, base) >= 5.0


def test_birkhoff_holds_one_orbit_chunk_at_a_time():
    # 2^18 Furstenberg rows are 64 MiB, one orbit chunk of them 1 MiB: the
    # pass holds a chunk and the tables of the next one
    fu = make_default_furstenberg(K=30, lam=1.0)
    x = furstenberg_point(fu, 0.15, 0.35)
    tracemalloc.start()
    try:
        birkhoff(fu, coordinate_cos(1), x, n_max=2 ** 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2 ** 20
