"""IP-sets, exact independence verdicts, generator scans, Sturmian language."""

import itertools

import numpy as np
import pytest

from nillab.budgets import SearchBudget
from nillab.independence import (Ball, Cylinder, SetTuple, check_independence,
                                 find_ip_independence, fs_set,
                                 independence_ladder, sturmian_language)
from nillab.systems import (make_fullshift, make_rotation, make_skew_product,
                            make_sturmian, sturmian_coding)

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
BINARY = SetTuple((Cylinder((0,), 0), Cylinder((1,), 0)))


def test_fs_set_examples():
    assert fs_set([1, 2]).elements == (1, 2, 3)
    assert fs_set([1, 2, 4]).elements == tuple(range(1, 8))
    assert fs_set([2, 2]).elements == (2, 4)
    with pytest.raises(ValueError):
        fs_set([])
    with pytest.raises(ValueError):
        fs_set([0, 3])


def test_fs_set_size_law():
    for m in range(1, 9):
        assert len(fs_set([2 ** i for i in range(m)])) == 2 ** m - 1


def test_fullshift_full_F():
    fsh = make_fullshift(2, L=8)
    rep = check_independence(fsh, BINARY, [0, 1, 2])
    assert rep.verified and rep.exact and rep.method == "exact-language"
    assert rep.patterns_checked == 8 and len(rep.witnesses) == 8
    # witnesses really visit the prescribed cylinders
    center = None
    for pat, point in rep.witnesses.items():
        orbit = fsh.orbit_span(point, 0, 2)
        if center is None:
            center = (len(point) - 1) // 2
        for j, s in zip((0, 1, 2), pat):
            assert orbit[j][center] == s - 1


def test_singleton_F_reduces_to_nonemptiness():
    stu = make_sturmian(GOLDEN)
    rep = check_independence(stu, BINARY, [5])
    assert rep.verified and rep.exact


def test_sturmian_pair_positions():
    stu = make_sturmian(GOLDEN)
    rep1 = check_independence(stu, BINARY, [0, 1])
    assert rep1.exact and not rep1.verified and rep1.realized_patterns == 3
    rep2 = check_independence(stu, BINARY, [0, 2])
    assert rep2.exact and rep2.verified and rep2.realized_patterns == 4


def test_independence_subset_monotone():
    stu = make_sturmian(GOLDEN)
    full = check_independence(stu, BINARY, [0, 2])
    assert full.verified
    for sub in ([0], [2]):
        assert check_independence(stu, BINARY, sub).verified


def test_exactness_against_brute_force_grid():
    coding = sturmian_coding(GOLDEN)
    zs = (np.arange(100_000) + 0.5) / 100_000.0
    stu = make_sturmian(GOLDEN)
    for F in ([0, 3], [0, 2, 5], [1, 4, 9, 12]):
        words = coding.symbols_block(zs, np.asarray(F))
        brute = {tuple(int(v) + 1 for v in row) for row in words}
        rep = check_independence(stu, BINARY, F)
        assert rep.verified == (len(brute) == 2 ** len(F))
        assert rep.realized_patterns == len(brute)
        realized = set(rep.witnesses)
        assert realized <= brute


def test_rotation_ball_targets_exact():
    rot = make_rotation([GOLDEN])
    sets = SetTuple((Ball((0.0,), 0.1), Ball((0.5,), 0.1)))
    rep = check_independence(rot, sets, [0, 1])
    assert rep.method == "exact-language"
    # non-partition targets: pattern-by-pattern arc emptiness
    assert rep.patterns_checked == 4


def test_sampled_route_on_skew():
    skew = make_skew_product(GOLDEN)
    sets = SetTuple((Ball((0.25, 0.25), 0.3), Ball((0.75, 0.75), 0.3)))
    rep = check_independence(skew, sets, [0, 1],
                             SearchBudget(max_candidates=400, seed=0))
    assert rep.method == "sampled"
    if rep.verified:
        assert len(rep.witnesses) == 4
    else:
        assert "budget" in rep.note


def test_find_ip_sturmian_ladder_values():
    stu = make_sturmian(GOLDEN)
    ip, rep = find_ip_independence(stu, BINARY, 1, 50)
    assert rep["status"] == "witness"
    assert ip.generators == (2,)
    ip4, rep4 = find_ip_independence(stu, BINARY, 4, 50)
    assert ip4 is None and rep4["status"] == "exhausted"
    assert rep4["scanned"] == 292_825
    assert "certificate" in rep4["note"]


def test_find_ip_fullshift_dyadic():
    fsh = make_fullshift(2, L=8)
    for m in range(1, 9):
        F = (0,) + fs_set([2 ** i for i in range(m)]).elements
        rep = check_independence(fsh, BINARY, F)
        assert rep.verified and rep.exact


def test_find_ip_larger_bound_rediscovers_witness():
    stu = make_sturmian(GOLDEN)
    ip_small, _ = find_ip_independence(stu, BINARY, 1, 10)
    ip_large, _ = find_ip_independence(stu, BINARY, 1, 50)
    assert ip_small.generators == ip_large.generators
    F = (0,) + ip_small.elements
    assert check_independence(stu, BINARY, F).verified


def test_independence_ladder_rows():
    stu = make_sturmian(GOLDEN)
    rows = independence_ladder(stu, BINARY, [1, 2], [10])
    assert rows[0]["status"] == "witness" and rows[0]["witness_generators"] == "2"
    assert rows[1]["status"] == "exhausted"


def test_sturmian_language_counts():
    assert sturmian_language(GOLDEN, 1) == {(0,), (1,)}
    assert len(sturmian_language(GOLDEN, 2)) == 3
    assert len(sturmian_language(GOLDEN, 10)) == 11
    for n in range(1, 31):
        assert len(sturmian_language(GOLDEN, n)) == n + 1


def test_sturmian_language_words_occur_in_coding():
    lang = sturmian_language(GOLDEN, 6)
    coding = sturmian_coding(GOLDEN)
    zs = (np.arange(50_000) + 0.5) / 50_000.0
    seen = {tuple(int(s) for s in row)
            for row in coding.symbols_block(zs, np.arange(6))}
    assert lang == seen


def test_sturmian_language_preconditions():
    with pytest.raises(ValueError):
        sturmian_language(0.25, 5)
    with pytest.raises(ValueError):
        sturmian_language(GOLDEN, 65)


def test_fullshift_ball_finer_than_window_uses_the_whole_run():
    # radius 2^-12 pins |j| <= 12, past the window L = 8: the runs of the two
    # balls at times 0 and 17 overlap on offsets 5..12 and disagree on 9..12
    fsh = make_fullshift(2, L=8)
    x1 = fsh.construct_point([(-8, np.zeros(17, dtype=np.int8))])
    x2 = fsh.construct_point([(-8, np.ones(17, dtype=np.int8))])
    rep = check_independence(fsh, SetTuple((Ball(x1, 2 ** -12), Ball(x2, 2 ** -12))),
                             [0, 17])
    assert rep.exact and not rep.verified
    assert rep.note == "conflicting constraints at times 0 and 17"


def _dyadic_fixture():
    # x1 is 0 but for a 1 at offset 4, x2 is 1 on the window [-8, 8]; at
    # radius 2^-4 the open balls pin |j| <= 4
    fsh = make_fullshift(2, L=8)
    x1 = fsh.construct_point([(4, np.ones(1, dtype=np.int8))])
    x2 = fsh.construct_point([(-8, np.ones(17, dtype=np.int8))])
    return fsh, x1, x2


def test_fullshift_ball_witnesses_at_dyadic_radius_lie_inside():
    fsh, x1, x2 = _dyadic_fixture()
    balls = (Ball(x1, 2.0 ** -4), Ball(x2, 2.0 ** -4))
    rep = check_independence(fsh, SetTuple(balls), [0, 20])
    assert rep.verified and rep.exact and len(rep.witnesses) == 4
    for pat, point in rep.witnesses.items():
        orbit = fsh.orbit_span(point, 0, 20)
        for j, s in zip((0, 20), pat):
            assert balls[s - 1].depth(fsh, orbit[j][None])[0] > 0


def test_constraint_witnesses_past_the_stored_range_are_counted():
    # time 200 puts each run past the stored range +-(L + reserve) = +-136
    fsh = make_fullshift(2, L=8)
    rep = check_independence(fsh, BINARY, [0, 200])
    assert rep.verified and rep.exact and rep.realized_patterns == 4
    assert rep.witnesses == {}
    assert rep.note == ("pairwise constraint compatibility certifies all patterns; "
                        "4 of 4 witnesses not built: their runs reach past the "
                        "stored range [-136, 136]")
