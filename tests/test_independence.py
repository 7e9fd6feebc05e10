"""IP-sets, exact independence verdicts, generator scans, Sturmian language."""

import itertools
import tracemalloc

import numpy as np
import pytest

from nillab import independence, targets
from nillab.budgets import SearchBudget
from nillab.independence import (Ball, Cylinder, SetTuple, _route_context,
                                 check_independence, find_ip_independence, fs_set,
                                 independence_ladder, sturmian_language)
from nillab.nilgroup import heisenberg3
from nillab.nilmetric import BudgetError
from nillab.systems import (make_fullshift, make_nilsystem, make_rotation,
                            make_skew_product, make_sturmian, sturmian_coding)
from nillab.targets import CylinderUnion

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


def witnesses_visiting(sys, sets, F, route):
    """Number of witnesses of an exact report, each checked to visit its
    pattern's targets at the times of F on the system's own orbit."""
    assert _route_context(sys, sets)["route"] == route
    rep = check_independence(sys, sets, F)
    assert rep.exact
    pats = list(rep.witnesses)
    if not pats:
        return 0
    member = targets.visits(sys, sets.targets, np.stack([rep.witnesses[p] for p in pats]),
                            rep.F, member=True)                 # (k, witnesses, |F|)
    for z, pat in enumerate(pats):
        assert all(member[s - 1, z, j] for j, s in enumerate(pat)), (rep.F, pat)
    return len(pats)


def test_exact_route_witnesses_visit_their_targets():
    ip_times = [(0,) + fs_set([p1, p2]).elements
                for p1 in range(1, 30) for p2 in range(p1, 30)]
    stu, rot = make_sturmian(GOLDEN), make_rotation([GOLDEN])
    checked = sum(witnesses_visiting(stu, BINARY, F, "partition") for F in ip_times)
    rng = np.random.default_rng(0)
    for F in ip_times:
        centres, radii = rng.uniform(0.0, 1.0, 2), rng.uniform(0.05, 0.3, 2)
        sets = SetTuple(tuple(Ball((c,), r) for c, r in zip(centres, radii)))
        checked += witnesses_visiting(rot, sets, F, "arcs")
    # the ind_rotation.json golden fixture
    checked += witnesses_visiting(rot, SetTuple((Ball((0.35,), 0.3), Ball((0.6,), 0.3))),
                                  (0, 1, 3, 8), "arcs")
    checked += witnesses_visiting(make_fullshift(2, L=8), BINARY, (0, 1, 2, 3), "constraints")
    assert checked > 4000, checked


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


def one_point_visits(sys, targets, Z, F, member):
    """Reference membership: one depth call per sampled point per target."""
    assert member
    pts = sys.orbit_span(Z, 0, max(F))[np.asarray(F)]
    inside = np.zeros((len(targets), len(Z), len(F)), dtype=bool)
    for zi in range(len(Z)):
        for i, t in enumerate(targets):
            inside[i, zi] = t.depth(sys, pts[:, zi]) > 0
    return inside


def _report_fields(rep):
    return (rep.F, rep.verified, rep.method, rep.exact, rep.patterns_checked,
            rep.realized_patterns, rep.failures, rep.note,
            {pat: z.tolist() for pat, z in rep.witnesses.items()})


@pytest.mark.parametrize("case", ["heisenberg3", "fullshift-cylinders", "skew"])
def test_sampled_route_matches_one_call_per_point(monkeypatch, case):
    sys, sets, F, budget, realized = {
        "heisenberg3": (make_nilsystem(heisenberg3(), [GOLDEN, np.sqrt(2.0) / 2.0, 0.0]),
                        SetTuple((Ball((0.25,) * 3, 0.3), Ball((0.75,) * 3, 0.3))),
                        (0, 1, 3), SearchBudget(max_candidates=100, seed=0), 3),
        "fullshift-cylinders": (
            make_fullshift(2, L=8),
            # x_0 = 0 as a union of two words, and x_0 = x_1 = 1: no witness
            # of the second at j and the first at j + 1
            SetTuple((CylinderUnion((((0, 1), 0), ((0, 0), 0))),
                      CylinderUnion((((1, 1), 0),)))),
            (0, 1, 2), SearchBudget(max_candidates=200, seed=0), 4),
        "skew": (make_skew_product(GOLDEN),
                 SetTuple((Ball((0.25, 0.25), 0.3), Ball((0.75, 0.75), 0.3))),
                 (0, 1), SearchBudget(max_candidates=400, seed=0), 4),
    }[case]
    assert _route_context(sys, sets)["route"] == "sampled"
    Z = sys.sample_block(np.random.default_rng(budget.seed), budget.max_candidates)
    inside = targets.visits(sys, sets.targets, Z, F, member=True)
    assert np.array_equal(inside, one_point_visits(sys, sets.targets, Z, F, True))
    got = check_independence(sys, sets, F, budget)
    monkeypatch.setattr(independence, "visits", one_point_visits)
    want = check_independence(sys, sets, F, budget)
    assert _report_fields(got) == _report_fields(want)
    assert got.patterns_checked == 2 ** len(F) and got.realized_patterns == realized


def test_sampled_route_memory_is_chunked():
    # 1,000 full-shift orbits over times 0..200 hold 55 MB of symbols at
    # once; the depth table reads them a chunk of points at a time
    fsh = make_fullshift(2, L=8)
    sets = SetTuple((CylinderUnion((((0,), 0),)), CylinderUnion((((1,), 0),))))
    tracemalloc.start()
    try:
        rep = check_independence(fsh, sets, (0, 50, 100, 150, 200),
                                 SearchBudget(max_candidates=1000, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.method == "sampled" and rep.patterns_checked == 32
    assert peak <= 10 * 2 ** 20


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


# -- parity of the scan and the constraint route with their per-tuple forms --------


def _scan_per_tuple(sys, sets, m, gen_bound):
    """The scan with `fs_set` and `check_independence` on every tuple, and no
    counting refutation ahead of them: the oracle of `find_ip_independence`."""
    scanned = 0
    patterns_checked = 0
    for gens in itertools.combinations_with_replacement(range(1, gen_bound + 1), m):
        scanned += 1
        ip = fs_set(gens)
        rep = check_independence(sys, sets, (0,) + ip.elements)
        patterns_checked += rep.patterns_checked
        if rep.verified:
            return ip, {"status": "witness", "generators": list(gens),
                        "scanned": scanned, "patterns_checked": patterns_checked,
                        "method": rep.method, "exact": rep.exact}
    return None, {"status": "exhausted", "scanned": scanned,
                  "patterns_checked": patterns_checked,
                  "note": "finite scan evidence only; exhaustion is not a "
                          "certificate of nullness"}


def _assert_scans_agree(sys, sets, cases):
    for m, B in cases:
        assert find_ip_independence(sys, sets, m, B) == _scan_per_tuple(sys, sets, m, B), (m, B)


def test_scan_matches_per_tuple_checks_on_sturmian_cylinders():
    stu = make_sturmian(GOLDEN, L=16)
    _assert_scans_agree(stu, BINARY, [(1, 12), (2, 12), (3, 8), (4, 6)])
    # m >= 2 is refuted by counting: 2^|F| patterns, at most 2|F| cells
    _, rep = find_ip_independence(stu, BINARY, 2, 15)
    assert rep["patterns_checked"] == 1800


def test_scan_matches_per_tuple_checks_on_a_three_arc_partition():
    rot = make_rotation([GOLDEN])
    sets = SetTuple((Ball((0.125,), 0.125), Ball((0.5,), 0.25), Ball((0.875,), 0.125)))
    ctx = _route_context(rot, sets)
    assert ctx["route"] == "partition" and ctx["cells"] == 3
    _assert_scans_agree(rot, sets, [(1, 12), (2, 8), (3, 5)])


def test_scan_matches_per_tuple_checks_off_the_partition_route():
    rot = make_rotation([GOLDEN])
    overlap = SetTuple((Ball((0.2,), 0.3), Ball((0.45,), 0.3)))
    assert _route_context(rot, overlap)["route"] == "arcs"
    _assert_scans_agree(rot, overlap, [(1, 10), (2, 6)])
    fsh, x1, x2 = _dyadic_fixture()
    balls = SetTuple((Ball(x1, 2.0 ** -4), Ball(x2, 2.0 ** -4)))
    assert _route_context(fsh, balls)["route"] == "constraints"
    _assert_scans_agree(fsh, balls, [(1, 12), (2, 6)])
    _assert_scans_agree(fsh, BINARY, [(1, 3), (3, 3)])


@pytest.mark.parametrize("sys,empty", [
    (make_sturmian(GOLDEN), Cylinder((5,), 0)),
    (make_rotation([GOLDEN]), Cylinder((1,), 0)),
    (make_fullshift(2), Cylinder((2,), 0)),
], ids=["sturmian", "rotation", "fullshift"])
def test_scan_matches_per_tuple_checks_on_an_empty_target(sys, empty):
    sets = SetTuple((Cylinder((0,), 0), empty))
    assert _route_context(sys, sets)["cells"] == 0
    _assert_scans_agree(sys, sets, [(1, 12), (2, 8), (3, 5)])


def test_empty_target_scan_is_refuted_by_counting(monkeypatch):
    # zero cells: every tuple is refuted before its time set is built
    stu = make_sturmian(GOLDEN)
    sets = SetTuple((Cylinder((0,), 0), Cylinder((5,), 0)))
    built, fs = [], independence.fs_set

    def counted(gens):
        built.append(gens)
        return fs(gens)

    monkeypatch.setattr(independence, "fs_set", counted)
    ip, rep = find_ip_independence(stu, sets, 3, 50)
    assert ip is None and rep["scanned"] == 22100 and rep["patterns_checked"] == 5097600
    assert built == []


def test_pattern_enumeration_past_max_cells_is_a_budget_error():
    skew = make_skew_product(GOLDEN)
    rot = make_rotation([GOLDEN])
    tight = SearchBudget(max_cells=10)
    for sys, sets, suffix in (
            (skew, SetTuple((Ball((0.2, 0.1), 0.05), Ball((0.2, 0.7), 0.05))), ""),
            (rot, SetTuple((Ball((0.2,), 0.3), Ball((0.45,), 0.3))),
             " for the non-partition arc route")):
        with pytest.raises(BudgetError, match="^pattern count 16 overflows the budget%s$"
                           % suffix):
            check_independence(sys, sets, (0, 1, 2, 3), tight)
        assert check_independence(sys, sets, (0, 1, 2), tight).patterns_checked == 8


def _constraints_report_pairwise(sys, cons, F, k):
    """The constraint route testing every time pair, then every target pair,
    for the first conflict: the oracle of the route's per-difference search."""
    F = tuple(sorted(set(F)))

    def compatible_at(diff, i1, i2):
        off1, sym1 = cons[i1]
        off2, sym2 = cons[i2]
        lo = max(off1, diff + off2)
        hi = min(off1 + len(sym1), diff + off2 + len(sym2))
        a = sym1[lo - off1: hi - off1]
        b = sym2[lo - diff - off2: hi - diff - off2]
        return lo >= hi or bool(np.all(a == b))

    bad = next(((j1, i1 + 1, j2, i2 + 1) for j1, j2 in itertools.combinations(F, 2)
                for i1, i2 in itertools.product(range(k), repeat=2)
                if not compatible_at(j2 - j1, i1, i2)), None)
    n_patterns = k ** len(F)
    if bad is not None:
        pat = tuple(bad[1] if j == bad[0] else (bad[3] if j == bad[2] else 1) for j in F)
        return (False, [pat], {},
                "conflicting constraints at times %d and %d" % (bad[0], bad[2]))
    witnesses = {}
    tried = min(n_patterns, 64)
    for pat in itertools.islice(itertools.product(range(1, k + 1), repeat=len(F)), tried):
        point = sys.construct_point(
            [(j + cons[s - 1][0], cons[s - 1][1]) for j, s in zip(F, pat)])
        if point is not None:
            witnesses[pat] = point.tobytes()
    note = "pairwise constraint compatibility certifies all patterns"
    if len(witnesses) < tried:
        half = (len(sys.construct_point([])) - 1) // 2
        note += ("; %d of %d witnesses not built: their runs reach past the "
                 "stored range [-%d, %d]" % (tried - len(witnesses), tried, half, half))
    return True, [], witnesses, note


def test_constraint_route_matches_the_pairwise_search():
    rng = np.random.default_rng(5)
    verdicts = set()
    for _ in range(300):
        alphabet = int(rng.integers(2, 4))
        fsh = make_fullshift(alphabet, L=4, reserve=16)
        targets = tuple(
            Cylinder(tuple(int(s) for s in rng.integers(0, alphabet, int(rng.integers(1, 5)))),
                     int(rng.integers(-3, 4)))
            for _ in range(int(rng.integers(2, 4))))
        F = sorted({int(j) for j in rng.integers(0, 30, int(rng.integers(1, 7)))})
        rep = check_independence(fsh, SetTuple(targets), F)
        verified, failures, witnesses, note = _constraints_report_pairwise(
            fsh, [t.run() for t in targets], F, len(targets))
        assert rep.verified == verified and rep.failures == failures
        assert rep.note == note
        assert {p: w.tobytes() for p, w in rep.witnesses.items()} == witnesses
        verdicts.add((verified, "not built" in note))
    # conflicts, fully built witnesses and runs past the stored range all occur
    assert verdicts == {(False, False), (True, False), (True, True)}


def test_constraint_witnesses_match_run_by_run_conversion_on_the_ladder():
    # runs handed over as lists are converted run by run; the route converts
    # each target's run once, with the same witnesses and notes
    fsh = make_fullshift(2, L=8)
    cons = [(off, sym.tolist()) for off, sym in (t.run() for t in BINARY.targets)]
    for m in range(1, 9):
        F = (0,) + fs_set([2 ** i for i in range(m)]).elements
        rep = check_independence(fsh, BINARY, F)
        verified, failures, witnesses, note = _constraints_report_pairwise(fsh, cons, F, 2)
        assert rep.verified and verified and rep.failures == failures == []
        assert rep.note == note
        assert {p: w.tobytes() for p, w in rep.witnesses.items()} == witnesses
        # runs past the stored range [-136, 136] build no witness (m = 8)
        assert len(witnesses) == (min(2 ** len(F), 64) if max(F) <= 136 else 0)


# -- symbols outside the alphabet ------------------------------------------------


@pytest.mark.parametrize("targets,empty", [
    ((Cylinder((0,), 0), Cylinder((5,), 0)), 2),
    ((Cylinder((1, 2), -1), Cylinder((0,), 0)), 1),
    ((Cylinder((0,), 0), Cylinder((1, -1), 3)), 2),
])
def test_fullshift_target_outside_the_alphabet_is_empty(targets, empty):
    # {x : x_0 = 5} is empty in {0,1}^Z: no F is an independence set for it
    fsh = make_fullshift(2)
    for F in ((0, 1, 2), (0,), (0, 7)):
        rep = check_independence(fsh, SetTuple(targets), F)
        assert not rep.verified and rep.exact and not rep.witnesses
        assert rep.failures == [(empty,) * len(F)]
        assert "target %d (%r) is empty" % (empty, targets[empty - 1]) in rep.note
    ip, rep = find_ip_independence(fsh, SetTuple(targets), 1, 3)
    assert ip is None and rep["status"] == "exhausted"


@pytest.mark.parametrize("system,targets,empty", [
    ("sturmian", (Cylinder((0,), 0), Cylinder((5,), 0)), 2),
    # symbol -1 once read the last arc, and the pair passed as a partition
    ("sturmian", (Cylinder((0,), 0), Cylinder((-1,), 0)), 2),
    ("sturmian", (Cylinder((0, 2), -1), Ball((0.3,), 0.2)), 1),
    # a plain rotation's coding has the one symbol 0
    ("rotation", (Cylinder((0,), 0), Cylinder((1,), 0)), 2),
])
def test_coded_target_outside_the_alphabet_is_empty(monkeypatch, system, targets, empty):
    sys = make_sturmian(GOLDEN) if system == "sturmian" else make_rotation([GOLDEN])
    for F in ((0, 2), (0,), (0, 1, 5)):
        rep = check_independence(sys, SetTuple(targets), F)
        assert not rep.verified and rep.exact and not rep.witnesses
        assert rep.failures == [(empty,) * len(F)] and rep.realized_patterns == 0
        assert "target %d (%r) is empty" % (empty, targets[empty - 1]) in rep.note
    with pytest.raises(ValueError, match="alphabet"):
        targets[empty - 1].arcs(sys.coding)
    # one check per route context, however many tuples the scan checks
    calls, check = [], independence.empty_target

    def counted(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(independence, "empty_target", counted)
    ip, rep = find_ip_independence(sys, SetTuple(targets), 2, 4)
    assert ip is None and rep["status"] == "exhausted" and rep["scanned"] == 10
    assert len(calls) == 1


def test_fullshift_alphabet_bounds_construct_point():
    fsh3 = make_fullshift(3, L=4)
    assert fsh3.construct_point([(0, np.array([0, 1, 2], dtype=np.int8))]) is not None
    for bad in ([3], [0, 5], [-1], [127]):
        assert fsh3.construct_point([(0, np.array([0], dtype=np.int8)),
                                     (2, np.array(bad, dtype=np.int8))]) is None
    # a symbol of a larger alphabet is fine there
    assert independence.empty_target(fsh3, (Cylinder((2,), 0),)) is None
    assert independence.empty_target(make_fullshift(2), (Cylinder((2,), 0),)) == 0
    # the check needs no room: a one-symbol probe fits any stored range
    tiny = make_fullshift(2, L=0, reserve=0)
    assert independence.empty_target(tiny, (Cylinder((1, 0, 1), 5),)) is None
