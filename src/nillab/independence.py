"""Finite IP-sets and independence checking against set tuples.

For a tuple of target sets (A_1..A_k) and a finite time set F, independence
means every symbol pattern s: F -> {1..k} is realized by a point visiting
A_s(j) at time j for all j in F. It suffices to check the full patterns on F:
a witness for a full pattern restricts to every subpattern.

Exactness regimes:
 * rotation-coded systems (circle rotations, Sturmian subshifts) with arc
   targets that partition the circle: cut the circle at all shifted target
   boundaries; each arc codes one pattern, so the realized-pattern set is
   computed exactly and verified is an exact verdict;
 * full shifts with symbol-constraint targets: pattern realizability is
   pairwise compatibility of shifted constraints, exact for any |F|;
 * metric systems: sampled witness search - verified True is certified by
   witnesses, False only means the budget found nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .arcs import ArcUnion, cut_midpoints
from .budgets import DEFAULT_BUDGET, SearchBudget
from .systems import SystemHandle, symbol_resolution, approx_rational, sturmian_coding
from .targets import Ball, Cylinder


@dataclass(frozen=True)
class IPSet:
    """All nonempty subset sums of the generators (duplicates collapsed)."""

    generators: tuple
    elements: tuple

    def __len__(self):
        return len(self.elements)


def fs_set(generators) -> IPSet:
    gens = tuple(int(g) for g in generators)
    if not gens or any(g <= 0 for g in gens):
        raise ValueError("generators must be a nonempty list of positive integers")
    sums = {0}
    for g in gens:
        sums |= {s + g for s in sums}
    sums.discard(0)
    return IPSet(gens, tuple(sorted(sums)))


@dataclass(frozen=True)
class SetTuple:
    """Targets (A_1..A_k); each a metric ball or a symbol cylinder."""

    targets: tuple

    def __post_init__(self):
        if len(self.targets) < 2:
            raise ValueError("need at least two target sets")

    @property
    def k(self):
        return len(self.targets)


@dataclass
class IndependenceReport:
    F: tuple
    verified: bool
    method: str                      # exact-language | sampled
    witnesses: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    patterns_checked: int = 0
    realized_patterns: int = 0
    exact: bool = False
    note: str = ""


# -- converting targets into exact primitives --------------------------------


def _target_arcs(sys: SystemHandle, target) -> ArcUnion:
    """Target as an arc union on the coding circle; None when not expressible."""
    coding = sys.coding
    if coding is None:
        return None
    if isinstance(target, Cylinder):
        arcs = ArcUnion.full()
        for i, sym in enumerate(target.word):
            base = coding.partition[int(sym)]
            arcs = arcs.intersect(base.shift(-(target.anchor + i) * coding.alpha))
        return arcs
    if isinstance(target, Ball):
        center = np.ravel(np.asarray(target.center, dtype=float))
        if len(coding.partition) == 1:
            # plain circle rotation: metric balls are arcs
            c = float(center[0])
            return ArcUnion.interval(c - target.radius, c + target.radius)
        # coded system: the ball is the cylinder of the center's window
        w = symbol_resolution(target.radius)
        word = coding.symbols_block(center[:1], np.arange(-(w - 1), w))[0]
        return _target_arcs(sys, Cylinder(tuple(int(s) for s in word), -(w - 1)))
    return None


def _targets_partition(arc_sets, tol=1e-9):
    total = sum(a.measure() for a in arc_sets)
    if abs(total - 1.0) > tol:
        return False
    for a, b in itertools.combinations(arc_sets, 2):
        if a.intersect(b).measure() > tol:
            return False
    return True


def _fullshift_constraints(sys: SystemHandle, target):
    """Target as (offset, symbols) for constraint-assembled shift points."""
    if sys.construct_point is None:
        return None
    if isinstance(target, Cylinder):
        return (int(target.anchor), np.asarray(target.word, dtype=np.int8))
    if isinstance(target, Ball):
        win = sys.to_window(np.asarray(target.center))
        w = symbol_resolution(target.radius)
        c = win.half_length
        r = min(w - 1, c)
        return (-r, np.array(win.word[c - r:c + r + 1], dtype=np.int8))
    return None


# -- the checker ---------------------------------------------------------------


def _exact_context(sys: SystemHandle, sets: SetTuple):
    """Precomputed exact-route data for a (system, targets) pair, or None."""
    arcs = [_target_arcs(sys, t) for t in sets.targets]
    if all(a is not None for a in arcs):
        if _targets_partition(arcs):
            boundaries = sorted({b for a in arcs for b in a.boundaries()})
            return {"route": "partition", "arcs": arcs, "boundaries": boundaries}
        return {"route": "arcs", "arcs": arcs}
    cons = [_fullshift_constraints(sys, t) for t in sets.targets]
    if all(c is not None for c in cons):
        return {"route": "constraints", "cons": cons}
    return None


def check_independence(sys: SystemHandle, sets: SetTuple, F,
                       budget: SearchBudget = DEFAULT_BUDGET,
                       _ctx=None) -> IndependenceReport:
    """Decide (exactly where possible) whether F is an independence set for the tuple."""
    F = tuple(sorted(set(int(j) for j in F)))
    if not F:
        raise ValueError("F must be nonempty")
    k = sets.k
    n_patterns = k ** len(F)

    ctx = _exact_context(sys, sets) if _ctx is None else _ctx
    if ctx is not None and ctx["route"] == "partition":
        return _check_exact_partition(sys, ctx["arcs"], F, n_patterns,
                                      boundaries=ctx["boundaries"])
    if ctx is not None and ctx["route"] == "arcs":
        if n_patterns <= budget.max_cells:
            return _check_exact_arcs(sys, ctx["arcs"], F, k)
        raise ValueError("pattern count %d overflows the budget for the "
                         "non-partition arc route" % n_patterns)
    if ctx is not None and ctx["route"] == "constraints":
        return _check_exact_constraints(sys, ctx["cons"], F, k, budget)

    if n_patterns > budget.max_cells:
        raise ValueError("pattern count %d overflows the budget" % n_patterns)
    return _check_sampled(sys, sets, F, k, budget)


def _check_exact_partition(sys, arcs, F, n_patterns, boundaries):
    """Realized patterns of a partition coding, via boundary cuts.

    Every point of an arc between consecutive cut points produces the same
    pattern, and every realizable pattern has interior, so coding one midpoint
    per arc enumerates the realized set exactly. Before cutting, a counting
    bound applies: at most (#cuts) patterns are realizable at all, so a
    pattern count beyond |boundaries| * |F| is refuted outright.
    """
    alpha = sys.coding.alpha
    if n_patterns > len(boundaries) * len(F) and n_patterns > 4096:
        # refuted by counting alone; skip enumerating the realized set
        return IndependenceReport(
            F=F, verified=False, method="exact-language", exact=True,
            patterns_checked=n_patterns, realized_patterns=-1,
            failures=["%d patterns exceed the %d coding cells on F"
                      % (n_patterns, len(boundaries) * len(F))],
            note="counting bound: realizable patterns <= number of coding "
                 "cells (-1: realized set not enumerated)")
    cuts = [b - j * alpha for j in F for b in boundaries]
    mids = cut_midpoints(np.asarray(cuts) % 1.0)
    pos = (mids[:, None] + np.asarray(F, dtype=float)[None, :] * alpha) % 1.0
    sym = np.zeros(pos.shape, dtype=np.int8)
    hit = np.zeros(pos.shape, dtype=bool)
    for s, a in enumerate(arcs):
        inside = a.contains(pos)
        sym[inside] = s + 1
        hit |= inside
    assert hit.all(), "partition failed to cover a midpoint"
    patterns = {tuple(row): mids[i] for i, row in enumerate(sym)}
    realized = len(patterns)
    verified = realized == n_patterns
    witnesses = {pat: np.array([z]) for pat, z in
                 itertools.islice(patterns.items(), 512)}
    return IndependenceReport(
        F=F, verified=verified, method="exact-language", exact=True,
        witnesses=witnesses, patterns_checked=n_patterns,
        realized_patterns=realized,
        failures=[] if verified else ["%d of %d patterns unrealizable"
                                      % (n_patterns - realized, n_patterns)],
        note="partition coding: realized-pattern enumeration is exact")


def _check_exact_arcs(sys, arcs, F, k):
    """Pattern-by-pattern exact emptiness of arc intersections."""
    alpha = sys.coding.alpha
    shifted = {(j, i): arcs[i].shift(-j * alpha) for j in F for i in range(k)}
    witnesses, failures = {}, []
    count = 0
    for pat in itertools.product(range(1, k + 1), repeat=len(F)):
        count += 1
        inter = ArcUnion.full()
        for j, s in zip(F, pat):
            inter = inter.intersect(shifted[(j, s - 1)])
            if inter.is_empty():
                break
        if inter.is_empty():
            failures.append(pat)
        elif len(witnesses) < 512:
            lo, hi = inter.arcs[0]
            witnesses[pat] = np.array([(lo + hi) / 2.0])
    return IndependenceReport(
        F=F, verified=not failures, method="exact-language", exact=True,
        witnesses=witnesses, patterns_checked=count,
        realized_patterns=count - len(failures), failures=failures,
        note="arc-intersection emptiness is exact")


def _check_exact_constraints(sys, cons, F, k, budget):
    """Full-shift route: joint satisfiability is pairwise non-conflict.

    Symbol constraints conflict only position-by-position, so a pattern is
    realizable iff all its pairs are compatible, and all patterns are
    realizable iff all target pairs are compatible at all time-offset pairs.
    """
    memo = {}

    def compatible_at(diff, i1, i2):
        # conflict depends only on the time difference j2 - j1
        key = (diff, i1, i2)
        if key not in memo:
            off1, sym1 = cons[i1]
            off2, sym2 = cons[i2]
            lo = max(off1, diff + off2)
            hi = min(off1 + len(sym1), diff + off2 + len(sym2))
            if lo >= hi:
                memo[key] = True
            else:
                a = sym1[lo - off1: hi - off1]
                b = sym2[lo - diff - off2: hi - diff - off2]
                memo[key] = bool(np.all(a == b))
        return memo[key]

    bad = None
    for (j1, j2) in itertools.combinations(F, 2):
        for i1, i2 in itertools.product(range(k), repeat=2):
            if not compatible_at(j2 - j1, i1, i2):
                bad = (j1, i1 + 1, j2, i2 + 1)
                break
        if bad:
            break

    n_patterns = k ** len(F)
    witnesses = {}
    if bad is None:
        for pat in itertools.islice(itertools.product(range(1, k + 1),
                                                      repeat=len(F)), 64):
            point = sys.construct_point(
                [(j + cons[s - 1][0], cons[s - 1][1]) for j, s in zip(F, pat)])
            if point is not None:
                witnesses[pat] = point
        return IndependenceReport(
            F=F, verified=True, method="exact-language", exact=True,
            witnesses=witnesses, patterns_checked=n_patterns,
            realized_patterns=n_patterns,
            note="pairwise constraint compatibility certifies all patterns")
    pat = tuple(bad[1] if j == bad[0] else (bad[3] if j == bad[2] else 1) for j in F)
    return IndependenceReport(
        F=F, verified=False, method="exact-language", exact=True,
        failures=[pat], patterns_checked=n_patterns, realized_patterns=0,
        note="conflicting constraints at times %d and %d" % (bad[0], bad[2]))


def _check_sampled(sys, sets, F, k, budget):
    rng = np.random.default_rng(budget.seed)
    Z = sys.sample_block(rng, budget.max_candidates)
    # membership[z, j_idx, i]: T^j z in A_i
    pts = sys.orbit_span(Z, 0, max(F))[np.asarray(F)]       # (|F|, len(Z), d)
    member = np.zeros((len(Z), len(F), k), dtype=bool)
    for zi in range(len(Z)):
        for i, t in enumerate(sets.targets):
            member[zi, :, i] = t.depth(sys, pts[:, zi]) > 0
    witnesses, failures = {}, []
    count = 0
    for pat in itertools.product(range(1, k + 1), repeat=len(F)):
        count += 1
        rows = np.all(member[:, np.arange(len(F)), np.asarray(pat) - 1], axis=1)
        if rows.any():
            if len(witnesses) < 512:
                witnesses[pat] = Z[int(np.argmax(rows))]
        else:
            failures.append(pat)
    return IndependenceReport(
        F=F, verified=not failures, method="sampled", exact=False,
        witnesses=witnesses, patterns_checked=count,
        realized_patterns=count - len(failures), failures=failures,
        note="" if not failures else
        "unrealized patterns are budget-exhausted, not refuted")


# -- IP independence search -----------------------------------------------------


def _nondecreasing_tuples(m, bound):
    return itertools.combinations_with_replacement(range(1, bound + 1), m)


def find_ip_independence(sys: SystemHandle, sets: SetTuple, m, gen_bound,
                         budget: SearchBudget = DEFAULT_BUDGET,
                         include_zero=True):
    """Scan generator tuples (p_1 <= ... <= p_m) <= gen_bound for an FS witness.

    The checked time set is {0} union FS({p_i}): the cube formulation of
    IP-independence pins the base time 0 pattern slot as well, and without it
    a single-generator set would be vacuously independent.

    Returns (IPSet, report) on the first witness in lexicographic scan order,
    or (None, report) with status "exhausted".
    """
    if m < 1 or gen_bound < 1:
        raise ValueError("m and gen_bound must be >= 1")
    scanned = 0
    patterns_checked = 0
    ctx = _exact_context(sys, sets)
    for gens in _nondecreasing_tuples(m, gen_bound):
        scanned += 1
        ip = fs_set(gens)
        F = (0,) + ip.elements if include_zero else ip.elements
        rep = check_independence(sys, sets, F, budget, _ctx=ctx)
        patterns_checked += rep.patterns_checked
        if rep.verified:
            return ip, {"status": "witness", "generators": list(gens),
                        "scanned": scanned, "patterns_checked": patterns_checked,
                        "method": rep.method, "exact": rep.exact}
    return None, {"status": "exhausted", "scanned": scanned,
                  "patterns_checked": patterns_checked,
                  "note": "finite scan evidence only; exhaustion is not a "
                          "certificate of nullness"}


def independence_ladder(sys: SystemHandle, sets: SetTuple, m_values, bounds,
                        budget: SearchBudget = DEFAULT_BUDGET):
    """Max-m witness table over a grid of generator bounds."""
    rows = []
    for m in m_values:
        for B in bounds:
            ip, rep = find_ip_independence(sys, sets, m, B, budget)
            rows.append({"m": m, "B": B, "status": rep["status"],
                         "witness_generators": "" if ip is None else
                         " ".join(str(g) for g in ip.generators),
                         "patterns_checked": rep["patterns_checked"],
                         "scanned": rep["scanned"]})
    return rows


# -- Sturmian language ------------------------------------------------------------


def sturmian_language(alpha, n):
    """Exact set of length-n factors of the Sturmian coding for irrational alpha.

    The coding cells of length-n words are the arcs cut by the n+1 points
    frac(-j alpha), j = 0..n (the backward orbit of both partition endpoints
    coincides up to reindexing since 1 - alpha - j alpha = -(j+1) alpha mod 1).
    One sample per arc enumerates the language; distinct arcs give distinct
    words, so exactly n+1 factors come out.
    """
    if n < 1 or n > 64:
        raise ValueError("supported factor lengths are 1..64")
    if approx_rational(alpha) is not None:
        raise ValueError("rational alpha: the coding degenerates")
    coding = sturmian_coding(alpha)
    cuts = (-np.arange(0, n + 1) * float(alpha)) % 1.0
    mids = cut_midpoints(cuts)
    words = coding.symbols_block(mids, np.arange(n))
    return {tuple(int(s) for s in row) for row in words}
