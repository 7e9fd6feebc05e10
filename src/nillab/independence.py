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
Each target supplies its own exact forms (`arcs` and `run`, see
nillab.targets); a route applies when every target of the tuple has its form.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .arcs import ArcUnion, cut_midpoints, frac
from .budgets import DEFAULT_BUDGET, SearchBudget
from .nilmetric import BudgetError
from .systems import SystemHandle, approx_rational, sturmian_coding
from .targets import Ball, Cylinder, visits  # Ball, Cylinder: re-exported


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


# -- the checker ---------------------------------------------------------------


def _route_context(sys: SystemHandle, sets: SetTuple, budget: SearchBudget = DEFAULT_BUDGET):
    """The route of a (system, targets) pair, decided once: {"route": name,
    "check": sorted distinct times F -> IndependenceReport, "cells": the
    coding cuts of a partition, 0 for an empty target, else None}. It is
    "empty" if a target holds a symbol outside the alphabet, else the first
    exact route whose form every target has, else "sampled"."""
    k = sets.k
    empty = empty_target(sys, sets.targets)
    if empty is not None:
        def check(F):
            return IndependenceReport(
                F=F, verified=False, method="exact-language", exact=True,
                failures=[(empty + 1,) * len(F)], patterns_checked=k ** len(F),
                realized_patterns=0, note="target %d (%r) is empty: its run holds a symbol "
                "outside the alphabet" % (empty + 1, sets.targets[empty]))

        return {"route": "empty", "check": check, "cells": 0}
    if sys.coding is not None:
        arcs = [t.arcs(sys.coding) for t in sets.targets]
        if all(a is not None for a in arcs):
            alpha = sys.coding.alpha
            # the arcs tile the circle, up to 1e-9 in measure
            if abs(sum(a.measure() for a in arcs) - 1.0) <= 1e-9 and all(
                    a.intersect(b).measure() <= 1e-9
                    for a, b in itertools.combinations(arcs, 2)):
                cuts = sorted({b for a in arcs for b in a.boundaries()})
                return {"route": "partition", "cells": len(cuts),
                        "check": functools.partial(_check_exact_partition, alpha, arcs, cuts)}
            return {"route": "arcs", "cells": None, "check": functools.partial(
                _pattern_report, k, budget, functools.partial(_arc_witness, alpha, arcs),
                True, "arc-intersection emptiness is exact")}
    if sys.construct_point is not None:
        cons = [t.run() for t in sets.targets]
        if all(c is not None for c in cons):
            return {"route": "constraints", "cells": None,
                    "check": functools.partial(_check_exact_constraints, sys, cons, k)}
    Z = sys.sample_block(np.random.default_rng(budget.seed), budget.max_candidates)
    return {"route": "sampled", "cells": None, "check": functools.partial(
        _pattern_report, k, budget, functools.partial(_sampled_witness, sys, sets.targets, Z),
        False, "unrealized patterns are budget-exhausted, not refuted")}


def empty_target(sys: SystemHandle, targets):
    """Index of the first target that holds a symbol outside the alphabet, so
    that no point lies in it: a cylinder symbol that names no arc of a
    rotation coding's partition, or a symbol of a run that a system building
    points from runs refuses; None if there is none."""
    if sys.coding is not None:
        k = len(sys.coding.partition)
        return next((i for i, t in enumerate(targets) if isinstance(t, Cylinder)
                     and not all(0 <= s < k for s in t.word)), None)
    if sys.construct_point is None:
        return None
    return next((i for i, t in enumerate(targets) if (run := t.run()) is not None
                 and not _in_alphabet(sys.construct_point, run[1].tobytes())), None)


@functools.lru_cache(maxsize=1024)
def _in_alphabet(construct_point, symbols):
    """Whether a system's points hold every symbol of a run (int8 bytes):
    `construct_point` refuses a one-symbol run, which always fits, exactly
    for a symbol outside the alphabet. Cached, as a probe costs about 20 us,
    several times a whole route context."""
    return all(construct_point([(0, np.frombuffer(bytes([s]), dtype=np.int8))]) is not None
               for s in set(symbols))


def check_independence(sys: SystemHandle, sets: SetTuple, F,
                       budget: SearchBudget = DEFAULT_BUDGET) -> IndependenceReport:
    """Decide (exactly where possible) whether F is an independence set for the tuple."""
    F = tuple(sorted(set(int(j) for j in F)))
    if not F:
        raise ValueError("F must be nonempty")
    return _route_context(sys, sets, budget)["check"](F)


def _pattern_report(k, budget, walk_on, exact, note, F):
    """Report of a search over all k^|F| patterns (BudgetError past
    `budget.max_cells`, before any narrowing), walked depth-first as a prefix
    tree in product order: `walk_on(F)` is (root, narrow, point), where
    `narrow(state, t, s)` extends a prefix's state by symbol s at time F[t],
    None once nothing realizes it, and `point(state)` is a full pattern's
    witness. Each prefix is narrowed once; an unrealized one fails all its
    completions. The walk keeps an explicit stack, not a recursive closure,
    whose reference cycle would hold each call's states until a collection.
    The first 512 witnesses are kept; an exact route's note states its
    certificate, a sampled route's note only qualifies its failures."""
    n_patterns = k ** len(F)
    if n_patterns > budget.max_cells:
        raise BudgetError("pattern count %d overflows the budget%s" % (
            n_patterns, " for the non-partition arc route" if exact else ""))
    root, narrow, point = walk_on(F)
    witnesses, failures = {}, []
    stack = [((), root)]                      # depth-first, children in product order
    while stack:
        prefix, state = stack.pop()
        if state is None:
            failures.extend(prefix + rest for rest in itertools.product(
                range(1, k + 1), repeat=len(F) - len(prefix)))
        elif len(prefix) == len(F):
            if len(witnesses) < 512:
                witnesses[prefix] = point(state)
        else:
            stack.extend(reversed([(prefix + (s,), narrow(state, len(prefix), s))
                                   for s in range(1, k + 1)]))
    return IndependenceReport(
        F=F, verified=not failures, method="exact-language" if exact else "sampled",
        exact=exact, witnesses=witnesses, patterns_checked=n_patterns,
        realized_patterns=n_patterns - len(failures), failures=failures,
        note=note if exact or failures else "")


def _refuted_by_counting(n_patterns, n_times, cells):
    """Whether a coding cannot realize all patterns on n_times times: the
    shifts of its `cells` cuts split the circle into at most cells * n_times
    arcs, each coding one pattern (none at all for an empty target)."""
    return n_patterns > cells * n_times


def _check_exact_partition(alpha, arcs, cuts, F):
    """Realized patterns of a partition coding, via boundary cuts.

    Every point of an arc between consecutive cut points produces the same
    pattern, and every realizable pattern has interior, so coding one midpoint
    per arc enumerates the realized set exactly. The counting bound of
    `_refuted_by_counting` refutes without cutting only above 4096 patterns,
    so that smaller sets keep an exact realized count; `find_ip_independence`
    applies the same bound to every tuple before building its time set.
    """
    n_patterns = len(arcs) ** len(F)
    if _refuted_by_counting(n_patterns, len(F), len(cuts)) and n_patterns > 4096:
        # refuted by counting alone; skip enumerating the realized set
        return IndependenceReport(
            F=F, verified=False, method="exact-language", exact=True,
            patterns_checked=n_patterns, realized_patterns=-1,
            failures=["%d patterns exceed the %d coding cells on F"
                      % (n_patterns, len(cuts) * len(F))],
            note="counting bound: realizable patterns <= number of coding "
                 "cells (-1: realized set not enumerated)")
    mids = cut_midpoints(frac(np.asarray([c - j * alpha for j in F for c in cuts])))
    pos = frac(mids[:, None] + np.asarray(F, dtype=float)[None, :] * alpha)
    sym = np.zeros(pos.shape, dtype=np.int8)        # 0: in no target
    for s, a in enumerate(arcs):
        sym[a.contains(pos)] = s + 1
    assert sym.all(), "partition failed to cover a midpoint"
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


def _arc_witness(alpha, arcs, F):
    """Prefix walk of the arc route: a prefix's state is the intersection of
    its shifted arcs, whose emptiness is exact, and a pattern's witness is the
    midpoint of its intersection's first arc."""
    shifted = {(j, i): a.shift(-j * alpha) for j in F for i, a in enumerate(arcs)}

    def narrow(inter, t, s):
        inter = inter.intersect(shifted[(F[t], s - 1)])
        return None if inter.is_empty() else inter

    return ArcUnion.full(), narrow, lambda inter: np.array([sum(inter.arcs[0]) / 2.0])


def _check_exact_constraints(sys, cons, k, F):
    """Full-shift route: joint satisfiability is pairwise non-conflict.

    Symbol constraints conflict only position-by-position, so a pattern is
    realizable iff all its pairs are compatible, and all patterns are
    realizable iff all target pairs are compatible at all time-offset pairs.
    """
    def compatible_at(diff, i1, i2):
        # conflict depends only on the time difference j2 - j1
        off1, sym1 = cons[i1]
        off2, sym2 = cons[i2]
        lo = max(off1, diff + off2)
        hi = min(off1 + len(sym1), diff + off2 + len(sym2))
        a = sym1[lo - off1: hi - off1]
        b = sym2[lo - diff - off2: hi - diff - off2]
        return lo >= hi or bool(np.all(a == b))

    # each distinct time difference once: its first conflicting symbol pair
    first = {diff: next(((s1, s2) for s1, s2 in itertools.product(range(1, k + 1), repeat=2)
                         if not compatible_at(diff, s1 - 1, s2 - 1)), None)
             for diff in {j2 - j1 for j1, j2 in itertools.combinations(F, 2)}}

    n_patterns = k ** len(F)
    if not any(first.values()):
        witnesses = {}
        tried = min(n_patterns, 64)
        for pat in itertools.islice(itertools.product(range(1, k + 1),
                                                      repeat=len(F)), tried):
            point = sys.construct_point(
                [(j + cons[s - 1][0], cons[s - 1][1]) for j, s in zip(F, pat)])
            if point is not None:
                witnesses[pat] = point
        note = "pairwise constraint compatibility certifies all patterns"
        if len(witnesses) < tried:
            # compatible runs only fail to build past the stored range; the
            # empty constraint list gives a point of the stored width
            half = (len(sys.construct_point([])) - 1) // 2
            note += ("; %d of %d witnesses not built: their runs reach past the "
                     "stored range [-%d, %d]" % (tried - len(witnesses), tried, half, half))
        return IndependenceReport(
            F=F, verified=True, method="exact-language", exact=True,
            witnesses=witnesses, patterns_checked=n_patterns,
            realized_patterns=n_patterns, note=note)
    # the first time pair, in combinations order, at a conflicting difference
    j1, j2, s1, s2 = next((j1, j2) + first[j2 - j1]
                          for j1, j2 in itertools.combinations(F, 2) if first[j2 - j1])
    pat = tuple(s1 if j == j1 else (s2 if j == j2 else 1) for j in F)
    return IndependenceReport(
        F=F, verified=False, method="exact-language", exact=True,
        failures=[pat], patterns_checked=n_patterns, realized_patterns=0,
        note="conflicting constraints at times %d and %d" % (j1, j2))


def _sampled_witness(sys, targets, Z, F):
    """Prefix walk of the sampled route: a prefix's state is the mask of the
    sampled points of Z whose orbits visit its targets, read from one depth
    table, and a pattern's witness is its first such point."""
    member = visits(sys, targets, Z, F, member=True)     # (k, len(Z), |F|)

    def narrow(mask, t, s):
        mask = mask & member[s - 1, :, t]
        return mask if mask.any() else None

    return np.ones(len(Z), dtype=bool), narrow, lambda mask: Z[int(np.argmax(mask))]


# -- IP independence search -----------------------------------------------------


def find_ip_independence(sys: SystemHandle, sets: SetTuple, m, gen_bound,
                         budget: SearchBudget = DEFAULT_BUDGET):
    """Scan generator tuples (p_1 <= ... <= p_m) <= gen_bound for an FS witness.

    The checked time set is {0} union FS({p_i}): the cube formulation of
    IP-independence pins the base time 0 pattern slot as well, and without it
    a single-generator set would be vacuously independent.

    Returns (IPSet, report) on the first witness in lexicographic scan order,
    or (None, report) with status "exhausted".
    """
    if m < 1 or gen_bound < 1:
        raise ValueError("m and gen_bound must be >= 1")
    scanned = patterns_checked = 0
    route = _route_context(sys, sets, budget)
    check, cells = route["check"], route["cells"]
    k = sets.k
    for gens in itertools.combinations_with_replacement(range(1, gen_bound + 1), m):
        scanned += 1
        if cells is not None:
            # |{0} u FS(gens)|: bit s of reach is set iff s is a subset sum
            reach = 1
            for g in gens:
                reach |= reach << g
            n_times = reach.bit_count()
            n_patterns = k ** n_times
            if _refuted_by_counting(n_patterns, n_times, cells):
                patterns_checked += n_patterns
                continue
        ip = fs_set(gens)
        rep = check((0,) + ip.elements)
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
    cuts = frac(-np.arange(0, n + 1) * float(alpha))
    mids = cut_midpoints(cuts)
    words = coding.symbols_block(mids, np.arange(n))
    return set(map(tuple, words.tolist()))
