"""Topological complexity estimation: shadowing nets, cover complexity,
growth classification and the inverse-limit product bound.

A set F is (n, eps)-shadowing when every point of the space stays within eps
of some member of F for all times 0..n; r(n, eps) is the smallest such F.
True minima are set-cover instances, so everything here is a greedy estimate
over a finite grid and is labeled as such: an upper bound relative to the
grid, deterministic for a fixed budget.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .budgets import DEFAULT_BUDGET, SearchBudget
from .systems import GridError, SystemHandle, cell_count, cell_index
from .targets import Ball, CylinderUnion, visits  # Ball, CylinderUnion: re-exported

# random row pairs an exact grid is spot-checked on
CROSSCHECK_PAIRS = 128
# sampled points a cover is validated and its Lebesgue number estimated on
COVER_SAMPLES = 512


@dataclass
class Cover:
    """Open cover as a list of target sets (`nillab.targets`): balls,
    cylinders or cylinder unions."""

    sets: list
    lebesgue_delta: float | None = None

    def depth(self, sys: SystemHandle, P):
        """Containment depth per set: how far inside each set each point sits."""
        return np.stack([s.depth(sys, P) for s in self.sets], axis=1)

    def validate(self, sys: SystemHandle):
        """Lebesgue estimate on COVER_SAMPLES points (seed 0): the least
        deepest containment, so any smaller ball around any of them fits
        inside some cover set. A point is covered iff its deepest containment
        is positive; an uncovered one is a ValueError."""
        P = sys.sample_block(np.random.default_rng(0), COVER_SAMPLES)
        deepest = np.max(self.depth(sys, P), axis=1)
        uncovered = int(np.sum(deepest <= 0))
        if uncovered:
            raise ValueError("%d of %d sampled points not covered"
                             % (uncovered, COVER_SAMPLES))
        return float(np.min(deepest))


@dataclass
class ComplexityCurve:
    """(n, r-estimate) records at fixed epsilon, with optional growth fit."""

    epsilon: float
    records: list = field(default_factory=list)   # dicts: n, r, net_size, grid
    fit: dict | None = None

    def ns(self):
        return np.array([rec["n"] for rec in self.records])

    def rs(self):
        return np.array([rec["r"] for rec in self.records])

    def check_monotone(self):
        rs = self.rs()
        if np.any(np.diff(rs) < 0):
            raise ValueError("r-estimates are not nondecreasing in n")
        return True


def system_grid(sys: SystemHandle, n, eps, budget: SearchBudget):
    """Grid rows for horizon n from the system's grid hook: exact window
    enumeration for symbolic systems, a dense product grid for tori."""
    return _grid(sys, n, eps, budget)[0]


def _grid(sys, n, eps, budget):
    if sys.grid is None:
        raise ValueError("system offers no grid for covering estimates")
    return sys.grid(n, eps, budget)


def shadowing_net(sys: SystemHandle, n, epsilon, budget: SearchBudget = DEFAULT_BUDGET,
                  grid=None):
    """Greedy (n, epsilon)-shadowing net over a grid of the space.

    First-fit greedy: walk the grid in fixed order, adding any point not yet
    shadowed by the net and absorbing everything it shadows. The result size
    is an upper estimate of r(n, epsilon) relative to the grid.

    A point farther than epsilon from a new net point at time 0 is never
    shadowed by it, so each step tests only the time-0 neighbourhood of the
    net point: the 3^d cells around its own in a grid of K cells per axis
    over the time-0 points (`_time0_buckets`). Under the wrap-sup metric on
    [0, 1]^d, a point within epsilon lies at most one cell away on each axis,
    cyclically (`systems.cell_count`). Every other metric gets K = 1: one
    cell holding the whole grid. The candidates then face the same
    elementwise comparisons `metric <= epsilon` as a full scan, so the net is
    the one the full scan builds.
    """
    if not 0 < epsilon < math.inf:              # NaN too
        raise ValueError("epsilon must be positive and finite")
    if grid is None:
        grid, exact = _grid(sys, n, epsilon, budget)
        if exact:
            return _whole_grid_net(sys, grid, n, epsilon, budget.seed)
    G = len(grid)

    orbits = sys.orbit_span(grid, 0, n)
    buckets, cells, K = _time0_buckets(sys, orbits[0], epsilon)

    assigned = np.full(G, -1, dtype=np.int64)
    net = []
    for i in range(G):
        if assigned[i] >= 0:
            continue
        net.append(i)
        rings = [{(c - 1) % K, c, (c + 1) % K} for c in cells[i].tolist()]
        cand = np.concatenate([buckets[key] for key in itertools.product(*rings)
                               if key in buckets])
        cand = cand[assigned[cand] < 0]
        # the horizon first, where orbits have separated most; then the
        # survivors against times 0..n-1 in one call
        for times in (slice(n, n + 1), slice(0, n)):
            block = orbits[times, cand]
            if block.size:
                dist = sys.metric_block(block, np.broadcast_to(orbits[times, i, None],
                                                               block.shape))
                cand = cand[np.all(dist <= epsilon, axis=0)]
        assigned[cand] = i
        assigned[i] = i

    for P in orbits:
        if np.any(sys.metric_block(P, P[assigned]) > epsilon + 1e-12):
            raise RuntimeError("net failed post-hoc shadowing validation: "
                               "program error")
    return {"net_indices": np.array(net), "net_points": grid[np.array(net)],
            "assigned": assigned, "grid_size": G, "r_estimate": len(net),
            "n": n, "epsilon": epsilon}


def _time0_buckets(sys, base, epsilon):
    """(buckets, cells, K): the rows of `base` grouped by their cell in the
    grid of `systems.cell_count`, as {cell tuple: row indices}, and each
    row's cell."""
    K = cell_count(sys, epsilon, base)
    cells = cell_index(base, K)
    order = np.lexsort(cells.T)
    ranked = cells[order]
    starts = [0] + (np.flatnonzero(np.any(ranked[1:] != ranked[:-1], axis=1)) + 1).tolist()
    buckets = {tuple(ranked[a].tolist()): order[a:b]
               for a, b in zip(starts, starts[1:] + [len(order)])}
    return buckets, cells, K


def _whole_grid_net(sys, grid, n, epsilon, seed):
    """Net of an exact grid, which holds one representative per shadowing
    class: distinct rows differ inside the resolved window, so nothing
    shadows anything else and the net is the whole grid."""
    _crosscheck_exact_grid(sys, grid, n, epsilon, seed)
    G = len(grid)
    return {"net_indices": np.arange(G), "net_points": grid,
            "assigned": np.arange(G), "grid_size": G, "r_estimate": G,
            "n": n, "epsilon": epsilon}


def _crosscheck_exact_grid(sys, grid, n, epsilon, seed):
    """Spot-check, on CROSSCHECK_PAIRS random row pairs, that distinct
    exact-grid rows indeed fail to shadow each other."""
    G = len(grid)
    if G < 2:
        return
    rng = np.random.default_rng(seed)
    i = rng.integers(0, G, size=CROSSCHECK_PAIRS)
    j = rng.integers(0, G, size=CROSSCHECK_PAIRS)
    keep = i != j
    orbits = sys.orbit_span(np.stack([grid[i[keep]], grid[j[keep]]]), 0, n)
    worst = np.full(orbits.shape[2], -np.inf)
    for a, b in orbits:
        worst = np.maximum(worst, sys.metric_block(a, b))
    if np.any(worst <= epsilon):
        raise RuntimeError("exact symbolic grid has mutually shadowing rows: "
                           "program error in the cylinder enumeration")


def complexity_curve(sys: SystemHandle, epsilon, n_values,
                     budget: SearchBudget = DEFAULT_BUDGET,
                     classify=True) -> ComplexityCurve:
    """r(n, epsilon) estimates over an n-grid, on one shared grid per horizon;
    with `classify`, a growth fit if the records admit one (`_unfit`)."""
    if not 0 < epsilon < math.inf:              # NaN too, before any grid is sized
        raise ValueError("epsilon must be positive and finite")
    n_values = sorted(set(int(n) for n in n_values))
    if not n_values or n_values[0] < 0:
        raise ValueError("the n-grid needs at least one horizon, and every n >= 0")
    curve = ComplexityCurve(epsilon=epsilon)
    top = max(n_values)
    grid, exact = _grid(sys, top, epsilon, budget)
    for n in n_values:
        if not exact:
            net = shadowing_net(sys, n, epsilon, budget, grid=grid)
        elif n == top:
            net = _whole_grid_net(sys, grid, n, epsilon, budget.seed)
        else:
            # exact grids resolve one horizon only: build each its own
            net = shadowing_net(sys, n, epsilon, budget)
        curve.records.append({"n": n, "r": net["r_estimate"],
                              "net_size": net["r_estimate"],
                              "grid": net["grid_size"]})
    curve.check_monotone()
    if classify and _unfit(curve.ns()) is None:
        curve.fit = classify_growth(curve)
    return curve


def _unfit(ns):
    """Why records at horizons ns admit no growth fit, or None if they do."""
    if len(ns) < 8:
        return "need at least 8 records to classify growth"
    if ns.min() < 1:
        return "a log-scale fit needs every n >= 1"
    if ns.max() < 10 * ns.min():
        return "records must span at least a decade in n"
    return None


def classify_growth(curve: ComplexityCurve) -> dict:
    """Fit bounded / polynomial / exponential growth models to the curve.

    Least squares in log-r space; a 10% residual margin prefers the simpler
    model (bounded over polynomial over exponential) so near-flat or short
    curves do not flap between classes.
    """
    ns, rs = curve.ns(), curve.rs()
    reason = _unfit(ns)
    if reason is not None:
        raise ValueError(reason)
    curve.check_monotone()
    logr = np.log(rs.astype(float))
    logn = np.log(ns.astype(float))

    resid_const = float(np.sqrt(np.mean((logr - logr.mean()) ** 2)))
    b, loga = np.polyfit(logn, logr, 1)
    resid_poly = float(np.sqrt(np.mean((loga + b * logn - logr) ** 2)))
    c, loga_e = np.polyfit(ns.astype(float), logr, 1)
    resid_exp = float(np.sqrt(np.mean((loga_e + c * ns - logr) ** 2)))

    margin = 1.1
    tiny = 1e-12
    if resid_const <= margin * min(resid_poly, resid_exp) + tiny:
        fit = {"class": "bounded", "level": float(np.exp(logr.mean()))}
        best = resid_const
    elif resid_poly <= margin * resid_exp + tiny:
        fit = {"class": "polynomial", "exponent": float(b),
               "prefactor": float(np.exp(loga))}
        best = resid_poly
    else:
        fit = {"class": "exponential", "log2_rate": float(c / math.log(2.0)),
               "prefactor": float(np.exp(loga_e))}
        best = resid_exp
    fit["residual"] = best
    fit["residuals"] = {"bounded": resid_const, "polynomial": resid_poly,
                        "exponential": resid_exp}
    return fit


def cover_complexity(sys: SystemHandle, cover: Cover, n,
                     budget: SearchBudget = DEFAULT_BUDGET):
    """Greedy upper estimate of the minimal subcover of the n-fold join.

    Join cells are itineraries (which cover set to use at each time 0..n);
    candidates come from the deepest-containment itinerary of each grid point,
    and greedy set cover picks cells until the grid is covered. Each pick is
    the cell covering the most uncovered grid points; among ties it is the
    first cell in lexicographic itinerary order. A lazy heap of stale gains
    (`_greedy_cover`) finds that pick without rescanning every cell. When the
    cover's Lebesgue number is known, the shadowing bound r(n, delta/2) is
    reported alongside.
    """
    estimate = cover.validate(sys)
    delta = cover.lebesgue_delta
    eps_ref = delta if delta is not None else estimate
    if eps_ref <= 0:
        raise ValueError("cover has nonpositive Lebesgue estimate")
    grid = system_grid(sys, n, eps_ref, budget)
    coverage = _join_coverage(sys, cover, grid, n, budget)
    chosen = _greedy_cover(coverage)
    out = {"estimate": len(chosen), "n": n, "cells_considered": len(coverage),
           "grid_size": len(grid)}
    if delta is not None:
        net = shadowing_net(sys, n, delta / 2.0, budget)
        out["shadowing_bound"] = net["r_estimate"]
        out["bound_note"] = "c(U,n) <= r(n, delta/2) with delta the Lebesgue number"
    return out


def _join_coverage(sys, cover, grid, n, budget):
    """Boolean (cells, grid points) matrix of the join cells: the distinct
    deepest-containment itineraries of the grid points, in lexicographic
    order, each covering the points that lie in its set at every time."""
    depth = visits(sys, cover.sets, grid, range(n + 1), member=False)   # (sets, G, n+1)
    member = np.ascontiguousarray((depth > 0).transpose(2, 0, 1))   # (n+1, sets, G)
    # return_inverse keeps np.unique on its argsort path; the in-place sort
    # it takes otherwise raises a process's peak RSS by about 1 MB
    cells = np.unique(np.argmax(depth, axis=0), axis=0, return_inverse=True)[0]
    if len(cells) * len(grid) > budget.max_cells * 64:
        raise GridError("join-cell coverage matrix exceeds budget")
    coverage = member[0, cells[:, 0]]
    for t in range(1, n + 1):
        coverage &= member[t, cells[:, t]]
    return coverage


def _greedy_cover(coverage):
    """Rows picked, in order, by greedy set cover of the columns of a boolean
    (rows, points) matrix: each pick covers the most uncovered points, the
    lowest index among ties, as `np.argmax` over the current gains would.
    Gains only fall, so a heap of stale gains keyed (-gain, index) holds
    upper bounds, and a top entry whose recomputed gain equals its key is
    that pick (accelerated greedy, Minoux 1978)."""
    uncovered = np.ones(coverage.shape[1], dtype=bool)
    left = coverage.shape[1]
    heap = [(-g, c) for c, g in enumerate(np.count_nonzero(coverage, axis=1).tolist())]
    heapq.heapify(heap)
    chosen = []
    while left:
        key, c = heap[0]
        gain = int(np.count_nonzero(coverage[c] & uncovered))
        if gain < -key:
            heapq.heapreplace(heap, (-gain, c))
        elif gain == 0:
            raise RuntimeError("candidate cells cannot cover the grid: "
                               "program error (itinerary cells cover their "
                               "own points by construction)")
        else:
            chosen.append(c)
            uncovered &= ~coverage[c]
            left -= gain
    return chosen


def inverse_limit_complexity_bound(level_curves, epsilon) -> ComplexityCurve:
    """Product upper bound for a tower's r(n, epsilon) from its level curves.

    With N levels weighted 2^-i, epsilon-shadowing of the tower follows from
    delta-shadowing every level at delta = epsilon - 2^-N, so the product of
    level estimates at delta bounds the tower. Level curves must be measured
    at delta (or finer: smaller epsilon only raises the bound).
    """
    N = len(level_curves)
    if N < 1:
        raise ValueError("need at least one level curve")
    delta = epsilon - 2.0 ** (-N)
    if delta <= 0:
        n_min = int(math.floor(-math.log2(epsilon))) + 1
        raise ValueError(
            "epsilon = %.4g requires more than %d levels: need epsilon > 2^-N "
            "(minimal admissible N is %d)" % (epsilon, N, n_min))
    for c in level_curves:
        if c.epsilon > delta + 1e-12:
            raise ValueError(
                "level curve at epsilon %.4g is coarser than delta = %.4g; "
                "measure levels at delta or finer" % (c.epsilon, delta))
    common = sorted(set.intersection(*[set(c.ns().tolist()) for c in level_curves]))
    if not common:
        raise ValueError("level curves share no n values")
    bound = ComplexityCurve(epsilon=epsilon)
    for n in common:
        prod = 1
        for c in level_curves:
            prod *= int(c.rs()[list(c.ns()).index(n)])
        bound.records.append({"n": n, "r": prod, "net_size": prod, "grid": None})
    return bound
