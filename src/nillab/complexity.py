"""Topological complexity estimation: shadowing nets, cover complexity,
growth classification and the inverse-limit product bound.

A set F is (n, eps)-shadowing when every point of the space stays within eps
of some member of F for all times 0..n; r(n, eps) is the smallest such F.
True minima are set-cover instances, so everything here is a greedy estimate
over a finite grid and is labeled as such: an upper bound relative to the
grid, deterministic for a fixed budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .budgets import DEFAULT_BUDGET, SearchBudget
from .systems import GridError, SystemHandle
from .targets import Ball, CylinderUnion  # re-exported: the cover sets


@dataclass
class Cover:
    """Open cover as a list of target sets (`nillab.targets`): balls,
    cylinders or cylinder unions."""

    sets: list
    lebesgue_delta: float | None = None

    def membership(self, sys: SystemHandle, P):
        """Bool array (len(P), len(sets))."""
        return self.depth(sys, P) > 0

    def depth(self, sys: SystemHandle, P):
        """Containment depth per set: how far inside each set each point sits."""
        return np.stack([s.depth(sys, P) for s in self.sets], axis=1)

    def validate(self, sys: SystemHandle, samples=512, seed=0):
        rng = np.random.default_rng(seed)
        P = sys.sample_block(rng, samples)
        member = self.membership(sys, P)
        uncovered = int(np.sum(~member.any(axis=1)))
        if uncovered:
            raise ValueError("%d of %d sampled points not covered" % (uncovered, samples))
        return True

    def estimate_lebesgue(self, sys: SystemHandle, samples=512, seed=0):
        """Min over sampled points of the deepest containment: any smaller ball
        around any point fits inside some cover set."""
        rng = np.random.default_rng(seed)
        P = sys.sample_block(rng, samples)
        return float(np.min(np.max(self.depth(sys, P), axis=1)))


@dataclass
class ComplexityCurve:
    """(n, r-estimate) records at fixed epsilon, with optional growth fit."""

    epsilon: float
    records: list = field(default_factory=list)   # dicts: n, r, net_size, grid
    fit: dict | None = None
    meta: dict = field(default_factory=dict)

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
        raise GridError("system offers no grid for covering estimates")
    return sys.grid(n, eps, budget)


def shadowing_net(sys: SystemHandle, n, epsilon, budget: SearchBudget = DEFAULT_BUDGET,
                  grid=None, revalidate=True):
    """Greedy (n, epsilon)-shadowing net over a grid of the space.

    First-fit greedy: walk the grid in fixed order, adding any point not yet
    shadowed by the net and absorbing everything it shadows. The result size
    is an upper estimate of r(n, epsilon) relative to the grid.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if grid is None:
        grid, exact = _grid(sys, n, epsilon, budget)
        if exact:
            return _whole_grid_net(sys, grid, n, epsilon, budget.seed)
    G = len(grid)

    orbits = np.empty((n + 1,) + grid.shape, dtype=grid.dtype)
    orbits[0] = grid
    for t in range(1, n + 1):
        orbits[t] = sys.step_block(orbits[t - 1])

    # check late times first: orbit separation grows with t for the systems of
    # interest, so most non-covered points drop out immediately
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

    if revalidate:
        for t in time_order:
            d = sys.metric_block(orbits[t], orbits[t][assigned])
            if np.any(d > epsilon + 1e-12):
                raise RuntimeError("net failed post-hoc shadowing validation: "
                                   "program error")
    return {"net_indices": np.array(net), "net_points": grid[np.array(net)],
            "assigned": assigned, "grid_size": G, "r_estimate": len(net),
            "n": n, "epsilon": epsilon}


def _whole_grid_net(sys, grid, n, epsilon, seed):
    """Net of an exact grid, which holds one representative per shadowing
    class: distinct rows differ inside the resolved window, so nothing
    shadows anything else and the net is the whole grid."""
    _crosscheck_exact_grid(sys, grid, n, epsilon, seed)
    G = len(grid)
    return {"net_indices": np.arange(G), "net_points": grid,
            "assigned": np.arange(G), "grid_size": G, "r_estimate": G,
            "n": n, "epsilon": epsilon}


def _crosscheck_exact_grid(sys, grid, n, epsilon, seed, pairs=128):
    """Spot-check that distinct exact-grid rows indeed fail to shadow each other."""
    G = len(grid)
    if G < 2:
        return
    rng = np.random.default_rng(seed)
    i = rng.integers(0, G, size=pairs)
    j = rng.integers(0, G, size=pairs)
    keep = i != j
    a, b = grid[i[keep]], grid[j[keep]]
    worst = np.full(a.shape[0], -np.inf)
    for _ in range(n + 1):
        worst = np.maximum(worst, sys.metric_block(a, b))
        a, b = sys.step_block(a), sys.step_block(b)
    if np.any(worst <= epsilon):
        raise RuntimeError("exact symbolic grid has mutually shadowing rows: "
                           "program error in the cylinder enumeration")


def complexity_curve(sys: SystemHandle, epsilon, n_values,
                     budget: SearchBudget = DEFAULT_BUDGET,
                     classify=True) -> ComplexityCurve:
    """r(n, epsilon) estimates over an n-grid, on one shared grid per horizon."""
    n_values = sorted(set(int(n) for n in n_values))
    curve = ComplexityCurve(epsilon=epsilon,
                            meta={"system": sys.name, "budget_seed": budget.seed})
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
    if classify and len(curve.records) >= 8:
        curve.fit = classify_growth(curve)
    return curve


def classify_growth(curve: ComplexityCurve) -> dict:
    """Fit bounded / polynomial / exponential growth models to the curve.

    Least squares in log-r space; a 10% residual margin prefers the simpler
    model (bounded over polynomial over exponential) so near-flat or short
    curves do not flap between classes.
    """
    ns, rs = curve.ns(), curve.rs()
    if len(ns) < 8:
        raise ValueError("need at least 8 records to classify growth")
    if ns.max() < 10 * ns.min():
        raise ValueError("records must span at least a decade in n")
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
                     budget: SearchBudget = DEFAULT_BUDGET, grid=None):
    """Greedy upper estimate of the minimal subcover of the n-fold join.

    Join cells are itineraries (which cover set to use at each time 0..n);
    candidates come from the deepest-containment itinerary of each grid point,
    and greedy set cover picks cells until the grid is covered. When the
    cover's Lebesgue number is known, the shadowing bound r(n, delta/2) is
    reported alongside.
    """
    cover.validate(sys)
    delta = cover.lebesgue_delta
    eps_ref = delta if delta is not None else cover.estimate_lebesgue(sys)
    if eps_ref <= 0:
        raise ValueError("cover has nonpositive Lebesgue estimate")
    if grid is None:
        grid = system_grid(sys, n, eps_ref, budget)
    G = len(grid)
    depth = np.empty((n + 1, G, len(cover.sets)))
    P = grid
    for t in range(n + 1):
        depth[t] = cover.depth(sys, P)
        if t < n:
            P = sys.step_block(P)
    member = depth > 0

    itineraries = np.argmax(depth, axis=2).T          # (G, n+1)
    cells, inverse = np.unique(itineraries, axis=0, return_inverse=True)
    C = len(cells)
    if C * G > budget.max_cells * 64:
        raise GridError("join-cell coverage matrix exceeds budget")
    coverage = np.empty((C, G), dtype=bool)
    for ci, cell in enumerate(cells):
        cov = member[0, :, cell[0]].copy()
        for t in range(1, n + 1):
            cov &= member[t, :, cell[t]]
            if not cov.any():
                break
        coverage[ci] = cov

    uncovered = np.ones(G, dtype=bool)
    chosen = []
    while uncovered.any():
        gains = coverage[:, uncovered].sum(axis=1)
        best = int(np.argmax(gains))
        if gains[best] == 0:
            raise RuntimeError("candidate cells cannot cover the grid: "
                               "program error (itinerary cells cover their "
                               "own points by construction)")
        chosen.append(best)
        uncovered &= ~coverage[best]

    out = {"estimate": len(chosen), "n": n, "cells_considered": C,
           "grid_size": G}
    if delta is not None:
        net = shadowing_net(sys, n, delta / 2.0, budget)
        out["shadowing_bound"] = net["r_estimate"]
        out["bound_note"] = "c(U,n) <= r(n, delta/2) with delta the Lebesgue number"
    return out


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
    bound = ComplexityCurve(epsilon=epsilon,
                            meta={"kind": "inverse-limit product bound",
                                  "delta": delta, "levels": N})
    for n in common:
        prod = 1
        for c in level_curves:
            prod *= int(c.rs()[list(c.ns()).index(n)])
        bound.records.append({"n": n, "r": prod, "net_size": prod, "grid": None})
    return bound
