"""Dynamical parallelepipeds, face moves, and budgeted witness searches.

A dimension-d cube over a system is the family (T^{n.eps} x) indexed by
eps in {0,1}^d with n.eps = sum n_i eps_i. The searches here look for
regional-proximality witnesses (two nearby points whose cube coordinates
collapse within delta for some exponent vector) and for cube-pattern
realizations of a two-point set, the combinatorial criterion behind
IP-independence of a pair.

A NotFound outcome is always labeled budget-exhausted: the scan cannot
certify non-membership, only report that this budget found nothing. Every
witness returned is re-validated against the raw definition; a validation
failure raises instead of degrading to a miss.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .budgets import DEFAULT_BUDGET, SearchBudget
from .systems import SystemHandle, symbol_resolution


def vertex_set(d):
    """All eps in {0,1}^d, least-significant index first: eps[i] multiplies n_i."""
    return [tuple(int(b) for b in np.binary_repr(code, width=d)[::-1])
            for code in range(2 ** d)]


@dataclass(frozen=True)
class Cube:
    """Points indexed by the vertices of the d-cube."""

    dim: int
    points: dict

    def __post_init__(self):
        if set(self.points) != set(vertex_set(self.dim)):
            raise ValueError("cube must hold exactly one point per vertex of {0,1}^d")

    def point(self, eps):
        return self.points[tuple(eps)]

    def permute(self, perm):
        """Euclidean permutation: relabel cube axes by the given permutation of [d]."""
        out = {}
        for eps, p in self.points.items():
            new_eps = tuple(eps[perm[i]] for i in range(self.dim))
            out[new_eps] = p
        return Cube(self.dim, out)


@dataclass(frozen=True)
class FaceMove:
    """Apply T^exponent on the face {eps : j in eps} of a d-cube."""

    d: int
    j: int
    exponent: int

    def __post_init__(self):
        if not 1 <= self.j <= self.d:
            raise ValueError("face index j must lie in 1..d")


def sample_cube(sys: SystemHandle, x, n) -> Cube:
    """Cube (T^{n.eps} x)_eps for an exponent vector n in Z^d."""
    n = [int(v) for v in n]
    d = len(n)
    exps = {eps: sum(ni * ei for ni, ei in zip(n, eps)) for eps in vertex_set(d)}
    lo, hi = min(exps.values()), max(exps.values())
    orbit = sys.orbit_span(np.asarray(x), lo, hi)
    return Cube(d, {eps: orbit[e - lo] for eps, e in exps.items()})


def apply_face(sys: SystemHandle, c: Cube, move: FaceMove) -> Cube:
    if move.d != c.dim:
        raise ValueError("face move dimension does not match cube dimension")
    out = {}
    for eps, p in c.points.items():
        if eps[move.j - 1]:
            orbit = sys.orbit_span(p, min(0, move.exponent), max(0, move.exponent))
            p = orbit[move.exponent - min(0, move.exponent)]
        out[eps] = p
    return Cube(c.dim, out)


@dataclass(frozen=True)
class RPWitness:
    """Approximants and exponent vector certifying a delta-collapse of a cube."""

    x_approx: tuple
    y_approx: tuple
    n: tuple
    achieved_delta: float


def _spiral_order(N, d, max_cells=None):
    """Exponent vectors of [-N, N]^d ordered by sup-norm shell, then lexicographically.

    Returns an (S, d) int array. If the box exceeds max_cells the radius is
    shrunk so small witnesses are still scanned first.
    """
    if max_cells is not None:
        while N > 1 and (2 * N + 1) ** d > max_cells:
            N = int(((max_cells ** (1.0 / d)) - 1) // 2)
    axes = [np.arange(-N, N + 1)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    vecs = np.stack([m.ravel() for m in mesh], axis=1)
    shell = np.max(np.abs(vecs), axis=1)
    order = np.lexsort(tuple(vecs[:, i] for i in range(d - 1, -1, -1)) + (shell,))
    return vecs[order]


def _candidate_pool(sys, x, delta, budget, rng, cap=64):
    """Orbit points of x plus sampled points, filtered to the delta-ball at x.

    Deterministic: orbit points in exponent-spiral order first, then sampler
    points in draw order; capped to keep pair scans affordable.
    """
    half = budget.max_candidates // 2
    orbit = sys.orbit_span(np.asarray(x), -half, half)
    order = np.argsort(np.abs(np.arange(-half, half + 1)), kind="stable")
    pool = np.concatenate([orbit[order], sys.sample_block(rng, budget.max_candidates)])
    keep = []
    for i, p in enumerate(pool):
        if sys.metric(p, x) < delta:
            keep.append(i)
            if len(keep) >= cap:
                break
    return pool[keep]


def rp_test(sys: SystemHandle, x, y, d, delta, budget: SearchBudget = DEFAULT_BUDGET):
    """Search for a regional-proximality witness of order d for the pair (x, y).

    Success returns a validated RPWitness; failure returns a report dict with
    status "budget-exhausted" (never a claim of non-membership).
    """
    if d < 1:
        raise ValueError("order d must be >= 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    x, y = np.asarray(x), np.asarray(y)
    rng = np.random.default_rng(budget.seed)
    nonempty = [eps for eps in vertex_set(d) if any(eps)]

    if sys.metric(x, y) < delta:
        w = RPWitness(tuple(np.ravel(x).tolist()), tuple(np.ravel(y).tolist()),
                      (0,) * d, validate_rp_witness(sys, x, y, x, y, (0,) * d))
        return w

    cand_x = _candidate_pool(sys, x, delta, budget, rng)
    cand_y = _candidate_pool(sys, y, delta, budget, rng)
    spiral = _spiral_order(budget.n_range, d, budget.max_cells)
    span = int(np.max(np.abs(spiral))) * d if len(spiral) else 0
    stats = {"pairs": 0, "n_values": len(spiral)}

    # one orbit per candidate, candidates first: (candidates, 2*span+1, dim)
    orbits_x = np.ascontiguousarray(np.swapaxes(sys.orbit_span(cand_x, -span, span), 0, 1))
    orbits_y = np.ascontiguousarray(np.swapaxes(sys.orbit_span(cand_y, -span, span), 0, 1))
    eps_mat = np.array(nonempty)                           # (E, d)
    idx = spiral @ eps_mat.T + span                        # (S, E)

    best = None
    for ix, ox in enumerate(orbits_x):
        for iy, oy in enumerate(orbits_y):
            stats["pairs"] += 1
            close = sys.metric_block(ox, oy) < delta       # (2*span+1,)
            hits = np.all(close[idx], axis=1)
            if np.any(hits):
                s = int(np.argmax(hits))                   # first in spiral order
                n_vec = tuple(int(v) for v in spiral[s])
                ach = validate_rp_witness(sys, x, y, cand_x[ix], cand_y[iy], n_vec,
                                          delta=delta)
                cand = RPWitness(tuple(np.ravel(cand_x[ix]).tolist()),
                                 tuple(np.ravel(cand_y[iy]).tolist()),
                                 n_vec, ach)
                if best is None or _spiral_rank(cand.n) < _spiral_rank(best.n):
                    best = cand
        if best is not None:
            break
    if best is not None:
        return best
    return {"status": "budget-exhausted", "found": False,
            "pairs_checked": stats["pairs"], "n_values": stats["n_values"],
            "note": "no witness at this budget; search cannot certify non-membership"}


def _spiral_rank(n_vec):
    return (max(abs(c) for c in n_vec), n_vec)


def validate_rp_witness(sys, x, y, x_approx, y_approx, n_vec, delta=None):
    """Recompute the witness conditions from the raw definition.

    Returns the achieved delta (max over the approximation distances and the
    nonempty-vertex collapses); raises if a claimed witness fails its bound.
    """
    d = len(n_vec)
    vals = [sys.metric(x, np.asarray(x_approx)), sys.metric(y, np.asarray(y_approx))]
    cx = sample_cube(sys, x_approx, n_vec)
    cy = sample_cube(sys, y_approx, n_vec)
    for eps in vertex_set(d):
        if any(eps):
            vals.append(sys.metric(cx.point(eps), cy.point(eps)))
    achieved = float(max(vals))
    if delta is not None and achieved >= delta:
        raise RuntimeError(
            "witness failed re-validation (achieved %.3g >= delta %.3g): program error"
            % (achieved, delta))
    return achieved


def cube_criterion(sys: SystemHandle, x1, x2, d, delta,
                   budget: SearchBudget = DEFAULT_BUDGET):
    """Realizability report of all 2^(2^d) two-point cube patterns.

    For each pattern s: {0,1}^d -> {1, 2} the search looks for a base point z
    and exponents n with T^{n.eps} z within delta of x_{s(eps)} for every
    vertex. Symbolic systems that can assemble points from symbol constraints
    get constructive witnesses; everything else is a sampler/orbit scan.
    """
    if d > 3:
        raise ValueError("pattern enumeration is 2^(2^d); d <= 3 is the supported budget")
    if d < 1:
        raise ValueError("order d must be >= 1")
    x1, x2 = np.asarray(x1), np.asarray(x2)
    verts = vertex_set(d)
    patterns = list(itertools.product((1, 2), repeat=len(verts)))
    results = {}

    searcher = _ConstructiveCubeSearch(sys, x1, x2, delta) \
        if sys.construct_point is not None else None
    scan = None

    for pat in patterns:
        assignment = dict(zip(verts, pat))
        witness = searcher.find(assignment) if searcher is not None else None
        if witness is None:
            if scan is None:
                scan = _ScanCubeSearch(sys, x1, x2, d, delta, budget)
            witness = scan.find(assignment)
        key = "".join(str(s) for s in pat)
        if witness is None:
            results[key] = {"realized": False, "status": "budget-exhausted"}
        else:
            z, n_vec = witness
            ach = _validate_pattern(sys, x1, x2, assignment, z, n_vec, delta)
            results[key] = {"realized": True, "n": list(n_vec),
                            "achieved_delta": ach,
                            "base_point": np.ravel(z).tolist()}
    realized = sum(r["realized"] for r in results.values())
    return {"d": d, "delta": delta, "patterns": results,
            "all_realized": realized == len(patterns),
            "failures": [k for k, r in results.items() if not r["realized"]],
            "budget": {"n_range": budget.n_range, "seed": budget.seed,
                       "max_candidates": budget.max_candidates,
                       "constructive": searcher is not None},
            "verdict": "all patterns realized" if realized == len(patterns)
                       else "%d of %d patterns not realized within budget"
                            % (len(patterns) - realized, len(patterns))}


def _validate_pattern(sys, x1, x2, assignment, z, n_vec, delta):
    cube = sample_cube(sys, z, n_vec)
    targets = {1: x1, 2: x2}
    vals = [sys.metric(cube.point(eps), targets[which])
            for eps, which in assignment.items()]
    achieved = float(max(vals))
    if achieved >= delta:
        raise RuntimeError("pattern witness failed re-validation: program error")
    return achieved


class _ConstructiveCubeSearch:
    """Assemble a base point from symbol constraints (full-shift style systems)."""

    def __init__(self, sys, x1, x2, delta):
        self.sys = sys
        self.delta = delta
        w = symbol_resolution(delta)
        self.radius = w - 1 if w >= 1 else 0
        windows = {}
        for which, x in ((1, x1), (2, x2)):
            win = sys.to_window(x)
            c = win.half_length
            lo, hi = c - self.radius, c + self.radius + 1
            windows[which] = np.array(win.word[lo:hi], dtype=np.int8)
        self.windows = windows

    def find(self, assignment):
        sep = 2 * self.radius + 2
        d = len(next(iter(assignment)))
        n_vec = tuple(sep * (2 ** i) for i in range(d))
        constraints = []
        for eps, which in assignment.items():
            off = sum(ni * ei for ni, ei in zip(n_vec, eps))
            constraints.append((off - self.radius, self.windows[which]))
        z = self.sys.construct_point(constraints)
        if z is None:
            return None
        return z, n_vec


class _ScanCubeSearch:
    """Sampler/orbit scan over base points and an exponent spiral."""

    def __init__(self, sys, x1, x2, d, delta, budget):
        self.sys = sys
        self.delta = delta
        self.d = d
        rng = np.random.default_rng(budget.seed)
        half = max(budget.max_candidates // 8, 8)
        pool = [sys.orbit_span(x1, -half, half), sys.orbit_span(x2, -half, half),
                sys.sample_block(rng, budget.max_candidates)]
        self.zs = np.concatenate([np.asarray(p, dtype=pool[0].dtype) for p in pool])
        if len(self.zs) > budget.max_candidates:
            self.zs = self.zs[:budget.max_candidates]
        self.spiral = _spiral_order(budget.n_range, d, budget.max_cells)
        self.span = int(np.max(np.abs(self.spiral))) * d if len(self.spiral) else 0
        verts = vertex_set(d)
        self.verts = verts
        self.idx = self.spiral @ np.array(verts).T + self.span
        # near[which][z, t]: is T^t z within delta of x_which
        rows1, rows2 = [], []
        for z in self.zs:
            orbit = sys.orbit_span(z, -self.span, self.span)
            rows1.append(sys.metric_block(
                orbit, np.broadcast_to(np.asarray(x1), orbit.shape)) < delta)
            rows2.append(sys.metric_block(
                orbit, np.broadcast_to(np.asarray(x2), orbit.shape)) < delta)
        self.near = {1: np.array(rows1), 2: np.array(rows2)}

    def find(self, assignment):
        ok_any = None
        for zi in range(len(self.zs)):
            ok = np.ones(len(self.spiral), dtype=bool)
            for vi, eps in enumerate(self.verts):
                which = assignment[eps]
                ok &= self.near[which][zi][self.idx[:, vi]]
                if not ok.any():
                    break
            if ok.any():
                s = int(np.argmax(ok))
                return self.zs[zi], tuple(int(v) for v in self.spiral[s])
        return None
