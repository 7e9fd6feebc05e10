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
from .systems import SystemHandle, cell_count, cell_index
from .targets import Ball, visits


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


def _spiral_index(budget, d, verts):
    """(spiral, span, idx): the exponent vectors of [-N, N]^d ordered by
    sup-norm shell, then lexicographically, with N = n_range shrunk until the
    box fits max_cells; and idx[s, v] = spiral[s].verts[v] + span, the row of
    vertex v under the s-th vector in an orbit over [-span, span].
    """
    N = budget.n_range
    while N > 1 and (2 * N + 1) ** d > budget.max_cells:
        N = int(((budget.max_cells ** (1.0 / d)) - 1) // 2)
    # the box comes out in lexicographic order, and a stable sort by shell
    # keeps that order within each shell
    vecs = np.indices((2 * N + 1,) * d).reshape(d, -1).T - N
    spiral = vecs[np.argsort(np.max(np.abs(vecs), axis=1), kind="stable")]
    span = int(np.max(np.abs(spiral))) * d
    return spiral, span, spiral @ np.array(verts).T + span


def _first_hit(rows, idx):
    """First spiral index s with rows[v][idx[s, v]] true for every column v
    of idx, or None; rows holds one boolean orbit row per column."""
    ok = rows[0][idx[:, 0]]
    for v in range(1, idx.shape[1]):
        if not ok.any():
            return None
        ok &= rows[v][idx[:, v]]
    return int(np.argmax(ok)) if ok.any() else None


# points of the delta-ball a candidate pool keeps, to keep pair scans affordable
POOL_CAP = 64


def _candidate_pool(sys, x, delta, budget, rng):
    """Orbit points of x plus sampled points, filtered to the delta-ball at x.

    Deterministic: orbit points in exponent-spiral order first, then sampler
    points in draw order; capped at POOL_CAP.
    """
    half = budget.max_candidates // 2
    orbit = sys.orbit_span(np.asarray(x), -half, half)
    order = np.argsort(np.abs(np.arange(-half, half + 1)), kind="stable")
    pool = np.concatenate([orbit[order], sys.sample_block(rng, budget.max_candidates)])
    near = sys.metric_block(pool, np.broadcast_to(x, pool.shape)) < delta
    return pool[np.flatnonzero(near)[:POOL_CAP]]


def rp_test(sys: SystemHandle, x, y, d, delta, budget: SearchBudget = DEFAULT_BUDGET):
    """Search for a regional-proximality witness of order d for the pair (x, y).

    Success returns a validated RPWitness; failure returns a report dict with
    status "budget-exhausted" (never a claim of non-membership).

    The scan pairs every x-candidate with every y-candidate and looks for
    spiral exponents whose vertex times all bring the pair within delta.
    Pruning: a pair within delta at time t lies, on every axis, in the same
    or cyclically adjacent cells of a grid whose cells are wider than delta
    (`systems.cell_count`). So if at every time some axis of an
    x-candidate's point is more than one cell from every y-candidate's
    point on that axis, no y-candidate comes within delta of it at any
    time: its row of pairs has no close time, and the candidate is dropped.
    y-candidates are dropped the same way. The bound needs the wrap-sup
    metric with every coordinate in [0, 1]; under any other metric
    (nilsystems, Furstenberg, symbolic systems, towers) K = 1, and with
    K <= 3 every cell is next to every other, so nothing is dropped and no
    table is built. The tables, one 64-bit cell mask per time and axis (K
    is capped at 64, which keeps the cells wider than delta), cost about one
    x-candidate's row of pairs, so they are built once the first row has
    found nothing; a witness in the first row pays nothing. The surviving
    pairs run in the unpruned order with the same metric call, so
    witnesses, statuses and counts are those of the full scan.
    """
    if d < 1:
        raise ValueError("order d must be >= 1")
    if not delta > 0:
        raise ValueError("delta must be positive")
    x, y = np.asarray(x), np.asarray(y)
    rng = np.random.default_rng(budget.seed)
    nonempty = [eps for eps in vertex_set(d) if any(eps)]

    if sys.metric(x, y) < delta:
        return RPWitness(tuple(np.ravel(x).tolist()), tuple(np.ravel(y).tolist()),
                         (0,) * d, validate_rp_witness(sys, x, y, x, y, (0,) * d))

    cand_x = _candidate_pool(sys, x, delta, budget, rng)
    cand_y = _candidate_pool(sys, y, delta, budget, rng)
    spiral, span, idx = _spiral_index(budget, d, nonempty)

    # one orbit per candidate, (2*span+1, candidates, dim); y rows contiguous
    orbits_x = sys.orbit_span(cand_x, -span, span)
    orbits_y = sys.orbit_span(cand_y, -span, span)
    rows_y = np.ascontiguousarray(np.swapaxes(orbits_y, 0, 1))

    # the first x candidate with a hit decides; among its y candidates the
    # one first in spiral order (then in pool order) wins, and only that
    # witness is re-validated
    live_x, ys = None, range(len(cand_y))
    for ix in range(len(cand_x)):
        if live_x is not None and not live_x[ix]:
            continue
        ox = np.ascontiguousarray(orbits_x[:, ix])
        best = None
        for iy in ys:
            close = sys.metric_block(ox, rows_y[iy]) < delta       # (2*span+1,)
            if not close.any():
                continue
            s = _first_hit([close] * len(nonempty), idx)
            if s is not None and (best is None or s < best[0]):
                best = (s, iy)
        if best is not None:
            n_vec = tuple(int(v) for v in spiral[best[0]])
            xa, ya = cand_x[ix], cand_y[best[1]]
            ach = validate_rp_witness(sys, x, y, xa, ya, n_vec, delta=delta)
            return RPWitness(tuple(np.ravel(xa).tolist()), tuple(np.ravel(ya).tolist()),
                             n_vec, ach)
        if live_x is None:
            live_x, live_y = _live_candidates(sys, delta, orbits_x, orbits_y)
            ys = np.flatnonzero(live_y)
    return {"status": "budget-exhausted", "found": False,
            "pairs_checked": len(cand_x) * len(cand_y), "n_values": len(spiral),
            "note": "no witness at this budget; search cannot certify non-membership"}


# cells per axis of the pruning tables: one bit of a uint64 per cell
MASK_CELLS = 64


def _live_candidates(sys, delta, orbits_x, orbits_y):
    """(live_x, live_y): per candidate (axis 1 of the (times, candidates,
    dim) orbit blocks), whether at some time its cell on every axis is next
    to a cell the other pool occupies on that axis."""
    K = min(cell_count(sys, delta, orbits_x, orbits_y), MASK_CELLS)
    if K <= 3:
        return np.ones(orbits_x.shape[1], dtype=bool), np.ones(orbits_y.shape[1], dtype=bool)
    bits_x, bits_y = (np.left_shift(np.uint64(1), cell_index(o, K).view(np.uint64))
                      for o in (orbits_x, orbits_y))
    return (np.any(np.all(bits_x & _neighbourhood(bits_y, K)[:, None], axis=-1), axis=0),
            np.any(np.all(bits_y & _neighbourhood(bits_x, K)[:, None], axis=-1), axis=0))


def _neighbourhood(bits, K):
    """occ[t, j]: the cells that candidates occupy on axis j at time t, and
    their cyclic neighbours, as bits of a uint64; bits holds one bit per
    coordinate, (times, candidates, dim)."""
    occ = np.bitwise_or.reduce(bits, axis=1)
    one, top = np.uint64(1), np.uint64(K - 1)
    up = ((occ << one) & np.uint64((1 << K) - 1)) | (occ >> top)      # c -> c + 1
    down = (occ >> one) | ((occ & one) << top)                        # c -> c - 1
    return occ | up | down


def _cube_gap(sys, z, n_vec, refs):
    """Largest distance from a vertex T^{n.eps} z of the cube to refs[eps],
    over the vertices eps that refs names."""
    cube = sample_cube(sys, z, n_vec)
    return float(max(sys.metric(cube.point(eps), p) for eps, p in refs.items()))


def validate_rp_witness(sys, x, y, x_approx, y_approx, n_vec, delta=None):
    """Recompute the witness conditions from the raw definition.

    Returns the achieved delta (max over the approximation distances and the
    nonempty-vertex collapses); raises if a claimed witness fails its bound.
    """
    cy = sample_cube(sys, y_approx, n_vec)
    collapse = _cube_gap(sys, x_approx, n_vec,
                         {eps: p for eps, p in cy.points.items() if any(eps)})
    achieved = max(sys.metric(x, np.asarray(x_approx)),
                   sys.metric(y, np.asarray(y_approx)), collapse)
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
    get constructive witnesses from the symbol runs of the two delta-balls;
    every other pattern goes to a sampler/orbit scan.
    """
    if d > 3:
        raise ValueError("pattern enumeration is 2^(2^d); d <= 3 is the supported budget")
    if d < 1:
        raise ValueError("order d must be >= 1")
    x1, x2 = np.asarray(x1), np.asarray(x2)
    verts = vertex_set(d)
    patterns = list(itertools.product((1, 2), repeat=len(verts)))
    results = {}

    balls = {1: Ball(x1, delta), 2: Ball(x2, delta)}
    runs = None
    if sys.construct_point is not None:
        runs = {which: ball.run() for which, ball in balls.items()}
    scan = None

    for pat in patterns:
        assignment = dict(zip(verts, pat))
        witness = _construct_pattern(sys, runs, assignment) if runs is not None else None
        if witness is None:
            if scan is None:
                scan = _cube_scan(sys, balls, d, budget)
            witness = scan(assignment)
        key = "".join(str(s) for s in pat)
        if witness is None:
            results[key] = {"realized": False, "status": "budget-exhausted"}
        else:
            z, n_vec = witness
            ach = _validate_pattern(sys, balls, assignment, z, n_vec, delta)
            results[key] = {"realized": True, "n": list(n_vec),
                            "achieved_delta": ach,
                            "base_point": np.ravel(z).tolist()}
    realized = sum(r["realized"] for r in results.values())
    return {"d": d, "delta": delta, "patterns": results,
            "all_realized": realized == len(patterns),
            "failures": [k for k, r in results.items() if not r["realized"]],
            "budget": {"n_range": budget.n_range, "seed": budget.seed,
                       "max_candidates": budget.max_candidates,
                       "constructive": runs is not None},
            "verdict": "all patterns realized" if realized == len(patterns)
                       else "%d of %d patterns not realized within budget"
                            % (len(patterns) - realized, len(patterns))}


def _validate_pattern(sys, balls, assignment, z, n_vec, delta):
    achieved = _cube_gap(sys, z, n_vec,
                         {eps: balls[which].center for eps, which in assignment.items()})
    if achieved >= delta:
        raise RuntimeError("pattern witness failed re-validation: program error")
    return achieved


def _construct_pattern(sys, runs, assignment):
    """(z, n): z holds the run of ball s(eps) at each vertex offset n.eps, with
    n_i = sep * 2^i and sep one past the longest run, so the offsets are
    distinct multiples of sep and no runs overlap; None if a run leaves z."""
    sep = max(len(symbols) for _, symbols in runs.values()) + 1
    n_vec = tuple(sep * 2 ** i for i in range(len(next(iter(assignment)))))
    z = sys.construct_point([
        (sum(n * e for n, e in zip(n_vec, eps)) + runs[which][0], runs[which][1])
        for eps, which in assignment.items()])
    return None if z is None else (z, n_vec)


def _cube_scan(sys, balls, d, budget):
    """Sampler/orbit scan over base points and the exponent spiral: returns
    find(assignment) -> (z, n_vec) or None, the first base point in pool
    order with a spiral vector that puts each vertex in its ball."""
    rng = np.random.default_rng(budget.seed)
    half = max(budget.max_candidates // 8, 8)
    pool = [sys.orbit_span(np.asarray(b.center), -half, half) for b in balls.values()]
    pool.append(sys.sample_block(rng, budget.max_candidates))
    zs = np.concatenate([np.asarray(p, dtype=pool[0].dtype) for p in pool])
    zs = zs[:budget.max_candidates]
    verts = vertex_set(d)
    spiral, span, idx = _spiral_index(budget, d, verts)
    # near[which - 1, z, t + span]: T^t zs[z] in ball `which`, t in [-span, span]
    near = visits(sys, [balls[1], balls[2]], zs, range(-span, span + 1), member=True)

    def find(assignment):
        for zi, z in enumerate(zs):
            s = _first_hit([near[assignment[eps] - 1, zi] for eps in verts], idx)
            if s is not None:
                return z, tuple(int(v) for v in spiral[s])
        return None

    return find
