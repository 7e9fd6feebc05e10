"""Right-invariant coordinate metric on a nilpotent group and its quotient.

The group distance used here is the one-hop bound

    dist(x, y) = min(|psi(x y^-1)|_inf, |psi(y x^-1)|_inf),

which is exactly right-invariant ((xg)(yg)^-1 = xy^-1 is an algebraic
identity) and topologically equivalent to the path-infimum metric near the
diagonal. The quotient distance minimizes over lattice translates gamma with
integer coordinates in a finite sup-norm box; the true infimum is attained in
such a box for bounded representatives, but no formula for its size is
available, so the radius is a tunable with a safe default.

The box is searched by branch and bound, one lattice coordinate at a time.
The group law is triangular, so coordinate i of z = y gamma, z^-1, x z^-1 and
z x^-1 depends only on gamma_0..gamma_i and is computed with exactly the
floating-point operations of `NilGroup.mul_block` and `inv_block`. The running
maxima of |x z^-1| and |z x^-1| over the coordinates fixed so far bound every
completion of a branch from below, exactly, and a branch is dropped once that
bound exceeds the value of a box element found by a greedy dive. The minimizer
is never dropped, so the result is the full-box minimum bit for bit.

The one-hop variant may violate the triangle inequality away from the
diagonal. Everything downstream (shadowing nets, witness searches) only needs
symmetry, identity of indiscernibles and local equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nilgroup import GroupElement, NilGroup, element


class BudgetError(RuntimeError):
    """A configured enumeration or search budget was exceeded."""


@dataclass(frozen=True)
class MetricParams:
    """Lattice search radius for quotient distances.

    gamma_bound: sup-norm radius C for lattice candidates; None picks
    2 + max coordinate norm of the two representatives.
    max_cells: cap on the size (2C+1)^m of the lattice box. The pruned
    search evaluates far fewer candidates, but the cap still applies to the
    box it searches, so the same radii are refused.
    """

    gamma_bound: float | None = None
    max_cells: int = 200_000

    def __post_init__(self):
        if self.gamma_bound is not None and not 1 <= self.gamma_bound < np.inf:  # NaN too
            raise ValueError("gamma_bound must be finite and >= 1")


DEFAULT_PARAMS = MetricParams()


@dataclass(frozen=True)
class QuotientPoint:
    """Point of G/Gamma as its canonical representative with coords in [0,1)."""

    rep: GroupElement

    def __post_init__(self):
        c = self.rep.coords
        if np.any(c < 0.0) or np.any(c >= 1.0):
            raise ValueError("representative is not reduced to [0,1)^m")

    @property
    def group(self) -> NilGroup:
        return self.rep.group

    @property
    def coords(self):
        return self.rep.coords


def quotient_point(group: NilGroup, coords) -> QuotientPoint:
    """Reduce arbitrary coordinates to the canonical fundamental-domain rep."""
    frac, _ = group.reduce_block(element(group, coords).coords)
    return QuotientPoint(element(group, frac))


def dist_group(x: GroupElement, y: GroupElement) -> float:
    if x.group is not y.group:
        raise ValueError("points from different groups")
    grp = x.group
    return float(dist_group_block(grp, x.coords[None, :], y.coords[None, :])[0])


def dist_group_block(grp: NilGroup, X, Y):
    """Rowwise one-hop distance for (..., m) coordinate blocks."""
    d1 = np.max(np.abs(grp.mul_block(X, grp.inv_block(Y))), axis=-1)
    d2 = np.max(np.abs(grp.mul_block(Y, grp.inv_block(X))), axis=-1)
    return np.minimum(d1, d2)


def dist_quotient(p: QuotientPoint, q: QuotientPoint,
                  params: MetricParams = DEFAULT_PARAMS) -> float:
    if p.group is not q.group:
        raise ValueError("points from different groups")
    return float(dist_quotient_block(p.group, p.coords[None, :], q.coords[None, :], params)[0])


def dist_quotient_block(grp: NilGroup, P, Q, params: MetricParams = DEFAULT_PARAMS):
    """Rowwise quotient distance for reduced coordinate blocks P, Q.

    Minimizes dist_group over both families (p, q gamma) and (q, p gamma) so
    the candidate set, and hence the value, is symmetric in (p, q). Both
    families and all pairs share one pruned search over the lattice box
    (see the module docstring); the value equals the full-box minimum.

    The default radius ceil(2 + max |coordinate|) is read over the whole
    block, P and Q together: it is the one input that crosses rows. Reduced
    rows give 3 in any block, except a block whose coordinates are all 0,
    where every distance is 0 under any radius. So a block of reduced pairs,
    or of reduced rows each against one shared row such as a ball centre,
    gives bit for bit the values of one-row calls.
    """
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    bound = params.gamma_bound
    if bound is None:
        bound = 2.0 + max(np.max(np.abs(P)) if P.size else 0.0,
                          np.max(np.abs(Q)) if Q.size else 0.0)
    radius = int(np.ceil(bound))
    m = grp.dim
    count = (2 * radius + 1) ** m
    if count > params.max_cells:
        raise BudgetError(
            "lattice enumeration needs %d cells (> budget %d); lower gamma_bound"
            % (count, params.max_cells))
    shape = np.broadcast_shapes(P.shape[:-1], Q.shape[:-1])
    P = np.broadcast_to(P, shape + (m,)).reshape(-1, m)
    Q = np.broadcast_to(Q, shape + (m,)).reshape(-1, m)
    # branch state, one row per branch: y, x, z = y gamma | gamma, z^-1, x^-1;
    # branches 2k and 2k+1 are the families (p, q gamma) and (q, p gamma) of pair k
    root = np.empty((2 * len(P), 6, m))
    root[0::2, 0], root[0::2, 1] = Q, P
    root[1::2, 0], root[1::2, 1] = P, Q
    root[:, 5] = grp.inv_block(root[:, 1])
    gammas = np.arange(-radius, radius + 1, dtype=float)
    pair = np.arange(len(root)) >> 1
    zero = np.zeros(len(root))

    # greedy dive: one branch per family, the child of least lower bound
    state, a, b = root.copy(), zero, zero
    rows = np.arange(len(root))
    for i in range(m):
        z, w, A, B = _children(grp, i, gammas, state, a, b)
        k = np.argmin(np.minimum(A, B), axis=1)
        state[:, 2, i], state[:, 3, i], state[:, 4, i] = z[rows, k], gammas[k], w[rows, k]
        a, b = A[rows, k], B[rows, k]
    dive = np.minimum(a, b)
    cut = np.minimum(dive[0::2], dive[1::2])   # a box element's value, per pair

    # search: keep every child whose lower bound does not exceed the cut
    # (a NaN bound is kept, so a row with a NaN coordinate stays NaN)
    state, a, b = root, zero, zero
    for i in range(m):
        z, w, A, B = _children(grp, i, gammas, state, a, b)
        par, k = np.nonzero(~(np.minimum(A, B) > cut[pair][:, None]))
        pair, state = pair[par], state[par]
        state[:, 2, i], state[:, 3, i], state[:, 4, i] = z[par, k], gammas[k], w[par, k]
        a, b = A[par, k], B[par, k]
    out = np.full(len(P), np.inf)
    np.minimum.at(out, pair, np.minimum(a, b))
    return out.reshape(shape)


def _children(grp: NilGroup, i, gammas, state, a, b):
    """Coordinate i of z = y gamma and z^-1 for every (branch, gamma_i) child,
    with the running maxima of |x z^-1| and |z x^-1| over coordinates 0..i.

    Each coordinate repeats the operations of `mul_block` and `inv_block`:
    t_i + u_i, then += p(t_<i, u_<i); -t_i, then += q(t_<i).
    """
    y, x, ix = state[:, 0, i, None], state[:, 1, i, None], state[:, 5, i, None]
    pa = pb = None
    z = y + gammas
    if i and grp.mul_polys[i - 1].terms:
        # one call for y gamma, x z^-1 and z x^-1: (y, x, z) against (gamma, z^-1, x^-1)
        pz, pa, pb = grp.mul_polys[i - 1](state[:, 0:3], state[:, 3:6]).T
        z += pz[:, None]
    w = -z
    if i and grp.inv_polys[i - 1].terms:
        w += grp.inv_polys[i - 1](state[:, 2])[:, None]
    A = x + w
    B = z + ix
    if pa is not None:
        A += pa[:, None]
        B += pb[:, None]
    return z, w, np.maximum(a[:, None], np.abs(A)), np.maximum(b[:, None], np.abs(B))


def orbit_distance_growth(system, x: QuotientPoint, y: QuotientPoint, n_max: int):
    """Ratios d(T^n x, T^n y) / d(x, y) for n = 1..n_max plus a log-log slope fit.

    Requires d(x, y) > 0. `system` must be a nilsystem handle produced by
    `nillab.systems.make_nilsystem` (its points are reduced coordinate rows,
    and row 0 of an orbit is the point itself, so d(x, y) is entry 0).
    """
    if x.group is not y.group:
        raise ValueError("points from different groups")
    ox = system.orbit_block(x.coords, n_max + 1)
    oy = system.orbit_block(y.coords, n_max + 1)
    dists = dist_quotient_block(x.group, ox, oy)
    d0 = float(dists[0])
    if d0 <= 0.0:
        raise ValueError("base points coincide; growth ratio undefined")
    ns = np.arange(1, n_max + 1)
    ratios = dists[1:] / d0
    good = ratios > 0
    slope = float(np.polyfit(np.log(ns[good]), np.log(ratios[good]), 1)[0])
    return {"n": ns, "ratio": ratios, "base_distance": d0, "loglog_slope": slope}
