"""Right-invariant coordinate metric on a nilpotent group and its quotient.

The group distance used here is the one-hop bound

    dist(x, y) = min(|psi(x y^-1)|_inf, |psi(y x^-1)|_inf),

which is exactly right-invariant ((xg)(yg)^-1 = xy^-1 is an algebraic
identity) and topologically equivalent to the path-infimum metric near the
diagonal. The quotient distance minimizes over lattice translates gamma with
integer coordinates in a finite sup-norm box; the true infimum is attained in
such a box for bounded representatives, but no formula for its size is
available, so the radius is a tunable with a safe default.

The one-hop variant may violate the triangle inequality away from the
diagonal. Everything downstream (shadowing nets, witness searches) only needs
symmetry, identity of indiscernibles and local equivalence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .nilgroup import GroupElement, NilGroup, element, factorize


class BudgetError(RuntimeError):
    """A configured enumeration or search budget was exceeded."""


@dataclass(frozen=True)
class MetricParams:
    """Lattice search radius for quotient distances.

    gamma_bound: sup-norm radius C for lattice candidates; None picks
    2 + max coordinate norm of the two representatives.
    max_cells: cap on the number of enumerated lattice points.
    """

    gamma_bound: float | None = None
    max_cells: int = 200_000

    def __post_init__(self):
        if self.gamma_bound is not None and self.gamma_bound < 1:
            raise ValueError("gamma_bound must be >= 1")


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
    frac, _ = factorize(element(group, coords))
    return QuotientPoint(frac)


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


def _lattice_box(grp: NilGroup, radius: int, max_cells: int):
    count = (2 * radius + 1) ** grp.dim
    if count > max_cells:
        raise BudgetError(
            "lattice enumeration needs %d cells (> budget %d); lower gamma_bound"
            % (count, max_cells))
    rng = range(-radius, radius + 1)
    return np.array(list(itertools.product(*[rng] * grp.dim)), dtype=float)


def dist_quotient(p: QuotientPoint, q: QuotientPoint,
                  params: MetricParams = DEFAULT_PARAMS) -> float:
    if p.group is not q.group:
        raise ValueError("points from different groups")
    return float(dist_quotient_block(p.group, p.coords[None, :], q.coords[None, :], params)[0])


def dist_quotient_block(grp: NilGroup, P, Q, params: MetricParams = DEFAULT_PARAMS):
    """Rowwise quotient distance for reduced coordinate blocks P, Q.

    Minimizes dist_group over both families (p, q gamma) and (q, p gamma) so
    the candidate set, and hence the value, is symmetric in (p, q).
    """
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    bound = params.gamma_bound
    if bound is None:
        bound = 2.0 + max(np.max(np.abs(P)) if P.size else 0.0,
                          np.max(np.abs(Q)) if Q.size else 0.0)
    gammas = _lattice_box(grp, int(np.ceil(bound)), params.max_cells)  # (G, m)
    qg = grp.mul_block(Q[..., None, :], gammas)                        # (..., G, m)
    pg = grp.mul_block(P[..., None, :], gammas)
    d1 = np.min(dist_group_block(grp, P[..., None, :], qg), axis=-1)
    d2 = np.min(dist_group_block(grp, Q[..., None, :], pg), axis=-1)
    return np.minimum(d1, d2)


def orbit_distance_growth(system, x: QuotientPoint, y: QuotientPoint, n_max: int):
    """Ratios d(T^n x, T^n y) / d(x, y) for n = 1..n_max plus a log-log slope fit.

    Requires d(x, y) > 0. `system` must be a nilsystem handle produced by
    `nillab.systems.make_nilsystem` (its points are reduced coordinate rows).
    """
    d0 = dist_quotient(x, y)
    if d0 <= 0.0:
        raise ValueError("base points coincide; growth ratio undefined")
    grp = x.group
    ox = system.orbit_block(x.coords, n_max + 1)
    oy = system.orbit_block(y.coords, n_max + 1)
    dists = dist_quotient_block(grp, ox[1:], oy[1:])
    ns = np.arange(1, n_max + 1)
    ratios = dists / d0
    good = ratios > 0
    slope = float(np.polyfit(np.log(ns[good]), np.log(ratios[good]), 1)[0])
    return {"n": ns, "ratio": ratios, "base_distance": d0, "loglog_slope": slope}
