"""Exact arithmetic in second-kind coordinates for nilpotent Lie groups.

A group law is a table of sparse polynomials: the product of elements with
coordinate vectors t, u is

    (t_1 + u_1, t_2 + u_2 + P_1(t_1, u_1), ..., t_m + u_m + P_{m-1}(t_{<m}, u_{<m}))

and the inverse of t is (-t_1, -t_2 + Q_1(t_1), ..., -t_m + Q_{m-1}(t_{<m})).
The triangular structure (coordinate i depends only on lower coordinates of
the inputs) is what makes fundamental-domain reduction a finite peeling.

The lattice of the group is the set of integer coordinate vectors; group laws
are expected to map integer inputs to integer outputs, which `validate_group`
spot-checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .polynomials import SparsePoly, monomial


class GroupLawError(ValueError):
    """Structural problem with a group law table or its operands."""


class NilGroup:
    """Coordinate model of a nilpotent Lie group with a cocompact lattice.

    mul_polys and inv_polys hold m-1 polynomials each; entry i-1 feeds output coordinate i.
    """

    def __init__(self, dim, step, mul_polys, inv_polys, name="custom"):
        if dim < 1:
            raise GroupLawError("dimension must be >= 1")
        if len(mul_polys) != dim - 1 or len(inv_polys) != dim - 1:
            raise GroupLawError("need exactly dim-1 multiplication and inversion polynomials")
        for i, p in enumerate(mul_polys):
            if p.arity > i + 1:
                raise GroupLawError(
                    "mul polynomial %d touches coordinate %d, breaking triangularity"
                    % (i + 1, p.arity))
        for i, q in enumerate(inv_polys):
            if q.arity > i + 1 or q.uses_u():
                raise GroupLawError("inv polynomial %d is not a function of lower t only" % (i + 1))
        self.dim = int(dim)
        self.step = int(step)
        self.mul_polys = tuple(mul_polys)
        self.inv_polys = tuple(inv_polys)
        self.name = name
        # a one-hot right factor peels in `reduce_block`
        self._peels = tuple(self._one_hot_plan(i) for i in range(self.dim))

    def _one_hot_plan(self, i):
        """(coordinate, polynomial) pairs for k != i: the terms of each mul
        polynomial whose u factors all read index i. Each other term
        multiplies a zero of a factor that is zero off index i, so dropping it
        changes a finite sum by the sign of a zero at most, which reaches no
        nonzero value and no reduced coordinate (x - floor(x))."""
        plan = []
        for k, p in enumerate(self.mul_polys, 1):
            kept = [term for term, (_, factors) in zip(p.terms, p.plan)
                    if all(j == i for u_side, j, _ in factors if u_side)]
            if kept and k != i:
                plan.append((k, SparsePoly(kept)))
        return tuple(plan)

    def __repr__(self):
        return "NilGroup(%r, dim=%d, step=%d)" % (self.name, self.dim, self.step)

    # -- block kernels (vectorized over leading axes) --

    def mul_block(self, t, u):
        t = np.asarray(t, dtype=float)
        u = np.asarray(u, dtype=float)
        out = t + u
        for i, p in enumerate(self.mul_polys, 1):
            if p.terms:
                out[..., i] += p(t, u)
        return out

    def inv_block(self, t):
        t = np.asarray(t, dtype=float)
        out = -t
        for i, q in enumerate(self.inv_polys, 1):
            if q.terms:
                out[..., i] += q(t)
        return out

    def identity_coords(self):
        return np.zeros(self.dim)

    def reduce_block(self, t):
        """Fundamental-domain part of each row: coordinates peeled into [0, 1).

        Returns (frac, n) with n the integer peeling exponents; the lattice
        part is basis_power(n_m)···basis_power(n_1), see `lattice_coords`.
        Peeling index i multiplies on the right by the row that is -n_i at i
        and zero elsewhere, so only the terms of `_one_hot_plan` move.
        """
        f = np.array(t, dtype=float)
        ns = np.zeros(f.shape, dtype=np.int64)
        peel = np.zeros(f.shape)         # the plans read column i at step i only
        for i in range(self.dim):
            n_i = np.floor(f[..., i])
            # floor of a tiny negative gives frac 1.0 after rounding; renormalize
            frac_i = f[..., i] - n_i
            bump = frac_i >= 1.0
            n_i = n_i + bump
            ns[..., i] = n_i
            peel[..., i] = -n_i
            # every increment from the row before the step, as mul_block reads it
            for k, inc in [(k, p(f, peel)) for k, p in self._peels[i]]:
                f[..., k] += inc
            f[..., i] = np.where(bump, frac_i - 1.0, frac_i)
        return f, ns

    def lattice_coords(self, ns):
        """Coordinates of the lattice element produced by `reduce_block`: the
        products e_i · gamma for the rows e_i that hold n_i at i and zero
        elsewhere."""
        ns = np.asarray(ns, dtype=float)
        gamma = np.zeros(ns.shape)
        for i in range(self.dim):
            e = np.zeros(ns.shape)
            e[..., i] = ns[..., i]
            gamma = self.mul_block(e, gamma)
        return np.rint(gamma)

    def save_json(self, path):
        doc = {
            "dimension": self.dim,
            "step": self.step,
            "mul_polys": [p.to_json() for p in self.mul_polys],
            "inv_polys": [q.to_json() for q in self.inv_polys],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)


@dataclass(frozen=True)
class GroupElement:
    """An element as its coordinate vector in a fixed group."""

    coord: tuple
    group: NilGroup

    def __post_init__(self):
        c = np.asarray(self.coord, dtype=float)
        if c.shape != (self.group.dim,):
            raise GroupLawError("coordinate length %s does not match dimension %d"
                                % (c.shape, self.group.dim))
        if not np.all(np.isfinite(c)):
            raise GroupLawError("coordinates must be finite")
        object.__setattr__(self, "coord", tuple(float(x) for x in c))

    @property
    def coords(self):
        return np.array(self.coord)


def element(group: NilGroup, coords) -> GroupElement:
    return GroupElement(tuple(np.asarray(coords, dtype=float)), group)


def identity(group: NilGroup) -> GroupElement:
    return element(group, group.identity_coords())


def _same_group(a: GroupElement, b: GroupElement):
    if a.group is not b.group:
        raise GroupLawError("operands belong to different groups")


def mul(a: GroupElement, b: GroupElement) -> GroupElement:
    _same_group(a, b)
    return element(a.group, a.group.mul_block(a.coords, b.coords))


def inv(a: GroupElement) -> GroupElement:
    return element(a.group, a.group.inv_block(a.coords))


def power(g: GroupElement, n: int) -> GroupElement:
    """n-fold product by square-and-multiply, O(log n) group multiplications;
    power(g, -n) = inv(power(g, n))."""
    if n < 0:
        return inv(power(g, -n))
    grp = g.group
    acc = grp.identity_coords()
    base = g.coords
    while n:
        if n & 1:
            acc = grp.mul_block(acc, base)
        n >>= 1
        if n:
            base = grp.mul_block(base, base)
    return element(grp, acc)


def power_sequence(g: GroupElement, count: int):
    """Coordinates of g^0, g^1, ..., g^{count-1} as a (count, m) array.

    Evaluated coordinate by coordinate with cumulative sums: each product
    coordinate is previous + g's + P_{i-1}(previous lower coords, g lower
    coords), so the whole orbit of powers reduces to vectorized prefix sums.
    """
    grp = g.group
    m = grp.dim
    out = np.zeros((count, m))
    if count == 0:
        return out
    base = g.coords
    n = np.arange(count)
    out[:, 0] = n * base[0]
    for i, p in enumerate(grp.mul_polys, 1):
        incr = np.full(count - 1, base[i])
        if p.terms:
            incr = incr + p(out[:-1], base)
        out[1:, i] = np.cumsum(incr)
    return out


def psi_norm(a: GroupElement) -> float:
    """Sup-norm of the coordinate vector."""
    return float(np.max(np.abs(a.coords))) if a.group.dim else 0.0


def factorize(a: GroupElement):
    """Split a = frac * lattice with frac coordinates in [0,1) and integer lattice.

    The lattice generators are peeled off coordinate by coordinate in
    increasing index; triangularity keeps already-reduced coordinates fixed.
    """
    grp = a.group
    f, ns = grp.reduce_block(a.coords[None, :])
    frac = element(grp, f[0])
    lattice = element(grp, grp.lattice_coords(ns)[0])
    return frac, lattice


# -- built-in groups ----------------------------------------------------------

def heisenberg3() -> NilGroup:
    """3-dimensional Heisenberg group: (a, b, c) ~ unipotent rows (1,a,c / 0,1,b / 0,0,1)."""
    return NilGroup(
        dim=3, step=2,
        mul_polys=[SparsePoly.zero(), monomial(1.0, t_exps=(1, 0), u_exps=(0, 1))],
        inv_polys=[SparsePoly.zero(), monomial(1.0, t_exps=(1, 1))],
        name="heisenberg3",
    )


def abelian(m: int) -> NilGroup:
    """R^m with addition; m = 1 is the circle's covering group."""
    return NilGroup(
        dim=m, step=1,
        mul_polys=[SparsePoly.zero()] * (m - 1),
        inv_polys=[SparsePoly.zero()] * (m - 1),
        name="abelian%d" % m,
    )


_BUILTINS = {"heisenberg3": heisenberg3}


def named_group(name: str) -> NilGroup:
    if name in _BUILTINS:
        return _BUILTINS[name]()
    if name.startswith("abelian"):
        return abelian(int(name[len("abelian"):]))
    raise GroupLawError("unknown built-in group %r" % name)


def load_group(path_or_name: str, validate=True) -> NilGroup:
    """Built-in group by name, or a JSON group-law file."""
    try:
        grp = named_group(path_or_name)
    except (GroupLawError, ValueError):
        with open(path_or_name) as fh:
            doc = json.load(fh)
        try:
            grp = NilGroup(
                dim=int(doc["dimension"]),
                step=int(doc["step"]),
                mul_polys=[SparsePoly.from_json(p) for p in doc["mul_polys"]],
                inv_polys=[SparsePoly.from_json(q) for q in doc["inv_polys"]],
                name=str(doc.get("name", path_or_name)),
            )
        except KeyError as exc:
            raise GroupLawError("group law file %r lacks the field %s"
                                % (path_or_name, exc)) from None
    if validate:
        report = validate_group(grp)
        if not report["ok"]:
            raise GroupLawError("group law failed validation: %s" % report)
    return grp


def validate_group(grp: NilGroup, seed=0):
    """Randomized group-axiom check: identity, inverses, associativity,
    triangular dependence and integer closure of the lattice: 200 rows drawn
    from [-4, 4)^m, and every error must be at most 1e-9."""
    samples, tol, box = 200, 1e-9, 4.0
    rng = np.random.default_rng(seed)
    t = rng.uniform(-box, box, size=(samples, grp.dim))
    u = rng.uniform(-box, box, size=(samples, grp.dim))
    v = rng.uniform(-box, box, size=(samples, grp.dim))
    zero = np.zeros((samples, grp.dim))

    err_id = np.max(np.abs(grp.mul_block(t, zero) - t))
    err_id = max(err_id, np.max(np.abs(grp.mul_block(zero, t) - t)))
    err_inv = np.max(np.abs(grp.mul_block(t, grp.inv_block(t))))
    err_assoc = np.max(np.abs(
        grp.mul_block(grp.mul_block(t, u), v) - grp.mul_block(t, grp.mul_block(u, v))))

    ints = rng.integers(-5, 6, size=(samples, grp.dim)).astype(float)
    jnts = rng.integers(-5, 6, size=(samples, grp.dim)).astype(float)
    prod = grp.mul_block(ints, jnts)
    err_lat = max(np.max(np.abs(prod - np.rint(prod))),
                  np.max(np.abs(grp.inv_block(ints) - np.rint(grp.inv_block(ints)))))

    # perturbing coordinate j must leave product coordinates < j untouched
    err_tri = 0.0
    for j in range(grp.dim):
        bump = np.zeros(grp.dim)
        bump[j] = 0.5
        for left in (True, False):
            pert = grp.mul_block(t + bump, u) if left else grp.mul_block(t, u + bump)
            if j > 0:
                err_tri = max(err_tri, np.max(np.abs(
                    (pert - grp.mul_block(t, u))[:, :j])))

    errs = {"identity": float(err_id), "inverse": float(err_inv),
            "associativity": float(err_assoc), "lattice_integrality": float(err_lat),
            "triangularity": float(err_tri)}
    return {"ok": all(e <= tol for e in errs.values()), "tolerance": tol,
            "samples": samples, "errors": errs}
