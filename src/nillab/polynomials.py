"""Sparse real polynomials in two blocks of variables t_1..t_r and u_1..u_r.

These encode coordinate group laws: the i-th product coordinate is a
polynomial in the coordinates of both factors with index < i, and the i-th
inverse coordinate is a polynomial in the element's own lower coordinates.
Evaluation is vectorized over arbitrary leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Monomial:
    coeff: float
    t_exps: tuple[int, ...]
    u_exps: tuple[int, ...]

    def arity(self) -> int:
        t_hi = max((i + 1 for i, e in enumerate(self.t_exps) if e), default=0)
        u_hi = max((i + 1 for i, e in enumerate(self.u_exps) if e), default=0)
        return max(t_hi, u_hi)


class SparsePoly:
    """Sum of monomials c * t^a * u^b with nonnegative integer exponents."""

    def __init__(self, terms=()):
        self.terms = tuple(
            t if isinstance(t, Monomial) else Monomial(float(t[0]), tuple(t[1]), tuple(t[2]))
            for t in terms
        )
        self.arity = max((t.arity() for t in self.terms), default=0)

    def __repr__(self):
        if not self.terms:
            return "SparsePoly(0)"
        return "SparsePoly(%d terms, arity %d)" % (len(self.terms), self.arity)

    def __call__(self, t, u=None):
        """Evaluate on coordinate arrays of shape (..., r) with r >= arity."""
        t = np.asarray(t, dtype=float)
        u = None if u is None else np.asarray(u, dtype=float)
        shape = t.shape[:-1] if u is None else np.broadcast_shapes(t.shape[:-1], u.shape[:-1])
        out = np.zeros(shape)
        for mono in self.terms:
            term = np.full(shape, mono.coeff)
            for i, e in enumerate(mono.t_exps):
                if e:
                    term = term * (t[..., i] ** e if e > 1 else t[..., i])
            for i, e in enumerate(mono.u_exps):
                if e:
                    if u is None:
                        raise ValueError("polynomial uses u-variables but no u supplied")
                    term = term * (u[..., i] ** e if e > 1 else u[..., i])
            out = out + term
        return out

    def uses_u(self) -> bool:
        return any(any(e for e in t.u_exps) for t in self.terms)

    @staticmethod
    def zero() -> "SparsePoly":
        return SparsePoly()

    @staticmethod
    def from_json(obj) -> "SparsePoly":
        terms = [
            Monomial(float(d["coeff"]), tuple(int(e) for e in d.get("t_exps", [])),
                     tuple(int(e) for e in d.get("u_exps", [])))
            for d in obj
        ]
        return SparsePoly(terms)

    def to_json(self):
        return [
            {"coeff": t.coeff, "t_exps": list(t.t_exps), "u_exps": list(t.u_exps)}
            for t in self.terms
        ]


def monomial(coeff, t_exps=(), u_exps=()) -> SparsePoly:
    """Single-term polynomial, convenient for building group laws in code."""
    return SparsePoly([Monomial(float(coeff), tuple(t_exps), tuple(u_exps))])
