"""Sparse real polynomials in two blocks of variables t_1..t_r and u_1..u_r.

These encode coordinate group laws: the i-th product coordinate is a
polynomial in the coordinates of both factors with index < i, and the i-th
inverse coordinate is a polynomial in the element's own lower coordinates.
Evaluation is vectorized over arbitrary leading axes.
"""

from __future__ import annotations


class SparsePoly:
    """Sum of terms c * t^a * u^b with nonnegative integer exponents.

    `terms` holds (coeff, t_exps, u_exps) triples, each planned once, when the
    polynomial is built, as (coeff, factors): one (is_u, index, exponent)
    factor per nonzero exponent, t factors before u, each in index order.
    """

    def __init__(self, terms=()):
        self.terms = tuple((float(c), tuple(int(e) for e in a), tuple(int(e) for e in b))
                           for c, a, b in terms)
        self.plan = tuple(
            (c, tuple((False, i, e) for i, e in enumerate(a) if e)
             + tuple((True, i, e) for i, e in enumerate(b) if e))
            for c, a, b in self.terms)
        self.arity = max((i + 1 for _, factors in self.plan for _, i, _ in factors), default=0)

    def __repr__(self):
        if not self.terms:
            return "SparsePoly(0)"
        return "SparsePoly(%d terms, arity %d)" % (len(self.terms), self.arity)

    def __call__(self, t, u=None):
        """Evaluate on float arrays (..., r), reading indices below the arity:
        each term is coeff times its factors left to right (x ** e for e > 1),
        added onto 0.0 in stored order."""
        out = 0.0
        for term, factors in self.plan:
            for is_u, i, e in factors:
                x = (u if is_u else t)[..., i]
                term = term * (x ** e if e > 1 else x)
            out = out + term
        return out

    def uses_u(self) -> bool:
        return any(is_u for _, factors in self.plan for is_u, _, _ in factors)

    @staticmethod
    def zero() -> "SparsePoly":
        return SparsePoly()

    @staticmethod
    def from_json(obj) -> "SparsePoly":
        return SparsePoly((d["coeff"], d.get("t_exps", []), d.get("u_exps", [])) for d in obj)

    def to_json(self):
        return [{"coeff": c, "t_exps": list(a), "u_exps": list(b)} for c, a, b in self.terms]


def monomial(coeff, t_exps=(), u_exps=()) -> SparsePoly:
    """Single-term polynomial, convenient for building group laws in code."""
    return SparsePoly([(coeff, t_exps, u_exps)])
