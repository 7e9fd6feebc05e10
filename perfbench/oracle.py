"""Exact orbit oracle for the orbit-accuracy operations.

Float inputs are converted to `Fraction` exactly, so the reference orbit uses
the very numbers the library received and any difference is arithmetic drift
of the library's float evaluation.

Heisenberg: with the law (a, b, c)(a', b', c') = (a + a', b + b', c + c' + a b'),
the power is tau^n = (n a, n b, n c + n (n - 1) / 2 a b) and the nilsystem point
T^n x = tau^n x is reduced to [0, 1)^3 by peeling coordinates 0, 1, 2 in that
order with right multiplication by lattice generators, as
`NilGroup.reduce_block` does.

Skew product: T^n (x0, x1) = (x0 + n alpha, x1 + n x0 + n (n - 1) / 2 alpha)
mod 1 in each coordinate.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _frac(q: Fraction) -> Fraction:
    return q - math.floor(q)


def heisenberg_point(tau, x, n):
    """Exact reduced coordinates of tau^n x for the Heisenberg nilsystem."""
    a, b, c = (Fraction(float(v)) for v in tau)
    x0, x1, x2 = (Fraction(float(v)) for v in x)
    p0, p1 = n * a, n * b
    p2 = n * c + Fraction(n * (n - 1), 2) * a * b
    # tau^n * x under the Heisenberg law
    f0, f1, f2 = p0 + x0, p1 + x1, p2 + x2 + p0 * x1
    # peel coordinate 0: right-multiply by (-n0, 0, 0); c gains f0 * 0
    f0 -= math.floor(f0)
    # peel coordinate 1: right-multiply by (0, -n1, 0); c gains f0 * (-n1)
    n1 = math.floor(f1)
    f1 -= n1
    f2 -= f0 * n1
    # peel coordinate 2
    f2 -= math.floor(f2)
    return (f0, f1, f2)


def skew_point(alpha, x, n):
    """Exact coordinates of T^n x for the skew product over rotation by alpha."""
    al = Fraction(float(alpha))
    x0, x1 = (Fraction(float(v)) for v in x)
    return (_frac(x0 + n * al), _frac(x1 + n * x0 + Fraction(n * (n - 1), 2) * al))


def wrap_error(row, exact):
    """Largest wrap-around coordinate distance (in turns) of a float row."""
    worst = 0.0
    for got, want in zip(row, exact):
        d = float(_frac(Fraction(float(got)) - want))
        worst = max(worst, min(d, 1.0 - d))
    return worst


def raw_error(row, exact):
    """Largest plain coordinate difference, without wrap-around."""
    return max(abs(float(Fraction(float(got)) - want)) for got, want in zip(row, exact))
