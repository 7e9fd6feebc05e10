"""Half-open arc unions on the circle [0, 1), with exact interval combinatorics.

Circle subsets are kept as sorted disjoint non-wrapping intervals [a, b).
This is the exact-set backend for rotation-coded symbolic analysis: cylinder
sets of a rotation coding are finite arc unions, rotations of arc unions are
arc unions, and emptiness of intersections is decidable by endpoint
comparisons (at float resolution).
"""

from __future__ import annotations

import numpy as np


def frac(x):
    """x mod 1 of an array: the bits of `x % 1.0` on finite input (-2^-60 gives 1.0)."""
    whole = np.floor(x)
    return np.subtract(x, whole, out=whole) if isinstance(whole, np.ndarray) else x - whole


class ArcUnion:
    """Union of half-open arcs; `arcs` is a sorted tuple of (lo, hi), lo < hi <= 1."""

    def __init__(self, arcs=()):
        cleaned = sorted((float(a), float(b)) for a, b in arcs if b > a)
        merged = []
        for a, b in cleaned:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        self.arcs = tuple((a, b) for a, b in merged)

    def __repr__(self):
        return "ArcUnion(%s)" % (list(self.arcs),)

    @staticmethod
    def interval(lo, hi) -> "ArcUnion":
        """Arc [lo, hi) taken mod 1; wraps across 0 are split in two."""
        if float(hi) - float(lo) >= 1.0:
            return ArcUnion([(0.0, 1.0)])
        lo, hi = float(lo) % 1.0, float(hi) % 1.0
        if lo < hi:
            return ArcUnion([(lo, hi)])
        if lo == hi:
            return ArcUnion()
        parts = [(lo, 1.0)]
        if hi > 0.0:
            parts.append((0.0, hi))
        return ArcUnion(parts)

    @staticmethod
    def full() -> "ArcUnion":
        return ArcUnion([(0.0, 1.0)])

    def is_empty(self) -> bool:
        return not self.arcs

    def measure(self) -> float:
        return sum(b - a for a, b in self.arcs)

    def shift(self, c) -> "ArcUnion":
        """Rotate the set by +c mod 1."""
        pieces = []
        for a, b in self.arcs:
            pieces.extend(ArcUnion.interval(a + c, b + c).arcs)
        return ArcUnion(pieces)

    def intersect(self, other: "ArcUnion") -> "ArcUnion":
        pieces = []
        for a, b in self.arcs:
            for c, d in other.arcs:
                lo, hi = max(a, c), min(b, d)
                if hi > lo:
                    pieces.append((lo, hi))
        return ArcUnion(pieces)

    def boundaries(self):
        pts = []
        for a, b in self.arcs:
            pts.append(a)
            pts.append(b if b < 1.0 else 0.0)
        return pts

    def contains(self, z):
        """Vectorized half-open membership for points in [0, 1)."""
        z = np.asarray(z, dtype=float)
        out = np.zeros(z.shape, dtype=bool)
        for a, b in self.arcs:
            out |= (z >= a) & (z < b)
        return out


def cut_midpoints(points):
    """Midpoints of the arcs the circle is cut into by the given points.

    Duplicate cut points (within float equality) collapse; with p distinct
    cuts there are exactly p arcs and p midpoints.
    """
    pts = np.unique(frac(np.asarray(points, dtype=float)))
    if pts.size == 0:
        return np.array([0.0])
    gaps = np.diff(np.concatenate([pts, [pts[0] + 1.0]]))
    return frac(pts + gaps / 2.0)
