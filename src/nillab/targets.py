"""Target sets shared by covers and independence checks: metric balls and
symbol cylinders.

Every target has one method, `depth(sys, P)`: how far inside the set each
point row of the block P sits, positive exactly on members. Membership is
therefore `depth > 0` for every kind of target. For a ball that is exact in
floating point (`r - d > 0` iff `d < r`); a cylinder's depth is either its
inner radius or -1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Ball:
    """Open metric ball: points within `radius` of `center`."""

    center: tuple
    radius: float

    def depth(self, sys, P):
        center = np.asarray(self.center)
        return self.radius - sys.metric_block(P, np.broadcast_to(center, P.shape))


@dataclass(frozen=True)
class CylinderUnion:
    """Union of symbol cylinders, each a (word, anchor) pair: the word read
    from offset `anchor` of a point's window."""

    cylinders: tuple

    def depth(self, sys, P):
        words = np.stack([np.asarray(sys.to_window(p).word) for p in P])
        c = (words.shape[1] - 1) // 2
        inside = np.zeros(len(P), dtype=bool)
        for word, anchor in self.cylinders:
            lo = c + anchor
            seg = words[:, lo:lo + len(word)]
            inside |= np.all(seg == np.asarray(word), axis=1)
        # a ball of radius below 2^-(max constrained offset) stays inside
        reach = max(max(abs(a), abs(a + len(w) - 1)) for w, a in self.cylinders)
        return np.where(inside, 2.0 ** (-(reach + 1)), -1.0)


@dataclass(frozen=True)
class Cylinder:
    """Points whose window reads `word` from offset `anchor` on."""

    word: tuple
    anchor: int

    def depth(self, sys, P):
        return CylinderUnion(((self.word, self.anchor),)).depth(sys, P)
