"""Target sets shared by covers, independence checks and cube searches:
metric balls and symbol cylinders.

Every target has `depth(sys, P)`: how far inside the set each point row of
the block P sits, positive exactly on members. Membership is therefore
`depth > 0` for every kind of target. For a ball that is exact in floating
point (`r - d > 0` iff `d < r`); a cylinder's depth is either its inner
radius or -1.

The exact searches read a target through `arcs(coding)`, the set as an arc
union on a rotation coding's circle, and `run()`, the set as one symbol run
`(offset, int8 symbols)`; None means the target has no such form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arcs import ArcUnion
from .systems import open_symbol_resolution


@dataclass(frozen=True)
class Ball:
    """Open metric ball: points within `radius` of `center`."""

    center: tuple
    radius: float

    def __post_init__(self):
        if not 0 < self.radius < np.inf:        # NaN too
            raise ValueError("ball radius must be positive and finite, not %r" % self.radius)

    def depth(self, sys, P):
        center = np.asarray(self.center)
        return self.radius - sys.metric_block(P, np.broadcast_to(center, P.shape))

    def arcs(self, coding):
        center = np.ravel(np.asarray(self.center, dtype=float))
        if len(coding.partition) == 1:
            # plain circle rotation: metric balls are arcs
            return ArcUnion.interval(center[0] - self.radius, center[0] + self.radius)
        # coded system: the ball is the cylinder of the center's window
        w = open_symbol_resolution(self.radius)
        word = coding.symbols_block(center[:1], np.arange(-(w - 1), w))[0]
        return Cylinder(tuple(int(s) for s in word), -(w - 1)).arcs(coding)

    def run(self):
        # the center row's stored symbols out to |j| <= w-1, or its own reach
        row = np.asarray(self.center, dtype=float)
        if len(row) % 2 == 0:
            raise ValueError("ball centre %r has no centre symbol: a centre row has odd "
                             "length, offsets -L..L" % (self.center,))
        c = (len(row) - 1) // 2
        r = min(open_symbol_resolution(self.radius) - 1, c)
        symbols = row[c - r:c + r + 1]
        if not np.isin(symbols, np.arange(-128, 128)).all():
            raise ValueError("ball centre %r holds a value that is no int8 symbol"
                             % (self.center,))
        return (-r, symbols.astype(np.int8))


@dataclass(frozen=True)
class CylinderUnion:
    """Union of symbol cylinders, each a (word, anchor) pair: the word read
    from offset `anchor` of a point's window."""

    cylinders: tuple

    def depth(self, sys, P):
        if sys.window is None:
            raise ValueError("a cylinder needs symbols: %s points have no window" % sys.name)
        words = sys.window(P)                   # (..., 2c+1) symbols at offsets -c..c
        c = (words.shape[-1] - 1) // 2
        reach = max(max(abs(a), abs(a + len(w) - 1)) for w, a in self.cylinders)
        if reach > c:
            raise ValueError("cylinder word reaches offset %d, past the window "
                             "[-%d, %d]" % (reach, c, c))
        inside = np.zeros(words.shape[:-1], dtype=bool)
        for word, anchor in self.cylinders:
            lo = c + anchor
            inside |= np.all(words[..., lo:lo + len(word)] == np.asarray(word), axis=-1)
        # a ball of radius below 2^-(max constrained offset) stays inside
        return np.where(inside, 2.0 ** (-(reach + 1)), -1.0)

    def arcs(self, coding):
        return None

    def run(self):
        return None


@dataclass(frozen=True)
class Cylinder:
    """Points whose window reads `word` from offset `anchor` on."""

    word: tuple
    anchor: int

    def depth(self, sys, P):
        return CylinderUnion(((self.word, self.anchor),)).depth(sys, P)

    def arcs(self, coding):
        if not all(0 <= s < len(coding.partition) for s in self.word):
            raise ValueError("%r holds a symbol outside the coding's alphabet" % (self,))
        arcs = ArcUnion.full()
        for i, sym in enumerate(self.word):
            base = coding.partition[int(sym)]
            arcs = arcs.intersect(base.shift(-(self.anchor + i) * coding.alpha))
        return arcs

    def run(self):
        return (int(self.anchor), np.asarray(self.word, dtype=np.int8))


# orbit rows per chunk of `visits`, which bounds its memory: a chunk's depth
# calls peak near 32 MB on heisenberg3 and 45 MB on a full shift
SCAN_ROWS = 1 << 14


def scan_chunk(rows):
    """Points of Z per chunk of `visits` over orbit spans of that many rows."""
    return max(1, SCAN_ROWS // rows)


def visits(sys, targets, Z, times, *, member):
    """Table D[i, z, j] of T^times[j] Z[z] in targets[i], for increasing
    times: its depth, or with member=True whether it is a member (depth > 0)
    at an eighth of the memory. Each (i, z) row is contiguous. One orbit_span
    and one depth call per target for each chunk of about SCAN_ROWS orbit
    rows; every metric_block is row-wise (see `dist_quotient_block`), so
    chunking changes no value. A nilsystem's float rows depend on the span's
    start (other systems' rows depend on t alone), so spans start at
    min(times[0], 0): a row at t >= 0 is the forward orbit's."""
    times = np.asarray(times, dtype=np.int64)
    lo, hi = min(int(times[0]), 0), int(times[-1])
    rows = times - lo
    if (np.diff(rows) == 1).all():
        rows = slice(int(rows[0]), int(rows[-1]) + 1)       # contiguous: a view
    out = np.empty((len(targets), len(Z), len(times)), dtype=bool if member else float)
    step = scan_chunk(hi - lo + 1)
    for a in range(0, len(Z), step):
        orbit = sys.orbit_span(Z[a:a + step], lo, hi)[rows]    # (times, chunk, d)
        for i, target in enumerate(targets):
            depth = target.depth(sys, orbit).T
            out[i, a:a + step] = depth > 0 if member else depth
    return out
