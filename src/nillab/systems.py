"""Dynamical systems as block-vectorized handles, plus the concrete zoo:
torus rotations, skew products, nilsystems on G/Gamma, Sturmian subshifts,
full shifts on finite windows, and inverse-limit towers.

A point is a 1-D numpy array; a block of points is a 2-D array (rows =
points). All handle callables act on blocks so search and covering kernels
can stay vectorized. Scalar helpers wrap single rows.

Symbolic systems use finite center-anchored windows - window half-length L is
part of the system, and every symbolic operation is exact only on the stored
range. The symbolic metric is 2**(-min{|j|: x_j != y_j}) computed over the
window; windows equal on the whole stored range count as distance 0.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arcs import ArcUnion, cut_midpoints
from .nilgroup import NilGroup, element, inv, power, power_sequence
from .nilmetric import MetricParams, dist_quotient_block

# nilsystem orbits advance in chunks of this many steps; where the chunks
# split fixes the rounding of the whole float trajectory
ORBIT_CHUNK = 4096


def wrap_dist_block(P, Q):
    """Max over coordinates of wrap-around distance on the torus."""
    diff = np.abs(np.asarray(P, dtype=float) - np.asarray(Q, dtype=float))
    near = np.minimum(diff, 1.0 - diff)
    out = near[..., 0].copy()    # max by columns: exact, far faster than np.max(axis=-1)
    for j in range(1, near.shape[-1]):
        np.maximum(out, near[..., j], out=out)
    return out[()]                       # a numpy scalar for a single pair, as np.max gives


def cell_count(sys, radius, *blocks):
    """Cells per axis K of a grid in which two points within radius of each
    other lie, on every axis, in the same or cyclically adjacent cells.

    Under the wrap-sup metric on [0, 1]^d, K = max(1, floor(1/radius) - 1)
    makes every cell wider than radius, and so does any smaller K. K > 1
    only under that metric (or a decorator of it that sets `__wrapped__`)
    with every coordinate of every block in [0, 1]. No such bound is proven
    for any other metric, which gets K = 1: one cell.
    """
    if inspect.unwrap(sys.metric_block) is wrap_dist_block \
            and all(not b.size or (b.min() >= 0.0 and b.max() <= 1.0) for b in blocks):
        return max(1, int(1.0 / radius) - 1)
    return 1


def cell_index(block, K):
    """Cell of each coordinate of a block in [0, 1] on a grid of K cells per
    axis, as int64; `% 1.0` can give exactly 1.0, which joins the last cell."""
    return np.clip((block * K).astype(np.int64), 0, K - 1)


class GridError(ValueError):
    """Grid too coarse (or too large) for the requested resolution."""


def product_grid(dim, eps, budget):
    """Dense product grid on [0,1)^dim with per-dimension spacing eps/divisor."""
    divisors = budget.divisor_for(dim)
    counts = []
    for d in divisors:
        spacing = eps / d
        if spacing > eps / 4.0 + 1e-15:
            raise GridError(
                "grid spacing %.4g exceeds eps/4 = %.4g; raise the grid divisor "
                "(>= 4) so the net resolves the target scale" % (spacing, eps / 4.0))
        counts.append(int(math.ceil(1.0 / spacing)) + 1)
    total = int(np.prod(counts))
    if total > budget.max_cells:
        raise GridError("grid has %d points (> budget %d); lower the divisor "
                        "or raise max_cells" % (total, budget.max_cells))
    axes = [(np.arange(c) + 0.5) / c for c in counts]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _product_grid_hook(dim):
    """Grid hook of a torus-like space: the dense product grid at any horizon."""
    return lambda n, eps, budget: (product_grid(dim, eps, budget), False)


def _times(lo, hi, ndim):
    """Times lo..hi as a float column, shaped (T, 1, ..., 1) with ndim ones."""
    return np.arange(lo, hi + 1, dtype=float).reshape((-1,) + (1,) * ndim)


def _uniform_sampler(dim):
    """Sampler of uniform points on [0, 1)^dim."""
    return lambda rng, count: rng.uniform(0.0, 1.0, size=(count, dim))


def _translation(alpha):
    """Closed-form orbit of the translation by alpha on a torus."""
    def orbit(X, lo, hi):
        return (X + _times(lo, hi, X.ndim) * alpha) % 1.0

    return orbit


def approx_rational(x):
    """Fraction with denominator at most 10^4 within 1e-12 of the float, or None.

    The cap is low enough that strongly approximable irrationals (the golden
    ratio's convergents reach 1e-12 accuracy around q ~ 1e6) do not get
    misflagged.
    """
    frac = Fraction(float(x)).limit_denominator(10 ** 4)
    if abs(float(frac) - float(x)) <= 1e-12:
        return frac
    return None


@dataclass
class SystemHandle:
    """A point space with a metric, an invertible transformation and a sampler.

    `orbit` is the only dynamics a constructor supplies: the step and the
    inverse step are its times 1 and -1.
    """

    name: str
    kind: str                      # torus | quotient | symbolic | product
    metric_block: callable         # rowwise distance of two blocks
    sample_block: callable         # (rng, count) -> block
    orbit: callable                # (X (..., d), lo, hi) -> (hi-lo+1, ..., d)
    diameter: float
    flags: tuple = ()
    # (n, eps, budget) -> (block, exact); exact: the rows are pairwise
    # non-shadowing at horizon n, one per shadowing class
    grid: callable = None
    window: callable = None                  # block (..., d) -> int8 symbols (..., 2L+1)
    construct_point: callable = None         # [(offset, 1-d symbols)] -> point | None
    coding: "CircleCoding" = None            # exact rotation-coded structure
    make_point: callable = None              # (*coordinates) -> point; ValueError on a bad count

    # -- dynamics derived from the orbit, and scalar conveniences --

    def step(self, x):
        """T x of a point or a block."""
        return self.orbit(np.asarray(x), 1, 1)[0]

    def inverse_step(self, x):
        """T^-1 x of a point or a block."""
        return self.orbit(np.asarray(x), -1, -1)[0]

    # block spellings of the same maps, for callers that use those names
    # (the tests, perfbench's tracer)
    step_block = step
    inverse_step_block = inverse_step

    def metric(self, x, y):
        return float(self.metric_block(np.asarray(x)[None, :], np.asarray(y)[None, :])[0])

    def orbit_span(self, x, lo, hi):
        """Points T^lo x .. T^hi x (inclusive range) of a point or a block.

        A point of shape (d,) gives shape (hi-lo+1, d); a block of shape
        (..., d) gives (hi-lo+1, ..., d), one orbit per point (none at hi = lo - 1).
        """
        if hi < lo - 1:
            raise ValueError("orbit span %d..%d has negative length" % (lo, hi))
        return self.orbit(np.asarray(x), lo, hi)

    def orbit_block(self, x, count):
        return self.orbit_span(x, 0, count - 1)


def sample_points(sys: SystemHandle, count, seed):
    return sys.sample_block(np.random.default_rng(seed), count)


@dataclass(frozen=True)
class SymbolicWindow:
    """Center-anchored word over {0..k-1} of odd length 2L+1."""

    word: tuple
    alphabet: int
    provenance: dict | None = None

    def __post_init__(self):
        if len(self.word) % 2 != 1:
            raise ValueError("window length must be odd (center-anchored)")
        if any(s < 0 or s >= self.alphabet for s in self.word):
            raise ValueError("symbol out of alphabet range")


@dataclass(frozen=True)
class CircleCoding:
    """A rotation by alpha read through a finite partition of the circle.

    `partition` lists one ArcUnion per symbol; the arcs must tile [0, 1).
    Systems carrying a coding admit exact set combinatorics downstream.
    """

    alpha: float
    partition: tuple

    def symbols_block(self, z, offsets):
        """Symbols of the codings of base points z at the given time offsets.

        z: (...,) circle points; offsets: (cols,) integers.
        Returns an int8 array (..., cols).
        """
        z = np.asarray(z, dtype=float)
        offsets = np.asarray(offsets, dtype=float)
        pos = (z[..., None] + offsets * self.alpha) % 1.0
        out = np.zeros(pos.shape, dtype=np.int8)
        for sym, arcs in enumerate(self.partition):
            if sym == 0:
                continue
            out[arcs.contains(pos)] = sym
        return out


# -- rotations and affine torus maps ------------------------------------------


def make_rotation(alpha) -> SystemHandle:
    """Rotation of the m-torus by the vector alpha (units of full turns)."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float)) % 1.0
    m = alpha.size
    flags = ()
    rats = [approx_rational(a) for a in alpha]
    if all(r is not None for r in rats):
        flags = ("rational-rotation: not minimal",)
    coding = None
    if m == 1:
        coding = CircleCoding(float(alpha[0]), (ArcUnion.full(),))
    return SystemHandle(
        name="rotation", kind="torus", orbit=_translation(alpha),
        metric_block=wrap_dist_block, sample_block=_uniform_sampler(m),
        diameter=0.5, grid=_product_grid_hook(m), flags=flags, coding=coding,
    )


def make_skew_product(alpha) -> SystemHandle:
    """T(x, y) = (x + alpha, y + x) on the 2-torus; the basic polynomial-orbit map."""
    alpha = float(alpha) % 1.0

    def orbit(X, lo, hi):
        n = _times(lo, hi, X.ndim - 1)
        out = np.empty((len(n),) + X.shape)
        out[..., 0] = (X[..., 0] + n * alpha) % 1.0
        out[..., 1] = (X[..., 1] + n * X[..., 0] + n * (n - 1) / 2.0 * alpha) % 1.0
        return out

    return SystemHandle(
        name="skew", kind="torus",
        metric_block=wrap_dist_block, sample_block=_uniform_sampler(2),
        orbit=orbit, diameter=0.5, grid=_product_grid_hook(2),
    )


# -- nilsystems ----------------------------------------------------------------


def make_nilsystem(group: NilGroup, tau,
                   metric_params: MetricParams = MetricParams()) -> SystemHandle:
    """Left translation x -> tau x on G/Gamma in reduced coordinates.

    Points are fundamental-domain coordinate rows (all entries in [0, 1));
    the step reduces tau * x back to the fundamental domain and the metric is
    the lattice-minimized one-hop distance.
    """
    tau = element(group, np.asarray(tau, dtype=float)) if not hasattr(tau, "coords") else tau
    tau_inv = inv(tau)
    m = group.dim
    # tau^0, tau^1, ... as far as any orbit has needed; cumsum prefixes are bit-equal
    chunk_powers = power_sequence(tau, 1)

    def _reduce(P):
        return group.reduce_block(P)[0]

    def metric_block(P, Q):
        return dist_quotient_block(group, P, Q, metric_params)

    def orbit(X, lo, hi):
        nonlocal chunk_powers
        count = hi - lo + 1
        powers = chunk_powers           # kept whole if a concurrent call replaces it
        if len(powers) <= min(count, ORBIT_CHUNK):
            powers = chunk_powers = power_sequence(tau, min(count, ORBIT_CHUNK) + 1)
        out = np.empty((count,) + X.shape)
        base = np.asarray(X, dtype=float)
        if lo != 0:
            # jump to T^lo x, then advance forward
            jump = power(tau if lo > 0 else tau_inv, abs(lo))
            base = _reduce(group.mul_block(jump.coords, base))
        lead = (1,) * (X.ndim - 1)      # the powers broadcast over the block
        filled = 0
        while filled < count:
            chunk = min(ORBIT_CHUNK, count - filled)
            out[filled:filled + chunk] = _reduce(
                group.mul_block(powers[:chunk].reshape((chunk,) + lead + (m,)), base))
            filled += chunk
            if filled < count:
                base = _reduce(group.mul_block(powers[chunk], base))
        return out

    sample_block = _uniform_sampler(m)
    probe = sample_block(np.random.default_rng(0), 48)
    return SystemHandle(
        name="nilsystem", kind="quotient",
        metric_block=metric_block, sample_block=sample_block, orbit=orbit,
        diameter=float(np.max(metric_block(probe[:, None, :], probe[None, :, :]))),
        grid=_product_grid_hook(m),
    )


# -- Sturmian subshift ---------------------------------------------------------


def sturmian_coding(alpha) -> CircleCoding:
    """Binary coding partition {[0, 1-alpha) -> 0, [1-alpha, 1) -> 1}."""
    alpha = float(alpha) % 1.0
    return CircleCoding(alpha, (ArcUnion.interval(0.0, 1.0 - alpha),
                                ArcUnion.interval(1.0 - alpha, 1.0)))


def sturmian_code(alpha, z, L) -> SymbolicWindow:
    """Window of the rotation coding of z at offsets -L..L.

    Symbol at offset n is 0 iff frac(z + n*alpha) lies in [0, 1-alpha);
    the boundary point 1-alpha itself codes to 1 (half-open convention).
    """
    coding = sturmian_coding(alpha)
    word = coding.symbols_block(np.array([float(z) % 1.0]), np.arange(-L, L + 1))[0]
    return SymbolicWindow(tuple(int(s) for s in word), 2,
                          provenance={"alpha": float(alpha), "z": float(z) % 1.0, "L": int(L)})


def make_sturmian(alpha, L=16) -> SystemHandle:
    """Shift on the Sturmian subshift generated by the rotation coding.

    Points carry the circle position z as provenance (shape (1,) rows); the
    window of radius L around the anchor is recomputed from z on demand, so
    the shift is exact. The metric reads the coding window only out to |j|<=L.
    """
    alpha = float(alpha) % 1.0
    flags = ()
    if approx_rational(alpha) is not None:
        flags = ("rational-alpha: coding degenerates, not minimal",)
    coding = sturmian_coding(alpha)
    offsets = np.arange(-L, L + 1)

    def window(P):
        return coding.symbols_block(P[..., 0], offsets)

    def metric_block(P, Q):
        return _window_distance(window(P), window(Q), L)

    def grid(n, eps, budget):
        # one point per coding cell of the window that decides (n, eps)-shadowing
        w = symbol_resolution(eps)
        lo, hi = -(w - 1), n + (w - 1)
        cuts = (-np.arange(lo, hi + 2) * alpha) % 1.0
        mids = cut_midpoints(cuts)
        if mids.size > budget.max_cells:
            raise GridError("sturmian cylinder grid has %d points (> budget %d)"
                            % (mids.size, budget.max_cells))
        return mids[:, None], True

    return SystemHandle(
        name="sturmian", kind="symbolic", orbit=_translation(alpha),
        metric_block=metric_block, sample_block=_uniform_sampler(1),
        diameter=1.0, grid=grid,
        window=window, coding=coding, flags=flags,
    )


def symbol_resolution(eps):
    """Smallest w with 2^-w <= eps: agreement out to |j| <= w-1 decides eps-closeness."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return max(1, int(math.ceil(-math.log2(eps))))


def open_symbol_resolution(radius):
    """Smallest w >= 0 with 2^-w < radius: agreement out to |j| <= w-1 decides
    membership in the open ball (`symbol_resolution` is the closed version)."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    mant, exp = math.frexp(radius)      # radius = mant * 2^exp, 0.5 <= mant < 1
    return max(0, 1 - exp + (mant == 0.5))


def _window_distance(WP, WQ, L):
    """2^-(min |offset| of disagreement) for stacked windows at offsets -L..L."""
    diff = WP != WQ
    absoff = np.abs(np.arange(-L, L + 1))
    big = 2 * L + 2
    first = np.min(np.where(diff, absoff[None, :], big), axis=-1)
    return np.where(first == big, 0.0, 2.0 ** (-first.astype(float)))


# -- full shift on finite windows ------------------------------------------------


def make_fullshift(k, L=8, reserve=128) -> SystemHandle:
    """Shift on finitely supported {0..k-1} sequences, stored on [-L-r, L+r].

    Sampled points are random on the window [-L, L] and 0 outside; the stored
    range gives an exact shift for up to `reserve` steps in each direction.
    Orbit row t is T^t x on the stored range, with x read as 0 outside it;
    only compositions of steps that push symbols past the range lose them.
    """
    if k < 2:
        raise ValueError("alphabet size must be >= 2")
    half = L + reserve
    width = 2 * half + 1
    center = half

    def metric_block(P, Q):
        return _window_distance(P, Q, half)

    def sample_block(rng, count):
        out = np.zeros((count, width), dtype=np.int8)
        out[:, center - L:center + L + 1] = rng.integers(0, k, size=(count, 2 * L + 1),
                                                         dtype=np.int8)
        return out

    def window(P):
        return P[..., center - L:center + L + 1]

    def construct_point(constraints):
        """Point holding the given symbol runs; None on conflict, overflow or
        a symbol outside 0..k-1."""
        out = np.zeros(width, dtype=np.int8)
        runs = [(center + int(offset), np.asarray(symbols, dtype=np.int8))
                for offset, symbols in constraints]
        if any(start < 0 or start + run.size > width for start, run in runs):
            return None
        if not runs:
            return out
        starts = np.array([start for start, _ in runs])
        sizes = np.array([run.size for _, run in runs])
        ends = np.cumsum(sizes)
        # one scatter of the concatenated runs (entry i of a run lands at its
        # start + i); a position two runs disagree on keeps only one of their
        # symbols, so the read-back differs there
        pos = np.repeat(starts - ends + sizes, sizes) + np.arange(ends[-1])
        symbols = np.concatenate([run for _, run in runs])
        out[pos] = symbols
        # as bytes, negative symbols read as 128 and up
        if max(symbols.tobytes(), default=0) >= k or not (out[pos] == symbols).all():
            return None
        return out

    def orbit(X, lo, hi):
        # row t is the stored range of T^t x, with x zero outside that range
        left, right = max(-lo, 0), max(hi, 0)
        padded = np.zeros(X.shape[:-1] + (left + width + right,), dtype=X.dtype)
        padded[..., left:left + width] = X
        windows = np.lib.stride_tricks.sliding_window_view(padded, width, axis=-1)
        return np.moveaxis(windows[..., left + lo:left + hi + 1, :], -2, 0).copy()

    def grid(n, eps, budget):
        # every window that decides (n, eps)-shadowing, once each
        w = symbol_resolution(eps)
        span = n + 2 * w - 1
        if k ** span > budget.max_cells:
            raise GridError("full-shift cylinder grid needs %d^%d windows (> budget %d)"
                            % (k, span, budget.max_cells))
        if w - 1 > half or n + w - 1 > half:
            raise ValueError("horizon exceeds the stored window range")
        rows = np.zeros((k ** span, width), dtype=np.int8)
        codes = np.arange(k ** span)
        for j in range(span):
            rows[:, center - (w - 1) + j] = (codes // (k ** j)) % k
        return rows, True

    return SystemHandle(
        name="fullshift", kind="symbolic",
        metric_block=metric_block, sample_block=sample_block, orbit=orbit,
        diameter=1.0, grid=grid, window=window, construct_point=construct_point,
    )


# -- inverse limits --------------------------------------------------------------


def make_inverse_limit(levels, factor_maps) -> SystemHandle:
    """Finite tower of systems glued along factor maps, with metric sum 2^-i rho_i.

    A point of the tower is fixed by its top entry, so points, samples,
    orbits and grid rows are the top level's; the metric reads level i
    through the composed factor maps.

    factor_maps[i] sends level-(i+2) point blocks onto level-(i+1) blocks and
    must intertwine the steps within 1e-9 on 64 sampled points (seed 0).
    """
    levels = list(levels)
    if len(factor_maps) != len(levels) - 1:
        raise ValueError("need one factor map between each consecutive pair of levels")
    rng = np.random.default_rng(0)
    for i, pi in enumerate(factor_maps):
        upper, lower = levels[i + 1], levels[i]
        X = upper.sample_block(rng, 64)
        resid = np.max(lower.metric_block(pi(upper.step(X)), lower.step(pi(X))))
        if resid > 1e-9:
            raise ValueError(
                "factor map %d is not a semiconjugacy on samples (residual %.3g)"
                % (i, resid))

    top = levels[-1]
    weights = np.array([0.5 ** (i + 1) for i in range(len(levels))])

    def _down(P):
        """The points of levels 0..top under a block of top points."""
        parts = [P]
        for pi in reversed(factor_maps):
            parts.append(pi(parts[-1]))
        return parts[::-1]

    def metric_block(P, Q):
        return sum(w * lvl.metric_block(pp, qq)
                   for w, lvl, pp, qq in zip(weights, levels, _down(P), _down(Q)))

    def grid(n, eps, budget):
        if top.grid is None:
            raise ValueError("top level offers no grid to thread")
        return top.grid(n, eps, budget)[0], False

    diam = float(np.dot(weights, [lvl.diameter for lvl in levels]))
    return SystemHandle(
        name="inverse_limit", kind="product",
        metric_block=metric_block, sample_block=top.sample_block, orbit=top.orbit,
        diameter=diam, grid=grid,
    )
