"""Birkhoff averages on a geometric time grid, plus two experiment harnesses:
an empirical unique-ergodicity probe and tail-oscillation statistics.

Averages are single-pass streaming sums over the orbit's chunks; observables are
vectorized callables on point blocks. Oscillation is the max gap between
partial averages over the tail of the N-grid (default: N >= N_max / 10),
which exposes non-Cauchy behavior without storing whole traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .systems import SystemHandle


@dataclass
class AverageTrace:
    n_grid: tuple
    averages: tuple
    oscillation: float
    tail_from: int

    def final(self):
        return self.averages[-1]


def geometric_grid(n_max):
    """Powers of two up to n_max, always ending exactly at n_max."""
    grid, n = [], 1
    while n < n_max:
        grid.append(n)
        n *= 2
    return grid + [int(n_max)]


def birkhoff(sys: SystemHandle, f, x, n_grid=None, n_max=None) -> AverageTrace:
    """Partial averages (1/N) sum_{i<N} f(T^i x) at each N in the grid.

    One pass over the chunks of the rows of orbit_block(x, N_max), holding
    one chunk at a time. N A_N is one sequential running sum of f along
    those rows, so where the chunks split changes no bit, and the
    telescoping identity (N+1) A_{N+1} - N A_N = f(T^N x) holds by
    construction.
    """
    if n_grid is None:
        if n_max is None:
            raise ValueError("pass n_grid or n_max")
        n_grid = geometric_grid(n_max)
    n_grid = [int(n) for n in n_grid]
    if not n_grid or n_grid[0] < 1 or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly increasing and positive")
    top, marks = n_grid[-1], np.array(n_grid)
    sums, total, done = [], 0.0, 0
    for chunk in sys.orbit(np.asarray(x), 0, top - 1):
        values = np.array(f(chunk), dtype=float)    # a copy: f may hand back its input
        values[0] += total                          # so the cumsum continues the last one
        csum = np.cumsum(values)
        sums.extend(csum[marks[(marks > done) & (marks <= done + len(csum))] - done - 1])
        done, total = done + len(csum), csum[-1]
    averages = [s / n for s, n in zip(sums, n_grid)]
    tail_from = max(1, top // 10)
    tail = [a for n, a in zip(n_grid, averages) if n >= tail_from]
    osc = float(max(tail) - min(tail)) if len(tail) >= 2 else 0.0
    return AverageTrace(n_grid=tuple(n_grid), averages=tuple(averages),
                        oscillation=osc, tail_from=tail_from)


def coordinate_cos(index):
    """Observable cos(2 pi x_index), the basic character along one coordinate."""
    f = lambda P: np.cos(2.0 * np.pi * np.asarray(P, dtype=float)[..., index])
    f.observable_id = "cos2pi[%d]" % index
    return f


def coordinate(index):
    f = lambda P: np.asarray(P, dtype=float)[..., index]
    f.observable_id = "coord[%d]" % index
    return f


def unique_ergodicity_probe(sys: SystemHandle, observables, starts, n_max):
    """Spread of tail averages across starting points, per observable.

    A uniquely ergodic system drives all starts to the same average; the
    probe reports the worst spread and a verdict at resolution eta = 0.01.
    This is finite evidence, not a certificate.
    """
    if len(observables) < 3 or len(starts) < 3:
        raise ValueError("need at least 3 observables and 3 starts")
    spreads = {}
    for f in observables:
        finals = [birkhoff(sys, f, x, n_max=n_max).final() for x in starts]
        spreads[getattr(f, "observable_id", repr(f))] = float(max(finals) - min(finals))
    worst = max(spreads.values())
    eta = 0.01
    verdict = ("consistent with unique ergodicity at resolution %g" % eta
               if worst <= eta else "start-dependent averages detected")
    return {"spreads": spreads, "max_spread": worst, "eta": eta,
            "verdict": verdict, "n_max": int(n_max),
            "note": "empirical probe: finite-orbit evidence only"}


def oscillation_contrast(trace_a: AverageTrace, trace_b: AverageTrace):
    """Ratio of tail oscillations of two traces (experiment statistic)."""
    if trace_b.oscillation == 0.0:
        return float("inf") if trace_a.oscillation > 0 else 1.0
    return trace_a.oscillation / trace_b.oscillation
