"""Shared budget knob for every search and covering kernel."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SearchBudget:
    """Caps for grid-and-scan searches.

    grid_divisor: grid spacing is epsilon / divisor per dimension (scalar or
    one value per dimension).
    max_candidates: orbit/sampler candidate points per pool.
    n_range: iteration exponents are searched in [-n_range, n_range].
    seed: sampler seed; identical budgets give identical scans.
    max_cells: cap on enumerated grid points, lattice cells or patterns.
    """

    grid_divisor: object = 8.0
    max_candidates: int = 1000
    n_range: int = 100
    seed: int = 0
    max_cells: int = 2_000_000

    def __post_init__(self):
        divisors = self.grid_divisor if hasattr(self.grid_divisor, "__len__") \
            else (self.grid_divisor,)
        if any(not 0 < d < float("inf") for d in divisors) or self.max_candidates <= 0 \
                or self.n_range <= 0 or self.max_cells <= 0:
            raise ValueError("budget fields must be positive and finite")

    def divisor_for(self, dim):
        if hasattr(self.grid_divisor, "__len__"):
            if len(self.grid_divisor) != dim:
                raise ValueError("grid_divisor length does not match dimension")
            return [float(d) for d in self.grid_divisor]
        return [float(self.grid_divisor)] * dim


DEFAULT_BUDGET = SearchBudget()
