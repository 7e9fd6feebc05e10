"""Skew products over a circle rotation with a trigonometric-series cocycle.

The fiber map multiplies by g(s1) = exp(2 pi i lam * h(s1)) where h is the
truncated series

    h(theta) = sum_k (1/|k|) (cis(n_k alpha) - 1) cis(n_k theta),
    cis(x) = exp(2 pi i x),

summed over k != 0 with n_{-k} = -n_k, so h is real. Termwise h telescopes:
h(theta) = H(theta + alpha) - H(theta) with H(theta) = sum (1/|k|) cis(n_k theta),
an identity that holds at every truncation and is verified numerically.

Frequencies n_k may be astronomically large (the resonant recipe below uses
continued-fraction denominators that grow like q^4 per distinct value), so a
point cannot evaluate frac(n_k * theta) in floating point. Instead each point
carries its harmonic phases phi_k = frac(n_k * theta1), computed once in exact
rational arithmetic and advanced additively by r_k = frac(n_k * alpha) under
the rotation. Everything downstream is plain float work on the phase vector.

Harmonics share frequencies (one per block of five in the recipe), so exact
phases are computed once per distinct frequency and orbit phases and cosines once
per distinct (rotation, start phases) column: the bits of a per-harmonic pass.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .arcs import frac
from .systems import ORBIT_CHUNK, SystemHandle, _times, wrap_dist_block

TWO_PI = 2.0 * math.pi


def _ratio_pair(x):
    """(numerator, denominator) of a float or Fraction, without normalizing."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return Fraction(float(x)).as_integer_ratio()


_PHASE_BITS = 64


def _phase_float(r, den):
    """The phases r/den, for object-dtype integer residues 0 <= r < den, each
    rounded once to 64 bits.

    Fraction arithmetic would gcd-normalize, which is quadratic-cost for the
    megabit denominators of the resonant recipe; a residue (n * num) % den
    plus one shifted integer division avoids every gcd. The float conversion
    is the one rounding; the power-of-two scale is exact.
    """
    return ((r << _PHASE_BITS) // den).astype(float) * 2.0 ** -_PHASE_BITS


def _distinct(freqs):
    """Distinct frequencies in first-seen order, and each harmonic's index into them."""
    distinct = list(dict.fromkeys(freqs))
    return distinct, np.array([distinct.index(n) for n in freqs], dtype=np.intp)


def _exact_phases(theta, freqs):
    """frac(n * theta) for every frequency, exactly, once per distinct value."""
    t_num, t_den = _ratio_pair(theta)
    distinct, where = _distinct(freqs)
    return _phase_float(np.array(distinct, dtype=object) * t_num % t_den, t_den)[where]


def _harmonics(alpha, coeffs):
    """Frequencies n_k, weights 2/k (k and -k together) and rotations frac(n_k alpha)."""
    freqs = [int(n) for n, _ in coeffs]
    return freqs, np.array([2.0 / int(k) for _, k in coeffs]), _exact_phases(alpha, freqs)


def _cocycle_terms(phis, rotations):
    """Re[(cis(r_k) - 1) cis(phi_k)] = cos(phi + r) - cos(phi) per harmonic,
    expanded to keep the formula independent of the phase-addition path
    used by the dynamics."""
    cp, sp = np.cos(TWO_PI * phis), np.sin(TWO_PI * phis)
    return cp * np.cos(TWO_PI * rotations) - sp * np.sin(TWO_PI * rotations) - cp


def make_furstenberg(alpha, coeffs, lam=1.0) -> SystemHandle:
    """Skew product T(s1, s2) = (s1 + alpha, s2 + lam * h(s1)) on the 2-torus.

    coeffs is a list of (n_k, k) pairs for k >= 1 (negative k are implied by
    symmetry). Point rows are [theta1, theta2, phi_1..phi_K]; construct them
    with `furstenberg_point`. With no coefficients the fiber is frozen and the
    system is a flagged product rotation.
    """
    alpha_f = float(alpha)
    if any(int(k) < 1 for _, k in coeffs):
        raise ValueError("series indices k must be >= 1")
    freqs, weights, rotations = _harmonics(alpha, coeffs)
    lam = float(lam)
    flags = () if freqs else ("empty-coefficients: plain product rotation",)

    def metric_block(P, Q):
        return wrap_dist_block(P[..., :2], Q[..., :2])

    def sample_block(rng, count):
        thetas = rng.uniform(0.0, 1.0, size=(count, 2))
        return np.stack([make_point(t1, t2) for t1, t2 in thetas])

    def H(phases, back):
        # row-wise einsum over gathered C-ordered rows: a row's bits do not depend on
        # the block it sits in (a matrix product would round per block size)
        cosines = np.take(np.cos(TWO_PI * phases), back, axis=-1)
        return np.einsum("...k,k->...", cosines, weights)

    def orbit(X, lo, hi):
        # equal rotation and start phases in every row: equal columns, advanced once
        keys = np.column_stack([rotations, X[..., 2:].reshape(X[..., 0].size, len(freqs)).T])
        _, first, back = np.unique(keys, axis=0, return_index=True, return_inverse=True)
        start, rotation = X[..., 2 + first], rotations[first]
        # fiber telescopes: theta2(n) = theta2 + lam * (H(phases_n) - H(phases_0))
        H0 = H(start, back)             # 0 without harmonics: the fiber stays put
        for a in range(lo, hi + 1, ORBIT_CHUNK):
            n = _times(a, min(a + ORBIT_CHUNK - 1, hi), X.ndim - 1)
            out = np.empty((len(n),) + X.shape)
            out[..., 0] = frac(X[..., 0] + n * alpha_f)
            phases = frac(start + n[..., None] * rotation)
            out[..., 2:] = phases[..., back]
            out[..., 1] = frac(X[..., 1] + lam * (H(phases, back) - H0))
            yield out

    def make_point(*thetas):
        if len(thetas) != 2:
            raise ValueError("furstenberg points are theta1/theta2")
        theta1, theta2 = thetas
        phis = _exact_phases(theta1, freqs)
        return np.concatenate([[float(theta1) % 1.0, float(theta2) % 1.0], phis])

    return SystemHandle(
        name="furstenberg", kind="torus",
        metric_block=metric_block, sample_block=sample_block, orbit=orbit,
        diameter=0.5, flags=flags, make_point=make_point,
    )


def furstenberg_point(sys, theta1, theta2):
    return sys.make_point(theta1, theta2)


def coboundary_residual(alpha, coeffs, grid=1000):
    """Max over a theta-grid of |h(theta) - (H(theta+alpha) - H(theta))|.

    The full-truncation entry of `coboundary_prefix_residuals`; 0.0 without
    coefficients.
    """
    worst = coboundary_prefix_residuals(alpha, coeffs, grid)
    return float(worst[-1]) if len(worst) else 0.0


def coboundary_prefix_residuals(alpha, coeffs, grid=1000):
    """Max residual of the transfer identity for every truncation prefix.

    The identity telescopes termwise, so prefix sums of per-term residual
    vectors decide all K' <= K in one pass. Phases at theta and theta + alpha
    are computed in exact rational arithmetic; a float-rounded theta + alpha
    would scramble frac(n * theta) completely for large n, so this is the
    only meaningful way to evaluate the transfer identity.

    Phases are computed once per distinct frequency; with theta = t/T and
    alpha = a/A, n (theta + alpha) has residue (A (n t mod T) + T (n a mod A))
    mod T A, which avoids multiplying n by the large numerator t A + a T.
    """
    freqs, weights, rotations = _harmonics(alpha, coeffs)
    a_num, a_den = _ratio_pair(alpha)
    distinct, where = _distinct(freqs)
    thetas = [_ratio_pair(t) for t in np.arange(grid) / float(grid)]
    t_num, t_den = np.array(thetas, dtype=object).reshape(grid, 2).T
    den = t_den * a_den
    # one row per theta of the grid, one column per distinct frequency; the
    # residues are made a column at a time, which bounds the integer objects
    phis, phis_next = np.empty((2, grid, len(distinct)))
    for j, n in enumerate(distinct):
        r_theta, r_alpha = n * t_num % t_den, n * a_num % a_den
        phis[:, j] = _phase_float(r_theta, t_den)
        phis_next[:, j] = _phase_float((a_den * r_theta + t_den * r_alpha) % den, den)
    phis, phis_next = phis[:, where], phis_next[:, where]
    h_terms = weights * _cocycle_terms(phis, rotations)
    dH_terms = weights * (np.cos(TWO_PI * phis_next) - np.cos(TWO_PI * phis))
    return np.abs(np.cumsum(h_terms - dH_terms, axis=1)).max(axis=0, initial=0.0)


# -- resonant frequency recipe ----------------------------------------------


def liouville_recipe(K=30):
    """Rotation number and frequencies with forced resonances.

    Builds continued-fraction denominators q_1, q_2, ... with
    a_{j+1} = 8 * 2^(block*j) * q_j^3 + 1, so q_{j+1} > 2 pi 2^(block*j) q_j^4,
    and uses n_k = q_j on the j-th block of block = 5 values of k. Then

        |cis(n_k alpha) - 1| <= 2 pi dist(n_k alpha, Z) <= 2^-k / n_k^4

    for every k <= K, which `validate_resonances` certifies exactly. alpha is
    returned as the exact convergent p_J/q_J one level above the last block
    (rational, but with a denominator far beyond any horizon in use).

    Distinct frequency values must grow like q -> q^4, i.e. quadruple
    exponentially, so reusing one q per block keeps the largest frequency
    around 10^5000 for K = 30 instead of astronomically unrepresentable.

    a1 = 7 sets the first denominator and hence the slowest resonance: the
    first harmonic block drifts with period about q_2 ~ 8 * 2^block * a1^4
    steps. That period is near 10^6, so desk-scale averages visibly fail to
    settle.

    Practical ceiling: denominator digits grow fourfold per block and bigint
    division is quadratic, so even at one phase reduction per block the cost
    grows several-fold per block, and K beyond ~40 (8 blocks) is refused. The
    transfer identity itself is generic in (n_k, alpha) and can be exercised
    at any K with moderate frequencies.
    """
    if K > 40:
        raise ValueError("recipe denominators beyond K = 40 are computationally "
                         "impractical; use moderate frequencies for large K")
    block, a = 5, 7
    blocks = (K + block - 1) // block
    p_prev, p_cur = 1, 0   # convergents of [0; a1, a2, ...]
    q_prev, q_cur = 0, 1
    qs = []
    for j in range(blocks + 1):
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        qs.append(q_cur)
        if j < blocks:      # the last pass's quotient would go unused
            a = 8 * (2 ** (block * (j + 1))) * q_cur ** 3 + 1
    alpha = _coprime_fraction(p_cur, q_cur)
    coeffs = [(qs[(k - 1) // block], k) for k in range(1, K + 1)]
    return alpha, coeffs


def _coprime_fraction(num, den):
    """Fraction from known-coprime integers, skipping the gcd normalization.

    Continued-fraction convergents are coprime by construction; for megabit
    denominators the gcd in Fraction.__new__ dominates everything else.
    """
    f = Fraction.__new__(Fraction)
    f._numerator = num
    f._denominator = den
    return f


def validate_resonances(alpha, coeffs):
    """Exact check of 2 pi dist(n_k alpha, Z) <= 2^-k / n_k^4 for each (n_k, k).

    All-integer comparisons: with alpha = a/d and r = n a mod d, the bound is
    2 pi min(r, d-r)/d <= 2^-k/n^4, certified by
    710 min(r, d-r) n^4 2^k <= 113 d since 2 pi < 710/113.
    """
    a_num, a_den = _ratio_pair(alpha)
    lhs = {n: 710 * min(r, a_den - r) * (n ** 4)     # without its 2^k, once per frequency
           for n in {n for n, _ in coeffs} for r in [(n * a_num) % a_den]}
    report = [{"k": int(k), "ok": bool(lhs[n] * (1 << k) <= 113 * a_den)} for n, k in coeffs]
    return {"ok": all(r["ok"] for r in report), "per_k": report}


def make_default_furstenberg(K=30, lam=1.0):
    """Skew product from the resonant recipe, validated at load."""
    alpha, coeffs = liouville_recipe(K=K)
    check = validate_resonances(alpha, coeffs)
    if not check["ok"]:
        raise ValueError("liouville recipe failed its resonance bound: %s" % check)
    return make_furstenberg(alpha, coeffs, lam=lam)
