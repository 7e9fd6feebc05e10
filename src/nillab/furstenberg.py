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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .systems import SystemHandle, wrap_dist_block

TWO_PI = 2.0 * math.pi


def _ratio_pair(x):
    """(numerator, denominator) of a float or Fraction, without normalizing."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    return Fraction(float(x)).as_integer_ratio()


_PHASE_BITS = 64


def _phase_float(n, num, den):
    """frac(n * num/den) rounded to 64 bits, in pure integer arithmetic.

    Fraction arithmetic would gcd-normalize, which is quadratic-cost for the
    megabit denominators of the resonant recipe; modular reduction plus one
    shifted integer division avoids every gcd.
    """
    r = (n * num) % den
    return math.ldexp((r << _PHASE_BITS) // den, -_PHASE_BITS)


def _exact_phases(theta, freqs, alpha=None):
    """frac(n * theta) for every frequency, exactly; optionally at theta + alpha."""
    t_num, t_den = _ratio_pair(theta)
    if alpha is not None:
        a_num, a_den = _ratio_pair(alpha)
        t_num, t_den = t_num * a_den + a_num * t_den, t_den * a_den
    t_num %= t_den
    return np.array([_phase_float(n, t_num, t_den) for n in freqs])


def _harmonics(alpha, coeffs):
    """Frequencies n_k, weights 2/k (k and -k together) and rotations frac(n_k alpha)."""
    freqs = [int(n) for n, _ in coeffs]
    a_num, a_den = _ratio_pair(alpha)
    return (freqs, np.array([2.0 / int(k) for _, k in coeffs]),
            np.array([_phase_float(n, a_num, a_den) for n in freqs]))


def _cocycle_terms(phis, rotations):
    """Re[(cis(r_k) - 1) cis(phi_k)] = cos(phi + r) - cos(phi) per harmonic,
    expanded to keep the formula independent of the phase-addition path
    used by the dynamics."""
    cp, sp = np.cos(TWO_PI * phis), np.sin(TWO_PI * phis)
    return cp * np.cos(TWO_PI * rotations) - sp * np.sin(TWO_PI * rotations) - cp


@dataclass
class FurstenbergSystem(SystemHandle):
    """Skew product whose point rows carry their harmonic phases."""

    make_point: callable = None         # (theta1, theta2) -> point row
    rotations: np.ndarray = None        # frac(n_k alpha) per harmonic


def make_furstenberg(alpha, coeffs, lam=1.0) -> FurstenbergSystem:
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
    K = len(freqs)
    lam = float(lam)
    flags = ("empty-coefficients: plain product rotation",) if K == 0 else ()

    def _h_block(phis):
        return _cocycle_terms(phis, rotations) @ weights if K else np.zeros(phis.shape[:-1])

    def step_block(P):
        out = np.array(P, dtype=float)
        out[..., 1] = (P[..., 1] + lam * _h_block(P[..., 2:])) % 1.0
        out[..., 0] = (P[..., 0] + alpha_f) % 1.0
        out[..., 2:] = (P[..., 2:] + rotations) % 1.0
        return out

    def inverse_step_block(P):
        out = np.array(P, dtype=float)
        out[..., 0] = (P[..., 0] - alpha_f) % 1.0
        out[..., 2:] = (P[..., 2:] - rotations) % 1.0
        out[..., 1] = (P[..., 1] - lam * _h_block(out[..., 2:])) % 1.0
        return out

    def metric_block(P, Q):
        return wrap_dist_block(P[..., :2], Q[..., :2])

    def sample_block(rng, count):
        thetas = rng.uniform(0.0, 1.0, size=(count, 2))
        return np.stack([make_point(t1, t2) for t1, t2 in thetas])

    def orbit(x, lo, hi):
        if x.ndim > 1:
            # one point at a time: summing the harmonics of a whole block at
            # once would round differently
            out = np.empty((hi - lo + 1,) + x.shape)
            for i, p in enumerate(x):
                out[:, i] = orbit(p, lo, hi)
            return out
        # fiber telescopes: theta2(n) = theta2 + lam * (H(phases_n) - H(phases_0))
        n = np.arange(lo, hi + 1, dtype=float)
        out = np.empty((n.size, 2 + K))
        out[:, 0] = (x[0] + n * alpha_f) % 1.0
        out[:, 2:] = (x[2:] + n[:, None] * rotations) % 1.0
        if K:
            H = np.cos(TWO_PI * out[:, 2:]) @ weights
            H0 = float(np.cos(TWO_PI * np.asarray(x[2:])) @ weights)
            out[:, 1] = (x[1] + lam * (H - H0)) % 1.0
        else:
            out[:, 1] = x[1] % 1.0
        return out

    def make_point(theta1, theta2):
        phis = _exact_phases(theta1, freqs)
        return np.concatenate([[float(theta1) % 1.0, float(theta2) % 1.0], phis])

    return FurstenbergSystem(
        name="furstenberg", kind="torus",
        step_block=step_block, inverse_step_block=inverse_step_block,
        metric_block=metric_block, sample_block=sample_block, orbit=orbit,
        diameter=0.5, flags=flags, make_point=make_point, rotations=rotations,
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
    """
    freqs, weights, rotations = _harmonics(alpha, coeffs)
    worst = np.zeros(len(freqs))
    for theta in np.arange(grid) / float(grid):
        phis = _exact_phases(theta, freqs)
        phis_next = _exact_phases(theta, freqs, alpha=alpha)
        h_terms = weights * _cocycle_terms(phis, rotations)
        dH_terms = weights * (np.cos(TWO_PI * phis_next) - np.cos(TWO_PI * phis))
        resid = np.abs(np.cumsum(h_terms - dH_terms))
        worst = np.maximum(worst, resid)
    return worst


# -- resonant frequency recipe ----------------------------------------------


def liouville_recipe(K=30, block=5, a1=7):
    """Rotation number and frequencies with forced resonances.

    Builds continued-fraction denominators q_1, q_2, ... with
    a_{j+1} = 8 * 2^(block*j) * q_j^3 + 1, so q_{j+1} > 2 pi 2^(block*j) q_j^4,
    and uses n_k = q_j on the j-th block of k values. Then

        |cis(n_k alpha) - 1| <= 2 pi dist(n_k alpha, Z) <= 2^-k / n_k^4

    for every k <= K, which `validate_resonances` certifies exactly. alpha is
    returned as the exact convergent p_J/q_J one level above the last block
    (rational, but with a denominator far beyond any horizon in use).

    Distinct frequency values must grow like q -> q^4, i.e. quadruple
    exponentially, so reusing one q per block keeps the largest frequency
    around 10^5000 for K = 30 instead of astronomically unrepresentable.

    a1 sets the first denominator and hence the slowest resonance: the first
    harmonic block drifts with period about q_2 ~ 8 * 2^block * a1^4 steps.
    The default puts that period near 10^6 so desk-scale averages visibly
    fail to settle.

    Practical ceiling: denominator digits grow fourfold per block, and bigint
    division is quadratic, so K beyond ~40 (8 blocks) makes phase evaluation
    minutes-slow. The transfer identity itself is generic in (n_k, alpha) and
    can be exercised at any K with moderate frequencies.
    """
    if K > 40:
        raise ValueError("recipe denominators beyond K = 40 are computationally "
                         "impractical; use moderate frequencies for large K")
    blocks = (K + block - 1) // block
    p_prev, p_cur = 1, 0   # convergents of [0; a1, a2, ...]
    q_prev, q_cur = 0, 1
    qs = []
    a = int(a1)
    for j in range(blocks + 1):
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        qs.append(q_cur)
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
    report = []
    for n, k in coeffs:
        r = (n * a_num) % a_den
        dist_num = min(r, a_den - r)
        ok = 710 * dist_num * (n ** 4) * (1 << k) <= 113 * a_den
        report.append({"k": int(k), "ok": bool(ok)})
    return {"ok": all(r["ok"] for r in report), "per_k": report}


def make_default_furstenberg(K=30, lam=1.0, block=5):
    """Skew product from the resonant recipe, validated at load."""
    alpha, coeffs = liouville_recipe(K=K, block=block)
    check = validate_resonances(alpha, coeffs)
    if not check["ok"]:
        raise ValueError("liouville recipe failed its resonance bound: %s" % check)
    return make_furstenberg(alpha, coeffs, lam=lam)
