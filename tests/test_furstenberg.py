"""Skew-product cocycle series: transfer identity, recipe resonances, dynamics."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nillab.furstenberg import (TWO_PI, _cocycle_terms, _exact_phases, _harmonics,
                                _ratio_pair, coboundary_prefix_residuals,
                                coboundary_residual, furstenberg_point, liouville_recipe,
                                make_default_furstenberg, make_furstenberg,
                                validate_resonances)
from nillab.systems import ORBIT_CHUNK

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def fib_coeffs(K):
    fib = [1, 2]
    while len(fib) < K:
        fib.append(fib[-1] + fib[-2])
    return [(fib[k - 1], k) for k in range(1, K + 1)]


def test_coboundary_identity_small_family():
    assert coboundary_residual(GOLDEN, fib_coeffs(10), grid=200) <= 1e-10


def test_coboundary_identity_every_truncation_to_50():
    worst = coboundary_prefix_residuals(GOLDEN, fib_coeffs(50), grid=200)
    assert worst.shape == (50,)
    assert worst.max() <= 1e-10


def test_lambda_zero_freezes_fiber():
    sys = make_furstenberg(GOLDEN, fib_coeffs(5), lam=0.0)
    p = furstenberg_point(sys, 0.2, 0.7)
    q = sys.step(p)
    assert q[1] == p[1]
    assert q[0] == pytest.approx((0.2 + GOLDEN) % 1.0)


def test_empty_coefficients_flagged():
    sys = make_furstenberg(GOLDEN, [], lam=1.0)
    assert any("product rotation" in f for f in sys.flags)
    p = furstenberg_point(sys, 0.0, 0.3)
    assert sys.step(p)[0] == pytest.approx(GOLDEN)
    assert sys.step(p)[1] == pytest.approx(0.3)


def test_step_inverse_and_orbit_consistency():
    sys = make_furstenberg(GOLDEN, fib_coeffs(8), lam=0.7)
    p = furstenberg_point(sys, 0.125, 0.5)
    assert np.max(np.abs(sys.inverse_step(sys.step(p)) - p)) <= 1e-12
    orbit = sys.orbit_block(p, 150)
    q = p
    for _ in range(149):
        q = sys.step(q)
    assert np.max(np.abs(orbit[-1] - q)) <= 1e-10


def test_recipe_resonances_certified():
    alpha, coeffs = liouville_recipe(K=30)
    assert validate_resonances(alpha, coeffs)["ok"]
    # the certified bound really is strong: first-block phases are within
    # 2^-1/n^4 of an integer
    rotations = _harmonics(alpha, coeffs)[2]
    r1 = min(rotations[0], 1 - rotations[0])
    assert r1 <= 2.0 ** (-1) / (coeffs[0][0] ** 4) / (2 * np.pi)


def _recipe_with_every_quotient(K):
    """The recipe's loop as it was, building one unused quotient at the end."""
    block, a = 5, 7
    blocks = (K + block - 1) // block
    p_prev, p_cur = 1, 0
    q_prev, q_cur = 0, 1
    qs = []
    for j in range(blocks + 1):
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        qs.append(q_cur)
        a = 8 * (2 ** (block * (j + 1))) * q_cur ** 3 + 1
    return Fraction(p_cur, q_cur), [(qs[(k - 1) // block], k) for k in range(1, K + 1)]


@pytest.mark.parametrize("K", [1, 5, 6, 12, 30, 40])
def test_recipe_skips_the_unused_quotient(K):
    alpha, coeffs = liouville_recipe(K=K)
    want_alpha, want_coeffs = _recipe_with_every_quotient(K)
    assert (alpha.numerator, alpha.denominator) == (want_alpha.numerator,
                                                    want_alpha.denominator)
    assert coeffs == want_coeffs


def test_recipe_rejects_impractical_K():
    with pytest.raises(ValueError):
        liouville_recipe(K=45)


def test_default_recipe_coboundary():
    alpha, coeffs = liouville_recipe(K=30)
    assert coboundary_residual(alpha, coeffs, grid=100) <= 1e-10


def test_exact_phases_beat_float_rounding():
    # float-rounded theta + alpha scrambles frac(n theta) for large n; the
    # exact path must not: evaluate one huge-frequency phase both ways
    alpha, coeffs = liouville_recipe(K=12)
    sys = make_furstenberg(alpha, coeffs)
    theta = 0.37
    p = furstenberg_point(sys, theta, 0.0)
    q = furstenberg_point(sys, (theta + float(alpha)) % 1.0, 0.0)
    exact_next = (p[2:] + _harmonics(alpha, coeffs)[2]) % 1.0
    # the float-constructed point q disagrees for the big frequencies
    assert np.max(np.abs(q[2:] - exact_next)) > 1e-3
    # while the dynamics' phase update is the exact one
    assert np.max(np.abs(sys.step(p)[2:] - exact_next)) <= 1e-12


# -- per-harmonic kernels, kept as oracles for the distinct-frequency ones ----


def loop_exact_phases(theta, freqs, alpha=None):
    t_num, t_den = _ratio_pair(theta)
    if alpha is not None:
        a_num, a_den = _ratio_pair(alpha)
        t_num, t_den = t_num * a_den + a_num * t_den, t_den * a_den
    t_num %= t_den
    return np.array([math.ldexp((((n * t_num) % t_den) << 64) // t_den, -64)
                     for n in freqs])


def loop_coboundary(alpha, coeffs, grid):
    freqs = [int(n) for n, _ in coeffs]
    weights = np.array([2.0 / int(k) for _, k in coeffs])
    rotations = loop_exact_phases(alpha, freqs)
    worst = np.zeros(len(freqs))
    for theta in np.arange(grid) / float(grid):
        phis = loop_exact_phases(theta, freqs)
        phis_next = loop_exact_phases(theta, freqs, alpha=alpha)
        h_terms = weights * _cocycle_terms(phis, rotations)
        dH_terms = weights * (np.cos(TWO_PI * phis_next) - np.cos(TWO_PI * phis))
        worst = np.maximum(worst, np.abs(np.cumsum(h_terms - dH_terms)))
    return worst


def loop_orbit(alpha, coeffs, lam, X, lo, hi):
    rotations = loop_exact_phases(alpha, [int(n) for n, _ in coeffs])
    weights = np.array([2.0 / int(k) for _, k in coeffs])

    def H(phases):
        return np.einsum("...k,k->...", np.ascontiguousarray(np.cos(TWO_PI * phases)),
                         weights)

    n = np.arange(lo, hi + 1, dtype=float).reshape((-1,) + (1,) * (X.ndim - 1))
    out = np.empty((len(n),) + X.shape)
    out[..., 0] = (X[..., 0] + n * float(alpha)) % 1.0
    out[..., 2:] = (X[..., 2:] + n[..., None] * rotations) % 1.0
    out[..., 1] = (X[..., 1] + lam * (H(out[..., 2:]) - H(X[..., 2:]))) % 1.0
    return out


def loop_validate(alpha, coeffs):
    a_num, a_den = _ratio_pair(alpha)
    report = []
    for n, k in coeffs:
        r = (n * a_num) % a_den
        ok = 710 * min(r, a_den - r) * (n ** 4) * (1 << k) <= 113 * a_den
        report.append({"k": int(k), "ok": bool(ok)})
    return {"ok": all(r["ok"] for r in report), "per_k": report}


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


# repeated and distinct frequencies, out of order
CUSTOM = [(3, 1), (5, 2), (3, 3), (8, 4), (5, 5), (3, 6), (13, 7), (10 ** 40 + 7, 8),
          (10 ** 40 + 7, 9)]
TABLES = [(GOLDEN, CUSTOM), liouville_recipe(K=30), (Fraction(355, 113), CUSTOM)]


@pytest.mark.parametrize("alpha, coeffs", TABLES)
def test_phases_rotations_and_points_match_the_per_harmonic_loop(alpha, coeffs):
    freqs = [n for n, _ in coeffs]
    for theta in (0.0, 0.37, 0.999, -2.25, 1e-300, Fraction(7, 1234567891)):
        assert np.array_equal(bits(_exact_phases(theta, freqs)),
                              bits(loop_exact_phases(theta, freqs)))
    sys = make_furstenberg(alpha, coeffs, lam=0.7)
    assert np.array_equal(bits(_harmonics(alpha, coeffs)[2]),
                          bits(loop_exact_phases(alpha, freqs)))
    for t1, t2 in ((0.15, 0.35), (0.8125, 1.5), (Fraction(1, 3), 0.0)):
        row = np.concatenate([[float(t1) % 1.0, float(t2) % 1.0],
                              loop_exact_phases(t1, freqs)])
        assert np.array_equal(bits(sys.make_point(t1, t2)), bits(row))


def test_validate_resonances_matches_the_per_harmonic_loop():
    alpha, coeffs = liouville_recipe(K=30)
    assert validate_resonances(alpha, coeffs) == loop_validate(alpha, coeffs)
    # a table that passes some of its bounds and fails others, frequencies repeated
    mixed = coeffs[:12] + CUSTOM
    report = validate_resonances(alpha, mixed)
    assert report == loop_validate(alpha, mixed)
    assert {r["ok"] for r in report["per_k"]} == {True, False}
    assert validate_resonances(GOLDEN, CUSTOM) == loop_validate(GOLDEN, CUSTOM)
    assert validate_resonances(alpha, []) == loop_validate(alpha, [])


def theta_alpha_wraps(alpha, freqs, grid):
    """How many (theta, n) grid pairs have frac(n theta) + frac(n alpha) >= 1,
    i.e. A r_t + T r_a >= T A, and how many pairs there are."""
    a_num, a_den = _ratio_pair(alpha)
    wraps = 0
    for theta in np.arange(grid) / float(grid):
        t_num, t_den = _ratio_pair(theta)
        wraps += sum(a_den * ((n * t_num) % t_den) + t_den * ((n * a_num) % a_den)
                     >= t_den * a_den for n in freqs)
    return wraps, grid * len(freqs)


@pytest.mark.parametrize("alpha, coeffs, grid", [
    (*liouville_recipe(K=30), 40),
    (GOLDEN, CUSTOM, 200),
    (Fraction(355, 113), CUSTOM, 64),
    (GOLDEN, fib_coeffs(50), 200),
    (GOLDEN, [], 10),
])
def test_coboundary_residuals_match_the_per_harmonic_loop(alpha, coeffs, grid):
    got = coboundary_prefix_residuals(alpha, coeffs, grid)
    assert np.array_equal(bits(got), bits(loop_coboundary(alpha, coeffs, grid)))
    if coeffs:
        # the residue split takes both branches of its T A subtraction
        wraps, pairs = theta_alpha_wraps(alpha, [n for n, _ in coeffs], grid)
        assert 0 < wraps < pairs


def orbit_starts(sys, coeffs):
    """A point, multi-row blocks, and points whose equal-frequency phases differ."""
    p = sys.make_point(0.15, 0.35)
    block = np.stack([sys.make_point(t, 0.25 * i) for i, t in
                      enumerate((0.0, 0.37, 0.5, 0.91, 0.37))])
    edited = block.copy()
    if len(coeffs) > 1:
        # harmonics 1 and 2 share frequency 3 in CUSTOM and the recipe's first
        # block; one row gets a start phase off the orbit of the others
        edited[1, 2 + 2] = 0.125
    return [p, block, edited, block.reshape(5, 1, -1), edited[None, 1]]


@pytest.mark.parametrize("alpha, coeffs", [(GOLDEN, CUSTOM), liouville_recipe(K=30),
                                           (GOLDEN, [])])
# (-5000, 9000): a point's span crosses three chunk boundaries, a block's many
@pytest.mark.parametrize("lo, hi", [(0, 0), (0, 5000), (-300, 250), (7, 9), (-5000, 9000)])
def test_orbit_matches_the_per_harmonic_loop(alpha, coeffs, lo, hi):
    sys = make_furstenberg(alpha, coeffs, lam=0.7)
    for X in orbit_starts(sys, coeffs):
        got = sys.orbit_span(X, lo, hi)
        assert np.array_equal(bits(got), bits(loop_orbit(alpha, coeffs, 0.7, X, lo, hi)))


def test_orbit_keys_on_start_phases_not_only_frequencies():
    # two harmonics share a frequency and rotation but start apart: merging
    # them on the frequency alone would give the edited column the other's phases
    sys = make_furstenberg(GOLDEN, [(3, 1), (3, 2)], lam=1.0)
    p = sys.make_point(0.2, 0.0)
    p[3] = 0.7
    got = sys.orbit_block(p, 50)
    assert not np.array_equal(got[:, 2], got[:, 3])
    assert np.array_equal(bits(got), bits(loop_orbit(GOLDEN, [(3, 1), (3, 2)], 1.0, p, 0, 49)))


def test_make_point_rejects_a_wrong_coordinate_count():
    sys = make_furstenberg(GOLDEN, fib_coeffs(3))
    for thetas in ((0.1,), (0.1, 0.2, 0.3)):
        with pytest.raises(ValueError, match="theta1/theta2"):
            sys.make_point(*thetas)


def test_orbit_block_peaks_near_its_result():
    # the phase and cosine tables are built one orbit chunk at a time, so a
    # 65,537-step block (16 MiB) needs little beyond itself
    assert 65537 > 2 * ORBIT_CHUNK
    sys = make_default_furstenberg(K=30)
    x = sys.make_point(0.15, 0.35)
    tracemalloc.start()
    try:
        block = sys.orbit_block(x, 65537)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * block.nbytes


def test_fiber_minus_lam_H_is_invariant_along_the_default_orbit():
    # theta2(n) = theta2 + lam (H(phi_n) - H(phi_0)), so c = theta2 - lam H(phi)
    # is invariant and (s1, s2) -> (s1, s2 - lam H(s1)) conjugates T to
    # R_alpha x id: the fixture is not minimal. |lam H| <= sum 2/k < 8, where
    # floats are at most 2^-50 apart; c holds to eight such spacings (7.1e-15)
    # in windows that straddle orbit chunk boundaries out to n = 10^6
    sys = make_default_furstenberg(K=30)
    _, weights, _ = _harmonics(*liouville_recipe(K=30))
    assert weights.sum() < 8.0

    def c(P):
        return (P[..., 1] - np.cos(TWO_PI * P[..., 2:]) @ weights) % 1.0

    windows = [(0, ORBIT_CHUNK + 4)] + [(k * ORBIT_CHUNK - 4, (k + 1) * ORBIT_CHUNK + 4)
                                        for k in (15, 16, 120, 243)] + [(10 ** 6 - 8, 10 ** 6)]
    for start in ((0.15, 0.35), (0.7, 0.05), (0.5, 0.99)):
        x = sys.make_point(*start)
        for lo, hi in windows:
            drift = np.abs(c(sys.orbit_span(x, lo, hi)) - c(x))
            assert np.minimum(drift, 1.0 - drift).max() <= 8 * 2.0 ** -50
