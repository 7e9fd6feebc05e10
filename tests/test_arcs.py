"""`frac`, the one mod-1 kernel of float arrays: the bits of `x % 1.0`.

The identity is checked for finite inputs only. No orbit, coding or arc
path of the package holds a non-finite value: the constructors refuse
non-finite parameters, and the CLI's number parser non-finite numbers.
"""

import numpy as np
import pytest

from nillab.arcs import ArcUnion, frac


def assert_same_bits(x):
    x = np.asarray(x, dtype=float)
    assert np.isfinite(x).all()
    want, got = x % 1.0, frac(x)
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, [(x[i], got[i], want[i]) for i in bad[:5]]


def edge_values():
    tiny = np.finfo(float).smallest_subnormal
    powers = 2.0 ** np.arange(-1074, 41)
    near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    ints = np.arange(-20.0, 21.0)
    big = np.array([2.0 ** 52, 2.0 ** 52 + 0.5, 2.0 ** 53, 2.0 ** 53 + 2.0, 1e300,
                    np.finfo(float).max, np.finfo(float).tiny, tiny, 3 * tiny])
    # tiny negatives whose fmod + 1 and 1 - |x| both round to exactly 1.0
    below = np.array([2.0 ** -54, 2.0 ** -60, 1e-300, tiny, 2.0 ** -53, 2.0 ** -52])
    pos = np.concatenate([[0.0], near, ints, big, below, near + 0.5, np.arange(1, 4096) / 7.0])
    return np.concatenate([pos, -pos])


def test_frac_keeps_the_bits_of_mod_one_on_the_edge_set():
    x = edge_values()
    keep = x.copy()
    assert_same_bits(x)
    assert np.array_equal(x.view(np.int64), keep.view(np.int64))    # the input is not written
    # a scalar or a 0-d array keeps the bits too
    for v in (-2.0 ** -60, 2.5, -0.0, np.float64(-3.25), np.asarray(7.75), np.asarray(-1e-300)):
        assert np.float64(frac(v)).view(np.int64) == np.float64(float(v) % 1.0).view(np.int64)
    assert frac(np.array([-2.0 ** -60]))[0] == 1.0
    # -0.0 and +0.0 both give +0.0, as % 1.0 does
    assert frac(np.array([-0.0, 0.0])).view(np.int64).tolist() == [0, 0]


@pytest.mark.parametrize("draw", [
    lambda rng, n: rng.uniform(-1e7, 1e7, n),
    lambda rng, n: rng.uniform(-2.0, 2.0, n),
    lambda rng, n: rng.normal(0.0, 1e-12, n),
    lambda rng, n: rng.choice([-1.0, 1.0], n) * rng.uniform(1.0, 2.0, n)
    * 2.0 ** -rng.integers(0, 1075, n).astype(float),
], ids=["1e7", "2", "normal-1e-12", "pow2"])
def test_frac_keeps_the_bits_of_mod_one_on_random_values(draw):
    assert_same_bits(draw(np.random.default_rng(0), 10 ** 6))



def _interval_by_array_kernel(lo, hi):
    """The arcs of `ArcUnion.interval`, with its two ends reduced by `frac` on an array."""
    if hi - lo >= 1.0:
        return ArcUnion([(0.0, 1.0)]).arcs
    lo, hi = frac(np.array([lo, hi], dtype=float))
    if lo < hi:
        return ArcUnion([(lo, hi)]).arcs
    return ArcUnion([] if lo == hi else [(lo, 1.0)] + ([(0.0, hi)] if hi > 0.0 else [])).arcs


def test_interval_reduces_its_python_float_ends_with_the_same_bits():
    ends = np.concatenate([edge_values()[::53], [-2.0 ** -60, -0.0, 0.0, 1.0, -1.0]])
    for lo in ends[::7]:
        for width in (0.0, 2.0 ** -60, 0.25, 0.5, 1.0 - 2.0 ** -53, 1.0):
            got = ArcUnion.interval(float(lo), float(lo) + width).arcs
            want = _interval_by_array_kernel(float(lo), float(lo) + width)
            assert np.array(got).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
