"""Group arithmetic against the 3x3 unipotent matrix oracle."""

import json
from pathlib import Path

import numpy as np
import pytest

from nillab.nilgroup import (GroupLawError, NilGroup, abelian, element,
                             factorize, heisenberg3, identity, inv, load_group,
                             mul, named_group, power, power_sequence, psi_norm,
                             validate_group)
from nillab.nilmetric import quotient_point
from nillab.polynomials import SparsePoly, monomial


def mat(c):
    """Coordinates (a, b, c) as the unipotent matrix rows (1,a,c / 0,1,b / 0,0,1)."""
    a, b, cc = c
    return np.array([[1.0, a, cc], [0.0, 1.0, b], [0.0, 0.0, 1.0]])


def unmat(M):
    return np.array([M[0, 1], M[1, 2], M[0, 2]])


H = heisenberg3()


def test_mul_examples():
    assert np.allclose(mul(element(H, [1, 0, 0]), element(H, [0, 1, 0])).coord,
                       (1, 1, 1))
    assert np.allclose(
        mul(element(H, [0.5, 0.25, 0]), element(H, [0.25, 0.5, 0])).coord,
        (0.75, 0.75, 0.25))
    t = element(H, [0.3, -1.2, 7.0])
    assert mul(t, identity(H)).coord == t.coord
    assert mul(identity(H), t).coord == t.coord


def test_mul_dimension_mismatch():
    other = abelian(3)
    with pytest.raises(GroupLawError):
        mul(element(H, [1, 0, 0]), element(other, [1, 0, 0]))
    with pytest.raises(GroupLawError):
        element(H, [1, 0])


def test_inv_examples():
    assert inv(identity(H)).coord == (0.0, 0.0, 0.0)
    assert np.allclose(inv(element(H, [1, 1, 1])).coord, (-1, -1, 0))
    assert np.allclose(inv(element(H, [0.5, 0.25, 0])).coord, (-0.5, -0.25, 0.125))


def test_pow_closed_form():
    alpha, beta = 0.37, -1.4
    g = element(H, [alpha, beta, 0.0])
    for n in range(65):
        expect = (n * alpha, n * beta, n * (n - 1) / 2.0 * alpha * beta)
        assert np.allclose(power(g, n).coord, expect, atol=1e-9)
    assert power(g, 0).coord == identity(H).coord
    assert power(g, 1).coord == g.coord
    gm = power(g, -7)
    assert np.allclose(gm.coord, inv(power(g, 7)).coord)


def test_power_sequence_matches_power():
    g = element(H, [0.61, 0.24, -0.8])
    seq = power_sequence(g, 40)
    for n in (0, 1, 7, 39):
        assert np.allclose(seq[n], power(g, n).coords, atol=1e-9)


def test_psi_norm():
    assert psi_norm(identity(H)) == 0.0
    assert psi_norm(element(H, [1, -2, 0.5])) == 2.0
    assert psi_norm(power(element(H, [1, 1, 0]), 10)) == 45.0


def test_factorize_examples():
    a = element(H, [0.5, 0.25, 0.75])
    frac, lat = factorize(a)
    assert frac.coord == a.coord and lat.coord == identity(H).coord

    frac, lat = factorize(element(H, [1.5, 0.25, 0.75]))
    assert np.allclose(frac.coord[:2], (0.5, 0.25))
    assert 0.0 <= frac.coord[2] < 1.0
    assert all(v == int(v) for v in lat.coord)
    recomb = mul(frac, lat)
    assert np.allclose(recomb.coord, (1.5, 0.25, 0.75), atol=1e-12)

    frac, lat = factorize(identity(H))
    assert frac.coord == lat.coord == identity(H).coord


def test_factorize_random_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(200):
        c = rng.uniform(-8, 8, 3)
        frac, lat = factorize(element(H, c))
        assert np.all(np.asarray(frac.coord) >= 0.0)
        assert np.all(np.asarray(frac.coord) < 1.0)
        assert np.allclose(np.asarray(lat.coord), np.rint(lat.coord))
        assert np.allclose(mul(frac, lat).coord, c, atol=1e-12)
        frac2, lat2 = factorize(frac)
        assert frac2.coord == frac.coord
        assert lat2.coord == identity(H).coord


def test_matrix_oracle_equivalence_bulk():
    rng = np.random.default_rng(11)
    T = rng.uniform(-10, 10, (10_000, 3))
    U = rng.uniform(-10, 10, (10_000, 3))
    MT = np.zeros((len(T), 3, 3))
    MT[:] = np.eye(3)
    MT[:, 0, 1], MT[:, 1, 2], MT[:, 0, 2] = T[:, 0], T[:, 1], T[:, 2]
    MU = np.zeros_like(MT)
    MU[:] = np.eye(3)
    MU[:, 0, 1], MU[:, 1, 2], MU[:, 0, 2] = U[:, 0], U[:, 1], U[:, 2]
    MP = MT @ MU
    expect = np.stack([MP[:, 0, 1], MP[:, 1, 2], MP[:, 0, 2]], axis=1)
    assert np.max(np.abs(H.mul_block(T, U) - expect)) <= 1e-12
    MI = np.linalg.inv(MT)
    expect_inv = np.stack([MI[:, 0, 1], MI[:, 1, 2], MI[:, 0, 2]], axis=1)
    assert np.max(np.abs(H.inv_block(T) - expect_inv)) <= 1e-12


def test_matrix_oracle_powers():
    rng = np.random.default_rng(5)
    for _ in range(50):
        c = rng.uniform(-3, 3, 3)
        n = int(rng.integers(-16, 17))
        M = np.linalg.matrix_power(mat(c), abs(n))
        if n < 0:
            M = np.linalg.inv(M)
        assert np.allclose(power(element(H, c), n).coord, unmat(M), atol=1e-9)


def test_associativity_bulk():
    rng = np.random.default_rng(2)
    T = rng.uniform(-10, 10, (10_000, 3))
    U = rng.uniform(-10, 10, (10_000, 3))
    V = rng.uniform(-10, 10, (10_000, 3))
    lhs = H.mul_block(H.mul_block(T, U), V)
    rhs = H.mul_block(T, H.mul_block(U, V))
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_triangularity():
    rng = np.random.default_rng(4)
    t = rng.uniform(-5, 5, 3)
    u = rng.uniform(-5, 5, 3)
    base = H.mul_block(t, u)
    for j in range(3):
        for side in (0, 1):
            tp, up = t.copy(), u.copy()
            (tp if side == 0 else up)[j] += 0.25
            pert = H.mul_block(tp, up)
            assert np.all(pert[:j] == base[:j])
            assert pert[j] != base[j]


def test_validate_group_builtin():
    assert validate_group(H)["ok"]
    assert validate_group(abelian(1))["ok"]
    assert validate_group(abelian(4))["ok"]


def test_validate_group_rejects_broken_law():
    # "inverse" polynomial that is wrong on purpose
    bad = NilGroup(3, 2,
                   mul_polys=[SparsePoly.zero(), monomial(1.0, (1, 0), (0, 1))],
                   inv_polys=[SparsePoly.zero(), monomial(2.0, (1, 1))],
                   name="broken")
    assert not validate_group(bad)["ok"]


def test_triangularity_enforced_at_build():
    with pytest.raises(GroupLawError):
        NilGroup(3, 2,
                 mul_polys=[monomial(1.0, (0, 1), ()), SparsePoly.zero()],
                 inv_polys=[SparsePoly.zero(), SparsePoly.zero()])


def test_named_groups_and_json_roundtrip(tmp_path):
    g = named_group("abelian2")
    assert g.dim == 2
    path = tmp_path / "heis.json"
    H.save_json(path)
    loaded = load_group(str(path))
    a = element(loaded, [1.5, -0.25, 3.0])
    b = element(loaded, [0.2, 0.7, -1.0])
    assert np.allclose(loaded.mul_block(a.coords, b.coords),
                       H.mul_block(a.coords, b.coords))
    with pytest.raises(GroupLawError):
        named_group("nosuch")


def test_degenerate_circle_group():
    C = abelian(1)
    a, b = element(C, [0.7]), element(C, [0.6])
    assert np.allclose(mul(a, b).coord, [1.3])
    frac, lat = factorize(mul(a, b))
    assert np.allclose(frac.coord, [0.3]) and lat.coord == (1.0,)


# -- the planned evaluator against the per-call term loop it replaced ----------

def term_loop(poly, t, u=None):
    """Reference evaluator: one np.full per term, on the broadcast shape."""
    t = np.asarray(t, dtype=float)
    u = None if u is None else np.asarray(u, dtype=float)
    shape = t.shape[:-1] if u is None else np.broadcast_shapes(t.shape[:-1], u.shape[:-1])
    out = np.zeros(shape)
    for coeff, t_exps, u_exps in poly.terms:
        term = np.full(shape, coeff)
        for x, exps in ((t, t_exps), (u, u_exps)):
            for i, e in enumerate(exps):
                if e:
                    term = term * (x[..., i] ** e if e > 1 else x[..., i])
        out = out + term
    return out


def loop_mul(grp, t, u):
    t = np.asarray(t, dtype=float)
    u = np.asarray(u, dtype=float)
    shape = np.broadcast_shapes(t.shape, u.shape)
    out = np.empty(shape)
    np.add(np.broadcast_to(t, shape), np.broadcast_to(u, shape), out=out)
    for i in range(1, grp.dim):
        p = grp.mul_polys[i - 1]
        if p.terms:
            out[..., i] += term_loop(p, t[..., :i], u[..., :i])
    return out


def loop_inv(grp, t):
    t = np.asarray(t, dtype=float)
    out = -t
    for i in range(1, grp.dim):
        q = grp.inv_polys[i - 1]
        if q.terms:
            out[..., i] += term_loop(q, t[..., :i])
    return out


def loop_reduce(grp, t):
    f = np.array(t, dtype=float)
    ns = np.zeros(f.shape, dtype=np.int64)
    peel = np.zeros(f.shape)
    for i in range(grp.dim):
        n_i = np.floor(f[..., i])
        frac_i = f[..., i] - n_i
        bump = frac_i >= 1.0
        n_i = n_i + bump
        ns[..., i] = n_i
        peel[...] = 0.0
        peel[..., i] = -n_i
        f = loop_mul(grp, f, peel)
        f[..., i] = np.where(bump, frac_i - 1.0, frac_i)
    return f, ns


def loop_power_sequence(grp, base, count):
    out = np.zeros((count, grp.dim))
    if count == 0:
        return out
    out[:, 0] = np.arange(count) * base[0]
    for i in range(1, grp.dim):
        incr = np.full(count - 1, base[i])
        p = grp.mul_polys[i - 1]
        if p.terms:
            incr = incr + term_loop(p, out[:-1, :i],
                                    np.broadcast_to(base[:i], (count - 1, i)))
        out[1:, i] = np.cumsum(incr)
    return out


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("grp", [
    H, abelian(1), abelian(2),
    load_group(str(Path(__file__).parent / "golden" / "filiform4.json")),
], ids=lambda g: g.name)
def test_planned_law_matches_the_term_loop(grp):
    m = grp.dim
    rng = np.random.default_rng(17)
    T = rng.uniform(-6, 6, (300, m))
    U = rng.uniform(-6, 6, (300, m))
    zeros = np.zeros((4, m))
    zeros[1] = -0.0
    zeros[2, ::2] = -0.0
    blocks = [
        (T, U),
        (zeros, zeros[::-1]),                       # rows of -0.0 and +0.0
        (-zeros, np.vstack([T[:2], zeros[:2]])),
        (T[:6, None, :], U[None, :5, :]),            # mixed broadcast shapes
        (T[0], U[:3]),
        (T[0], U[0]),                                # a single row
        (T[:0], U[:0]),                              # an empty block
    ]
    for t, u in blocks:
        assert same_bits(grp.mul_block(t, u), loop_mul(grp, t, u))
        assert same_bits(grp.mul_block(u, t), loop_mul(grp, u, t))
        assert same_bits(grp.inv_block(t), loop_inv(grp, t))
        for x in (t, u):
            frac, ns = grp.reduce_block(x)
            want_frac, want_ns = loop_reduce(grp, x)
            assert same_bits(frac, want_frac) and np.array_equal(ns, want_ns)
    for base in (*T[:4] * 0.1, -np.zeros(m), zeros[2]):
        for count in (0, 1, 2, 200):
            assert same_bits(power_sequence(element(grp, base), count),
                             loop_power_sequence(grp, base, count))


def test_planned_poly_matches_the_term_loop():
    # coefficients that are not powers of two, so factor and term order show
    poly = SparsePoly([(0.3, (1, 2), (2, 0, 1)), (-1.7, (0, 0, 3), (1,)), (2.9, (), (0, 1))])
    rng = np.random.default_rng(23)
    t = rng.uniform(-3, 3, (50, 3))
    u = rng.uniform(-3, 3, (50, 3))
    assert same_bits(poly(t, u), term_loop(poly, t, u))
    assert same_bits(poly(t[:, None], u[None, :7]), term_loop(poly, t[:, None], u[None, :7]))
    assert poly.arity == 3 and poly.uses_u()
    assert not SparsePoly([(1.0, (1, 1), ())]).uses_u()


# -- the one-hot peel against the mul_block peel it replaced -------------------

def mul_reduce(grp, t):
    """Reference reduction: one full `mul_block` per peeled index."""
    f = np.array(t, dtype=float)
    ns = np.zeros(f.shape, dtype=np.int64)
    peel = np.zeros(f.shape)
    for i in range(grp.dim):
        n_i = np.floor(f[..., i])
        frac_i = f[..., i] - n_i
        bump = frac_i >= 1.0
        n_i = n_i + bump
        ns[..., i] = n_i
        peel[...] = 0.0
        peel[..., i] = -n_i
        f = grp.mul_block(f, peel)
        f[..., i] = np.where(bump, frac_i - 1.0, frac_i)
    return f, ns


def peel_rows(m):
    rng = np.random.default_rng(29)
    edge = [0.0, -0.0, -1e-17, 3.0 - 1e-16, 1.0 - 1e-17, np.nan, np.inf, -np.inf]
    rows = [rng.uniform(-4, 4, (400, m)),
            rng.integers(-5, 6, (50, m)).astype(float),
            # every edge value at every coordinate, over random rows
            np.array([np.r_[rng.uniform(-4, 4, j), v, rng.uniform(-4, 4, m - j - 1)]
                      for v in edge for j in range(m)]),
            np.array([[v] * m for v in edge]),
            rng.choice(edge, (200, m))]
    return np.vstack(rows)


@pytest.mark.parametrize("grp", [
    H, abelian(1), abelian(3),
    load_group(str(Path(__file__).parent / "golden" / "filiform4.json")),
], ids=lambda g: g.name)
def test_one_hot_peel_matches_the_mul_block_peel(grp):
    X = peel_rows(grp.dim)
    with np.errstate(invalid="ignore", over="ignore"):
        for x in (X, X.reshape(-1, 2, grp.dim) if len(X) % 2 == 0 else X[:-1], X[0]):
            frac, ns = grp.reduce_block(x)
            want_frac, want_ns = mul_reduce(grp, x)
            assert same_bits(frac, want_frac) and np.array_equal(ns, want_ns)


@pytest.mark.parametrize("grp", [
    H, abelian(1), abelian(3),
    load_group(str(Path(__file__).parent / "golden" / "filiform4.json")),
], ids=lambda g: g.name)
def test_quotient_point_is_the_factorize_fraction(grp):
    # quotient_point reduces without the lattice lift; the fraction is the same
    X = peel_rows(grp.dim)
    for x in X[np.isfinite(X).all(axis=1)]:
        assert same_bits(quotient_point(grp, x).coords, factorize(element(grp, x))[0].coords)
