from fractions import Fraction

import random

import pytest

from nilorb import linalg, partitions
from nilorb.matmodel import (
    RankOneElement,
    SymplecticSpace,
    _kk_gram,
    fiber,
    kk_rank_at,
    mu,
    product_cover_degree,
)
from oracles import (
    form,
    in_sp,
    mat_mul,
    product_cover_degree as brute_cover_degree,
    sp_basis,
)

F = Fraction


def test_space_size_must_be_an_int():
    # SymplecticSpace(1.5) used to construct and fail later, inside mu
    for n in (1.5, 2.0, F(2), True):
        with pytest.raises(TypeError, match="is not an int"):
            SymplecticSpace(n)
    with pytest.raises(ValueError, match="n must be positive"):
        SymplecticSpace(0)


def test_form_is_invertible_antisymmetric():
    for n in (1, 2, 3):
        sp = SymplecticSpace(n)
        m = form(sp)
        d = sp.dim
        assert all(m[i][j] == -m[j][i] for i in range(d) for j in range(d))
        assert linalg.rank(m) == d


def test_mu_lands_in_sp_random():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 3)
        sp = SymplecticSpace(n)
        v = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2 * n)]
        e = mu(sp, v)
        rows = e.rows()
        # mu re-checks none of these: in sp(2n), square zero, rank one
        assert in_sp(sp, rows)
        assert all(x == 0 for row in mat_mul(rows, rows) for x in row)
        assert linalg.rank(rows) == (1 if any(v) else 0)
        # spot-check the defining formula
        u = [F(rng.randint(-3, 3)) for _ in range(2 * n)]
        xu = [sum(rows[i][j] * u[j] for j in range(2 * n)) for i in range(2 * n)]
        omega = form(sp)
        om = sum(e.v[i] * omega[i][j] * u[j]
                 for i in range(2 * n) for j in range(2 * n))
        assert xu == [om * c for c in e.v]


def test_mu_scales_quadratically():
    sp = SymplecticSpace(2)
    v = (F(1), F(-2), F(3), F(5))
    lam = F(3, 2)
    scaled = mu(sp, tuple(lam * c for c in v))
    base = mu(sp, v)
    assert scaled.matrix == tuple(
        tuple(lam * lam * x for x in row) for row in base.matrix
    )


def test_mu_zero():
    sp = SymplecticSpace(2)
    e = mu(sp, (0, 0, 0, 0))
    assert all(x == 0 for row in e.matrix for x in row)


def test_mu_keeps_integer_coordinates():
    sp = SymplecticSpace(2)
    e = mu(sp, (1, -2, 3, 5))
    assert all(type(c) is int for c in e.v)
    assert all(type(x) is int for row in e.matrix for x in row)
    assert mu(sp, (F(1), F(-2), F(3), F(5))).matrix == e.matrix


def test_mu_rejects_a_float_coordinate():
    sp = SymplecticSpace(1)
    with pytest.raises(TypeError):
        mu(sp, (1, 0.5))
    with pytest.raises(TypeError):
        mu(sp, (0.0, 0))


def test_mu_and_kk_rank_reject_a_bool_coordinate():
    # True is an int, so mu(sp, (True, 0)) used to build a point of sp(2)
    sp = SymplecticSpace(1)
    for v in ((True, 0), (1, False)):
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            mu(sp, v)
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            kk_rank_at(sp, v)


def test_jordan_type_is_minimal_orbit_partition():
    for n in (1, 2, 3):
        sp = SymplecticSpace(n)
        v = tuple(F(i + 1) for i in range(2 * n))
        assert mu(sp, v).jordan_type() == partitions.minimal_orbit("C", n).partition


def test_jordan_type_rejects_non_nilpotent_matrix():
    identity = RankOneElement(SymplecticSpace(1), (1, 0), ((1, 0), (0, 1)))
    with pytest.raises(ValueError, match="not nilpotent"):
        identity.jordan_type()


def test_fiber_is_sign_pair():
    # sp(2), sp(4) and sp(6): `fiber` reads the space from the element
    for v in ((F(2), F(-1)), (F(2), F(-1), F(3), F(1, 2)),
              (F(2), F(-1), F(3), F(1, 2), F(0), F(-5, 3))):
        e = mu(SymplecticSpace(len(v) // 2), v)
        assert set(fiber(e)) == {v, tuple(-c for c in v)}


def test_fiber_beyond_float_range():
    # 10**400 overflows a float; the square root must stay exact
    sp = SymplecticSpace(1)
    v = (1, 10**200)
    assert set(fiber(mu(sp, v))) == {v, (-1, -10**200)}


def test_fiber_of_zero_rejected():
    sp = SymplecticSpace(1)
    z = mu(sp, (0, 0))
    with pytest.raises(ValueError):
        fiber(z)


def test_fiber_rejects_elements_outside_the_image():
    # rank one with mu(u) zero on u's column, rank one with c = 0, and
    # Omega itself, where c u passes the c^2 solve but mu(c u) != Omega
    sp = SymplecticSpace(1)
    for m in (((1, 1), (0, 0)), ((2, 0), (0, 0)), ((0, 1), (-1, 0))):
        with pytest.raises(ValueError, match="not in the image of mu"):
            fiber(RankOneElement(sp, (1, 0), m))


def test_fiber_without_a_rational_point():
    # -mu((1,0)) gives c^2 = -1 (preimages +-i (1,0)); 2 mu((1,0)) gives
    # c^2 = 1/2 (preimages +-(sqrt 2, 0))
    sp = SymplecticSpace(1)
    for m, c2 in ((((0, -1), (0, 0)), "-1"), (((0, 2), (0, 0)), "1/2")):
        with pytest.raises(ValueError, match=rf"no rational point: c\^2 = {c2} "):
            fiber(RankOneElement(sp, (1, 0), m))


def test_product_cover_degrees():
    for ns in ([1], [1, 1], [1, 2, 1], [2, 2], [1, 1, 1, 1]):
        degree = product_cover_degree(ns)
        assert degree == brute_cover_degree(ns) == 2 ** (len(ns) - 1)
    with pytest.raises(ValueError, match="nonempty list"):
        product_cover_degree([])


def test_kk_rank_equals_orbit_dim():
    for n in (1, 2, 3):
        sp = SymplecticSpace(n)
        v = tuple(F(i + 1) for i in range(2 * n))
        assert kk_rank_at(sp, v) == 2 * n
        assert kk_rank_at(sp, v) == partitions.orbit_dim(
            partitions.minimal_orbit("C", n))


def test_kk_rank_scale_invariant():
    sp = SymplecticSpace(2)
    v = (F(3), F(-1), F(2), F(5))
    w = tuple(F(7) * c for c in v)
    assert kk_rank_at(sp, v) == kk_rank_at(sp, w)


def test_kk_rank_zero_vector_rejected():
    with pytest.raises(ValueError, match="zero vector"):
        kk_rank_at(SymplecticSpace(1), (0, 0))


def test_kk_rank_validates_v_before_the_zero_check():
    # both used to raise "zero vector"
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        kk_rank_at(SymplecticSpace(1), (0.0, 0))
    with pytest.raises(ValueError, match="wrong dimension"):
        kk_rank_at(SymplecticSpace(1), (0, 0, 0))


def test_sp_basis_dimension():
    for n in (1, 2, 3):
        sp = SymplecticSpace(n)
        basis = sp_basis(sp)
        assert len(basis) == n * (2 * n + 1)
        assert all(in_sp(sp, b) for b in basis)


def _commutator_gram(space, v):
    """trace(mu(v) [X, Y]) over the sp(2n) basis, forming each commutator."""
    nmat = mu(space, v).rows()
    basis = sp_basis(space)
    d = space.dim
    gram = []
    for x in basis:
        row = []
        for y in basis:
            xy, yx = mat_mul(x, y), mat_mul(y, x)
            comm = [[p - q for p, q in zip(r1, r2)] for r1, r2 in zip(xy, yx)]
            row.append(sum(nmat[i][k] * comm[k][i]
                           for i in range(d) for k in range(d)))
        gram.append(row)
    return gram


def test_kk_gram_trace_identity_matches_commutators():
    rng = random.Random(4)
    for n in (1, 2, 3):
        sp = SymplecticSpace(n)
        v = tuple(F(rng.randint(-4, 4), 2) for _ in range(2 * n))
        assert _kk_gram(sp, v) == _commutator_gram(sp, v)
