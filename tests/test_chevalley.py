import random
import tracemalloc
from fractions import Fraction

import pytest

from nilorb import linalg
from nilorb.chevalley import ChevalleyAlgebra, build_algebra
from nilorb.rootsys import build_root_system
from oracles import (basis_bracket, centralizer, is_ad_nilpotent,
                     positive_structure_constants)

F = Fraction


def _neg(r):
    return tuple(-c for c in r)


def _times(c, r):
    return tuple(c * x for x in r)


DIMENSIONS = {
    "A1": 3, "A2": 8, "A3": 15,
    "B2": 10, "B3": 21, "C3": 21, "D4": 28,
    "G2": 14, "F4": 52, "E6": 78, "E7": 133, "E8": 248,
}


@pytest.mark.parametrize("name,dim", sorted(DIMENSIONS.items()))
def test_dimensions(name, dim):
    assert build_algebra(name).dim == dim


def test_sl2_relations():
    alg = build_algebra("A1")
    a = (1,)
    x, y, h = alg.root_vector(a), alg.root_vector((-1,)), alg.cartan_element([1])
    assert alg.bracket(h, x) == 2 * x
    assert alg.bracket(h, y) == (-2) * y
    assert alg.bracket(x, y) == h


def test_killing_form_sl2():
    alg = build_algebra("A1")
    h = alg.cartan_element([1])
    assert alg.killing(h, h) == 8


# every type that a verify-paper suite or a benchmark workload builds, and
# B5, C5, D5
JACOBI_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "B5", "C2", "C3",
                "C4", "C5", "D3", "D4", "D5", "G2", "F4", "E6", "E7", "E8"]


@pytest.mark.parametrize("name", JACOBI_TYPES)
def test_jacobi_identity_from_chevalley_generators(name):
    """The bracket is antisymmetric, integral on basis pairs, and
    satisfies the Jacobi identity.

    Let D be the set of x whose ad(x) is a derivation:
    [x, [a, b]] = [[x, a], b] + [a, [x, b]] for all a, b.  D is a subspace,
    because the bracket is bilinear.  For x in D, the rule applied to
    [y, b] says ad[x, y] = [ad x, ad y]; if y is in D too, that commutator
    of derivations is a derivation, so D is a subalgebra.  The test checks
    that the generators X_{+-alpha_i} lie in D and generate g (Carter,
    *Simple Groups of Lie Type*, ch. 4), so D = g: with antisymmetry, that
    is the Jacobi identity.

    With the table antisymmetric, the rule for x on (a, b) reads
    [x, [a, b]] + [a, [b, x]] + [b, [x, a]] = 0.  That sum changes sign
    when a and b swap and vanishes when a = b, so the pairs a < b suffice.

    The table is the algebra's stored one, the rows `bracket` reads, so
    the proof certifies the brackets the library computes.
    """
    alg = build_algebra(name)
    rs, index, n = alg.rs, alg.index, alg.dim
    # table[i][j]: [e_i, e_j] as {basis index: coefficient}
    table = [[{} for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(table):
        for j, m, v in alg.table_row(i):
            row[j][m] = v
    for i in range(n):
        for j in range(i, n):
            assert table[i][j] == {k: -c for k, c in table[j][i].items()}
            assert all(type(c) is int for c in table[i][j].values())

    # the generators span g: H_i = [X_alpha_i, X_-alpha_i], and every other
    # X_{+-t} is a nonzero multiple of [X_{+-alpha_i}, X_{+-s}] for some
    # root s = t - alpha_i of lower height
    simple = rs.simple_roots
    for i, alpha in enumerate(simple):
        assert table[index[alpha]][index[_neg(alpha)]] == {index["H", i]: 1}
    for t in rs.positive_roots:
        if t in simple:
            continue
        for sign in (1, -1):
            assert any(
                table[index[_times(sign, alpha)]][index[_times(sign, s)]]
                .get(index[_times(sign, t)])
                for alpha in simple
                if rs.is_root(s := tuple(x - y for x, y in zip(t, alpha)))
            ), (t, sign)

    def outer(i, inner):
        # [e_i, sum_m c_m e_m]
        out = {}
        for m, c in inner.items():
            for k, v in table[i][m].items():
                out[k] = out.get(k, 0) + c * v
        return out

    for g in (index[_times(sign, alpha)]
              for sign in (1, -1) for alpha in simple):
        tg = table[g]
        for a in range(n):
            ta, tga = table[a], tg[a]
            for b in range(a + 1, n):
                if not (tga or ta[b] or tg[b]):
                    continue  # all three terms vanish
                total = {}
                for x, y, z in ((g, a, b), (a, b, g), (b, g, a)):
                    for m, v in outer(x, table[y][z]).items():
                        total[m] = total.get(m, 0) + v
                assert not any(total.values()), (alg.basis_labels[g],
                                                 alg.basis_labels[a],
                                                 alg.basis_labels[b])


def test_stored_rows_are_compact_and_match_the_row_map():
    """Every stored row of fresh E7 and E8 algebras, filled through
    `table_row`, together takes at most 0.4 MB under tracemalloc (two
    fixed-width int arrays per row take about 0.33 MB; a dict of (t, v)
    pairs per row took about ten times that), and holds, with int
    coefficients and in the order of the columns, exactly the brackets of
    the oracle `basis_bracket`."""
    algs = [ChevalleyAlgebra(build_root_system(t)) for t in ("E7", "E8")]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for alg in algs:
            for i in range(alg.dim):
                alg.table_row(i)
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert size <= 0.4e6, size
    for alg in algs:
        oracle, labels, index = basis_bracket(alg.rs), alg.basis_labels, alg.index
        for i, k in enumerate(labels):
            row = alg.table_row(i)
            assert row == [(j, index[t], v) for j, lbl in enumerate(labels)
                           for t, v in oracle(k, lbl).items()], k
            assert all(type(v) is int for _, _, v in row)


@pytest.mark.parametrize("name", ["G2", "F4"])
def test_ad_entries_reads_only_stored_rows(name, monkeypatch):
    """`ad_entries` reads the stored rows of its labels and nothing else:
    with those rows filled and `_nany` raising, it still equals the oracle,
    with `src` and `dst` shuffled and the H labels in `dst`, so that the
    coroot column [X_r, X_-r] = H_r splits across rows, and it fills no
    other row."""
    alg = ChevalleyAlgebra(build_root_system(name))
    oracle, index = basis_bracket(alg.rs), alg.index
    basis = alg.basis_labels
    labels = basis[1::4]  # root labels and H_1
    for k in labels:
        alg.table_row(index[k])

    def nany(*keys):
        raise AssertionError(f"_nany{keys} called")

    monkeypatch.setattr(alg, "_nany", nany)
    rng = random.Random(0)
    src, dst = basis[:], basis[:]
    rng.shuffle(src)
    rng.shuffle(dst)
    entries = alg.ad_entries(labels, src, dst)
    row_of = {lbl: i for i, lbl in enumerate(dst)}
    assert list(entries) == labels
    for k in labels:
        assert entries[k] == [(row_of[t], j, v) for j, lbl in enumerate(src)
                              for t, v in oracle(k, lbl).items()], k
    assert ([i for i, row in enumerate(alg._rows) if row]
            == sorted(index[k] for k in labels))


# Brute force on G2, the smallest type with root strings of every length
# up to 4: a check of the generator argument above that does not rely on it.
# A8, B8, C8 and D8 add the widest root keys of the classical types: the
# build keys every root with 3 m < 2^bits for m the largest coordinate of the
# highest root (1 for A, 2 for B, C, D)
@pytest.mark.parametrize("name", JACOBI_TYPES + ["A8", "B8", "C8", "D8"])
def test_structure_constants_match_the_fraction_oracle(name):
    alg = build_algebra(name)
    keys = alg._keys
    assert alg._npos == {(keys[r], keys[s]): n for (r, s), n
                         in positive_structure_constants(alg.rs).items()}


# The Jacobi proof above does not cover A8, B8, C8 and D8, the types with
# the widest root keys of the classical ones
@pytest.mark.parametrize("name", JACOBI_TYPES + ["A8", "B8", "C8", "D8"])
def test_every_basis_bracket_matches_the_oracle(name):
    alg = build_algebra(name)
    oracle = basis_bracket(alg.rs)
    basis = [(lbl, alg.element({lbl: 1})) for lbl in alg.basis_labels]
    for a, x in basis:
        for b, y in basis:
            assert alg.bracket(x, y).coeffs == oracle(a, b), (a, b)


@pytest.mark.parametrize("name", [t for t in JACOBI_TYPES if t[0] in "ADE"])
def test_positive_pair_count_of_simply_laced_types(name):
    """On a simply-laced type a + b is a root exactly when (a, b) = -1,
    and each root a has 2h - 4 such roots b, h = |Phi| / rank the Coxeter
    number; so the ordered pairs with a root sum number |Phi| (2h - 4), six
    for each zero-sum triple of roots.  Each such triple holds exactly one
    pair of the same sign (Carter, ch. 4), and negation swaps the triples
    whose pair is positive with those whose pair is negative, so `_npos`,
    the positive pairs in both orders, has |Phi| (2h - 4) / 6 entries."""
    alg = build_algebra(name)
    roots = len(alg.rs.all_roots)
    h = roots // alg.rank
    assert len(alg._npos) * 6 == roots * (2 * h - 4)


@pytest.mark.parametrize("name", ["G2"])
def test_jacobi_exhaustive_small(name):
    alg = build_algebra(name)
    basis = [alg.element({lbl: F(1)}) for lbl in alg.basis_labels]
    for x in basis:
        for y in basis:
            for z in basis:
                s = (alg.bracket(x, alg.bracket(y, z))
                     + alg.bracket(y, alg.bracket(z, x))
                     + alg.bracket(z, alg.bracket(x, y)))
                assert s.is_zero()


@pytest.mark.parametrize("name", ["G2"])
def test_jacobi_exhaustive_unordered_triples(name):
    """Jacobi on every triple i < j < k of basis elements, H labels
    included, from a table of the brackets of basis pairs; the table is
    also antisymmetric."""
    alg = build_algebra(name)
    labels = alg.basis_labels
    n = alg.dim
    index = alg.index
    # table[i][j]: [e_i, e_j] as {basis index: coefficient}
    table = [[{index[k]: c for k, c in alg.bracket(
        alg.element({a: 1}), alg.element({b: 1})).coeffs.items()}
        for b in labels] for a in labels]
    for i in range(n):
        for j in range(n):
            assert table[i][j] == {k: -c for k, c in table[j][i].items()}

    def outer(i, inner):
        # [e_i, sum_m c_m e_m]
        out = {}
        for m, c in inner.items():
            for k, v in table[i][m].items():
                out[k] = out.get(k, 0) + c * v
        return out

    triples = 0
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, v in outer(a, table[b][c]).items():
                        total[m] = total.get(m, 0) + v
                assert not any(total.values()), (labels[i], labels[j], labels[k])
                triples += 1
    assert triples == n * (n - 1) * (n - 2) // 6


@pytest.mark.parametrize("name", ["F4", "E7"])
def test_jacobi_fuzz_large(name):
    alg = build_algebra(name)
    labels = list(alg.basis_labels)
    rng = random.Random(3)
    for _ in range(60):
        x, y, z = (
            alg.element({rng.choice(labels): F(rng.randint(1, 3))})
            for _ in range(3)
        )
        s = (alg.bracket(x, alg.bracket(y, z))
             + alg.bracket(y, alg.bracket(z, x))
             + alg.bracket(z, alg.bracket(x, y)))
        assert s.is_zero()


def test_structure_constants_are_pm_p_plus_one():
    for name in ("B2", "G2", "F4", "E6", "E7", "E8"):
        alg = build_algebra(name)
        rs = alg.rs
        len2 = {r: rs.inner(r, r) for r in rs.all_roots}
        # N(r, s) for every pair of roots with r + s a root, through bracket
        n = {}
        for r in rs.all_roots:
            for s in rs.all_roots:
                t = tuple(a + b for a, b in zip(r, s))
                if rs.is_root(t):
                    n[r, s] = alg.bracket(alg.root_vector(r), alg.root_vector(s)).coeffs[t]
        for (r, s), nrs in n.items():
            # |N(r,s)| = p + 1 where p is the length of the string below
            p = 0
            cur = r
            while True:
                cur = tuple(a - b for a, b in zip(cur, s))
                if not rs.is_root(cur):
                    break
                p += 1
            assert abs(nrs) == p + 1
            assert n[s, r] == -nrs
            assert n[_neg(r), _neg(s)] == -nrs
            # r + s + u = 0: N(r,s)/(u,u) = N(s,u)/(r,r) = N(u,r)/(s,s)
            u = _neg(tuple(a + b for a, b in zip(r, s)))
            assert n[s, u] * len2[u] == nrs * len2[r]
            assert n[u, r] * len2[u] == nrs * len2[s]


def test_weight_space_orthogonality():
    alg = build_algebra("B2")
    rs = alg.rs
    for r in rs.all_roots:
        for s in rs.all_roots:
            if tuple(a + b for a, b in zip(r, s)) != (0, 0):
                k = alg.killing(alg.root_vector(r), alg.root_vector(s))
                assert k == 0


def test_highest_root_vector_ad_cubed_zero():
    for name in ("A2", "C3", "G2", "F4"):
        alg = build_algebra(name)
        x = alg.root_vector(alg.rs.highest_root())
        for lbl in alg.basis_labels:
            b = alg.element({lbl: F(1)})
            assert alg.bracket(x, alg.bracket(x, alg.bracket(x, b))).is_zero()
        assert is_ad_nilpotent(alg, x)


def _sl3_matrix_centralizer_dim():
    """Independent oracle: dim of the centralizer of E13 inside traceless
    3x3 matrices, by solving [M, E13] = 0 as a linear system."""
    basis = []
    for i in range(3):
        for j in range(3):
            if i != j:
                m = [[F(0)] * 3 for _ in range(3)]
                m[i][j] = F(1)
                basis.append(m)
    for i in range(2):
        m = [[F(0)] * 3 for _ in range(3)]
        m[i][i], m[i + 1][i + 1] = F(1), F(-1)
        basis.append(m)
    e13 = [[F(0)] * 3 for _ in range(3)]
    e13[0][2] = F(1)

    def comm(a, b):
        return [
            [
                sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(3))
                for j in range(3)
            ]
            for i in range(3)
        ]

    rows = []
    for i in range(3):
        for j in range(3):
            rows.append([comm(b, e13)[i][j] for b in basis])
    return len(linalg.kernel_basis(rows))


def test_a2_centralizer_against_matrix_oracle():
    alg = build_algebra("A2")
    x = alg.root_vector(alg.rs.highest_root())
    assert alg.centralizer_dim(x) == _sl3_matrix_centralizer_dim() == 4


def test_centralizer_dims_sparse_vs_dense():
    for name in ("B3", "F4"):
        alg = build_algebra(name)
        x = alg.root_vector(alg.rs.highest_root())
        assert alg.centralizer_dim(x) == len(centralizer(alg, x))


def test_e7_centralizer_of_ten_term_element():
    # kernel_basis of the 133 x 133 ad matrix: every vector commutes with
    # x, and there are dim - rank of them
    alg = build_algebra("E7")
    rng = random.Random(10)
    labels = rng.sample(list(alg.rs.positive_roots), 10)
    x = alg.element({lbl: rng.choice([-2, -1, 1, 2, 3]) for lbl in labels})
    cent = centralizer(alg, x)
    assert all(alg.bracket(x, v).is_zero() for v in cent)
    ad = alg.ad_matrix(x, alg.basis_labels, alg.basis_labels)
    assert len(cent) == alg.dim - linalg.rank(ad) == 39


def test_orbit_dimension_e8_minimal():
    alg = build_algebra("E8")
    x = alg.root_vector(alg.rs.highest_root())
    assert alg.orbit_dimension(x) == 58
    assert alg.projective_orbit_dimension(x) == 57


def test_killing_invariance_random():
    rng = random.Random(5)
    for name in ("A2", "G2"):
        alg = build_algebra(name)
        labels = list(alg.basis_labels)
        for _ in range(30):
            x, y, z = (
                alg.element({
                    lbl: F(rng.randint(-2, 2))
                    for lbl in rng.sample(labels, 3)
                })
                for _ in range(3)
            )
            assert alg.killing(alg.bracket(x, y), z) == alg.killing(
                x, alg.bracket(y, z))


def test_cartan_bracket_diagonal():
    alg = build_algebra("G2")
    for r in alg.rs.all_roots:
        for i in range(2):
            got = alg.bracket(alg.element({("H", i): 1}), alg.root_vector(r))
            pairing = sum(
                r[k] * alg.rs.cartan_matrix[k][i] for k in range(2)
            )
            assert got == pairing * alg.root_vector(r)


def test_coefficients_are_exact():
    alg = build_algebra("A2")
    x = alg.element({(1, 0): 2, (0, 1): F(1, 3), (1, 1): 0})
    assert x.coeffs == {(1, 0): 2, (0, 1): F(1, 3)}
    assert type(x.coeffs[(1, 0)]) is int
    with pytest.raises(TypeError):
        alg.element({(1, 0): 0.1})
    with pytest.raises(TypeError):
        alg.cartan_element([1, 0.5])
    with pytest.raises(TypeError):
        x.scale(0.5)


@pytest.mark.parametrize("name", ["G2", "B2", "F4"])
def test_integral_elements_stay_integral(name):
    alg = build_algebra(name)
    basis = [alg.element({lbl: 1}) for lbl in alg.basis_labels]
    # every basis bracket, the H terms of [X_r, X_-r] included
    for x in basis:
        for y in basis:
            assert all(type(c) is int for c in alg.bracket(x, y).coeffs.values())
    for r in alg.rs.positive_roots:
        h = alg.bracket(alg.root_vector(r), alg.root_vector(_neg(r)))
        assert h.coeffs and all(type(c) is int for c in h.coeffs.values())
    rng = random.Random(5)
    labels = list(alg.basis_labels)
    for _ in range(10):
        x, y = (alg.element({lbl: rng.randint(-3, 3) for lbl in labels})
                for _ in range(2))
        assert all(type(c) is int for c in alg.bracket(x, y).coeffs.values())
        assert type(alg.killing(x, y)) is int
        assert all(type(c) is int for c in x.to_vector())


def test_scale_rejects_a_float_scalar():
    alg = build_algebra("A2")
    for x in (alg.element({}), alg.element({(1, 0): 1})):
        with pytest.raises(TypeError):
            x.scale(0.5)
        with pytest.raises(TypeError):
            0.5 * x
    assert alg.element({(1, 0): 3}).scale(F(1, 3)) == alg.element({(1, 0): 1})


def test_bool_coefficients_are_rejected():
    # True is an int: alg.element({('H', 0): True}) used to store True, with
    # the repr True*H1
    alg = build_algebra("A2")
    x = alg.element({(1, 0): 1})
    for flag in (True, False):
        with pytest.raises(TypeError, match="coefficient .* is not an int"):
            alg.element({("H", 0): flag})
        with pytest.raises(TypeError, match="coefficient .* is not an int"):
            alg.cartan_element([1, flag])
        with pytest.raises(TypeError, match="scalar .* is not an int"):
            x.scale(flag)
        with pytest.raises(TypeError, match="scalar .* is not an int"):
            flag * x


def test_element_rejects_a_label_outside_the_basis():
    alg = build_algebra("G2")
    for label in ((9, 9), ("H", 5)):
        with pytest.raises(ValueError, match="not a basis label of G2"):
            alg.element({label: 1})
    with pytest.raises(ValueError):
        alg.cartan_element([1, 0, 0])
    with pytest.raises(ValueError, match="is not a root"):
        alg.root_vector((9, 9))


def test_ad_entries_rejects_a_label_outside_the_basis():
    alg = build_algebra("A2")
    labels = alg.basis_labels
    # a src label outside the basis, which no bracket would have read
    with pytest.raises(ValueError, match=r"\('H', 5\) is not a basis label of A2"):
        alg.ad_entries([("H", 0)], [("H", 5)], labels)
    # a src label that is no root, which the pairings would not have held
    with pytest.raises(ValueError, match=r"\(1, 2\) is not a basis label of A2"):
        alg.ad_entries([("H", 0)], [(1, 2)], labels)
    # an operator label outside the basis, whose brackets all look empty
    with pytest.raises(ValueError, match=r"\(7, 7\) is not a basis label of A2"):
        alg.ad_entries([(7, 7)], [(1, 0)], labels)
    # a dst label outside the basis, which no component would have met
    with pytest.raises(ValueError, match=r"\(0, 0\) is not a basis label of A2"):
        alg.ad_entries([(1, 0)], [(0, 1)], [(1, 1), (0, 0)])


def test_ad_entries_rejects_a_repeated_destination_label():
    # a repeated dst label used to keep only its last row: on A2 this
    # matrix read [[0], [-1]], where both rows are [X_(1,0), X_(0,1)] = -X_(1,1)
    alg = build_algebra("A2")
    x = alg.root_vector((1, 0))
    with pytest.raises(ValueError, match=r"\(1, 1\) repeats in the destination labels"):
        alg.ad_matrix(x, [(0, 1)], [(1, 1), (1, 1)])
    with pytest.raises(ValueError, match=r"\('H', 0\) repeats"):
        alg.ad_entries([(1, 0)], [(0, 1)], [("H", 0), (1, 1), ("H", 0)])
    # a repeated src label is a repeated column
    assert alg.ad_matrix(x, [(0, 1), (0, 1)], [(1, 1)]) == [[-1, -1]]


def test_ad_matrix_of_a_zero_pairing_is_zero():
    # <(1, 0, 0), alpha_3^vee> = 0 on A3, so [H_3, X_(1,0,0)] = 0 has no
    # component outside the destination labels
    alg = build_algebra("A3")
    h3 = alg.element({("H", 2): 1})
    assert alg.ad_matrix(h3, [(1, 0, 0)], [("H", 0)]) == [[0]]
    assert alg.ad_entries([("H", 2)], [(1, 0, 0)], [("H", 0)]) == {("H", 2): []}


@pytest.mark.parametrize("name", ["G2", "F4", "E8"])
def test_ad_entries_are_nonzero(name):
    alg = build_algebra(name)
    labels = alg.basis_labels
    entries = alg.ad_entries(labels, labels, labels)
    assert all(v for ek in entries.values() for _, _, v in ek)


def test_bracket_is_antisymmetric_on_multi_term_elements():
    alg = build_algebra("E7")
    labels = alg.basis_labels
    rng = random.Random(5)
    for _ in range(10):
        x, y = (alg.element({lbl: F(rng.randint(-4, 4) or 1, rng.randint(1, 3))
                             for lbl in rng.sample(labels, 12)})
                for _ in range(2))
        xy = alg.bracket(x, y)
        assert not xy.is_zero()
        assert alg.bracket(y, x) == -xy


@pytest.mark.parametrize("name", ["G2", "F4", "E6"])
def test_ad_entries_match_the_oracle(name):
    # src reversed, so that the column j of a row is not the label's index
    alg = build_algebra(name)
    oracle, index = basis_bracket(alg.rs), alg.index
    basis = alg.basis_labels
    src = basis[::-1]
    entries = alg.ad_entries(basis, src, basis)
    assert list(entries) == basis
    for k in basis:
        want = sorted((index[t], j, v) for j, lbl in enumerate(src)
                      for t, v in oracle(k, lbl).items())
        assert sorted(entries[k]) == want, k


@pytest.mark.parametrize("name", ["E7", "E8"])
def test_bracket_of_elements_matches_the_oracle(name):
    # seeded elements with H labels and Fraction coefficients, against the
    # bilinear sum of c_a c_b [e_a, e_b] over the oracle's basis brackets
    alg = build_algebra(name)
    oracle = basis_bracket(alg.rs)
    hs = [("H", i) for i in range(alg.rank)]
    roots = alg.basis_labels[:-alg.rank]
    rng = random.Random(7)
    for _ in range(4):
        x, y = (alg.element({lbl: F(rng.randint(-4, 4) or 1, rng.randint(1, 3))
                             for lbl in rng.sample(roots, 10) + rng.sample(hs, 3)})
                for _ in range(2))
        want = {}
        for a, ca in x.coeffs.items():
            for b, cb in y.coeffs.items():
                for t, v in oracle(a, b).items():
                    want[t] = want.get(t, 0) + ca * cb * v
        assert alg.bracket(x, y).coeffs == {t: v for t, v in want.items() if v}


def test_computed_results_store_no_zero_coefficient():
    # the library builds these results without the checks of alg.element;
    # the first three cancel every coefficient, and x + y cancels some
    alg = build_algebra("B3")
    labels = alg.basis_labels
    rng = random.Random(3)
    for _ in range(5):
        x = alg.element({lbl: F(rng.randint(-3, 3) or 1, rng.randint(1, 2))
                         for lbl in rng.sample(labels, 6)})
        y = alg.element({lbl: -c for lbl, c in list(x.coeffs.items())[:3]}
                        | {rng.choice(labels): 2})
        zeros = [alg.bracket(x, x), x + (-x), x.scale(0)]
        assert all(r.is_zero() for r in zeros)
        for r in zeros + [alg.bracket(x, y), x + y, -x, x.scale(F(-1, 2)), 3 * x]:
            assert 0 not in r.coeffs.values()
            assert r == alg.element(r.coeffs)


def test_mixed_algebra_rejected():
    a1, a2 = build_algebra("A1"), build_algebra("A2")
    with pytest.raises((ValueError, AssertionError)):
        a1.cartan_element([1]) + a2.cartan_element([1, 0])


def test_ad_matrix_rejects_an_element_of_another_algebra():
    # G2's X_(1,0) used to get B2's orbit dim 4, and an A3 label a KeyError
    b2 = build_algebra("B2")
    for x in (build_algebra("G2").root_vector((1, 0)),
              build_algebra("A3").root_vector((1, 1, 1))):
        for proc in (b2.orbit_dimension, b2.centralizer_dim,
                     lambda y: b2.bracket(y, y), lambda y: b2.killing(y, y)):
            with pytest.raises(ValueError, match="different algebra"):
                proc(x)
    zero = b2.element({})
    assert b2.centralizer_dim(zero) == b2.dim
    with pytest.raises(ValueError, match="orbit dimension of 0"):
        b2.orbit_dimension(zero)


def _trace_killing(alg, x, y):
    """trace(ad x ad y), summed over the basis with `bracket`."""
    total = F(0)
    for lbl in alg.basis_labels:
        e = alg.element({lbl: F(1)})
        total += alg.bracket(x, alg.bracket(y, e)).coeffs.get(lbl, 0)
    return total


def _dual(lbl):
    return lbl if lbl[0] == "H" else tuple(-c for c in lbl)


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "C3", "F4"])
def test_killing_gram_matches_trace_on_random_elements(name):
    alg = build_algebra(name)
    labels = list(alg.basis_labels)
    rng = random.Random(11)
    for _ in range(8):
        x = alg.element({lbl: F(rng.randint(-3, 3))
                         for lbl in rng.sample(labels, min(8, len(labels)))})
        # y meets labels dual to some of x's, so that K(x, y) is seldom 0
        y_labels = [_dual(lbl) for lbl in list(x.coeffs)[:4]] + rng.sample(labels, 3)
        y = alg.element({lbl: F(rng.randint(1, 3)) for lbl in y_labels})
        assert alg.killing(x, y) == _trace_killing(alg, x, y)


@pytest.mark.parametrize("name", ["G2", "B3", "C3", "F4", "E6"])
def test_killing_gram_matches_trace_on_basis_pairs(name):
    # every opposite pair, so K(X_r, X_-r) is checked on long and short r
    alg = build_algebra(name)
    rng = random.Random(2)
    pairs = [(r, tuple(-c for c in r)) for r in alg.rs.positive_roots]
    pairs += [(r, rng.choice(alg.rs.all_roots)) for r in alg.rs.positive_roots]
    pairs += [(("H", i), ("H", j)) for i in range(alg.rank) for j in range(alg.rank)]
    for a, b in pairs:
        x, y = alg.element({a: F(1)}), alg.element({b: F(1)})
        assert alg.killing(x, y) == _trace_killing(alg, x, y)


@pytest.mark.parametrize("name", ["G2", "B3", "E6"])
def test_killing_vector_reads_the_killing_form(name):
    alg = build_algebra(name)
    labels = list(alg.basis_labels)
    rng = random.Random(5)
    xs = [alg.element({lbl: F(rng.randint(-3, 3), rng.randint(1, 2))
                       for lbl in rng.sample(labels, 6)}) for _ in range(3)]
    xs += [alg.element({lbl: 1}) for lbl in labels[:2] + labels[-2:]]
    for x in xs:
        vec = alg.killing_vector(x)
        assert vec == [alg.killing(alg.element({lbl: 1}), x) for lbl in labels]
    with pytest.raises(ValueError, match="different algebra"):
        build_algebra("A2").killing_vector(xs[0])


# dual Coxeter numbers (Bourbaki, planches)
DUAL_COXETER = {"A3": 4, "B3": 5, "C3": 4, "D4": 6,
                "G2": 4, "F4": 9, "E6": 12, "E7": 18, "E8": 30}


@pytest.mark.parametrize("name", sorted(DUAL_COXETER))
def test_killing_gram_closed_form(name):
    # with long roots of squared length 2: K(X_r, X_-r) = 4 h^v / (r, r)
    # and K(H_i, H_j) = 8 h^v (a_i, a_j) / ((a_i, a_i) (a_j, a_j))
    alg = build_algebra(name)
    rs, hv = alg.rs, DUAL_COXETER[name]
    for r in rs.all_roots:
        x, y = alg.element({r: 1}), alg.element({tuple(-c for c in r): 1})
        assert alg.killing(x, y) == F(4 * hv) / rs.inner(r, r)
    simple = rs.simple_roots
    for i, a in enumerate(simple):
        for j, b in enumerate(simple):
            k = alg.killing(alg.element({("H", i): 1}), alg.element({("H", j): 1}))
            assert k == F(8 * hv) * rs.inner(a, b) / (rs.inner(a, a) * rs.inner(b, b))


def test_build_algebra_cached_per_type():
    from nilorb.rootsys import CartanType

    alg = build_algebra("B3")
    assert alg is build_algebra(CartanType.parse("B3"))
