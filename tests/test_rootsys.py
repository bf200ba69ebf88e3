from fractions import Fraction

import pytest

from nilorb.rootsys import CartanType, build_root_system
from oracles import epsilon_coords

# root counts for the simple types (independent closed forms)
ROOT_COUNTS = {
    "A1": 2, "A2": 6, "A3": 12, "A4": 20,
    "B2": 8, "B3": 18, "B4": 32,
    "C2": 8, "C3": 18, "C4": 32,
    "D3": 12, "D4": 24, "D5": 40,
    "G2": 12, "F4": 48, "E6": 72, "E7": 126, "E8": 240,
}

HIGHEST_ROOTS = {
    "A3": (1, 1, 1),
    "B3": (1, 2, 2),
    "C3": (2, 2, 1),
    "D4": (1, 2, 1, 1),
    "G2": (3, 2),
    "F4": (2, 3, 4, 2),
    "E6": (1, 2, 2, 3, 2, 1),
    "E8": (2, 3, 4, 6, 5, 4, 3, 2),
}


@pytest.mark.parametrize("name,count", sorted(ROOT_COUNTS.items()))
def test_root_counts(name, count):
    rs = build_root_system(name)
    assert len(rs.all_roots) == count
    assert len(rs.positive_roots) == count // 2


@pytest.mark.parametrize("name,theta", sorted(HIGHEST_ROOTS.items()))
def test_highest_roots(name, theta):
    assert build_root_system(name).highest_root() == theta


def _reflection_closure(rs):
    """Independent oracle: orbit of the simple roots under all simple
    reflections, in simple-root coordinates via the Cartan matrix."""
    n = rs.rank
    c = rs.cartan_matrix

    def reflect(root, j):
        pairing = sum(root[i] * c[i][j] for i in range(n))
        out = list(root)
        out[j] -= pairing
        return tuple(out)

    frontier = {tuple(1 if i == j else 0 for i in range(n)) for j in range(n)}
    seen = set(frontier)
    while frontier:
        new = set()
        for r in frontier:
            for j in range(n):
                s = reflect(r, j)
                if s not in seen:
                    seen.add(s)
                    new.add(s)
        frontier = new
    return seen


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4", "E6"])
def test_reflection_closure_oracle(name):
    rs = build_root_system(name)
    assert set(rs.all_roots) == _reflection_closure(rs)


@pytest.mark.parametrize("name", sorted(ROOT_COUNTS))
def test_cartan_integers(name):
    rs = build_root_system(name)
    stride = 5 if len(rs.all_roots) > 100 else 1
    for r in rs.all_roots[::stride]:
        for s in rs.all_roots[::stride]:
            v = 2 * rs.inner(r, s) / rs.inner(s, s)
            assert v.denominator == 1 and -4 < v < 4


@pytest.mark.parametrize("name", ["A2", "B3", "C3", "D4", "G2", "F4", "E8"])
def test_epsilon_realization_matches_form(name):
    rs = build_root_system(name)
    # euclidean dot of the epsilon coordinates agrees with the abstract
    # form up to one global positive normalization
    theta = rs.highest_root()
    et = epsilon_coords(rs, theta)
    ratio = sum(a * a for a in et) / rs.inner(theta, theta)
    assert ratio > 0
    for r in rs.all_roots[: 40]:
        for s in rs.all_roots[: 40]:
            er, es = epsilon_coords(rs, r), epsilon_coords(rs, s)
            dot = sum(a * b for a, b in zip(er, es))
            assert dot == ratio * rs.inner(r, s)


def test_long_roots_have_squared_length_two():
    for name in ("B3", "C3", "G2", "F4", "E6"):
        rs = build_root_system(name)
        lengths = {rs.inner(r, r) for r in rs.all_roots}
        assert max(lengths) == 2
        assert len(lengths) == (1 if name == "E6" else 2)


def test_f4_specific_roots_present():
    rs = build_root_system("F4")
    assert rs.is_root((1, 1, 1, 0))
    assert rs.is_root((1, 2, 2, 2))
    assert rs.is_root((1, 2, 4, 2))
    assert not rs.is_root((2, 2, 2, 2))


def test_coroot_pairing():
    for name in ("B2", "G2", "F4"):
        rs = build_root_system(name)
        simple = [
            tuple(1 if k == i else 0 for k in range(rs.rank))
            for i in range(rs.rank)
        ]
        for r in rs.positive_roots:
            co = rs.coroots[r]
            # <r, r^vee> = 2, expanding r^vee over the simple coroots
            val = sum(
                Fraction(co[i]) * 2 * rs.inner(r, simple[i])
                / rs.inner(simple[i], simple[i])
                for i in range(rs.rank)
            )
            assert val == 2


def test_cartan_type_validation():
    with pytest.raises(ValueError):
        CartanType("E", 9)
    with pytest.raises(ValueError):
        CartanType("G", 3)
    with pytest.raises(ValueError):
        CartanType.parse("H4")
    with pytest.raises(ValueError, match="unknown family 'H'"):
        CartanType("H", 3)
    assert CartanType.parse("E7") == CartanType("E", 7)


def test_cartan_type_rank_must_be_an_int():
    # CartanType("A", 2.0) used to construct and fail later, inside
    # build_root_system
    for rank in (2.0, Fraction(2), True, "2"):
        with pytest.raises(TypeError, match="is not an int"):
            CartanType("A", rank)


def test_graph_ends():
    assert build_root_system("A4").graph_ends() == [0, 3]
    assert build_root_system("D4").graph_ends() == [0, 2, 3]
    assert build_root_system("E6").graph_ends() == [0, 1, 5]
    assert build_root_system("E7").graph_ends() == [0, 1, 6]
    assert build_root_system("E8").graph_ends() == [0, 1, 7]


def test_e_type_sigma_facts():
    for name in ("E6", "E7", "E8"):
        facts = build_root_system(name).simple_root_sum_facts
        assert facts["sigma_is_root"]
        assert all(facts["sigma_minus_end_is_root"].values())
        assert all(facts["orthogonal_pairs"].values())
        # computed once per root system
        assert build_root_system(name).simple_root_sum_facts is facts


def test_sigma_facts_reject_other_types():
    with pytest.raises(ValueError, match="only defined for E types"):
        build_root_system("D4").simple_root_sum_facts


def test_root_from_epsilon_round_trip():
    rs = build_root_system("E8")
    for r in rs.all_roots[::17]:
        assert rs.root_from_epsilon(epsilon_coords(rs, r)) == r
    # G2 lives in the plane x + y + z = 0 of Q^3
    assert build_root_system("G2").root_from_epsilon([1, 1, 1]) is None


def test_root_from_epsilon_rejects_inexact_coordinates():
    # Fraction(0.1) used to turn a binary float into "exact" input, and
    # True read as 1
    rs = build_root_system("A2")
    for eps in ([1, -1, 0.0], [0.5, -0.5, 0], [True, -1, 0]):
        with pytest.raises(TypeError, match="is not an int or a Fraction"):
            rs.root_from_epsilon(eps)
    assert rs.root_from_epsilon([1, Fraction(-1), 0]) == (1, 0)


def test_root_from_epsilon_rejects_the_wrong_dimension():
    # A2 used to read (1, -1, 0, 5) as alpha_1, and E8 read (1, 1) as alpha_2
    for name, eps in (("A2", [1, -1, 0, 5]), ("A2", [1, -1]), ("E8", [1, 1])):
        with pytest.raises(ValueError, match="lives in dimension"):
            build_root_system(name).root_from_epsilon(eps)


def test_build_root_system_cached_per_type():
    assert build_root_system("E8") is build_root_system(CartanType.parse("E8"))


TABLE_TYPES = ([f"A{n}" for n in range(1, 8)] + [f"B{n}" for n in range(2, 7)]
               + [f"C{n}" for n in range(2, 7)] + [f"D{n}" for n in range(3, 8)]
               + ["G2", "F4", "E6", "E7", "E8"])


@pytest.mark.parametrize("name", TABLE_TYPES)
def test_root_tables_match_closed_forms(name):
    rs = build_root_system(name)
    C, n = rs.cartan_matrix, rs.rank
    assert list(rs.pairings) == list(rs.coroots) == rs.all_roots
    # the negatives follow the positive roots, in their order
    pos = rs.positive_roots
    assert rs.all_roots[len(pos):] == [tuple(-c for c in r) for r in pos]
    for r in rs.all_roots:
        # <r, alpha_j^vee> = sum_i r_i <alpha_i, alpha_j^vee>
        assert rs.pairings[r] == tuple(sum(r[i] * C[i][j] for i in range(n))
                                       for j in range(n))
        # r^vee = 2 r / (r, r) = sum_i r_i (alpha_i, alpha_i) / (r, r) alpha_i^vee
        rr = rs.inner(r, r)
        assert rs.coroots[r] == tuple(c * rs.sym_form[i][i] / rr
                                      for i, c in enumerate(r))
        assert all(type(v) is int for v in rs.pairings[r] + rs.coroots[r])


# A1-A8, B2-B8, C2-C8, D4-D8, E6-E8, F4 and G2
STEP_TYPES = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
              + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
              + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("name", STEP_TYPES)
def test_step_table(name):
    """The first rank positive roots are the simple roots, alpha_rank
    first, and the step (p, i) of every later positive root t has p before
    t and t = positive_roots[p] + alpha_i."""
    rs = build_root_system(name)
    n, pos = rs.rank, rs.positive_roots
    assert pos[:n] == rs.simple_roots[::-1]
    assert len(rs.steps) == len(pos) - n
    for t, (p, i) in enumerate(rs.steps, n):
        assert 0 <= p < t and 0 <= i < n
        assert pos[t] == tuple(c + (k == i) for k, c in enumerate(pos[p]))
