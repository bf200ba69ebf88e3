import pytest

from nilorb import dynkin, partitions
from nilorb.chevalley import build_algebra
from nilorb.partitions import (
    JordanOrbit,
    OrbitPoset,
    closure_leq,
    dual_partition,
    matrix_size,
    minimal_orbit,
    orbit_dim,
    pi1_order,
    weighted_diagram,
)

# orbit counts including the split very even classes in type D
ORBIT_COUNTS = {
    ("A", 3): 5,     # partitions of 4
    ("C", 2): 4,
    ("C", 3): 8,
    ("B", 3): 7,
    ("D", 4): 12,    # 10 partitions, two of them split
}


def _brute_count(family, rank):
    """Independent oracle: enumerate all partitions of the matrix size and
    filter by the multiplicity constraint directly."""
    n = partitions.matrix_size(family, rank)

    def gen(total, maxpart):
        if total == 0:
            yield ()
            return
        for first in range(min(total, maxpart), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    count = 0
    for parts in gen(n, n):
        if not partitions.is_valid_partition(family, rank, parts):
            continue
        count += 1
        if family == "D" and all(p % 2 == 0 for p in parts):
            count += 1
    return count


@pytest.mark.parametrize("key,count", sorted(ORBIT_COUNTS.items()))
def test_orbit_counts(key, count):
    fam, l = key
    assert len(OrbitPoset(fam, l).orbits) == count == _brute_count(fam, l)


def test_validity_filters():
    assert partitions.is_valid_partition("B", 3, (3, 3, 1))
    assert not partitions.is_valid_partition("B", 3, (4, 3))      # even, odd mult
    assert partitions.is_valid_partition("C", 3, (2, 2, 2))
    assert not partitions.is_valid_partition("C", 3, (3, 2, 1))   # odd, odd mult
    assert not partitions.is_valid_partition("A", 2, (2, 2))      # wrong size
    assert not partitions.is_valid_partition("A", 2, (1, 2))      # unsorted
    with pytest.raises(ValueError, match="not a classical family"):
        matrix_size("G", 2)
    with pytest.raises(ValueError):
        JordanOrbit("C", 2, (3, 1))
    with pytest.raises(ValueError):
        JordanOrbit("B", 3, (3, 3, 1), "I")  # label on non-very-even
    with pytest.raises(ValueError, match="names two D4 orbits"):
        JordanOrbit("D", 4, (2, 2, 2, 2))  # very even: two classes, no label
    for label in ("III", "ii"):
        with pytest.raises(ValueError, match="is not I or II"):
            JordanOrbit("D", 4, (2, 2, 2, 2), label)
    with pytest.raises(ValueError):
        JordanOrbit("D", 4, (4, 4))


def test_dual_partition():
    assert dual_partition((3, 1)) == (2, 1, 1)
    assert dual_partition((2, 2, 1)) == (3, 2)
    assert dual_partition(()) == ()


def test_known_dimensions():
    assert orbit_dim(JordanOrbit("A", 2, (2, 1))) == 4
    assert orbit_dim(JordanOrbit("A", 3, (4,))) == 12
    assert orbit_dim(JordanOrbit("B", 3, (2, 2, 1, 1, 1))) == 8
    assert orbit_dim(JordanOrbit("B", 3, (3, 1, 1, 1, 1))) == 10
    assert orbit_dim(JordanOrbit("D", 4, (3, 2, 2, 1))) == 16
    assert orbit_dim(JordanOrbit("D", 4, (5, 3))) == 22
    for l in range(2, 7):
        assert orbit_dim(minimal_orbit("C", l)) == 2 * l
        assert orbit_dim(JordanOrbit("C", l, (1,) * matrix_size("C", l))) == 0


def test_dim_agrees_with_grading_decomposition():
    # dim O = dim g - dim g(0) - dim g(1) for the diagram's grading
    for fam, l in [("A", 3), ("B", 3), ("C", 3), ("D", 4)]:
        alg = build_algebra(f"{fam}{l}")
        for o in OrbitPoset(fam, l).orbits:
            wd = weighted_diagram(o)
            grading = dynkin.Grading(alg, wd)
            d0 = len(grading.piece(0))
            d1 = len(grading.piece(1))
            assert orbit_dim(o) == alg.dim - d0 - d1, str(o)


def test_weighted_diagram_values():
    assert weighted_diagram(minimal_orbit("B", 4)).labels == (0, 1, 0, 0)
    assert weighted_diagram(minimal_orbit("C", 3)).labels == (1, 0, 0)
    assert weighted_diagram(JordanOrbit("C", 2, (2, 2))).labels == (0, 2)
    assert weighted_diagram(JordanOrbit("A", 2, (3,))).labels == (2, 2)
    assert weighted_diagram(JordanOrbit("D", 4, (1,) * matrix_size("D", 4))).labels == (0, 0, 0, 0)
    one = weighted_diagram(JordanOrbit("D", 4, (2, 2, 2, 2), "I")).labels
    two = weighted_diagram(JordanOrbit("D", 4, (2, 2, 2, 2), "II")).labels
    assert one == (0, 0, 0, 2) and two == (0, 0, 2, 0)


def test_diagram_injectivity():
    for fam, l in [("A", 4), ("B", 4), ("C", 4), ("D", 4)]:
        poset = OrbitPoset(fam, l)
        seen = {}
        for o in poset.orbits:
            labels = weighted_diagram(o).labels
            assert labels not in seen, (o, seen[labels]) if labels in seen else o
            seen[labels] = o


def test_pi1_orders():
    assert pi1_order(JordanOrbit("A", 2, (3,))) == 3
    assert pi1_order(JordanOrbit("A", 3, (2, 2))) == 2
    assert pi1_order(minimal_orbit("A", 3)) == 1
    assert pi1_order(JordanOrbit("C", 3, (2, 2, 2))) == 2
    assert pi1_order(JordanOrbit("C", 3, (4, 2))) == 4
    assert pi1_order(JordanOrbit("B", 2, (2, 2, 1))) == 2
    assert pi1_order(JordanOrbit("B", 3, (3, 1, 1, 1, 1))) == 2
    assert pi1_order(JordanOrbit("D", 4, (3, 2, 2, 1))) == 4
    assert pi1_order(JordanOrbit("D", 4, (5, 3))) == 4
    assert pi1_order(JordanOrbit("B", 4, (2, 2, 2, 2, 1))) == 2
    assert pi1_order(minimal_orbit("D", 4)) == 1
    with pytest.raises(ValueError):
        pi1_order(JordanOrbit("C", 2, (1,) * matrix_size("C", 2)))


def test_closure_order_dominance():
    a = JordanOrbit("C", 3, (2, 2, 1, 1))
    b = JordanOrbit("C", 3, (2, 2, 2))
    c = JordanOrbit("C", 3, (4, 2))
    assert closure_leq(a, b) and closure_leq(b, c) and closure_leq(a, c)
    assert not closure_leq(c, a)
    z = JordanOrbit("C", 3, (1,) * matrix_size("C", 3))
    for o in OrbitPoset("C", 3).orbits:
        assert closure_leq(z, o)


def test_very_even_pair_incomparable():
    one = JordanOrbit("D", 4, (2, 2, 2, 2), "I")
    two = JordanOrbit("D", 4, (2, 2, 2, 2), "II")
    assert not closure_leq(one, two)
    assert not closure_leq(two, one)
    assert closure_leq(one, one)


def test_unique_minimal_and_boundary():
    for fam, l in [("A", 3), ("C", 2), ("C", 3), ("B", 3), ("D", 4)]:
        poset = OrbitPoset(fam, l)
        assert poset.minimal_nonzero() == [minimal_orbit(fam, l)]
        for o in poset.nonzero_orbits():
            assert poset.boundary_codim(o) >= 2
    poset = OrbitPoset("C", 2)
    m = minimal_orbit("C", 2)
    assert poset.boundary_codim(m) == orbit_dim(m) == 4
    with pytest.raises(ValueError):
        poset.boundary_codim(JordanOrbit("C", 2, (1,) * matrix_size("C", 2)))


def test_cross_family_comparison_rejected():
    with pytest.raises(ValueError):
        closure_leq(minimal_orbit("C", 2), minimal_orbit("B", 2))
