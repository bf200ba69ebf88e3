from fractions import Fraction

import random

from nilorb import linalg

F = Fraction


def test_rref_identity():
    m, pivots = linalg.rref([[F(2), F(0)], [F(0), F(3)]])
    assert m == [[F(1), F(0)], [F(0), F(1)]]
    assert pivots == [0, 1]


def test_rank_and_kernel():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
    assert linalg.rank(rows) == 2
    ker = linalg.kernel_basis(rows)
    assert len(ker) == 1
    v = ker[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_solve_consistent_and_inconsistent():
    rows = [[F(1), F(1)], [F(1), F(-1)]]
    x = linalg.solve(rows, [F(3), F(1)])
    assert x == [F(2), F(1)]
    rows = [[F(1), F(1)], [F(2), F(2)]]
    assert linalg.solve(rows, [F(1), F(3)]) is None


def test_sparse_rank_matches_dense():
    rng = random.Random(7)
    for _ in range(20):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[F(rng.randint(-3, 3)) for _ in range(m)] for _ in range(n)]
        sparse = [
            {j: v for j, v in enumerate(row) if v != 0} for row in dense
        ]
        assert linalg.sparse_rank(sparse) == linalg.rank(dense)


def test_kernel_dimension_theorem():
    rng = random.Random(11)
    for _ in range(15):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[F(rng.randint(-2, 2)) for _ in range(m)] for _ in range(n)]
        assert linalg.rank(rows) + len(linalg.kernel_basis(rows)) == m



def test_sparse_is_nilpotent():
    # columns {row: value}: a strictly triangular shift, a permutation cycle
    shift = [{}, {0: F(2)}, {1: F(-1)}, {2: F(1, 3)}]
    cycle = [{1: F(1)}, {2: F(1)}, {0: F(1)}]
    assert linalg.sparse_is_nilpotent(shift)
    assert linalg.sparse_is_nilpotent([{}, {}])
    assert not linalg.sparse_is_nilpotent(cycle)
    assert not linalg.sparse_is_nilpotent([{0: F(1)}, {}])
    # the shift with its corner closed is a cycle up to scalars
    assert not linalg.sparse_is_nilpotent([{3: F(1)}] + shift[1:])


def test_solve_with_kernel_agrees_with_solve_and_annihilates():
    rng = random.Random(9)
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[F(rng.randint(-2, 2)) for _ in range(nc)] for _ in range(nr)]
        rhs = [F(rng.randint(-2, 2)) for _ in range(nr)]
        x, ker = linalg.solve_with_kernel(rows, rhs)
        assert x == linalg.solve(rows, rhs)
        assert len(ker) == nc - linalg.rank(rows)
        for v in ker:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)
