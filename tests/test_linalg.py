from fractions import Fraction

import random

import pytest

from nilorb import linalg

F = Fraction


def test_rref_identity():
    # an invertible matrix has no kernel; each free column's vector reads
    # the reduced rows, every pivot scaled to 1
    assert linalg.kernel_basis([[F(2), F(0)], [F(0), F(3)]]) == []
    assert linalg.kernel_basis([[2, 0, 4], [0, 3, 3]]) == [[F(-2), F(-1), F(1)]]


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


def test_solve_rejects_a_right_hand_side_of_the_wrong_length():
    # zip used to drop the extra rows: solve(identity, [1]) returned [1, 0]
    for rows, rhs in (([[1, 0], [0, 1]], [1]), ([[1, 0]], [1, 2]), ([], [1])):
        with pytest.raises(ValueError, match="right-hand side has"):
            linalg.solve(rows, rhs)


def test_sparse_rank_matches_dense():
    # rank eliminates on the nonzero entries; the textbook rref is the
    # dense reference
    rng = random.Random(7)
    for _ in range(20):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        dense = [[F(rng.randint(-3, 3)) for _ in range(m)] for _ in range(n)]
        assert linalg.rank(dense) == len(_naive_rref(dense)[1])


def test_kernel_dimension_theorem():
    rng = random.Random(11)
    for _ in range(15):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[F(rng.randint(-2, 2)) for _ in range(m)] for _ in range(n)]
        assert linalg.rank(rows) + len(linalg.kernel_basis(rows)) == m



def _from_columns(cols):
    """The dense rows of the square matrix with the sparse columns `cols`
    ({row: value} dicts)."""
    rows = [[F(0)] * len(cols) for _ in cols]
    for j, col in enumerate(cols):
        for i, v in col.items():
            rows[i][j] = v
    return rows


def _nilpotent(rows):
    return linalg.power_ranks(rows)[-1] == 0


def test_sparse_is_nilpotent():
    # columns {row: value}: a strictly triangular shift, a permutation cycle
    shift = [{}, {0: F(2)}, {1: F(-1)}, {2: F(1, 3)}]
    cycle = [{1: F(1)}, {2: F(1)}, {0: F(1)}]
    assert _nilpotent(_from_columns(shift))
    assert _nilpotent(_from_columns([{}, {}]))
    assert not _nilpotent(_from_columns(cycle))
    assert not _nilpotent(_from_columns([{0: F(1)}, {}]))
    # the shift with its corner closed is a cycle up to scalars
    assert not _nilpotent(_from_columns([{3: F(1)}] + shift[1:]))


def _shift_beside_block(n, corner):
    """The (n+1) x (n+1) matrix with a weighted n x n shift and the 1 x 1
    block `corner`."""
    rows = [[F(0)] * (n + 1) for _ in range(n + 1)]
    for i in range(n - 1):
        rows[i][i + 1] = F(i + 2)
    rows[n][n] = corner
    return rows


def test_is_nilpotent_shift_beside_invertible_block():
    # the image shrinks while the shift dies, then stays the line of the
    # 1 x 1 block: the test stops there, with every power nonzero
    for n in (1, 3, 40):
        assert not _nilpotent(_shift_beside_block(n, F(-7, 3)))
        assert _nilpotent(_shift_beside_block(n, F(0)))


def _old_route(rows, rhs, f):
    """`forward_tests` by the route it replaces: rref of [A | b] with its
    kernel vectors, f . z on each, and `power_ranks`."""
    x, kernel = linalg.solve(rows, rhs), linalg.kernel_basis(rows)
    spanned = all(sum(a * b for a, b in zip(f, z)) == 0 for z in kernel)
    return x is not None, spanned, linalg.power_ranks(rows)


def _forward_cases(rng):
    """Square int and Fraction matrices with a b and an f each."""
    for _ in range(60):
        n = rng.randint(1, 6)
        rows = [[rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.4:
            rows = [[F(v, rng.randint(1, 3)) for v in row] for row in rows]
        yield rows
    for n in (1, 3, 6):  # a nilpotent block beside an invertible one
        yield [[int(v) for v in row] for row in _shift_beside_block(n, F(5))]
        yield _shift_beside_block(n, F(-7, 3))
    for n in (1, 4):
        yield [[0] * n for _ in range(n)]


def test_forward_tests_match_the_rref_route():
    rng = random.Random(29)
    seen = set()
    for rows in _forward_cases(rng):
        n = len(rows)
        x, y = ([rng.randint(-2, 2) for _ in range(n)] for _ in range(2))
        inside_b = [sum(row[j] * x[j] for j in range(n)) for row in rows]   # A x
        inside_f = [sum(y[i] * rows[i][j] for i in range(n)) for j in range(n)]  # y A
        anywhere = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
        for rhs in (inside_b, anywhere, [0] * n):
            for f in (inside_f, anywhere, [0] * n):
                got = linalg.forward_tests(rows, rhs, f)
                assert got == _old_route(rows, rhs, f)
                seen.add(got[:2])
    assert seen == {(s, t) for s in (True, False) for t in (True, False)}
    assert linalg.forward_tests([[1]], [0], [0]) == (True, True, [1, 1])
    assert linalg.forward_tests([[0]], [1], [1]) == (False, False, [0])


def _naive_rref(rows):
    """Reference: textbook Gauss-Jordan over Fractions."""
    m = [[F(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def _naive_kernel(rows):
    """Reference: the kernel basis read from the textbook rref, one vector
    per free column c, with v[c] = 1 and v[p] = -m[r][c] for row r and its
    pivot column p."""
    m, pivots = _naive_rref(rows)
    ncols = len(rows[0])
    basis = []
    for c in range(ncols):
        if c in pivots:
            continue
        v = [F(0)] * ncols
        v[c] = F(1)
        for row, p in zip(m, pivots):
            v[p] = -row[c]
        basis.append(v)
    return basis


def _assert_kernel(rows):
    """kernel_basis equals the textbook reference, and every entry is a
    Fraction."""
    got = linalg.kernel_basis(rows)
    assert got == _naive_kernel(rows)
    assert all(type(x) is F for v in got for x in v)


def _random_matrix(rng, nrows, ncols):
    """Seeded matrix with a random rank, mixed denominators, and some zero
    rows, zero columns and duplicate rows."""
    rank = rng.randint(0, min(nrows, ncols))
    left = [[F(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(rank)]
            for _ in range(nrows)]
    right = [[F(rng.randint(-4, 4), rng.randint(1, 9)) for _ in range(ncols)]
             for _ in range(rank)]
    m = [[sum((left[i][k] * right[k][j] for k in range(rank)), F(0))
          for j in range(ncols)] for i in range(nrows)]
    for j in range(ncols):
        if rng.random() < 0.15:
            for row in m:
                row[j] = F(0)
    for i in range(nrows):
        u = rng.random()
        if u < 0.1:
            m[i] = [F(0)] * ncols
        elif u < 0.2:
            m[i] = list(m[rng.randrange(nrows)])
    return m


def _sparse_matrix(rng, nrows, ncols):
    """Seeded matrix with about one entry in eight nonzero, and some rows
    that are sums of two others."""
    m = [[F(rng.randint(-4, 4), rng.randint(1, 6)) if rng.random() < 0.12
          else F(0) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(nrows):
        if rng.random() < 0.2:
            a, b = rng.randrange(nrows), rng.randrange(nrows)
            m[i] = [x + y for x, y in zip(m[a], m[b])]
    return m


def test_rref_matches_naive_gauss_jordan():
    rng = random.Random(2024)
    shapes = [(1, 1), (1, 7), (7, 1), (3, 9), (9, 3), (6, 6), (12, 5), (5, 12)]
    cases = [(40, shapes, _random_matrix), (10, [(24, 30), (30, 24)], _sparse_matrix)]
    for repeats, case_shapes, make in cases:
        for _ in range(repeats):
            for nrows, ncols in case_shapes:
                rows = make(rng, nrows, ncols)
                if rng.random() < 0.3:  # integer input, as the ad blocks give
                    rows = [[int(x * 36) for x in row] for row in rows]
                _assert_kernel(rows)


def _naive_solution(rows, rhs):
    """Reference: (the solution read from the textbook rref of [A | b], free
    variables 0, or None; the rank of A from the textbook rref of A)."""
    ncols = len(rows[0])
    m, pivots = _naive_rref([list(row) + [b] for row, b in zip(rows, rhs)])
    rank = len(_naive_rref(rows)[1])
    if ncols in pivots:
        return None, rank
    x = [F(0)] * ncols
    for row, c in zip(m, pivots):
        x[c] = row[ncols]
    return x, rank


def test_solve_with_rank_agrees_with_solve_and_rank():
    """60 seeded int and Fraction matrices, tall, wide and square, the zero
    matrix and 1 x 1 among them, each with b inside the column space, b
    anywhere, b = 0 and b = e_1: `solve` and the sparse entry `_solve`
    against the textbook Gauss-Jordan reading.  `_solve` also gives
    rank(A), which `dynkin.sl2_complete` reads for its exact flag, so an
    inconsistent system must report the rank of A, not of [A | b]."""
    rng = random.Random(30)
    shapes = [(1, 1), (2, 5), (5, 2), (4, 4), (7, 3), (3, 7), (6, 6)]
    seen = set()
    cases = [[[0] * 3 for _ in range(4)], [[F(0)]], [[2]], [[F(-3, 4)]]]
    for _ in range(8):
        for nrows, ncols in shapes:
            rows = _random_matrix(rng, nrows, ncols)
            if rng.random() < 0.4:  # integer input, as the ad blocks give
                rows = [[int(v * 216) for v in row] for row in rows]
            cases.append(rows)
    for rows in cases:
        nrows, ncols = len(rows), len(rows[0])
        y = [rng.randint(-3, 3) for _ in range(ncols)]
        inside = [sum(row[j] * y[j] for j in range(ncols)) for row in rows]  # A y
        anywhere = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(nrows)]
        for rhs in (inside, anywhere, [0] * nrows, [1] + [0] * (nrows - 1)):
            want = _naive_solution(rows, rhs)
            aug = [list(row) + [b] for row, b in zip(rows, rhs)]
            got = linalg._solve(linalg._sparse(aug), ncols)
            assert got == want
            assert linalg.solve(rows, rhs) == got[0]
            assert linalg.rank(rows) == got[1]
            if rhs is inside:
                assert got[0] is not None
            seen.add(got[0] is None)
    assert seen == {True, False}


def test_rref_edge_cases():
    assert linalg.rank([]) == 0
    assert linalg.power_ranks([]) == [0]
    # a matrix with no rows cannot tell its width: solve([], []) used to
    # return None (inconsistent) and kernel_basis [] (a trivial kernel)
    for call in (lambda: linalg.solve([], []), lambda: linalg.kernel_basis([])):
        with pytest.raises(ValueError, match="no rows"):
            call()
    zero = [[F(0)] * 4 for _ in range(3)]
    assert linalg.kernel_basis(zero) == [[F(int(i == j)) for j in range(4)]
                                         for i in range(4)]
    assert linalg.rank(zero) == 0
    for rows in (zero, [[0]], [[F(0)]], [[5]], [[F(-3, 4)]]):
        _assert_kernel(rows)
    # one pivot, in column 1, with the reduced row [0, 1, 2/3]
    rows = [[0, F(1, 2), F(1, 3)], [0, 3, 2], [0, 0, 0], [0, F(3, 2), 1]]
    _assert_kernel(rows)
    assert linalg.kernel_basis(rows) == [[F(1), F(0), F(0)], [F(0), F(-2, 3), F(1)]]


def test_ragged_rows_raise():
    # solve([[1, 2], [1]], [1, 1]) used to return [-1, 1], the short row's
    # right-hand side read as its column 1; rank([[1], [1, 1]]) returned 2,
    # and the kernel of [[1], [0, 1]] raised a bare IndexError
    for rows, rhs in (([[1, 2], [1]], [1, 1]), ([[1], [1, 1]], [1, 1])):
        with pytest.raises(ValueError, match="a row has"):
            linalg.solve(rows, rhs)
    for rows in ([[1], [1, 1]], [[1], [0, 1]], [[1, 2], [3]], [[], [1]]):
        for proc in (linalg.rank, linalg.kernel_basis):
            with pytest.raises(ValueError, match="a row has"):
                proc(rows)


def test_float_entries_raise_type_error():
    # a float used to raise a bare AttributeError ('float' object has no
    # attribute 'denominator'); it names the entry now, in A, b and f
    square = [[1, 0.5], [0, 1]]
    for call in (lambda: linalg.rank(square), lambda: linalg.kernel_basis(square),
                 lambda: linalg.power_ranks(square),
                 lambda: linalg.solve(square, [1, 1]),
                 lambda: linalg.forward_tests(square, [1, 1], [1, 1]),
                 lambda: linalg.solve([[1, 0], [0, 1]], [1, 0.5]),
                 lambda: linalg.forward_tests([[1, 0], [0, 1]], [1, 0.5], [1, 1]),
                 lambda: linalg.forward_tests([[1, 0], [0, 1]], [1, 1], [1, 0.5])):
        with pytest.raises(TypeError, match=r"entry 0\.5 is not an int or a Fraction"):
            call()


def test_nilpotency_of_a_non_square_matrix_raises():
    # power_ranks and the former is_nilpotent used to return True
    for rows in ([[0, 1], [0, 0], [1, 0]], [[0, 1, 0], [0, 0, 0]], [[0], [0, 0]]):
        zeros = [0] * len(rows)
        for proc in (linalg.power_ranks,
                     lambda rows: linalg.forward_tests(rows, zeros, zeros)):
            with pytest.raises(ValueError, match="a row has"):
                proc(rows)
    # b and f need one entry per row
    for rhs, f in (([0], [0, 0]), ([0, 0], [0]), ([0, 0, 0], [0, 0])):
        with pytest.raises(ValueError, match="the matrix 2 rows"):
            linalg.forward_tests([[0, 1], [0, 0]], rhs, f)
