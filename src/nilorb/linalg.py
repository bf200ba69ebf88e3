"""Exact rational linear algebra on small matrices.

Every function takes a matrix as a list of dense rows of ints or
Fractions; results are fractions.Fraction, with no floating point
anywhere.  There is one elimination, `_independent`: fraction-free and
sparse, on rows scaled to coprime integers, touching nonzero entries
only.  `rank` and `power_ranks` use it as it is; `_reduced` sorts its rows
by pivot column and back-substitutes with the same row-clearing step, for
`rref` (and `kernel_basis`) and for a solvable `solve_with_rank`.  One
forward elimination of [A | b] tells whether A x = b is solvable (no
independent row starts at the column of b, `_split`) and gives rank(A);
`forward_tests` also reads off it whether a row f lies in the row space
of A, and `power_ranks(A)`.  Every function raises ValueError unless all
rows have the same length; `power_ranks` and `forward_tests` also unless
the matrix is square, `forward_tests` also unless b and f have one entry
per row, and `kernel_basis`, `solve` and `solve_with_rank` also for a
matrix with no rows, whose width is unknown.
"""

from fractions import Fraction
from itertools import compress
from math import gcd, lcm

_ZERO = Fraction(0)


def _nonzero(row, ncols):
    """The nonzero entries of a dense row, as {column: value}; ValueError
    unless the row has `ncols` entries."""
    if len(row) != ncols:
        raise ValueError(f"a row has {len(row)} entries, expected {ncols}")
    return {j: row[j] for j in compress(range(ncols), row)}


def _integer(entries):
    """{column: value} of ints or Fractions scaled to coprime integers (the
    same line, so the same reduced row echelon form)."""
    d = lcm(*[x.denominator for x in entries.values()])
    ints = {j: x.numerator * (d // x.denominator) for j, x in entries.items()}
    g = gcd(*ints.values())
    return {j: v // g for j, v in ints.items()} if g > 1 else ints


def _sparse(rows):
    """The nonzero rows of a dense matrix as sparse coprime integer rows;
    ValueError unless all rows have the length of the first."""
    ncols = len(rows[0]) if rows else 0
    return [_integer(e) for row in rows if (e := _nonzero(row, ncols))]


def _clear(other, row, c):
    """The sparse integer row `other` with column c cleared by the pivot
    row `row`: (p * other - f * row) / gcd(p, f), p and f their entries in
    column c, scaled back to coprime integers ({} if zero).  Only nonzero
    entries are touched, and every division is exact."""
    p, f = row[c], other[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    new = {cc: a * v for cc, v in other.items()}
    for cc, v in row.items():
        w = new.get(cc, 0) - b * v
        if w:
            new[cc] = w
        else:  # column c, or a cancellation; never a new entry
            del new[cc]
    if new:
        g = gcd(*new.values())
        if g > 1:
            return {cc: v // g for cc, v in new.items()}
    return new


def _independent(rows):
    """Linearly independent sparse integer rows with the same span as the
    sparse integer rows `rows`, each with its own first column.

    Each step takes a row as pivot row and clears its first column from
    every other row, so a pivot row is zero in the first columns of the
    pivot rows taken before it."""
    basis = []
    while rows:
        row = rows.pop()
        c = min(row)
        basis.append(row)
        reduced = []
        for other in rows:
            if c in other:
                other = _clear(other, row, c)
                if not other:
                    continue
            reduced.append(other)
        rows = reduced
    return basis


def _reduced(basis):
    """(rows, pivots): the rows of `_independent` sorted by first column,
    an echelon form, with each pivot column cleared from the rows above
    it, last pivot first."""
    m = sorted(basis, key=min)
    pivots = [min(row) for row in m]
    for k in reversed(range(len(m))):
        c, row = pivots[k], m[k]
        for i in range(k):
            if c in m[i]:
                m[i] = _clear(m[i], row, c)
    return m, pivots


def rref(rows):
    """Reduced row echelon form.

    `rows` is a list of lists of ints or Fractions.  Returns the reduced
    matrix (same shape, Fraction entries, zero rows last) together with
    the list of pivot column indices."""
    ncols = len(rows[0]) if rows else 0
    m, pivots = _reduced(_independent(_sparse(rows)))
    out = [[_ZERO] * ncols for _ in rows]
    for dense, c, row in zip(out, pivots, m):
        for j, v in row.items():
            dense[j] = Fraction(v, row[c])
    return out, pivots


def rank(rows):
    """Rank of the matrix, by forward elimination only."""
    return len(_independent(_sparse(rows)))


def _width(rows):
    """The number of columns; ValueError if there are no rows to read it
    from."""
    if not rows:
        raise ValueError("a matrix with no rows has no known width")
    return len(rows[0])


def kernel_basis(rows):
    """Basis of the right null space of the matrix, as coefficient lists.
    Raises ValueError if the matrix has no rows."""
    ncols = _width(rows)
    m, pivots = rref(rows)
    pivset = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivset:
            continue
        v = [_ZERO] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def _augmented(rows, rhs):
    """[A | b], or ValueError unless b has one entry per row of A."""
    if len(rhs) != len(rows):
        raise ValueError(f"right-hand side has {len(rhs)} entries, "
                         f"the matrix {len(rows)} rows")
    return [list(row) + [b] for row, b in zip(rows, rhs)]


def _split(basis, n):
    """(A x = b is solvable, the other rows) for the independent rows of
    [A | b], b in column n: solvable iff no row starts at column n.  The
    other rows, column n dropped, span the row space of A."""
    rest = [row for row in basis if min(row) != n]
    return len(rest) == len(basis), rest


def solve_with_rank(rows, rhs):
    """(one solution of A x = b or None if inconsistent, rank(A)) from one
    forward elimination of [A | b]; only a solvable system is
    back-substituted, and its solution is the rref one, free variables 0.
    Raises ValueError unless len(rhs) == len(rows), and if A has no rows."""
    aug = _augmented(rows, rhs)
    ncols = _width(rows)
    basis = _independent(_sparse(aug))
    solvable, rest = _split(basis, ncols)
    if not solvable:
        return None, len(rest)
    x = [_ZERO] * ncols
    for row, c in zip(*_reduced(basis)):
        x[c] = Fraction(row.get(ncols, 0), row[c])
    return x, len(basis)


def solve(rows, rhs):
    """One solution of A x = b, or None if inconsistent (see
    `solve_with_rank`)."""
    return solve_with_rank(rows, rhs)[0]


def power_ranks(rows):
    """Ranks of the powers A, A^2, ... of the square matrix A, up to the
    first that is 0 or equals the one before.

    Row space of A^(k+1) = (row space of A^k) A lies in that of A^k, so
    the ranks decrease until they stop for good: A is nilpotent iff the
    last rank is 0.  Each round keeps an independent spanning set of
    integer rows and multiplies it by A.  Raises ValueError unless A is
    square."""
    a = [_nonzero(row, len(rows)) for row in rows]
    return _rounds(a, _independent([_integer(e) for e in a if e]))


def _rounds(a, cur):
    """`power_ranks` of the sparse square matrix `a` ({column: value}
    rows), from `cur`, an independent spanning set of its row space."""
    ranks = [len(cur)]
    while cur:
        nxt = []
        for vec in cur:
            out = {}
            for j, c in vec.items():
                for i, v in a[j].items():
                    out[i] = out.get(i, 0) + c * v
            out = {i: x for i, x in out.items() if x}
            if out:
                nxt.append(_integer(out))
        cur = _independent(nxt)
        ranks.append(len(cur))
        if ranks[-1] == ranks[-2]:
            break
    return ranks


def forward_tests(rows, rhs, f):
    """(A x = b is solvable, f lies in the row space of A, power_ranks(A))
    for the square matrix A, from one forward elimination of [A | b], with
    no back-substitution and no kernel vector.

    Solvability is read by `_split`.  Its other rows are an independent
    spanning set of the row space of A, each zero in the first columns of
    those before it; f reduced against them in order is 0 iff f lies in
    their span, and they start the rounds of `power_ranks`.  Raises
    ValueError unless A is square and b and f have one entry per row."""
    n = len(rows)
    a = [_nonzero(row, n) for row in rows]
    if len(rhs) != n or len(f) != n:
        raise ValueError(f"b has {len(rhs)} entries and f {len(f)}, "
                         f"the matrix {n} rows")
    aug = [{**e, n: b} if b else e for e, b in zip(a, rhs)]
    solvable, rest = _split(_independent([_integer(e) for e in aug if e]), n)
    parts = [{j: v for j, v in row.items() if j != n} for row in rest]
    g = _integer(_nonzero(f, n))
    for row in parts:
        c = min(row)
        if c in g:
            g = _clear(g, row, c)
    return solvable, not g, _rounds(a, parts)
