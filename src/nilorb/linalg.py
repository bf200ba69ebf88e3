"""Exact rational linear algebra on small matrices.

Every function takes a matrix as a list of dense rows of ints or
Fractions; results are fractions.Fraction, with no floating point
anywhere.  There is one elimination, `_independent`: fraction-free and
sparse, on rows scaled to coprime integers, touching nonzero entries
only.  `rank` and `power_ranks` (`is_nilpotent`) use it as it is; `rref`
(and `solve`, `kernel_basis` on top of it) sorts its rows by pivot
column, back-substitutes with the same row-clearing step, and converts
the reduced rows to Fractions once.  Every function raises ValueError
unless all rows have the same length, checked in the pass that reads the
nonzero entries; `power_ranks` and `is_nilpotent` also unless the matrix
is square, and `kernel_basis`, `solve` and `solve_with_kernel` also for a
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


def rref(rows):
    """Reduced row echelon form.

    `rows` is a list of lists of ints or Fractions.  Returns the reduced
    matrix (same shape, Fraction entries, zero rows last) together with
    the list of pivot column indices.

    The rows of `_independent`, sorted by first column, are in echelon
    form; back-substitution clears each pivot column from the rows above
    it, last pivot first, and each row is divided by its pivot entry."""
    ncols = len(rows[0]) if rows else 0
    m = sorted(_independent(_sparse(rows)), key=min)
    pivots = [min(row) for row in m]
    for k in reversed(range(len(m))):
        c, row = pivots[k], m[k]
        for i in range(k):
            if c in m[i]:
                m[i] = _clear(m[i], row, c)
    out = [[_ZERO] * ncols for _ in rows]
    for dense, c, row in zip(out, pivots, m):
        for j, v in row.items():
            dense[j] = Fraction(v, row[c])
    return out, pivots


def rank(rows):
    """Rank of the matrix, by forward elimination only."""
    return len(_independent(_sparse(rows)))


def _kernel(m, pivots, ncols):
    """Null space basis of the first `ncols` columns of a reduced matrix."""
    pivset = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivset:
            continue
        v = [_ZERO] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            if pc < ncols:
                v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def _solution(m, pivots, ncols):
    """Solution read from the reduced augmented matrix [A | b], or None."""
    if ncols in pivots:
        return None
    x = [_ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
    return x


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
    return _kernel(m, pivots, ncols)


def _augmented(rows, rhs):
    """[A | b], or ValueError unless b has one entry per row of A."""
    if len(rhs) != len(rows):
        raise ValueError(f"right-hand side has {len(rhs)} entries, "
                         f"the matrix {len(rows)} rows")
    return [list(row) + [b] for row, b in zip(rows, rhs)]


def solve(rows, rhs):
    """One solution of A x = b (A given by `rows`, b by `rhs`), or None
    if inconsistent.  Raises ValueError unless len(rhs) == len(rows), and
    if A has no rows."""
    m = _augmented(rows, rhs)
    ncols = _width(rows)
    m, pivots = rref(m)
    return _solution(m, pivots, ncols)


def solve_with_kernel(rows, rhs):
    """One solution of A x = b (None if inconsistent) and a basis of the
    null space of A, both from a single reduction of [A | b].  Raises
    ValueError unless len(rhs) == len(rows), and if A has no rows."""
    m = _augmented(rows, rhs)
    ncols = _width(rows)
    m, pivots = rref(m)
    return _solution(m, pivots, ncols), _kernel(m, pivots, ncols)


def power_ranks(rows):
    """Ranks of the powers A, A^2, ... of the square matrix A, up to the
    first that is 0 or equals the one before.

    Row space of A^(k+1) = (row space of A^k) A lies in that of A^k, so
    the ranks decrease until they stop for good: A is nilpotent iff the
    last rank is 0.  Each round keeps an independent spanning set of
    integer rows and multiplies it by A.  Raises ValueError unless A is
    square."""
    a = [_nonzero(row, len(rows)) for row in rows]
    cur = _independent([_integer(e) for e in a if e])
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


def is_nilpotent(rows):
    """True iff the square matrix A is nilpotent; ValueError unless A is
    square."""
    return power_ranks(rows)[-1] == 0
