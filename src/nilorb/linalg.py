"""Exact rational linear algebra on small dense/sparse matrices.

Results are fractions.Fraction (inputs may be ints or Fractions); no
floating point anywhere.  Dense elimination is fraction-free: `rref`
clears each row's denominators and reduces over Python ints with exact
Bareiss divisions, then converts the reduced rows to Fractions once.
"""

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


def _integer_row(row):
    """The row scaled to coprime integers (the same line, so the same
    reduced row echelon form)."""
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    d = lcm(*[x.denominator for x in row])
    ints = [x.numerator * (d // x.denominator) for x in row]
    g = gcd(*ints)
    return [a // g for a in ints] if g > 1 else ints


def rref(rows):
    """Reduced row echelon form.

    `rows` is a list of lists of ints or Fractions.  Returns the reduced
    matrix (same shape, Fraction entries, zero rows last) together with
    the list of pivot column indices.

    Fraction-free Gauss-Jordan elimination (Bareiss 1968): each step
    replaces every other row by (p * row - f * pivot_row) / p_prev, where
    p is the new pivot, f the row's entry in the pivot column and p_prev
    the previous pivot.  The divisions are exact over the integers, and at
    the end every pivot entry equals the last pivot.  Rows that are or
    become zero are dropped and restored as zero rows at the end.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    m = [row for row in map(_integer_row, rows) if any(row)]
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        p = prow[c]
        for i, row in enumerate(m):
            if i == r:
                continue
            f = row[c]
            if f:
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
            elif p != prev:
                m[i] = [p * a // prev for a in row]
        pivots.append(c)
        prev = p
        r += 1
        m[r:] = [row for row in m[r:] if any(row)]
        if r == len(m):
            break
    out = [[Fraction(a, prev) if a else _ZERO for a in row] for row in m]
    out += [[_ZERO] * ncols for _ in range(nrows - r)]
    return out, pivots


def rank(rows):
    if not rows:
        return 0
    return len(rref(rows)[1])


def _kernel(m, pivots, ncols):
    """Null space basis of the first `ncols` columns of a reduced matrix."""
    pivset = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivset:
            continue
        v = [Fraction(0)] * ncols
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
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
    return x


def kernel_basis(rows):
    """Basis of the right null space of the matrix, as coefficient lists."""
    if not rows:
        return []
    m, pivots = rref(rows)
    return _kernel(m, pivots, len(rows[0]))


def solve(rows, rhs):
    """One solution of A x = b, or None if inconsistent.

    `rows` are the rows of A, `rhs` the target vector.
    """
    if not rows:
        return None
    m, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)])
    return _solution(m, pivots, len(rows[0]))


def solve_with_kernel(rows, rhs):
    """One solution of A x = b (None if inconsistent) and a basis of the
    null space of A, both from a single reduction of [A | b]."""
    if not rows:
        return None, []
    ncols = len(rows[0])
    m, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)])
    return _solution(m, pivots, ncols), _kernel(m, pivots, ncols)


def sparse_rank(cols_by_row):
    """Rank of a sparse matrix given as a list of {col: value} dicts.

    Gaussian elimination touching only nonzero entries; entries are
    exact rationals throughout.
    """
    rows = [dict(r) for r in cols_by_row if r]
    rk = 0
    while rows:
        row = rows.pop()
        if not row:
            continue
        # pick the column with fewest competing rows to limit fill-in
        c = min(row)
        pv = row[c]
        rk += 1
        reduced = []
        for other in rows:
            if c in other:
                f = other[c] / pv
                new = dict(other)
                del new[c]
                for cc, vv in row.items():
                    if cc == c:
                        continue
                    w = new.get(cc, 0) - f * vv
                    if w:
                        new[cc] = w
                    elif cc in new:
                        del new[cc]
                if new:
                    reduced.append(new)
            elif other:
                reduced.append(other)
        rows = reduced
    return rk


def sparse_is_nilpotent(cols):
    """True iff the square matrix given by its sparse columns ({row: value}
    dicts) has a zero power with exponent at most its size + 1: the images
    of the basis vectors are multiplied by the matrix until all vanish."""
    cur = [col for col in cols if col]
    for _ in range(len(cols)):
        if not cur:
            return True
        nxt = []
        for vec in cur:
            out = {}
            for j, c in vec.items():
                for i, a in cols[j].items():
                    out[i] = out.get(i, 0) + c * a
            out = {i: x for i, x in out.items() if x}
            if out:
                nxt.append(out)
        cur = nxt
    return not cur
