"""Exact rational linear algebra on small matrices.

Every function takes a matrix as a list of dense rows of ints or
Fractions; results are fractions.Fraction, with no floating point
anywhere.  Elimination is fraction-free: each row is first scaled to
coprime integers.  `rref` (and `solve`, `kernel_basis` on top of it)
reduces over Python ints with exact Bareiss divisions, then converts the
reduced rows to Fractions once; `rank` and `is_nilpotent` eliminate on
the nonzero entries only.
"""

from fractions import Fraction
from itertools import compress
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


def _nonzero(row):
    """The nonzero entries of a dense row, as {column: value}."""
    return {j: row[j] for j in compress(range(len(row)), row)}


def _integer(entries):
    """{column: value} scaled to coprime integers."""
    return dict(zip(entries, _integer_row(list(entries.values()))))


def _independent(rows):
    """Linearly independent sparse integer rows with the same span as the
    sparse integer rows `rows`.

    Each step takes a row as pivot row and clears its first column from
    every other row r as (p * r - f * pivot) / g, where p and f are the
    pivot row's and r's entries in that column and g = gcd(p, f); the
    result is scaled back to coprime integers.  Only nonzero entries are
    touched, and there is no division that is not exact."""
    basis = []
    while rows:
        row = rows.pop()
        c = min(row)
        p = row[c]
        basis.append(row)
        reduced = []
        for other in rows:
            f = other.get(c)
            if f is None:
                reduced.append(other)
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            new = {cc: a * v for cc, v in other.items() if cc != c}
            for cc, v in row.items():
                if cc != c:
                    w = new.get(cc, 0) - b * v
                    if w:
                        new[cc] = w
                    else:
                        new.pop(cc, None)
            if new:
                g = gcd(*new.values())
                reduced.append({cc: v // g for cc, v in new.items()} if g > 1 else new)
        rows = reduced
    return basis


def rank(rows):
    """Rank of the matrix."""
    return len(_independent([_integer(e) for e in map(_nonzero, rows) if e]))


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


def is_nilpotent(rows):
    """True iff the square matrix A is nilpotent.

    Row space of A^(k+1) = (row space of A^k) A lies in that of A^k, so
    the ranks of the powers decrease until they stop for good: A is
    nilpotent iff they reach 0, and is not as soon as one power has the
    same nonzero rank as the one before.  Each round keeps an independent
    spanning set of integer rows and multiplies it by A."""
    a = [_nonzero(row) for row in rows]
    cur = _independent([_integer(e) for e in a if e])
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
        nxt = _independent(nxt)
        if len(nxt) == len(cur):
            return False
        cur = nxt
    return True
