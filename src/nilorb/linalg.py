"""Exact rational linear algebra on small dense/sparse matrices.

Everything here works over fractions.Fraction (or plain ints, which
Fraction arithmetic absorbs).  No floating point anywhere.
"""

from fractions import Fraction


def rref(rows):
    """Reduced row echelon form.

    `rows` is a list of lists; a copy is reduced in place and returned
    together with the list of pivot column indices.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        if inv != 1:
            m[r] = [x / inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


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
