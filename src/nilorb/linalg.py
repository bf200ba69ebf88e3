"""Exact rational linear algebra on small matrices.

Every public function takes a matrix as a list of dense rows of ints or
Fractions, and raises TypeError on a nonzero entry of another type, such
as a float; results are fractions.Fraction, with no floating point
anywhere.  There is one elimination, `_independent`: fraction-free and
sparse, on integer rows, touching nonzero entries only; the dense entries
scale each row to coprime integers first, and a cleared row is made
coprime again only when its pivot needed scaling (see `_clear`).  `rank`
uses it as it is; `_reduced` sorts its rows by pivot column and
back-substitutes with the same row-clearing step, for `kernel_basis` and
for a solvable `_solve`.  `_solve` takes the nonzero rows of [A | b] as
sparse integer rows: `solve` builds them from dense rows, and
`dynkin.sl2_complete` from its integer blocks, with no dense matrix and
no Fraction.  One forward elimination of [A | b] tells whether A x = b is
solvable (no independent row starts at the column of b, `_split`) and
gives rank(A); `forward_tests` also reads off it whether a row f lies in
the row space of A, and whether A is nilpotent.  Its sparse entry,
`_forward_tests`, takes A, b and f as sparse integer data, which
`dynkin.nilpotency_report` builds from the whole stored rows of N's
labels (`ChevalleyAlgebra._kept_row`, the reader of whole rows; restricted
blocks are read by `ad_entries`) and the Killing Gram table;
`forward_tests` stays as its dense entry, which the tests check against
the rref route.  A is nilpotent when its support graph (an edge j -> i
for each A[j][i] != 0) is acyclic, by one topological sort (`_acyclic`): a
topological order makes P A P^T strictly triangular.  Only a support with
a cycle runs the rounds of `power_ranks`, on A scaled once to integer
rows: the ranks of A, A^2, ... until they stop.  Every function raises
ValueError unless all rows have the same length; `power_ranks` and
`forward_tests` also unless the matrix is square, `solve` and
`forward_tests` also unless b (and f) have one entry per row, and
`kernel_basis` and `solve` also for a matrix with no rows, whose width is
unknown.
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
    same line, so the same reduced row echelon form).  Raises TypeError on
    an entry with no denominator, such as a float."""
    try:
        d = lcm(*[x.denominator for x in entries.values()])
    except AttributeError:
        bad = next(x for x in entries.values() if not hasattr(x, "denominator"))
        raise TypeError(f"entry {bad!r} is not an int or a Fraction") from None
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
    row `row`: a * other - b * row with a = p / gcd(p, f) and
    b = f / gcd(p, f), p and f their entries in column c ({} if zero).
    Only nonzero entries are touched, and every division is exact.  When
    a is 1 (a positive p that divides f), other - b * row is returned as
    it is, with no scaled copy and no gcd; otherwise it is divided by the
    gcd of its entries, which keeps them from growing.  So a cleared row
    need not be coprime: ranks, solvability, the row-space test and the
    reduced echelon solutions do not change when a row is scaled."""
    p, f = row[c], other[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    unit = a == 1
    new = other.copy() if unit else {cc: a * v for cc, v in other.items()}
    for cc, v in row.items():
        w = new.get(cc, 0) - b * v
        if w:
            new[cc] = w
        else:  # column c, or a cancellation; never a new entry
            del new[cc]
    if unit or not new:
        return new
    g = gcd(*new.values())
    return {cc: v // g for cc, v in new.items()} if g > 1 else new


def _independent(rows):
    """Linearly independent sparse integer rows with the same span as the
    sparse integer rows `rows`, each with its own first column; a row
    cleared by `_clear` need not be coprime.

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
    """Basis of the right null space of the matrix, as coefficient lists:
    one vector per non-pivot column c of the reduced rows, with v[c] = 1
    and v[pc] = -row[c] / row[pc] for each row and its pivot column pc.
    Raises ValueError if the matrix has no rows."""
    ncols = _width(rows)
    m, pivots = _reduced(_independent(_sparse(rows)))
    pivset = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivset:
            continue
        v = [_ZERO] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(m, pivots):
            v[pc] = Fraction(-row.get(fc, 0), row[pc])
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


def _solve(rows, n):
    """(one solution of A x = b or None if inconsistent, rank(A)) from one
    forward elimination of [A | b], b in column n, given as its nonzero
    rows: {column: int} with columns in 0..n and no zero entry, the form
    `_sparse` gives (the rows need not be coprime).  Only a solvable
    system is back-substituted, and its solution is the reduced row
    echelon one, free variables 0.  The caller builds the rows, so nothing
    is checked."""
    basis = _independent(rows)
    solvable, rest = _split(basis, n)
    if not solvable:
        return None, len(rest)
    x = [_ZERO] * n
    for row, c in zip(*_reduced(basis)):
        x[c] = Fraction(row.get(n, 0), row[c])
    return x, len(basis)


def solve(rows, rhs):
    """One solution of A x = b, or None if inconsistent (see `_solve`).
    Raises ValueError unless len(rhs) == len(rows), and if A has no
    rows."""
    return _solve(_sparse(_augmented(rows, rhs)), _width(rows))[0]


def _integer_rows(a):
    """The sparse rows `a` ({column: value}, ints or Fractions) times one
    common factor that makes them coprime integers, so every rank, power
    rank and row space is kept; TypeError as `_integer`."""
    out = [{} for _ in a]
    for (i, j), v in _integer({(i, j): v for i, e in enumerate(a)
                               for j, v in e.items()}).items():
        out[i][j] = v
    return out


def power_ranks(rows):
    """Ranks of the powers A, A^2, ... of the square matrix A, up to the
    first that is 0 or equals the one before.

    Row space of A^(k+1) = (row space of A^k) A lies in that of A^k, so
    the ranks decrease until they stop for good: A is nilpotent iff the
    last rank is 0.  A is scaled once to integer rows (`_integer_rows`),
    and each round keeps an independent spanning set of integer rows and
    multiplies it by A.  Raises ValueError unless A is square."""
    a = _integer_rows([_nonzero(row, len(rows)) for row in rows])
    return _rounds(a, _independent([e for e in a if e]))


def _rounds(a, cur):
    """`power_ranks` of the sparse square integer matrix `a` ({column: int}
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
                nxt.append(out)
        cur = _independent(nxt)
        ranks.append(len(cur))
        if ranks[-1] == ranks[-2]:
            break
    return ranks


def _acyclic(a):
    """True iff the support graph of the sparse square matrix `a`, with an
    edge j -> i for each a[j][i] != 0, has no cycle (a self-loop is one):
    Kahn's topological sort, O(nnz).  Then A is nilpotent, since ordering
    the indices topologically makes P A P^T strictly upper triangular."""
    indeg = [0] * len(a)
    for row in a:
        for i in row:
            indeg[i] += 1
    ready = [j for j, d in enumerate(indeg) if not d]
    # `ready` grows as the loop runs: each index once, in topological order
    for j in ready:
        for i in a[j]:
            indeg[i] -= 1
            if not indeg[i]:
                ready.append(i)
    return len(ready) == len(a)


def _forward_tests(a, b, f):
    """`forward_tests` on sparse integer data: the rows `a` of A
    ({column: int}, one per row, maybe empty), b as {row: int} and f as
    {column: int}, none with a zero entry; a scaled A, b or f gives the
    same verdicts.  The caller builds them, so nothing is checked."""
    n = len(a)
    aug = [{**e, n: v} if (v := b.get(i)) else e for i, e in enumerate(a)]
    solvable, rest = _split(_independent([e for e in aug if e]), n)
    parts = [{j: v for j, v in row.items() if j != n} for row in rest]
    for row in parts:
        c = min(row)
        if c in f:
            f = _clear(f, row, c)
    return solvable, not f, _acyclic(a) or _rounds(a, parts)[-1] == 0


def forward_tests(rows, rhs, f):
    """(A x = b is solvable, f lies in the row space of A, A is nilpotent)
    for the square matrix A, from one forward elimination of [A | b], with
    no back-substitution and no kernel vector (see `_forward_tests`, the
    sparse entry behind it).

    Solvability is read by `_split`.  Its other rows are an independent
    spanning set of the row space of A, each zero in the first columns of
    those before it; f reduced against them in order is 0 iff f lies in
    their span.  A is nilpotent if its support graph is acyclic
    (`_acyclic`); only a support with a cycle runs the rounds of
    `power_ranks`, from those rows.  Raises ValueError unless A is square
    and b and f have one entry per row."""
    n = len(rows)
    a = [_nonzero(row, n) for row in rows]
    if len(rhs) != n or len(f) != n:
        raise ValueError(f"b has {len(rhs)} entries and f {len(f)}, "
                         f"the matrix {n} rows")
    return _forward_tests(_integer_rows(a), _integer(_nonzero(rhs, n)),
                          _integer(_nonzero(f, n)))
