"""Concrete matrix model of the minimal nilpotent orbit of sp(2n).

The standard symplectic space (V, omega) with omega = [[0, I], [-I, 0]]
carries the degree-2 map mu sending a vector v to the rank-one square-zero
endomorphism u -> omega(v, u) v, built as the outer product of v and
w = v^T Omega with no per-call re-check of its output (the argument is in
`mu`).  Its image is the cone over the minimal orbit; the fiber over a
nonzero image point is exactly {v, -v}, and `fiber` reads the space from
the element it is given.  Products of such maps give coverings of degree
2^(k-1) after projectivizing, and the trace pairing of mu(v) against
commutators realizes the Kostant-Kirillov form, of rank 2n.  Its Gram
matrix over the sp(2n) basis is read from omega, with no matrix product:
for X = -Omega S with S symmetric and N = mu(v) = v w, w = v^T Omega,
wX = v^T S and Xv = -Omega S v, so
trace(N [X, Y]) = (wX)(Yv) - (wY)(Xv) = -2 omega(S_X v, S_Y v).

All arithmetic is exact: values are ints where they are integral and
Fractions where a quotient appears (the fiber's scalar), never floats.
"""

from collections import namedtuple
from fractions import Fraction
from math import isqrt, prod

from . import linalg


class SymplecticSpace(namedtuple("SymplecticSpace", "n")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if type(self.n) is not int:
            raise TypeError(f"n = {self.n!r} is not an int")
        if self.n < 1:
            raise ValueError("n must be positive")
        return self

    @property
    def dim(self):
        return 2 * self.n


class RankOneElement(namedtuple("RankOneElement", "space v matrix")):
    # matrix: a tuple of row tuples
    __slots__ = ()

    def rows(self):
        return [list(r) for r in self.matrix]

    def jordan_type(self):
        """Jordan partition from the ranks of the powers."""
        ranks = [self.space.dim] + linalg.power_ranks(self.rows())
        if ranks[-1]:
            raise ValueError("matrix is not nilpotent")
        ranks.append(0)
        # number of blocks of size exactly k: r_{k-1} - 2 r_k + r_{k+1}
        parts = []
        for k in range(1, len(ranks) - 1):
            count = ranks[k - 1] - 2 * ranks[k] + ranks[k + 1]
            parts.extend([k] * count)
        parts.sort(reverse=True)
        return tuple(parts)


def mu(space, v):
    """The degree-2 map v -> (u -> omega(v,u) v), landing in sp(2n).

    The coordinates of v are ints or Fractions, kept as given; any other
    type raises TypeError.

    mu(v) is the outer product X = v w of v with the row vector
    w = v^T Omega = (-v[n:], v[:n]), read from Omega = [[0, I], [-I, 0]].
    Its three defining facts hold by construction, so none is re-checked:
    with Omega^T = -Omega, Omega X = Omega v v^T Omega = -(Omega v)(Omega v)^T
    is symmetric, so X lies in sp(2n); X^2 = v (v^T Omega v) v^T Omega = 0,
    because v^T Omega v = 0 for an alternating Omega; and for v != 0 the
    row w is nonzero, Omega being invertible, so X has rank one."""
    v = _coordinates(space, v)
    w = tuple(-c for c in v[space.n:]) + v[:space.n]
    return RankOneElement(space, v, tuple(tuple(a * b for b in w) for a in v))


def _coordinates(space, v):
    """v as a tuple of ints or Fractions (TypeError otherwise), with one
    coordinate per dimension of `space` (ValueError otherwise)."""
    v = tuple(v)
    for c in v:
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"coordinate {c!r} is not an int or a Fraction")
    if len(v) != space.dim:
        raise ValueError("vector has wrong dimension")
    return v


def _rational_sqrt(q):
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


def fiber(elt):
    """Exact fiber of mu over a nonzero image point: [w, -w], in the
    space of `elt`.

    If elt = mu(v) = v (v^T Omega), every nonzero column of elt is a
    multiple of v, so every preimage is lambda u for the first nonzero
    column u.  Since mu(lambda u) = lambda^2 mu(u), lambda = +-c with c^2
    solved at one nonzero entry of mu(u), and since mu is quadratic,
    mu(-w) = mu(w) for w = c u.  So one check of mu(w) == elt decides the
    whole fiber; an element outside the image of mu raises ValueError, and
    so does one whose fiber has no rational point, because c^2 is not the
    square of a rational (negative, as for -mu(v), or not a square)."""
    space = elt.space
    rows = elt.rows()
    d = space.dim
    col = next(
        (j for j in range(d) if any(rows[i][j] != 0 for i in range(d))), None
    )
    if col is None:
        raise ValueError("zero element has no finite fiber")
    u = tuple(rows[i][col] for i in range(d))
    # mu(u) has a nonzero entry, because u is not 0 (see `mu`)
    c2 = next(Fraction(x, b) for row, brow in zip(rows, mu(space, u).matrix)
              for x, b in zip(row, brow) if b)
    c = _rational_sqrt(c2)
    if c is None:
        raise ValueError(f"fiber has no rational point: c^2 = {c2} is not "
                         "the square of a rational")
    w = tuple(c * x for x in u)
    if mu(space, w).matrix != elt.matrix:
        raise ValueError("element is not in the image of mu")
    return [w, tuple(-x for x in w)]


def product_cover_degree(n_list):
    """Degree of the product covering at v = (1, ..., 2n) in every
    component: the product of the fiber sizes, modulo the global sign.

    The global sign acts freely on the product of the fibers, because no
    fiber point is 0; each fiber is the sign pair (see `fiber`), so the
    degree is 2^(k-1) for k components."""
    if not n_list or any(n < 1 for n in n_list):
        raise ValueError("need a nonempty list of positive integers")
    sizes = [len(fiber(mu(sp, range(1, sp.dim + 1))))
             for sp in map(SymplecticSpace, n_list)]
    return prod(sizes) // 2


def kk_rank_at(space, v):
    """Rank of the alternating form (X, Y) -> trace(mu(v) [X, Y]) on
    sp(2n); equals the minimal-orbit dimension 2n.

    v is validated as `mu` validates it, before the zero-vector check.
    The rank is 0 exactly at v = 0: for v != 0 the vectors S v, S
    symmetric, span V, on which omega is nondegenerate (see `_kk_gram`);
    so a rank of 0 raises ValueError."""
    rank = linalg.rank(_kk_gram(space, v))
    if not rank:
        raise ValueError("zero vector")
    return rank


def _kk_gram(space, v):
    """Gram matrix of (X, Y) -> trace(mu(v) [X, Y]) over the sp(2n) basis
    X_ab = -Omega S_ab, a <= b, with S_ab = E_ab + E_ba (E_aa for a = b).

    The entry is -2 omega(S_X v, S_Y v) (see the module docstring), and
    S_ab v = v_b e_a + v_a e_b (v_a e_a for a = b); v is validated as `mu`
    validates it.  The entries are ints for an integral v."""
    v, n, d = _coordinates(space, v), space.n, space.dim
    sv = []
    for a in range(d):
        for b in range(a, d):
            u = [0] * d
            u[a], u[b] = v[b], v[a]
            sv.append(u)
    return [[-2 * sum(x[i] * y[n + i] - x[n + i] * y[i] for i in range(n))
             for y in sv] for x in sv]
