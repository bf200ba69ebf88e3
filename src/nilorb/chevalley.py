"""Structure-constant realization of the simple Lie algebras.

Basis: one root vector X_r per root r, one coroot generator H_i per simple
root.  Brackets follow the Chevalley relations

    [H, X_r] = r(H) X_r,   [X_r, X_{-r}] = H_r,   [X_r, X_s] = N_{r,s} X_{r+s},

with integer constants N_{r,s}, |N_{r,s}| = p+1 for a root string of length
p below s in the direction of r.  Signs are fixed by the extraspecial-pair
convention over the height-then-lexicographic order on positive roots; the
build computes the positive-pair constants once, in integer arithmetic, with
the decompositions of each positive root read from the height buckets up to
half its height (see `_fill_structure_constants`), and raises unless every
one is a nonzero integer with |N| = p+1.  There is no runtime Jacobi check: the
constants depend on the Cartan type alone, and
`tests/test_chevalley.py::test_jacobi_identity_from_chevalley_generators`
proves the identity for A1-A4, B2-B5, C2-C5, D3-D5, G2, F4 and E6-E8, by
checking that ad(X_{+-alpha_i}) is a derivation and that these generators
span the algebra.
Every other constant is read from the positive ones by one rule over the
integer squared-length numerators `RootSystem.len2_numerators` (see
`_nany`), so every bracket of basis elements has integer coefficients.
Element coefficients are ints or Fractions, kept as given; floats raise
TypeError.

Every matrix of ad(x) is built here, by `ad_matrix` from the integer entries
of `ad_entries`, which read the brackets of basis elements.

The Killing form K(x, y) = trace(ad x ad y) is read from a Gram table over
the basis that each algebra builds on first use, from the root data alone,
with no bracket (see `_killing_gram`).  Only the pairs (X_r, X_-r) and
(H_i, H_j) can be nonzero, because ad e_i ad e_j shifts every weight by
wt_i + wt_j.  ad(H_i) is diagonal: it acts by <s, alpha_i^vee> on X_s and by
0 on h, so K(H_i, H_j) is the sum over the roots s of
<s, alpha_i^vee> <s, alpha_j^vee>, twice the sum over the positive roots.
K is invariant, because ad is a representation, so with H_r = [X_r, X_-r]
and r(H_r) = 2, K(H_r, H_r) = r(H_r) K(X_r, X_-r) gives
K(X_r, X_-r) = K(H_r, H_r) / 2, an integer.
"""

from fractions import Fraction
from functools import cache, cached_property
from itertools import groupby
from operator import sub

from . import linalg
from .rootsys import _as_cartan_type, build_root_system


class LieElement:
    """Sparse coefficient vector over the algebra basis.

    Labels are root tuples (for X_r) or ('H', i) for the Cartan generators;
    a label outside `alg.index` raises ValueError.  Coefficients are ints or
    Fractions, kept as given; any other type raises TypeError.  Zero
    coefficients are never stored, so equality is coefficientwise.
    """

    __slots__ = ("alg", "coeffs")

    def __init__(self, alg, coeffs):
        for k, v in coeffs.items():
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"coefficient {v!r} is not an int or a Fraction")
            if k not in alg.index:
                raise ValueError(f"{k!r} is not a basis label of "
                                 f"{alg.rs.cartan_type}")
        self.alg = alg
        self.coeffs = {k: v for k, v in coeffs.items() if v}

    def __eq__(self, other):
        return (
            isinstance(other, LieElement)
            and self.alg is other.alg
            and self.coeffs == other.coeffs
        )

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return LieElement(self.alg, out)

    def __neg__(self):
        return LieElement(self.alg, {k: -v for k, v in self.coeffs.items()})

    def scale(self, c):
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"scalar {c!r} is not an int or a Fraction")
        return LieElement(self.alg, {k: c * v for k, v in self.coeffs.items()})

    def __rmul__(self, c):
        return self.scale(c)

    def _check(self, other):
        if not isinstance(other, LieElement) or other.alg is not self.alg:
            raise ValueError("elements belong to different algebras")

    def to_vector(self):
        v = [0] * self.alg.dim
        for k, c in self.coeffs.items():
            v[self.alg.index[k]] = c
        return v

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs, key=lambda k: self.alg.index[k]):
            c = self.coeffs[k]
            name = f"H{k[1]+1}" if k[0] == "H" else f"X{k}"
            parts.append(f"{c}*{name}")
        return " + ".join(parts)


class ChevalleyAlgebra:
    def __init__(self, rs):
        self.rs = rs
        self.rank = rs.rank
        self.dim = len(rs.all_roots) + rs.rank
        self.basis_labels = list(rs.all_roots) + [("H", i) for i in range(rs.rank)]
        self.index = {lbl: i for i, lbl in enumerate(self.basis_labels)}
        self._pos = rs.positive_roots
        self._pos_index = {r: i for i, r in enumerate(self._pos)}
        self._npos = {}
        self._fill_structure_constants()

    # -- structure constants --------------------------------------------

    def _string_below(self, r, s):
        """Largest p with s - p r a root."""
        p = 0
        cur = tuple(a - b for a, b in zip(s, r))
        while self.rs.is_root(cur):
            p += 1
            cur = tuple(a - b for a, b in zip(cur, r))
        return p

    def _fill_structure_constants(self):
        """N(r, s) for the positive pairs with r + s a root, in both orders,
        height by height: the extraspecial pair of each root gets p + 1, and
        every other pair follows from it (Carter, ch. 4).

        The pairs t = r + s with r before s in the order of the positive
        roots have ht(r) <= ht(t) / 2, so r is read from the height buckets
        up to ht(t) // 2, in order; the extraspecial pair comes first.
        Every t of height >= 2 has such a pair: t is a simple root plus a
        positive root (Humphreys 10.2, Corollary), and that pair or its swap
        passes the order filter, so the list is never empty.
        With (r0, s0) the extraspecial pair and n0 = N(r0, s0), Carter's step
        is N(r, s) = -(t, t) (a / (d1, d1) + b / (d2, d2)) / n0 for
        d1 = r0 - r, d2 = s0 - r, a = N(r0, -r) N(s0, -s) and
        b = N(-r, s0) N(r0, -s), a term dropped when its d is not a root.
        It runs in integers: the squared lengths are the numerators
        `len2_numerators` l1, l2 (their common denominator cancels), the
        step is multiplied through by n0 l1 l2, and one divmod gives N; a
        remainder or a zero quotient raises, and so does |N| != p + 1."""
        len2, index, neg = self.rs.len2_numerators, self._pos_index, self.rs.neg
        # by_height[h]: the positive roots of height h, in order
        by_height = [[]] + [list(g) for _, g in groupby(self._pos, sum)]
        for ht in range(2, len(by_height)):
            for t in by_height[ht]:
                # t = r + s with r before s, sorted by the position of r
                decomps = [(r, s) for bucket in by_height[1:ht // 2 + 1]
                           for r in bucket
                           if (s := tuple(map(sub, t, r))) in index
                           and index[r] < index[s]]
                r0, s0 = decomps[0]  # extraspecial: minimal first member
                n0 = self._string_below(r0, s0) + 1
                self._npos[r0, s0], self._npos[s0, r0] = n0, -n0
                for r, s in decomps[1:]:
                    nr, ns = neg[r], neg[s]
                    # l1, l2: the len2 of d1 and d2, 0 when it is not a root
                    l1 = len2.get(tuple(map(sub, r0, r)), 0)
                    l2 = len2.get(tuple(map(sub, s0, r)), 0)
                    a = self._nany(r0, nr) * self._nany(s0, ns) if l1 else 0
                    b = self._nany(nr, s0) * self._nany(r0, ns) if l2 else 0
                    l1, l2 = l1 or 1, l2 or 1
                    num, den = -len2[t] * (a * l2 + b * l1), n0 * l1 * l2
                    n, rem = divmod(num, den)
                    if rem or not n:
                        raise AssertionError(f"N{r, s} = {Fraction(num, den)} for root "
                                             f"{t} is not a nonzero integer")
                    if abs(n) != self._string_below(r, s) + 1:
                        raise AssertionError(f"|N{r, s}| = {abs(n)} is not p + 1 for root {t}")
                    self._npos[r, s], self._npos[s, r] = n, -n

    def _nany(self, a, b):
        """N(a, b) for roots a, b with a + b a root (Carter, Thm 4.1.2).

        With c = -(a + b), exactly one cyclic pair (x, y) of (a, b, c) has
        both roots of the same sign; z is the third root.  N(x, y) is read
        from the positive constants, with N(-x, -y) = -N(x, y), and
        N(a, b) / (c, c) = N(x, y) / (z, z).  A root is positive iff it is
        in `_pos_index`, and its negative is read from `RootSystem.neg`."""
        pos, neg = self._pos_index, self.rs.neg
        c = tuple(-x - y for x, y in zip(a, b))
        if (a in pos) == (b in pos):
            x, y, z = a, b, c
        elif (b in pos) == (c in pos):
            x, y, z = b, c, a
        else:
            x, y, z = c, a, b
        n = self._npos[x, y] if x in pos else -self._npos[neg[x], neg[y]]
        # (c, c) / (z, z) as a ratio of the integer `len2_numerators`
        lc, lz = self.rs.len2_numerators[c], self.rs.len2_numerators[z]
        if lc == lz:
            return n
        n, rem = divmod(n * lc, lz)
        if rem:
            raise AssertionError(f"N{a, b} = {Fraction(n * lz + rem, lz)} "
                                 "is not an integer")
        return n

    # -- elements -------------------------------------------------------

    def element(self, coeffs):
        return LieElement(self, coeffs)

    def root_vector(self, r):
        r = tuple(r)
        if not self.rs.is_root(r):
            raise ValueError(f"{r} is not a root")
        return LieElement(self, {r: 1})

    def cartan_element(self, values):
        return LieElement(
            self, {("H", i): v for i, v in enumerate(values)}
        )

    # -- operations -----------------------------------------------------

    def _bracket_basis(self, k1, k2):
        """Bracket of two basis elements, as a sparse coeff dict."""
        h1 = k1[0] == "H"
        h2 = k2[0] == "H"
        if h1 and h2:
            return {}
        if h1:
            return {k2: self.rs.pairings[k2][k1[1]]}
        if h2:
            return {k1: -self.rs.pairings[k1][k2[1]]}
        t = tuple(a + b for a, b in zip(k1, k2))
        if not any(t):
            return {("H", i): c for i, c in enumerate(self.rs.coroots[k1]) if c}
        if self.rs.is_root(t):
            return {t: self._nany(k1, k2)}
        return {}

    def bracket(self, a, b):
        a._check(b)
        if a.alg is not self:
            raise ValueError("elements belong to a different algebra")
        out = {}
        for k1, c1 in a.coeffs.items():
            for k2, c2 in b.coeffs.items():
                for k, v in self._bracket_basis(k1, k2).items():
                    out[k] = out.get(k, 0) + c1 * c2 * v
        return LieElement(self, out)

    def ad_entries(self, labels, src, dst):
        """For each basis label k in `labels`, the nonzero entries (i, j, v)
        of the matrix of ad(e_k) from the span of the `src` labels to the
        span of the `dst` labels: v is the dst[i] coefficient of
        [e_k, src[j]], read from the brackets of basis elements.  Every v
        is an int, because every basis bracket is one: the root system's
        `pairings` and `coroots` are int tuples (its build raises on a
        non-integral coroot), and `_nany` raises on a remainder.  Raises
        ValueError if some [e_k, src[j]] has a component outside the `dst`
        labels."""
        row_of = {lbl: i for i, lbl in enumerate(dst)}
        entries = {}
        for k in labels:
            ek = entries[k] = []
            for j, lbl in enumerate(src):
                for d, v in self._bracket_basis(k, lbl).items():
                    i = row_of.get(d)
                    if i is None:
                        raise ValueError(f"[{k}, {lbl}] has a component along {d}, "
                                         "outside the destination labels")
                    ek.append((i, j, v))
        return entries

    def ad_matrix(self, x, src, dst):
        """Matrix of ad(x) from the span of the `src` labels to the span of
        the `dst` labels: row i, column j holds the dst[i] coefficient of
        [x, src[j]].  Its entries are ints when x is integral.  Raises
        ValueError unless x belongs to this algebra, and as `ad_entries`
        does."""
        if x.alg is not self:
            raise ValueError("element belongs to a different algebra")
        return combine(self.ad_entries(x.coeffs, src, dst), x.coeffs,
                       len(dst), len(src))

    @cached_property
    def _killing_gram(self):
        """K(e_i, e_j) for the basis pairs of opposite weight, as
        label -> {label: value}; every other pair has K = 0.

        K(H_i, H_j) = 2 sum_{s > 0} <s, alpha_i^vee> <s, alpha_j^vee>, and
        K(X_r, X_-r) = c^T K_H c / 2 for the coroot c of r, with K_H the
        table of the K(H_i, H_j): invariance of K gives
        K(H_r, H) = K([X_r, X_-r], H) = K(X_r, [X_-r, H]) = r(H) K(X_r, X_-r)
        for H in h, and r(H_r) = 2.  Every value is an int, since
        K(H_r, H_r) = 2 sum_{s > 0} <s, r^vee>^2 is even."""
        rs, n = self.rs, self.rank
        pairings = [rs.pairings[s] for s in self._pos]
        kh = [[2 * sum(p[i] * p[j] for p in pairings) for j in range(n)]
              for i in range(n)]
        hs = [("H", i) for i in range(n)]
        gram = {hi: {hj: k for hj, k in zip(hs, row) if k} for hi, row in zip(hs, kh)}
        for r in self._pos:
            c = rs.coroots[r]
            k = sum(ci * kij * cj for ci, row in zip(c, kh)
                    for kij, cj in zip(row, c)) // 2
            neg = rs.neg[r]
            gram[r], gram[neg] = {neg: k}, {r: k}
        return gram

    def killing(self, a, b):
        """Killing form trace(ad a ad b), read from the Gram table."""
        a._check(b)
        if a.alg is not self:
            raise ValueError("elements belong to a different algebra")
        gram = self._killing_gram
        tot = 0
        for k1, c1 in a.coeffs.items():
            for k2, g in gram[k1].items():
                c2 = b.coeffs.get(k2)
                if c2:
                    tot += c1 * c2 * g
        return tot

    def centralizer_dim(self, a):
        if a.is_zero():
            return self.dim
        labels = self.basis_labels
        return self.dim - linalg.rank(self.ad_matrix(a, labels, labels))

    def orbit_dimension(self, a):
        if a.is_zero():
            raise ValueError("orbit dimension of 0 is not defined")
        return self.dim - self.centralizer_dim(a)

    def projective_orbit_dimension(self, a):
        return self.orbit_dimension(a) - 1


def combine(entries, coeffs, nrows, ncols):
    """The nrows x ncols matrix sum_k coeffs[k] * ad(e_k), from the
    `ad_entries` of the labels k; integral coefficients are used as ints,
    so an integral combination stays over the integers."""
    rows = [[0] * ncols for _ in range(nrows)]
    for k, c in coeffs.items():
        if c.denominator == 1:
            c = c.numerator
        for i, j, v in entries[k]:
            rows[i][j] += c * v
    return rows


@cache
def _algebra(t):
    return ChevalleyAlgebra(build_root_system(t))


def build_algebra(t):
    """Chevalley algebra for a Cartan type or type label, built once per
    type."""
    return _algebra(_as_cartan_type(t))
