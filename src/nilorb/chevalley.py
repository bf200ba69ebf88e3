"""Structure-constant realization of the simple Lie algebras.

Basis: one root vector X_r per root r, one coroot generator H_i per simple
root.  Brackets follow the Chevalley relations

    [H, X_r] = r(H) X_r,   [X_r, X_{-r}] = H_r,   [X_r, X_s] = N_{r,s} X_{r+s},

with integer constants N_{r,s}, |N_{r,s}| = p+1 for a root string of length
p below s in the direction of r.  Signs are fixed by the extraspecial-pair
convention over the height-then-lexicographic order on positive roots; the
build computes the positive-pair constants once, in integer arithmetic, over
the integer root keys that each algebra keeps (`_root_keys` says why a key
names at most one root): the decompositions of each positive root, the
root tests and the root-string walks are int subtractions and dict lookups,
and it raises unless every constant is a nonzero integer with |N| = p+1.
The same keys serve every bracket of two root vectors, whose sum r + s is
one int addition and one dict lookup.  There is no runtime Jacobi check: the
constants depend on the Cartan type alone, and
`tests/test_chevalley.py::test_jacobi_identity_from_chevalley_generators`
proves the identity for A1-A4, B2-B5, C2-C5, D3-D5, G2, F4 and E6-E8, by
checking that ad(X_{+-alpha_i}) is a derivation and that these generators
span the algebra.
Every other constant is read from the positive ones by one rule over the
integer squared-length numerators `RootSystem.len2_numerators` (see
`_nany`, the only map from a root pair to N, which the build's mixed-sign
terms read too), so every bracket of basis elements has integer
coefficients.
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
from itertools import chain

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
        # the key of each root, and the root of each key (see `_root_keys`);
        # all_roots lists the negatives in the order of the positive roots
        pos_keys = _root_keys(self._pos, (3 * max(self._pos[-1])).bit_length())
        keys = pos_keys + [-k for k in pos_keys]
        self._keys = dict(zip(rs.all_roots, keys))
        self._key_roots = dict(zip(keys, rs.all_roots))
        self._npos = {}
        self._fill_structure_constants()

    # -- structure constants --------------------------------------------

    def _fill_structure_constants(self):
        """N(r, s) for the positive pairs with r + s a root, in both orders,
        height by height: the extraspecial pair of each root gets p + 1, and
        every other pair follows from it (Carter, ch. 4).

        The build reads the algebra's root keys `_keys` and their inverse
        `_key_roots`, the table that `_bracket_basis` reads too.  It forms
        t - r, r0 - r and s0 - r for positive roots, with coordinates in
        [-m, m], and s - k r for k up to p + 1 in the string walk, with
        coordinates in [-2m, m], because s - (k - 1) r is a root.  All of
        them lie in the bound of `_root_keys`, so the key of such a vector
        is the key of a root only when the vector is that root: a root
        test is a dict lookup of an int, and t - r and the walk are int
        subtractions.

        The pairs t = r + s with r before s in the order of the positive
        roots have ht(r) <= ht(t) / 2, so r is read from a running prefix
        of the positive roots, those of height up to ht(t) // 2, in order;
        the extraspecial pair comes first.
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
        rs, pos, nany, npos = self.rs, self._pos, self._nany, self._npos
        roots, neg, len2 = self._key_roots, rs.neg, rs.len2_numerators
        keys = [self._keys[r] for r in pos]
        at = {k: i for i, k in enumerate(keys)}  # positive key -> position

        def below(kr, ks):
            """Largest p with s - p r a root."""
            p, cur = 0, ks - kr
            while cur in roots:
                p += 1
                cur -= kr
            return p

        heights = [sum(r) for r in pos]
        low = 0  # pos[:low]: the positive roots of height <= ht(t) // 2
        # t = pos[j]; the first `rank` positive roots are the simple ones
        for j in range(rs.rank, len(pos)):
            half, kt = heights[j] // 2, keys[j]
            while heights[low] <= half:
                low += 1
            # t = r + s with r before s, sorted by the position of r
            decomps = [(i, k) for i in range(low)
                       if (k := at.get(kt - keys[i], -1)) > i]
            i0, k0 = decomps[0]  # extraspecial: minimal first member
            r0, s0, kr0, ks0 = pos[i0], pos[k0], keys[i0], keys[k0]
            n0 = below(kr0, ks0) + 1
            npos[r0, s0], npos[s0, r0] = n0, -n0
            lt = len2[pos[j]]
            for i, k in decomps[1:]:
                r, s, kr = pos[i], pos[k], keys[i]
                nr, ns = neg[r], neg[s]
                # d1 = r0 - r and d2 = s0 - r, None when not a root; then
                # s0 - s = -d1 and r0 - s = -d2, since r0 + s0 = r + s
                d1, d2 = roots.get(kr0 - kr), roots.get(ks0 - kr)
                a = nany(r0, nr, d1) * nany(s0, ns, neg[d1]) if d1 else 0
                b = nany(nr, s0, d2) * nany(r0, ns, neg[d2]) if d2 else 0
                l1 = len2[d1] if d1 else 1
                l2 = len2[d2] if d2 else 1
                num, den = -lt * (a * l2 + b * l1), n0 * l1 * l2
                n, rem = divmod(num, den)
                if rem or not n:
                    raise AssertionError(f"N{r, s} = {Fraction(num, den)} for root "
                                         f"{pos[j]} is not a nonzero integer")
                if abs(n) != below(kr, keys[k]) + 1:
                    raise AssertionError(f"|N{r, s}| = {abs(n)} is not p + 1 "
                                         f"for root {pos[j]}")
                npos[r, s], npos[s, r] = n, -n

    def _nany(self, a, b, t):
        """N(a, b) for roots a, b whose sum t = a + b is a root (Carter,
        Thm 4.1.2); the caller has found t, from the keys.

        With c = -t, exactly one cyclic pair (x, y) of (a, b, c) has
        both roots of the same sign; z is the third root.  N(x, y) is read
        from the positive constants, with N(-x, -y) = -N(x, y), and
        N(a, b) / (c, c) = N(x, y) / (z, z).  A root is positive iff it is
        in `_pos_index`, and its negative is read from `RootSystem.neg`."""
        pos, neg = self._pos_index, self.rs.neg
        c = neg[t]
        if (a in pos) == (b in pos):
            x, y, z = a, b, c
        elif (b in pos) == (c in pos):
            x, y, z = b, c, a
        else:
            x, y, z = c, a, b
        n = self._npos[x, y] if x in pos else -self._npos[neg[x], neg[y]]
        # (c, c) / (z, z) as a ratio of the integer `len2_numerators`
        len2 = self.rs.len2_numerators
        lc, lz = len2[c], len2[z]
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
        """Bracket of two basis elements, as a sparse coeff dict with no
        zero coefficient.  For roots r, s the key of r + s is one int
        addition (see `_root_keys`): a zero key means s = -r, a root's key
        means r + s is that root, and any other key brackets to 0."""
        keys = self._keys
        key1, key2 = keys.get(k1), keys.get(k2)  # None for an H label
        if key1 is None:
            if key2 is None:
                return {}
            c = self.rs.pairings[k2][k1[1]]
            return {k2: c} if c else {}
        if key2 is None:
            c = self.rs.pairings[k1][k2[1]]
            return {k1: -c} if c else {}
        kt = key1 + key2
        if not kt:
            return {("H", i): c for i, c in enumerate(self.rs.coroots[k1]) if c}
        t = self._key_roots.get(kt)
        if t is None:
            return {}
        return {t: self._nany(k1, k2, t)}

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
        ValueError if a label in `labels`, `src` or `dst` is not a basis
        label, or if some [e_k, src[j]] has a component outside the `dst`
        labels."""
        index = self.index
        for lbl in chain(labels, src, dst):
            if lbl not in index:
                raise ValueError(f"{lbl!r} is not a basis label of "
                                 f"{self.rs.cartan_type}")
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


def _root_keys(roots, bits):
    """The key sum_i r_i 2^(bits i) of each root r, in order.  Raises
    AssertionError unless 3 |r_i| < 2^bits for every coordinate.

    Each `ChevalleyAlgebra` keeps the key of every root and the root of
    every key, with B = 2^bits the least power of two above 3m, m the
    largest coordinate of the highest root (the root system's build checks
    that it dominates every positive root), so every coordinate of a root
    lies in [-m, m].  The key of -r is minus that of r.  A vector with
    coordinates in [-2m, 2m] and a root differ by at most 3m < B in each
    coordinate, and a sum of d_i B^i with every |d_i| < B is zero only
    when every d_i is.  So the key of such a vector is the key of a root
    only when the vector is that root, and is 0 only when the vector is 0.
    The structure-constant build forms only such vectors, and so does the
    bracket: r + s, for roots r and s, has its key 0 only when s = -r."""
    bound, keys = 1 << bits, []
    for r in roots:
        if 3 * max(map(abs, r)) >= bound:
            raise AssertionError(f"root {r} has a coordinate c with 3|c| >= "
                                 f"{bound}, too wide for {bits}-bit keys")
        k = 0
        for c in reversed(r):
            k = (k << bits) + c
        keys.append(k)
    return keys


@cache
def _algebra(t):
    return ChevalleyAlgebra(build_root_system(t))


def build_algebra(t):
    """Chevalley algebra for a Cartan type or type label, built once per
    type."""
    return _algebra(_as_cartan_type(t))
