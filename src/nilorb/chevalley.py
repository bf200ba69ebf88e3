"""Structure-constant realization of the simple Lie algebras.

Basis: one root vector X_r per root r, one coroot generator H_i per simple
root.  Brackets follow the Chevalley relations

    [H, X_r] = r(H) X_r,   [X_r, X_{-r}] = H_r,   [X_r, X_s] = N_{r,s} X_{r+s},

with integer constants N_{r,s}, |N_{r,s}| = p+1 for a root string of length
p below s in the direction of r.  Signs are fixed by the extraspecial-pair
convention over the height-then-lexicographic order on positive roots; the
build computes the positive-pair constants once, in integer arithmetic, over
the integer root keys that each algebra keeps (`_root_keys` says why a key
names at most one root): inside the algebra a root is its key, and root
tuples appear only as the labels of elements.  The constants are keyed by
pairs of keys; the decompositions of each positive root, the root tests
and the root-string walks are int subtractions and dict lookups, and the
build raises unless every constant is a nonzero integer with |N| = p+1.
The same keys serve every bracket of two root vectors, whose sum r + s is
one int addition and one dict lookup.  The stored table is the only
representation of a basis-pair bracket: one row per basis position, each
computed on first use by `_fill`, the N of each column as a signed byte and
the basis position of the result as an unsigned 16-bit int, with the one
column [X_r, X_-r] = H_r marked and read from the coroot of r.  `bracket`
reads the rows in its own loop (its docstring says why); `ad_entries`,
the one reader of ad entries, and `table_row` read them through
`_entries`.  There is no runtime Jacobi check: the constants
depend on the Cartan type alone, and
`tests/test_chevalley.py::test_jacobi_identity_from_chevalley_generators`
proves the identity for A1-A4, B2-B5, C2-C5, D3-D5, G2, F4 and E6-E8 on
the stored table, by checking that ad(X_{+-alpha_i}) is a derivation and
that these generators span the algebra.
Every other constant is read from the positive ones by one rule over the
integer squared-length numerators of the keys, `_len2` (see `_nany`, the
only map from a pair of root keys to N, which the build's mixed-sign terms
read too), so every bracket of basis elements has integer coefficients.
Element coefficients are ints or Fractions, kept as given; floats and
bools raise TypeError.

Every matrix of ad(x) is built here, by `ad_matrix` from the integer entries
of `ad_entries`, which read the stored rows.

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

from . import linalg
from .rootsys import _as_cartan_type, build_root_system


class LieElement:
    """Sparse coefficient vector over the algebra basis.

    Labels are root tuples (for X_r) or ('H', i) for the Cartan generators;
    a label outside `alg.index` raises ValueError.  Coefficients are ints or
    Fractions, kept as given; any other type, bool included, raises
    TypeError.  Zero coefficients are never stored, so equality is
    coefficientwise.  The results of `bracket`, `+`, `-` and `scale` are
    built by `_computed`, which skips these checks.
    """

    __slots__ = ("alg", "coeffs")

    def __init__(self, alg, coeffs):
        for k, v in coeffs.items():
            if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                raise TypeError(f"coefficient {v!r} is not an int or a Fraction")
            if k not in alg.index:
                raise ValueError(f"{k!r} is not a basis label of "
                                 f"{alg.rs.cartan_type}")
        self.alg = alg
        self.coeffs = {k: v for k, v in coeffs.items() if v}

    @classmethod
    def _computed(cls, alg, coeffs):
        """The element of `alg` with the nonzero coefficients of `coeffs`,
        for a result the library computed from checked elements: its labels
        are basis labels and its coefficients ints or Fractions already, so
        only the zero coefficients are dropped."""
        x = cls.__new__(cls)
        x.alg = alg
        x.coeffs = {k: v for k, v in coeffs.items() if v}
        return x

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
        return LieElement._computed(self.alg, out)

    def __neg__(self):
        return LieElement._computed(self.alg,
                                    {k: -v for k, v in self.coeffs.items()})

    def scale(self, c):
        if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
            raise TypeError(f"scalar {c!r} is not an int or a Fraction")
        return LieElement._computed(self.alg,
                                    {k: c * v for k, v in self.coeffs.items()})

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
        self._nroots = len(rs.all_roots)  # the position of H_0
        # the stored bracket table: one slot per basis position, filled by
        # `_fill` on first use
        self._rows = [None] * self.dim
        self._pos = rs.positive_roots
        # the key of each root, the basis position of each key, in the
        # order of the positions (see `_root_keys`), and the squared-length
        # numerator of each key; all_roots lists the negatives in the order
        # of the positive roots
        pos_keys = _root_keys(self._pos, (3 * max(self._pos[-1])).bit_length())
        keys = pos_keys + [-k for k in pos_keys]
        self._keys = dict(zip(rs.all_roots, keys))
        self._key_pos = {k: j for j, k in enumerate(keys)}
        self._len2 = {k: rs.len2_numerators[r] for r, k in self._keys.items()}
        self._npos = {}
        self._fill_structure_constants()

    # -- structure constants --------------------------------------------

    def _fill_structure_constants(self):
        """N(r, s) for the positive pairs with r + s a root, in both orders,
        keyed by the pair of root keys, height by height: the extraspecial
        pair of each root gets p + 1, and every other pair follows from it
        (Carter, ch. 4).

        Inside the build a root is its key (see `_root_keys`): a key is a
        root's key iff it is in `_len2`, positive iff the root is, and the
        key of -r is minus the key of r.  The build forms t - r, r0 - r and
        s0 - r for positive roots, with coordinates in [-m, m], and s - k r
        for k up to p + 1 in the string walk, with coordinates in [-2m, m],
        because s - (k - 1) r is a root.  All of them lie in the bound of
        `_root_keys`, so the key of such a vector is the key of a root only
        when the vector is that root: a root test is a dict lookup of an
        int, and t - r, the negatives and the walk are int subtractions.
        Root tuples are read only for the heights and the error messages.

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
        `_len2` l1, l2 (their common denominator cancels), the step is
        multiplied through by n0 l1 l2, and one divmod gives N; a
        remainder or a zero quotient raises, and so does |N| != p + 1."""
        rs, pos, nany, npos, len2 = (self.rs, self._pos, self._nany,
                                     self._npos, self._len2)
        keys = [self._keys[r] for r in pos]
        at = {k: i for i, k in enumerate(keys)}  # positive key -> position

        def below(kr, ks):
            """Largest p with s - p r a root."""
            p, cur = 0, ks - kr
            while cur in len2:
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
            kr0, ks0 = keys[i0], keys[k0]
            n0 = below(kr0, ks0) + 1
            npos[kr0, ks0], npos[ks0, kr0] = n0, -n0
            lt = len2[kt]
            for i, k in decomps[1:]:
                kr, ks = keys[i], keys[k]
                # d1 = r0 - r and d2 = s0 - r; then s0 - s = -d1 and
                # r0 - s = -d2, since r0 + s0 = r + s
                d1, d2 = kr0 - kr, ks0 - kr
                a = nany(kr0, -kr, d1) * nany(ks0, -ks, -d1) if d1 in len2 else 0
                b = nany(-kr, ks0, d2) * nany(kr0, -ks, -d2) if d2 in len2 else 0
                l1, l2 = len2.get(d1, 1), len2.get(d2, 1)
                num, den = -lt * (a * l2 + b * l1), n0 * l1 * l2
                n, rem = divmod(num, den)
                if rem or not n:
                    raise AssertionError(f"N{pos[i], pos[k]} = {Fraction(num, den)} "
                                         f"for root {pos[j]} is not a nonzero integer")
                if abs(n) != below(kr, ks) + 1:
                    raise AssertionError(f"|N{pos[i], pos[k]}| = {abs(n)} is not "
                                         f"p + 1 for root {pos[j]}")
                npos[kr, ks], npos[ks, kr] = n, -n

    def _nany(self, a, b, t):
        """N(a, b) for the keys a, b of roots whose sum t = a + b is the key
        of a root (Carter, Thm 4.1.2); the caller has found t.

        With c = -t, exactly one cyclic pair (x, y) of (a, b, c) has
        both roots of the same sign; z is the third root.  N(x, y) is read
        from the positive constants, with N(-x, -y) = -N(x, y), and
        N(a, b) / (c, c) = N(x, y) / (z, z).  A root is positive iff its
        key is, and the key of its negative is minus its key."""
        c = -t
        if (a > 0) == (b > 0):
            x, y, z = a, b, c
        elif (b > 0) == (c > 0):
            x, y, z = b, c, a
        else:
            x, y, z = c, a, b
        n = self._npos[x, y] if x > 0 else -self._npos[-x, -y]
        # (c, c) / (z, z) as a ratio of the integer squared-length numerators
        lc, lz = self._len2[c], self._len2[z]
        if lc == lz:
            return n
        n, rem = divmod(n * lc, lz)
        if rem:
            roots = dict(zip(self._key_pos, self.basis_labels))
            raise AssertionError(f"N{roots[a], roots[b]} = "
                                 f"{Fraction(n * lz + rem, lz)} is not an integer")
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

    def _fill(self, i):
        """The stored row of the basis position i, computed on its first
        use: two arrays indexed by basis position j, the N of
        [e_i, e_j] = N e_t as a signed byte (0 when the bracket is 0) and
        the position of t as an unsigned 16-bit int.  The one column of a
        root row whose bracket is not a multiple of a basis element,
        [X_r, X_-r] = H_r, holds N = 1 and the position `dim`, one past the
        last; readers take its terms from `RootSystem.coroots`.

        An H row reads `RootSystem.pairings`: [H_q, X_s] = <s, alpha_q^vee> X_s
        and [H_q, H_j] = 0.  In the row of a root r, the column of H_q holds
        -<r, alpha_q^vee> at the position of X_r, and a root s gives the key
        of r + s with one int addition (see `_root_keys`): a zero key means
        s = -r, a root's key means r + s is that root, with N read from
        `_nany` on the three keys, and any other key brackets to 0.  A zero
        pairing is written as N = 0, which reads as no bracket.

        Every N lies in [-3, 3].  A position must fit 16 bits, so dim is at
        most 65535 (A_255 and B_180 are the largest such types; nothing
        here builds more than E8, dim 248), and a larger dim raises
        OverflowError on the first fill of a root row.

        On 64-bit CPython 3.11 the rows of E7 and E8 take 0.33 MB as
        `array`s, and 0.54 MB as memoryviews of bytearrays, whose object
        headers outweigh a row of E7.  `array` is imported on the first
        fill, so that importing the module does not pay for it."""
        from array import array

        dim, h0, pos = self.dim, self._nroots, self._key_pos
        pairings = self.rs.pairings
        ns, ts = array("b", [0]) * dim, array("H", [0]) * dim
        k = self.basis_labels[i]
        if i >= h0:
            for j, s in enumerate(self.rs.all_roots):
                ns[j], ts[j] = pairings[s][k[1]], j
        else:
            for j, c in enumerate(pairings[k], h0):
                ns[j], ts[j] = -c, i
            kr, nany = self._keys[k], self._nany
            for ks, j in pos.items():
                kt = kr + ks
                if not kt:
                    ns[j], ts[j] = 1, dim
                elif (t := pos.get(kt)) is not None:
                    ns[j], ts[j] = nany(kr, ks, kt), t
        row = self._rows[i] = ns, ts
        return row

    def _entries(self, i, cols):
        """The nonzero brackets of the basis element at position i with the
        basis elements at the positions `cols`, read from its stored row
        (see `_fill`): the triples (j, m, v) with v the e_m coefficient of
        [e_i, e_cols[j]], v != 0, in the order of `cols`; the coroot column
        gives one triple per nonzero coordinate of the coroot, in order."""
        ns, ts = self._rows[i] or self._fill(i)
        mark, out = self.dim, []
        for j, c in enumerate(cols):
            n = ns[c]
            if not n:
                continue
            t = ts[c]
            if t == mark:
                out.extend((j, q, h) for q, h in enumerate(
                    self.rs.coroots[self.basis_labels[i]], self._nroots) if h)
            else:
                out.append((j, t, n))
        return out

    def table_row(self, i):
        """The nonzero brackets of the basis element at position i with
        every basis element, read from its stored row, the row `bracket`
        reads: `_entries` over every position, so the triples (j, m, v)
        with v the e_m coefficient of [e_i, e_j], in the order of j."""
        return self._entries(i, range(self.dim))

    def bracket(self, a, b):
        """[a, b], read from the stored rows (see `_fill`) of the labels
        of a: b's labels are resolved to basis positions once per call.
        It reads the rows in its own loop, not through `_entries`, because
        that route made E7 and E8 brackets of 1, 4 and 16 terms 10-25%
        slower per call (CPython 3.11 on a Xeon), and most brackets the
        library and its callers make have a few terms."""
        a._check(b)
        if a.alg is not self:
            raise ValueError("elements belong to a different algebra")
        index, rows, coroots = self.index, self._rows, self.rs.coroots
        mark, h0 = self.dim, self._nroots
        cols = [(index[k], c) for k, c in b.coeffs.items()]
        out = {}  # basis position -> coefficient
        for k1, c1 in a.coeffs.items():
            i = index[k1]
            ns, ts = rows[i] or self._fill(i)
            for j, c2 in cols:
                n = ns[j]
                if not n:
                    continue
                t = ts[j]
                if t == mark:
                    # [X_r, X_-r] = H_r
                    c = c1 * c2
                    for q, h in enumerate(coroots[k1], h0):
                        if h:
                            out[q] = out.get(q, 0) + c * h
                else:
                    out[t] = out.get(t, 0) + c1 * c2 * n
        labels = self.basis_labels
        return LieElement._computed(self, {labels[t]: v for t, v in out.items()})

    def ad_entries(self, labels, src, dst):
        """For each basis label k in `labels`, the nonzero entries (i, j, v)
        of the matrix of ad(e_k) from the span of the `src` labels to the
        span of the `dst` labels: v is the dst[i] coefficient of
        [e_k, src[j]], in the order of j.  The labels are checked and mapped
        to basis positions once per call, and the entries of each e_k are
        read from its stored row at the src positions by `_entries`.  Every
        v is an int, because every basis bracket is one: the root system's
        `pairings` and `coroots` are int tuples (its build raises on a
        non-integral coroot), and `_nany` raises on a remainder.  Raises
        ValueError if a label in `labels`, `src` or `dst` is not a basis
        label, if a label repeats in `dst` (its first row would go
        unfilled), or if some [e_k, src[j]] has a component outside the
        span of `dst`."""
        index, names = self.index, self.basis_labels
        try:
            ks = [index[lbl] for lbl in labels]
            cols = [index[lbl] for lbl in src]
            rows = [index[lbl] for lbl in dst]
        except KeyError as e:
            raise ValueError(f"{e.args[0]!r} is not a basis label of "
                             f"{self.rs.cartan_type}") from None
        row_of = {m: i for i, m in enumerate(rows)}
        if len(row_of) < len(rows):  # a dict keeps the last row of a position
            m = next(m for i, m in enumerate(rows) if row_of[m] != i)
            raise ValueError(f"{names[m]!r} repeats in the destination labels")
        out = {}
        for lbl, k in zip(labels, ks):
            ek = out[lbl] = []
            for j, m, v in self._entries(k, cols):
                i = row_of.get(m)
                if i is None:
                    raise ValueError(f"[{names[k]}, {names[cols[j]]}] has a "
                                     f"component along {names[m]}, outside "
                                     "the destination labels")
                ek.append((i, j, v))
        return out

    def ad_matrix(self, x, src, dst):
        """Matrix of ad(x) from the span of the `src` labels to the span of
        the `dst` labels: row i, column j holds the dst[i] coefficient of
        [x, src[j]], summed over the `ad_entries` of x's labels.  Integral
        coefficients are used as ints, so the entries are ints when x is
        integral.  Raises ValueError unless x belongs to this algebra, and
        as `ad_entries` does."""
        if x.alg is not self:
            raise ValueError("element belongs to a different algebra")
        entries = self.ad_entries(x.coeffs, src, dst)
        rows = [[0] * len(src) for _ in dst]
        for k, c in x.coeffs.items():
            if c.denominator == 1:
                c = c.numerator
            for i, j, v in entries[k]:
                rows[i][j] += c * v
        return rows

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
        # all_roots lists the negatives in the order of the positive roots
        for r, neg in zip(self._pos, rs.all_roots[len(self._pos):]):
            c = rs.coroots[r]
            k = sum(ci * kij * cj for ci, row in zip(c, kh)
                    for kij, cj in zip(row, c)) // 2
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

    def killing_vector(self, x):
        """[K(e_j, x) for each basis position j], read from the Gram table."""
        if x.alg is not self:
            raise ValueError("element belongs to a different algebra")
        gram, c = self._killing_gram, x.coeffs
        return [sum(g * c.get(k, 0) for k, g in gram[lbl].items())
                for lbl in self.basis_labels]

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
