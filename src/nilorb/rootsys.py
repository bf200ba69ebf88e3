"""Root systems of the simple types with exact integer/rational data.

Simple roots are numbered as in Bourbaki's planches (see README for the
table).  Roots are stored as integer coordinate tuples in the simple-root
basis.  The symmetric form comes from a realization of the simple roots in
a rational Euclidean space, rescaled so that long roots have squared
length 2; after that, inner products are integer sums over the Cartan
matrix, (r, s) = sum_j s_j d_j <r, alpha_j^vee> with d_j = (alpha_j,
alpha_j)/2 over one common denominator.  Past that form the build runs in
integers: the closure keeps the Cartan pairings <r, alpha_j^vee> of every
positive root, and the squared length of every root is computed once, from
them, as the integer numerator `len2_numerators` over that denominator.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property
from math import lcm

FAMILIES = "ABCDEFG"

_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class CartanType(namedtuple("CartanType", "family rank")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if type(self.rank) is not int:
            raise TypeError(f"rank {self.rank!r} is not an int")
        if self.family not in _RANK_BOUNDS:
            raise ValueError(f"unknown family {self.family!r}")
        lo, hi = _RANK_BOUNDS[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise ValueError(f"invalid rank {self.rank} for family {self.family}")
        return self

    @classmethod
    def parse(cls, s):
        """Parse a label like 'G2', 'B3' or 'E8'."""
        s = s.strip()
        if len(s) < 2 or s[0].upper() not in FAMILIES or not s[1:].isdigit():
            raise ValueError(f"cannot parse Cartan type {s!r}")
        return cls(s[0].upper(), int(s[1:]))

    def __str__(self):
        return f"{self.family}{self.rank}"


def _simple_roots_epsilon(t):
    """Bourbaki simple roots in an ambient rational space, plus the factor
    by which the Euclidean dot product is rescaled (long roots -> length 2)."""
    fam, l = t.family, t.rank
    F = Fraction

    def e(i, dim):
        v = [F(0)] * dim
        v[i] = F(1)
        return v

    if fam == "A":
        dim = l + 1
        roots = [[a - b for a, b in zip(e(i, dim), e(i + 1, dim))] for i in range(l)]
        return roots, F(1)
    if fam == "B":
        roots = [[a - b for a, b in zip(e(i, l), e(i + 1, l))] for i in range(l - 1)]
        roots.append(e(l - 1, l))
        return roots, F(1)
    if fam == "C":
        roots = [[a - b for a, b in zip(e(i, l), e(i + 1, l))] for i in range(l - 1)]
        last = e(l - 1, l)
        roots.append([2 * x for x in last])
        return roots, F(1, 2)
    if fam == "D":
        roots = [[a - b for a, b in zip(e(i, l), e(i + 1, l))] for i in range(l - 1)]
        roots.append([a + b for a, b in zip(e(l - 2, l), e(l - 1, l))])
        return roots, F(1)
    if fam == "E":
        dim = 8
        a1 = [F(1, 2), -F(1, 2), -F(1, 2), -F(1, 2), -F(1, 2), -F(1, 2), -F(1, 2), F(1, 2)]
        a2 = [F(1), F(1), F(0), F(0), F(0), F(0), F(0), F(0)]
        roots = [a1, a2]
        for k in range(3, l + 1):
            # alpha_k = e_{k-2} - e_{k-3} in 0-based coordinates
            v = [F(0)] * dim
            v[k - 2] = F(1)
            v[k - 3] = F(-1)
            roots.append(v)
        return roots, F(1)
    if fam == "F":
        F1 = F(1)
        roots = [
            [F(0), F1, -F1, F(0)],
            [F(0), F(0), F1, -F1],
            [F(0), F(0), F(0), F1],
            [F(1, 2), -F(1, 2), -F(1, 2), -F(1, 2)],
        ]
        return roots, F(1)
    # G, the last family `CartanType` admits
    roots = [
        [F(1), F(-1), F(0)],
        [F(-2), F(1), F(1)],
    ]
    return roots, F(1, 3)


def _dot(u, v):
    """Dot product of two sparse Fraction vectors, skipping the zero
    coordinates."""
    return sum(a * b for a, b in zip(u, v) if a and b)


class RootSystem:
    """All roots of a simple type, generated from the Cartan matrix by the
    root-string closure algorithm."""

    def __init__(self, cartan_type):
        self.cartan_type = cartan_type
        self.rank = cartan_type.rank
        simple_eps, scale = _simple_roots_epsilon(cartan_type)
        self._simple_eps = simple_eps
        n = self.rank
        # sym_form[i][j] = (alpha_i, alpha_j), long roots of squared length 2
        self.sym_form = [
            [scale * _dot(simple_eps[i], simple_eps[j]) for j in range(n)]
            for i in range(n)
        ]
        # cartan_matrix[i][j] = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j)
        self.cartan_matrix = [
            [int(2 * self.sym_form[i][j] / self.sym_form[j][j]) for j in range(n)]
            for i in range(n)
        ]
        # d_j = (alpha_j, alpha_j) / 2 = self._d[j] / self._denom
        half = [self.sym_form[j][j] / 2 for j in range(n)]
        self._denom = lcm(*(h.denominator for h in half))
        self._d = [int(h * self._denom) for h in half]
        self.simple_roots = [
            tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
        ]
        pairings = self._generate_positive()
        self.positive_roots = sorted(pairings, key=lambda r: (sum(r), r))
        self.all_roots = self.positive_roots + [
            tuple(-c for c in r) for r in self.positive_roots
        ]
        self._root_set = set(self.all_roots)
        # squared length of every root, long roots 2; (-r, -r) = (r, r);
        # len2_numerators[r] = (r, r) * _denom = sum_j r_j d_j <r, alpha_j^vee>
        nums = [sum(c * d * q for c, d, q in zip(r, self._d, pairings[r]) if c)
                for r in self.positive_roots]
        self.len2_numerators = dict(zip(self.all_roots, nums + nums))
        self._coroots = {}

    # -- construction ---------------------------------------------------

    def _cartan_pairing(self, coords, j):
        """<r, alpha_j^vee> for r given by simple-root coordinates."""
        return sum(c * self.cartan_matrix[i][j] for i, c in enumerate(coords))

    def _generate_positive(self):
        """The positive roots, each mapped to its Cartan pairings
        [<r, alpha_j^vee> for j], by the root-string closure.  The pairings
        are kept along the closure: those of r + alpha_j are those of r plus
        row j of the Cartan matrix."""
        n, C = self.rank, self.cartan_matrix
        pairings = {r: list(C[i]) for i, r in enumerate(self.simple_roots)}
        layer = list(self.simple_roots)
        while layer:
            new = []
            for r in layer:
                pr = pairings[r]
                for j in range(n):
                    # length p of the string below r in direction alpha_j; a
                    # tuple with a negative entry is not in `pairings`
                    p = 0
                    down = list(r)
                    while True:
                        down[j] -= 1
                        if tuple(down) not in pairings:
                            break
                        p += 1
                    if p > pr[j]:
                        up = list(r)
                        up[j] += 1
                        t = tuple(up)
                        if t not in pairings:
                            pairings[t] = [a + b for a, b in zip(pr, C[j])]
                            new.append(t)
            layer = new
        return pairings

    # -- queries --------------------------------------------------------

    def is_root(self, coords):
        return tuple(coords) in self._root_set

    def _inner_numerator(self, r, s):
        """(r, s) * _denom = sum_j s_j _d[j] <r, alpha_j^vee>, an int."""
        return sum(c * d * self._cartan_pairing(r, j)
                   for j, (c, d) in enumerate(zip(s, self._d)) if c)

    def inner(self, r, s):
        """Exact inner product (r, s) = sum_j s_j d_j <r, alpha_j^vee>, long
        roots normalized to squared length 2, as a Fraction."""
        return Fraction(self._inner_numerator(r, s), self._denom)

    def is_long(self, r):
        return self.len2_numerators[tuple(r)] == 2 * self._denom

    def highest_root(self):
        """The unique root maximal in the coordinatewise order.

        It is the last positive root: the roots are sorted by height, and a
        root that dominates a root of maximal height coordinatewise is that
        root itself.  Raises unless it dominates every positive root."""
        best = self.positive_roots[-1]
        if not all(
            all(a >= b for a, b in zip(best, r)) for r in self.positive_roots
        ):
            raise AssertionError(f"highest root {best} is not coordinatewise maximal")
        return best

    def short_positive_roots(self):
        return [r for r in self.positive_roots if not self.is_long(r)]

    @cached_property
    def inverse_cartan_numerators(self):
        """(d, rows): the inverse of the Cartan matrix C as integer rows
        over one common denominator d, computed on first use; column k
        holds d times the simple-coroot coordinates of the k-th fundamental
        coweight.  Raises unless C rows = d I, which every grading element
        H relies on (see `dynkin.sl2_complete`)."""
        from . import linalg

        n = self.rank
        C = self.cartan_matrix
        m, _ = linalg.rref([row + [int(i == j) for j in range(n)]
                            for i, row in enumerate(C)])
        inv = [row[n:] for row in m]
        d = lcm(*(x.denominator for row in inv for x in row))
        rows = [[int(x * d) for x in row] for row in inv]
        if any(sum(C[i][j] * rows[j][k] for j in range(n)) != d * (i == k)
               for i in range(n) for k in range(n)):
            raise AssertionError(f"{self.cartan_type}: C times the inverse "
                                 f"Cartan rows is not {d} I")
        return d, rows

    def coroot(self, r):
        """r^vee = 2 r / (r,r) expressed in the simple-coroot basis.

        Returns the integer coefficients c_i with r^vee = sum c_i
        alpha_i^vee, computed on the first call for each root and memoised;
        raises if one is not integral (the coroots span a lattice with the
        simple coroots as a basis).
        """
        r = tuple(r)
        co = self._coroots.get(r)
        if co is None:
            # c_i = r_i (alpha_i, alpha_i) / (r, r) = 2 r_i d_i / (denom (r, r))
            q = self.len2_numerators[r]
            co = []
            for c, d in zip(r, self._d):
                n, rem = divmod(2 * c * d, q)
                if rem:
                    raise AssertionError(f"coroot of {r} has a non-integral "
                                         f"coefficient {Fraction(2 * c * d, q)}")
                co.append(n)
            co = self._coroots[r] = tuple(co)
        return co

    def root_from_epsilon(self, eps):
        """Simple-root coordinates of a vector given in the ambient
        realization, or None if it is not in the root lattice span.
        Raises ValueError unless `eps` has one entry per ambient
        coordinate."""
        from . import linalg

        dim = len(self._simple_eps[0])
        if len(eps) != dim:
            raise ValueError(f"{self.cartan_type} lives in dimension {dim}, "
                             f"got {len(eps)} coordinates")
        rows = [[self._simple_eps[j][i] for j in range(self.rank)] for i in range(dim)]
        x = linalg.solve(rows, [Fraction(v) for v in eps])
        if x is None:
            return None
        return tuple(x)

    # -- E-type end-node geometry ---------------------------------------

    def graph_ends(self):
        """Nodes of degree 1 in the Dynkin graph (0-based indices)."""
        n = self.rank
        deg = [0] * n
        for i in range(n):
            for j in range(n):
                if i != j and self.cartan_matrix[i][j] != 0:
                    deg[i] += 1
        return [i for i in range(n) if deg[i] == 1]

    @cached_property
    def simple_root_sum_facts(self):
        """For E types: facts about sigma = sum of all simple roots,
        computed on first use.

        Reports whether sigma and sigma minus each end-node simple root are
        roots, and which pairs of the latter are orthogonal.  The three E
        Cartan matrices are fixed, and each Dynkin graph has the three ends
        that `graph_ends` returns (`test_graph_ends` pins them), so they
        are not re-counted here.  Raises ValueError on every other type.
        """
        if self.cartan_type.family != "E":
            raise ValueError("only defined for E types")
        n = self.rank
        sigma = tuple(1 for _ in range(n))
        ends = self.graph_ends()
        sigma_minus = {}
        for e in ends:
            m = list(sigma)
            m[e] -= 1
            sigma_minus[e] = tuple(m)
        ortho = {}
        for i, a in enumerate(ends):
            for b in ends[i + 1 :]:
                ortho[(a, b)] = self.inner(sigma_minus[a], sigma_minus[b]) == 0
        return {
            "sigma_is_root": self.is_root(sigma),
            "ends": ends,
            "sigma_minus_end_is_root": {
                e: self.is_root(sigma_minus[e]) for e in ends
            },
            "sigma_minus_end": sigma_minus,
            "orthogonal_pairs": ortho,
        }


@cache
def _root_system(t):
    return RootSystem(t)


def _as_cartan_type(t):
    """A CartanType read from a CartanType or a type label; anything else
    raises `TypeError`. A plain tuple equals the CartanType of its fields,
    so it would otherwise find a per-type cached build instead of failing."""
    if isinstance(t, str):
        return CartanType.parse(t)
    if type(t) is not CartanType:
        raise TypeError(f"expected a CartanType or a type label, got {t!r}")
    return t


def build_root_system(t):
    """The root system of a Cartan type or type label, built once per type."""
    return _root_system(_as_cartan_type(t))
