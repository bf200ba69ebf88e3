"""Root systems of the simple types with exact integer/rational data.

Simple roots are numbered as in Bourbaki's planches (see README for the
table).  Roots are stored as integer coordinate tuples in the simple-root
basis.  The symmetric form comes from a realization of the simple roots in
a rational Euclidean space, the planche vectors, and nothing else: the
build rescales their dot products by 2 / max_j (alpha_j . alpha_j), so
that long roots have squared length 2, and `inner` reads that Gram matrix
of the simple roots.  Past that form the build runs in integers, once per
type, and keeps for every root r, as dicts keyed by the root tuple: its
Cartan pairings `pairings[r]` = (<r, alpha_j^vee> for j), kept along the
closure, whose keys are the roots that `is_root` looks up; its
squared length as the integer numerator
`len2_numerators[r]` = (r, r) * _denom = sum_j r_j d_j <r, alpha_j^vee>,
with d_j = (alpha_j, alpha_j)/2 over one common denominator _denom; and
its coroot `coroots[r]` in the simple-coroot basis.  `all_roots` lists
the positive roots, sorted by height, then their negatives in the same
order.  The build raises unless every coroot is integral and the last
positive root dominates every positive root.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property
from math import lcm
from operator import add

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
    """Bourbaki simple roots in an ambient rational space (the planche
    vectors), as dense Fraction lists; the ambient dimension is one past
    the largest coordinate any of them uses.  `RootSystem` derives the
    scale of the form from them."""
    fam, l = t.family, t.rank
    h = Fraction(1, 2)
    # each vector is a sparse sum of e_i, {0-based coordinate: coefficient}
    if fam in "ABCD":
        # alpha_i = e_i - e_(i+1) for i < l (A) or i < l - 1 (B, C, D)
        n = l if fam == "A" else l - 1
        vecs = [{i: 1, i + 1: -1} for i in range(n)]
        vecs += {"A": [], "B": [{n: 1}], "C": [{n: 2}], "D": [{n - 1: 1, n: 1}]}[fam]
    elif fam == "E":
        # alpha_1 = (e_1 + e_8 - e_2 - ... - e_7) / 2, alpha_2 = e_1 + e_2,
        # alpha_k = e_(k-1) - e_(k-2) for k >= 3
        vecs = [{i: h if i in (0, 7) else -h for i in range(8)}, {0: 1, 1: 1}]
        vecs += [{k - 2: 1, k - 3: -1} for k in range(3, l + 1)]
    elif fam == "F":
        vecs = [{1: 1, 2: -1}, {2: 1, 3: -1}, {3: 1}, {0: h, 1: -h, 2: -h, 3: -h}]
    else:  # G, the last family `CartanType` admits
        vecs = [{0: 1, 1: -1}, {0: -2, 1: 1, 2: 1}]
    dim = 1 + max(max(v) for v in vecs)
    return [[Fraction(v.get(i, 0)) for i in range(dim)] for v in vecs]


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
        self._simple_eps = eps = _simple_roots_epsilon(cartan_type)
        n = self.rank
        # sym_form[i][j] = (alpha_i, alpha_j): the dot products, rescaled so
        # that the longest simple roots have squared length 2; every root is
        # a Weyl conjugate of a simple root, so these are the long roots
        dots = [[_dot(u, v) for v in eps] for u in eps]
        scale = 2 / max(dots[j][j] for j in range(n))
        self.sym_form = [[scale * x for x in row] for row in dots]
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
        pos_pairings = self._root_string_closure()
        self.positive_roots = sorted(pos_pairings, key=lambda r: (sum(r), r))
        negatives = [tuple(-c for c in r) for r in self.positive_roots]
        # the negatives follow the positives, in the same order
        self.all_roots = self.positive_roots + negatives
        # pairings[r] = (<r, alpha_j^vee> for j); those of -r are negated
        rows = [pos_pairings[r] for r in self.positive_roots]
        self.pairings = dict(zip(self.all_roots,
                                 rows + [tuple(-q for q in p) for p in rows]))
        # squared length of every root, long roots 2; (-r, -r) = (r, r);
        # len2_numerators[r] = (r, r) * _denom = sum_j r_j d_j <r, alpha_j^vee>
        nums = [sum(c * d * q for c, d, q in zip(r, self._d, p) if c)
                for r, p in zip(self.positive_roots, rows)]
        self.len2_numerators = dict(zip(self.all_roots, nums + nums))
        # coroots[r]: r^vee = 2 r / (r, r) in the simple-coroot basis,
        # c_i = r_i (alpha_i, alpha_i) / (r, r) = 2 r_i d_i / len2_numerators[r],
        # and (-r)^vee = -r^vee; the coroots span a lattice with the simple
        # coroots as a basis, so a remainder raises
        cos = []
        for r, q in zip(self.positive_roots, nums):
            twice = [2 * c * d for c, d in zip(r, self._d)]
            if any(x % q for x in twice):
                raise AssertionError(f"coroot of {r} is not integral: "
                                     f"{[Fraction(x, q) for x in twice]}")
            cos.append(tuple(x // q for x in twice))
        self.coroots = dict(zip(self.all_roots,
                                cos + [tuple(-c for c in co) for co in cos]))
        # the roots are sorted by height, so only the last positive root can
        # be the highest root: raise unless it dominates every positive root,
        # that is, unless it is their coordinatewise maximum
        top = self.positive_roots[-1]
        if tuple(map(max, zip(*self.positive_roots))) != top:
            raise AssertionError(f"highest root {top} is not coordinatewise maximal")

    # -- construction ---------------------------------------------------

    def _root_string_closure(self):
        """The positive roots, each mapped to its Cartan pairings
        (<r, alpha_j^vee> for j), by the root-string closure.  The pairings
        are kept along the closure: those of r + alpha_j are those of r plus
        row j of the Cartan matrix."""
        n, C = self.rank, self.cartan_matrix
        pairings = {r: tuple(C[i]) for i, r in enumerate(self.simple_roots)}
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
                            pairings[t] = tuple(map(add, pr, C[j]))
                            new.append(t)
            layer = new
        return pairings

    # -- queries --------------------------------------------------------

    def is_root(self, coords):
        return tuple(coords) in self.pairings

    def inner(self, r, s):
        """Exact inner product (r, s) = sum_ij r_i s_j (alpha_i, alpha_j),
        long roots normalized to squared length 2, as a Fraction."""
        return Fraction(sum(a * b * g for a, row in zip(r, self.sym_form) if a
                            for b, g in zip(s, row) if b))

    def is_long(self, r):
        return self.len2_numerators[tuple(r)] == 2 * self._denom

    def highest_root(self):
        """The unique root maximal in the coordinatewise order: the last
        positive root, which the build checks dominates every positive
        root."""
        return self.positive_roots[-1]

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
