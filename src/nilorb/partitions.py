"""Partition calculus for nilpotent orbits of the classical types.

Orbits of sl(n), so(n), sp(n) are labelled by Jordan-type partitions with
the usual multiplicity constraints; dimension, closure (dominance) order,
weighted diagram and fundamental-group order are all computed from the
partition.  Formulas follow Collingwood & McGovern, "Nilpotent Orbits in
Semisimple Lie Algebras" (see README for the exact conventions).
"""

from collections import namedtuple
from functools import reduce
from math import gcd

from .dynkin import WeightedDiagram
from .rootsys import CartanType


def matrix_size(family, rank):
    if family == "A":
        return rank + 1
    if family == "B":
        return 2 * rank + 1
    if family in ("C", "D"):
        return 2 * rank
    raise ValueError(f"not a classical family: {family}")


def dual_partition(parts):
    if not parts:
        return ()
    return tuple(
        sum(1 for p in parts if p > i) for i in range(parts[0])
    )


def is_valid_partition(family, rank, parts):
    if list(parts) != sorted(parts, reverse=True) or any(p <= 0 for p in parts):
        return False
    if sum(parts) != matrix_size(family, rank):
        return False
    if family == "A":
        return True
    mult = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    if family in ("B", "D"):
        return all(m % 2 == 0 for p, m in mult.items() if p % 2 == 0)
    return all(m % 2 == 0 for p, m in mult.items() if p % 2 == 1)


def _very_even(family, parts):
    return family == "D" and all(p % 2 == 0 for p in parts)


class JordanOrbit(namedtuple("JordanOrbit", "family rank partition very_even_label",
                             defaults=("",))):
    # very_even_label: 'I' or 'II' for the split D-type classes, else ""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not is_valid_partition(self.family, self.rank, self.partition):
            raise ValueError(
                f"invalid {self.family}{self.rank} partition {self.partition}"
            )
        if self.very_even_label not in ("", "I", "II"):
            raise ValueError(
                f"very even label {self.very_even_label!r} is not I or II")
        if self.very_even_label and not self.is_very_even():
            raise ValueError("label only allowed on very even D-type partitions")
        if self.is_very_even() and not self.very_even_label:
            raise ValueError(
                f"very even partition {self.partition} names two {self.family}"
                f"{self.rank} orbits; label it I or II (--very-even)")
        return self

    def is_very_even(self):
        return _very_even(self.family, self.partition)

    def is_zero(self):
        return all(p == 1 for p in self.partition)

    def cartan_type(self):
        return CartanType(self.family, self.rank)

    def __str__(self):
        lbl = f" [{self.very_even_label}]" if self.very_even_label else ""
        return f"{self.family}{self.rank} O_{self.partition}{lbl}"


def orbit_dim(o):
    """Exact orbit dimension from the dual-partition formula."""
    parts = o.partition
    s = dual_partition(parts)
    sq = sum(x * x for x in s)
    n = sum(parts)
    odd = sum(1 for p in parts if p % 2 == 1)
    if o.family == "A":
        return n * n - sq
    if o.family in ("B", "D"):
        return n * (n - 1) // 2 - (sq - odd) // 2
    return n * (n + 1) // 2 - (sq + odd) // 2


def closure_leq(o1, o2):
    """Dominance order on partitions; split very even classes with the
    same partition but different labels are incomparable."""
    if (o1.family, o1.rank) != (o2.family, o2.rank):
        raise ValueError("orbits belong to different algebras")
    if o1.partition == o2.partition:
        return o1.very_even_label == o2.very_even_label
    a = list(o1.partition) + [0] * len(o2.partition)
    b = list(o2.partition) + [0] * len(o1.partition)
    ta = tb = 0
    for x, y in zip(a, b):
        ta += x
        tb += y
        if ta > tb:
            return False
    return True


def sl2_weights(parts):
    w = []
    for d in parts:
        w.extend(range(d - 1, -d, -2))
    w.sort(reverse=True)
    return w


def weighted_diagram(o):
    """Weighted Dynkin diagram of a classical orbit from its sl2 weight
    multiset on the standard representation."""
    l = o.rank
    w = sl2_weights(o.partition)
    if o.family == "A":
        labels = [w[i] - w[i + 1] for i in range(l)]
    else:
        h = w[:l]   # the nonnegative half of the symmetric weight multiset
        labels = [h[i] - h[i + 1] for i in range(l - 1)]
        if o.family == "B":
            labels.append(h[l - 1])
        elif o.family == "C":
            labels.append(2 * h[l - 1])
        else:
            labels.append(h[l - 2] + h[l - 1])
            if o.very_even_label == "II":
                labels[l - 2], labels[l - 1] = labels[l - 1], labels[l - 2]
    return WeightedDiagram(o.cartan_type(), tuple(int(v) for v in labels))


def pi1_order(o):
    """Order of the fundamental group of the orbit (equivalently, of the
    centralizer component group in the simply connected group)."""
    if o.is_zero():
        raise ValueError("zero orbit")
    parts = o.partition
    if o.family == "A":
        return reduce(gcd, parts)
    if o.family == "C":
        return 2 ** len({p for p in parts if p % 2 == 0})
    # B/D: distinct odd parts, with a correction when no odd part repeats
    mult = {}
    for p in parts:
        mult[p] = mult.get(p, 0) + 1
    odd_parts = {p for p in parts if p % 2 == 1}
    a = len(odd_parts)
    if a == 0:
        return 2
    if any(mult[p] >= 2 for p in odd_parts):
        return 2 ** (a - 1)
    return 2 ** a


def minimal_orbit(family, rank):
    n = matrix_size(family, rank)
    if family in ("A", "C"):
        parts = (2,) + (1,) * (n - 2)
    else:
        parts = (2, 2) + (1,) * (n - 4)
    return JordanOrbit(family, rank, parts)


def _partitions(n, maxpart=None):
    if n == 0:
        yield ()
        return
    if maxpart is None or maxpart > n:
        maxpart = n
    for first in range(maxpart, 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


class OrbitPoset:
    """All nilpotent orbits of a classical type, with the closure order."""

    def __init__(self, family, rank):
        self.family = family
        self.rank = rank
        n = matrix_size(family, rank)
        orbits = []
        for parts in _partitions(n):
            if not is_valid_partition(family, rank, parts):
                continue
            labels = ("I", "II") if _very_even(family, parts) else ("",)
            orbits += (JordanOrbit(family, rank, parts, lbl) for lbl in labels)
        self.orbits = sorted(
            orbits, key=lambda o: (orbit_dim(o), o.partition, o.very_even_label)
        )

    def nonzero_orbits(self):
        return [o for o in self.orbits if not o.is_zero()]

    def lower_set(self, o):
        return [x for x in self.orbits if closure_leq(x, o) and x != o]

    def maximal_suborbits(self, o):
        lower = self.lower_set(o)
        out = []
        for x in lower:
            if not any(closure_leq(x, y) and x != y for y in lower):
                out.append(x)
        return out

    def boundary_codim(self, o):
        subs = self.maximal_suborbits(o)
        if not subs:
            raise ValueError("zero orbit has no boundary")
        return min(orbit_dim(o) - orbit_dim(x) for x in subs)

    def minimal_nonzero(self):
        """The unique minimal nonzero orbits (a list, to expose failures)."""
        nz = self.nonzero_orbits()
        return [
            o for o in nz
            if not any(closure_leq(x, o) and x != o for x in nz)
        ]
