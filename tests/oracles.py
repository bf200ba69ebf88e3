"""Slow, independent reference computations that tests compare the
library against."""

from fractions import Fraction


def is_ad_nilpotent(alg, a):
    """Exact test that ad(a)^k = 0 for some k <= dim, by applying ad(a) to
    every basis vector until all images vanish.  On a non-nilpotent element
    it always runs dim + 1 rounds and its coefficients grow like
    eigenvalue^k, so keep the fixtures small."""
    cur = [alg.element({lbl: 1}) for lbl in alg.basis_labels]
    for _ in range(alg.dim + 1):
        cur = [alg.bracket(a, v) for v in cur if not v.is_zero()]
        if all(v.is_zero() for v in cur):
            return True
    return False


def epsilon_coords(rs, coords):
    """The root with simple-root coordinates `coords` in the unscaled
    epsilon coordinates of the Bourbaki planches (the inverse of
    `RootSystem.root_from_epsilon`)."""
    dim = len(rs._simple_eps[0])
    v = [Fraction(0)] * dim
    for c, s in zip(coords, rs._simple_eps):
        for i in range(dim):
            v[i] += c * s[i]
    return tuple(v)
