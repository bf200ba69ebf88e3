"""Slow, independent reference computations that tests compare the
library against."""

from fractions import Fraction
from itertools import product

from nilorb.matmodel import SymplecticSpace, mu


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


def product_cover_degree(n_list):
    """Degree of the product of the maps mu over sp(2n), n in `n_list`, at
    v = (1, ..., 2n) in every component, by brute force: the sign tuples s
    with mu(s_i v_i) = mu(v_i) in every component, counted modulo the
    global sign."""
    spaces = [SymplecticSpace(n) for n in n_list]
    vs = [tuple(range(1, sp.dim + 1)) for sp in spaces]
    images = [mu(sp, v).matrix for sp, v in zip(spaces, vs)]
    classes = set()
    for signs in product((1, -1), repeat=len(n_list)):
        if all(mu(sp, [s * c for c in v]).matrix == img
               for sp, s, v, img in zip(spaces, signs, vs, images)):
            classes.add(max(signs, tuple(-s for s in signs)))
    return len(classes)
