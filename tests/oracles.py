"""Slow, independent reference computations that tests compare the
library against."""

from fractions import Fraction
from itertools import product
from math import lcm

from nilorb import linalg
from nilorb.matmodel import SymplecticSpace, mu


def to_vector(x):
    """The coefficients of the element x as a dense list over the basis of
    its algebra, in basis order, 0 where x has no term."""
    v = [0] * x.alg.dim
    for k, c in x.coeffs.items():
        v[x.alg.index[k]] = c
    return v


def nilpotency_system(n):
    """The sparse integer data (A, b, f) that `dynkin.nilpotency_report`
    hands to `linalg._forward_tests`, by the build it replaced: with D the
    common denominator of n's coefficients, the rows of A = ad(D n) summed
    from one `ad_entries(D n's labels, basis, basis)` call, b = -D n by
    position, and the Killing row f_j = K(e_j, D n) from the Gram table;
    no zero entry is kept."""
    alg = n.alg
    labels, index, gram = alg.basis_labels, alg.index, alg._killing_gram
    d = lcm(*[c.denominator for c in n.coeffs.values()])
    dn = {k: c.numerator * (d // c.denominator) for k, c in n.coeffs.items()}
    a, f = [{} for _ in labels], {}
    for k, entries in alg.ad_entries(dn, labels, labels).items():
        c = dn[k]
        for i, j, v in entries:
            a[i][j] = a[i].get(j, 0) + c * v
        for m, g in gram[k].items():
            f[index[m]] = f.get(index[m], 0) + c * g
    a = [{j: v for j, v in row.items() if v} for row in a]
    b = {index[k]: -c for k, c in dn.items()}
    return a, b, {j: v for j, v in f.items() if v}


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


def centralizer(alg, a):
    """Exact basis of ker ad(a) over all of g, as a list of LieElements:
    a Fraction kernel basis of the dim x dim matrix of ad(a)."""
    labels = alg.basis_labels
    return [alg.element({labels[j]: c for j, c in enumerate(vec) if c})
            for vec in linalg.kernel_basis(alg.ad_matrix(a, labels, labels))]


def in_n_perp(grading, x):
    """True iff every label of x has degree >= -1, i.e. x lies in n_perp."""
    return all(grading.degree[lbl] >= -1 for lbl in x.coeffs)


def centralizer_in_n_perp(grading, n):
    """True iff every vector of the full-algebra centralizer basis of N
    has degree >= -1."""
    return all(in_n_perp(grading, z) for z in centralizer(grading.alg, n))


def omega_kernel_dim(grading, n):
    """dim {X in n_perp : [N, X] in n} - dim p, from the whole block of
    ad(N) from n_perp = g_>=-1 to g_>=1, keeping its degree-1 rows: for N
    in n = g_>=2, [N, X] lies in n unless its degree-1 part is nonzero."""
    alg, degree = grading.alg, grading.degree
    perp = [lbl for lbl, d in degree.items() if d >= -1]
    dst = [lbl for lbl, d in degree.items() if d >= 1]
    rows = [row for lbl, row in zip(dst, alg.ad_matrix(n, perp, dst))
            if degree[lbl] == 1]
    p = sum(1 for d in degree.values() if d >= 0)
    return len(perp) - linalg.rank(rows) - p


def dominant_coroot_labels(rs, r):
    """The labels C x of the coroot x of r after the reflection walk: while
    some label alpha_i(x) is negative, reflect x in the first such simple
    root.  The walk ends at the dominant Weyl conjugate of the coroot."""
    C, n = rs.cartan_matrix, rs.rank
    x = list(rs.coroots[r])

    def labels():
        return [sum(x[j] * C[i][j] for j in range(n)) for i in range(n)]

    lab = labels()
    while any(v < 0 for v in lab):
        i = next(i for i, v in enumerate(lab) if v < 0)
        x[i] -= lab[i]
        lab = labels()
    return tuple(lab)


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


def mat_mul(a, b):
    """The product of two dense matrices."""
    n, m, p = len(a), len(b), len(b[0])
    return [
        [sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)]
        for i in range(n)
    ]


def form(space):
    """The standard alternating matrix Omega = [[0, I], [-I, 0]] of `space`."""
    n = space.n
    m = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        m[i][n + i] = 1
        m[n + i][i] = -1
    return m


def sp_basis(space):
    """Basis of sp(2n) = {X : Omega X symmetric}, via X = -Omega S with S
    running over the symmetric-matrix basis E_ab + E_ba (E_aa for a = b),
    a <= b, in the order of `matmodel._kk_gram`."""
    d = space.dim
    omega = form(space)
    basis = []
    for a in range(d):
        for b in range(a, d):
            s = [[0] * d for _ in range(d)]
            s[a][b] = 1
            s[b][a] = 1
            basis.append([[-x for x in row] for row in mat_mul(omega, s)])
    return basis


def in_sp(space, x):
    """omega(Xu, w) + omega(u, Xw) = 0, i.e. Omega X is symmetric."""
    m = mat_mul(form(space), x)
    d = space.dim
    return all(m[i][j] == m[j][i] for i in range(d) for j in range(d))


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


def positive_structure_constants(rs):
    """N(r, s) for the positive pairs with r + s a root, in both orders, by
    the Fraction-based build that `ChevalleyAlgebra` used before its
    integer one: every earlier positive root is tried as r for each root t,
    and Carter's step (ch. 4) runs in Fractions.  The squared lengths are
    the integer numerators (r, r) * denom from `RootSystem.inner`, which
    reads the simple-root Gram matrix, not from `len2_numerators`."""
    npos = {}
    pos = rs.positive_roots
    index = {r: i for i, r in enumerate(pos)}
    len2 = _len2(rs)

    def string_below(r, s):
        """Largest p with s - p r a root."""
        p = 0
        cur = tuple(a - b for a, b in zip(s, r))
        while rs.is_root(cur):
            p += 1
            cur = tuple(a - b for a, b in zip(cur, r))
        return p

    def nany(a, b):
        return _n_rule(npos, len2, a, b)

    for t in pos:
        # t = r + s with r before s, in the order of the positive roots
        decomps = [(r, s) for r in pos[:index[t]]
                   if (s := tuple(a - b for a, b in zip(t, r))) in index
                   and index[r] < index[s]]
        if not decomps:
            continue
        r0, s0 = decomps[0]  # extraspecial: minimal first member
        n0 = string_below(r0, s0) + 1
        npos[r0, s0], npos[s0, r0] = n0, -n0
        for r, s in decomps[1:]:
            d1 = tuple(a - b for a, b in zip(r0, r))
            d2 = tuple(a - b for a, b in zip(s0, r))
            term = Fraction(0)
            if rs.is_root(d1):
                term += Fraction(nany(r0, _neg(r)) * nany(s0, _neg(s)), len2[d1])
            if rs.is_root(d2):
                term += Fraction(nany(_neg(r), s0) * nany(r0, _neg(s)), len2[d2])
            val = -len2[t] * term / n0
            if val.denominator != 1 or val == 0:
                raise AssertionError(f"N{r, s} = {val} for root {t} is not a nonzero integer")
            n = int(val)
            if abs(n) != string_below(r, s) + 1:
                raise AssertionError(f"|N{r, s}| = {abs(n)} is not p + 1 for root {t}")
            npos[r, s], npos[s, r] = n, -n
    return npos


def basis_bracket(rs):
    """The bracket of two basis labels, as a function of the labels that
    returns {label: coefficient} with no zero coefficient.  r + s is a
    tuple sum tested with `rs.is_root`, N comes from
    `positive_structure_constants` by its N rule, and the pairings
    <s, alpha_i^vee> = 2 (s, alpha_i) / (alpha_i, alpha_i) and the coroot
    coordinates r_i (alpha_i, alpha_i) / (r, r) are read in Fractions from
    `RootSystem.inner`, not from the root system's int tables."""
    npos, len2 = positive_structure_constants(rs), _len2(rs)
    simple = rs.simple_roots

    def pairing(s, i):
        v = 2 * rs.inner(s, simple[i]) / rs.inner(simple[i], simple[i])
        if v.denominator != 1:
            raise AssertionError(f"<{s}, alpha_{i + 1}^vee> = {v} is not an integer")
        return int(v)

    def bracket(a, b):
        if a[0] == "H":
            if b[0] == "H":
                return {}
            c = pairing(b, a[1])
            return {b: c} if c else {}
        if b[0] == "H":
            c = pairing(a, b[1])
            return {a: -c} if c else {}
        t = tuple(x + y for x, y in zip(a, b))
        if not any(t):
            out = {}
            for i, (ri, alpha) in enumerate(zip(a, simple)):
                c = ri * rs.inner(alpha, alpha) / rs.inner(a, a)
                if c.denominator != 1:
                    raise AssertionError(f"coroot coordinate {c} of {a} is not "
                                         "an integer")
                if c:
                    out["H", i] = int(c)
            return out
        if rs.is_root(t):
            return {t: _n_rule(npos, len2, a, b)}
        return {}

    return bracket


def _len2(rs):
    """The integer numerator (r, r) * denom of every root r."""
    len2 = {}
    for r in rs.positive_roots:
        len2[r] = len2[_neg(r)] = int(rs.inner(r, r) * rs._denom)
    return len2


def _n_rule(npos, len2, a, b):
    """N(a, b) for roots a, b with a + b a root (Carter, Thm 4.1.2), from
    the positive constants `npos` and the squared-length numerators."""
    ha, hb = sum(a), sum(b)
    c = tuple(-x - y for x, y in zip(a, b))
    if (ha > 0) == (hb > 0):
        x, y, z = a, b, c
    elif (hb > 0) == (ha + hb < 0):
        x, y, z = b, c, a
    else:
        x, y, z = c, a, b
    n = npos[x, y] if sum(x) > 0 else -npos[_neg(x), _neg(y)]
    lc, lz = len2[c], len2[z]
    if lc == lz:
        return n
    n, rem = divmod(n * lc, lz)
    if rem:
        raise AssertionError(f"N{a, b} = {Fraction(n * lz + rem, lz)} "
                             "is not an integer")
    return n


def _neg(r):
    return tuple(-c for c in r)
