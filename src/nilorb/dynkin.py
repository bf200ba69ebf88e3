"""Gradings by a Cartan element, sl2-triples, and the orbit-level
decision procedures (centralizer location, extended-form kernel,
pairing criterion, type-by-type exclusion tests).

Each procedure takes the one object that names its algebra: a grading
(`pairing_criterion`, `centralizer_in_n_perp`, `omega_kernel_dim`), an
element (`nilpotency_report`), a root system
(`diagram_of_root_vector_orbit`) or a weighted diagram (the exclusion
tests, which read only root data and build no algebra);
`generic_degree_two` and `sl2_complete` also take `alg`.
"""

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import mul

from . import linalg
# build_algebra is unused here, but perfbench's tracer test reads dynkin.build_algebra
from .chevalley import LieElement, build_algebra, combine
from .rootsys import CartanType, build_root_system


class NoTripleError(Exception):
    """Raised when a degree-2 element cannot be completed to an sl2-triple
    with the grading's defining Cartan element.

    `exact` is True when the error is a proof about the diagram: no
    element of g_2 completes with H, because the graded dimensions rule
    it out or because one N0 certifies it (see `sl2_complete`).  It is
    False when only the given N0, or only every N0 that
    `generic_degree_two` tried, fails to complete."""

    def __init__(self, message, exact=True):
        super().__init__(message)
        self.exact = exact


class WeightedDiagram(namedtuple("WeightedDiagram", "cartan_type labels")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        labels = self.labels
        if type(labels) is not tuple or any(type(v) is not int for v in labels):
            raise TypeError(f"labels must be a tuple of ints: {labels!r}")
        if len(labels) != self.cartan_type.rank:
            raise ValueError("label count does not match rank")
        if not all(v in (0, 1, 2) for v in labels):
            raise ValueError(f"labels must lie in {{0,1,2}}: {labels}")
        return self


Sl2Triple = namedtuple("Sl2Triple", "n0 h n1")   # LieElements


class Grading:
    """Eigenspace decomposition of the algebra under a Cartan element H
    with alpha_i(H) equal to the diagram labels."""

    def __init__(self, alg, diagram):
        if diagram.cartan_type != alg.rs.cartan_type:
            raise ValueError("diagram type does not match algebra")
        self.alg = alg
        self.diagram = diagram
        rs = alg.rs
        # deg r = sum_i r_i l_i, added one simple-root column at a time
        pos = [0] * len(rs.positive_roots)
        for v, col in zip(diagram.labels, zip(*rs.positive_roots)):
            if v:
                pos = [p + v * x for p, x in zip(pos, col)]
        # basis_labels: the positive roots, their negatives, then ('H', i)
        self.degree = dict(zip(alg.basis_labels,
                               chain(pos, [-v for v in pos], [0] * rs.rank)))
        # each piece lists its labels in basis order
        self.pieces = {}
        for lbl, d in self.degree.items():
            self.pieces.setdefault(d, []).append(lbl)

    @cached_property
    def H(self):
        """sum_j x_j H_j with alpha_i(H) = sum_j C[i][j] x_j = labels_i."""
        denom, inverse = self.alg.rs.inverse_cartan_numerators
        labels = self.diagram.labels
        return self.alg.cartan_element(
            [Fraction(sum(map(mul, row, labels)), denom) for row in inverse])

    def piece(self, i):
        return self.pieces.get(i, [])

    @cached_property
    def sl2_block(self):
        """ad(e_k) on g_-2 -> g_0 for every degree-2 label k, as integer
        entries (see `ChevalleyAlgebra.ad_entries`); built once per
        grading."""
        return self.alg.ad_entries(self.piece(2), self.piece(-2), self.piece(0))


def weight_multiplicities_nonnegative(grading):
    """True iff dim g_k >= dim g_{k+2} for every k >= 0.

    This holds for every grading defined by a triple (N0, H, N1): g is a
    finite-dimensional sl2-module on which H has eigenvalue k on g_k, so
    ad(N0) maps g_k onto g_{k+2} for k >= -1 (Collingwood & McGovern,
    ch. 3).  When it fails, no degree-2 element completes."""
    top = max(grading.pieces)
    return all(len(grading.piece(k)) >= len(grading.piece(k + 2))
               for k in range(top - 1))


def _require_grading_algebra(alg, grading):
    """Raise ValueError unless `alg` is the grading's algebra."""
    if alg is not grading.alg:
        raise ValueError(f"alg ({alg.rs.cartan_type}) is not the grading's "
                         f"algebra ({grading.alg.rs.cartan_type})")


def _require_degree_two(grading, n):
    """Raise ValueError unless N belongs to the grading's algebra and every
    label of N has degree 2."""
    if n.alg is not grading.alg:
        raise ValueError("N belongs to a different algebra than the grading")
    if not all(grading.degree[lbl] == 2 for lbl in n.coeffs):
        raise ValueError("N must be homogeneous of degree 2")


def sl2_complete(alg, grading, n0):
    """Complete a nonzero degree-2 element to a triple (N0, H, N1) with
    [H,N0]=2N0, [H,N1]=-2N1, [N1,N0]=H; raises NoTripleError when the
    linear system has no solution.

    [N1, N0] = H is solved as ad(N0) N1 = -H on the map g_-2 -> g_0, the
    only rows where either side can be nonzero.  `alg` must be the
    grading's algebra (ValueError otherwise).  The matrix is combined
    from the grading's `sl2_block`, and the triple is returned as solved,
    without re-checking it with `bracket`.  Its three relations hold:

    - [H, N0] = 2 N0: every label of N0 has degree 2 (checked on entry).
      [H_j, X_r] = <r, alpha_j^vee> X_r, so with H = sum_j x_j H_j,
      [H, X_r] = sum_i r_i (C x)_i X_r, and C x = labels, so this is
      `degree[r]` X_r.  C x = labels holds because
      `RootSystem.inverse_cartan_numerators` raises unless
      C rows = d I, once per type.
    - [H, N1] = -2 N1: the same argument, since N1 is built on the
      `piece(-2)` labels.
    - [N1, N0] = H: `sl2_block` is `ad_entries(piece(2), piece(-2),
      piece(0))`, which raises ValueError for any component outside g_0,
      so the exact solve of ad(N0) N1 = -H on the g_0 rows gives
      [N0, N1] = -H in every coordinate.  The basis-pair brackets are
      antisymmetric (proved for 20 types by
      `test_jacobi_identity_from_chevalley_generators`), so [N1, N0] = H.

    The same forward pass gives the rank of ad(N0) on g_-2.  With no
    solution and rank dim g_-2, the columns of ad(N0) and H are
    independent, and the error is exact: no element of g_2 completes.  If
    some e did, G_0.e would be open and dense in g_2 (Kostant 1959;
    Collingwood & McGovern ch. 3-4), so H would lie in the image of ad(N)
    for N in a dense open set, which meets the open set where the columns
    and H are independent.  With a lower rank only this N0 fails.

    g_-2 is never empty here: the entry checks make N0 nonzero with every
    label of degree 2, so `piece(2)` is not empty, and `piece(-2)` holds
    the negatives of its roots."""
    _require_grading_algebra(alg, grading)
    if n0.is_zero():
        raise ValueError("N0 must be nonzero")
    _require_degree_two(grading, n0)
    neg = grading.piece(-2)
    g0 = grading.piece(0)
    rows = combine(grading.sl2_block, n0.coeffs, len(g0), len(neg))
    sol, rank = linalg.solve_with_rank(
        rows, [-grading.H.coeffs.get(lbl, 0) for lbl in g0])
    if sol is None:
        if rank < len(neg):
            raise NoTripleError("[N1, N0] = H has no solution in degree -2 at "
                                "this N0 (not exact)", exact=False)
        raise NoTripleError("[N1, N0] = H has no solution in degree -2, and "
                            "ad(N0) is injective there (exact)")
    n1 = LieElement._computed(grading.alg, dict(zip(neg, sol)))
    return Sl2Triple(n0, grading.H, n1)


def _attempt_coeffs(n):
    """The coefficient vectors `generic_degree_two` tries on n basis
    elements: (-1)^j (j+1)^attempt for attempts 0..7, then j^2 + 1."""
    for attempt in range(8):
        yield [(-1) ** j * (j + 1) ** attempt for j in range(n)]
    yield [j * j + 1 for j in range(n)]


def generic_degree_two(alg, grading):
    """Deterministic generic element of the degree-2 piece that completes
    to an sl2-triple: the first vector of `_attempt_coeffs` that does.
    `alg` must be the grading's algebra (ValueError otherwise).

    Raises NoTripleError with `exact` True when the diagram has no
    triple: the graded dimensions rule one out
    (`weight_multiplicities_nonnegative`), or one attempt certifies it
    (`sl2_complete`), which ends the attempts.  Raises it with `exact`
    False when every vector fails without a certificate; no such diagram
    is known."""
    _require_grading_algebra(alg, grading)
    g2 = grading.piece(2)
    if not g2:
        raise ValueError("degree-2 piece is zero")
    if not weight_multiplicities_nonnegative(grading):
        raise NoTripleError(
            "no sl2-triple: some dim g_k < dim g_(k+2) with k >= 0 (exact)")
    for coeffs in _attempt_coeffs(len(g2)):
        n0 = LieElement._computed(grading.alg, dict(zip(g2, coeffs)))
        try:
            sl2_complete(alg, grading, n0)
            return n0
        except NoTripleError as e:
            if e.exact:
                raise
    raise NoTripleError(
        "no generic sl2 representative found by the deterministic attempts "
        "(not exact)", exact=False)


# bracket_eigen_solvable: some H solves [H, N] = N;
# centralizer_orthogonal: the Killing form kills (z_N, N)
NilpotencyReport = namedtuple(
    "NilpotencyReport", "bracket_eigen_solvable centralizer_orthogonal ad_nilpotent")


def nilpotency_report(n):
    """Evaluate the three equivalent nilpotency conditions on a nonzero
    element and report each verdict; whether they agree is for the caller
    to judge (the `nilpotency-equivalences` suite of `verify-paper` fails,
    naming the fixture, if they do not).

    All three come from one forward elimination of [A | -N], A = ad(N)
    (`linalg.forward_tests`).  Some H solves [H, N] = N iff A H = -N is
    solvable.  With f_j = K(e_j, N), K(z, N) = f . z, so K(z(N), N) = 0
    iff f lies in (ker A)^perp, which is the row space of A: no
    centralizer vector is formed.  ad(N) is nilpotent iff the last power
    rank of A is 0."""
    if n.is_zero():
        raise ValueError("zero element")
    alg = n.alg
    labels = alg.basis_labels
    ad = alg.ad_matrix(n, labels, labels)
    # [H, N] = N  <=>  ad(N) H = -N
    iv, v, ranks = linalg.forward_tests(
        ad, [-c for c in n.to_vector()], alg.killing_vector(n))
    return NilpotencyReport(iv, v, ranks[-1] == 0)


def centralizer_in_n_perp(grading, n):
    """True iff the centralizer z(N) lies in n_perp = g_>=-1; a necessary
    condition for the orbit-closure normalization to be smooth above N.
    N must be homogeneous of degree 2 (ValueError otherwise).

    N has degree 2, so ad(N) maps each g_k to g_(k+2), and z(N) is graded:
    it is the sum of the kernels of these blocks.  So z(N) lies in n_perp
    iff ad(N): g_k -> g_(k+2) is injective for every k <= -2.  An empty
    g_(k+2) gives rank 0, which is the correct answer.

    If N completes to an sl2-triple with the grading's H, as every
    `generic_degree_two` output does, ad(N) is injective on every g_k with
    k <= -1 (Collingwood & McGovern, ch. 3), so the answer is True by
    theorem and `check key-lemma` is a consistency check."""
    _require_degree_two(grading, n)
    return all(
        linalg.rank(grading.alg.ad_matrix(n, grading.piece(k), grading.piece(k + 2)))
        == len(grading.piece(k)) for k in grading.pieces if k <= -2)


def omega_kernel_dim(grading, n):
    """Kernel dimension of the extended Kostant-Kirillov 2-form at (1, N):
    dim {X in n_perp : [N, X] in n} minus dim p.  N must be homogeneous of
    degree 2 (ValueError otherwise).

    N has degree 2, so for X in n_perp = g_>=-1, [N, X] lies in n = g_>=2,
    except for its g_1 part [N, X_-1].  The solutions are therefore
    p = g_>=0 plus ker(ad N: g_-1 -> g_1), and the value is that kernel's
    dimension.

    If N completes to an sl2-triple with the grading's H, as every
    `generic_degree_two` output does, ad(N) is injective on g_-1
    (Collingwood & McGovern, ch. 3), so the value is 0 by theorem."""
    _require_degree_two(grading, n)
    gm1 = grading.piece(-1)
    return len(gm1) - linalg.rank(grading.alg.ad_matrix(n, gm1, grading.piece(1)))


# status 'holds' | 'fails'; witness (N coeffs, Q coeffs) when it fails
PairingVerdict = namedtuple("PairingVerdict", "status witness", defaults=(None,))


def _bracket_kernel(grading, n_coeffs):
    """Kernel of Q -> [N, Q] on the degree -2 piece, for N of degree 2
    (the map g_-2 -> g_0, combined from the grading's `sl2_block`)."""
    return linalg.kernel_basis(combine(
        grading.sl2_block, n_coeffs, len(grading.piece(0)), len(grading.piece(-2))))


def pairing_criterion(grading):
    """Decide exactly whether [N, Q] != 0 for all nonzero N of degree 2
    and Q of degree -2, by testing the root vectors X_beta of degree 2.

    They suffice.  The set B of N in g_2 with [N, Q] = 0 for some nonzero
    Q in g_-2 is a closed cone (ad(N): g_-2 -> g_0 drops rank there) and
    is stable under G_0, since [gN, gQ] = g[N, Q].  If B is not 0, a
    Borel subgroup of G_0 containing T fixes a line in the projective
    variety P(B) (Borel fixed-point theorem; Humphreys, *Linear Algebraic
    Groups* 21.2), and a T-fixed line in g_2 is a weight line C X_beta,
    because the weights of g_2 are distinct roots.  The first root of
    `piece(2)` whose ad(X_beta) has a kernel on g_-2 gives the witness."""
    gm2 = grading.piece(-2)
    for lbl in grading.piece(2):
        ker = _bracket_kernel(grading, {lbl: 1})
        if ker:
            q = {m: c for m, c in zip(gm2, ker[0]) if c}
            return PairingVerdict("fails", witness=({lbl: 1}, q))
    return PairingVerdict("holds")


# status 'excluded' | 'not_excluded' | 'degree_two_case'; detail a dict
ExclusionVerdict = namedtuple("ExclusionVerdict", "status detail")


def e_type_exclusion(wd):
    """Exclusion test for E-type diagrams built from the sum sigma of the
    simple roots and the three end nodes of the graph.  It reads only the
    root data of `wd`'s type.

    With s = sum of the labels and m the largest end-node label, s - m >= 2
    excludes the diagram with N = X_{sigma - alpha_a} + X_{sigma -
    alpha_b}, for an orthogonal pair a, b of end nodes, and the witness
    X_{-(sigma - alpha_g)}, g the third end node.  No check runs per call,
    because the branch condition implies each fact:

    - deg(sigma - alpha_e) = s - l_e >= s - m >= 2 for every end node e,
      so N lies in n = g_>=2 and the witness has degree <= -2, outside
      n_perp = g_>=-1.
    - [N, witness] = 0: (sigma - alpha_a) - (sigma - alpha_g) = alpha_g -
      alpha_a is neither 0 nor a root (its coordinates have both signs),
      and likewise for b.

    With s = 2, an orthogonal pair a, b of end nodes with labels l_a =
    l_b = 0 gives N of degree 2, because sigma - alpha_a has degree
    s - l_a = 2 - 0."""
    if wd.cartan_type.family != "E":
        raise ValueError("E-type diagrams only")
    labels = wd.labels
    facts = build_root_system(wd.cartan_type).simple_root_sum_facts
    ends = facts["ends"]
    s = sum(labels)
    m = max(labels[e] for e in ends)
    # pick an orthogonal pair among the sigma - end roots; gamma is the rest
    pair = next(p for p, ok in facts["orthogonal_pairs"].items() if ok)
    a, b = pair
    (g,) = [e for e in ends if e not in pair]
    sigma_minus = facts["sigma_minus_end"]
    if s - m >= 2:
        return ExclusionVerdict(
            "excluded",
            {
                "s": s,
                "m": m,
                "centralizing_witness": {tuple(-c for c in sigma_minus[g]): 1},
                "n_element": {sigma_minus[a]: 1, sigma_minus[b]: 1},
            },
        )
    if s == 2 and any(ok and labels[pa] == 0 and labels[pb] == 0
                      for (pa, pb), ok in facts["orthogonal_pairs"].items()):
        return ExclusionVerdict("degree_two_case", {"s": s, "m": m})
    return ExclusionVerdict("not_excluded", {"s": s, "m": m})


F4_ALPHA = (1, 1, 1, 0)
F4_BETA = (1, 2, 2, 2)
F4_GAMMA = (1, 2, 4, 2)


def f4_exclusion(wd):
    """Exclusion test for F4 diagrams via the vanishing bracket of
    N = X_alpha + X_beta with the witness X_{-gamma} for a fixed root
    triple.  It builds no algebra.

    With l1 + l2 + l3 >= 2 no check runs per call, because that condition
    implies each fact:

    - deg alpha = l1 + l2 + l3 >= 2, and beta and gamma dominate alpha
      coordinatewise, so their degrees are at least deg alpha.  So N lies
      in n = g_>=2 and the witness has degree <= -2, outside n_perp.
    - [N, X_{-gamma}] = 0, because alpha - gamma = (0, -1, -3, -2) and
      beta - gamma = (0, 0, -2, 0) are not roots.  `verify-paper`'s
      `f4-bracket-vanishes` check computes this bracket on every run."""
    if str(wd.cartan_type) != "F4":
        raise ValueError("F4 diagrams only")
    l1, l2, l3, l4 = wd.labels
    if l1 + l2 + l3 < 2:
        return ExclusionVerdict("not_excluded", {"l1+l2+l3": l1 + l2 + l3})
    return ExclusionVerdict(
        "excluded",
        {
            "l1+l2+l3": l1 + l2 + l3,
            "centralizing_witness": {tuple(-c for c in F4_GAMMA): 1},
            "n_element": {F4_ALPHA: 1, F4_BETA: 1},
        },
    )


def diagram_of_root_vector_orbit(rs, r):
    """Weighted diagram of the orbit of the root vector X_r: the labels
    C x, with x the coroot of the dominant root `top` of r's length.

    (X_r, r^vee, X_-r) is an sl2-triple, so the diagram is read from the
    dominant Weyl conjugate of r^vee, which is the coroot of the dominant
    conjugate of r.  The Weyl group acts transitively on the roots of each
    length, and the one dominant root of each length is the highest root
    or the highest short root (Humphreys, *Introduction to Lie Algebras
    and Representation Theory*, 10.4 Lemma C and 13.2 Lemma A).  The
    highest short root is the last short positive root, because it
    dominates every short root and the roots are sorted by height.  The
    coroot is integral, so the labels are ints."""
    r = tuple(r)
    if not rs.is_root(r):
        raise ValueError(f"{r} is not a root")
    top = rs.highest_root() if rs.is_long(r) else rs.short_positive_roots()[-1]
    x = rs.coroots[top]
    return WeightedDiagram(rs.cartan_type,
                           tuple(sum(map(mul, row, x)) for row in rs.cartan_matrix))


def minimal_orbit_diagram(alg):
    return diagram_of_root_vector_orbit(alg.rs, alg.rs.highest_root())
