"""Gradings by a Cartan element, sl2-triples, and the orbit-level
decision procedures (centralizer location, extended-form kernel,
pairing criterion, type-by-type exclusion tests).
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import mul

from . import linalg
# build_algebra is unused here, but perfbench's tracer test reads dynkin.build_algebra
from .chevalley import LieElement, build_algebra, combine
from .rootsys import CartanType


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


@dataclass(frozen=True)
class WeightedDiagram:
    cartan_type: CartanType
    labels: tuple

    def __post_init__(self):
        if len(self.labels) != self.cartan_type.rank:
            raise ValueError("label count does not match rank")
        if not all(v in (0, 1, 2) for v in self.labels):
            raise ValueError(f"labels must lie in {{0,1,2}}: {self.labels}")


@dataclass(frozen=True)
class Sl2Triple:
    n0: LieElement
    h: LieElement
    n1: LieElement


class Grading:
    """Eigenspace decomposition of the algebra under a Cartan element H
    with alpha_i(H) equal to the diagram labels."""

    def __init__(self, alg, diagram):
        if diagram.cartan_type != alg.rs.cartan_type:
            raise ValueError("diagram type does not match algebra")
        self.alg = alg
        self.diagram = diagram
        labels = diagram.labels
        rs = alg.rs
        # H = sum x_j H_j with alpha_i(H) = sum_j C[i][j] x_j = labels_i
        denom, inverse = rs.inverse_cartan_numerators
        self.H = alg.cartan_element(
            [Fraction(sum(map(mul, row, labels)), denom) for row in inverse])
        # basis_labels: the positive roots, their negatives, then ('H', i)
        basis = alg.basis_labels
        npos = len(rs.positive_roots)
        pos = [sum(map(mul, r, labels)) for r in rs.positive_roots]
        self.degree = dict(zip(basis,
                               chain(pos, [-v for v in pos], [0] * rs.rank)))
        # each piece in basis order, from one pass over the positive roots:
        # piece -d holds the negatives of piece d, and piece 0 its positive
        # roots, their negatives, then the H labels
        up, down = {0: []}, {0: []}
        for r, neg, d in zip(basis, basis[npos:], pos):
            if d in up:
                up[d].append(r)
                down[d].append(neg)
            else:
                up[d], down[d] = [r], [neg]
        up[0] += down.pop(0) + basis[2 * npos:]
        for d, lbls in down.items():
            up[-d] = lbls
        self.pieces = up

    def piece(self, i):
        return self.pieces.get(i, [])

    @cached_property
    def sl2_block(self):
        """ad(e_k) on g_-2 -> g_0 for every degree-2 label k, as integer
        entries (see `ChevalleyAlgebra.ad_entries`); built once per
        grading."""
        return self.alg.ad_entries(self.piece(2), self.piece(-2), self.piece(0))

    def labels_with(self, pred):
        return [lbl for lbl, d in self.degree.items() if pred(d)]

    @property
    def p_labels(self):
        return self.labels_with(lambda d: d >= 0)

    @property
    def n_perp_labels(self):
        return self.labels_with(lambda d: d >= -1)

    def in_n(self, x):
        return all(self.degree[lbl] >= 2 for lbl in x.coeffs)

    def in_n_perp(self, x):
        return all(self.degree[lbl] >= -1 for lbl in x.coeffs)


def weight_multiplicities_nonnegative(grading):
    """True iff dim g_k >= dim g_{k+2} for every k >= 0.

    This holds for every grading defined by a triple (N0, H, N1): g is a
    finite-dimensional sl2-module on which H has eigenvalue k on g_k, so
    ad(N0) maps g_k onto g_{k+2} for k >= -1 (Collingwood & McGovern,
    ch. 3).  When it fails, no degree-2 element completes."""
    top = max(grading.pieces)
    return all(len(grading.piece(k)) >= len(grading.piece(k + 2))
               for k in range(top - 1))


def sl2_complete(alg, grading, n0):
    """Complete a nonzero degree-2 element to a triple (N0, H, N1) with
    [H,N0]=2N0, [H,N1]=-2N1, [N1,N0]=H; raises NoTripleError when the
    linear system has no solution.

    [N1, N0] = H is solved as ad(N0) N1 = -H on the map g_-2 -> g_0, the
    only rows where either side can be nonzero.  The matrix is combined
    from the grading's `sl2_block`; the three relations of a solution are
    checked with `bracket`.

    The same reduction gives the kernel of ad(N0) on g_-2.  When there is
    no solution and that kernel is zero, the columns of ad(N0) and H are
    linearly independent, and the error is exact: no element of g_2
    completes.  If some e did, G_0.e would be open and dense in g_2
    (Kostant 1959; Collingwood & McGovern ch. 3-4), so H would lie in the
    image of ad(N) for N in a dense open set, which meets the open set
    where the columns and H are independent.  With a nonzero kernel the
    error is not exact: only this N0 fails."""
    if n0.is_zero():
        raise ValueError("N0 must be nonzero")
    if not all(grading.degree[lbl] == 2 for lbl in n0.coeffs):
        raise ValueError("N0 must be homogeneous of degree 2")
    neg = grading.piece(-2)
    if not neg:
        raise NoTripleError("no degree -2 subspace")
    g0 = grading.piece(0)
    rows = combine(grading.sl2_block, n0.coeffs, len(g0), len(neg))
    sol, kernel = linalg.solve_with_kernel(
        rows, [-grading.H.coeffs.get(lbl, 0) for lbl in g0])
    if sol is None:
        if kernel:
            raise NoTripleError("[N1, N0] = H has no solution in degree -2 at "
                                "this N0 (not exact)", exact=False)
        raise NoTripleError("[N1, N0] = H has no solution in degree -2, and "
                            "ad(N0) is injective there (exact)")
    n1 = LieElement(alg, {lbl: c for lbl, c in zip(neg, sol)})
    h = grading.H
    if alg.bracket(h, n0) != n0.scale(2):
        raise AssertionError("[H, N0] != 2 N0")
    if alg.bracket(h, n1) != n1.scale(-2):
        raise AssertionError("[H, N1] != -2 N1")
    if alg.bracket(n1, n0) != h:
        raise AssertionError("[N1, N0] != H")
    return Sl2Triple(n0, h, n1)


def _attempt_coeffs(n):
    """The coefficient vectors `generic_degree_two` tries on n basis
    elements: (-1)^j (j+1)^attempt for attempts 0..7, then j^2 + 1."""
    for attempt in range(8):
        yield [(-1) ** j * (j + 1) ** attempt for j in range(n)]
    yield [j * j + 1 for j in range(n)]


def generic_degree_two(alg, grading):
    """Deterministic generic element of the degree-2 piece that completes
    to an sl2-triple: the first vector of `_attempt_coeffs` that does.

    Raises NoTripleError with `exact` True when the diagram has no
    triple: the graded dimensions rule one out
    (`weight_multiplicities_nonnegative`), or one attempt certifies it
    (`sl2_complete`), which ends the attempts.  Raises it with `exact`
    False when every vector fails without a certificate; no such diagram
    is known."""
    g2 = grading.piece(2)
    if not g2:
        raise ValueError("degree-2 piece is zero")
    if not weight_multiplicities_nonnegative(grading):
        raise NoTripleError(
            "no sl2-triple: some dim g_k < dim g_(k+2) with k >= 0 (exact)")
    for coeffs in _attempt_coeffs(len(g2)):
        n0 = LieElement(alg, dict(zip(g2, coeffs)))
        try:
            sl2_complete(alg, grading, n0)
            return n0
        except NoTripleError as e:
            if e.exact:
                raise
    raise NoTripleError(
        "no generic sl2 representative found by the deterministic attempts "
        "(not exact)", exact=False)


@dataclass(frozen=True)
class NilpotencyReport:
    bracket_eigen_solvable: bool   # some H solves [H, N] = N
    centralizer_orthogonal: bool   # Killing form kills (z_N, N)
    ad_nilpotent: bool


def nilpotency_report(alg, n):
    """Evaluate the three equivalent nilpotency conditions on a nonzero
    element and raise if the verdicts disagree.

    ad(N) is built once.  One reduction of [ad(N) | -N] decides whether
    some H solves [H, N] = N and gives the centralizer ker ad(N); the
    power test takes powers of the same matrix."""
    if n.is_zero():
        raise ValueError("zero element")
    labels = alg.basis_labels
    ad = alg.ad_matrix(n, labels, labels)
    # [H, N] = N  <=>  ad(N) H = -N
    sol, kernel = linalg.solve_with_kernel(ad, [-v for v in n.to_vector()])
    iv = sol is not None
    v = all(
        alg.killing(alg.element({labels[j]: c for j, c in enumerate(z)}), n) == 0
        for z in kernel
    )
    nil = linalg.is_nilpotent(ad)
    if not iv == v == nil:
        raise AssertionError(
            f"nilpotency criteria disagree: [H, N] = N solvable {iv}, "
            f"K(z_N, N) = 0 {v}, ad-nilpotent {nil}"
        )
    return NilpotencyReport(iv, v, nil)


def centralizer_in_n_perp(alg, grading, n):
    """True iff every centralizer vector of N lies in the span of degrees
    >= -1; a necessary condition for the orbit-closure normalization to be
    smooth above N."""
    if n.is_zero():
        raise ValueError("N must be nonzero")
    if not grading.in_n(n):
        raise ValueError("N must lie in the degree >= 2 part")
    return all(grading.in_n_perp(z) for z in alg.centralizer(n))


def omega_kernel_dim(alg, grading, n):
    """Kernel dimension of the extended Kostant-Kirillov 2-form at (1, N):
    dim {X in n_perp : [N, X] in n} minus dim p."""
    if not n.is_zero() and not grading.in_n(n):
        raise ValueError("N must lie in the degree >= 2 part")
    perp = grading.n_perp_labels
    # [N, X] has degree >= 1; it lies in n unless its degree-1 part is nonzero
    dst = grading.labels_with(lambda d: d >= 1)
    block = alg.ad_matrix(n, perp, dst)
    rows = [row for lbl, row in zip(dst, block) if grading.degree[lbl] == 1]
    sol_dim = len(perp) - linalg.rank(rows)
    result = sol_dim - len(grading.p_labels)
    if result < 0:
        raise AssertionError(
            f"{{X in n_perp : [N, X] in n}} has dim {sol_dim} < dim p = "
            f"{len(grading.p_labels)}")
    return result


@dataclass(frozen=True)
class PairingVerdict:
    status: str                    # 'holds' | 'fails'
    witness: tuple = None          # (N coeffs, Q coeffs) when status == 'fails'


def _bracket_kernel(grading, n_coeffs):
    """Kernel of Q -> [N, Q] on the degree -2 piece, for N of degree 2
    (the map g_-2 -> g_0, combined from the grading's `sl2_block`)."""
    return linalg.kernel_basis(combine(
        grading.sl2_block, n_coeffs, len(grading.piece(0)), len(grading.piece(-2))))


def pairing_criterion(alg, grading):
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


@dataclass(frozen=True)
class ExclusionVerdict:
    status: str          # 'excluded' | 'not_excluded' | 'degree_two_case'
    detail: dict = field(default_factory=dict)


def _check_exclusion_witness(alg, grading, n, witness):
    """Raise unless N lies in n and the witness centralizes N outside n_perp."""
    if not alg.bracket(n, witness).is_zero():
        raise AssertionError(f"[N, witness] != 0 for N = {n!r}, witness {witness!r}")
    if not grading.in_n(n):
        raise AssertionError(f"N = {n!r} does not lie in n")
    if grading.in_n_perp(witness):
        raise AssertionError(f"witness {witness!r} lies in n_perp")


def e_type_exclusion(alg, wd):
    """Exclusion test for E-type diagrams built from the sum of the simple
    roots and the three end nodes of the graph."""
    rs = alg.rs
    if rs.cartan_type.family != "E":
        raise ValueError("E-type algebras only")
    if wd.cartan_type != rs.cartan_type:
        raise ValueError("diagram type mismatch")
    grading = Grading(alg, wd)
    labels = wd.labels
    facts = rs.simple_root_sum_facts()
    ends = facts["ends"]
    s = sum(labels)
    m = max(labels[e] for e in ends)
    # pick an orthogonal pair among the sigma - end roots; gamma is the rest
    pair = next(p for p, ok in facts["orthogonal_pairs"].items() if ok)
    a, b = pair
    (g,) = [e for e in ends if e not in pair]
    sma = facts["sigma_minus_end"][a]
    smb = facts["sigma_minus_end"][b]
    gamma_minus_sigma = tuple(-c for c in facts["sigma_minus_end"][g])
    if s - m >= 2:
        n = alg.root_vector(sma) + alg.root_vector(smb)
        witness = alg.root_vector(gamma_minus_sigma)
        _check_exclusion_witness(alg, grading, n, witness)
        return ExclusionVerdict(
            "excluded",
            {
                "s": s,
                "m": m,
                "centralizing_witness": dict(witness.coeffs),
                "n_element": dict(n.coeffs),
            },
        )
    if s == 2:
        for (pa, pb), ok in facts["orthogonal_pairs"].items():
            if ok and labels[pa] == 0 and labels[pb] == 0:
                n = alg.root_vector(facts["sigma_minus_end"][pa]) + alg.root_vector(
                    facts["sigma_minus_end"][pb]
                )
                if not all(grading.degree[lbl] == 2 for lbl in n.coeffs):
                    raise AssertionError(f"{n!r} is not homogeneous of degree 2")
                return ExclusionVerdict("degree_two_case", {"s": s, "m": m})
    return ExclusionVerdict("not_excluded", {"s": s, "m": m})


F4_ALPHA = (1, 1, 1, 0)
F4_BETA = (1, 2, 2, 2)
F4_GAMMA = (1, 2, 4, 2)


def f4_exclusion(alg, wd):
    """Exclusion test for F4 diagrams via the vanishing bracket of
    X_alpha + X_beta with X_{-gamma} for a fixed root triple."""
    rs = alg.rs
    if str(rs.cartan_type) != "F4":
        raise ValueError("F4 algebras only")
    if wd.cartan_type != rs.cartan_type:
        raise ValueError("diagram type mismatch")
    l1, l2, l3, l4 = wd.labels
    if l1 + l2 + l3 < 2:
        return ExclusionVerdict("not_excluded", {"l1+l2+l3": l1 + l2 + l3})
    grading = Grading(alg, wd)
    n = alg.root_vector(F4_ALPHA) + alg.root_vector(F4_BETA)
    witness = alg.root_vector(tuple(-c for c in F4_GAMMA))
    _check_exclusion_witness(alg, grading, n, witness)
    return ExclusionVerdict(
        "excluded",
        {
            "l1+l2+l3": l1 + l2 + l3,
            "centralizing_witness": dict(witness.coeffs),
            "n_element": dict(n.coeffs),
        },
    )


def diagram_of_root_vector_orbit(alg, r):
    """Weighted diagram of the orbit of the root vector X_r: conjugate the
    coroot of r into the dominant chamber by simple reflections and read
    off the simple-root values."""
    rs = alg.rs
    r = tuple(r)
    if not rs.is_root(r):
        raise ValueError(f"{r} is not a root")
    C = rs.cartan_matrix
    n = rs.rank
    x = list(rs.coroot(r))  # H in the simple-coroot basis

    def labels(xv):
        return [sum(xv[j] * C[i][j] for j in range(n)) for i in range(n)]

    lab = labels(x)
    guard = 0
    while any(v < 0 for v in lab):
        i = next(i for i, v in enumerate(lab) if v < 0)
        x[i] -= lab[i]
        lab = labels(x)
        guard += 1
        if guard >= 10_000:
            raise AssertionError(f"no dominant coroot for {r} after {guard} reflections")
    # the coroot is integral, so the labels are ints
    return WeightedDiagram(rs.cartan_type, tuple(lab))


def minimal_orbit_diagram(alg):
    return diagram_of_root_vector_orbit(alg, alg.rs.highest_root())
