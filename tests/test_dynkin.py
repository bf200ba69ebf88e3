import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from nilorb import cli, curated, dynkin, linalg, partitions
from nilorb.chevalley import build_algebra
from nilorb.dynkin import (
    Grading,
    NoTripleError,
    WeightedDiagram,
    diagram_of_root_vector_orbit,
    e_type_exclusion,
    f4_exclusion,
    generic_degree_two,
    minimal_orbit_diagram,
    nilpotency_report,
    omega_kernel_dim,
    pairing_criterion,
    sl2_complete,
)
from nilorb.rootsys import CartanType
import oracles
from oracles import is_ad_nilpotent
from test_chevalley import JACOBI_TYPES

F = Fraction


def _wd(name, labels):
    return WeightedDiagram(CartanType.parse(name), tuple(labels))


def test_diagram_validation():
    with pytest.raises(ValueError):
        _wd("G2", (3, 0))
    with pytest.raises(ValueError):
        _wd("G2", (1, 0, 0))
    with pytest.raises(ValueError, match="diagram type does not match algebra"):
        Grading(build_algebra("A2"), _wd("G2", (1, 0)))
    with pytest.raises(ValueError, match="E-type diagrams only"):
        e_type_exclusion(_wd("F4", (0, 0, 0, 1)))
    with pytest.raises(ValueError, match="F4 diagrams only"):
        f4_exclusion(_wd("E6", (0, 0, 0, 0, 0, 1)))
    with pytest.raises(ValueError, match="is not a root"):
        diagram_of_root_vector_orbit(build_algebra("A2").rs, (1, 2))


def test_diagram_labels_must_be_a_tuple_of_ints():
    # (1.0, 1, 0, 0) used to construct, as 1.0 lies in (0, 1, 2), and
    # f4_exclusion then reported float label sums; a list built a diagram
    # that could not be hashed
    f4, g2 = CartanType("F", 4), CartanType("G", 2)
    for t, labels in ((f4, (1.0, 1, 0, 0)), (f4, (F(1), 1, 0, 0)),
                      (g2, (True, 0)), (g2, [1, 0]),
                      (CartanType("E", 6), (1.0, 1, 1, 1, 1, 1))):
        with pytest.raises(TypeError, match="tuple of ints"):
            WeightedDiagram(t, labels)


def test_grading_pieces_partition_algebra():
    for name, labels in [("G2", (0, 1)), ("C3", (1, 0, 0)), ("F4", (0, 0, 0, 1))]:
        alg = build_algebra(name)
        grading = Grading(alg, _wd(name, labels))
        assert sum(len(v) for v in grading.pieces.values()) == alg.dim
        # each piece lists its labels in basis order
        expected = {}
        for lbl in alg.basis_labels:
            expected.setdefault(grading.degree[lbl], []).append(lbl)
        assert grading.pieces == expected
        # bracket compatibility on every basis pair
        for a in alg.basis_labels:
            for b in alg.basis_labels:
                br = alg.bracket(alg.element({a: F(1)}), alg.element({b: F(1)}))
                da, db = grading.degree[a], grading.degree[b]
                assert all(grading.degree[x] == da + db for x in br.coeffs)


def test_minimal_diagrams():
    expected = {
        "G2": (0, 1),
        "F4": (1, 0, 0, 0),
        "C2": (1, 0),
        "B3": (0, 1, 0),
        "A3": (1, 0, 1),
        "E6": (0, 1, 0, 0, 0, 0),
    }
    for name, labels in expected.items():
        alg = build_algebra(name)
        assert minimal_orbit_diagram(alg).labels == labels


def test_root_vector_orbit_diagrams_g2():
    alg = build_algebra("G2")
    long_wd = diagram_of_root_vector_orbit(alg.rs, alg.rs.highest_root())
    short = alg.rs.short_positive_roots()[0]
    short_wd = diagram_of_root_vector_orbit(alg.rs, short)
    assert long_wd.labels == (0, 1)
    assert short_wd.labels == (1, 0)


def test_sl2_completion_on_g2_orbits():
    alg = build_algebra("G2")
    for labels in [(0, 1), (1, 0), (0, 2), (2, 2)]:
        grading = Grading(alg, _wd("G2", labels))
        n0 = generic_degree_two(alg, grading)
        triple = sl2_complete(alg, grading, n0)
        h = grading.H
        assert alg.bracket(h, triple.n0) == 2 * triple.n0
        assert alg.bracket(h, triple.n1) == (-2) * triple.n1
        assert alg.bracket(triple.n1, triple.n0) == h


def test_no_triple_for_fake_g2_diagram():
    alg = build_algebra("G2")
    grading = Grading(alg, _wd("G2", (2, 0)))
    with pytest.raises(NoTripleError):
        generic_degree_two(alg, grading)


def test_nilpotency_report_polarity():
    alg = build_algebra("B2")
    x = alg.root_vector(alg.rs.highest_root())
    rep = nilpotency_report(x)
    assert rep.bracket_eigen_solvable and rep.centralizer_orthogonal
    assert rep.ad_nilpotent
    h = alg.cartan_element([1, 1])
    rep = nilpotency_report(h)
    assert not (rep.bracket_eigen_solvable or rep.centralizer_orthogonal
                or rep.ad_nilpotent)
    mixed = x + alg.cartan_element([1, 0])
    rep = nilpotency_report(mixed)
    assert not rep.ad_nilpotent


def _nilpotency_fixtures(alg, rng):
    rs = alg.rs
    pos = list(rs.positive_roots)
    out = [
        alg.root_vector(rs.highest_root()),
        alg.element({r: F(1) for r in rs.simple_roots}),       # regular
        alg.cartan_element([1, 0, F(-1, 2)][:rs.rank]),
        alg.root_vector(pos[0]) + alg.cartan_element([0, 1, 0][:rs.rank]),
        alg.root_vector(pos[-1]) + alg.root_vector(tuple(-c for c in pos[-1])),
    ]
    for _ in range(4):
        out.append(alg.element({r: F(rng.randint(1, 3))
                                for r in rng.sample(pos, min(3, len(pos)))}))
    out.append(alg.element({lbl: F(rng.randint(1, 2))
                            for lbl in rng.sample(alg.basis_labels, min(5, alg.dim))}))
    return [x for x in out if not x.is_zero()]


@pytest.mark.parametrize("name", cli._NILP_TYPES)
def test_nilpotency_report_against_independent_oracles(name):
    alg = build_algebra(name)
    verdicts = set()
    for n in _nilpotency_fixtures(alg, random.Random(7)):
        rep = nilpotency_report(n)
        verdicts.add(rep.ad_nilpotent)
        images = [alg.bracket(n, alg.element({lbl: F(1)})).to_vector()
                  for lbl in alg.basis_labels]
        rows = [[images[j][i] for j in range(alg.dim)] for i in range(alg.dim)]
        solvable = linalg.solve(rows, [-c for c in n.to_vector()]) is not None
        assert rep.bracket_eigen_solvable == solvable
        assert rep.centralizer_orthogonal == all(
            alg.killing(z, n) == 0 for z in oracles.centralizer(alg, n))
        assert rep.ad_nilpotent == is_ad_nilpotent(alg, n)
    assert verdicts == {True, False}


@functools.cache
def _scan(name):
    """De Graaf's scan: the nonzero diagrams whose generic degree-2 element
    completes to an sl2-triple with the grading element, and the diagrams
    rejected without a proof (`exact` False).  Every kept triple is checked
    with `bracket`, which `sl2_complete` does not do."""
    alg = build_algebra(name)
    found, inexact = set(), []
    for labels in itertools.product((0, 1, 2), repeat=alg.rank):
        grading = Grading(alg, _wd(name, labels))
        if not any(labels) or not grading.piece(2):
            continue
        try:
            n0 = generic_degree_two(alg, grading)
        except NoTripleError as e:
            if not e.exact:
                inexact.append(labels)
            continue
        t = sl2_complete(alg, grading, n0)
        assert alg.bracket(t.h, t.n0) == t.n0.scale(2), labels
        assert alg.bracket(t.h, t.n1) == t.n1.scale(-2), labels
        assert alg.bracket(t.n1, t.n0) == t.h, labels
        found.add(labels)
    return frozenset(found), tuple(inexact)


def _scan_diagrams(name):
    return _scan(name)[0]


def _partition_diagrams(name):
    poset = partitions.OrbitPoset(name[0], int(name[1:]))
    return {partitions.weighted_diagram(o).labels for o in poset.nonzero_orbits()}


@pytest.mark.parametrize("name,count", [("G2", 4), ("F4", 15)])
def test_diagram_scan_finds_every_exceptional_orbit(name, count):
    # nonzero orbit counts, Collingwood & McGovern ch. 8
    assert len(_scan_diagrams(name)) == count


@pytest.mark.parametrize("name", ["B4", "C4", "D4"])
def test_diagram_scan_matches_partition_diagrams(name):
    assert _scan_diagrams(name) == _partition_diagrams(name)


@pytest.mark.parametrize("name", ["G2", "F4", "E6", "B4", "C4", "D4"])
def test_diagram_scan_rejections_are_exact(name):
    kept, inexact = _scan(name)
    assert inexact == ()
    if name[0] in "BCD":
        assert kept == _partition_diagrams(name)
    else:
        assert len(kept) == {"G2": 4, "F4": 15, "E6": 20}[name]


def test_pairing_criterion_g2():
    alg = build_algebra("G2")
    verdicts = {}
    for labels in [(0, 1), (1, 0), (0, 2), (2, 2)]:
        grading = Grading(alg, _wd("G2", labels))
        verdicts[labels] = pairing_criterion(grading)
    assert verdicts[(0, 1)].status == "holds"
    assert verdicts[(1, 0)].status == "holds"
    assert verdicts[(0, 2)].status == "fails"
    assert verdicts[(0, 2)].witness is not None
    assert verdicts[(2, 2)].status == "fails"


def test_pairing_witness_is_genuine():
    alg = build_algebra("G2")
    grading = Grading(alg, _wd("G2", (0, 2)))
    v = pairing_criterion(grading)
    n_coeffs, q_coeffs = v.witness
    n = alg.element({lbl: F(c) for lbl, c in n_coeffs.items()})
    q = alg.element({lbl: F(c) for lbl, c in q_coeffs.items()})
    assert not n.is_zero() and not q.is_zero()
    assert {grading.degree[lbl] for lbl in n.coeffs} == {2}
    assert {grading.degree[lbl] for lbl in q.coeffs} == {-2}
    assert alg.bracket(n, q).is_zero()


def test_f4_exclusion_bracket_and_verdicts():
    alg = build_algebra("F4")
    a = alg.root_vector(dynkin.F4_ALPHA)
    b = alg.root_vector(dynkin.F4_BETA)
    g = alg.root_vector(tuple(-c for c in dynkin.F4_GAMMA))
    assert alg.bracket(a + b, g).is_zero()
    assert f4_exclusion(_wd("F4", (1, 1, 0, 0))).status == "excluded"
    assert f4_exclusion(_wd("F4", (0, 0, 0, 1))).status != "excluded"


def test_f4_roots_have_expected_lengths():
    rs = build_algebra("F4").rs
    # alpha short + beta long, orthogonal; gamma long
    assert rs.inner(dynkin.F4_ALPHA, dynkin.F4_BETA) == 0
    assert not rs.is_long(dynkin.F4_ALPHA)
    assert rs.is_long(dynkin.F4_BETA)


def test_e_type_exclusion_verdicts():
    alg = build_algebra("E6")
    v = e_type_exclusion(_wd("E6", (1, 1, 1, 1, 1, 1)))
    assert v.status == "excluded"
    v = e_type_exclusion(minimal_orbit_diagram(alg))
    assert v.status == "not_excluded"
    # s = 2 and every end-node label is 0, so s - m = 2 excludes it
    v = e_type_exclusion(_wd("E6", (0, 0, 1, 0, 1, 0)))
    assert (v.status, v.detail["s"], v.detail["m"]) == ("excluded", 2, 0)


def _exclusion(wd):
    return (f4_exclusion if wd.cartan_type.family == "F" else e_type_exclusion)(wd)


@pytest.mark.parametrize("name", ["F4", "E6", "E7", "E8"])
def test_exclusion_witness_centralizes_n(name):
    """[N, witness] = 0 under `bracket`, a fact the exclusion tests
    derive from root data and do not compute."""
    alg = build_algebra(name)
    v = _exclusion(_wd(name, (2,) * alg.rank))
    assert v.status == "excluded"
    n = alg.element(v.detail["n_element"])
    witness = alg.element(v.detail["centralizing_witness"])
    assert alg.bracket(n, witness).is_zero()


@pytest.mark.parametrize("name,excluded", [
    ("F4", 69), ("E6", 692), ("E7", 2143), ("E8", 1),
])
def test_exclusion_puts_n_in_n_and_the_witness_outside_n_perp(name, excluded):
    """On every excluded diagram (E8: only its minimal and regular ones),
    every label of N has degree >= 2 and every label of the witness
    degree <= -2, as the branch conditions imply."""
    alg = build_algebra(name)
    if name == "E8":
        diagrams = [minimal_orbit_diagram(alg).labels, (2,) * alg.rank]
    else:
        diagrams = itertools.product((0, 1, 2), repeat=alg.rank)
    count = 0
    for labels in diagrams:
        wd = _wd(name, labels)
        v = _exclusion(wd)
        if v.status != "excluded":
            continue
        degree = Grading(alg, wd).degree
        assert all(degree[lbl] >= 2 for lbl in v.detail["n_element"]), labels
        assert all(degree[lbl] <= -2 for lbl in v.detail["centralizing_witness"]), labels
        count += 1
    assert count == excluded


def test_e8_displayed_diagram_facts():
    alg = build_algebra("E8")
    rs = alg.rs
    lam = rs.root_from_epsilon([F(1, 2)] * 8)
    mu = rs.root_from_epsilon([0, 0, 0, 0, 0, 0, -1, 1])
    assert rs.is_root(lam) and rs.is_root(mu)
    grading = Grading(alg, _wd("E8", (1, 0, 0, 0, 0, 0, 0, 1)))
    assert grading.degree[lam] == 2
    assert grading.degree[mu] == 2
    assert rs.inner(lam, mu) == 0


def test_omega_kernel_zero_at_generic_points():
    for name, labels in [("G2", (0, 1)), ("G2", (1, 0)), ("C2", (1, 0)),
                         ("B3", (0, 1, 0))]:
        alg = build_algebra(name)
        grading = Grading(alg, _wd(name, labels))
        n = generic_degree_two(alg, grading)
        assert omega_kernel_dim(grading, n) == 0


def test_centralizer_in_n_perp_minimal_orbits():
    for name in ("G2", "C3", "B3"):
        alg = build_algebra(name)
        grading = Grading(alg, minimal_orbit_diagram(alg))
        x = alg.root_vector(alg.rs.highest_root())
        assert dynkin.centralizer_in_n_perp(grading, x)


def _degree_two_elements(alg, grading):
    """Every degree-2 root vector, one two-term element and the generic
    element (when the diagram has one)."""
    g2 = grading.piece(2)
    out = [alg.root_vector(r) for r in g2]
    if len(g2) > 1:
        out.append(alg.element({g2[0]: 1, g2[-1]: -2}))
    try:
        out.append(generic_degree_two(alg, grading))
    except NoTripleError:
        pass
    return out


@pytest.mark.parametrize("name", ["G2", "A3", "B3", "C3", "D4", "F4"])
def test_key_lemma_procedures_match_full_algebra_oracles(name):
    """The graded blocks decide what the full-algebra kernels decide, on
    every diagram with g_2 != 0, with both answers of each procedure."""
    alg = build_algebra(name)
    zin_seen, kernels = set(), set()
    for labels in itertools.product((0, 1, 2), repeat=alg.rank):
        grading = _grading(name, labels)
        if not grading.piece(2):
            continue
        for n in _degree_two_elements(alg, grading):
            zin = dynkin.centralizer_in_n_perp(grading, n)
            k = omega_kernel_dim(grading, n)
            assert zin == oracles.centralizer_in_n_perp(grading, n), (labels, n)
            assert k == oracles.omega_kernel_dim(grading, n), (labels, n)
            zin_seen.add(zin)
            kernels.add(k)
    assert zin_seen == {True, False}
    assert 0 in kernels and len(kernels) > 1


def test_degree_two_procedures_reject_a_degree_three_part():
    alg = build_algebra("G2")
    grading = _grading("G2", (1, 1))
    assert grading.degree[(1, 1)] == 2 and grading.degree[(2, 1)] == 3
    n = alg.root_vector((1, 1)) + alg.root_vector((2, 1))
    for proc in (functools.partial(sl2_complete, alg),
                 dynkin.centralizer_in_n_perp, omega_kernel_dim):
        with pytest.raises(ValueError, match="N must be homogeneous of degree 2"):
            proc(grading, n)


def test_degree_two_procedures_reject_a_zero_degree_two_part():
    grading = _grading("A2", (1, 1))
    zero = grading.alg.element({})
    with pytest.raises(ValueError, match="N0 must be nonzero"):
        sl2_complete(grading.alg, grading, zero)
    with pytest.raises(ValueError, match="zero element"):
        nilpotency_report(zero)
    # A2 (1, 0) has degrees -1, 0 and 1 only
    grading = _grading("A2", (1, 0))
    with pytest.raises(ValueError, match="degree-2 piece is zero"):
        generic_degree_two(grading.alg, grading)


def test_degree_two_procedures_reject_an_element_of_another_algebra():
    # sl2_complete used to raise an exact NoTripleError on G2's X_(0,1)
    grading = _grading("B2", (0, 2))
    n = build_algebra("G2").root_vector((0, 1))
    for proc in (functools.partial(sl2_complete, grading.alg),
                 dynkin.centralizer_in_n_perp, omega_kernel_dim):
        with pytest.raises(ValueError, match="different algebra than the grading"):
            proc(grading, n)


def test_degree_two_procedures_reject_an_alg_other_than_the_gradings():
    # sl2_complete used to return a triple whose N1 lay in G2, and
    # generic_degree_two blamed its own N0 for the mismatch
    grading = _grading("A2", (1, 1))
    n0 = generic_degree_two(grading.alg, grading)
    g2 = build_algebra("G2")
    with pytest.raises(ValueError, match=r"alg \(G2\) is not the grading's algebra \(A2\)"):
        sl2_complete(g2, grading, n0)
    with pytest.raises(ValueError, match=r"alg \(G2\) is not the grading's algebra \(A2\)"):
        generic_degree_two(g2, grading)


@pytest.mark.parametrize("name", JACOBI_TYPES + ["A5"])
def test_root_vector_diagram_matches_reflection_walk(name):
    alg = build_algebra(name)
    for r in alg.rs.all_roots:
        assert diagram_of_root_vector_orbit(alg.rs, r).labels == \
            oracles.dominant_coroot_labels(alg.rs, r), r


def test_round_trip_minimal_diagram_rank_le_4():
    from nilorb import partitions
    for fam, l in [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("B", 4),
                   ("C", 2), ("C", 3), ("C", 4), ("D", 4)]:
        alg = build_algebra(f"{fam}{l}")
        computed = minimal_orbit_diagram(alg)
        curated = partitions.weighted_diagram(partitions.minimal_orbit(fam, l))
        assert computed.labels == curated.labels


def _full_row_n1(alg, grading, n0):
    """N1 from [N1, N0] = H solved on all dim rows of the algebra, or None."""
    neg = [lbl for lbl in alg.basis_labels if grading.degree[lbl] == -2]
    cols = [alg.bracket(alg.element({lbl: 1}), n0).to_vector() for lbl in neg]
    rows = [[col[i] for col in cols] for i in range(alg.dim)]
    sol = linalg.solve(rows, grading.H.to_vector())
    return None if sol is None else alg.element(dict(zip(neg, sol)))


@pytest.mark.parametrize("name", ["G2", "F4"])
def test_sl2_complete_restricted_solve_matches_full_rows(name):
    alg = build_algebra(name)
    kept = 0
    for labels in itertools.product((0, 1, 2), repeat=alg.rank):
        grading = Grading(alg, _wd(name, labels))
        g2 = grading.piece(2)
        if not g2:
            continue
        # the elements generic_degree_two tries, up to the first triple
        for attempt in range(8):
            n0 = alg.element({lbl: (-1) ** j * (j + 1) ** attempt
                              for j, lbl in enumerate(g2)})
            expected = _full_row_n1(alg, grading, n0)
            if expected is None:
                with pytest.raises(NoTripleError):
                    sl2_complete(alg, grading, n0)
            else:
                assert sl2_complete(alg, grading, n0).n1 == expected
                kept += 1
                break
    assert kept == {"G2": 4, "F4": 15}[name]


def test_ad_restricted_rejects_image_outside_destination():
    alg = build_algebra("G2")
    grading = Grading(alg, _wd("G2", (0, 1)))
    n = alg.element({lbl: 1 for lbl in grading.piece(2)})
    rows = alg.ad_matrix(n, grading.piece(-2), grading.piece(0))
    assert len(rows) == len(grading.piece(0))
    assert all(len(row) == len(grading.piece(-2)) for row in rows)
    with pytest.raises(ValueError, match="outside the destination"):
        alg.ad_matrix(n, grading.piece(-2), grading.piece(2))


def _grading(name, labels):
    return Grading(build_algebra(name), _wd(name, labels))


def test_fake_g2_diagram_rejected_exactly():
    # dim g_4 = 1 < dim g_6 = 2 rules out every triple
    grading = _grading("G2", (2, 0))
    assert not dynkin.weight_multiplicities_nonnegative(grading)
    with pytest.raises(NoTripleError, match=r"\(exact\)") as exc:
        generic_degree_two(build_algebra("G2"), grading)
    assert exc.value.exact is True


def test_certified_rejection_is_exact():
    # (1, 1) passes the dimension test; no orbit has this diagram, and the
    # first attempt certifies it
    grading = _grading("G2", (1, 1))
    assert dynkin.weight_multiplicities_nonnegative(grading)
    with pytest.raises(NoTripleError, match=r"\(exact\)") as exc:
        generic_degree_two(build_algebra("G2"), grading)
    assert exc.value.exact is True


def _root_vector_with_kernel(alg, grading):
    """A root vector of g_2 whose ad map g_-2 -> g_0 has a nonzero kernel."""
    for lbl in grading.piece(2):
        rows = alg.ad_matrix(alg.element({lbl: 1}), grading.piece(-2), grading.piece(0))
        if linalg.kernel_basis(rows):
            return lbl
    raise AssertionError("every root vector of g_2 is injective on g_-2")


def test_sl2_complete_on_non_generic_n0_is_not_exact():
    # (0, 2) is the diagram of the orbit G2(a1) and (2, 2) of the regular
    # orbit; a root vector is not generic in either.  In (2, 2) its kernel
    # on g_-2 is a line, so only the rank of ad(N0), not that of
    # [ad(N0) | -H], tells the failure from an exact one
    alg = build_algebra("G2")
    for labels in ((0, 2), (2, 2)):
        grading = _grading("G2", labels)
        generic_degree_two(alg, grading)
        lbl = _root_vector_with_kernel(alg, grading)
        with pytest.raises(NoTripleError, match="not exact") as exc:
            sl2_complete(alg, grading, alg.element({lbl: 1}))
        assert exc.value.exact is False


def test_attempts_without_certificate_are_not_exact(monkeypatch):
    alg = build_algebra("G2")
    grading = _grading("G2", (0, 2))
    g2 = grading.piece(2)
    lbl = _root_vector_with_kernel(alg, grading)
    vector = [int(x == lbl) for x in g2]
    monkeypatch.setattr(dynkin, "_attempt_coeffs", lambda n: iter([vector] * 3))
    with pytest.raises(NoTripleError, match="not exact") as exc:
        generic_degree_two(alg, grading)
    assert exc.value.exact is False


def test_sl2_complete_failure_is_exact():
    alg = build_algebra("G2")
    grading = _grading("G2", (1, 1))
    n0 = alg.element({lbl: 1 for lbl in grading.piece(2)})
    with pytest.raises(NoTripleError) as exc:
        sl2_complete(alg, grading, n0)
    assert exc.value.exact is True


@pytest.mark.parametrize("name", ["B2", "B3", "B4", "B5", "C2", "C3", "C4", "C5",
                                  "D3", "D4", "D5"])
def test_dimension_test_passes_every_partition_diagram(name):
    alg = build_algebra(name)
    orbits = partitions.OrbitPoset(name[0], int(name[1:])).nonzero_orbits()
    assert orbits
    for o in orbits:
        grading = Grading(alg, partitions.weighted_diagram(o))
        assert dynkin.weight_multiplicities_nonnegative(grading), o


def test_dimension_test_passes_every_exceptional_table_diagram():
    records = curated.load_exceptional_table()
    assert records
    for rec in records:
        alg = build_algebra(rec.type)
        grading = Grading(alg, _wd(rec.type, rec.diagram))
        assert dynkin.weight_multiplicities_nonnegative(grading), rec.name
        generic_degree_two(alg, grading)


def test_e8_diagram_found_by_the_ninth_vector():
    # orbit dim 218, missed by all eight vectors (-1)^j (j+1)^attempt
    alg = build_algebra("E8")
    grading = _grading("E8", (1, 0, 0, 1, 0, 1, 1, 0))
    g2 = grading.piece(2)
    for attempt in range(8):
        with pytest.raises(NoTripleError):
            sl2_complete(alg, grading, alg.element(
                {lbl: (-1) ** j * (j + 1) ** attempt for j, lbl in enumerate(g2)}))
    n0 = generic_degree_two(alg, grading)
    assert n0 == alg.element({lbl: j * j + 1 for j, lbl in enumerate(g2)})
    triple = sl2_complete(alg, grading, n0)
    assert alg.bracket(triple.n1, triple.n0) == grading.H
    assert alg.orbit_dimension(n0) == 218


def test_e6_scan_keeps_twenty_diagrams():
    assert len(_scan_diagrams("E6")) == 20


def _ad_by_columns(alg, x, src, dst):
    """ad(x) from span(src) to span(dst), one bracket per column."""
    row_of = {lbl: i for i, lbl in enumerate(dst)}
    rows = [[0] * len(src) for _ in dst]
    for j, lbl in enumerate(src):
        for k, v in alg.bracket(x, alg.element({lbl: 1})).coeffs.items():
            rows[row_of[k]][j] = v
    return rows


@pytest.mark.parametrize("name,diagrams", [
    ("G2", [(0, 1), (1, 0), (2, 2)]),
    ("B3", [(0, 1, 0), (1, 0, 1)]),
    ("C3", [(1, 0, 0), (2, 1, 0)]),
    ("F4", [(1, 0, 0, 0), (0, 1, 0, 1)]),
])
def test_ad_restricted_matches_per_column_brackets(name, diagrams):
    alg = build_algebra(name)
    rng = random.Random(11)
    checked = 0
    for labels in diagrams:
        grading = _grading(name, labels)
        degrees = sorted(grading.pieces)
        for d in (-2, -1, 0, 1, 2, 3):
            support = grading.piece(d)
            if not support:
                continue
            for _ in range(2):
                x = alg.element({
                    lbl: F(rng.randint(-9, 9), rng.randint(1, 5))
                    for lbl in rng.sample(support, min(len(support), 4))})
                if x.is_zero():
                    continue
                for s in degrees:
                    src, dst = grading.piece(s), grading.piece(s + d)
                    if not dst:
                        continue
                    got = alg.ad_matrix(x, src, dst)
                    assert got == _ad_by_columns(alg, x, src, dst)
                    checked += 1
        n = alg.element({lbl: F(rng.randint(1, 9), rng.randint(1, 3))
                         for lbl, d in grading.degree.items() if d >= 2})
        perp = [lbl for lbl, d in grading.degree.items() if d >= -1]
        dst = [lbl for lbl, d in grading.degree.items() if d >= 1]
        assert alg.ad_matrix(n, perp, dst) == _ad_by_columns(alg, n, perp, dst)
    assert checked > 20


def test_pairing_criterion_verdicts_and_witnesses():
    expected = {
        ("G2", (0, 1)): ("holds", None),
        ("G2", (1, 0)): ("holds", None),
        ("G2", (1, 1)): ("holds", None),
        ("G2", (1, 2)): ("holds", None),
        ("G2", (2, 1)): ("holds", None),
        ("G2", (0, 2)): ("fails", ({(0, 1): 1}, {(-2, -1): F(1)})),
        ("G2", (2, 2)): ("fails", ({(0, 1): 1}, {(-1, 0): F(1)})),
        ("G2", (2, 0)): ("holds", None),
        ("B3", (0, 1, 0)): ("holds", None),
        ("C3", (1, 0, 0)): ("holds", None),
    }
    for (name, labels), (status, witness) in expected.items():
        v = pairing_criterion(_grading(name, labels))
        assert (v.status, v.witness) == (status, witness), (name, labels)


def test_pairing_criterion_tests_every_degree_two_root():
    """On B3 (2,0,0), g_2 = C^5 and ad(X_beta) is injective on g_-2 only
    for its zero weight (1,1,1).  The first root (1,0,0) of `piece(2)` is
    the witness, and the pairing fails also when the zero weight comes
    first."""
    alg = build_algebra("B3")
    grading = _grading("B3", (2, 0, 0))
    assert grading.piece(2)[0] == (1, 0, 0)
    assert pairing_criterion(grading).witness == ({(1, 0, 0): 1},
                                                  {(-1, -2, -2): 1})
    zero_weight = (1, 1, 1)
    assert not dynkin._bracket_kernel(grading, {zero_weight: 1})
    g2 = grading.pieces[2]
    g2.insert(0, g2.pop(g2.index(zero_weight)))
    v = pairing_criterion(grading)
    assert v.status == "fails"
    n_coeffs, q_coeffs = v.witness
    assert n_coeffs == {(1, 0, 0): 1}
    assert alg.bracket(alg.element(n_coeffs), alg.element(q_coeffs)).is_zero()


@pytest.mark.parametrize("name", ["G2", "B3", "C3", "F4"])
def test_pairing_criterion_on_every_diagram(name):
    """On every nonzero diagram: g_2 holds root vectors only (the weights
    of g_2 are distinct, as the criterion's proof needs), every `fails`
    witness is a degree-2 root vector N and a nonzero degree -2 Q with
    [N, Q] = 0 under `bracket`, and among the orbits the pairing holds
    exactly on the minimal one, plus G2's short-root orbit (1,0)."""
    alg = build_algebra(name)
    roots = set(alg.rs.all_roots)
    holds = set()
    for labels in itertools.product((0, 1, 2), repeat=alg.rank):
        if not any(labels):
            continue
        grading = Grading(alg, _wd(name, labels))
        assert set(grading.piece(2)) <= roots, labels
        v = pairing_criterion(grading)
        if v.status == "holds":
            assert v.witness is None
            holds.add(labels)
            continue
        assert v.status == "fails"
        n_coeffs, q_coeffs = v.witness
        assert len(n_coeffs) == 1 and list(n_coeffs.values()) == [1]
        assert {grading.degree[lbl] for lbl in n_coeffs} == {2}
        q = alg.element(q_coeffs)
        assert not q.is_zero()
        assert {grading.degree[lbl] for lbl in q_coeffs} == {-2}
        assert alg.bracket(alg.element(n_coeffs), q).is_zero(), labels
    expected = {minimal_orbit_diagram(alg).labels}
    if name == "G2":
        expected.add((1, 0))
    assert holds & _scan_diagrams(name) == expected


@pytest.mark.parametrize("name", ["G2", "B3", "C4", "D5", "F4", "E6", "E7", "E8"])
def test_inverse_cartan_matrix(name):
    """rows / d is the two-sided inverse of C, and d is the least common
    denominator of its entries."""
    rs = build_algebra(name).rs
    C = rs.cartan_matrix
    d, rows = rs.inverse_cartan_numerators
    inv = [[F(v, d) for v in row] for row in rows]
    n = rs.rank
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    assert [[sum(C[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == identity
    assert [[sum(inv[i][k] * C[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == identity
    assert math.gcd(d, *(v for row in rows for v in row)) == 1


@pytest.mark.parametrize("name", JACOBI_TYPES)
def test_inverse_cartan_numerators(name):
    rs = build_algebra(name).rs
    C, numerators = rs.cartan_matrix, rs.inverse_cartan_numerators
    d, rows = numerators
    n = rs.rank
    assert all(type(v) is int for row in rows for v in row)
    assert [[sum(C[i][k] * rows[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == [[d * (i == j) for j in range(n)] for i in range(n)]
    assert rs.inverse_cartan_numerators is numerators


@pytest.mark.parametrize("name,labels", [
    ("G2", (0, 1)), ("B3", (1, 0, 2)), ("F4", (0, 1, 0, 2)), ("E7", (2, 0, 1, 0, 0, 1, 0)),
])
def test_grading_element_and_degrees(name, labels):
    alg = build_algebra(name)
    grading = _grading(name, labels)
    for r, v in zip(alg.rs.simple_roots, labels):
        x = alg.root_vector(r)
        assert alg.bracket(grading.H, x) == x.scale(v)
    for lbl in alg.basis_labels:
        x = alg.element({lbl: 1})
        assert alg.bracket(grading.H, x) == x.scale(grading.degree[lbl])


# the 33 types A1-A8, B2-B8, C2-C8, D3-D8, E6-E8, F4, G2
ALL_TYPES = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
             + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(3, 9)]
             + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("name", ALL_TYPES)
def test_grading_matches_its_definitions(name):
    """degree, pieces and H against their definitions: deg r = r . labels,
    each piece lists its labels in basis order, and alpha_i(H) = l_i,
    read off [H, X_alpha_i] with `bracket`."""
    alg = build_algebra(name)
    rank = alg.rank
    rng = random.Random(name)
    diagrams = [(2,) * rank, minimal_orbit_diagram(alg).labels]
    diagrams += [tuple(rng.choice((0, 1, 2)) for _ in range(rank)) for _ in range(2)]
    for labels in diagrams:
        grading = _grading(name, labels)
        degree = {lbl: 0 if lbl[0] == "H" else sum(c * v for c, v in zip(lbl, labels))
                  for lbl in alg.basis_labels}
        assert grading.degree == degree
        assert list(grading.degree) == alg.basis_labels
        pieces = {d: [lbl for lbl in alg.basis_labels if degree[lbl] == d]
                  for d in set(degree.values())}
        assert grading.pieces == pieces
        for r, v in zip(alg.rs.simple_roots, labels):
            x = alg.root_vector(r)
            assert alg.bracket(grading.H, x) == x.scale(v)
