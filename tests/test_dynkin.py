import functools
import itertools
import random
from fractions import Fraction

import pytest

from nilorb import curated, dynkin, linalg, partitions
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
from oracles import is_ad_nilpotent

F = Fraction


def _wd(name, labels):
    return WeightedDiagram(CartanType.parse(name), tuple(labels))


def test_diagram_validation():
    with pytest.raises(ValueError):
        _wd("G2", (3, 0))
    with pytest.raises(ValueError):
        _wd("G2", (1, 0, 0))


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
    long_wd = diagram_of_root_vector_orbit(alg, alg.rs.highest_root())
    short = alg.rs.short_positive_roots()[0]
    short_wd = diagram_of_root_vector_orbit(alg, short)
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
    rep = nilpotency_report(alg, x)
    assert rep.bracket_eigen_solvable and rep.centralizer_orthogonal
    assert rep.ad_nilpotent
    h = alg.cartan_element([1, 1])
    rep = nilpotency_report(alg, h)
    assert not (rep.bracket_eigen_solvable or rep.centralizer_orthogonal
                or rep.ad_nilpotent)
    mixed = x + alg.cartan_element([1, 0])
    rep = nilpotency_report(alg, mixed)
    assert not rep.ad_nilpotent


def _nilpotency_fixtures(alg, rng):
    rs = alg.rs
    pos = list(rs.positive_roots)
    out = [
        alg.root_vector(rs.highest_root()),
        alg.element({r: F(1) for r in rs.simple_roots}),       # regular
        alg.cartan_element([1, 0, F(-1, 2)]),
        alg.root_vector(pos[0]) + alg.cartan_element([0, 1, 0]),
        alg.root_vector(pos[-1]) + alg.root_vector(tuple(-c for c in pos[-1])),
    ]
    for _ in range(4):
        out.append(alg.element({r: F(rng.randint(1, 3)) for r in rng.sample(pos, 3)}))
    out.append(alg.element({lbl: F(rng.randint(1, 2))
                            for lbl in rng.sample(alg.basis_labels, 5)}))
    return [x for x in out if not x.is_zero()]


@pytest.mark.parametrize("name", ["B3", "C3"])
def test_nilpotency_report_against_independent_oracles(name):
    alg = build_algebra(name)
    verdicts = set()
    for n in _nilpotency_fixtures(alg, random.Random(7)):
        rep = nilpotency_report(alg, n)
        verdicts.add(rep.ad_nilpotent)
        images = [alg.bracket(n, alg.element({lbl: F(1)})).to_vector()
                  for lbl in alg.basis_labels]
        rows = [[images[j][i] for j in range(alg.dim)] for i in range(alg.dim)]
        solvable = linalg.solve(rows, [-c for c in n.to_vector()]) is not None
        assert rep.bracket_eigen_solvable == solvable
        assert rep.centralizer_orthogonal == all(
            alg.killing(z, n) == 0 for z in alg.centralizer(n))
        assert rep.ad_nilpotent == is_ad_nilpotent(alg, n)
    assert verdicts == {True, False}


@functools.cache
def _scan(name):
    """De Graaf's scan: the nonzero diagrams whose generic degree-2 element
    completes to an sl2-triple with the grading element, and the diagrams
    rejected without a proof (`exact` False)."""
    alg = build_algebra(name)
    found, inexact = set(), []
    for labels in itertools.product((0, 1, 2), repeat=alg.rank):
        grading = Grading(alg, _wd(name, labels))
        if not any(labels) or not grading.piece(2):
            continue
        try:
            generic_degree_two(alg, grading)
        except NoTripleError as e:
            if not e.exact:
                inexact.append(labels)
            continue
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
        verdicts[labels] = pairing_criterion(alg, grading)
    assert verdicts[(0, 1)].status == "holds"
    assert verdicts[(1, 0)].status == "holds"
    assert verdicts[(0, 2)].status == "fails"
    assert verdicts[(0, 2)].witness is not None
    assert verdicts[(2, 2)].status == "fails"


def test_pairing_witness_is_genuine():
    alg = build_algebra("G2")
    grading = Grading(alg, _wd("G2", (0, 2)))
    v = pairing_criterion(alg, grading)
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
    assert f4_exclusion(alg, _wd("F4", (1, 1, 0, 0))).status == "excluded"
    assert f4_exclusion(alg, _wd("F4", (0, 0, 0, 1))).status != "excluded"


def test_f4_roots_have_expected_lengths():
    rs = build_algebra("F4").rs
    # alpha short + beta long, orthogonal; gamma long
    assert rs.inner(dynkin.F4_ALPHA, dynkin.F4_BETA) == 0
    assert not rs.is_long(dynkin.F4_ALPHA)
    assert rs.is_long(dynkin.F4_BETA)


def test_e_type_exclusion_verdicts():
    alg = build_algebra("E6")
    v = e_type_exclusion(alg, _wd("E6", (1, 1, 1, 1, 1, 1)))
    assert v.status == "excluded"
    v = e_type_exclusion(alg, minimal_orbit_diagram(alg))
    assert v.status == "not_excluded"
    v = e_type_exclusion(alg, _wd("E6", (0, 0, 1, 0, 1, 0)))
    assert v.status in ("excluded", "degree_two_case")


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
        assert omega_kernel_dim(alg, grading, n) == 0


def test_centralizer_in_n_perp_minimal_orbits():
    for name in ("G2", "C3", "B3"):
        alg = build_algebra(name)
        grading = Grading(alg, minimal_orbit_diagram(alg))
        x = alg.root_vector(alg.rs.highest_root())
        assert dynkin.centralizer_in_n_perp(alg, grading, x)


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
    # (0, 2) is the diagram of the orbit G2(a1); a root vector is not generic
    alg = build_algebra("G2")
    grading = _grading("G2", (0, 2))
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
                         for lbl in grading.labels_with(lambda d: d >= 2)})
        perp = grading.n_perp_labels
        dst = grading.labels_with(lambda d: d >= 1)
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
        v = pairing_criterion(build_algebra(name), _grading(name, labels))
        assert (v.status, v.witness) == (status, witness), (name, labels)


def test_pairing_criterion_tests_every_degree_two_root():
    """On B3 (2,0,0), g_2 = C^5 and ad(X_beta) is injective on g_-2 only
    for its zero weight (1,1,1); the pairing fails also when that root
    comes first in `piece(2)`."""
    alg = build_algebra("B3")
    grading = _grading("B3", (2, 0, 0))
    zero_weight = (1, 1, 1)
    assert not dynkin._bracket_kernel(grading, {zero_weight: 1})
    g2 = grading.pieces[2]
    g2.insert(0, g2.pop(g2.index(zero_weight)))
    v = pairing_criterion(alg, grading)
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
        v = pairing_criterion(alg, grading)
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
    rs = build_algebra(name).rs
    C, inv = rs.cartan_matrix, rs.inverse_cartan_matrix
    n = rs.rank
    assert [[sum(C[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == [[int(i == j) for j in range(n)] for i in range(n)]
    assert rs.inverse_cartan_matrix is inv


@pytest.mark.parametrize("name", ["G2", "B3", "C4", "D5", "F4", "E6", "E7", "E8"])
def test_inverse_cartan_numerators(name):
    rs = build_algebra(name).rs
    d, rows = rs.inverse_cartan_numerators
    assert [[F(v, d) for v in row] for row in rows] == rs.inverse_cartan_matrix
    assert all(type(v) is int for row in rows for v in row)


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
