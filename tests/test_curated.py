import pytest

from nilorb import curated
from nilorb.curated import (
    ExceptionalOrbitRecord,
    SharedOrbitRecord,
    load_exceptional_table,
    load_shared_table,
    parse_orbit_spec,
    parse_type_spec,
    serialize_exceptional_table,
    serialize_shared_table,
    validate_tables,
)
from nilorb.rootsys import CartanType


def test_type_spec_parsing():
    fam, fn, generic = parse_type_spec("A2")
    assert (fam, fn(99), generic) == ("A", 2, False)
    fam, fn, generic = parse_type_spec("D(l+1)")
    assert (fam, fn(3), generic) == ("D", 4, True)
    fam, fn, generic = parse_type_spec("A(2l-1)")
    assert (fam, fn(3), generic) == ("A", 5, True)
    fam, fn, generic = parse_type_spec("Bl")
    assert (fam, fn(4), generic) == ("B", 4, True)
    with pytest.raises(ValueError):
        parse_type_spec("Zq")


def test_orbit_spec_parsing():
    assert parse_orbit_spec("3,1*") == ((3,), 1)
    assert parse_orbit_spec("2,2,2,2,1") == ((2, 2, 2, 2, 1), None)
    assert parse_orbit_spec("short") == "short"
    assert parse_orbit_spec("sub") == "sub"


def test_nine_rows_load():
    shared, exceptional = load_shared_table(), load_exceptional_table()
    assert len(shared) == 9
    assert len(exceptional) == 3
    pairs = [(r.g, r.g_prime) for r in shared]
    assert ("A2", "G2") in pairs
    assert ("G2", "D4") in pairs
    assert ("G2", "B3") in pairs


def test_specific_rows():
    shared = load_shared_table()
    by_pair = {(r.g, r.g_prime): r for r in shared}
    assert by_pair[("A2", "G2")].orbit == "3"
    assert by_pair[("A2", "G2")].degree == 3
    assert by_pair[("G2", "D4")].orbit == "sub"
    assert by_pair[("G2", "D4")].degree == 6
    assert by_pair[("G2", "B3")].orbit == "short"
    assert by_pair[("G2", "B3")].degree == 1


def test_generic_row_instantiation():
    rec = SharedOrbitRecord("Bl", "D(l+1)", "3,1*", 2)
    t, t2, orbit = rec.instantiate(3)
    assert t == CartanType("B", 3)
    assert t2 == CartanType("D", 4)
    assert orbit.partition == (3, 1, 1, 1, 1)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        load_shared_table("bad\theader\trow\there\n")
    with pytest.raises(ValueError, match="line 2"):
        load_shared_table("g\tg_prime\torbit\tdegree\nA2\tG2\t3\tzero\n")
    with pytest.raises(ValueError, match="line 3"):
        load_shared_table(
            "g\tg_prime\torbit\tdegree\nA2\tG2\t3\t3\nA2\tG2\t3\n")
    # rows that parse but name no algebra fail validation at their line
    for g, g_prime, family in (("G2", "Bl", "B"), ("El", "F4", "E")):
        shared = load_shared_table(f"g\tg_prime\torbit\tdegree\n{g}\t{g_prime}\tshort\t1\n")
        rep = validate_tables(shared, load_exceptional_table())
        bad = [f for f in rep.failures() if f.check != "row_count"]
        assert [(f.row, f.check, f.detail) for f in bad] == [
            (f"line 2 ({g},{g_prime})", "orbit_valid", f"invalid rank 0 for family {family}")]


@pytest.mark.parametrize("spec", ["A", "A+1", "B(l", "Bl)", "Al2", "A(l)"])
@pytest.mark.parametrize("column", [0, 1])
def test_malformed_type_spec_rejected_with_line(spec, column):
    cols = ["A2", "G2"]
    cols[column] = spec
    text = "g\tg_prime\torbit\tdegree\nA2\tG2\t3\t3\n" + "\t".join(cols) + "\t3\t3\n"
    with pytest.raises(ValueError, match="line 3: bad type spec"):
        load_shared_table(text)


def test_generic_type_a_row_is_validated():
    rec = SharedOrbitRecord("Al", "A(l+1)", "2,1*", 1, line=2)
    rep = validate_tables([rec], load_exceptional_table())
    pi1 = {r.row for r in rep.results if r.check == "pi1_vs_degree"}
    assert pi1 == {f"line 2 (Al,A(l+1)) l={l}" for l in range(1, 6)}
    dims = [r for r in rep.results if r.check == "dim_vs_grading"
            and r.row.startswith("line 2")]
    assert len(dims) == 4 and all(r.ok for r in dims)


def test_exceptional_record_validation():
    with pytest.raises(ValueError):
        ExceptionalOrbitRecord("A2", "short", (1, 0), 8, 1, False, "x")
    with pytest.raises(ValueError):
        ExceptionalOrbitRecord("G2", "short", (3, 0), 8, 1, False, "x")
    with pytest.raises(ValueError):
        ExceptionalOrbitRecord("G2", "short", (1, 0), 7, 1, False, "x")


def test_round_trip():
    shared, exceptional = load_shared_table(), load_exceptional_table()
    assert serialize_shared_table(shared) == curated._data_text("table62.tsv")
    again = load_shared_table(serialize_shared_table(shared))
    assert [(r.g, r.g_prime, r.orbit, r.degree) for r in again] == [
        (r.g, r.g_prime, r.orbit, r.degree) for r in shared
    ]
    assert load_exceptional_table(
        serialize_exceptional_table(exceptional)) == exceptional


def test_validation_passes():
    rep = validate_tables()
    assert rep.ok, rep.summary()
    assert len(rep.results) >= 30


def test_validation_catches_bad_degree():
    shared, exceptional = load_shared_table(), load_exceptional_table()
    bad = [
        SharedOrbitRecord(r.g, r.g_prime, r.orbit, 7, line=r.line)
        if r.g == "A2" else r
        for r in shared
    ]
    rep = validate_tables(bad, exceptional)
    assert not rep.ok
    assert any("pi1_vs_degree" == f.check for f in rep.failures())
    # passed alone, the table is validated against the packaged other one
    assert validate_tables(bad).summary() == rep.summary()


def test_validation_catches_bad_diagram():
    shared, exceptional = load_shared_table(), load_exceptional_table()
    bad = [
        ExceptionalOrbitRecord(r.type, r.name, (2, 0), r.dimension,
                               r.pi1_order, r.closure_normal, r.citation)
        if (r.type, r.name) == ("G2", "short") else r
        for r in exceptional
    ]
    rep = validate_tables(shared, bad)
    assert not rep.ok
    assert validate_tables(exceptional=bad).summary() == rep.summary()


def test_pi1_matches_degree_for_all_classical_rows():
    from nilorb import partitions
    shared = load_shared_table()
    for rec in shared:
        if not rec.is_classical():
            continue
        ls = [3] if rec.is_generic() else [0]
        for l in ls:
            _, _, orbit = rec.instantiate(l)
            assert partitions.pi1_order(orbit) == rec.degree
