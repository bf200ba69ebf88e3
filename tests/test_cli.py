import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nilorb import cli, linalg
from nilorb.rootsys import CartanType, build_root_system
from oracles import basis_bracket


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roots_command(capsys):
    code, out, _ = run(capsys, "roots", "G2")
    assert code == 0
    assert "rank 2" in out
    assert "positive roots: 6" in out


def test_algebra_command(capsys):
    code, out, _ = run(capsys, "algebra", "F4", "--orbit-dim-min")
    assert code == 0
    assert "dim 52" in out
    assert "projective 15" in out


# each build runs the coroot-integrality and highest-root gates, the
# root-key width guard and the |N| = p + 1 gate; A8-D8 have the widest root
# keys of the classical types
@pytest.mark.parametrize("name,line", [
    ("E8", "roots 240  positive-pair constants 2240"),
    ("A2", "roots 6  positive-pair constants 2"),
    ("G2", "roots 12  positive-pair constants 10"),
    ("F4", "roots 48  positive-pair constants 136"),
    ("E6", "roots 72  positive-pair constants 240"),
    ("E7", "roots 126  positive-pair constants 672"),
    ("A8", "roots 72  positive-pair constants 168"),
    ("B8", "roots 128  positive-pair constants 560"),
    ("C8", "roots 128  positive-pair constants 560"),
    ("D8", "roots 112  positive-pair constants 448")])
def test_algebra_command_reports_the_build(capsys, name, line):
    code, out, _ = run(capsys, "algebra", name)
    assert code == 0
    assert out.splitlines()[1].startswith(line + "  nonzero basis brackets ")


def _pairing(cartan, r, i):
    """<r, alpha_i^vee> = sum_j r_j <alpha_j, alpha_i^vee>."""
    return sum(rj * row[i] for rj, row in zip(r, cartan))


def _nonzero_brackets(rs, name):
    """The ordered basis pairs with a nonzero bracket, counted without the
    algebra.  On a simply-laced type, each root r has 2h - 4 roots s with
    r + s a root (see `test_positive_pair_count_of_simply_laced_types`),
    [X_r, X_-r] = H_r, [X_r, H_i] and [H_i, X_r] are nonzero exactly when
    <r, alpha_i^vee> is, and [H_i, H_j] = 0.  G2 and F4 are counted with
    the Fraction oracle, one call per basis pair."""
    roots = rs.all_roots
    if name[0] in "ADE":
        h = len(roots) // rs.rank
        pairings = sum(1 for r in roots for i in range(rs.rank)
                       if _pairing(rs.cartan_matrix, r, i))
        return len(roots) * (2 * h - 4) + len(roots) + 2 * pairings
    bracket = basis_bracket(rs)
    labels = list(roots) + [("H", i) for i in range(rs.rank)]
    return sum(1 for a in labels for b in labels if bracket(a, b))


@pytest.mark.parametrize("name", ["A2", "A8", "D8", "E6", "E7", "E8", "G2", "F4"])
def test_algebra_command_counts_the_nonzero_basis_brackets(capsys, name):
    code, out, _ = run(capsys, "algebra", name)
    assert code == 0
    want = _nonzero_brackets(build_root_system(name), name)
    assert out.splitlines()[1].endswith(f"  nonzero basis brackets {want}")


def test_orbit_list(capsys):
    code, out, _ = run(capsys, "orbit", "list", "--type", "C2")
    assert code == 0
    assert out.count("dim") == 4


def test_orbit_info(capsys):
    code, out, _ = run(capsys, "orbit", "info", "--type", "C3",
                       "--partition", "2,2,2")
    assert code == 0
    assert "dimension 12" in out
    assert "pi1 order 2" in out


def test_orbit_info_requires_partition(capsys):
    code, _, err = run(capsys, "orbit", "info", "--type", "C3")
    assert code == 2
    assert "partition" in err


def test_check_requires_type_and_diagram(capsys):
    for argv in (("check", "pairing"), ("check", "pairing", "--type", "G2"),
                 ("check", "key-lemma", "--diagram", "0,1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err == f"check {argv[1]} requires --type and --diagram\n"


def test_orbit_invalid_partition_exit_2(capsys):
    code, _, err = run(capsys, "orbit", "info", "--type", "C3",
                       "--partition", "3,2,1")
    assert code == 2
    assert "error" in err


def test_orbit_info_very_even_needs_a_label(capsys):
    code, out, err = run(capsys, "orbit", "info", "--type", "D4",
                         "--partition", "2,2,2,2")
    assert code == 2 and not out
    assert "--very-even" in err
    for label, diagram in (("I", "(0, 0, 0, 2)"), ("II", "(0, 0, 2, 0)")):
        code, out, _ = run(capsys, "orbit", "info", "--type", "D4",
                           "--partition", "2,2,2,2", "--very-even", label)
        assert code == 0
        assert f"weighted diagram {diagram}" in out


def test_check_pairing_pass_and_fail(capsys):
    code, out, _ = run(capsys, "check", "pairing", "--type", "G2",
                       "--diagram", "0,1")
    assert code == 0 and "holds" in out
    code, out, _ = run(capsys, "check", "pairing", "--type", "G2",
                       "--diagram", "0,2")
    assert code == 1 and "fails" in out and "witness" in out
    code, out, _ = run(capsys, "check", "pairing", "--type", "G2",
                       "--diagram", "2,0")
    assert code == 0 and out.splitlines() == ["pairing criterion: holds"]


def test_check_exclusion(capsys):
    for name, diagram, status in (("F4", "1,1,0,0", "excluded"),
                                  ("E6", "1,1,1,1,1,1", "excluded"),
                                  ("F4", "0,0,0,1", "not_excluded"),
                                  ("E7", "2,0,0,0,0,0,0", "degree_two_case")):
        code, out, _ = run(capsys, "check", "exclusion", "--type", name,
                           "--diagram", diagram)
        assert code == 0 and out.startswith(f"exclusion: {status} "), name
    code, _, err = run(capsys, "check", "exclusion", "--type", "B3",
                       "--diagram", "0,1,0")
    assert code == 2


def test_malformed_labels_are_usage_errors(capsys):
    for argv in (("check", "pairing", "--type", "G2", "--diagram", "1,,0"),
                 ("orbit", "info", "--type", "C3", "--partition", "2,x")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out
        assert err == (f"error: expected comma-separated integers, "
                       f"got {argv[-1]!r}\n")


def test_check_table(capsys, tmp_path):
    code, out, _ = run(capsys, "check", "table")
    assert code == 0 and "54/54" in out
    bad = tmp_path / "bad.tsv"
    bad.write_text("g\tg_prime\torbit\tdegree\nA2\tG2\t3\t7\n"
                   "G2\tBl\tshort\t1\nEl\tF4\tshort\t2\n")
    code, out, _ = run(capsys, "check", "table", "--file", str(bad))
    assert code == 1
    assert "FAIL line 2 (A2,G2)" in out
    assert "FAIL line 3 (G2,Bl): orbit_valid" in out
    assert "FAIL line 4 (El,F4): orbit_valid" in out


def test_check_table_missing_file_is_usage_error(capsys, tmp_path):
    missing = tmp_path / "missing.tsv"
    code, _, err = run(capsys, "check", "table", "--file", str(missing))
    assert code == 2
    assert err.startswith("error: cannot read") and "Traceback" not in err


def test_check_key_lemma(capsys):
    for name, diagram in (("G2", "0,1"), ("F4", "0,0,0,1")):
        code, out, _ = run(capsys, "check", "key-lemma", "--type", name,
                           "--diagram", diagram)
        assert code == 0
        lines = out.splitlines()
        assert "centralizer contained in n-perp: True" in lines
        assert "extended-2-form kernel dim: 0" in lines
    # G2 (2,0) fails the dimension test: dim g_4 = 1 < dim g_6 = 2
    code, out, err = run(capsys, "check", "key-lemma", "--type", "G2",
                         "--diagram", "2,0")
    assert code == 2 and not out
    assert "no sl2-triple" in err


def test_model_demo(capsys):
    code, out, _ = run(capsys, "model", "sp", "--n", "2")
    assert code == 0
    assert "jordan type (2, 1, 1)" in out
    assert "kostant-kirillov rank 4" in out
    code, out, _ = run(capsys, "model", "sp", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert "jordan type (2, 1, 1, 1, 1)" in lines
    assert "kostant-kirillov rank 6" in lines


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify-paper", "--only", "nonsense")
    assert code == 2
    assert "unknown suite" in err


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify-paper", "--only", "g2-classification")
    assert code == 0
    assert out.count("[PASS]") == 4


def test_verify_table_alias(capsys):
    code, out, _ = run(capsys, "verify-paper", "--only", "table62")
    assert code == 0
    assert "shared-orbit-table" in out


def test_verify_json_stable(capsys):
    code, out1, _ = run(capsys, "verify-paper", "--only", "closure-order",
                        "--json", "--seed", "5")
    assert code == 0
    code, out2, _ = run(capsys, "verify-paper", "--only", "closure-order",
                        "--json", "--seed", "5")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["ok"] is True
    assert all(r["status"] == "pass" for r in payload["reports"])


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_one_parser_serves_every_main_call(capsys):
    """`main` parses with one parser per process, and a call keeps no
    option of the call before it: after an `orbit info` with a partition,
    one without still lacks it, and other subcommands run in between."""
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run(capsys, "orbit", "info", "--type", "C3",
                       "--partition", "2,2,2")
    assert code == 0 and "dimension 12" in out
    code, out, _ = run(capsys, "roots", "G2")
    assert code == 0 and "positive roots: 6" in out
    code, out, _ = run(capsys, "verify-paper", "--only", "g2-classification")
    assert code == 0 and out.count("[PASS]") == 4
    code, _, err = run(capsys, "orbit", "info", "--type", "C3")
    assert code == 2 and "partition" in err


@pytest.mark.parametrize("argv", [("verify-paper", "--jobs", "2"),
                                  ("algebra", "G2", "--dim"),
                                  ("model", "sp", "--demo"),
                                  ("check", "pairing", "--type", "G2",
                                   "--diagram", "2,0", "--seed", "1")])
def test_removed_flags_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2


def test_verify_suite_exception_becomes_error_report(capsys, monkeypatch):
    def broken(seed):
        raise ValueError("suite crashed")

    suites = [s for s in cli.SUITES if s[0] in ("closure-order", "g2-classification")]
    suites.insert(1, ("broken", (), broken))
    monkeypatch.setattr(cli, "SUITES", suites)
    code, out, _ = run(capsys, "verify-paper", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    errors = [r for r in payload["reports"] if r["status"] == "error"]
    assert [(r["name"], r["detail"]) for r in errors] == [
        ("broken", "ValueError: suite crashed")]
    assert errors[0]["witness"]["traceback"][-1] == "ValueError: suite crashed"
    refs = {r["ref"] for r in payload["reports"] if r["status"] == "pass"}
    assert refs == {"closure-order", "g2-classification"}


# the nilpotency verdict of `linalg._forward_tests`, the sparse entry that
# `nilpotency_report` calls, forced to False makes the nilpotent fixtures
# disagree, forced to True the semisimple ones: the suite fails and names
# them, each with its element and its three verdicts; it does not crash
@pytest.mark.parametrize("forced,kind", [(False, "nilpotent"), (True, "semisimple")])
def test_verify_nilpotency_disagreement_is_a_fail(capsys, monkeypatch, forced, kind):
    forward_tests = linalg._forward_tests

    def forced_tests(a, b, f):
        solvable, spanned, _ = forward_tests(a, b, f)
        return solvable, spanned, forced

    monkeypatch.setattr(linalg, "_forward_tests", forced_tests)
    code, out, _ = run(capsys, "verify-paper", "--only",
                       "nilpotency-equivalences", "--json")
    assert code == 1
    [report] = json.loads(out)["reports"]
    assert (report["ref"], report["status"]) == ("nilpotency-equivalences", "fail")
    found = report["witness"]["disagreements"]
    assert found and all(d.startswith(f"('{kind}', CartanType(") for d in found)
    # each entry names the type, the draw index, the element and the verdicts
    verdicts = (f"NilpotencyReport(bracket_eigen_solvable={not forced}, "
                f"centralizer_orthogonal={not forced}, ad_nilpotent={forced})")
    label = r"-?\d+\*H\d" if forced else r"-?\d+\*X\(\d+(, \d+)*,?\)"
    entry = re.compile(rf"\('{kind}', (CartanType\(.*?\)), (\d+), "
                       rf"'({label}( \+ {label})*)', {re.escape(verdicts)}\)")
    types = [repr(CartanType.parse(t)) for t in cli._NILP_TYPES]
    matches = [entry.fullmatch(d) for d in found]
    assert all(matches), found
    assert [(m[1], int(m[2])) for m in matches] == [
        (types[i % len(types)], i) for i in range(50)]
    # the text report prints the witness of the failing check
    code, out, _ = run(capsys, "verify-paper", "--only", "nilpotency-equivalences")
    lines = out.splitlines()
    assert code == 1 and lines[-1] == "0/1 checks passed"
    assert lines[0].startswith("[FAIL] nilpotency-equivalences/nilpotency-three-criteria ")
    assert lines[1] == f"       witness: {report['witness']}"


def test_verify_runtimes_are_per_check(monkeypatch):
    def two_checks(seed):
        time.sleep(0.05)
        first = cli._report("slow", True)
        return [first, cli._report("fast", True)]

    monkeypatch.setattr(cli, "SUITES", [("two-checks", (), two_checks)])
    slow, fast = cli.run_suites()
    assert slow.runtime > fast.runtime


def test_sp_model_passes_under_optimize_flag():
    """The sp-model checks decide by explicit raises, which -O keeps."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-O", "-m", "nilorb", "verify-paper", "--only", "sp-model"],
        env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "6/6 checks passed" in out.stdout


def _readme_cli_lines():
    """The `nilorb ...` command lines of the README's CLI block, without
    their comments; the synopsis line `verify-paper [...]` is left out."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    return [line[1:] for line in lines
            if line[:1] == ["nilorb"] and not any("[" in w for w in line)]


@pytest.mark.parametrize("argv", _readme_cli_lines(), ids=" ".join)
def test_readme_cli_lines_run(capsys, argv):
    # 0 or 1 is a verdict; 2 (or an argparse exit) means the README shows a
    # command or flag the CLI no longer accepts
    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code
    err = capsys.readouterr().err
    assert code in (0, 1), err


def test_readme_cli_block_found():
    assert len(_readme_cli_lines()) == 9
