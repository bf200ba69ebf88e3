"""Mutation checks: each mutant of the library must fail a named test.

    python tests/mutants.py

Each entry of `MUTANTS` is (file, old text, new text, the pytest node ids
that must fail).  The script copies the repository, without `.git`, to a
temporary directory.  It first runs every named node on the unmutated copy,
which must pass.  Then, for each entry, it replaces the old text, which
must occur exactly once in the file, runs `python -m pytest -x -q` on the
named nodes with `src` on PYTHONPATH, and restores the file.  A mutant is
killed when pytest reports a failed test (exit status 1); any other status,
a pass included, lets it survive.  The script exits 1 if a mutant survives,
if an old text is missing or repeated, or if the unmutated copy fails.

It needs only the standard library and pytest, and is not part of the
tier-1 suite (`testpaths` collects `test_*.py` files only).
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHEVALLEY = "src/nilorb/chevalley.py"
CLI = "src/nilorb/cli.py"
DYNKIN = "src/nilorb/dynkin.py"
LINALG = "src/nilorb/linalg.py"
MATMODEL = "src/nilorb/matmodel.py"
PARTITIONS = "src/nilorb/partitions.py"
ROOTSYS = "src/nilorb/rootsys.py"
TC = "tests/test_chevalley.py::"
TD = "tests/test_dynkin.py::"
TL = "tests/test_linalg.py::"
TR = "tests/test_rootsys.py::"

MUTANTS = [
    # the zero-sum key branch of `_fill` never taken: [X_r, X_-r] reads 0,
    # not H_r
    (CHEVALLEY,
     "            if not kt:\n",
     "            if False:\n",
     [TC + "test_sl2_relations",
      TC + "test_every_basis_bracket_matches_the_oracle[A2]"]),
    # one stored root-sum entry of the bracket table flipped, that of
    # [X_alpha_n, X_alpha_(n-1)] (positions 0 and 1 hold the last two
    # simple roots, adjacent in A2, E7 and E8)
    (CHEVALLEY,
     "                    ns[j], ts[j] = nany(kr, ks, kt), t\n",
     "                    ns[j], ts[j] = nany(kr, ks, kt) * (-1 if (i, j) == (0, 1) else 1), t\n",
     [TC + "test_jacobi_identity_from_chevalley_generators[A2]",
      TC + "test_every_basis_bracket_matches_the_oracle[A2]",
      TC + "test_stored_rows_are_compact_and_match_the_row_map"]),
    # the coroot column of the stored table reads 0: [X_r, X_-r] = 0
    (CHEVALLEY,
     "                ns[j], ts[j] = 1, dim\n",
     "                ns[j], ts[j] = 0, dim\n",
     [TC + "test_sl2_relations",
      TC + "test_jacobi_identity_from_chevalley_generators[A2]",
      TC + "test_every_basis_bracket_matches_the_oracle[A2]"]),
    # the key-to-position map built over the positive roots only: a sum of
    # negative roots brackets to 0
    (CHEVALLEY,
     "self._key_pos = {k: j for j, k in enumerate(keys)}",
     "self._key_pos = {k: j for j, k in enumerate(pos_keys)}",
     [TC + "test_every_basis_bracket_matches_the_oracle[A2]"]),
    # `_entries` keeps the stored N = 0 of a zero bracket: a zero pairing
    # <s, alpha_i^vee> is reported as an entry 0
    (CHEVALLEY,
     "            n = ns[c]\n            if not n:\n",
     "            n = ns[c]\n            if False:\n",
     [TC + "test_ad_matrix_of_a_zero_pairing_is_zero",
      TC + "test_ad_entries_are_nonzero[G2]"]),
    # one extraspecial sign of `_npos` flipped, that of the first root of
    # height 2: a Chevalley basis still, but not the one of the sign
    # convention, so only the oracles see it
    (CHEVALLEY,
     "            n0 = below(kr0, ks0) + 1\n",
     "            n0 = (below(kr0, ks0) + 1) * (-1 if j == rs.rank else 1)\n",
     [TC + "test_structure_constants_match_the_fraction_oracle[G2]",
      TC + "test_every_basis_bracket_matches_the_oracle[G2]"]),
    # `_nany` reads N(-x, -y) as N(x, y): the build's mixed-sign terms
    # break Carter's step, and the |N| = p + 1 gate raises on C3
    (CHEVALLEY,
     "else -self._npos[-x, -y]",
     "else self._npos[-x, -y]",
     [TC + "test_structure_constants_match_the_fraction_oracle[C3]"]),
    # the unchecked constructor of computed results keeps zero coefficients
    (CHEVALLEY,
     "        x.coeffs = {k: v for k, v in coeffs.items() if v}\n",
     "        x.coeffs = dict(coeffs)\n",
     [TC + "test_computed_results_store_no_zero_coefficient"]),
    # `pairing_criterion` skips the first root of degree 2: G2 (0,2) and
    # (2,2) get another witness
    (DYNKIN,
     "    for lbl in grading.piece(2):\n",
     "    for lbl in grading.piece(2)[1:]:\n",
     [TD + "test_pairing_criterion_tests_every_degree_two_root"]),
    # the E-type exclusion threshold s - m >= 2 raised by one: fewer E6
    # diagrams are excluded
    (DYNKIN,
     "    if s - m >= 2:\n",
     "    if s - m >= 3:\n",
     [TD + "test_e_type_exclusion_verdicts"]),
    # the dimension test skips its last k, so G2 (2,0), where only
    # dim g_4 < dim g_6 rules out a triple, reaches the attempts
    (DYNKIN,
     "all(map(ge, dims, dims[2:]))",
     "all(map(ge, dims, dims[2:-1]))",
     [TD + "test_fake_g2_diagram_rejected_exactly"]),
    # g_-k read from the positive roots: piece(-k) repeats piece(k)
    (DYNKIN,
     "out += [labels[n + p] for p in at]",
     "out += [labels[p] for p in at]",
     [TD + "test_grading_matches_its_definitions[G2]",
      TD + "test_grading_degrees_from_the_step_table[G2]"]),
    # g_0 without the rank H labels
    (DYNKIN,
     "                out += labels[2 * n:]\n",
     "                pass\n",
     [TD + "test_grading_degrees_from_the_step_table[G2]"]),
    # dim g_0 counted without the rank H labels
    (DYNKIN,
     "dims[0] = 2 * dims[0] + self.alg.rank",
     "dims[0] = 2 * dims[0]",
     [TD + "test_grading_matches_its_definitions[G2]"]),
    # the sl2 solution not divided by d: N1 is d times too large wherever
    # H has a denominator d > 1 (B3, C3, D4, A4; not G2 or F4)
    (DYNKIN,
     "Fraction(D, grading.alg.rs.inverse_cartan_numerators[0])",
     "Fraction(D)",
     [TD + "test_sl2_complete_restricted_solve_matches_full_rows[B3]"]),
    # the ninth attempt vector j^2 + 1 replaced by the eighth: E8
    # (1,0,0,1,0,1,1,0) is no longer completed
    (DYNKIN,
     "    yield [j * j + 1 for j in range(n)]\n",
     "    yield [(-1) ** j * (j + 1) ** 7 for j in range(n)]\n",
     [TD + "test_e8_diagram_found_by_the_ninth_vector"]),
    # the orbit of a short root vector read from the first short root, not
    # from the highest short root
    (DYNKIN,
     "rs.short_positive_roots()[-1]",
     "rs.short_positive_roots()[0]",
     [TD + "test_root_vector_diagram_matches_reflection_walk[G2]"]),
    # the key lemma tests the blocks of degree k <= -3 only
    (DYNKIN,
     "for k in range(1 - len(grading.dims), -1))",
     "for k in range(1 - len(grading.dims), -2))",
     [TD + "test_key_lemma_procedures_match_full_algebra_oracles[G2]"]),
    # the key lemma skips the block of the lowest degree -top
    (DYNKIN,
     "for k in range(1 - len(grading.dims), -1))",
     "for k in range(2 - len(grading.dims), -1))",
     [TD + "test_key_lemma_procedures_match_full_algebra_oracles[G2]"]),
    # `forward_tests` calls every A x = b solvable, ignoring the column of b
    (LINALG,
     "    return solvable, not g, _rounds(a, parts)\n",
     "    return True, not g, _rounds(a, parts)\n",
     [TL + "test_forward_tests_match_the_rref_route",
      TD + "test_nilpotency_report_polarity",
      TD + "test_nilpotency_report_against_independent_oracles[B3]"]),
    # the reduction of f skips the last pivot row: some f in the row space
    # is left nonzero (on the Killing rows of the dynkin fixtures that row
    # never decides, so only the linalg test sees it)
    (LINALG,
     "    for row in parts:\n",
     "    for row in parts[:-1]:\n",
     [TL + "test_forward_tests_match_the_rref_route"]),
    # the rounds start from the rows of [A | b] with the column of b kept
    (LINALG,
     "_rounds(a, parts)\n",
     "_rounds(a, rest)\n",
     [TL + "test_forward_tests_match_the_rref_route",
      TD + "test_nilpotency_report_polarity",
      TD + "test_nilpotency_report_against_independent_oracles[B3]"]),
    # an inconsistent solve reports the rank of [A | b], not of A: where
    # ker ad(N0) on g_-2 is a line, a failure at one N0 reads as exact
    (LINALG,
     "        return None, len(rest)\n",
     "        return None, len(basis)\n",
     [TL + "test_solve_with_rank_agrees_with_solve_and_rank",
      TD + "test_sl2_complete_on_non_generic_n0_is_not_exact"]),
    # back-substitution skips the last pivot row, so its column stays in
    # the rows above it
    (LINALG,
     "    for k in reversed(range(len(m))):\n",
     "    for k in reversed(range(len(m) - 1)):\n",
     [TL + "test_rref_matches_naive_gauss_jordan",
      TL + "test_solve_with_rank_agrees_with_solve_and_rank"]),
    # each kernel vector with its pivot entries negated: A v != 0
    (LINALG,
     "v[pc] = Fraction(-row.get(fc, 0), row[pc])",
     "v[pc] = Fraction(row.get(fc, 0), row[pc])",
     [TL + "test_rank_and_kernel",
      TD + "test_nilpotency_report_against_independent_oracles[B3]"]),
    # a step adds the label of the wrong simple root: deg t reads l_(i-1)
    (DYNKIN,
     "pos.append(pos[p] + labels[i])",
     "pos.append(pos[p] + labels[i - 1])",
     [TD + "test_grading_degrees_from_the_step_table[G2]",
      TD + "test_grading_matches_its_definitions[G2]"]),
    # the step table records the next simple root, not the one the closure
    # added
    (ROOTSYS,
     "below[t] = r, j\n",
     "below[t] = r, (j + 1) % n\n",
     [TR + "test_step_table[G2]",
      TD + "test_grading_degrees_from_the_step_table[G2]"]),
    # `ad_entries` skips a component outside the destination rows, such
    # as an H_r of [X_r, X_-r] outside g_0, instead of raising
    (CHEVALLEY,
     "                if i is None:\n                    raise ValueError(",
     "                if i is None:\n                    continue\n                    raise ValueError(",
     [TD + "test_ad_restricted_rejects_image_outside_destination"]),
    # a unit-pivot clear forgets to subtract b * row: the row keeps the
    # pivot's column
    (LINALG,
     "    new = other.copy() if unit else {cc: a * v for cc, v in other.items()}\n",
     "    if unit:\n        return other.copy()\n"
     "    new = {cc: a * v for cc, v in other.items()}\n",
     [TL + "test_rank_and_kernel",
      TL + "test_sparse_rank_matches_dense"]),
    # the form scaled by the shortest simple root: the long roots of a
    # doubly laced type get squared length 4
    (ROOTSYS,
     "scale = 2 / max(",
     "scale = 2 / min(",
     [TR + "test_long_roots_have_squared_length_two"]),
    # every column of the inverse Cartan matrix solved for e_0: the rows
    # hold the first fundamental coweight n times, and the C rows = d I
    # gate raises
    (ROOTSYS,
     "[int(i == k) for i in range(n)]",
     "[int(i == 0) for i in range(n)]",
     [TD + "test_inverse_cartan_matrix[G2]"]),
    # the A-D chain built as e_i + e_(i+1): the off-diagonal Cartan
    # entries turn positive, the closure finds only the simple roots, and
    # the highest-root gate raises
    (ROOTSYS,
     "vecs = [{i: 1, i + 1: -1} for i in range(n)]",
     "vecs = [{i: 1, i + 1: 1} for i in range(n)]",
     [TR + "test_root_counts[A3-12]", TR + "test_root_counts[B3-18]"]),
    # the nilpotency suite no longer asks the nilpotent fixtures for
    # ad-nilpotency, so a library whose power test is wrong passes it
    (CLI,
     "                and rep.ad_nilpotent):\n",
     "                ):\n",
     ["tests/test_cli.py::test_verify_nilpotency_disagreement_is_a_fail"
      "[False-nilpotent]"]),
    # `fiber` returns [w, w] in place of the sign pair
    (MATMODEL,
     "    return [w, tuple(-x for x in w)]\n",
     "    return [w, w]\n",
     ["tests/test_matmodel.py::test_fiber_is_sign_pair"]),
    # `pi1_order` returns 2^(a+1) for distinct odd parts in B/D
    (PARTITIONS,
     "    return 2 ** a\n",
     "    return 2 ** (a + 1)\n",
     ["tests/test_partitions.py::test_pi1_orders"]),
]


def run_pytest(copy, nodes):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(copy / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *nodes],
        cwd=copy, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def main():
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache"))
        nodes = sorted({n for *_, ns in MUTANTS for n in ns})
        status = run_pytest(copy, nodes)
        if status:
            print(f"unmutated copy: the named tests exit {status}")
            return 1
        for path, old, new, nodes in MUTANTS:
            target = copy / path
            text = target.read_text()
            found = text.count(old)
            if found != 1:
                print(f"STALE {path}: {old.strip()!r} occurs {found} times")
                failures += 1
                continue
            target.write_text(text.replace(old, new))
            try:
                status = run_pytest(copy, nodes)
            finally:
                target.write_text(text)
            verdict = "killed" if status == 1 else f"SURVIVED (exit {status})"
            print(f"{verdict}: {path}: {old.strip()!r} -> {new.strip()!r}")
            failures += status != 1
    print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
