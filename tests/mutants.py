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
TC = "tests/test_chevalley.py::"

MUTANTS = [
    # the zero-sum key branch never taken: [X_r, X_-r] reads 0, not H_r
    (CHEVALLEY,
     "        if not kt:\n",
     "        if False:\n",
     [TC + "test_sl2_relations",
      TC + "test_every_basis_bracket_matches_the_oracle[A2]"]),
    # the key-to-root map built over the positive roots only: a sum of
    # negative roots brackets to 0
    (CHEVALLEY,
     "self._key_roots = dict(zip(keys, rs.all_roots))",
     "self._key_roots = dict(zip(pos_keys, self._pos))",
     [TC + "test_every_basis_bracket_matches_the_oracle[A2]"]),
    # the zero-pairing fix reverted: [H_i, X_s] with <s, alpha_i^vee> = 0
    # is reported as the component {s: 0}, in both orders
    (CHEVALLEY,
     "            return {k2: c} if c else {}\n",
     "            return {k2: c}\n",
     [TC + "test_ad_matrix_of_a_zero_pairing_is_zero",
      TC + "test_ad_entries_are_nonzero[G2]"]),
    (CHEVALLEY,
     "            return {k1: -c} if c else {}\n",
     "            return {k1: -c}\n",
     [TC + "test_ad_entries_are_nonzero[G2]"]),
    # one extraspecial sign of `_npos` flipped, that of the first root of
    # height 2: a Chevalley basis still, but not the one of the sign
    # convention, so only the oracles see it
    (CHEVALLEY,
     "            n0 = below(kr0, ks0) + 1\n",
     "            n0 = (below(kr0, ks0) + 1) * (-1 if j == rs.rank else 1)\n",
     [TC + "test_structure_constants_match_the_fraction_oracle[G2]",
      TC + "test_every_basis_bracket_matches_the_oracle[G2]"]),
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
