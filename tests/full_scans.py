"""Full diagram scans of E7 and E8: the orbit counts of the exact scan.

    python tests/full_scans.py

For every nonzero weighted diagram of E7 and E8 (3^7 - 1 and 3^8 - 1 of
them) the script builds the grading and, when g_2 is not zero, asks
`generic_degree_two` for an element that completes to an sl2-triple with
the grading's H (de Graaf's scan).  It exits 1 unless:

- the kept diagrams number 44 for E7 and 69 for E8, the nonzero nilpotent
  orbits (Collingwood & McGovern, ch. 8);
- every rejection is exact (`NoTripleError.exact`);
- every kept triple (N0, H, N1) satisfies [H, N0] = 2 N0, [H, N1] = -2 N1
  and [N1, N0] = H, re-checked with `bracket`.

It needs only the standard library, reads the library from `src`, and is
not part of the tier-1 suite (`testpaths` collects `test_*.py` files only).
"""

import itertools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nilorb import dynkin  # noqa: E402
from nilorb.chevalley import build_algebra  # noqa: E402

ORBITS = {"E7": 44, "E8": 69}


def scan(name):
    """(kept diagrams, problems) of the full scan of one type."""
    alg = build_algebra(name)
    kept, problems = [], []
    for labels in itertools.product((0, 1, 2), repeat=alg.rank):
        if not any(labels):
            continue
        grading = dynkin.Grading(alg, dynkin.WeightedDiagram(alg.rs.cartan_type, labels))
        if not grading.piece(2):
            continue
        try:
            n0 = dynkin.generic_degree_two(alg, grading)
        except dynkin.NoTripleError as e:
            if not e.exact:
                problems.append(f"{name} {labels}: rejected without a certificate")
            continue
        kept.append(labels)
        h, n1 = grading.H, dynkin.sl2_complete(alg, grading, n0).n1
        if not (alg.bracket(h, n0) == n0.scale(2) and alg.bracket(h, n1) == n1.scale(-2)
                and alg.bracket(n1, n0) == h):
            problems.append(f"{name} {labels}: the sl2 relations fail")
    return kept, problems


def main():
    failed = False
    for name, want in ORBITS.items():
        start = time.perf_counter()
        kept, problems = scan(name)
        print(f"{name}: {len(kept)} diagrams kept, {want} orbits, "
              f"{time.perf_counter() - start:.2f} s")
        for p in problems:
            print(p)
        failed |= bool(problems) or len(kept) != want
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
