"""Full diagram scans of E7 and E8: the orbit counts of the exact scan,
and the pairing criterion on the kept diagrams.

    python tests/full_scans.py

For every nonzero weighted diagram of E7 and E8 (3^7 - 1 and 3^8 - 1 of
them) the script builds the grading and, when g_2 is not zero, asks
`generic_degree_two` for an element that completes to an sl2-triple with
the grading's H (de Graaf's scan).  It exits 1 unless:

- the kept diagrams number 44 for E7 and 69 for E8, the nonzero nilpotent
  orbits (Collingwood & McGovern, ch. 8);
- every rejection is exact (`NoTripleError.exact`);
- every kept triple (N0, H, N1) satisfies [H, N0] = 2 N0, [H, N1] = -2 N1
  and [N1, N0] = H, re-checked with `bracket`;
- on every kept diagram, dim g - dim g_0 - dim g_1, read from the
  grading's `dims`, equals `orbit_dimension(N0)`, the rank of ad(N0) over
  all of g, read from `ad_entries` of every basis label;
- the distinguished diagrams, those with dim g_0 = dim g_2 in `dims`,
  number 6 for E7 and 11 for E8 (Collingwood & McGovern, ch. 8);
- among the kept diagrams, `pairing_criterion` holds exactly at
  `minimal_orbit_diagram`.

Each line reports the total time, the scan loop's share (gradings and
`generic_degree_two`, de Graaf's test itself) and the re-checks' share
(the triple solved again and re-checked with `bracket`,
`orbit_dimension` and the pairing criterion); the rest is the algebra's
build.

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
DISTINGUISHED = {"E7": 6, "E8": 11}


def scan(name):
    """(kept diagrams, distinguished kept diagrams, problems, scan loop
    seconds, re-check seconds) of the full scan of one type."""
    alg = build_algebra(name)
    kept, distinguished, problems, holds = [], 0, [], []
    scan_s = check_s = 0.0
    for labels in itertools.product((0, 1, 2), repeat=alg.rank):
        if not any(labels):
            continue
        start = time.perf_counter()
        grading = dynkin.Grading(alg, dynkin.WeightedDiagram(alg.rs.cartan_type, labels))
        n0 = None
        if grading.piece(2):
            try:
                n0 = dynkin.generic_degree_two(alg, grading)
            except dynkin.NoTripleError as e:
                if not e.exact:
                    problems.append(f"{name} {labels}: rejected without a certificate")
        checked = time.perf_counter()
        scan_s += checked - start
        if n0 is None:
            continue
        kept.append(labels)
        h, n1 = grading.H, dynkin.sl2_complete(alg, grading, n0).n1
        if not (alg.bracket(h, n0) == n0.scale(2) and alg.bracket(h, n1) == n1.scale(-2)
                and alg.bracket(n1, n0) == h):
            problems.append(f"{name} {labels}: the sl2 relations fail")
        dims = grading.dims
        if alg.dim - dims[0] - dims[1] != alg.orbit_dimension(n0):
            problems.append(f"{name} {labels}: dim g - dim g_0 - dim g_1 is not "
                            "the orbit dimension of N0")
        distinguished += dims[0] == dims[2]
        if dynkin.pairing_criterion(grading).status == "holds":
            holds.append(labels)
        check_s += time.perf_counter() - checked
    minimal = [dynkin.minimal_orbit_diagram(alg).labels]
    if holds != minimal:
        problems.append(f"{name}: the pairing holds at {holds}, not exactly at "
                        f"the minimal orbit {minimal[0]}")
    return kept, distinguished, problems, scan_s, check_s


def main():
    failed = False
    for name, want in ORBITS.items():
        start = time.perf_counter()
        kept, distinguished, problems, scan_s, check_s = scan(name)
        print(f"{name}: {len(kept)} diagrams kept, {want} orbits, "
              f"{distinguished} distinguished, {DISTINGUISHED[name]} expected, "
              f"{time.perf_counter() - start:.2f} s (scan loop {scan_s:.2f} s, "
              f"re-checks {check_s:.2f} s)")
        for p in problems:
            print(p)
        failed |= (bool(problems) or len(kept) != want
                   or distinguished != DISTINGUISHED[name])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
