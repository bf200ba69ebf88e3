"""Command-line interface.

Subcommands expose the computational modules directly (roots, algebra,
orbit, check, model) and `verify-paper` replays the whole battery of
lemma-level checks as a deterministic suite with machine-readable output.

`SUITES` is the only definition of the paper's 11 criteria; the acceptance
tests assert on its verdicts, which `run_suites` labels (`ref`) with the
name of their suite.  Gradings are built with `dynkin.Grading(alg,
wd)` from a weighted diagram, and the graded procedures take the grading
alone.  `check exclusion` passes the diagram alone to the E- and F4-tests,
which read only root data, so it builds no algebra and no grading.
"""

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from itertools import product

from . import chevalley, curated, dynkin, matmodel, partitions
from .rootsys import CartanType, build_root_system


class VerdictReport:
    def __init__(self, name, status, detail="", witness=None):
        self.name = name
        self.ref = None             # the suite's name, set by `run_suites`
        self.status = status        # 'pass' | 'fail' | 'error'
        self.detail = detail
        self.witness = {} if witness is None else witness
        self.runtime = 0.0
        # when the verdict was made; `run_suites` turns it into `runtime`
        self.created = time.monotonic()

    @property
    def ok(self):
        return self.status == "pass"

    def to_json(self):
        # runtime intentionally excluded: JSON output is byte-stable
        return {
            "name": self.name,
            "ref": self.ref,
            "status": self.status,
            "detail": self.detail,
            "witness": self.witness,
        }


def _report(name, ok, detail="", witness=None):
    return VerdictReport(name, "pass" if ok else "fail", detail, witness)


# ---------------------------------------------------------------- suites

EXCEPTIONAL_PROJ_DIMS = {"G2": 5, "F4": 15, "E6": 21, "E7": 33, "E8": 57}


def suite_exceptional_dimensions(seed):
    out = []
    for name, expect in EXCEPTIONAL_PROJ_DIMS.items():
        alg = chevalley.build_algebra(name)
        x = alg.root_vector(alg.rs.highest_root())
        got = alg.projective_orbit_dimension(x)
        out.append(_report(
            f"min-orbit-proj-dim-{name}", got == expect,
            f"expected {expect}, got {got}"))
    return out


_CLASSICAL_SMALL = (
    [("A", l) for l in range(1, 5)]
    + [("B", l) for l in range(2, 5)]
    + [("C", l) for l in range(2, 5)]
    + [("D", l) for l in range(3, 5)]
)


def suite_classical_dimensions(seed):
    out = []
    for fam, l in _CLASSICAL_SMALL:
        alg = chevalley.build_algebra(f"{fam}{l}")
        o = partitions.minimal_orbit(fam, l)
        d_part = partitions.orbit_dim(o)
        x = alg.root_vector(alg.rs.highest_root())
        d_chev = alg.orbit_dimension(x)
        ok = d_part == d_chev
        detail = f"partition {d_part} vs centralizer {d_chev}"
        if fam == "C":
            proj = alg.projective_orbit_dimension(x)
            ok = ok and proj == 2 * l - 1
            detail += f"; projective {proj} (expect {2 * l - 1})"
        out.append(_report(
            f"min-orbit-dim-{fam}{l}", ok, detail))
    return out


_POSET_TYPES = [("A", 3), ("C", 2), ("C", 3), ("B", 3), ("D", 4)]


def suite_closure_order(seed):
    out = []
    for fam, l in _POSET_TYPES:
        poset = partitions.OrbitPoset(fam, l)
        mins = poset.minimal_nonzero()
        ok_min = mins == [partitions.minimal_orbit(fam, l)]
        codims = [poset.boundary_codim(o) for o in poset.nonzero_orbits()]
        ok_codim = all(c >= 2 for c in codims)
        out.append(_report(
            f"unique-minimal-{fam}{l}", ok_min,
            f"minimal nonzero orbits: {[str(o) for o in mins]}"))
        out.append(_report(
            f"boundary-codim-{fam}{l}", ok_codim,
            f"codims {sorted(set(codims))}"))
    return out


_NILP_TYPES = ["A1", "A2", "B2", "G2", "A3", "B3", "C3"]


def _random_element(alg, rng, labels):
    while True:
        coeffs = {lbl: rng.randint(-3, 3) for lbl in labels}
        e = alg.element({k: v for k, v in coeffs.items() if v})
        if not e.is_zero():
            return e


def suite_nilpotency_equivalences(seed):
    rng = random.Random(seed)
    algs = [chevalley.build_algebra(t) for t in _NILP_TYPES]
    bad = []
    for i in range(50):
        alg = algs[i % len(algs)]
        pos = [tuple(r) for r in alg.rs.positive_roots]
        n = _random_element(alg, rng, pos)
        rep = dynkin.nilpotency_report(n)
        if not (rep.bracket_eigen_solvable and rep.centralizer_orthogonal
                and rep.ad_nilpotent):
            bad.append(("nilpotent", alg.rs.cartan_type, i, repr(n), rep))
    for i in range(50):
        alg = algs[i % len(algs)]
        labels = [("H", j) for j in range(alg.rs.rank)]
        h = _random_element(alg, rng, labels)
        rep = dynkin.nilpotency_report(h)
        if rep.bracket_eigen_solvable or rep.centralizer_orthogonal or rep.ad_nilpotent:
            bad.append(("semisimple", alg.rs.cartan_type, i, repr(h), rep))
    return [_report(
        "nilpotency-three-criteria", not bad,
        f"50 nilpotent + 50 semisimple fixtures over {_NILP_TYPES}",
        witness={"disagreements": [str(b) for b in bad]})]


def suite_g2_classification(seed):
    alg = chevalley.build_algebra("G2")
    t = CartanType("G", 2)
    short = alg.rs.short_positive_roots()[0]
    min_wd = dynkin.minimal_orbit_diagram(alg)
    short_wd = dynkin.diagram_of_root_vector_orbit(alg.rs, short)
    sub_wd = dynkin.WeightedDiagram(t, (0, 2))
    reg_wd = dynkin.WeightedDiagram(t, (2, 2))
    out = []
    # the pairing must hold exactly, or fail with a witness
    expectations = [
        ("minimal", min_wd, "holds"),
        ("short-root", short_wd, "holds"),
        ("subregular", sub_wd, "fails"),
        ("regular", reg_wd, "fails"),
    ]
    for name, wd, expect in expectations:
        verdict = dynkin.pairing_criterion(dynkin.Grading(alg, wd))
        ok = verdict.status == expect and (
            expect == "holds" or verdict.witness is not None)
        out.append(_report(
            f"pairing-G2-{name}", ok,
            f"diagram {wd.labels}: {verdict.status}",
            witness={"witness": repr(verdict.witness)} if verdict.witness else {}))
    return out


def _matches_display(fam, labels):
    """The three admissible short-root diagrams: (2,0,...,0) with a
    trailing double bond, (0,1,0,...,0) with a leading one, and the
    four-node (0,0,0,1); the rank-2 second pattern degenerates to (0,2)
    because its marked node is then the multiple-bond end node."""
    l = len(labels)
    if fam == "B":
        return labels == (2,) + (0,) * (l - 1)
    if fam == "C":
        if l == 2:
            return labels == (0, 2)
        return labels == (0, 1) + (0,) * (l - 2)
    return labels == (0, 0, 0, 1)  # F


def suite_short_diagrams(seed):
    out = []
    for name in ("B3", "B4", "C2", "C3", "F4"):
        alg = chevalley.build_algebra(name)
        short = alg.rs.short_positive_roots()[0]
        wd = dynkin.diagram_of_root_vector_orbit(alg.rs, short)
        ok = _matches_display(name[0], wd.labels)
        out.append(_report(
            f"short-diagram-{name}", ok,
            f"computed {wd.labels}"))
    # highest-root value 2 on every minimal-orbit grading element
    for name in ([f"{fam}{l}" for fam, l in _CLASSICAL_SMALL]
                 + ["G2", "F4", "E6", "E7", "E8"]):
        alg = chevalley.build_algebra(name)
        wd = dynkin.minimal_orbit_diagram(alg)
        grading = dynkin.Grading(alg, wd)
        theta = alg.rs.highest_root()
        out.append(_report(
            f"theta-H-2-{name}", grading.degree[theta] == 2,
            f"theta degree {grading.degree[theta]}"))
    return out


def suite_f4_exclusion(seed):
    alg = chevalley.build_algebra("F4")
    a = alg.root_vector(dynkin.F4_ALPHA)
    b = alg.root_vector(dynkin.F4_BETA)
    cneg = alg.root_vector(tuple(-c for c in dynkin.F4_GAMMA))
    br = alg.bracket(a + b, cneg)
    out = [_report(
        "f4-bracket-vanishes", br.is_zero(),
        f"[X_a + X_b, X_-c] = {br!r}")]
    missed = []
    for labels in product((0, 1, 2), repeat=4):
        if sum(labels[:3]) < 2:
            continue
        wd = dynkin.WeightedDiagram(CartanType("F", 4), labels)
        v = dynkin.f4_exclusion(wd)
        if v.status != "excluded":
            missed.append(labels)
    out.append(_report(
        "f4-exclusion-fires", not missed,
        "all diagrams with l1+l2+l3 >= 2 excluded",
        witness={"missed": [list(m) for m in missed]}))
    return out


def suite_e_type_facts(seed):
    out = []
    for name in ("E6", "E7", "E8"):
        rs = build_root_system(name)
        facts = rs.simple_root_sum_facts
        ok = facts["sigma_is_root"] and all(
            facts["sigma_minus_end_is_root"].values()
        ) and all(facts["orthogonal_pairs"].values())
        out.append(_report(
            f"simple-root-sum-{name}", ok,
            f"sigma root, ends {facts['ends']}, "
            f"orthogonal pairs {facts['orthogonal_pairs']}"))
    alg = chevalley.build_algebra("E8")
    rs = alg.rs
    half = [Fraction(1, 2)] * 8
    lam = rs.root_from_epsilon(half)
    mu = rs.root_from_epsilon([0, 0, 0, 0, 0, 0, -1, 1])
    wd = dynkin.WeightedDiagram(CartanType("E", 8), (1, 0, 0, 0, 0, 0, 0, 1))
    grading = dynkin.Grading(alg, wd)
    ok = (
        lam is not None and mu is not None
        and rs.is_root(lam) and rs.is_root(mu)
        and grading.degree[lam] == 2 and grading.degree[mu] == 2
        and rs.inner(lam, mu) == 0
    )
    out.append(_report(
        "e8-two-orthogonal-degree2-roots", ok,
        f"lambda {lam}, mu {mu}"))
    return out


def suite_shared_orbit_table(seed):
    rep = curated.validate_tables()
    return [_report(
        "shared-orbit-table", rep.ok, rep.summary())]


def suite_sp_model(seed):
    out = []
    for n in (1, 2, 3):
        sp = matmodel.SymplecticSpace(n)
        v = tuple(range(1, 2 * n + 1))
        e = matmodel.mu(sp, v)
        fib = matmodel.fiber(e)
        jt = e.jordan_type()
        kk = matmodel.kk_rank_at(sp, v)
        o = partitions.minimal_orbit("C", n)
        ok = (
            len(fib) == 2
            and jt == o.partition
            and kk == 2 * n == partitions.orbit_dim(o)
        )
        out.append(_report(
            f"sp-model-n{n}", ok,
            f"fiber {len(fib)}, jordan {jt}, kk-rank {kk}"))
    for ns, expect in [([1], 1), ([1, 1], 2), ([1, 2, 1], 4)]:
        deg = matmodel.product_cover_degree(ns)
        out.append(_report(
            f"product-degree-{'x'.join(map(str, ns))}", deg == expect,
            f"degree {deg} (expect {expect})"))
    return out


def suite_property_battery(seed):
    rng = random.Random(seed)
    out = []
    # Jacobi identity on random triples, exact
    bad = 0
    for name in ("A2", "B2", "G2"):
        alg = chevalley.build_algebra(name)
        labels = list(alg.basis_labels)
        for _ in range(40):
            x, y, z = (_random_element(alg, rng, labels) for _ in range(3))
            lhs = (alg.bracket(x, alg.bracket(y, z))
                   + alg.bracket(y, alg.bracket(z, x))
                   + alg.bracket(z, alg.bracket(x, y)))
            bad += not lhs.is_zero()
    out.append(_report(
        "jacobi-random", bad == 0,
        "120 random triples over A2/B2/G2"))
    # Killing invariance
    bad = 0
    for name in ("B2", "G2"):
        alg = chevalley.build_algebra(name)
        labels = list(alg.basis_labels)
        for _ in range(50):
            x, y, z = (_random_element(alg, rng, labels) for _ in range(3))
            bad += alg.killing(alg.bracket(x, y), z) != alg.killing(
                x, alg.bracket(y, z))
    out.append(_report(
        "killing-invariance", bad == 0,
        "100 random triples over B2/G2"))
    # grading compatibility: bracket of homogeneous pieces is homogeneous
    bad = 0
    checks = 0
    for name, labels_wd in [("G2", (0, 2)), ("C3", (1, 0, 0)), ("B3", (0, 1, 0))]:
        alg = chevalley.build_algebra(name)
        wd = dynkin.WeightedDiagram(alg.rs.cartan_type, labels_wd)
        grading = dynkin.Grading(alg, wd)
        labels = list(alg.basis_labels)
        for _ in range(40):
            a, b = rng.choice(labels), rng.choice(labels)
            da, db = grading.degree[a], grading.degree[b]
            br = alg.bracket(alg.element({a: 1}), alg.element({b: 1}))
            checks += 1
            bad += any(grading.degree[lbl] != da + db for lbl in br.coeffs)
    out.append(_report(
        "grading-compatibility", bad == 0,
        f"{checks} homogeneous bracket checks"))
    # extended-2-form kernel vanishes at generic degree-2 points
    bad = []
    for name, labels_wd in [("G2", (0, 1)), ("G2", (1, 0)), ("C2", (1, 0)),
                            ("C3", (1, 0, 0)), ("B3", (0, 1, 0))]:
        alg = chevalley.build_algebra(name)
        wd = dynkin.WeightedDiagram(alg.rs.cartan_type, labels_wd)
        grading = dynkin.Grading(alg, wd)
        n = dynkin.generic_degree_two(alg, grading)
        k = dynkin.omega_kernel_dim(grading, n)
        if k != 0:
            bad.append((name, labels_wd, k))
    out.append(_report(
        "omega-kernel-zero", not bad,
        "kernel dim 0 at generic degree-2 elements",
        witness={"nonzero": [str(b) for b in bad]}))
    return out


SUITES = [
    ("exceptional-dimensions", (), suite_exceptional_dimensions),
    ("classical-dimensions", (), suite_classical_dimensions),
    ("closure-order", (), suite_closure_order),
    ("nilpotency-equivalences", (), suite_nilpotency_equivalences),
    ("g2-classification", (), suite_g2_classification),
    ("short-diagrams", (), suite_short_diagrams),
    ("f4-exclusion", (), suite_f4_exclusion),
    ("e-type-facts", (), suite_e_type_facts),
    ("shared-orbit-table", ("table62",), suite_shared_orbit_table),
    ("sp-model", (), suite_sp_model),
    ("property-battery", ("property-suite",), suite_property_battery),
]


def run_suites(only=None, seed=0):
    selected = []
    for name, aliases, fn in SUITES:
        if only is None or only == name or only in aliases:
            selected.append((name, fn))
    if only is not None and not selected:
        raise ValueError(f"unknown suite: {only}")
    reports = []
    for name, fn in selected:
        prev = time.monotonic()
        try:
            suite_reports = fn(seed)
        except Exception as exc:  # suite boundary: report it, run the others
            import traceback  # only this path needs it, and it is slow to import
            suite_reports = [VerdictReport(
                name, "error", f"{type(exc).__name__}: {exc}",
                {"traceback": traceback.format_exc().splitlines()})]
        # a check's runtime is the time since its suite's previous verdict
        for r in suite_reports:
            r.ref = name
            r.runtime, prev = r.created - prev, r.created
        reports.extend(suite_reports)
    return reports


# ------------------------------------------------------------- commands

def _parse_labels(s):
    try:
        return tuple(int(x) for x in s.split(","))
    except ValueError:
        raise ValueError(
            f"expected comma-separated integers, got {s!r}") from None


def cmd_roots(args):
    rs = build_root_system(args.type)
    print(f"type {rs.cartan_type}  rank {rs.rank}")
    print(f"positive roots: {len(rs.positive_roots)}  total: {len(rs.all_roots)}")
    print(f"highest root: {rs.highest_root()}")
    print("cartan matrix:")
    for row in rs.cartan_matrix:
        print(" ", row)
    return 0


def cmd_algebra(args):
    alg = chevalley.build_algebra(args.type)
    print(f"type {alg.rs.cartan_type}  dim {alg.dim}")
    # the ordered basis pairs with a nonzero bracket, one per nonzero column
    # of the stored rows (the coroot column gives several entries)
    nonzero = sum(len({j for j, _, _ in alg.table_row(i)}) for i in range(alg.dim))
    print(f"roots {len(alg.rs.all_roots)}  positive-pair constants {len(alg._npos)}"
          f"  nonzero basis brackets {nonzero}")
    if args.orbit_dim_min:
        x = alg.root_vector(alg.rs.highest_root())
        print(f"minimal orbit dim {alg.orbit_dimension(x)}"
              f"  projective {alg.projective_orbit_dimension(x)}")
    return 0


def cmd_orbit(args):
    t = CartanType.parse(args.type)
    if args.action == "list":
        poset = partitions.OrbitPoset(t.family, t.rank)
        for o in poset.orbits:
            wd = partitions.weighted_diagram(o)
            print(f"{str(o.partition):>20}{o.very_even_label:>3}"
                  f"  dim {partitions.orbit_dim(o):>3}  diagram {wd.labels}")
        return 0
    parts = _parse_labels(args.partition)
    o = partitions.JordanOrbit(t.family, t.rank, parts, args.very_even or "")
    wd = partitions.weighted_diagram(o)
    print(f"orbit {o}")
    print(f"dimension {partitions.orbit_dim(o)}")
    print(f"weighted diagram {wd.labels}")
    if not o.is_zero():
        print(f"pi1 order {partitions.pi1_order(o)}")
        poset = partitions.OrbitPoset(t.family, t.rank)
        print(f"boundary codim {poset.boundary_codim(o)}")
    return 0


def cmd_check(args):
    if args.what == "table":
        if args.file:
            try:
                with open(args.file, encoding="utf-8") as f:
                    text = f.read()
            except OSError as e:
                raise ValueError(f"cannot read {args.file}: {e.strerror}") from None
            shared = curated.load_shared_table(text)
        else:
            shared = curated.load_shared_table()
        rep = curated.validate_tables(shared, curated.load_exceptional_table())
        print(rep.summary())
        return 0 if rep.ok else 1
    t = CartanType.parse(args.type)
    wd = dynkin.WeightedDiagram(t, _parse_labels(args.diagram))
    if args.what == "exclusion":
        if t.family == "E":
            v = dynkin.e_type_exclusion(wd)
        elif t.family == "F":
            v = dynkin.f4_exclusion(wd)
        else:
            print("exclusion checks apply to E and F types", file=sys.stderr)
            return 2
        print(f"exclusion: {v.status}  {v.detail}")
        return 0
    alg = chevalley.build_algebra(t)
    grading = dynkin.Grading(alg, wd)
    if args.what == "pairing":
        v = dynkin.pairing_criterion(grading)
        print(f"pairing criterion: {v.status}")
        if v.witness:
            print(f"witness: {v.witness}")
        return 0 if v.status == "holds" else 1
    # key-lemma: smoothness necessary condition at a generic degree-2 point
    n = dynkin.generic_degree_two(alg, grading)
    zin = dynkin.centralizer_in_n_perp(grading, n)
    k = dynkin.omega_kernel_dim(grading, n)
    print(f"generic degree-2 element: {n!r}")
    print(f"centralizer contained in n-perp: {zin}")
    print(f"extended-2-form kernel dim: {k}")
    return 0 if zin and k == 0 else 1


def cmd_model(args):
    sp = matmodel.SymplecticSpace(args.n)
    v = tuple(range(1, 2 * args.n + 1))
    e = matmodel.mu(sp, v)
    print(f"sp(2n) model, n = {args.n}")
    print(f"v = {tuple(map(str, v))}")
    print("mu(v) =")
    for row in e.matrix:
        print("  [" + ", ".join(str(x) for x in row) + "]")
    print(f"jordan type {e.jordan_type()}")
    fib = matmodel.fiber(e)
    print(f"fiber over mu(v): {[tuple(map(str, w)) for w in fib]}")
    print(f"kostant-kirillov rank {matmodel.kk_rank_at(sp, v)}")
    return 0


def cmd_verify(args):
    try:
        reports = run_suites(only=args.only, seed=args.seed)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    ok = all(r.ok for r in reports)
    if args.json:
        print(json.dumps(
            {"ok": ok, "reports": [r.to_json() for r in reports]},
            indent=2, sort_keys=True))
    else:
        for r in reports:
            mark = {"pass": "PASS", "fail": "FAIL", "error": "ERROR"}[r.status]
            print(f"[{mark}] {r.ref}/{r.name} ({r.runtime:.2f}s) {r.detail}")
            if not r.ok and r.witness:
                print(f"       witness: {r.witness}")
        npass = sum(r.ok for r in reports)
        print(f"{npass}/{len(reports)} checks passed")
    return 0 if ok else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="nilorb",
        description="Exact computations with nilpotent orbits of simple Lie algebras")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("roots", help="root system summary")
    sp.add_argument("type")
    sp.set_defaults(fn=cmd_roots)

    sp = sub.add_parser("algebra", help="Chevalley algebra summary")
    sp.add_argument("type")
    sp.add_argument("--orbit-dim-min", action="store_true")
    sp.set_defaults(fn=cmd_algebra)

    sp = sub.add_parser("orbit", help="classical nilpotent orbits")
    sp.add_argument("action", choices=["list", "info"])
    sp.add_argument("--type", required=True)
    sp.add_argument("--partition")
    sp.add_argument("--very-even", choices=["I", "II"])
    sp.set_defaults(fn=cmd_orbit)

    sp = sub.add_parser("check", help="lemma-level decision procedures")
    sp.add_argument("what", choices=["key-lemma", "pairing", "exclusion", "table"])
    sp.add_argument("--type")
    sp.add_argument("--diagram")
    sp.add_argument("--file")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("model", help="sp(2n) minimal-orbit matrix model")
    sp.add_argument("kind", choices=["sp"])
    sp.add_argument("--n", type=int, default=2)
    sp.set_defaults(fn=cmd_model)

    sp = sub.add_parser("verify-paper", help="run the full check battery")
    sp.add_argument("--only")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_verify)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.cmd == "orbit" and args.action == "info" and not args.partition:
        print("orbit info requires --partition", file=sys.stderr)
        return 2
    if args.cmd == "check" and args.what != "table" and (
            not args.type or not args.diagram):
        print(f"check {args.what} requires --type and --diagram", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (ValueError, dynkin.NoTripleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
