"""The three benchmark workloads and their oracles.

Each workload is a closed loop with one client: one process, one thread,
items sent back to back.  A workload builds its inputs from the seed,
`setup()` imports nilorb and builds every algebra it uses, `run_pass()`
runs one pass over the items and is the only timed code, and `check()`
verifies the outputs of a pass outside the timed region.  The oracles do
not rely on the library's own asserts, which `python -O` strips.

`check()` returns the number of failed items and a list of wrong answers.
An item fails when it raised, or when the library gave no answer where the
oracle knows one (an orbit the scan missed).  An answer that contradicts
the oracle is wrong, which makes the whole run incorrect.
"""

import contextlib
import importlib
import io
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from hostspeed import clock

GOLDEN = Path(__file__).resolve().parent / "golden" / "verify-paper-seed0.json"


class Raised:
    """Output of an item whose library call raised."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Raised) and other.text == self.text

    def __repr__(self):
        return f"Raised({self.text!r})"


def _import(*names):
    return [importlib.import_module(f"nilorb.{n}") for n in names]


def _run_items(run_item, items, tracer):
    """Time each item as (start, seconds); a raised exception is that item's
    output."""
    spans, outputs = [], []
    t0 = clock()
    for i, item in enumerate(items, 1):
        if tracer is not None:
            tracer.run_id = i
        s = clock()
        try:
            out = run_item(item)
        except Exception as exc:  # item boundary: reported as a failed item
            out = Raised(exc)
        spans.append((s, clock() - s))
        outputs.append(out)
    return clock() - t0, spans, outputs


def _neg(root):
    return tuple(-c for c in root)


# ------------------------------------------------------------ verify-paper

# Every algebra the 11 suites build (found by tracing `build_algebra`).
VERIFY_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
                "D3", "D4", "E6", "E7", "E8", "F4", "G2")


class VerifyPaper:
    """`nilorb verify-paper --json --seed S`, run in process.

    Items are the suites; each one is timed by a wrapper around its entry
    in `cli.SUITES`.  Oracle: for seed 0 the report must equal the golden
    report byte for byte; for any seed it must say `ok`.
    """

    name = "verify-paper"
    types = VERIFY_TYPES

    def __init__(self, seed, only=None):
        self.seed = seed
        self.golden = GOLDEN.read_text(encoding="utf-8") if seed == 0 and only is None else None
        self.only = only
        self.argv = ["verify-paper", "--json", "--seed", str(seed)]
        if only is not None:
            self.argv += ["--only", only]

    def setup(self):
        self.cli, self.chevalley = _import("cli", "chevalley")
        for t in self.types:
            self.chevalley.build_algebra(t)

    def prepare(self):
        self.items = [n for n, _, _ in self.cli.SUITES if self.only in (None, n)]

    def run_pass(self, tracer=None):
        suites = self.cli.SUITES
        original = list(suites)
        spans = []

        def timed(k, fn):
            def suite(seed):
                if tracer is not None:
                    tracer.run_id = k
                s = clock()
                try:
                    return fn(seed)
                finally:
                    spans.append((s, clock() - s))
            return suite

        suites[:] = [(n, a, timed(k, fn)) for k, (n, a, fn) in enumerate(original, 1)]
        buf = io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(buf):
                out = (self.cli.main(self.argv), buf.getvalue())
        except Exception as exc:  # run boundary: every suite counts as failed
            out = Raised(exc)
        finally:
            suites[:] = original
        return clock() - t0, spans, [out]

    def check(self, outputs):
        (out,) = outputs
        if isinstance(out, Raised):
            return len(self.items), [f"verify-paper raised {out.text}"]
        code, text = out
        wrong = []
        if self.golden is not None and text != self.golden:
            wrong.append("seed-0 report differs from the golden report")
        try:
            report = json.loads(text)
        except ValueError:
            return 1, wrong + [f"exit {code}, output is not JSON"]
        failed = {r["ref"] for r in report["reports"] if r["status"] == "fail"}
        if not report["ok"] or code != 0 or failed:
            wrong.append(f"exit {code}, ok {report['ok']}, failing suites {sorted(failed)}")
        return len(failed), wrong


# -------------------------------------------------------------- orbit-scan

# Nonzero nilpotent orbits (Collingwood & McGovern, ch. 8).
ORBIT_COUNTS = {"G2": 4, "F4": 15}
# Dimension of the minimal orbit of each E type.
E_MINIMAL_DIM = {"E6": 22, "E7": 34, "E8": 58}


def _degree(label, labels):
    return 0 if label[0] == "H" else sum(c * v for c, v in zip(label, labels))


class OrbitScan:
    """Scan weighted diagrams for sl2-triples, as in de Graaf (2008).

    Items are weighted diagrams: every nonzero diagram of the fully scanned
    types, and for each E type `sample` seeded diagrams plus the minimal
    orbit's and the regular (all-2) diagram.  The seeded E diagrams have at
    most two zero labels: diagrams with a large degree-0 piece cost up to
    200 times more on E8 (0.02 s to 4.2 s), so a few of them would make a
    run's time depend on its seed more than on the code.

    Oracles: orbit counts for G2 and F4; for B, C and D the diagrams of all
    partitions; for every diagram kept, the sl2-triple re-checked with
    `bracket` and `dim - |g0| - |g1|` equal to the orbit dimension of N0;
    minimal E orbit dims 22, 34, 58; regular orbit dim `dim - rank`.
    """

    name = "orbit-scan"

    def __init__(self, seed, full=("G2", "F4", "B4", "C4", "D4"),
                 sampled=("E6", "E7", "E8"), sample=4):
        self.seed = seed
        self.full = full
        self.sampled = sampled
        self.sample = sample
        self.types = tuple(full) + tuple(sampled)
        self.missed = []

    def setup(self):
        self.chevalley, self.dynkin, self.partitions = _import(
            "chevalley", "dynkin", "partitions")
        self.algs = {t: self.chevalley.build_algebra(t) for t in self.types}

    def prepare(self):
        rng = random.Random(self.seed)
        items = []
        for t in self.full:
            rank = self.algs[t].rank
            items += [(t, d) for d in itertools.product((0, 1, 2), repeat=rank) if any(d)]
        for t in self.sampled:
            alg = self.algs[t]
            rank = alg.rank
            fixed = [self.dynkin.minimal_orbit_diagram(alg).labels, (2,) * rank]
            chosen = []
            while len(chosen) < self.sample:
                support = rng.sample(range(rank), rng.randint(rank - 2, rank))
                d = [0] * rank
                for p in support:
                    d[p] = rng.choice((1, 2))
                d = tuple(d)
                if d not in chosen and d not in fixed:
                    chosen.append(d)
            items += [(t, d) for d in fixed + chosen]
        self.items = items

    def run_item(self, item):
        t, labels = item
        alg = self.algs[t]
        dynkin = self.dynkin
        grading = dynkin.Grading(alg, dynkin.WeightedDiagram(alg.rs.cartan_type, labels))
        if not grading.piece(2):
            return None  # no degree-2 element, so no orbit has this diagram
        try:
            return dynkin.generic_degree_two(alg, grading)
        except dynkin.NoTripleError:
            return None

    def run_pass(self, tracer=None):
        return _run_items(self.run_item, self.items, tracer)

    def _expected(self, t):
        """Diagrams of the nonzero orbits of a classical type, or None."""
        family, rank = t[0], int(t[1:])
        if family not in "BCD":
            return None
        poset = self.partitions.OrbitPoset(family, rank)
        return {self.partitions.weighted_diagram(o).labels for o in poset.nonzero_orbits()}

    def _check_kept(self, t, labels, n0):
        """What is wrong with a kept diagram's triple or dimension, or None."""
        alg = self.algs[t]
        dynkin = self.dynkin
        if any(_degree(k, labels) != 2 for k in n0.coeffs):
            return "N0 is not homogeneous of degree 2"
        grading = dynkin.Grading(alg, dynkin.WeightedDiagram(alg.rs.cartan_type, labels))
        h = grading.H
        for i, v in enumerate(labels):
            x = alg.root_vector(alg.rs.simple_roots[i])
            if alg.bracket(h, x) != x.scale(v):
                return f"alpha_{i + 1}(H) != {v}"
        try:
            n1 = dynkin.sl2_complete(alg, grading, n0).n1
        except dynkin.NoTripleError:
            return "kept N0 does not complete to a triple"
        if not (alg.bracket(h, n0) == n0.scale(2) and alg.bracket(h, n1) == n1.scale(-2)
                and alg.bracket(n1, n0) == h):
            return "sl2 relations fail"
        dim = alg.dim - sum(1 for k in alg.basis_labels if _degree(k, labels) in (0, 1))
        if dim != alg.orbit_dimension(n0):
            return f"dim - |g0| - |g1| = {dim} != orbit dimension"
        if t in E_MINIMAL_DIM and labels == dynkin.minimal_orbit_diagram(alg).labels \
                and dim != E_MINIMAL_DIM[t]:
            return f"minimal orbit dim {dim} != {E_MINIMAL_DIM[t]}"
        if labels == (2,) * alg.rank and dim != alg.dim - alg.rank:
            return f"regular orbit dim {dim} != {alg.dim - alg.rank}"
        return None

    def check(self, outputs):
        failed, wrong = 0, []
        self.missed = []
        found = {t: set() for t in self.types}
        for (t, labels), out in zip(self.items, outputs):
            if isinstance(out, Raised):
                failed += 1
                continue
            if out is None:
                continue
            found[t].add(labels)
            problem = self._check_kept(t, labels, out)
            if problem:
                wrong.append(f"{t} {labels}: {problem}")
        for t in self.sampled:
            rank = self.algs[t].rank
            for labels in (self.dynkin.minimal_orbit_diagram(self.algs[t]).labels, (2,) * rank):
                if labels not in found[t]:
                    failed += 1
                    self.missed.append((t, labels))
        for t in self.full:
            expected = self._expected(t)
            if expected is not None:
                missing = expected - found[t]
                extra = found[t] - expected
                failed += len(missing)
                self.missed += [(t, d) for d in sorted(missing)]
                wrong += [f"{t} {d}: kept, but no orbit has this diagram" for d in sorted(extra)]
            elif t in ORBIT_COUNTS:
                n, want = len(found[t]), ORBIT_COUNTS[t]
                if n < want:
                    failed += want - n
                    self.missed.append((t, f"{want - n} of {want} orbits"))
                elif n > want:
                    wrong.append(f"{t}: {n} diagrams kept, only {want} orbits exist")
        return failed, wrong


# ------------------------------------------------------------- algebra-ops

# (dual Coxeter number h, dims of the orbits 2A1 and A2), Collingwood &
# McGovern; the minimal orbit A1 has dim 2h - 2.
E_DATA = {"E7": (18, 52, 66), "E8": (30, 92, 114)}

# Operations of one pass, per algebra: (kind, terms, count).  The counts are
# fixed so that every seed gives the same mix of costs.  Sorted by latency,
# the median falls in the middle of the 4-term brackets and the 90th
# percentile in the middle of the cheaper killing and centralizer_dim calls,
# above the 16-term brackets.
ALGEBRA_MIX = (("bracket", 1, 40), ("bracket", 4, 55), ("bracket", 16, 20),
               ("killing", 1, 5), ("killing", 2, 5),
               ("centralizer_dim", 1, 5), ("centralizer_dim", 2, 5))


class AlgebraOps:
    """A seeded stream of `bracket`, `killing` and `centralizer_dim` calls
    on E7 and E8.

    Oracles, all computed without the library's answer: antisymmetry of the
    bracket, a zero Jacobi residual with a seeded basis vector, invariance of
    the Killing form, each Killing value against the closed form
    K = 2h^v (sum_a x_a y_-a + sum_ij x_Hi y_Hj C_ij), and each centralizer
    dimension against the published dimension of the orbit of the element
    (one root vector: A1; X_a + X_b: A1, 2A1 or A2 by (a, b) = 1, 0, -1).
    """

    name = "algebra-ops"

    def __init__(self, seed, types=("E7", "E8"), mix=ALGEBRA_MIX):
        self.seed = seed
        self.types = types
        self.mix = mix

    def setup(self):
        (self.chevalley,) = _import("chevalley")
        self.algs = {t: self.chevalley.build_algebra(t) for t in self.types}

    def _element(self, rng, alg, labels, terms):
        return alg.element({k: rng.choice((-3, -2, -1, 1, 2, 3))
                            for k in rng.sample(labels, terms)})

    def prepare(self):
        rng = random.Random(self.seed)
        items = []
        for t in self.types:
            alg = self.algs[t]
            basis = list(alg.basis_labels)
            pos = list(alg.rs.positive_roots)
            for kind, terms, count in self.mix:
                for _ in range(count):
                    if kind == "bracket":
                        # x, y, and the basis vector z the Jacobi oracle uses
                        args = (self._element(rng, alg, basis, terms),
                                self._element(rng, alg, basis, terms),
                                self._element(rng, alg, basis, 1))
                    elif kind == "killing":
                        x = self._element(rng, alg, basis, terms)
                        # y meets a label dual to one of x's, so that the
                        # form is seldom zero
                        dual = [k if k[0] == "H" else _neg(k) for k in x.coeffs]
                        labels = rng.sample(dual, 1) + rng.sample(basis, terms - 1)
                        args = (x, self._element(rng, alg, labels, len(labels)))
                    else:
                        # a root vector, or X_a + X_b on two positive roots
                        roots = pos if terms == 2 else alg.rs.all_roots
                        args = (self._element(rng, alg, roots, terms),)
                    items.append((kind, t, args))
        rng.shuffle(items)
        self.items = items

    def run_item(self, item):
        kind, t, args = item
        alg = self.algs[t]
        if kind == "bracket":
            return alg.bracket(args[0], args[1])
        if kind == "killing":
            return alg.killing(args[0], args[1])
        return alg.centralizer_dim(args[0])

    def run_pass(self, tracer=None):
        return _run_items(self.run_item, self.items, tracer)

    def _killing(self, alg, x, y):
        """The Killing form of a simply laced algebra in closed form."""
        hv = E_DATA[str(alg.rs.cartan_type)][0]
        cartan = alg.rs.cartan_matrix
        total = Fraction(0)
        for k, c in x.coeffs.items():
            if k[0] == "H":
                for k2, c2 in y.coeffs.items():
                    if k2[0] == "H":
                        total += c * c2 * cartan[k[1]][k2[1]]
            else:
                total += c * y.coeffs.get(_neg(k), 0)
        return 2 * hv * total

    def _expected_centralizer_dim(self, alg, x):
        hv, two_a1, a2 = E_DATA[str(alg.rs.cartan_type)]
        a1 = 2 * hv - 2
        roots = list(x.coeffs)
        if len(roots) == 1:
            orbit = a1
        else:
            a, b = roots
            cartan = alg.rs.cartan_matrix
            ip = sum(ai * bj * cartan[i][j] for i, ai in enumerate(a) for j, bj in enumerate(b))
            orbit = {1: a1, 0: two_a1, -1: a2}[ip]
        return alg.dim - orbit

    def _check_one(self, item, out):
        kind, t, args = item
        alg = self.algs[t]
        if kind == "bracket":
            x, y, z = args
            if alg.bracket(y, x) != -out:
                return "bracket is not antisymmetric"
            jacobi = (alg.bracket(x, alg.bracket(y, z)) + alg.bracket(y, alg.bracket(z, x))
                      + alg.bracket(z, out))
            if not jacobi.is_zero():
                return "Jacobi residual is not zero"
            if self._killing(alg, out, z) != self._killing(alg, x, alg.bracket(y, z)):
                return "Killing form is not invariant"
            return None
        if kind == "killing":
            want = self._killing(alg, *args)
            return None if out == want else f"Killing form {out} != {want}"
        want = self._expected_centralizer_dim(alg, args[0])
        return None if out == want else f"centralizer dim {out} != {want}"

    def check(self, outputs):
        failed, wrong = 0, []
        for item, out in zip(self.items, outputs):
            if isinstance(out, Raised):
                failed += 1
                continue
            problem = self._check_one(item, out)
            if problem:
                wrong.append(f"{item[0]} on {item[1]}: {problem}")
        return failed, wrong


WORKLOADS = {w.name: w for w in (VerifyPaper, OrbitScan, AlgebraOps)}
