"""Curated reference tables: shared-orbit pairs and exceptional-orbit data.

The shared-orbit table lists pairs of distinct simple algebras (g, g') whose
minimal/projectivized orbit geometry coincides, together with the orbit of g
involved and the degree of the associated covering.  Rows are stored in a
TSV file; some rows are generic in the rank l (encoded with the letter `l`
in type names and a `p*` padding convention in partitions).  Exceptional
(G2/F4) orbit metadata — weighted diagram, dimension, fundamental-group
order, normality of the closure with a literature citation — lives in a
sibling JSON file.

Everything here is validated against the computational modules:
partition validity, fundamental-group order vs covering degree, weighted
diagrams vs the root-vector-orbit computation, and dimensions vs the
grading decomposition.
"""

import json
import re
from collections import namedtuple

from . import chevalley, dynkin, partitions
from .rootsys import CartanType

_RANK_RE = re.compile(r"([A-G])(?:(\d+)|l|\(([1-9]\d*)?l([+-]\d+)\))")


def parse_type_spec(spec):
    """Parse 'A2', 'Bl', 'D(l+1)', 'A(2l-1)' into (family, rank_fn, generic);
    these three forms are the only ones accepted.

    rank_fn maps a rank parameter l to a concrete rank; for concrete specs
    it ignores its argument.
    """
    m = _RANK_RE.fullmatch(spec)
    if not m:
        raise ValueError(f"bad type spec: {spec!r}")
    fam, const, coeff, shift = m.groups()
    if const is not None:
        return fam, (lambda l, c=int(const): c), False
    a = int(coeff) if coeff else 1
    b = int(shift) if shift else 0
    return fam, (lambda l, a=a, b=b: a * l + b), True


def parse_orbit_spec(spec):
    """Parse '3,1*' into (parts, pad) where pad is the repeated filler part,
    or return the name for 'short'/'sub'."""
    if spec in ("short", "sub"):
        return spec
    parts = []
    pad = None
    for tok in spec.split(","):
        if tok.endswith("*"):
            pad = int(tok[:-1])
        else:
            parts.append(int(tok))
    return tuple(parts), pad


class SharedOrbitRecord(namedtuple("SharedOrbitRecord", "g g_prime orbit degree line",
                                   defaults=(0,))):
    __slots__ = ()

    def is_generic(self):
        return parse_type_spec(self.g)[2]

    def is_classical(self):
        return parse_type_spec(self.g)[0] in "ABCD"

    def instantiate(self, l=0):
        """Concrete (CartanType g, CartanType g', JordanOrbit-or-name)."""
        fam, rank_fn, _ = parse_type_spec(self.g)
        fam2, rank_fn2, _ = parse_type_spec(self.g_prime)
        t = CartanType(fam, rank_fn(l))
        t2 = CartanType(fam2, rank_fn2(l))
        o = parse_orbit_spec(self.orbit)
        if isinstance(o, str):
            return t, t2, o
        parts, pad = o
        n = partitions.matrix_size(fam, t.rank)
        if pad is not None:
            missing, rem = divmod(n - sum(parts), pad)
            if rem or missing < 0:
                raise ValueError(f"cannot pad {self.orbit} to size {n}")
            parts = parts + (pad,) * missing
        return t, t2, partitions.JordanOrbit(fam, t.rank, parts)


class ExceptionalOrbitRecord(namedtuple(
        "ExceptionalOrbitRecord",
        "type name diagram dimension pi1_order closure_normal citation")):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        t = CartanType.parse(self.type)
        if t.family not in ("G", "F"):
            raise ValueError(f"exceptional record for non-exceptional type {self.type}")
        if not all(v in (0, 1, 2) for v in self.diagram):
            raise ValueError(f"diagram labels must lie in {{0,1,2}}: {self.diagram}")
        if self.dimension <= 0 or self.dimension % 2:
            raise ValueError(f"orbit dimension must be even and positive: {self.dimension}")
        return self

    def weighted_diagram(self):
        return dynkin.WeightedDiagram(CartanType.parse(self.type), self.diagram)


def _data_text(name):
    # imported here, as only this function reads a data file: with
    # pathlib, zipfile and tempfile it is a large share of start-up
    from importlib import resources
    return resources.files("nilorb.data").joinpath(name).read_text(encoding="utf-8")


def load_shared_table(text=None):
    if text is None:
        text = _data_text("table62.tsv")
    lines = text.splitlines()
    if not lines or lines[0].split("\t") != ["g", "g_prime", "orbit", "degree"]:
        raise ValueError("line 1: expected header g/g_prime/orbit/degree")
    records = []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 4:
            raise ValueError(f"line {i}: expected 4 tab-separated columns")
        g, gp, orbit, deg = cols
        try:
            degree = int(deg)
            if degree < 1:
                raise ValueError
        except ValueError:
            raise ValueError(f"line {i}: degree must be a positive integer") from None
        try:
            parse_type_spec(g)
            parse_type_spec(gp)
            parse_orbit_spec(orbit)
        except ValueError as e:
            raise ValueError(f"line {i}: {e}") from None
        records.append(SharedOrbitRecord(g, gp, orbit, degree, line=i))
    return records


def load_exceptional_table(text=None):
    if text is None:
        text = _data_text("exceptional.json")
    raw = json.loads(text)
    return [
        ExceptionalOrbitRecord(
            type=r["type"],
            name=r["name"],
            diagram=tuple(r["diagram"]),
            dimension=r["dimension"],
            pi1_order=r["pi1_order"],
            closure_normal=r["closure_normal"],
            citation=r["citation"],
        )
        for r in raw["orbits"]
    ]


def serialize_shared_table(records):
    lines = ["g\tg_prime\torbit\tdegree"]
    for r in records:
        lines.append(f"{r.g}\t{r.g_prime}\t{r.orbit}\t{r.degree}")
    return "\n".join(lines) + "\n"


def serialize_exceptional_table(records):
    return json.dumps(
        {
            "orbits": [
                {
                    "type": r.type,
                    "name": r.name,
                    "diagram": list(r.diagram),
                    "dimension": r.dimension,
                    "pi1_order": r.pi1_order,
                    "closure_normal": r.closure_normal,
                    "citation": r.citation,
                }
                for r in records
            ]
        },
        indent=2,
    ) + "\n"


CheckResult = namedtuple("CheckResult", "row check ok detail", defaults=("",))


class ValidationReport:
    def __init__(self):
        self.results = []

    def add(self, row, check, ok, detail=""):
        self.results.append(CheckResult(str(row), check, bool(ok), detail))

    @property
    def ok(self):
        return all(r.ok for r in self.results)

    def failures(self):
        return [r for r in self.results if not r.ok]

    def summary(self):
        n = len(self.results)
        bad = self.failures()
        lines = [f"{n - len(bad)}/{n} checks passed"]
        lines.extend(f"FAIL {r.row}: {r.check} {r.detail}" for r in bad)
        return "\n".join(lines)


# Rank ranges used to instantiate the generic rows during validation.
_GENERIC_RANKS = {"A": range(1, 6), "B": range(2, 6), "C": range(2, 6),
                  "D": range(3, 6)}

# Generic-rank instances are dimension-checked against the graded algebra
# only at small rank, where building the Chevalley basis is cheap.
_DIM_CHECK_MAX_RANK = 4


def _grading_orbit_dim(alg, wd):
    return alg.dim - sum(dynkin.Grading(alg, wd).dims[:2])


def _exceptional_lookup(exceptional, type_name, orbit_name):
    for r in exceptional:
        if r.type == type_name and r.name == orbit_name:
            return r
    return None


def validate_tables(shared=None, exceptional=None):
    if shared is None:
        shared = load_shared_table()
    if exceptional is None:
        exceptional = load_exceptional_table()
    rep = ValidationReport()

    rep.add("table", "row_count", len(shared) == 9, f"got {len(shared)}")

    for rec in shared:
        row = f"line {rec.line} ({rec.g},{rec.g_prime})"
        if rec.is_classical():
            fam = parse_type_spec(rec.g)[0]
            ls = _GENERIC_RANKS[fam] if rec.is_generic() else [0]
            for l in ls:
                tag = f"{row} l={l}" if rec.is_generic() else row
                try:
                    t, t2, orbit = rec.instantiate(l)
                except ValueError as e:
                    rep.add(tag, "orbit_valid", False, str(e))
                    continue
                rep.add(tag, "orbit_valid", True)
                p1 = partitions.pi1_order(orbit)
                rep.add(tag, "pi1_vs_degree", p1 == rec.degree,
                        f"pi1={p1} degree={rec.degree}")
                if t.rank <= _DIM_CHECK_MAX_RANK:
                    alg = chevalley.build_algebra(t)
                    wd = partitions.weighted_diagram(orbit)
                    d_part = partitions.orbit_dim(orbit)
                    d_grad = _grading_orbit_dim(alg, wd)
                    rep.add(tag, "dim_vs_grading", d_part == d_grad,
                            f"partition={d_part} grading={d_grad}")
        else:
            try:
                t, t2, name = rec.instantiate()
            except ValueError as e:
                rep.add(row, "orbit_valid", False, str(e))
                continue
            meta = _exceptional_lookup(exceptional, rec.g, name)
            rep.add(row, "exceptional_metadata_present", meta is not None)
            if meta is None:
                continue
            rep.add(row, "pi1_vs_degree", meta.pi1_order == rec.degree,
                    f"pi1={meta.pi1_order} degree={rec.degree}")

    for meta in exceptional:
        row = f"{meta.type} {meta.name}"
        alg = chevalley.build_algebra(meta.type)
        wd = meta.weighted_diagram()
        d_grad = _grading_orbit_dim(alg, wd)
        rep.add(row, "dim_vs_grading", d_grad == meta.dimension,
                f"curated={meta.dimension} grading={d_grad}")
        if meta.name == "short":
            shortest = alg.rs.short_positive_roots()[0]
            computed = dynkin.diagram_of_root_vector_orbit(alg.rs, shortest)
            rep.add(row, "diagram_vs_root_vector", computed.labels == wd.labels,
                    f"curated={wd.labels} computed={computed.labels}")
        if meta.name == "sub":
            # subregular = codimension 2 in the nilpotent cone
            cone_dim = alg.dim - alg.rs.rank
            rep.add(row, "subregular_codim_two",
                    meta.dimension == cone_dim - 2,
                    f"dim={meta.dimension} cone={cone_dim}")

    rt = serialize_shared_table(shared)
    rep.add("table", "shared_round_trip", load_shared_table(rt) == [
        SharedOrbitRecord(r.g, r.g_prime, r.orbit, r.degree, line=i + 2)
        for i, r in enumerate(shared)
    ])
    rt2 = serialize_exceptional_table(exceptional)
    rep.add("table", "exceptional_round_trip",
            load_exceptional_table(rt2) == exceptional)
    return rep
