import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nilorb
from nilorb import chevalley, curated, dynkin, matmodel, partitions
from nilorb.rootsys import CartanType, build_root_system


def test_library_has_no_assert_statements():
    """Invariants are enforced by explicit raises, which `python -O` keeps."""
    found = []
    for path in sorted(Path(nilorb.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


EXACT_MODULES = ("linalg", "rootsys", "chevalley", "dynkin", "partitions",
                 "matmodel", "curated")


def test_exact_modules_use_no_floating_point():
    """No float literal, no `float` and no `math.sqrt` in the modules that
    compute; `cli` times its suites with the wall clock and is left out."""
    found = []
    for name in EXACT_MODULES:
        path = Path(nilorb.__file__).parent / f"{name}.py"
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
                    or isinstance(node, ast.Name) and node.id in ("float", "sqrt")
                    or isinstance(node, ast.Attribute) and node.attr == "sqrt"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


_A1 = chevalley.build_algebra("A1")

# (record class, field values) for every value type of the library
RECORDS = [
    (CartanType, ("E", 8)),
    (dynkin.WeightedDiagram, (CartanType("G", 2), (0, 1))),
    (dynkin.Sl2Triple, (_A1.root_vector((1,)), _A1.element({("H", 0): 1}),
                        _A1.root_vector((-1,)))),
    (dynkin.NilpotencyReport, (True, True, True)),
    (dynkin.PairingVerdict, ("fails", ({(0, 1): 1}, {(0, -1): 1}))),
    (dynkin.ExclusionVerdict, ("excluded", {"s": 3})),
    (partitions.JordanOrbit, ("D", 4, (2, 2, 2, 2), "I")),
    (matmodel.SymplecticSpace, (2,)),
    (matmodel.RankOneElement, (matmodel.SymplecticSpace(1), (1, 0), ((0, 1), (0, 0)))),
    (curated.SharedOrbitRecord, ("Bl", "D(l+1)", "3,1*", 2, 0)),
    (curated.ExceptionalOrbitRecord, ("G2", "short", (1, 0), 8, 1, False, "x")),
    (curated.CheckResult, ("row", "check", True, "")),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_records_are_immutable_values(cls, fields):
    """Every record is a named tuple: frozen, equal to (and hashed as) the
    plain tuple of its fields."""
    a, b = cls(*fields), cls(*fields)
    assert a == b == fields
    with pytest.raises(AttributeError):
        setattr(a, cls._fields[0], fields[0])
    with pytest.raises(AttributeError):
        a.extra = 1
    try:
        h = hash(fields)
    except TypeError:  # a field holds a dict or a LieElement
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == h


def test_builds_reject_a_plain_tuple_for_a_cartan_type():
    # ("E", 8) == CartanType("E", 8), so it would have found the cached E8
    for build in (build_root_system, chevalley.build_algebra):
        build("E8")
        with pytest.raises(TypeError, match="expected a CartanType"):
            build(("E", 8))


def _fresh_python(code, *flags):
    """Stdout of `code` run by a fresh `python -S` (no site module, whose
    .pth files could import modules first), with the interpreter `flags`,
    on the nilorb under test."""
    src = str(Path(nilorb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-S", *flags, "-c", code],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_importing_the_cli_loads_no_dataclass_machinery():
    """`dataclasses`, `inspect` and `traceback` cost milliseconds to import;
    nothing on the import path of the CLI needs them."""
    code = ("import sys, nilorb.cli; print(sorted(m for m in "
            "('dataclasses', 'inspect', 'traceback') if m in sys.modules))")
    assert _fresh_python(code) == "[]"


def test_importing_chevalley_loads_only_what_it_imports():
    """The package resolves its re-exports on access, so a caller of
    `nilorb.chevalley` compiles no dynkin, partitions, curated, matmodel or
    cli."""
    code = ("import sys, nilorb.chevalley; print(sorted(m for m in sys.modules "
            "if m == 'nilorb' or m.startswith('nilorb.')))")
    assert _fresh_python(code) == str(["nilorb", "nilorb.chevalley",
                                       "nilorb.linalg", "nilorb.rootsys"])


def test_star_import_binds_each_export_to_its_submodule_object():
    """`from nilorb import *` binds exactly `__all__`, each name to the
    object its submodule defines, and an unknown name raises
    AttributeError."""
    code = """\
import sys
ns = {}
exec("from nilorb import *", ns)
del ns["__builtins__"]
import nilorb
print(sorted(ns) == sorted(nilorb.__all__) and len(set(nilorb.__all__)) == 12)
print(all(ns[k] is vars(sys.modules[ns[k].__module__])[k] for k in ns))
print(all(getattr(nilorb, k) is ns[k] for k in ns))
# nothing is stored in the package, so a wrapper set on a submodule (as the
# perfbench tracer does) and removed again is what the package gives
print(not set(ns) & set(vars(nilorb)))
print(sorted({ns[k].__module__ for k in ns}))
try:
    nilorb.no_such_name
except AttributeError as e:
    print(e)
"""
    assert _fresh_python(code).splitlines() == [
        "True", "True", "True", "True",
        str(["nilorb.chevalley", "nilorb.dynkin", "nilorb.partitions",
             "nilorb.rootsys"]),
        "module 'nilorb' has no attribute 'no_such_name'",
    ]


def test_root_key_guard_raises_under_O():
    """`chevalley._root_keys` keys a root only when 3 |c| < 2^bits for each
    of its coordinates c; past that bound it raises, also under `-O`."""
    code = """\
from nilorb.chevalley import _root_keys
print(_root_keys([(1, 1), (0, -1), (10, 0)], 5))
try:
    _root_keys([(0, 11)], 5)
except AssertionError as e:
    print(e)
"""
    assert _fresh_python(code, "-O").splitlines() == [
        "[33, -32, 10]",
        "root (0, 11) has a coordinate c with 3|c| >= 32, too wide for 5-bit keys",
    ]
