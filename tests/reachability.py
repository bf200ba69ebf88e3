"""Reachability check: every statement of the library runs under tier-1.

    python tests/reachability.py

The script runs the tier-1 suite (`pytest -q tests`) in this process,
with `src` first on `sys.path`, under a `sys.settrace` tracer that records
the lines executed in `src/nilorb`; frames of any other file are not
line-traced.  It then lists every statement of `src/nilorb` that never
ran.  A statement counts as run when any line of it ran: for a compound
statement (`if`, `for`, `def`, ...) the lines of its header and the first
line of its body, for any other its whole span.  Docstrings and
`global`/`nonlocal` compile to no code and are skipped.

`ALLOWED` names the statements known to be out of reach of tier-1, each by
its file and the first line of its source text (stripped), so an edit
elsewhere in the file does not move it, with a one-line reason.  The
script exits 1 if a statement outside `ALLOWED` never ran, if an entry of
`ALLOWED` matches no unrun statement (it is reached now, or gone), or if
the tests fail.

It needs only the standard library and pytest, and is not part of the
tier-1 suite (`testpaths` collects `test_*.py` files only).  Tracing makes
the tier-1 run several times slower.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nilorb"

MAIN = "runs only as `python -m nilorb`, which the subprocess tests start"

# (file, first line of the statement, why no tier-1 test runs it)
ALLOWED = [
    ("__init__.py", "from importlib import import_module",
     "only the subprocess tests read a re-exported name before its "
     "submodule is imported"),
    ("__init__.py", "return getattr(import_module(f\".{module}\", __name__), name)",
     "only the subprocess tests read a re-exported name before its "
     "submodule is imported"),
    ("__main__.py", "import sys", MAIN),
    ("__main__.py", "from .cli import main", MAIN),
    ("__main__.py", 'if __name__ == "__main__":', MAIN),
    ("__main__.py", "sys.exit(main())", MAIN),
    ("chevalley.py", "raise AssertionError(f\"N{pos[i], pos[k]} = {Fraction(num, den)} \"",
     "build gate: Carter's step gives a non-integral N only on a wrong root system"),
    ("chevalley.py", "raise AssertionError(f\"|N{pos[i], pos[k]}| = {abs(n)} is not \"",
     "build gate: |N| = p + 1 fails only on a wrong root system"),
    ("chevalley.py", "roots = self._key_roots",
     "the N rule's integrality gate: a correct table never leaves a remainder"),
    ("chevalley.py", "raise AssertionError(f\"N{roots[a], roots[b]} = \"",
     "the N rule's integrality gate: a correct table never leaves a remainder"),
    ("chevalley.py", "raise AssertionError(f\"root {r} has a coordinate c with 3|c| >= \"",
     "root-key width guard: the key width is chosen from the highest root"),
    ("rootsys.py", "raise AssertionError(f\"coroot of {r} is not integral: \"",
     "build gate: every coroot of a root system is integral"),
    ("rootsys.py", "raise AssertionError(f\"highest root {top} is not coordinatewise maximal\")",
     "build gate: the last positive root is the highest root of every type"),
    ("rootsys.py", "raise AssertionError(f\"{self.cartan_type}: C times the inverse \"",
     "gate: rref inverts every Cartan matrix exactly"),
    ("cli.py", "return False",
     "`_matches_display` is only passed the B, C and F types of the short-diagram suite"),
    ("cli.py", "missed.append(labels)",
     "suite failure branch: only a wrong f4_exclusion misses a diagram"),
    ("cli.py", "bad.append((name, labels_wd, k))",
     "suite failure branch: only a wrong omega_kernel_dim gives a nonzero kernel"),
    ("cli.py", "sys.exit(main())",
     "runs only as `python -m nilorb.cli`, which no test starts"),
]


def statements(path):
    """(line, the lines that count as running it) of every statement of
    one source file that compiles to code."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    out = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or id(node) in docstrings
                or isinstance(node, (ast.Global, ast.Nonlocal))):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno if body else node.end_lineno
        out.append((node.lineno, range(first, last + 1)))
    return out


def run_traced():
    """pytest's exit status and {file name: executed lines of the package}."""
    prefix = str(PACKAGE) + "/"
    hits = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, {Path(k).name: v for k, v in hits.items()}


def main():
    status, hits = run_traced()
    if status:
        print(f"tier-1 exits {status}; reachability not checked")
        return 1
    allowed = {(f, text): why for f, text, why in ALLOWED}
    used = set()
    failures = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        ran = hits.get(path.name, set())
        for lineno, span in sorted(statements(path), key=lambda s: s[0]):
            if ran.intersection(span):
                continue
            key = (path.name, lines[lineno - 1].strip())
            if key in allowed:
                used.add(key)
                continue
            print(f"UNREACHED src/nilorb/{path.name}:{lineno}: {key[1]}")
            failures += 1
    for key in allowed.keys() - used:
        print(f"STALE allowlist entry {key[0]}: {key[1]!r} (reached, or gone)")
        failures += 1
    print(f"{failures} unreached statements or stale entries; "
          f"{len(used)} allowlisted statements unreached")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
