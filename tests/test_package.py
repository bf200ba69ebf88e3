import ast
from pathlib import Path

import nilorb


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
