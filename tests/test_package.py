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
