"""Every top-level import in the test files is used, checked with ast alone."""

import ast
from pathlib import Path

TESTS = Path(__file__).parent


def unused_imports(source: str) -> list:
    """'line: name' for each name a top-level import binds and no expression reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unused.append(f"{node.lineno}: {name}")
    return unused


def test_no_unused_imports_in_tests():
    found = {path.name: unused_imports(path.read_text()) for path in sorted(TESTS.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_check_finds_unused_names():
    source = "import os.path\nimport sys\nfrom a import b, c as d\nprint(d, sys.argv)\n"
    assert unused_imports(source) == ["1: os", "3: b"]
