"""Every top-level import in the tests and in pairid is used, checked with ast alone."""

import ast
from pathlib import Path

import pairid

TESTS = Path(__file__).parent
SRC = Path(pairid.__file__).parent
# Imports kept only to re-export a name: the package's public names, and the
# restart payload that session re-exports as part of the wire protocol.
REEXPORTS = {"__init__.py": set(pairid.__all__), "session.py": {"RESTART"}}


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


def unused_in(folder: Path, allowed: dict) -> dict:
    """File name to its unused imports, less the names allowed[file name]."""
    found = {}
    for path in sorted(folder.glob("*.py")):
        keep = allowed.get(path.name, set())
        lines = [line for line in unused_imports(path.read_text()) if line.split(": ")[1] not in keep]
        if lines:
            found[path.name] = lines
    return found


def test_no_unused_imports_in_tests():
    assert unused_in(TESTS, {}) == {}


def test_no_unused_imports_in_src():
    assert unused_in(SRC, REEXPORTS) == {}


def test_the_check_finds_unused_names():
    source = "import os.path\nimport sys\nfrom a import b, c as d\nprint(d, sys.argv)\n"
    assert unused_imports(source) == ["1: os", "3: b"]
