"""Every top-level import in the tests and in pairid is used, checked with ast alone,
no block of three lines and no raise line in pairid is written twice, no
check in pairid is an assert, which python -O strips, only algebra tests
a value's type against a group element or scalar class: everything else asks
GroupSuite.holds, and every code name README.md shows in backticks exists."""

import ast
import re
from pathlib import Path

import pairid

TESTS = Path(__file__).parent
SRC = Path(pairid.__file__).parent
# Imports kept only to re-export a name: the package's public names, and the
# restart payload that session re-exports as part of the wire protocol.
REEXPORTS = {"__init__.py": set(pairid.__all__), "session.py": {"RESTART"}}
# Three-line blocks that may occur more than once, as windows of whitespace-collapsed lines.
REPEATS: set = set()
# Whitespace-collapsed raise lines that may occur more than once.
RAISE_REPEATS: set = set()


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


def _is_code(line: str) -> bool:
    # Blank lines, comments and docstring delimiters are not code.
    return bool(line) and not line.startswith("#") and not line.startswith('"""') and not line.endswith('"""')


def repeated_blocks(sources: dict, allowed: set) -> list:
    """'file:line file:line' for each three-line window that occurs again.

    Lines are compared with whitespace collapsed.  A window counts when each
    of its lines is code and the three hold at least 60 characters together.
    """
    first = {}
    found = []
    for name, source in sources.items():
        lines = [" ".join(line.split()) for line in source.splitlines()]
        for i in range(len(lines) - 2):
            window = tuple(lines[i : i + 3])
            if window in allowed or not all(map(_is_code, window)) or sum(map(len, window)) < 60:
                continue
            if window in first:
                found.append(f"{first[window]} {name}:{i + 1}")
            else:
                first[window] = f"{name}:{i + 1}"
    return found


def test_no_repeated_blocks_in_src():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert repeated_blocks(sources, REPEATS) == []


def test_the_check_finds_repeated_blocks():
    block = "total = first_value + second_value\nscaled = total * factor\nreturn scaled\n"
    short = "a = 1\nb = 2\nreturn a\n"
    broken = "total = first_value + second_value\n# note\nscaled = total * factor\nreturn scaled\n"
    sources = {"a.py": block + short, "b.py": "def f():\n" + block.replace("\n", "\n    ") + short + broken}
    assert repeated_blocks(sources, set()) == ["a.py:1 b.py:2"]
    window = ("total = first_value + second_value", "scaled = total * factor", "return scaled")
    assert repeated_blocks(sources, {window}) == []


def repeated_raises(sources: dict, allowed: set) -> list:
    """'file:line file:line' for each whitespace-collapsed raise line that occurs again."""
    first = {}
    found = []
    for name, source in sources.items():
        for i, line in enumerate(source.splitlines(), start=1):
            line = " ".join(line.split())
            if not line.startswith("raise ") or line in allowed:
                continue
            if line in first:
                found.append(f"{first[line]} {name}:{i}")
            else:
                first[line] = f"{name}:{i}"
    return found


def test_no_raise_written_twice_in_src():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert repeated_raises(sources, RAISE_REPEATS) == []


def test_the_check_finds_repeated_raises():
    twice = 'raise ValueError(f"bad {name}")\n'
    sources = {
        "a.py": "try:\n    f()\nexcept KeyError:\n    raise\n" + twice,
        "b.py": "def g(name):\n    if name:\n        " + twice + "    raise\n    raise  ValueError( 'other' )\n",
    }
    assert repeated_raises(sources, set()) == ["a.py:5 b.py:3"]
    assert repeated_raises(sources, {twice.strip()}) == []


def asserts_in(sources: dict) -> list:
    """'file:line' for each assert statement."""
    return [
        f"{name}:{node.lineno}"
        for name, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
    ]


def test_no_assert_in_src():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert asserts_in(sources) == []


def test_the_check_finds_asserts():
    sources = {
        "a.py": "x = 1\nassert x, 'x is set'\n",
        "b.py": "def f(x):\n    if x:\n        assert x > 0\n    return 'assert x'\n",
    }
    assert asserts_in(sources) == ["a.py:2", "b.py:3"]


# The classes whose isinstance test is GroupSuite.holds's alone.
VALUE_TYPES = {"G1Element", "G2Element", "Scalar"}


def value_type_tests(sources: dict) -> list:
    """'file:line' for each isinstance call whose class argument names a VALUE_TYPES class."""
    found = []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"):
                continue
            named = {n.id if isinstance(n, ast.Name) else n.attr
                     for arg in node.args[1:] for n in ast.walk(arg) if isinstance(n, (ast.Name, ast.Attribute))}
            if named & VALUE_TYPES:
                found.append(f"{name}:{node.lineno}")
    return found


def test_only_algebra_tests_value_types():
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py")) if path.name != "algebra.py"}
    assert value_type_tests(sources) == []


def test_the_check_finds_value_type_tests():
    sources = {
        "a.py": "x = 1\nif isinstance(x, G1Element):\n    pass\n",
        "b.py": "ok = isinstance(v, (bytes, algebra.Scalar))\nisinstance(v, tuple)\nisinstance(Scalar, type)\n",
    }
    assert value_type_tests(sources) == ["a.py:2", "b.py:1"]


README = TESTS.parent / "README.md"
# A backticked span that names code: a dotted name or a call, whose arguments
# are not read, or a snake_case or CamelCase name.  A single word such as
# `prove` or `q` names a command or a symbol as often as code, so it is left out.
NAME_SPAN = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(\(.*\))?")
CODE_WORD = re.compile(r"[a-z][a-z0-9]*(?:_[a-z0-9]+)+|(?:[A-Z][a-z0-9]+){2,}")


def code_names(source: str) -> set:
    """Every name a module reads, binds, defines, imports, or passes as an argument or keyword."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        for field in ("id", "attr", "name", "arg", "asname"):
            value = getattr(node, field, None)
            if isinstance(value, str):
                names.update(value.split("."))
    return names


def missing_readme_names(text: str, names: set) -> list:
    """Each backticked code name in text, in order, whose last part is not in names."""
    missing = []
    for span in re.findall(r"`([^`\n]+)`", text):
        match = NAME_SPAN.fullmatch(span)
        if not match:
            continue
        dotted, call = match.groups()
        last = dotted.rsplit(".", 1)[-1]
        if ("." in dotted or call or CODE_WORD.fullmatch(dotted)) and last not in names:
            missing.append(dotted)
    return missing


def test_readme_names_exist():
    paths = sorted(SRC.glob("*.py"))
    names = {path.stem for path in paths}.union(*(code_names(path.read_text()) for path in paths))
    assert missing_readme_names(README.read_text(), names) == []


def test_the_check_finds_missing_readme_names():
    names = code_names("import os.path\ndef run(kept_name, *, flag=1):\n    return Thing.method\n")
    text = ("Call `mod.run(x, y)` or `gone_helper()`, read `Old.method` and `Thing.gone`, pass `kept_name`, "
            "not `lost_name` or `NewThing`; `prove`, `F_q`, `x*r + w = 0` and `os.path` are fine.\n"
            "```sh\npairid prove\n```\n")
    assert missing_readme_names(text, names) == ["gone_helper", "Thing.gone", "lost_name", "NewThing"]
