"""No module of the cogseg package keeps a module-level import it never
uses. A line marked "# noqa: F401" keeps its import on purpose, and the
package's __init__ re-exports what it imports from its own modules."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cogseg"


def unused_imports(source, reexports=False):
    """(line, name) of each name a module-level import binds and the module
    never reads. reexports exempts the relative imports, as in __init__."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or reexports and node.level:
                continue
        elif not isinstance(node, ast.Import):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in used:
                yield node.lineno, name


def test_package_has_no_unused_imports():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        "%s:%d: %s" % (path.name, lineno, name)
        for path in sources
        for lineno, name in unused_imports(path.read_text(encoding="utf-8"),
                                           reexports=path.name == "__init__.py")
    ]
    assert found == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import collections\n"
        "import functools, itertools\n"
        "import os.path\n"
        "from .errors import ContractError as Fail, FormatError\n"
        "from .edits import extract_edits  # noqa: F401\n"
        "\n"
        "@functools.lru_cache\n"
        "def f(x: os.PathLike) -> None:\n"
        "    raise Fail(x)\n"
    )
    assert list(unused_imports(source)) == [
        (2, "collections"), (3, "itertools"), (5, "FormatError")]
    assert list(unused_imports("from .bpe import train_bpe\n", reexports=True)) == []
