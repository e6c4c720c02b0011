"""The runtime stays on the standard library alone: every absolute import
in the cogseg package names a standard-library module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cogseg"


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = [
        "%s:%d: %s" % (path.name, lineno, module)
        for path in sources
        for lineno, module in absolute_imports(path)
        if module.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
