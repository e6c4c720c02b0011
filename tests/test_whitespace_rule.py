"""The whitespace rule has one implementation: in the cogseg package, only
errors.py calls str.isspace() or str.isprintable(); every other module asks
errors.holds_whitespace."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cogseg"
RULE_METHODS = ("isspace", "isprintable")


def rule_calls(source):
    """(line, text) of each call x.isspace() or x.isprintable()."""
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in RULE_METHODS
        ):
            yield node.lineno, ast.unparse(node)


def test_only_errors_py_tests_for_whitespace():
    sources = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "errors.py" in sources
    found = [
        "%s:%d: %s" % (path.name, lineno, text)
        for path in sources
        if path.name != "errors.py"
        for lineno, text in rule_calls(path.read_text(encoding="utf-8"))
    ]
    assert found == []
    assert list(rule_calls((PACKAGE / "errors.py").read_text(encoding="utf-8")))


def test_the_check_sees_every_call_of_the_rule():
    source = "ch.isspace()\nany(c.isspace() for c in w)\nw.isprintable()\nw.isdigit()\n"
    assert sorted(line for line, _ in rule_calls(source)) == [1, 2, 3]
