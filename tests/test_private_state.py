"""No module writes another's private state: in the cogseg package, an
attribute whose name starts with an underscore is read or written only on
self or cls. Dunder attributes are the language's own and stay allowed."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cogseg"


def private_accesses(source):
    """(line, text) of each attribute access x._name with x other than
    self or cls."""
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute):
            continue
        name = node.attr
        if not name.startswith("_") or name.startswith("__") and name.endswith("__"):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in ("self", "cls"):
            continue
        yield node.lineno, ast.unparse(node)


def test_private_attributes_are_used_on_self_or_cls_only():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        "%s:%d: %s" % (path.name, lineno, text)
        for path in sources
        for lineno, text in private_accesses(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_the_check_sees_private_access_through_any_other_name():
    source = "model._pair_by_word[k] = v\nself.lexicons['a']._trie = None\nself._x = cls._y\n"
    assert sorted(line for line, _ in private_accesses(source)) == [1, 2]
    assert list(private_accesses("type(x).__name__\nexc.__cause__\n")) == []
