"""The names perfbench/child.py patches must exist in the package.

The benchmark's traced run (--trace 1) wraps functions where they are looked
up and reads lru_cache counters; a refactor that renames or removes one of
them breaks that run. The tables are read from child.py's source, so the
benchmark is neither imported nor changed.
"""

import ast
import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"

# Patched by child.py outside its SETUP and TRACED tables.
OTHER_HOOKS = (
    ("trainer", "train"),
    ("model", "CountLexicon.add"),
    ("model", "CognateModel.total_cost"),
)
CACHES = (("edits", "extract_edits"), ("trainer", "_edit_forms"))


def child_tables():
    tables = {}
    for node in ast.parse(CHILD.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SETUP", "TRACED"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def resolve(module, attr):
    obj = importlib.import_module("cogseg." + module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_patched_name_resolves():
    tables = child_tables()
    assert tables["SETUP"] and tables["TRACED"]
    hooks = list(tables["SETUP"]) + [entry[:2] for entry in tables["TRACED"]]
    for module, attr in hooks + list(OTHER_HOOKS):
        assert callable(resolve(module, attr)), (module, attr)


def test_read_caches_count():
    for module, attr in CACHES:
        info = resolve(module, attr).cache_info()
        assert info.maxsize > 0, (module, attr)
