"""The names perfbench/child.py patches must exist in the package.

The benchmark's traced run (--trace 1) wraps functions where they are looked
up and reads the edit caches' cache_info() counters: extract_edits and
edit_forms are both functools.lru_cache functions. A refactor that renames
or removes one of them breaks that run. The tables are read from child.py's
source, so the benchmark is neither imported nor changed. The same holds for
every name the benchmark's scripts import from the package, every attribute
they read from an imported package module, and the CognateModel methods they
call.
"""

import ast
import importlib
from pathlib import Path

from cogseg import edits, segmenter, trainer
from cogseg.model import CognateModel

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CHILD = PERFBENCH / "child.py"

# Patched by child.py outside its SETUP and TRACED tables.
OTHER_HOOKS = (
    ("trainer", "train"),
    ("model", "CountLexicon.add"),
    ("model", "CognateModel.total_cost"),
)
CACHES = (("edits", "extract_edits"), ("trainer", "_edit_forms"))
# Called by gen.py on the gold models it builds, and by run.py on the
# trained model it loads.
MODEL_METHODS = ("register_pair", "add_analysis", "total_cost", "recompute_from_scratch",
                 "pair_for")


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


def perfbench_names():
    """(script, dotted name) of each name a perfbench script imports from
    cogseg, and of each attribute read from an imported cogseg module in the
    scope (module or function) that imports it."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for scope in scopes:
            modules = {}
            for node in scope.body:
                module = getattr(node, "module", None) or ""
                if isinstance(node, ast.ImportFrom) and module.split(".")[0] == "cogseg":
                    for alias in node.names:
                        dotted = node.module + "." + alias.name
                        names.add((path.name, dotted))
                        modules[alias.asname or alias.name] = dotted
            for node in ast.walk(scope):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id in modules and isinstance(node.ctx, ast.Load)):
                    names.add((path.name, modules[node.value.id] + "." + node.attr))
    return names


def resolve_dotted(dotted):
    """The object a dotted name refers to, importing submodules on the way;
    None if there is none."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for k, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part):
            try:
                importlib.import_module(".".join(parts[:k]))
            except ModuleNotFoundError:
                return None
        obj = getattr(obj, part)
    return obj


def test_every_name_perfbench_imports_resolves():
    names = perfbench_names()
    assert {("gen.py", "cogseg.model.CognateModel"), ("run.py", "cogseg.trainer.initialize"),
            ("child.py", "cogseg.trainer._edit_forms")} <= names
    for script, dotted in sorted(names):
        assert resolve_dotted(dotted) is not None, (script, dotted)


def test_model_methods_perfbench_calls_exist():
    source = "".join(path.read_text(encoding="utf-8") for path in PERFBENCH.glob("*.py"))
    for name in MODEL_METHODS:
        assert "." + name + "(" in source, name
        assert callable(getattr(CognateModel, name)), name


def test_read_caches_count():
    for module, attr in CACHES:
        info = resolve(module, attr).cache_info()
        assert info.maxsize > 0, (module, attr)


def test_search_reads_the_one_edit_forms_cache():
    # The traced run reads trainer._edit_forms' counters; they must count
    # every edit lookup of the program, not a second cache beside it.
    assert trainer._edit_forms is edits.edit_forms


def test_apply_paths_reach_viterbi_through_the_module(monkeypatch):
    # The traced run counts segmenter.viterbi_segment spans by replacing the
    # module attribute; unseen words must still be segmented through it.
    calls = []

    def fake(lexicon, word):
        calls.append(word)
        return real(lexicon, word)

    real = segmenter.viterbi_segment
    monkeypatch.setattr(segmenter, "viterbi_segment", fake)
    model = CognateModel()
    model.lexicons["a"].add("kala", 2)
    assert list(segmenter.segment_corpus(model, ["kalat kalat\n"], "a")) == [
        "kala@@ t kala@@ t\n"
    ]
    assert calls == ["kalat"]
    result = segmenter.override_source_segmentation(model, CognateModel(), "kalas")
    assert result.morphs == ("kala", "s")
    assert calls == ["kalat", "kalas"]
