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
import io
from pathlib import Path

from cogseg import bpe, cli, edits, segmenter, trainer
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
    assert list(segmenter.segment_source(model, CognateModel(), ["kalas kalas\n"])) == [
        "kala@@ s kala@@ s\n"
    ]
    assert calls == ["kalat", "kalas"]


def test_bpe_apply_reaches_apply_bpe_through_the_module(monkeypatch, tmp_path):
    # The traced run counts bpe.apply_bpe spans by replacing the module
    # attribute; bpe-apply must look it up there, not bind it at import.
    calls = []

    def fake(table, word):
        calls.append(word)
        return real(table, word)

    real = bpe.apply_bpe
    monkeypatch.setattr(bpe, "apply_bpe", fake)
    merges = tmp_path / "merges.txt"
    merges.write_text("k a\nka l\n", encoding="utf-8")
    stdout = io.StringIO()
    monkeypatch.setattr(cli.sys, "stdin", io.StringIO("kala kalat\n"))
    monkeypatch.setattr(cli.sys, "stdout", stdout)
    assert cli.main(["bpe-apply", "--merges", str(merges)]) == 0
    assert stdout.getvalue() == "kal@@ a kal@@ a@@ t\n"
    assert calls == ["kala", "kalat"]


def test_bpe_train_reaches_train_bpe_through_the_module(monkeypatch, tmp_path):
    # The traced run counts bpe.balance_counts and bpe.train_bpe spans by
    # replacing the module attributes; bpe-train must look them up there.
    calls = []

    def fake_balance(tables):
        calls.append("balance_counts")
        return real_balance(tables)

    def fake_train(counts, vocab_size):
        calls.append("train_bpe")
        return real_train(counts, vocab_size)

    real_balance, real_train = bpe.balance_counts, bpe.train_bpe
    monkeypatch.setattr(bpe, "balance_counts", fake_balance)
    monkeypatch.setattr(bpe, "train_bpe", fake_train)
    (tmp_path / "a.tsv").write_text("kala\t3\n", encoding="utf-8")
    (tmp_path / "b.tsv").write_text("kalas\t2\n", encoding="utf-8")
    merges = tmp_path / "merges.txt"
    counts = "%s,%s" % (tmp_path / "a.tsv", tmp_path / "b.tsv")
    assert cli.main(["bpe-train", "--counts", counts, "--vocab", "8", "--out", str(merges)]) == 0
    assert calls == ["balance_counts", "train_bpe"]
    assert merges.read_text(encoding="utf-8") == "a l\nal a\nk ala\n"


def test_setup_commands_reach_the_setup_calls_through_their_modules(monkeypatch, tmp_path):
    # The untraced run's setup_s sums child.py's SETUP timers, which replace
    # the module attributes. train, segment and segment-source must look the
    # set-up calls up there: one bound at import would go untimed and show
    # up as a free setup_s gain.
    calls = []

    def spy(name, real):
        def recorded(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return recorded

    for module, attr in child_tables()["SETUP"]:
        owner = importlib.import_module("cogseg." + module)
        monkeypatch.setattr(owner, attr, spy("%s.%s" % (module, attr), getattr(owner, attr)))
    (tmp_path / "a.txt").write_text("talo talot kala\n", encoding="utf-8")
    (tmp_path / "b.txt").write_text("talu talud kala\n", encoding="utf-8")
    (tmp_path / "pairs.tsv").write_text("talo\ttalu\t3\n", encoding="utf-8")
    model = str(tmp_path / "model")
    assert cli.main(["train", "--corpus-a", str(tmp_path / "a.txt"), "--corpus-b",
                     str(tmp_path / "b.txt"), "--cognates", str(tmp_path / "pairs.tsv"),
                     "--max-epochs", "1", "--out", model]) == 0
    assert calls == ["cli.load_word_counts", "cli.load_word_counts",
                     "cognates.read_pairs_tsv", "trainer.initialize"]
    monkeypatch.setattr(cli.sys, "stdin", io.StringIO("talot\n"))
    monkeypatch.setattr(cli.sys, "stdout", io.StringIO())
    assert cli.main(["segment", "--model", model, "--lang", "a"]) == 0
    assert calls[4:] == ["serialization.load_model"]
    monkeypatch.setattr(cli.sys, "stdin", io.StringIO("talot\n"))
    assert cli.main(["segment-source", "--source-model", model, "--cognate-model", model]) == 0
    assert calls[5:] == ["serialization.load_model"] * 2
