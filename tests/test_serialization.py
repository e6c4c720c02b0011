import pytest

from cogseg import edits, model as model_module, trainer
from cogseg.edits import Edit
from cogseg.errors import ContractError, FormatError
from cogseg.model import Analysis, CognateModel, CognatePair, aligned_edit_tokens
from cogseg.serialization import (
    escape_field,
    load_model,
    report_edits,
    save_model,
    unescape_field,
)
from cogseg.trainer import TrainingParams, initialize, train

from test_cli import NOT_INTEGERS


def trained_model(**kwargs):
    params = TrainingParams(rng_seed=1, **kwargs)
    model = initialize(
        {"kalassa": 3, "kala": 9, "ssa": 5, "vesi": 2},
        {"kalas": 3, "kala": 8, "s": 5, "veed": 2},
        [("kalassa", "kalas"), ("vesi", "veed")],
        params,
    )
    train(model, params)
    return model


class TestEscaping:
    @pytest.mark.parametrize(
        "text", ["plain", "with\ttab", "with\nnewline", "back\\slash", "pi|pe", ""]
    )
    def test_roundtrip(self, text):
        escaped = escape_field(text)
        assert "\t" not in escaped and "\n" not in escaped
        assert unescape_field(escaped) == text

    def test_bad_escape_rejected(self):
        with pytest.raises(FormatError):
            unescape_field("dangling\\")
        with pytest.raises(FormatError):
            unescape_field("bad\\q")


class TestRoundTrip:
    def test_save_load_save_byte_identical(self, tmp_path):
        model = trained_model()
        first = tmp_path / "m1"
        second = tmp_path / "m2"
        save_model(model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_escaped_unpaired_word_and_morphs_roundtrip(self, tmp_path):
        model = CognateModel()
        model.register_pair(CognatePair("talo", "talu", 5, 3))
        model.add_analysis(Analysis("talo", ("ta", "lo"), 5), "a")
        model.add_analysis(Analysis("talu", ("ta", "lu"), 3), "b")
        model.add_analysis(Analysis("ka\\la|t", ("ka\\", "la|t"), 2), "a")
        first = tmp_path / "m1"
        second = tmp_path / "m2"
        save_model(model, first)
        assert "ka\\\\la\\|t\t2\tka\\\\ la\\|t\n" in first.read_text(encoding="utf-8")
        loaded = load_model(first)
        assert loaded.analyses == model.analyses
        assert loaded.lexicons["a"].counts == model.lexicons["a"].counts
        save_model(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_empty_model_roundtrips(self, tmp_path):
        path = tmp_path / "empty"
        save_model(CognateModel(), path)
        loaded = load_model(path)
        assert loaded.total_cost() == 0.0
        assert loaded.analyses == {"a": {}, "b": {}}

    def test_cost_and_analyses_preserved(self, tmp_path):
        model = trained_model()
        path = tmp_path / "model"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.total_cost() == pytest.approx(model.total_cost(), rel=1e-9)
        assert loaded.analyses == model.analyses
        assert loaded.alpha == model.alpha
        assert loaded.edit_weight == model.edit_weight
        assert loaded.recompute_from_scratch() == pytest.approx(
            model.total_cost(), rel=1e-9
        )

    def test_count_only_mode_preserved(self, tmp_path):
        model = trained_model(edit_mode="count-only")
        path = tmp_path / "model"
        save_model(model, path)
        assert load_model(path).edit_mode == "count-only"

    def test_defaults_recorded_in_header(self, tmp_path):
        model = trained_model()
        path = tmp_path / "model"
        save_model(model, path)
        header = path.read_text(encoding="utf-8").splitlines()[:6]
        assert "alpha 0.01" in header
        assert "edit-weight 10.0" in header

    def test_non_default_header_lines(self, tmp_path):
        model = CognateModel(
            alpha=0.25, edit_weight=3.0, edit_mode="count-only", seed=7, dampening="log"
        )
        path = tmp_path / "model"
        save_model(model, path)
        assert path.read_text(encoding="utf-8").splitlines()[:6] == [
            "cogseg-model 1",
            "alpha 0.25",
            "edit-weight 3.0",
            "edit-mode count-only",
            "seed 7",
            "dampening log",
        ]

    def test_int_alpha_written_as_int(self, tmp_path):
        path = tmp_path / "model"
        save_model(CognateModel(alpha=1), path)
        assert path.read_text(encoding="utf-8").splitlines()[1] == "alpha 1"
        assert load_model(path).alpha == 1.0

    @pytest.mark.parametrize("seed", [1.5, 7.0, "7", True])
    def test_non_int_seed_rejected(self, seed):
        with pytest.raises(ContractError):
            CognateModel(seed=seed)


class TestValidation:
    def make_file(self, tmp_path):
        model = CognateModel()
        model.register_pair(CognatePair("talo", "talu", 5, 3))
        model.add_analysis(Analysis("talo", ("ta", "lo"), 5), "a")
        model.add_analysis(Analysis("talu", ("ta", "lu"), 3), "b")
        path = tmp_path / "model"
        save_model(model, path)
        return path

    def test_corrupted_count_rejected_with_line(self, tmp_path):
        path = self.make_file(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        index = next(i for i, l in enumerate(lines) if l.startswith("ta\t"))
        lines[index] = "ta\tbroken"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert ":%d" % (index + 1) in str(err.value)

    @NOT_INTEGERS
    @pytest.mark.parametrize(
        "row, field", [("ta\t5", 1), ("o|u\t1", 1), ("talo\ttalu\t5\t3", 3), ("talo\t5\t", 1)],
        ids=["lexicon", "edits", "pairs", "analyses"],
    )
    def test_loose_integer_count_rejected_at_its_line(self, tmp_path, row, field, text):
        path = self.make_file(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        index = next(i for i, l in enumerate(lines) if l.startswith(row))
        fields = lines[index].split("\t")
        fields[field] = text
        lines[index] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert str(err.value) == "%s:%d: bad integer %r" % (path, index + 1, text)

    @NOT_INTEGERS
    def test_loose_integer_seed_rejected_at_its_line(self, tmp_path, text):
        path = self.make_file(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        index = lines.index("seed 0")
        lines[index] = "seed " + text
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert str(err.value) == "%s:%d: bad header field 'seed' (bad integer %r)" % (
            path, index + 1, text)

    @pytest.mark.parametrize(
        "row, escaped, text",
        [("talo\t5\tta lo", "talo\t5\tta\\q lo", "ta\\q"), ("ta\t5", "ta\\q\t5", "ta\\q")],
        ids=["analyses-a", "lexicon-a"],
    )
    def test_bad_escape_rejected_at_its_line(self, tmp_path, row, escaped, text):
        path = self.make_file(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        index = lines.index(row)
        lines[index] = escaped
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert str(err.value) == "%s:%d: bad escape in %r" % (path, index + 1, text)

    @pytest.mark.parametrize(
        "key, value",
        [("alpha", "nan"), ("alpha", "x"), ("edit-weight", "inf"), ("edit-mode", "loose"),
         ("seed", "x"), ("dampening", "loose")],
    )
    def test_bad_header_field_rejected_at_its_line(self, tmp_path, key, value):
        path = self.make_file(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        index = next(i for i, l in enumerate(lines) if l.startswith(key + " "))
        lines[index] = "%s %s" % (key, value)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert str(err.value).startswith("%s:%d: bad header field %r" % (path, index + 1, key))

    @pytest.mark.parametrize(
        "extra, reason",
        [("alhpa 0.5", "unknown header field 'alhpa'"),
         ("alpha 0.5", "repeated header field 'alpha'")],
    )
    def test_unknown_or_repeated_header_field_rejected(self, tmp_path, extra, reason):
        # The extra line follows the last header field. Unchecked, the
        # misspelled key would load at the file's alpha (0.01), and the
        # repeated one would silently win.
        path = self.make_file(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        index = lines.index("[LEXICON-A]")
        lines.insert(index, extra)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert str(err.value) == "%s:%d: %s" % (path, index + 1, reason)

    @pytest.mark.parametrize(
        "section, row", [("LEXICON-A", "ta\t5"), ("LEXICON-B", "ta\t3"), ("EDITS", "o|u\t1")]
    )
    def test_repeated_lexicon_row_rejected_at_its_line(self, tmp_path, section, row):
        path = self.make_file(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        start = lines.index("[%s]" % section)
        index = lines.index(row, start) + 1
        lines.insert(index, row)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert str(err.value).startswith("%s:%d: repeated row" % (path, index + 1))

    @pytest.mark.parametrize(
        "row, reason",
        [("talo\ttaluu\t5\t3", "pair word 'taluu' has no analysis in b"),
         ("talo\ttalu\t4\t3", "pair count 4 disagrees with analysis count 5 for 'talo'")],
        ids=["no-analysis", "count"],
    )
    def test_pair_disagreeing_with_analyses_rejected_at_its_row(self, tmp_path, row, reason):
        path = self.make_file(tmp_path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[15] == "talo\ttalu\t5\t3"
        path.write_text(text.replace("talo\ttalu\t5\t3", row), encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert str(err.value) == "%s:16: %s" % (path, reason)

    def test_pair_with_unequal_morph_counts_rejected_at_its_row(self, tmp_path):
        path = self.make_file(tmp_path)
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[15] == "talo\ttalu\t5\t3"
        path.write_text(text.replace("talu\t3\tta lu", "talu\t3\ttalu"), encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert str(err.value) == (
            "%s:16: cognate analyses must have equal morph counts: ('ta', 'lo') / ('talu',)"
            % path
        )

    @pytest.mark.parametrize(
        "counts, remove, reason",
        [((2, 2), "talo", "pair word 'talo' has no analysis in a"),
         ((4, 3), None, "pair count 4 disagrees with analysis count 5 for 'talo'")],
        ids=["no-analysis", "count"],
    )
    def test_save_refuses_a_pair_that_load_rejects(self, tmp_path, counts, remove, reason):
        # save_model runs the check load_model runs on each [PAIRS] row, and
        # writes nothing when a pair fails it.
        model = CognateModel()
        model.register_pair(CognatePair("talo", "talu", *counts))
        model.add_analysis(Analysis("talo", ("talo",), 5 if remove is None else 2), "a")
        model.add_analysis(Analysis("talu", ("talu",), 3 if remove is None else 2), "b")
        if remove:
            model.remove_analysis(remove, "a")
        path = tmp_path / "model"
        with pytest.raises(ContractError) as err:
            save_model(model, path)
        assert str(err.value) == reason
        assert not path.exists()

    def test_pair_edit_holding_the_edit_boundary_rejected(self, tmp_path):
        path = self.make_file(tmp_path)
        text = path.read_text(encoding="utf-8")
        text = text.replace("talo\ttalu\t5\t3", "talo\tta\\|u\t5\t3")
        path.write_text(text.replace("talu\t3\tta lu", "ta\\|u\t3\tta \\|u"),
                        encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert str(err.value) == "%s: edit sides may not contain '|'" % path

    def test_lexicon_disagreeing_with_analyses_rejected(self, tmp_path):
        path = self.make_file(tmp_path)
        text = path.read_text(encoding="utf-8")
        assert "ta\t5" in text
        path.write_text(text.replace("ta\t5", "ta\t6", 1), encoding="utf-8")
        with pytest.raises(FormatError):
            load_model(path)

    def test_bad_concatenation_rejected(self, tmp_path):
        path = self.make_file(tmp_path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("talo\t5\tta lo", "talo\t5\tta la"), encoding="utf-8")
        with pytest.raises(FormatError):
            load_model(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = self.make_file(tmp_path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("cogseg-model 1", "cogseg-model 99"), encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_model(path)
        assert "version" in str(err.value)

    @pytest.mark.parametrize(
        "old, new, line, reason",
        # new None empties the file; line None is an error of no one line.
        [("", None, 1, "empty model file"),
         ("cogseg-model 1\n", "morfessor-model 1\n", 1, "not a cogseg-model file"),
         ("seed 0\n", "seed\n", 5, "bad header line 'seed'"),
         ("seed 0\n", "", 6, "missing header field 'seed'"),
         ("[EDITS]\n", "[EDIT]\n", 13, "unknown section 'EDIT'"),
         ("[LEXICON-B]\n", "[LEXICON-A]\n", 10, "duplicate section 'LEXICON-A'"),
         ("[LEXICON-A]\n", "[LEXICON-A\n", 7, "data before first section"),
         ("talo\t5\tta lo\n", "talo\t5\n", 18, "analysis rows need 3 fields"),
         ("\nlo\t5\n", "\n", None, "[LEXICON-A] is missing entries (e.g. ['lo'])")],
        ids=["empty", "not-a-model", "header-line", "missing-header", "unknown-section",
             "duplicate-section", "data-before-section", "field-count", "missing-entries"],
    )
    def test_malformed_file_rejected_at_its_line(self, tmp_path, old, new, line, reason):
        path = self.make_file(tmp_path)
        text = path.read_text(encoding="utf-8")
        text = "" if new is None else text.replace(old, new, 1)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_model(path)
        where = str(path) if line is None else "%s:%d" % (path, line)
        assert str(err.value) == "%s: %s" % (where, reason)

    def test_missing_section_rejected(self, tmp_path):
        path = self.make_file(tmp_path)
        text = path.read_text(encoding="utf-8").replace("[PAIRS]\n", "")
        # removing the section header leaves its rows dangling in [EDITS]
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FormatError):
            load_model(path)

    def test_hand_written_minimal_fixture(self, tmp_path):
        path = tmp_path / "minimal"
        path.write_text(
            "cogseg-model 1\n"
            "alpha 0.5\n"
            "edit-weight 2.0\n"
            "edit-mode full\n"
            "seed 7\n"
            "dampening none\n"
            "[LEXICON-A]\n"
            "lo\t5\n"
            "ta\t5\n"
            "[LEXICON-B]\n"
            "lu\t3\n"
            "ta\t3\n"
            "[EDITS]\n"
            "o|u\t1\n"
            "[PAIRS]\n"
            "talo\ttalu\t5\t3\n"
            "[ANALYSES-A]\n"
            "talo\t5\tta lo\n"
            "[ANALYSES-B]\n"
            "talu\t3\tta lu\n",
            encoding="utf-8",
        )
        model = load_model(path)
        assert model.alpha == 0.5
        assert model.seed == 7
        assert model.analyses["a"]["talo"].morphs == ("ta", "lo")
        assert model.edit_lexicon.counts == {"o|u": 1}
        model.recompute_from_scratch()


class TestReportEdits:
    def test_sorted_by_descending_count(self):
        model = CognateModel()
        model.edit_lexicon.add(Edit("o", "u").form, 3)
        model.edit_lexicon.add(Edit("", "n").form, 7)
        rows = report_edits(model, top_k=10)
        assert [(e.lhs, e.rhs, c) for e, c in rows] == [("", "n", 7), ("o", "u", 3)]

    def test_top_k_truncates_and_overshoots(self):
        model = trained_model()
        full = report_edits(model, top_k=10_000)
        assert len(full) == model.edit_lexicon.types
        assert len(report_edits(model, top_k=1)) == min(1, len(full))

    def test_direction_reversal(self):
        model = CognateModel()
        model.edit_lexicon.add(Edit("d", "t").form, 2)
        rows = report_edits(model, top_k=5, direction="ba")
        assert [(e.lhs, e.rhs) for e, _ in rows] == [("t", "d")]

    def test_counts_match_pair_recount(self):
        model = trained_model()
        recount = {}
        for pair in model.pairs:
            analyses = model.analyses["a"][pair.word_a], model.analyses["b"][pair.word_b]
            for form in aligned_edit_tokens(*analyses):
                recount[form] = recount.get(form, 0) + 1
        reported = {e.form: c for e, c in report_edits(model, top_k=10_000)}
        assert reported == recount


def test_edits_are_counted_through_edit_forms_alone(tmp_path, monkeypatch):
    # One edit path: the search, the pair bookkeeping, the recount and the
    # loader all count edits from edits.edit_forms, never from the
    # positioned scripts of extract_edits.
    def refuse(*args):
        raise AssertionError("extract_edits called with %r" % (args,))

    for module in (edits, model_module, trainer):
        monkeypatch.setattr(module, "extract_edits", refuse)
    model = trained_model()
    assert model.edit_lexicon.types > 0
    path = tmp_path / "model"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.edit_lexicon.counts == model.edit_lexicon.counts
    assert loaded.recompute_from_scratch() == model.recompute_from_scratch()


def test_load_counts_with_one_recount(tmp_path, monkeypatch):
    # Loading counts each analysis in through the bulk recount, never
    # through CountLexicon.add, and aligns each distinct morph pair once.
    model = trained_model()
    path = tmp_path / "model"
    save_model(model, path)
    adds = []
    real_add = model_module.CountLexicon.add
    monkeypatch.setattr(model_module.CountLexicon, "add",
                        lambda self, form, delta: adds.append(form) or real_add(self, form, delta))
    edits.edit_forms.cache_clear()
    loaded = load_model(path)
    assert adds == []
    morph_pairs = {
        morphs
        for pair in model.pairs
        for morphs in zip(model.analyses["a"][pair.word_a].morphs,
                          model.analyses["b"][pair.word_b].morphs)
    }
    assert len(morph_pairs) > 1
    assert edits.edit_forms.cache_info().misses == len(morph_pairs)
    assert loaded.total_cost() == loaded.recompute_from_scratch()
    assert loaded.total_cost() == pytest.approx(model.total_cost(), rel=1e-12)
