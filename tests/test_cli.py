import io
import json

import pytest

from cogseg import cli
from cogseg.errors import CogsegError, FormatError, parse_int, parse_positive
from cogseg.serialization import load_model


def run_cli(argv, stdin_text="", monkeypatch=None):
    assert monkeypatch is not None
    if isinstance(stdin_text, bytes):
        stdin = io.TextIOWrapper(io.BytesIO(stdin_text), encoding="utf-8", newline="\n")
    else:
        stdin = io.StringIO(stdin_text)
    stdout = io.StringIO()
    stderr = io.StringIO()
    monkeypatch.setattr(cli.sys, "stdin", stdin)
    monkeypatch.setattr(cli.sys, "stdout", stdout)
    monkeypatch.setattr(cli.sys, "stderr", stderr)
    code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


# Text that int() takes but a count file must not hold: only an optional
# "-" and ASCII digits make an integer.
NOT_INTEGERS = pytest.mark.parametrize(
    "text", ["1_000", " 7", "+3", "\u0663", "\uff17"],
    ids=["underscore", "space", "plus", "arabic-indic", "fullwidth"],
)


@NOT_INTEGERS
def test_parse_int_rejects_what_only_int_takes(text):
    with pytest.raises(FormatError) as err:
        parse_int(text, "t.tsv", 4)
    assert str(err.value) == "t.tsv:4: bad integer %r" % text


@pytest.mark.parametrize("text, value", [("0", 0), ("-4", -4), ("0012", 12), ("-0", 0)])
def test_parse_int_reads_plain_integers(text, value):
    assert parse_int(text, "t.tsv", 1) == value


def test_crlf_count_table_loads(tmp_path):
    # Text files are read with universal newlines, so no count keeps a "\r".
    path = tmp_path / "c.tsv"
    path.write_bytes(b"kala\t10\r\nvesi\t3\r\n")
    assert cli.load_count_table(path) == {"kala": 10, "vesi": 3}


@pytest.mark.parametrize("text", ["0", "-4"])
def test_non_positive_count_keeps_its_error(text):
    with pytest.raises(FormatError) as err:
        parse_positive(text, "t.tsv", 2)
    assert str(err.value) == "t.tsv:2: count must be positive, got %s" % text


def error_payload(code, err):
    """The one JSON line a failing command writes to stderr."""
    assert code == 1
    assert err.endswith("\n") and err.count("\n") == 1, err
    return json.loads(err)


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "a.txt").write_text(
        "kalassa on kala kala\nkalassa ssa ssa kala vesi\nkala ssa vesi\n",
        encoding="utf-8",
    )
    (tmp_path / "b.txt").write_text(
        "kalas on kala\nkalas s s kala veed\nkala s kala veed\n", encoding="utf-8"
    )
    (tmp_path / "cognates.tsv").write_text(
        "kalassa\tkalas\t4\nvesi\tveed\t3\n", encoding="utf-8"
    )
    return tmp_path


def train_model(workspace, monkeypatch, extra=()):
    model_path = workspace / "model"
    code, _, err = run_cli(
        [
            "train",
            "--corpus-a", str(workspace / "a.txt"),
            "--corpus-b", str(workspace / "b.txt"),
            "--cognates", str(workspace / "cognates.tsv"),
            "--seed", "3",
            "--out", str(model_path),
            *extra,
        ],
        monkeypatch=monkeypatch,
    )
    assert code == 0, err
    return model_path


class TestTrainCommand:
    def test_defaults_recorded(self, workspace, monkeypatch):
        model_path = train_model(workspace, monkeypatch)
        text = model_path.read_text(encoding="utf-8")
        assert "alpha 0.01" in text
        assert "edit-weight 10.0" in text
        assert "edit-mode full" in text

    def test_flag_overrides(self, workspace, monkeypatch):
        model_path = train_model(
            workspace, monkeypatch,
            extra=["--alpha", "0.5", "--edit-weight", "2", "--edit-mode", "count-only"],
        )
        model = load_model(model_path)
        assert model.alpha == 0.5
        assert model.edit_weight == 2.0
        assert model.edit_mode == "count-only"

    def test_config_file_precedence(self, workspace, monkeypatch):
        config = workspace / "config.json"
        config.write_text(json.dumps({"alpha": 0.25, "seed": 9}), encoding="utf-8")
        model_path = workspace / "model"
        code, _, err = run_cli(
            [
                "train",
                "--corpus-a", str(workspace / "a.txt"),
                "--corpus-b", str(workspace / "b.txt"),
                "--cognates", str(workspace / "cognates.tsv"),
                "--config", str(config),
                "--seed", "3",
                "--out", str(model_path),
            ],
            monkeypatch=monkeypatch,
        )
        assert code == 0, err
        model = load_model(model_path)
        assert model.alpha == 0.25  # from config file
        assert model.seed == 3  # flag beats config

    def test_deterministic_output_bytes(self, workspace, monkeypatch):
        first = train_model(workspace, monkeypatch).read_bytes()
        second = train_model(workspace, monkeypatch).read_bytes()
        assert first == second

    def test_reserved_characters_rejected(self, workspace, monkeypatch):
        (workspace / "bad.txt").write_text("kala ka|la\n", encoding="utf-8")
        code, _, err = run_cli(
            [
                "train",
                "--corpus-a", str(workspace / "bad.txt"),
                "--corpus-b", str(workspace / "b.txt"),
                "--out", str(workspace / "model"),
            ],
            monkeypatch=monkeypatch,
        )
        assert code == 1
        payload = json.loads(err)
        assert "reserved" in payload["message"]


class TestLoadWordCounts:
    def test_first_offending_token_in_file_order_wins(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("kala\nkala x@@ a|b\nc|d\n", encoding="utf-8")
        with pytest.raises(CogsegError) as err:
            cli.load_word_counts(path)
        assert str(err.value) == "token 'x@@' contains reserved '@@'"

    def test_offending_token_wins_over_a_later_line_that_fails_to_decode(self, tmp_path):
        # The bad bytes lie far past the first lines, beyond what the
        # reader decodes before it meets the offending token.
        path = tmp_path / "c.txt"
        path.write_bytes(b"kala a|b\n" + b"kala on\n" * 20000 + b"\xff\n")
        with pytest.raises(CogsegError) as err:
            cli.load_word_counts(path)
        assert not isinstance(err.value, FormatError)
        assert str(err.value) == "token 'a|b' contains reserved '|'"
        path.write_bytes(b"kala\n" * 20000 + b"\xff\n" + b"a|b\n")
        with pytest.raises(FormatError) as err:
            cli.load_word_counts(path)
        assert "not UTF-8" in str(err.value)


class TestTrainMono:
    def test_trains_and_segments(self, workspace, monkeypatch):
        model_path = workspace / "mono"
        code, _, err = run_cli(
            ["train-mono", "--corpus", str(workspace / "a.txt"), "--alpha", "0.3",
             "--out", str(model_path)],
            monkeypatch=monkeypatch,
        )
        assert code == 0, err
        model = load_model(model_path)
        assert model.alpha == 0.3
        assert model.analyses["b"] == {}


class TestSegmentCommands:
    def test_segment_roundtrip(self, workspace, monkeypatch):
        model_path = train_model(workspace, monkeypatch)
        text = "kalassa on kala\nvesi kala\n\ntundmatu\n"
        code, out, err = run_cli(
            ["segment", "--model", str(model_path), "--lang", "a"],
            stdin_text=text,
            monkeypatch=monkeypatch,
        )
        assert code == 0, err
        restored = "".join(
            line.replace("@@ ", "") + "\n" for line in out.splitlines()
        )
        assert restored == text

    def test_segment_uses_stored_analyses(self, workspace, monkeypatch):
        model_path = train_model(workspace, monkeypatch)
        model = load_model(model_path)
        morphs = model.analyses["a"]["kalassa"].morphs
        code, out, _ = run_cli(
            ["segment", "--model", str(model_path), "--lang", "a"],
            stdin_text="kalassa\n",
            monkeypatch=monkeypatch,
        )
        assert out.rstrip("\n").replace("@@", "") == " ".join(morphs).replace(" ", " ")
        assert out.rstrip("\n").replace("@@ ", "") == "kalassa"
        assert len(out.rstrip("\n").split(" ")) == len(morphs)

    def test_segment_source_override(self, workspace, monkeypatch):
        cognate_path = train_model(workspace, monkeypatch)
        (workspace / "en.txt").write_text(
            "walking kala talking walking\n", encoding="utf-8"
        )
        source_path = workspace / "source"
        code, _, err = run_cli(
            ["train-mono", "--corpus", str(workspace / "en.txt"),
             "--out", str(source_path)],
            monkeypatch=monkeypatch,
        )
        assert code == 0, err
        cognate_model = load_model(cognate_path)
        target_morphs = cognate_model.analyses["a"]["kalassa"].morphs
        code, out, err = run_cli(
            ["segment-source", "--source-model", str(source_path),
             "--cognate-model", str(cognate_path)],
            stdin_text="kalassa walking\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0, err
        emitted = out.rstrip("\n").split(" ")
        assert emitted[: len(target_morphs)] == [
            m + "@@" for m in target_morphs[:-1]
        ] + [target_morphs[-1]]

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("kalassa\tkala kalassa\n", "kalassa\tkala kala@@ ssa\n"),
            ("kalassa\u00a0kala kalassa\n", "kalassa\u00a0kala kala@@ ssa\n"),
            ("kala\rssa kalassa\n", "kala\rssa kala@@ ssa\n"),
            ("kalassa on\r\nvesi kalassa\r\n", "kala@@ ssa on\r\nvesi kala@@ ssa\r\n"),
        ],
        ids=["tab", "no-break-space", "lone-cr", "crlf"],
    )
    def test_segment_whitespace_inside_token(self, workspace, monkeypatch, text, expected):
        model_path = train_model(workspace, monkeypatch)
        code, out, err = run_cli(
            ["segment", "--model", str(model_path), "--lang", "a"],
            stdin_text=text,
            monkeypatch=monkeypatch,
        )
        assert (code, err) == (0, "")
        assert out == expected
        assert out.replace("@@ ", "") == text

    def test_prep_tag(self, workspace, monkeypatch):
        code, out, _ = run_cli(
            ["prep-tag", "--lang", "et"], stdin_text="tere\n\n", monkeypatch=monkeypatch
        )
        assert code == 0
        assert out == "<to_et> tere\n<to_et> \n"

    def test_prep_tag_keeps_each_line_terminator(self, workspace, monkeypatch):
        code, out, _ = run_cli(
            ["prep-tag", "--lang", "et"], stdin_text="tere\r\nmaa", monkeypatch=monkeypatch
        )
        assert code == 0
        assert out == "<to_et> tere\r\n<to_et> maa"

    def test_prep_tag_unknown_language(self, workspace, monkeypatch):
        # The language is checked before the first line is read, so empty
        # input is rejected too.
        for stdin_text in ("tere\n", ""):
            code, out, err = run_cli(
                ["prep-tag", "--lang", "xx"], stdin_text=stdin_text, monkeypatch=monkeypatch
            )
            assert error_payload(code, err)["error"] == "ContractError"
            assert out == ""

    @pytest.mark.parametrize(
        "lang, targets", [("fi-x", "fi-x,et"), ("", ",et"), ("fö", "fö,et")],
        ids=["hyphen", "empty", "non-ascii"],
    )
    def test_prep_tag_rejects_a_tag_the_apply_commands_split(self, workspace, monkeypatch,
                                                             lang, targets):
        # segment passes a token through whole only if it matches
        # TAG_PATTERN, so prep-tag must not write any other "<to_...>".
        code, out, err = run_cli(
            ["prep-tag", "--lang", lang, "--targets", targets], stdin_text="tere\n",
            monkeypatch=monkeypatch,
        )
        assert error_payload(code, err)["error"] == "ContractError"
        assert out == ""


def train_merges(workspace, monkeypatch):
    (workspace / "c1.tsv").write_text("kala\t10\nkalassa\t4\n", encoding="utf-8")
    (workspace / "c2.tsv").write_text("kalas\t5\n", encoding="utf-8")
    merges = workspace / "merges.txt"
    code, _, err = run_cli(
        ["bpe-train", "--counts", "%s,%s" % (workspace / "c1.tsv", workspace / "c2.tsv"),
         "--vocab", "12", "--out", str(merges)],
        monkeypatch=monkeypatch,
    )
    assert code == 0, err
    return merges


class TestBpeCommands:
    def test_train_and_apply(self, workspace, monkeypatch):
        merges = train_merges(workspace, monkeypatch)
        code, out, err = run_cli(
            ["bpe-apply", "--merges", str(merges)],
            stdin_text="kalassa töö-aeg\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0, err
        assert out.rstrip("\n").replace("@@ ", "") == "kalassa töö-aeg"

    def test_apply_passes_tags_and_whitespace_tokens(self, workspace, monkeypatch):
        merges = train_merges(workspace, monkeypatch)
        text = "<to_et> kalassa kala\tkala\n"
        code, out, err = run_cli(
            ["bpe-apply", "--merges", str(merges)], stdin_text=text, monkeypatch=monkeypatch
        )
        assert code == 0, err
        assert out.startswith("<to_et> kala")
        assert out.endswith(" kala\tkala\n")
        assert out.replace("@@ ", "") == text


class TestPartialOutput:
    """An error at line N leaves stdout holding exactly lines 1..N-1.

    Line 3 holds the first occurrence of a token whose rendering has a
    morph containing the joiner; lines 1-2 render on their own.
    """

    def check(self, monkeypatch, argv, bad_token):
        good = "kala on\nvesi kala\n"
        code, expected, err = run_cli(argv, stdin_text=good, monkeypatch=monkeypatch)
        assert (code, err) == (0, ""), err
        assert expected.count("\n") == 2
        text = good + "on %s\n%s kala\n" % (bad_token, bad_token)
        code, out, err = run_cli(argv, stdin_text=text, monkeypatch=monkeypatch)
        assert error_payload(code, err)["error"] == "ContractError"
        assert out == expected

    def test_segment(self, workspace, monkeypatch):
        model_path = train_model(workspace, monkeypatch)
        assert load_model(model_path).analyses["a"]["kalassa"].morphs == ("kala", "ssa")
        argv = ["segment", "--model", str(model_path), "--lang", "a", "--joiner", "al"]
        self.check(monkeypatch, argv, "kalassa")

    def test_segment_source(self, workspace, monkeypatch):
        model_path = train_model(workspace, monkeypatch)
        argv = ["segment-source", "--source-model", str(model_path),
                "--cognate-model", str(model_path), "--joiner", "al"]
        self.check(monkeypatch, argv, "kalassa")

    def test_bpe_apply(self, workspace, monkeypatch):
        merges = workspace / "merges.txt"
        merges.write_text("@ @\n", encoding="utf-8")
        self.check(monkeypatch, ["bpe-apply", "--merges", str(merges)], "a@@b")


class TestUndecodableInput:
    """A line that is not UTF-8 is reported by its number, but the text
    stream decodes a whole chunk (8 KiB) ahead of the lines it hands out,
    so stdout keeps only the whole lines of the chunks decoded before it."""

    def run(self, workspace, monkeypatch, data):
        merges = workspace / "merges.txt"
        merges.write_text("t e\n", encoding="utf-8")
        argv = ["bpe-apply", "--merges", str(merges)]
        return run_cli(argv, stdin_text=data, monkeypatch=monkeypatch)

    def test_bad_line_in_first_chunk_leaves_nothing(self, workspace, monkeypatch):
        data = b"tere maailm\nteine rida\n\xff\xfe katki\nneljas\n"
        code, out, err = self.run(workspace, monkeypatch, data)
        assert error_payload(code, err)["message"].startswith("line 3: ")
        assert out == ""

    def test_bad_line_after_first_chunk_leaves_whole_lines(self, workspace, monkeypatch):
        good = "".join("rida %d tere maailm\n" % n for n in range(1000)).encode("utf-8")
        assert len(good) > 8192
        code, clean, err = self.run(workspace, monkeypatch, good + b" katki\nneljas\n")
        assert (code, err) == (0, "")
        code, out, err = self.run(workspace, monkeypatch, good + b"\xff katki\nneljas\n")
        assert error_payload(code, err)["message"].startswith("line 1001: ")
        assert out and out.endswith("\n") and clean.startswith(out)


class TestReportCommand:
    def test_report_edits_output(self, workspace, monkeypatch):
        model_path = train_model(workspace, monkeypatch)
        code, out, err = run_cli(
            ["report-edits", "--model", str(model_path), "--top", "30"],
            monkeypatch=monkeypatch,
        )
        assert code == 0, err
        lines = [l for l in out.splitlines() if l]
        counts = [int(l.split("\t")[1]) for l in lines]
        assert counts == sorted(counts, reverse=True)

    def test_direction_flag(self, workspace, monkeypatch):
        model_path = train_model(workspace, monkeypatch)
        _, ab, _ = run_cli(
            ["report-edits", "--model", str(model_path), "--direction", "ab"],
            monkeypatch=monkeypatch,
        )
        _, ba, _ = run_cli(
            ["report-edits", "--model", str(model_path), "--direction", "ba"],
            monkeypatch=monkeypatch,
        )
        if ab:
            left_ab = ab.splitlines()[0].split("\t")[0].split("→")
            left_ba = ba.splitlines()[0].split("\t")[0].split("→")
            assert left_ab == left_ba[::-1]


class TestErrors:
    @pytest.mark.parametrize(
        "argv",
        [["train-mono", "--corpus", "a.txt", "--max-epochs", "abc", "--out", "m"],
         ["train-mono", "--corpus", "a.txt", "--out", "m", "--no-such-flag"],
         ["train-mono", "--corpus", "a.txt"],
         ["segment", "--model", "model", "--lang", "c"],
         ["no-such-command"],
         ["report-edits", "--model", "model", "--top", "-2"],
         ["report-edits", "--model", "model", "--top", "0"],
         ["extract-cognates", "--pairs", "cognates.tsv", "--out", "o", "--min-count", "0"],
         ["extract-cognates", "--pairs", "cognates.tsv", "--out", "o", "--short-len", "-1"]],
        ids=["bad-int", "unknown-flag", "missing-out", "bad-choice", "unknown-command",
             "negative-top", "zero-top", "zero-min-count", "negative-short-len"],
    )
    def test_usage_error_is_one_json_line(self, workspace, monkeypatch, argv):
        # Every file named exists, so only the command line is at fault.
        train_model(workspace, monkeypatch)
        argv = [str(workspace / a) if (workspace / a).is_file() else a for a in argv]
        code, out, err = run_cli(argv, monkeypatch=monkeypatch)
        payload = error_payload(code, err)
        assert payload["error"] == "UsageError"
        assert out == ""
        assert not (workspace / "m").exists() and not (workspace / "o").exists()

    @pytest.mark.parametrize("argv", [["--help"], ["train-mono", "--help"]],
                             ids=["top", "subcommand"])
    def test_help_prints_usage_and_exits_0(self, monkeypatch, argv):
        with pytest.raises(SystemExit) as exit_info:
            run_cli(argv, monkeypatch=monkeypatch)
        assert exit_info.value.code == 0
        assert cli.sys.stdout.getvalue().startswith("usage: cogseg")
        assert cli.sys.stderr.getvalue() == ""

    def test_missing_file_is_machine_readable(self, workspace, monkeypatch):
        code, _, err = run_cli(
            ["segment", "--model", str(workspace / "nope"), "--lang", "a"],
            monkeypatch=monkeypatch,
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] in ("FileNotFoundError", "OSError")

    def test_extract_cognates_cli(self, workspace, monkeypatch):
        out_path = workspace / "out.tsv"
        (workspace / "aligned.tsv").write_text(
            "kuuluvus\tkuuluvuus\t3\ntalu\ttalo\t9\nisa!\tisä\t5\n", encoding="utf-8"
        )
        code, _, err = run_cli(
            ["extract-cognates", "--pairs", str(workspace / "aligned.tsv"),
             "--out", str(out_path)],
            monkeypatch=monkeypatch,
        )
        assert code == 0, err
        assert out_path.read_text(encoding="utf-8") == "kuuluvus\tkuuluvuus\t3\n"

    def test_bad_count_in_table(self, workspace, monkeypatch):
        table = workspace / "c1.tsv"
        table.write_text("kala\t10\nkalassa\tfour\n", encoding="utf-8")
        code, _, err = run_cli(
            ["bpe-train", "--counts", str(table), "--vocab", "12",
             "--out", str(workspace / "merges.txt")],
            monkeypatch=monkeypatch,
        )
        payload = error_payload(code, err)
        assert payload["error"] == "FormatError"
        assert payload["message"].startswith("%s:2: " % table)

    @NOT_INTEGERS
    def test_loose_integer_count_rejected_in_table(self, workspace, monkeypatch, text):
        table = workspace / "c1.tsv"
        table.write_text("kala\t10\nkalassa\t%s\n" % text, encoding="utf-8")
        code, _, err = run_cli(
            ["bpe-train", "--counts", str(table), "--vocab", "12",
             "--out", str(workspace / "merges.txt")],
            monkeypatch=monkeypatch,
        )
        payload = error_payload(code, err)
        assert payload["error"] == "FormatError"
        assert payload["message"] == "%s:2: bad integer %r" % (table, text)

    def test_repeated_word_in_table(self, workspace, monkeypatch):
        table = workspace / "c1.tsv"
        table.write_text("kala\t3\nvesi\t2\nkala\t5\n", encoding="utf-8")
        merges = workspace / "merges.txt"
        code, _, err = run_cli(
            ["bpe-train", "--counts", str(table), "--vocab", "12", "--out", str(merges)],
            monkeypatch=monkeypatch,
        )
        payload = error_payload(code, err)
        assert payload["error"] == "FormatError"
        assert payload["message"].startswith("%s:3: " % table)
        assert not merges.exists()

    def test_empty_word_in_table(self, workspace, monkeypatch):
        table = workspace / "c1.tsv"
        table.write_text("kala\t3\n\t5\n", encoding="utf-8")
        merges = workspace / "merges.txt"
        code, _, err = run_cli(
            ["bpe-train", "--counts", str(table), "--vocab", "12", "--out", str(merges)],
            monkeypatch=monkeypatch,
        )
        payload = error_payload(code, err)
        assert payload["error"] == "FormatError"
        assert payload["message"] == "%s:2: empty word" % table
        assert not merges.exists()

    @pytest.mark.parametrize(
        "bad_table, line", [("kala\t0\nkalassa\t0\n", 1), ("kala\t10\nkalassa\t-4\n", 2)],
        ids=["all-zero", "negative"],
    )
    def test_non_positive_count_beside_another_table(self, workspace, monkeypatch,
                                                     bad_table, line):
        good = workspace / "c1.tsv"
        good.write_text("kalas\t5\n", encoding="utf-8")
        bad = workspace / "c2.tsv"
        bad.write_text(bad_table, encoding="utf-8")
        merges = workspace / "merges.txt"
        code, _, err = run_cli(
            ["bpe-train", "--counts", "%s,%s" % (good, bad), "--vocab", "12",
             "--out", str(merges)],
            monkeypatch=monkeypatch,
        )
        payload = error_payload(code, err)
        assert payload["error"] == "FormatError"
        assert payload["message"].startswith("%s:%d: " % (bad, line))
        assert not merges.exists()

    @pytest.mark.parametrize(
        "text", ["{alpha", '"alpha"', '{"alpha": "x"}', '{"seed": null}', '{"alpha": NaN}',
                 '{"max_epochs": -3}', '{"alhpa": 0.5}', '{"max-epochs": 0}',
                 '{"max_epochs": 2.7}', '{"seed": true}', '{"alpha": "0.5"}',
                 '{"alpha": 1%s}' % ("0" * 400)],
        ids=["malformed", "not-an-object", "non-numeric", "null", "nan", "negative-epochs",
             "misspelled-key", "flag-spelled-key", "fractional-int", "bool-int",
             "numeric-string", "float-overflow"],
    )
    def test_bad_config_rejected(self, workspace, monkeypatch, text):
        config = workspace / "config.json"
        config.write_text(text, encoding="utf-8")
        code, _, err = run_cli(
            ["train-mono", "--corpus", str(workspace / "a.txt"), "--config", str(config),
             "--out", str(workspace / "model")],
            monkeypatch=monkeypatch,
        )
        error_payload(code, err)
        assert not (workspace / "model").exists()

    @pytest.mark.parametrize(
        "argv",
        [["train-mono", "--corpus", "missing.txt"],
         ["train", "--corpus-a", "missing.txt", "--corpus-b", "missing.txt"]],
        ids=["train-mono", "train"],
    )
    def test_unknown_config_key_rejected_before_corpus_read(self, workspace, monkeypatch, argv):
        config = workspace / "config.json"
        config.write_text('{"alpha": 0.5, "alhpa": 0.5}', encoding="utf-8")
        argv = [str(workspace / a) if a.endswith(".txt") else a for a in argv]
        code, _, err = run_cli(
            argv + ["--config", str(config), "--out", str(workspace / "model")],
            monkeypatch=monkeypatch,
        )
        payload = error_payload(code, err)
        assert payload["error"] == "FormatError"
        assert payload["message"].startswith("%s: unknown config key 'alhpa'" % config)

    @pytest.mark.parametrize(
        "argv",
        [["train-mono", "--corpus", "missing.txt"],
         ["train", "--corpus-a", "missing.txt", "--corpus-b", "missing.txt"]],
        ids=["train-mono", "train"],
    )
    def test_bad_config_value_rejected_before_corpus_read(self, workspace, monkeypatch,
                                                          argv):
        config = workspace / "config.json"
        config.write_text('{"edit_mode": "bogus"}', encoding="utf-8")
        argv = [str(workspace / a) if a.endswith(".txt") else a for a in argv]
        code, _, err = run_cli(
            argv + ["--config", str(config), "--out", str(workspace / "model")],
            monkeypatch=monkeypatch,
        )
        payload = error_payload(code, err)
        assert payload == {"error": "ContractError", "message": "unknown edit mode 'bogus'"}

    @pytest.mark.parametrize(
        "argv",
        [["train-mono", "--corpus", "a.txt", "--alpha", "nan"],
         ["train", "--corpus-a", "a.txt", "--corpus-b", "b.txt", "--edit-weight", "inf"],
         # The training settings are checked before any corpus is read.
         ["train-mono", "--corpus", "missing.txt", "--max-epochs", "-3"],
         ["train-mono", "--corpus", "missing.txt", "--max-epochs", "0"],
         ["train", "--corpus-a", "missing.txt", "--corpus-b", "missing.txt",
          "--convergence", "nan"],
         ["train-mono", "--corpus", "missing.txt", "--convergence", "-1"],
         ["train", "--corpus-a", "missing.txt", "--corpus-b", "missing.txt", "--alpha", "-1"],
         ["train", "--corpus-a", "missing.txt", "--corpus-b", "missing.txt",
          "--alpha", "nan"],
         ["train", "--corpus-a", "missing.txt", "--corpus-b", "missing.txt",
          "--edit-weight", "0"]],
        ids=["alpha-nan", "edit-weight-inf", "max-epochs-negative", "max-epochs-zero",
             "convergence-nan", "convergence-negative", "missing-corpus-alpha-negative",
             "missing-corpus-alpha-nan", "missing-corpus-edit-weight-zero"],
    )
    def test_non_finite_weight_rejected(self, workspace, monkeypatch, argv):
        argv = [str(workspace / a) if a.endswith(".txt") else a for a in argv]
        code, _, err = run_cli(argv + ["--out", str(workspace / "model")],
                               monkeypatch=monkeypatch)
        assert error_payload(code, err)["error"] == "ContractError"
        assert not (workspace / "model").exists()

    @pytest.mark.parametrize("joiner", ["x y", "a\tb", "a\u00a0b"],
                             ids=["space", "tab", "no-break-space"])
    @pytest.mark.parametrize("command", ["segment", "bpe-apply"])
    def test_joiner_holding_whitespace_rejected(self, workspace, monkeypatch, command,
                                                joiner):
        merges = workspace / "merges.txt"
        merges.write_text("k a\n", encoding="utf-8")
        argv = {
            "segment": ["segment", "--model", str(train_model(workspace, monkeypatch)),
                        "--lang", "a"],
            "bpe-apply": ["bpe-apply", "--merges", str(merges)],
        }[command]
        code, out, err = run_cli(argv + ["--joiner", joiner], stdin_text="kalassa\n",
                                 monkeypatch=monkeypatch)
        assert error_payload(code, err)["error"] == "ContractError"
        assert out == ""

    @pytest.mark.parametrize("command", ["segment", "segment-source", "bpe-apply"])
    def test_joiner_checked_before_loading(self, workspace, monkeypatch, command):
        # The paths do not exist: the joiner is rejected before any load.
        missing = str(workspace / "missing")
        argv = {
            "segment": ["segment", "--model", missing, "--lang", "a"],
            "segment-source": ["segment-source", "--source-model", missing,
                               "--cognate-model", missing],
            "bpe-apply": ["bpe-apply", "--merges", missing],
        }[command]
        code, out, err = run_cli(argv + ["--joiner", "x y"], stdin_text="kalassa\n",
                                 monkeypatch=monkeypatch)
        assert error_payload(code, err)["error"] == "ContractError"
        assert out == ""

    @pytest.mark.parametrize("kind", ["model", "corpus", "counts", "pairs", "merges"])
    def test_non_utf8_file_rejected(self, workspace, monkeypatch, kind):
        model_path = train_model(workspace, monkeypatch)
        bad = workspace / "bad"
        if kind == "model":
            bad.write_bytes(model_path.read_bytes() + b"\xff\n")
        else:
            bad.write_bytes(b"kala\tkala\t3\nk\xe4si\t2\n")
        argv = {
            "model": ["segment", "--model", str(bad), "--lang", "a"],
            "corpus": ["train-mono", "--corpus", str(bad), "--out", str(workspace / "m")],
            "counts": ["bpe-train", "--counts", str(bad), "--vocab", "12",
                       "--out", str(workspace / "m")],
            "pairs": ["extract-cognates", "--pairs", str(bad), "--out", str(workspace / "m")],
            "merges": ["bpe-apply", "--merges", str(bad)],
        }[kind]
        code, _, err = run_cli(argv, stdin_text="kala\n", monkeypatch=monkeypatch)
        payload = error_payload(code, err)
        assert payload["error"] == "FormatError"
        assert payload["message"].startswith("%s: not UTF-8" % bad)

    @pytest.mark.parametrize("command", ["segment", "segment-source", "bpe-apply", "prep-tag"])
    def test_non_utf8_stdin_rejected(self, workspace, monkeypatch, command):
        model_path = train_model(workspace, monkeypatch)
        merges = workspace / "merges.txt"
        merges.write_text("k a\n", encoding="utf-8")
        argv = {
            "segment": ["segment", "--model", str(model_path), "--lang", "a"],
            "segment-source": ["segment-source", "--source-model", str(model_path),
                               "--cognate-model", str(model_path)],
            "bpe-apply": ["bpe-apply", "--merges", str(merges)],
            "prep-tag": ["prep-tag", "--lang", "et"],
        }[command]
        # The whole input is decoded as one chunk, ahead of line 2.
        code, _, err = run_cli(argv, stdin_text=b"kala\nkala k\xe4si\nkala\n",
                               monkeypatch=monkeypatch)
        payload = error_payload(code, err)
        assert payload["message"].startswith("line 2: ")
