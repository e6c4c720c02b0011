import collections
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cogseg import segmenter
from cogseg.errors import ContractError
from cogseg.model import Analysis, CognateModel, CountLexicon
from cogseg.segmenter import (
    SegmenterConfig,
    join_morphs,
    override_source_segmentation,
    prefix_target_tag,
    segment_corpus,
    segment_lines,
    unjoin,
    viterbi_segment,
)
from cogseg.trainer import TrainingParams, initialize, train
from oracles import per_token_segment_lines, pull_viterbi_segment


def lexicon_from(counts):
    lex = CountLexicon()
    for form, count in counts.items():
        lex.add(form, count)
    return lex


class TestViterbi:
    def test_dominant_whole_word(self):
        lex = lexicon_from({"talossa": 50, "ta": 1, "lo": 1, "ssa": 1})
        assert viterbi_segment(lex, "talossa").morphs == ("talossa",)

    def test_two_candidate_comparison(self):
        # candidates for "ab": [ab] costs ln(16/1); [a, b] costs ln(16*16/(10*5))
        lex = lexicon_from({"a": 10, "b": 5, "ab": 1})
        n = 16
        whole = math.log(n / 1)
        split = math.log(n / 10) + math.log(n / 5)
        assert split < whole
        assert viterbi_segment(lex, "ab").morphs == ("a", "b")

    def test_unknown_single_char_smoothed(self):
        lex = lexicon_from({"a": 3})
        assert viterbi_segment(lex, "z").morphs == ("z",)
        assert viterbi_segment(lex, "za").morphs == ("z", "a")

    def test_empty_lexicon_falls_back_to_characters(self):
        assert viterbi_segment(CountLexicon(), "abc").morphs == ("a", "b", "c")

    def test_leftmost_longest_tie_break(self):
        # [aa, a] and [a, aa] have identical cost and morph count; the
        # longer first morph wins
        lex = lexicon_from({"aa": 2, "a": 2})
        assert viterbi_segment(lex, "aaa").morphs == ("aa", "a")

    def test_fewest_morphs_preferred_on_cost_tie(self):
        # both readings of "abab" use the same token twice, so any cost tie
        # must resolve toward fewer morphs
        lex = lexicon_from({"ab": 3, "a": 3, "b": 3})
        result = viterbi_segment(lex, "abab").morphs
        assert result == ("ab", "ab")

    def test_concatenation_invariant(self):
        lex = lexicon_from({"aa": 2, "b": 3})
        for word in ("aab", "baa", "ababa", "üõ"):
            assert "".join(viterbi_segment(lex, word).morphs) == word

    def test_known_morphs_beat_character_fallback(self):
        lex = lexicon_from({"kala": 1, "ssa": 1})
        assert viterbi_segment(lex, "kalassa").morphs == ("kala", "ssa")

    def test_empty_word_rejected(self):
        with pytest.raises(ContractError):
            viterbi_segment(lexicon_from({"a": 1}), "")

    # Small alphabets and few distinct counts make cost ties common; "z" and
    # two non-BMP characters are never morphs.
    @settings(max_examples=400)
    @given(
        st.sampled_from(["ab", "abc", "abcd"]).flatmap(
            lambda alphabet: st.tuples(
                st.dictionaries(
                    st.text(alphabet, min_size=1, max_size=5),
                    st.sampled_from([1, 2, 3, 4, 6, 8]),
                    max_size=12,
                ),
                st.lists(
                    st.text(alphabet + "z\U0001F600\U00010348", min_size=1, max_size=10),
                    min_size=1,
                    max_size=4,
                ),
            )
        )
    )
    @example(({}, ["ab", "\U0001F600a"]))
    @example(({"abab": 2, "ba": 1}, ["ababa", "aba", "abab"]))
    @example(({"aa": 2, "a": 2, "aaa": 1}, ["aaaa", "aaaaaaa"]))
    # An exact cost tie at the end, where the three-morph candidate arrives
    # before the two-morph one: ln 4 + ln 4 + ln 2 == ln 8 + ln 4.
    @example(({"bb": 1, "a": 2, "ba": 4, "aab": 1}, ["aaba"]))
    def test_equals_pull_loop_oracle(self, case):
        counts, words = case
        lex = lexicon_from(counts)
        for word in words:
            assert viterbi_segment(lex, word).morphs == pull_viterbi_segment(lex, word)

    def test_index_follows_lexicon_changes(self):
        lex = lexicon_from({"ka": 3, "la": 3})

        def check(word, expected):
            assert viterbi_segment(lex, word).morphs == expected
            assert pull_viterbi_segment(lex, word) == expected

        check("kalat", ("ka", "la", "t"))
        lex.add("lat", 5)  # a new form enters
        check("kalat", ("ka", "lat"))
        lex.add("lat", -5)  # its count reaches 0
        check("kalat", ("ka", "la", "t"))
        lex.add("kala", 1)
        check("kala", ("ka", "la"))
        lex.add("kala", 9)  # no form enters or leaves; the best split flips
        check("kala", ("kala",))
        # "kala" splits while N < count(ka) * count(la) / count(kala).
        lex.add("kala", -9)
        lex.add("vesi", 1)
        check("kala", ("ka", "la"))  # N = 8 < 9
        lex.add("vesi", 2)  # only a count outside the word changes
        check("kala", ("kala",))  # N = 10 > 9

    def test_training_never_builds_the_index(self, monkeypatch):
        def refuse(self):
            raise AssertionError("training built the lexicon trie")

        monkeypatch.setattr(CountLexicon, "trie", refuse)
        model = trained_toy_model()
        assert model.analyses["a"] and model.analyses["b"]


def trained_toy_model():
    params = TrainingParams(rng_seed=0)
    model = initialize(
        {"kalassa": 3, "kala": 9, "ssa": 5, "vesi": 2},
        {"kalas": 3, "kala": 8, "s": 5, "vesi": 2},
        [("kalassa", "kalas")],
        params,
    )
    train(model, params)
    return model


class TestSegmentCorpus:
    def test_single_morph_token_unchanged(self):
        model = trained_toy_model()
        out = list(segment_corpus(model, ["vesi vesi"], "a"))
        assert out == ["vesi vesi"]

    def test_stored_analysis_reused(self):
        model = trained_toy_model()
        stored = model.analyses["a"]["kalassa"].morphs
        out = list(segment_corpus(model, ["kalassa"], "a"))
        assert unjoin(out[0]) == "kalassa"
        assert out[0].split(" ") == [
            m + "@@" for m in stored[:-1]
        ] + [stored[-1]]

    def test_empty_line_passes_through(self):
        model = trained_toy_model()
        assert list(segment_corpus(model, ["", "kala", ""], "a")) == ["", "kala", ""]

    def test_tag_tokens_not_segmented(self):
        model = trained_toy_model()
        out = list(segment_corpus(model, ["<to_et> kalassa"], "a"))
        assert out[0].startswith("<to_et> ")

    def test_roundtrip_exact(self):
        model = trained_toy_model()
        lines = [
            "kalassa on kala",
            "",
            " leading and  double  spaces ",
            "unknownwörd kalassa",
        ]
        out = list(segment_corpus(model, lines, "a"))
        assert [unjoin(line) for line in out] == lines

    @pytest.mark.parametrize(
        "line, expected",
        [
            ("kalassa\tkala kalassa", "kalassa\tkala kala@@ ssa"),
            ("kalassa\u00a0kala kalassa", "kalassa\u00a0kala kala@@ ssa"),
            ("kala\rssa kalassa", "kala\rssa kala@@ ssa"),
            ("kalassa kalassa\r\n", "kala@@ ssa kala@@ ssa\r\n"),
        ],
        ids=["tab", "no-break-space", "lone-cr", "crlf"],
    )
    def test_whitespace_inside_token_passes_through(self, line, expected):
        # A "\r\n" ending is the terminator: it is written back after the
        # last token, which is still segmented.
        out = list(segment_corpus(trained_toy_model(), [line], "a"))
        assert out == [expected]
        assert unjoin(out[0]) == line

    @given(
        st.lists(
            st.text(alphabet="kalsv üõ", max_size=20).filter(lambda s: "@@" not in s),
            max_size=8,
        )
    )
    def test_roundtrip_property(self, lines):
        model = trained_toy_model.cache
        out = list(segment_corpus(model, lines, "a"))
        assert [unjoin(line) for line in out] == [line.rstrip("\n") for line in lines]


# Tokens of the memo property: stored words, tags, near-tags, empty tokens
# (double spaces) and tokens holding a tab, a vertical tab or a no-break space,
# drawn with repeats, plus free text over the same characters.
MEMO_TOKENS = st.one_of(
    st.sampled_from([
        "kala", "kalassa", "ssa", "vesi", "<to_et>", "<to_fi>", "<to_>", "<to_et>x",
        "", "kala\tssa", "ssa\x0b", "\u00a0vesi", "kala\u00a0",
    ]),
    st.text(alphabet="kalsvü<>_to\t\x0b\u00a0 ", max_size=8),
)
MEMO_LINES = st.lists(
    st.builds(
        lambda tokens, end: " ".join(tokens) + end,
        st.lists(MEMO_TOKENS, max_size=8),
        st.sampled_from(["", "\n", "\r\n"]),
    ),
    max_size=6,
)


class TestTokenMemo:
    @given(MEMO_LINES, st.sampled_from(["@@", "+"]))
    def test_output_equals_per_token_loop(self, lines, joiner):
        model = trained_toy_model.cache
        analyses, lexicon = model.analyses["a"], model.lexicons["a"]

        def token_morphs(token):
            return (analyses.get(token) or viterbi_segment(lexicon, token)).morphs

        expected = list(per_token_segment_lines(lines, token_morphs, joiner))
        # A memo of 2 tokens drops entries in the middle of a line.
        for size in (segmenter.MEMO_SIZE, 2):
            with mock.patch.object(segmenter, "MEMO_SIZE", size):
                out = list(segment_corpus(model, lines, "a", SegmenterConfig(joiner)))
            assert out == expected

    def test_each_distinct_token_rendered_once_per_call(self):
        calls = collections.Counter()

        def token_morphs(token):
            calls[token] += 1
            return (token[:2], token[2:])

        lines = ["kala kala <to_et> vesi\n", "vesi  kala ka\tla\n", "kala"]
        first = list(segment_lines(lines, token_morphs, SegmenterConfig()))
        assert first == ["ka@@ la ka@@ la <to_et> ve@@ si\n",
                         "ve@@ si  ka@@ la ka\tla\n", "ka@@ la"]
        assert calls == {"kala": 1, "vesi": 1}
        assert list(segment_lines(lines, token_morphs, SegmenterConfig())) == first
        assert calls == {"kala": 2, "vesi": 2}

        # A full memo drops its oldest token, even one just hit: kala is
        # dropped for talo and rendered again, talo is kept, vesi is dropped.
        calls.clear()
        with mock.patch.object(segmenter, "MEMO_SIZE", 2):
            out = list(segment_lines(["kala vesi kala talo kala talo vesi"],
                                     token_morphs, SegmenterConfig()))
        assert out == ["ka@@ la ve@@ si ka@@ la ta@@ lo ka@@ la ta@@ lo ve@@ si"]
        assert calls == {"kala": 2, "vesi": 2, "talo": 1}


# one trained model shared by the hypothesis cases to keep them fast
trained_toy_model.cache = None


def setup_module(module):
    trained_toy_model.cache = trained_toy_model()


class TestJoiner:
    def test_join_morphs_formats(self):
        assert join_morphs(("kala", "ssa"), "@@") == "kala@@ ssa"
        assert join_morphs(("kala",), "@@") == "kala"
        # "@@" is in "a@" + "@b" but inside neither morph.
        assert join_morphs(("a@", "@b"), "@@") == "a@@@ @b"
        assert join_morphs(("a@", "x", "@b"), "@@") == "a@@@ x@@ @b"

    def test_custom_joiner(self):
        model = trained_toy_model()
        config = SegmenterConfig(joiner="+")
        out = list(segment_corpus(model, ["kalassa"], "a", config))
        assert unjoin(out[0], "+") == "kalassa"

    def test_invalid_joiner_rejected(self):
        with pytest.raises(ContractError):
            SegmenterConfig(joiner="")

    @pytest.mark.parametrize("joiner", [" @@", "@@\n", "x y", "a\tb", "a\u00a0b", "a\u2028b"])
    def test_joiner_holding_whitespace_rejected(self, joiner):
        with pytest.raises(ContractError):
            SegmenterConfig(joiner=joiner)

    def test_joiner_inside_morph_rejected(self):
        for morphs in [("a+b", "c"), ("a", "b+"), ("+", "c")]:
            with pytest.raises(ContractError):
                join_morphs(morphs, "+")


def source_model_from(counts):
    """A source model whose lexicon holds counts and which stores no analyses."""
    model = CognateModel()
    model.lexicons["a"] = lexicon_from(counts)
    return model


class TestSourceOverride:
    def test_target_analysis_preferred(self):
        model = trained_toy_model()
        source = source_model_from({"kalassa": 5, "kal": 1})
        result = override_source_segmentation(source, model, "kalassa")
        assert result == model.analyses["a"]["kalassa"]

    def test_language_a_preferred_over_b(self):
        model = trained_toy_model()
        model.analyses["a"]["shared"] = Analysis("shared", ("sha", "red"), 1)
        model.analyses["b"]["shared"] = Analysis("shared", ("shared",), 1)
        result = override_source_segmentation(CognateModel(), model, "shared")
        assert result.morphs == ("sha", "red")
        del model.analyses["a"]["shared"]
        del model.analyses["b"]["shared"]

    def test_fallback_to_source_viterbi(self):
        model = trained_toy_model()
        source = source_model_from({"walk": 5, "ing": 5})
        result = override_source_segmentation(source, model, "walking")
        assert result.morphs == ("walk", "ing")

    def test_lookup_order(self):
        # Viterbi under the source lexicon would give walk+ing; the stored
        # source analysis beats it, and a target analysis beats both.
        model = trained_toy_model()
        source = CognateModel()
        source.add_analysis(Analysis("walk", ("walk",), 5), "a")
        source.add_analysis(Analysis("ing", ("ing",), 5), "a")
        source.add_analysis(Analysis("walking", ("wal", "king"), 1), "a")
        assert viterbi_segment(source.lexicons["a"], "walking").morphs == ("walk", "ing")
        result = override_source_segmentation(source, model, "walking")
        assert result.morphs == ("wal", "king")
        model.analyses["b"]["walking"] = Analysis("walking", ("walki", "ng"), 1)
        result = override_source_segmentation(source, model, "walking")
        assert result.morphs == ("walki", "ng")


class TestTargetTag:
    def test_known_language(self):
        assert prefix_target_tag("tere", "et") == "<to_et> tere"

    def test_empty_sentence(self):
        assert prefix_target_tag("", "fi") == "<to_fi> "

    def test_unknown_language_rejected(self):
        with pytest.raises(ContractError):
            prefix_target_tag("hello", "sv")

    def test_tag_survives_segmentation(self):
        model = trained_toy_model()
        tagged = prefix_target_tag("kalassa", "et")
        out = list(segment_corpus(model, [tagged], "a"))
        assert out[0].split(" ")[0] == "<to_et>"
