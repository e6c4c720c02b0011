import copy
import itertools
import random
from dataclasses import astuple

import pytest
from hypothesis import given, strategies as st

from cogseg.edits import (
    DELETE,
    INSERT,
    MATCH,
    Edit,
    MAX_ENTRIES,
    _edit_spans,
    _traceback,
    apply_edit_script,
    edit_forms,
    extract_edits,
    levenshtein_align,
    levenshtein_distance,
)
from cogseg.errors import ContractError

from oracles import brute_alignment, brute_levenshtein, fixpoint_extend_and_remerge

WORDS = st.text(alphabet="abcdeöüõy", max_size=10)


def alignment_cost(ops):
    return sum(1 for op in ops if op.kind != MATCH)


class TestAlign:
    def test_identity(self):
        ops = levenshtein_align("abc", "abc")
        assert [op.kind for op in ops] == [MATCH, MATCH, MATCH]
        assert alignment_cost(ops) == 0

    def test_suffix_deletion(self):
        ops = levenshtein_align("saamiseksi", "saamiseks")
        assert alignment_cost(ops) == 1
        assert [op.kind for op in ops].count(MATCH) == 9
        assert ops[-1].kind == DELETE and ops[-1].source == "i"

    def test_long_pair_distance_matches_oracle(self):
        a, b = "ühtekuuluvuspoliitika", "yhteenkuuluvuuspolitiikkaa"
        assert levenshtein_distance(a, b) == brute_levenshtein(a, b)
        assert alignment_cost(levenshtein_align(a, b)) == brute_levenshtein(a, b)

    def test_empty_strings(self):
        assert levenshtein_align("", "") == []
        ops = levenshtein_align("", "ab")
        assert [op.kind for op in ops] == [INSERT, INSERT]
        ops = levenshtein_align("ab", "")
        assert [op.kind for op in ops] == [DELETE, DELETE]

    def test_alignment_covers_both_strings_in_order(self):
        a, b = "työaika", "tööaeg"
        ops = levenshtein_align(a, b)
        src = "".join(op.source for op in ops if op.source is not None)
        tgt = "".join(op.target for op in ops if op.target is not None)
        assert src == a and tgt == b

    @given(WORDS, WORDS)
    def test_distance_equals_brute_force(self, a, b):
        d = brute_levenshtein(a, b)
        assert levenshtein_distance(a, b) == d
        assert alignment_cost(levenshtein_align(a, b)) == d

    @given(WORDS, WORDS, WORDS, WORDS)
    def test_distance_with_long_shared_ends_equals_brute_force(self, head, mid_a, mid_b, tail):
        # Random pairs rarely share long ends, which the distance strips.
        a, b = head + mid_a + tail, head + mid_b + tail
        assert levenshtein_distance(a, b) == brute_levenshtein(a, b)

    def test_deterministic(self):
        pairs = [("kitten", "sitting"), ("abcabc", "cbacba"), ("aaa", "aaaa")]
        for a, b in pairs:
            assert levenshtein_align(a, b) == levenshtein_align(a, b)

    def test_tie_break_equals_oracle_on_short_binary_strings(self):
        words = ["".join(w) for n in range(5) for w in itertools.product("ab", repeat=n)]
        for a in words:
            for b in words:
                ops = [astuple(op) for op in levenshtein_align(a, b)]
                assert ops == brute_alignment(a, b), (a, b)

    def test_tie_break_equals_oracle_on_random_strings(self):
        rng = random.Random(11)
        for _ in range(1000):
            a, b = ("".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
                    for _ in range(2))
            ops = [astuple(op) for op in levenshtein_align(a, b)]
            assert ops == brute_alignment(a, b), (a, b)


class TestExtractEdits:
    def test_identical_morphs_empty_script(self):
        assert extract_edits("talo", "talo").edits == ()

    def test_published_example(self):
        # The known hard case: merging and sound-length extension must
        # produce exactly these five edits.
        script = extract_edits("yhteenkuuluvuuspolitiikkaa", "ühtekuuluvuspoliitika")
        assert set(script.edits) == {
            Edit("y", "ü"),
            Edit("een", "e"),
            Edit("uu", "u"),
            Edit("ti", "it"),
            Edit("kka", "k"),
        }

    def test_length_change_extension(self):
        assert extract_edits("maa", "ma").edits == (Edit("aa", "a"),)
        assert extract_edits("ma", "maa").edits == (Edit("a", "aa"),)

    def test_single_substitution(self):
        assert extract_edits("talo", "talu").edits == (Edit("o", "u"),)

    def test_extension_skipped_without_equal_neighbor(self):
        # deletion of 'x' between unrelated characters stays one-sided
        script = extract_edits("axb", "ab")
        assert script.edits == (Edit("x", ""),)

    def test_no_adjacent_merged_edits_remain(self):
        rng = random.Random(4)
        for _ in range(300):
            a = "".join(rng.choice("abö") for _ in range(rng.randint(1, 8)))
            b = "".join(rng.choice("abö") for _ in range(rng.randint(1, 8)))
            spans = [(p.start, p.end) for p in extract_edits(a, b).positioned]
            for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
                assert e0 < s1  # at least one unchanged character between edits

    def test_one_sided_edit_only_without_absorbing_neighbor(self):
        for a, b in [("maa", "ma"), ("aab", "ab"), ("ba", "baa")]:
            for edit in extract_edits(a, b).edits:
                assert edit.lhs and edit.rhs


def script_forms(a, b):
    return tuple(e.form for e in extract_edits(a, b).edits)


class TestEditForms:
    def test_equal_script_forms_on_all_short_binary_pairs(self):
        words = ["".join(w) for n in range(5) for w in itertools.product("ab", repeat=n)]
        pairs = [(a, b) for a in words for b in words]
        assert len(pairs) == 961
        for a, b in pairs:
            assert edit_forms(a, b) == script_forms(a, b), (a, b)

    def test_equal_script_forms_on_random_strings(self):
        rng = random.Random(12)
        for _ in range(1000):
            a, b = ("".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
                    for _ in range(2))
            assert edit_forms(a, b) == script_forms(a, b), (a, b)

    def test_published_example(self):
        forms = edit_forms("yhteenkuuluvuuspolitiikkaa", "ühtekuuluvuspoliitika")
        assert forms == ("y|ü", "een|e", "uu|u", "ti|it", "kka|k")

    def test_rejects_boundary_symbol_where_edit_does(self):
        words = ["".join(w) for n in range(4) for w in itertools.product("a|", repeat=n)]
        rejected = 0
        for a in words:
            for b in words:
                try:
                    expected = script_forms(a, b)
                except ContractError:
                    rejected += 1
                    with pytest.raises(ContractError):
                        edit_forms(a, b)
                else:
                    assert edit_forms(a, b) == expected, (a, b)
        assert rejected > 0
        # A boundary symbol inside unchanged characters is not an edit side.
        assert edit_forms("a|b", "a|c") == ("b|c",)
        with pytest.raises(ContractError):
            edit_forms("a|b", "c")


# Two to four letters, one alphabet with characters outside the BMP.
ALPHABETS = st.sampled_from(
    ["ab", "abc", "abcd", "a\U0001d538b", "\U0001d538\U0001d539\U0001f600"]
)


@st.composite
def tail_pairs(draw):
    """(a, b) of up to 8 characters; b often ends like a, so tails repeat."""
    alphabet = draw(ALPHABETS)
    a = draw(st.text(alphabet=alphabet, max_size=8))
    b = draw(st.text(alphabet=alphabet, max_size=8))
    if draw(st.booleans()):
        b = b[: draw(st.integers(0, len(b)))] + a[draw(st.integers(0, len(a))) :]
    return a, b


class TestEditFormCache:
    @given(tail_pairs())
    def test_tails_equal_extract_edits_of_the_tail(self, pair):
        a, b = pair
        tail = edit_forms.tails(a, b)
        for i in range(len(a) + 1):
            for j in range(len(b) + 1):
                assert tail(i, j) == script_forms(a[i:], b[j:]), (a, b, i, j)

    def test_tail_lookups_are_counted(self):
        edit_forms.cache_clear()
        tail = edit_forms.tails("talossa", "talus")
        assert tail(4, 4) == ("ssa|s",)
        assert tail(0, 0) == ("ossa|us",)
        assert edit_forms.cache_info() == (0, 2, MAX_ENTRIES, 2)
        assert edit_forms.tails("talossa", "talus")(4, 4) == edit_forms("ssa", "s") == ("ssa|s",)
        assert edit_forms.cache_info() == (2, 2, MAX_ENTRIES, 2)
        edit_forms.cache_clear()
        assert edit_forms.cache_info() == (0, 0, MAX_ENTRIES, 0)


def non_match_runs(ops):
    """Spans [a0, a1, b0, b1) of the maximal runs of non-match letters in
    the alignment letters ops."""
    runs, i, j, inside = [], 0, 0, False
    for letter in ops:
        if letter == "m":
            inside = False
        elif not inside:
            runs.append([i, i, j, j])
            inside = True
        i += letter != "i"
        j += letter != "d"
        if inside:
            runs[-1][1], runs[-1][3] = i, j
    return runs


def span_pairs():
    """Every pair over {a,b} up to length 6 and over {a,b,c} up to length
    4, then 5,000 seeded random pairs up to length 12 over 2-4 letters and
    2,000 up to length 16 over 2-6 letters."""
    for alphabet, longest in (("ab", 6), ("abc", 4)):
        words = [
            "".join(w) for n in range(longest + 1) for w in itertools.product(alphabet, repeat=n)
        ]
        yield from itertools.product(words, repeat=2)
    for seed, count, letters, longest in ((15, 5000, 4, 12), (16, 2000, 6, 16)):
        rng = random.Random(seed)
        for _ in range(count):
            alphabet = "abcdef"[: rng.randint(2, letters)]
            yield tuple(
                "".join(rng.choice(alphabet) for _ in range(rng.randint(0, longest)))
                for _ in range(2)
            )


class TestExtendAndRemerge:
    def test_one_pass_equals_fixpoint(self):
        grown = merged = 0
        for a, b in span_pairs():
            ops = _traceback(a, b)
            runs = non_match_runs(ops)
            expected = fixpoint_extend_and_remerge(a, b, copy.deepcopy(runs))
            assert _edit_spans(a, b, ops) == expected, (a, b)
            grown += expected != runs
            merged += len(expected) < len(runs)
        # Of the 37,770 pairs, growing changes the spans of 7,596 and
        # merging joins two spans in 1,067.
        assert grown > 7000 and merged > 1000


class TestApplyScript:
    def test_empty_script_identity(self):
        assert apply_edit_script("talo", extract_edits("talo", "talo")) == "talo"

    def test_diacritics_roundtrip(self):
        script = extract_edits("työ", "töö")
        assert apply_edit_script("työ", script) == "töö"

    @given(WORDS, WORDS)
    def test_roundtrip_property(self, a, b):
        assert apply_edit_script(a, extract_edits(a, b)) == b

    def test_mismatched_script_rejected(self):
        script = extract_edits("maa", "ma")
        with pytest.raises(ContractError):
            apply_edit_script("muu", script)


class TestEditType:
    def test_rejects_equal_sides(self):
        with pytest.raises(ContractError):
            Edit("a", "a")
        with pytest.raises(ContractError):
            Edit("", "")

    def test_rejects_boundary_symbol(self):
        with pytest.raises(ContractError):
            Edit("a|b", "c")

    def test_form_roundtrip(self):
        for edit in (Edit("", "n"), Edit("kka", "k"), Edit("d", "t")):
            assert Edit.from_form(edit.form) == edit

    def test_display_uses_epsilon(self):
        assert str(Edit("", "n")) == "ε→n"
