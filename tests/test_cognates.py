import unicodedata

import pytest

from cogseg.cognates import (
    AlignedPair,
    extract,
    filter_pairs,
    levenshtein_threshold,
    read_pairs_tsv,
    resolve_unique,
    write_pairs_tsv,
)
from cogseg.errors import ContractError, FormatError

from oracles import brute_levenshtein
from test_cli import BAD_COUNTS


class TestThreshold:
    def test_short_word_rule(self):
        assert levenshtein_threshold(4, 7) == 0
        assert levenshtein_threshold(7, 4) == 0
        assert levenshtein_threshold(1, 20) == 0

    def test_mean_of_nine_nine(self):
        assert levenshtein_threshold(9, 9) == 3

    def test_rounding_up_on_exact_rational_mean(self):
        # mean 9.5, a third is 3.1667, ceiling 4
        assert levenshtein_threshold(10, 9) == 4

    def test_more_values(self):
        assert levenshtein_threshold(5, 5) == 2  # ceil(10/6)
        assert levenshtein_threshold(6, 6) == 2
        assert levenshtein_threshold(12, 15) == 5  # ceil(27/6)

    def test_invalid_lengths(self):
        with pytest.raises(ContractError):
            levenshtein_threshold(0, 5)


@pytest.mark.parametrize("count", [1.5, 2.0, True, "3"])
def test_aligned_pair_count_must_be_an_int(count):
    # write_pairs_tsv would write a float count 1.5 as 1.
    with pytest.raises(ContractError):
        AlignedPair("kala", "kala", count)


class TestFilterPairs:
    def test_punctuation_dropped(self):
        assert filter_pairs([AlignedPair("isa!", "isä", 7)]) == []

    def test_digits_dropped(self):
        assert filter_pairs([AlignedPair("nr1111", "nro1111", 7)]) == []

    def test_low_count_dropped(self):
        assert filter_pairs([AlignedPair("kuuluvused", "kuuluvuudet", 1)]) == []

    def test_short_inexact_dropped_exact_kept(self):
        assert filter_pairs([AlignedPair("talo", "talu", 5)]) == []
        kept = filter_pairs([AlignedPair("euro", "euro", 10)])
        assert [p.word_a for p in kept] == ["euro"]

    def test_distance_rule(self):
        kept = filter_pairs([AlignedPair("kuuluvuus", "kuuluvus", 3)])
        assert len(kept) == 1
        assert brute_levenshtein("kuuluvuus", "kuuluvus") == 1
        assert filter_pairs([AlignedPair("abcdefghij", "zyxwvutsrq", 5)]) == []


class TestResolveUnique:
    def test_highest_count_wins(self):
        pairs = [AlignedPair("w", "xxxxx", 5), AlignedPair("w", "yyyyy", 3)]
        assert resolve_unique(pairs) == [AlignedPair("w", "xxxxx", 5)]

    def test_disjoint_pass_through(self):
        pairs = [AlignedPair("aaaa", "bbbb", 2), AlignedPair("cccc", "dddd", 9)]
        assert set(resolve_unique(pairs)) == set(pairs)

    def test_chain_leaves_loser_unpaired(self):
        pairs = [AlignedPair("w", "x", 5), AlignedPair("w2", "x", 7)]
        assert resolve_unique(pairs) == [AlignedPair("w2", "x", 7)]

    def test_tie_breaks_lexicographically(self):
        pairs = [AlignedPair("w", "zz", 5), AlignedPair("w", "aa", 5)]
        assert resolve_unique(pairs) == [AlignedPair("w", "aa", 5)]

    def test_no_word_repeats(self):
        pairs = [
            AlignedPair("w", "x", 5),
            AlignedPair("w", "y", 5),
            AlignedPair("v", "x", 4),
            AlignedPair("v", "y", 9),
        ]
        resolved = resolve_unique(pairs)
        assert len({p.word_a for p in resolved}) == len(resolved)
        assert len({p.word_b for p in resolved}) == len(resolved)


# 50 aligned rows exercising every rule; kept rows were resolved by hand.
FIXTURE_ROWS = [
    ("isa!", "isä", 7),
    ("öösel,", "yöllä", 5),
    ("nr2", "nro2", 9),
    ("e-kiri", "e-posti", 4),
    ("tere.", "terve", 3),
    ("(sulg)", "(sulku)", 8),
    ("kuuluvused", "kuuluvuudet", 1),
    ("sarnasused", "samanlaiset", 1),
    ("pikkused", "pituudet", 1),
    ("talu", "talo", 5),
    ("euro", "euro", 10),
    ("maa", "maa", 12),
    ("ja", "ja", 30),
    ("vesi", "vettä", 8),
    ("kala", "kala", 6),
    ("kuuluvus", "kuuluvuus", 3),
    ("poliitika", "politiikka", 4),
    ("pikkmaantee", "qwzzrrttyyx", 2),
    ("ühtekuuluvus", "yhteenkuuluvuus", 6),
    ("president", "presidentti", 9),
    ("raamat", "kirja", 7),
    ("sõnastik", "sanakirja", 2),
    ("direktor", "direktori", 11),
    ("muuseum", "museo", 4),
    ("ministri", "ministeri", 9),
    ("ministri", "ministerin", 4),
    ("kapteni", "kapteeni", 5),
    ("kapteni", "kaptenia", 5),
    ("juubeli", "juubelin", 3),
    ("laulab", "laulaa", 6),
    ("sinine", "sininen", 5),
    ("sinisen", "sininen", 7),
    ("kontsert", "konsertti", 2),
    ("oktoober", "lokakuu", 3),
    ("august", "elokuu", 4),
    ("number", "numero", 8),
    ("projekt", "projekti", 13),
    ("projektid", "projektit", 2),
    ("muusika", "musiikki", 5),
    ("festival", "festivaali", 6),
    ("grupp", "ryhmä", 5),
    ("minut", "minuutti", 7),
    ("sekund", "sekunti", 9),
    ("teater", "teatteri", 4),
    ("muuseumid", "museot", 2),
    ("galerii", "galleria", 3),
    ("hotell", "hotelli", 12),
    ("pargis", "puistossa", 2),
    ("bussis", "bussissa", 4),
    ("rongis", "junassa", 2),
]

FIXTURE_EXPECTED = [
    ("bussis", "bussissa", 4),
    ("direktor", "direktori", 11),
    ("euro", "euro", 10),
    ("festival", "festivaali", 6),
    ("galerii", "galleria", 3),
    ("hotell", "hotelli", 12),
    ("ja", "ja", 30),
    ("juubeli", "juubelin", 3),
    ("kala", "kala", 6),
    ("kapteni", "kapteeni", 5),
    ("kontsert", "konsertti", 2),
    ("kuuluvus", "kuuluvuus", 3),
    ("laulab", "laulaa", 6),
    ("maa", "maa", 12),
    ("ministri", "ministeri", 9),
    ("minut", "minuutti", 7),
    ("number", "numero", 8),
    ("poliitika", "politiikka", 4),
    ("president", "presidentti", 9),
    ("projekt", "projekti", 13),
    ("projektid", "projektit", 2),
    ("sekund", "sekunti", 9),
    ("sinisen", "sininen", 7),
    ("teater", "teatteri", 4),
    ("ühtekuuluvus", "yhteenkuuluvuus", 6),
]


def independent_resolution(rows):
    """Manual reapplication of the stated rules on brute-force primitives."""

    def bad(word):
        return any(
            unicodedata.category(ch).startswith("P") or ch.isdigit() for ch in word
        )

    survivors = []
    for a, b, c in rows:
        if c < 2 or bad(a) or bad(b):
            continue
        if min(len(a), len(b)) <= 4:
            if a != b:
                continue
        elif brute_levenshtein(a, b) > -((len(a) + len(b)) // -6):
            continue
        survivors.append((a, b, c))
    taken, used_a, used_b = [], set(), set()
    for a, b, c in sorted(survivors, key=lambda r: (-r[2], r[0], r[1])):
        if a not in used_a and b not in used_b:
            used_a.add(a)
            used_b.add(b)
            taken.append((a, b, c))
    return sorted(taken)


class TestExtractPipeline:
    def test_empty_input(self):
        assert extract([]) == []

    def test_identical_words_kept_any_length(self):
        assert extract([AlignedPair("euro", "euro", 10)]) == [
            AlignedPair("euro", "euro", 10)
        ]

    def test_fifty_pair_fixture(self):
        pairs = [AlignedPair(*row) for row in FIXTURE_ROWS]
        result = [(p.word_a, p.word_b, p.count) for p in extract(pairs)]
        assert result == FIXTURE_EXPECTED
        assert result == independent_resolution(FIXTURE_ROWS)

    def test_idempotent(self):
        pairs = [AlignedPair(*row) for row in FIXTURE_ROWS]
        once = extract(pairs)
        twice = extract(once)
        assert once == twice

    def test_output_satisfies_distance_rule_post_hoc(self):
        pairs = [AlignedPair(*row) for row in FIXTURE_ROWS]
        for p in extract(pairs):
            limit = levenshtein_threshold(len(p.word_a), len(p.word_b))
            assert brute_levenshtein(p.word_a, p.word_b) <= max(limit, 0)

    def test_output_injective(self):
        pairs = [AlignedPair(*row) for row in FIXTURE_ROWS]
        result = extract(pairs)
        assert len({p.word_a for p in result}) == len(result)
        assert len({p.word_b for p in result}) == len(result)


class TestTsvIo:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        pairs = [AlignedPair("ühte", "yhte", 3), AlignedPair("maa", "maa", 12)]
        write_pairs_tsv(path, pairs)
        assert read_pairs_tsv(path) == pairs

    def test_bad_count_reports_line(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\t3\nc\td\tnope\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_pairs_tsv(path)
        assert ":2" in str(err.value)

    @BAD_COUNTS
    def test_loose_integer_count_rejected(self, tmp_path, text, reason):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\t3\nc\td\t%s\n" % text, encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_pairs_tsv(path)
        assert str(err.value) == "%s:2: %s" % (path, reason)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_pairs_tsv(path)
