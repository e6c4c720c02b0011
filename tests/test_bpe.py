import collections
import random

import pytest

from cogseg.bpe import (
    MergeTable,
    apply_bpe,
    balance_counts,
    load_merges,
    save_merges,
    train_bpe,
)
from cogseg.errors import ContractError, FormatError

from oracles import recounting_bpe_train, reference_bpe_apply, table_order_bpe_apply


class TestBalanceCounts:
    def test_smaller_language_scaled_up(self):
        tables = {
            "en": {"the": 150, "cat": 50},
            "et": {"kass": 60, "on": 40},
        }
        balanced = balance_counts(tables)
        assert balanced.scales["en"] == 1.0
        assert balanced.scales["et"] == 2.0
        assert balanced.tables["et"] == {"kass": 120, "on": 80}

    def test_equal_sums_identity(self):
        tables = {"x": {"a": 10}, "y": {"b": 10}}
        balanced = balance_counts(tables)
        assert balanced.tables == {"x": {"a": 10}, "y": {"b": 10}}

    def test_three_language_scales(self):
        tables = {
            "a": {"w": 300},
            "b": {"x": 35, "y": 35},
            "c": {"z": 100},
        }
        balanced = balance_counts(tables)
        assert balanced.scales == {"a": 1.0, "b": 300 / 70, "c": 3.0}
        sums = {k: sum(t.values()) for k, t in balanced.tables.items()}
        for value in sums.values():
            assert abs(value - 300) <= 0.005 * 300

    def test_nonzero_floor(self):
        tables = {"big": {"w": 10000}, "tiny": {"x": 1, "rare": 1, "q": 9998}}
        balanced = balance_counts(tables)
        assert all(v >= 1 for v in balanced.tables["tiny"].values())

    def test_empty_table_rejected(self):
        with pytest.raises(ContractError):
            balance_counts({"a": {"w": 1}, "b": {}})
        with pytest.raises(ContractError):
            balance_counts({"a": {"w": 1}})

    def test_zero_sum_table_rejected(self):
        with pytest.raises(ContractError, match="'a'"):
            balance_counts({"a": {"w": 0}, "b": {"x": 1}})


class TestTrainBpe:
    def test_first_merge_by_brute_force_pair_count(self):
        # "aaab</w>": pairs (a,a) twice, (a,b) once, (b,</w>) once
        counts = {"aaab": 10}
        pair_freq = collections.Counter()
        symbols = ["a", "a", "a", "b", "</w>"]
        for left, right in zip(symbols, symbols[1:]):
            pair_freq[(left, right)] += 10
        assert pair_freq.most_common(1)[0][0] == ("a", "a")
        table = train_bpe(counts, vocab_size=4)
        assert table.merges[0] == ("a", "a")

    def test_single_characters_only_merges_word_end(self):
        # distinct single chars; only (char, </w>) pairs exist
        table = train_bpe({"a": 3, "b": 2}, vocab_size=4)
        assert table.merges == [("a", "</w>")]

    def test_hyphen_pairs_never_counted(self):
        table = train_bpe({"ab-cd": 100}, vocab_size=12)
        for left, right in table.merges:
            assert "-" not in left and "-" not in right

    def test_tie_broken_lexicographically(self):
        # (a,b) and (c,d) both occur twice; (a,b) sorts first
        table = train_bpe({"abcd": 1, "cdab": 1}, vocab_size=6)
        assert table.merges[0] == ("a", "b")

    def test_truncation_flagged(self):
        table = train_bpe({"ab": 1}, vocab_size=50)
        assert table.truncated
        assert len(table.merges) < 50

    def test_vocab_not_above_alphabet_rejected(self):
        with pytest.raises(ContractError):
            train_bpe({"ab": 1}, vocab_size=3)  # alphabet is {a, b, </w>}

    def test_deterministic(self):
        counts = {"kalassa": 4, "kala-maja": 2, "majas": 3}
        t1 = train_bpe(counts, vocab_size=14)
        t2 = train_bpe(counts, vocab_size=14)
        assert t1.merges == t2.merges

    def test_matches_recounting_oracle(self):
        rng = random.Random(7)
        truncated = 0
        for _ in range(400):
            # Few letters and small counts give ties; the fixed words add an
            # overlapping repeat and hyphen-only words.
            words = ["".join(rng.choice("abc-") for _ in range(rng.randint(1, 9)))
                     for _ in range(rng.randint(1, 10))]
            words += rng.sample(["aaaa", "-", "--"], 2)
            counts = {word: rng.randint(1, 3) for word in words}
            vocab = len(set("".join(counts))) + 1 + rng.randint(1, 25)
            table = train_bpe(counts, vocab)
            reference = recounting_bpe_train(counts, vocab)
            assert (table.merges, table.truncated) == (reference.merges, reference.truncated)
            truncated += table.truncated
        assert 0 < truncated < 400


class TestApplyBpe:
    def test_no_merges_gives_characters(self):
        assert apply_bpe(MergeTable(), "abc") == ["a", "b", "c"]

    def test_concatenation_restores_word(self):
        table = train_bpe({"kalassa": 4, "kala": 6, "talossa": 2}, vocab_size=14)
        for word in ("kalassa", "kala", "talossa", "kalatalo", "üõö"):
            assert "".join(apply_bpe(table, word)) == word

    def test_hyphen_is_forced_boundary(self):
        table = train_bpe({"tööaeg": 5, "töö-aeg": 5}, vocab_size=12)
        pieces = apply_bpe(table, "töö-aeg")
        assert "-" in pieces
        for piece in pieces:
            assert piece == "-" or "-" not in piece

    def test_word_ending_in_hyphen(self):
        table = train_bpe({"ab-": 2, "ab": 2}, vocab_size=6)
        pieces = apply_bpe(table, "ab-")
        assert "".join(pieces) == "ab-"
        assert pieces[-1] == "-"

    def test_empty_word(self):
        assert apply_bpe(MergeTable(), "") == []

    def test_matches_reference_implementation(self):
        rng = random.Random(99)
        words = {}
        for _ in range(60):
            n = rng.randint(1, 9)
            words["".join(rng.choice("abcd-") for _ in range(n))] = rng.randint(1, 9)
        words = {w: c for w, c in words.items() if w.strip("-")}
        table = train_bpe(words, vocab_size=len(set("".join(words))) + 20)
        for _ in range(300):
            word = "".join(rng.choice("abcd-") for _ in range(rng.randint(1, 12)))
            assert apply_bpe(table, word) == reference_bpe_apply(table.merges, word)

    def test_matches_table_order_oracle(self):
        rng = random.Random(11)
        symbols = ["a", "b", "c", "aa", "ab", "bc", "abc", "c</w>", "</w>"]
        for _ in range(3000):
            merges = [(rng.choice(symbols), rng.choice(symbols))
                      for _ in range(rng.randint(0, 10))]
            for _ in range(rng.randint(0, 2) if merges else 0):
                merges.insert(rng.randint(0, len(merges)), rng.choice(merges))
            table = MergeTable(merges=merges)
            for _ in range(4):
                word = "".join(rng.choice("abc-") for _ in range(rng.randint(1, 10)))
                assert apply_bpe(table, word) == table_order_bpe_apply(merges, word)

    @pytest.mark.parametrize(
        "merges, word, pieces",
        [
            # Rank priority would merge b+aaa after aa+a and give "baaa".
            ([("a", "a"), ("a", "aa"), ("b", "b"), ("b", "aaa"), ("aa", "a")],
             "baaa", ["b", "aaa"]),
            ([("a", "c"), ("c", "b"), ("a", "c")], "bacb", ["b", "ac", "b"]),
            # The pair ab+c appears only after its first line; the duplicate acts.
            ([("ab", "c"), ("a", "b"), ("ab", "c")], "abc", ["abc"]),
        ],
        ids=["merge-at-own-turn", "duplicate-no-op", "duplicate-acts"],
    )
    def test_table_order_semantics(self, merges, word, pieces):
        assert apply_bpe(MergeTable(merges=merges), word) == pieces

    def test_merges_appended_after_apply_are_used(self):
        table = MergeTable(merges=[("a", "b")])
        assert apply_bpe(table, "abc") == ["ab", "c"]
        table.merges.append(("ab", "c"))
        assert apply_bpe(table, "abc") == ["abc"]


class TestMergeTableIo:
    def test_roundtrip(self, tmp_path):
        table = train_bpe({"kalassa": 4, "kala": 6}, vocab_size=10)
        path = tmp_path / "merges.txt"
        save_merges(path, table)
        assert load_merges(path).merges == table.merges

    def test_apply_after_reload(self, tmp_path):
        table = train_bpe({"tööaeg": 5, "aeg": 5}, vocab_size=10)
        path = tmp_path / "merges.txt"
        save_merges(path, table)
        reloaded = load_merges(path)
        assert apply_bpe(reloaded, "tööaeg") == apply_bpe(table, "tööaeg")

    @pytest.mark.parametrize("line", ["a \n", " b\n"], ids=["trailing-space", "leading-space"])
    def test_empty_symbol_rejected(self, tmp_path, line):
        path = tmp_path / "merges.txt"
        path.write_text("k a\n" + line, encoding="utf-8")
        with pytest.raises(FormatError) as info:
            load_merges(path)
        assert str(info.value).startswith("%s:2: " % path)
