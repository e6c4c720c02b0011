import collections
import itertools
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

from oracles import (
    _merge_span,
    recounting_bpe_train,
    reference_bpe_apply,
    table_order_bpe_apply,
)
from worlds import gen


@pytest.fixture(scope="module")
def benchmark_tables():
    """The a, b and source count tables of a generated benchmark world."""
    world = gen.World(1, 600)
    return {lang: {word: count for word, (_, count) in getattr(world, lang).items()}
            for lang in "abs"}


def loop_merge(symbols, left, right):
    """The per-symbol merge: (merged, first, last) as _merge_span gives it."""
    out, merged_at = [], []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == left and symbols[i + 1] == right:
            out.append(left + right)
            merged_at.append(i)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    if not merged_at:
        return symbols, -1, -1
    return tuple(out), merged_at[0], merged_at[-1]


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

    # A bool is an int to Python, and a float count would be scaled as one.
    @pytest.mark.parametrize("count", [0, -1, 1.5, 2.0, True])
    def test_count_not_a_positive_int_rejected(self, count):
        with pytest.raises(ContractError, match=r"word 'w' in language 'a'"):
            balance_counts({"a": {"v": 2, "w": count}, "b": {"x": 4}})


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

    @pytest.mark.parametrize(
        "counts, vocab",
        [({"ab": 1.5, "abab": 2}, 10), ({"ab": True, "abab": 2}, 6),
         ({"ab": 1, "abab": 2}, 10.5), ({"ab": 1, "abab": 2}, 10.0),
         ({"ab": 1, "abab": 2}, True)],
        ids=["float-count", "bool-count", "float-vocab", "whole-float-vocab", "bool-vocab"],
    )
    def test_count_or_vocab_not_an_int_rejected(self, counts, vocab):
        with pytest.raises(ContractError, match="must be"):
            train_bpe(counts, vocab)

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

    def test_small_corpora_match_recounting_oracle(self):
        # Every word of up to 6 symbols over a, b and -, alone, and every
        # ordered pair of distinct words of up to 3: overlapping runs
        # (aaaa), a repeated best pair (abab), a pair that one occurrence
        # takes away and the next puts back (ab a in abab), and hyphen-only
        # and hyphen-ended fragments.
        words = ["".join(w) for n in range(1, 7) for w in itertools.product("ab-", repeat=n)]
        corpora = [{word: count} for word in words for count in (1, 2)]
        short = [word for word in words if len(word) <= 3]
        corpora += [{first: 1, second: 2} for first, second in itertools.permutations(short, 2)]
        assert len(corpora) == 3666
        for counts in corpora:
            vocab = len(set("".join(counts))) + 1 + 12
            table = train_bpe(counts, vocab)
            reference = recounting_bpe_train(counts, vocab)
            assert (table.merges, table.truncated) == (reference.merges, reference.truncated), counts

    def test_merge_span_matches_per_symbol_merge(self):
        # Every tuple of up to 6 symbols, with runs (a a a, ab ab) that
        # overlap and a symbol (ab) that is also a merge result.
        alphabet = ("a", "b", "ab", "c")
        for n in range(7):
            for symbols in itertools.product(alphabet, repeat=n):
                for left, right in itertools.product(alphabet, repeat=2):
                    assert (_merge_span(symbols, left, right)
                            == loop_merge(symbols, left, right)), (symbols, left, right)

    def test_benchmark_world_matches_recounting_oracle(self, benchmark_tables):
        counts = balance_counts(benchmark_tables).combined()
        table = train_bpe(counts, vocab_size=150)
        reference = recounting_bpe_train(counts, 150)
        assert len(table.merges) > 100
        assert (table.merges, table.truncated) == (reference.merges, reference.truncated)


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

    @pytest.mark.parametrize(
        "merges",
        [
            [("a", "a"), ("aa", "a"), ("a", "aa")],
            [("a", "aa"), ("a", "a"), ("aa", "a"), ("aa", "aa"), ("a", "aa")],
            # Each aa merge re-ranks a b on both sides at once.
            [("a", "a"), ("b", "aa"), ("aa", "b"), ("baa", "b"), ("aa", "b")],
            # The duplicate (aa, aa) acts after (a, a) forms its pair.
            [("aa", "aa"), ("a", "a"), ("aa", "a"), ("aa", "aa"), ("aaaa", "aa")],
            [("a", "</w>"), ("a", "a"), ("aa", "a</w>"), ("a", "</w>"), ("aa", "aa")],
            # The pairs an aa merge forms have lines only before its turn.
            [("aa", "b"), ("b", "aa"), ("aa", "a"), ("a", "a")],
            # The a+b merge forms ab+c after two of its three lines: the
            # duplicate chain skips both, and only the third can act. It
            # acts in abc; in abcd, c+d takes the c at its earlier turn.
            [("ab", "c"), ("x", "y"), ("ab", "c"), ("a", "b"), ("c", "d"), ("ab", "c")],
        ],
        ids=["runs", "neighbour-first", "both-neighbours", "duplicate-acts-later",
             "word-end", "lines-passed", "third-duplicate-acts"],
    )
    def test_hand_made_tables_match_table_order_oracle(self, merges):
        table = MergeTable(merges=merges)
        words = ["".join(w) for n in range(1, 9) for w in itertools.product("ab", repeat=n)]
        for word in words + ["a-aaaa", "aaaa-", "aaa-baab", "abc", "abcd", "cabcab-c"]:
            assert apply_bpe(table, word) == table_order_bpe_apply(merges, word), word

    def test_benchmark_world_matches_table_order_oracle(self, benchmark_tables):
        # Merges trained as the benchmark trains them, from the balanced a,
        # b and source count tables at vocab 400, on a generated world.
        table = train_bpe(balance_counts(benchmark_tables).combined(), vocab_size=400)
        words = sorted(set().union(*benchmark_tables.values()))
        half = len(words) // 2
        joined = ["%s-%s" % pair for pair in zip(words[:half], words[half:])]
        for word in words + joined:
            assert apply_bpe(table, word) == table_order_bpe_apply(table.merges, word), word

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
