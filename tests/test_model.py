import math
import random
import sys

import pytest
from hypothesis import given, strategies as st

from cogseg.errors import ContractError, ModelIntegrityError
from cogseg.model import (
    XLOGX,
    Analysis,
    CognateModel,
    CognatePair,
    CountLexicon,
    aligned_edit_tokens,
)

from oracles import (
    ReferenceCountLexicon,
    exact_corpus_cost,
    exact_lexicon_cost,
    exact_total_cost,
    rebuilt_lexicon,
)


def lexicon_from(counts):
    lex = CountLexicon()
    for form, count in counts.items():
        lex.add(form, count)
    return lex


class TestCorpusCost:
    def test_single_token(self):
        assert lexicon_from({"aa": 1}).corpus_cost() == 0.0

    def test_single_type_any_count(self):
        for count in (1, 2, 7, 100):
            assert lexicon_from({"m": count}).corpus_cost() == pytest.approx(0.0, abs=1e-12)

    def test_two_symmetric_types(self):
        assert lexicon_from({"a": 2, "b": 2}).corpus_cost() == pytest.approx(
            4 * math.log(2), rel=1e-12
        )

    def test_against_exact_oracle(self):
        counts = {"a": 3, "ab": 1}
        assert lexicon_from(counts).corpus_cost() == pytest.approx(
            exact_corpus_cost(counts), rel=1e-12
        )

    def test_empty(self):
        assert CountLexicon().corpus_cost() == 0.0


class TestLexiconCost:
    def test_empty(self):
        assert CountLexicon().lexicon_cost() == 0.0

    def test_single_entry(self):
        # one form "a": no frequency cost, characters {a: 1, end: 1}
        assert lexicon_from({"a": 1}).lexicon_cost() == pytest.approx(
            2 * math.log(2), rel=1e-12
        )

    def test_against_exact_oracle(self):
        counts = {"a": 2, "ab": 1}
        assert lexicon_from(counts).lexicon_cost() == pytest.approx(
            exact_lexicon_cost(counts), rel=1e-12
        )

    @given(
        st.dictionaries(
            st.text(alphabet="abcde", min_size=1, max_size=5),
            st.integers(min_value=1, max_value=50),
            min_size=0,
            max_size=8,
        )
    )
    def test_matches_exact_arithmetic(self, counts):
        lex = lexicon_from(counts)
        assert lex.corpus_cost() == pytest.approx(exact_corpus_cost(counts), abs=1e-9)
        assert lex.lexicon_cost() == pytest.approx(exact_lexicon_cost(counts), abs=1e-9)

    def test_costs_non_negative(self):
        rng = random.Random(0)
        for _ in range(50):
            counts = {
                "".join(rng.choice("abc") for _ in range(rng.randint(1, 4))): rng.randint(1, 20)
                for _ in range(rng.randint(1, 6))
            }
            lex = lexicon_from(counts)
            assert lex.corpus_cost() >= 0.0
            assert lex.lexicon_cost() >= 0.0
            assert math.isfinite(lex.corpus_cost() + lex.lexicon_cost())


class TestCountLexiconBookkeeping:
    @given(
        st.lists(
            st.tuples(st.text(alphabet="abö", min_size=1, max_size=4), st.integers(1, 5)),
            max_size=40,
        )
    )
    def test_incremental_equals_rebuild(self, ops):
        lex = CountLexicon()
        live = {}
        for form, count in ops:
            # alternate adds and removes, never driving a count negative
            if live.get(form, 0) >= count and len(live) % 2:
                lex.add(form, -count)
                live[form] -= count
                if live[form] == 0:
                    del live[form]
            else:
                lex.add(form, count)
                live[form] = live.get(form, 0) + count
        fresh = rebuilt_lexicon(lex)
        assert lex.counts == live == fresh.counts
        assert lex.char_counts == fresh.char_counts
        assert lex.tokens == fresh.tokens
        assert lex.char_tokens == fresh.char_tokens
        assert lex.log_token_sum == pytest.approx(fresh.log_token_sum, abs=1e-9)
        assert lex.log_char_sum == pytest.approx(fresh.log_char_sum, abs=1e-9)

    def test_sums_equal_plain_arithmetic_bit_for_bit(self):
        rng = random.Random(13)
        size = len(XLOGX)
        forms = ["".join(rng.choice("ab") for _ in range(rng.randint(1, 6)))
                 for _ in range(25)]
        lex, ref = CountLexicon(), ReferenceCountLexicon()
        largest = 0
        for _ in range(3000):
            form = rng.choice(forms)
            have = lex.counts.get(form, 0)
            if have and rng.random() < 0.45:
                delta = -rng.randint(1, have)
            elif rng.random() < 0.02:
                # Counts on both sides of the table's end, and far past it.
                delta = rng.choice((size - 2, size - 1, size, 10**9))
            else:
                delta = rng.randint(1, 4)
            lex.add(form, delta)
            ref.add(form, delta)
            assert (lex.log_token_sum, lex.log_char_sum, lex.tokens, lex.char_tokens) == (
                ref.log_token_sum, ref.log_char_sum, ref.tokens, ref.char_tokens
            )
            largest = max([largest, *lex.counts.values()])
        assert lex.counts == ref.counts and lex.char_counts == ref.char_counts
        assert largest > 10**9
        assert len(XLOGX) == size
        assert all(XLOGX[n] == n * math.log(n) for n in range(1, size))

    @given(
        st.dictionaries(
            st.text(alphabet="abö|", min_size=1, max_size=5),
            st.integers(min_value=1, max_value=30000),
            max_size=30,
        ),
        st.randoms(use_true_random=False),
    )
    def test_from_counts_agrees_with_add_in_any_order(self, counts, rng):
        forms = list(counts)
        rng.shuffle(forms)
        added = lexicon_from({form: counts[form] for form in forms})
        bulk = CountLexicon.from_counts(counts)
        assert bulk.counts == added.counts == counts
        assert bulk.char_counts == added.char_counts
        assert (bulk.tokens, bulk.char_tokens) == (added.tokens, added.char_tokens)
        for attr in ("log_token_sum", "log_char_sum"):
            assert getattr(bulk, attr) == pytest.approx(getattr(added, attr), rel=1e-12)
        # The float sums depend only on the counts, never on their order.
        reordered = CountLexicon.from_counts({form: counts[form] for form in forms})
        assert (reordered.log_token_sum, reordered.log_char_sum) == (
            bulk.log_token_sum, bulk.log_char_sum
        )

    def test_zero_count_eviction(self):
        lex = lexicon_from({"ab": 2})
        lex.add("ab", -2)
        assert lex.counts == {} and lex.char_counts == {}
        assert lex.tokens == 0 and lex.char_tokens == 0

    def test_negative_count_rejected(self):
        lex = lexicon_from({"a": 1})
        with pytest.raises(ContractError):
            lex.add("a", -2)

    def test_trie_holds_step_costs_and_follows_every_add(self):
        def step(tokens, count):
            return math.log(tokens) - math.log(count)

        lex = lexicon_from({"ka": 2, "kala": 1})
        trie = lex.trie()
        assert trie == {"k": {"a": {"": step(3, 2), "l": {"a": {"": step(3, 1)}}}}}
        assert lex.trie() is trie
        lex.add("ka", 3)  # a count change alone drops the trie
        assert lex.trie() is not trie
        assert lex.trie() == {"k": {"a": {"": step(6, 5), "l": {"a": {"": step(6, 1)}}}}}
        lex.add("la", 1)  # a form enters
        assert lex.trie()["l"] == {"a": {"": step(7, 1)}}
        lex.add("kala", -1)  # a form leaves
        assert lex.trie() == {"k": {"a": {"": step(6, 5)}}, "l": {"a": {"": step(6, 1)}}}


def toy_model(alpha=0.01, edit_weight=10.0, edit_mode="full"):
    model = CognateModel(alpha=alpha, edit_weight=edit_weight, edit_mode=edit_mode)
    model.register_pair(CognatePair("talo", "talu", 5, 3))
    model.add_analysis(Analysis("talo", ("talo",), 5), "a")
    model.add_analysis(Analysis("talu", ("talu",), 3), "b")
    model.add_analysis(Analysis("katos", ("katos",), 2), "a")
    return model


class TestTotalCost:
    def test_empty_model(self):
        assert CognateModel().total_cost() == 0.0

    def test_no_pairs_equals_sum_of_monolingual(self):
        joint = CognateModel(alpha=0.07, edit_weight=3.0)
        mono_a = CognateModel(alpha=0.07, edit_weight=3.0)
        mono_b = CognateModel(alpha=0.07, edit_weight=3.0)
        for word, count in (("kala", 4), ("kalas", 1)):
            joint.add_analysis(Analysis(word, (word,), count), "a")
            mono_a.add_analysis(Analysis(word, (word,), count), "a")
        for word, count in (("kale", 2), ("vesi", 6)):
            joint.add_analysis(Analysis(word, (word,), count), "b")
            mono_b.add_analysis(Analysis(word, (word,), count), "b")
        assert joint.total_cost() == pytest.approx(
            mono_a.total_cost() + mono_b.total_cost(), rel=1e-12
        )

    def test_matches_exact_composition(self):
        model = toy_model()
        expected = exact_total_cost(
            {"talo": 5, "katos": 2}, {"talu": 3}, {"o|u": 1}, 0.01, 10.0
        )
        assert model.total_cost() == pytest.approx(expected, rel=1e-12)
        assert model.recompute_from_scratch() == pytest.approx(expected, rel=1e-12)

    def test_count_only_mode_drops_edit_terms(self):
        full = toy_model(edit_mode="full")
        loose = toy_model(edit_mode="count-only")
        assert loose.edit_lexicon.counts == {"o|u": 1}
        assert loose.total_cost() < full.total_cost()
        expected = exact_total_cost(
            {"talo": 5, "katos": 2}, {"talu": 3}, {}, 0.01, 10.0, edit_mode="count-only"
        )
        assert loose.total_cost() == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_weights(self):
        base = toy_model(alpha=0.01, edit_weight=10.0).total_cost()
        assert toy_model(alpha=0.02, edit_weight=10.0).total_cost() >= base
        assert toy_model(alpha=0.01, edit_weight=20.0).total_cost() >= base


class TestAddRemove:
    def test_add_then_remove_is_neutral(self):
        model = toy_model()
        before = model.total_cost()
        assert model.add_analysis(Analysis("vesi", ("ve", "si"), 2), "a") is None
        assert model.total_cost() > before
        assert model.remove_analysis("vesi", "a") is None
        assert model.total_cost() == pytest.approx(before, abs=1e-9)

    def test_pair_edits_added_atomically(self):
        model = CognateModel()
        model.register_pair(CognatePair("talo", "talu", 1, 1))
        model.add_analysis(Analysis("talo", ("talo",), 1), "a")
        assert model.edit_lexicon.counts == {}
        model.add_analysis(Analysis("talu", ("talu",), 1), "b")
        assert model.edit_lexicon.counts == {"o|u": 1}
        model.remove_analysis("talo", "a")
        assert model.edit_lexicon.counts == {}

    @pytest.mark.parametrize("call", [
        lambda model: model.add_analysis(Analysis("vesi", ("vesi",), 1), "c"),
        lambda model: model.insert_analysis(Analysis("vesi", ("vesi",), 1), "c"),
        lambda model: model.remove_analysis("kala", "c"),
    ], ids=["add", "insert", "remove"])
    def test_unknown_language_rejected(self, call):
        with pytest.raises(ContractError) as err:
            call(toy_model())
        assert str(err.value) == "unknown language 'c' (the model holds: a, b)"

    def test_unequal_pair_morph_counts_rejected(self):
        # Either word may come second; the rejected call must leave no trace.
        split = {"a": Analysis("talo", ("ta", "lo"), 1), "b": Analysis("talu", ("ta", "lu"), 1)}
        whole = {"a": Analysis("talo", ("talo",), 1), "b": Analysis("talu", ("talu",), 1)}

        def state(model):
            lexicons = [model.lexicons["a"], model.lexicons["b"], model.edit_lexicon]
            return (
                {lang: dict(table) for lang, table in model.analyses.items()},
                [(dict(lex.counts), dict(lex.char_counts), lex.tokens, lex.char_tokens,
                  lex.log_token_sum, lex.log_char_sum) for lex in lexicons],
            )

        for first, second in (("a", "b"), ("b", "a")):
            model = CognateModel()
            model.register_pair(CognatePair("talo", "talu", 1, 1))
            model.add_analysis(split[first], first)
            before = state(model)
            with pytest.raises(ContractError):
                model.add_analysis(whole[second], second)
            assert state(model) == before
            assert model.recompute_from_scratch() == pytest.approx(
                model.total_cost(), rel=1e-12
            )

    def test_duplicate_add_and_absent_remove_rejected(self):
        model = toy_model()
        with pytest.raises(ContractError):
            model.add_analysis(Analysis("talo", ("talo",), 5), "a")
        with pytest.raises(ContractError):
            model.remove_analysis("missing", "a")

    def test_hundred_random_deltas_match_recompute(self):
        rng = random.Random(7)
        model = toy_model()
        words = ["vesi", "vene", "veneen", "kalastaa", "kálà"]
        present = set()
        for step in range(100):
            if present and rng.random() < 0.5:
                word = rng.choice(sorted(present))
                present.discard(word)
                model.remove_analysis(word, "a")
            else:
                word = rng.choice([w for w in words if w not in present])
                present.add(word)
                n = rng.randint(1, len(word))
                cuts = sorted(rng.sample(range(1, len(word)), n - 1))
                morphs = tuple(
                    word[i:j] for i, j in zip([0] + cuts, cuts + [len(word)])
                )
                model.add_analysis(Analysis(word, morphs, rng.randint(1, 9)), "a")
            fresh = model.recompute_from_scratch()
            assert model.total_cost() == pytest.approx(fresh, rel=1e-9)


# Two pairs and one unpaired word per language: random add and remove
# sequences reach every order of a pair's two members.
STEP_PAIRS = [("talo", "talu"), ("kala", "kalu")]
STEP_WORDS = [("a", "talo"), ("b", "talu"), ("a", "kala"), ("b", "kalu"), ("a", "vesi"),
              ("b", "maa")]


@st.composite
def analysis_steps(draw):
    """(language, word, cut points, count) of each step: a recorded word is
    removed, an unrecorded one is added with that segmentation."""
    steps = []
    for _ in range(draw(st.integers(1, 24))):
        language, word = draw(st.sampled_from(STEP_WORDS))
        cuts = sorted(draw(st.sets(st.integers(1, len(word) - 1), max_size=2)))
        steps.append((language, word, cuts, draw(st.integers(1, 4))))
    return steps


def counted_state(lexicons):
    return [(lex.counts, lex.char_counts, lex.tokens, lex.char_tokens) for lex in lexicons]


def model_state(model):
    lexicons = [model.lexicons["a"], model.lexicons["b"], model.edit_lexicon]
    return ({lang: dict(table) for lang, table in model.analyses.items()},
            [(dict(counts), dict(chars), tokens, char_tokens)
             for counts, chars, tokens, char_tokens in counted_state(lexicons)])


@given(analysis_steps())
def test_pair_edit_forms_are_counted_exactly_while_both_words_are_recorded(steps):
    model = CognateModel()
    for word_a, word_b in STEP_PAIRS:
        model.register_pair(CognatePair(word_a, word_b, 1, 1))
    for language, word, cuts, count in steps:
        if word in model.analyses[language]:
            model.remove_analysis(word, language)
        else:
            bounds = [0] + cuts + [len(word)]
            analysis = Analysis(word, tuple(word[i:j] for i, j in zip(bounds, bounds[1:])), count)
            pair = model.pair_for(language, word)
            partner = pair and model.analyses["b" if language == "a" else "a"].get(
                pair.word_b if language == "a" else pair.word_a)
            if partner and len(partner.morphs) != len(analysis.morphs):
                before = model_state(model)
                with pytest.raises(ContractError):
                    model.add_analysis(analysis, language)
                assert model_state(model) == before
                continue
            model.add_analysis(analysis, language)
        lexicons = [model.lexicons["a"], model.lexicons["b"], model.edit_lexicon]
        analyses_a, analyses_b = model.analyses["a"], model.analyses["b"]
        recorded = [(analyses_a[p.word_a], analyses_b[p.word_b]) for p in model.pairs
                    if p.word_a in analyses_a and p.word_b in analyses_b]
        assert counted_state(lexicons) == counted_state(model._rebuild(recorded))
        model.recompute_from_scratch()
        for pair in model.pairs:
            entries = [("a", model.analyses["a"].get(pair.word_a)),
                       ("b", model.analyses["b"].get(pair.word_b))]
            if entries[0][1] and entries[1][1]:
                before = model_state(model)
                model.count_unit(entries, -1)
                model.count_unit(entries, 1)
                assert model_state(model) == before


class TestIntegrity:
    def test_recompute_on_fresh_model(self):
        model = toy_model()
        assert model.recompute_from_scratch() == pytest.approx(
            model.total_cost(), rel=1e-12
        )

    def test_corruption_detected(self):
        # One corrupted cached field each, with the message that names it.
        clean = toy_model()
        token_sum = clean.lexicons["a"].log_token_sum
        char_sum = clean.edit_lexicon.log_char_sum
        cases = [
            (lambda m: m.lexicons["a"].add("bogus", 3), "lexicon a counts diverge from analyses"),
            (lambda m: m.lexicons["b"].char_counts.update(t=2),
             "lexicon b character counts diverge"),
            (lambda m: setattr(m.lexicons["a"], "tokens", 8), "lexicon a totals diverge"),
            (lambda m: setattr(m.edit_lexicon, "char_tokens", 5), "edit lexicon totals diverge"),
            (lambda m: setattr(m.lexicons["a"], "log_token_sum", token_sum + 1.0),
             "lexicon a log_token_sum drifted: cached %.17g vs fresh %.17g"
             % (token_sum + 1.0, token_sum)),
            (lambda m: setattr(m.edit_lexicon, "log_char_sum", char_sum + 0.5),
             "edit lexicon log_char_sum drifted: cached %.17g vs fresh %.17g"
             % (char_sum + 0.5, char_sum)),
        ]
        for corrupt, message in cases:
            model = toy_model()
            corrupt(model)
            with pytest.raises(ModelIntegrityError) as err:
                model.recompute_from_scratch()
            assert str(err.value) == message

    def test_detach_attach_roundtrip(self):
        model = toy_model()
        before = model.total_cost()
        pair = [("a", model.analyses["a"]["talo"]), ("b", model.analyses["b"]["talu"])]
        model.count_unit(pair, -1)
        assert model.edit_lexicon.counts == {}
        assert model.lexicons["a"].counts == {"katos": 2} and model.lexicons["b"].counts == {}
        model.count_unit(pair, 1)
        assert model.total_cost() == pytest.approx(before, abs=1e-9)
        model.recompute_from_scratch()


    def test_recount_installs_the_recompute(self):
        model = toy_model()
        model.add_analysis(Analysis("vesi", ("ve", "si"), 2), "a")
        counts = [dict(lex.counts) for lex in (*model.lexicons.values(), model.edit_lexicon)]
        model.recount()
        assert [lex.counts for lex in (*model.lexicons.values(), model.edit_lexicon)] == counts
        forms = aligned_edit_tokens(model.analyses["a"]["talo"], model.analyses["b"]["talu"])
        assert model.edit_lexicon.counts == {form: forms.count(form) for form in forms}
        assert model.total_cost() == model.recompute_from_scratch()


class TestTypes:
    def test_analysis_concatenation_enforced(self):
        with pytest.raises(ContractError):
            Analysis("talo", ("ta", "la"), 1)
        with pytest.raises(ContractError):
            Analysis("talo", ("talo",), 0)
        with pytest.raises(ContractError):
            Analysis("talo", (), 1)

    @pytest.mark.parametrize("count", [1.5, 2.0, True, "3"])
    def test_analysis_count_must_be_an_int(self, count):
        # A float count would fail in add_analysis's XLOGX lookup after the
        # lexicon had taken it; a bool is an int to Python.
        with pytest.raises(ContractError):
            Analysis("kala", ("kala",), count)

    def test_analysis_whitespace_rejected(self):
        with pytest.raises(ContractError):
            Analysis("ta lo", ("ta lo",), 1)

    def test_analysis_rejects_every_whitespace_character(self):
        spaces = [chr(cp) for cp in range(sys.maxunicode + 1) if chr(cp).isspace()]
        assert len(spaces) > 20
        for ch in spaces:
            word = "ta" + ch + "lo"
            with pytest.raises(ContractError):
                Analysis(word, (word,), 1)

    def test_pair_registration_unique(self):
        model = CognateModel()
        model.register_pair(CognatePair("a1", "b1", 1, 1))
        with pytest.raises(ContractError):
            model.register_pair(CognatePair("a1", "b2", 1, 1))
        with pytest.raises(ContractError):
            model.register_pair(CognatePair("a2", "b1", 1, 1))

    def test_pair_of_recorded_words_rejected_unchanged(self):
        # Registered after its words were counted in, the pair's edit forms
        # would never be counted.
        model = CognateModel()
        model.add_analysis(Analysis("talo", ("talo",), 1), "a")
        model.add_analysis(Analysis("talu", ("talu",), 1), "b")
        with pytest.raises(ContractError) as err:
            model.register_pair(CognatePair("talo", "talu", 1, 1))
        assert str(err.value) == "pair word 'talo' is already analyzed in a"
        assert model.pairs == [] and model.pair_for("b", "talu") is None
        model.recompute_from_scratch()

    def test_aligned_edit_tokens_requires_equal_counts(self):
        with pytest.raises(ContractError):
            aligned_edit_tokens(
                Analysis("ab", ("a", "b"), 1), Analysis("ab", ("ab",), 1)
            )

    def test_invalid_construction_params(self):
        with pytest.raises(ContractError):
            CognateModel(alpha=0.0)
        # A bool would save as "True", which load_model rejects; an int
        # beyond the float range cannot be weighed.
        for bad in (math.nan, math.inf, True, 10**400):
            with pytest.raises(ContractError):
                CognateModel(alpha=bad)
            with pytest.raises(ContractError):
                CognateModel(edit_weight=bad)
        with pytest.raises(ContractError):
            CognateModel(edit_mode="loose")
