import hashlib
import logging
import math
from collections import Counter

import pytest

from cogseg import model as model_module
from cogseg.edits import MAX_ENTRIES, edit_forms, extract_edits
from cogseg.errors import ContractError, PairError
from cogseg.model import (
    Analysis,
    CognateModel,
    CognatePair,
    CountLexicon,
    aligned_edit_tokens,
)
from cogseg.serialization import load_model, save_model
from cogseg.trainer import (
    TrainingParams,
    _optimize,
    initialize,
    resegment_pair,
    resegment_word,
    train,
)

from oracles import exhaustive_minimum, segmentations


def default_params(**kwargs):
    return TrainingParams(**kwargs)


class TestTrainingParams:
    @pytest.mark.parametrize(
        "settings",
        [{"alpha": 0}, {"alpha": math.nan}, {"edit_weight": -1.0}, {"edit_mode": "bogus"},
         {"dampening": "sqrt"}, {"rng_seed": 1.5}],
        ids=["alpha-zero", "alpha-nan", "edit-weight-negative", "edit-mode", "dampening",
             "seed"],
    )
    def test_bad_model_setting_rejected_on_construction(self, settings):
        with pytest.raises(ContractError):
            TrainingParams(**settings)

    def test_defaults_are_the_model_defaults(self):
        # The benchmark trains with TrainingParams() and builds its gold
        # models with CognateModel(), so drifting defaults would make the
        # gold model headers differ from the trained ones.
        params, model = TrainingParams(), CognateModel()
        assert (params.alpha, params.edit_weight, params.edit_mode, params.rng_seed,
                params.dampening) == (model.alpha, model.edit_weight, model.edit_mode,
                                      model.seed, model.dampening)


class TestInitialize:
    def test_single_pair_populates_edit_lexicon(self):
        model = initialize({"talo": 5}, {"talu": 3}, [("talo", "talu")], default_params())
        assert model.analyses["a"]["talo"].morphs == ("talo",)
        assert model.analyses["b"]["talu"].morphs == ("talu",)
        assert model.edit_lexicon.counts == {"o|u": 1}

    def test_empty_pair_set_is_two_independent_models(self):
        joint = initialize({"kala": 2}, {"vesi": 3}, [], default_params())
        mono_a = initialize({"kala": 2}, {}, [], default_params())
        mono_b = initialize({"vesi": 3}, {}, [], default_params())
        assert joint.edit_lexicon.counts == {}
        assert joint.total_cost() == pytest.approx(
            mono_a.total_cost() + mono_b.total_cost(), rel=1e-12
        )

    def test_five_word_toy_matches_recompute(self):
        model = initialize(
            {"aqua": 4, "aqualung": 1, "lung": 2},
            {"akva": 3, "akvalang": 1},
            [("aqua", "akva"), ("aqualung", "akvalang")],
            default_params(),
        )
        assert model.total_cost() == pytest.approx(
            model.recompute_from_scratch(), rel=1e-12
        )

    def test_initial_cost_equals_the_recount_bit_for_bit(self):
        corpora = TestPinnedTraining
        model = initialize(corpora.CORPUS_A, corpora.CORPUS_B, corpora.PAIRS, default_params())
        assert model.edit_lexicon.types > 0
        assert model.total_cost() == model.recompute_from_scratch()

    def test_counts_equal_a_word_by_word_build(self):
        corpora = TestPinnedTraining
        model = initialize(corpora.CORPUS_A, corpora.CORPUS_B, corpora.PAIRS, default_params())
        built = CognateModel()
        for word_a, word_b in corpora.PAIRS:
            built.register_pair(CognatePair(word_a, word_b, corpora.CORPUS_A[word_a],
                                            corpora.CORPUS_B[word_b]))
        for lang, corpus in (("a", corpora.CORPUS_A), ("b", corpora.CORPUS_B)):
            for word, count in corpus.items():
                built.add_analysis(Analysis(word, (word,), count), lang)
        assert model.analyses == built.analyses
        for name in ("counts", "tokens", "char_counts", "char_tokens"):
            for lang in ("a", "b"):
                assert getattr(model.lexicons[lang], name) == getattr(built.lexicons[lang], name)
            assert getattr(model.edit_lexicon, name) == getattr(built.edit_lexicon, name)
        edit_forms_of_pairs = [
            form for p in built.pairs for form in aligned_edit_tokens(
                built.analyses["a"][p.word_a], built.analyses["b"][p.word_b])
        ]
        assert model.edit_lexicon.counts == Counter(edit_forms_of_pairs)
        assert model.total_cost() == pytest.approx(built.total_cost(), rel=1e-12)

    def test_pair_word_missing_from_corpus_rejected(self):
        with pytest.raises(ContractError):
            initialize({"talo": 1}, {"talu": 1}, [("talo", "tala")], default_params())

    def test_duplicate_pair_membership_rejected(self):
        with pytest.raises(ContractError):
            initialize(
                {"talo": 1},
                {"talu": 1, "tala": 1},
                [("talo", "talu"), ("talo", "tala")],
                default_params(),
            )

    def test_log_dampening(self):
        model = initialize({"kala": 100}, {}, [], default_params(dampening="log"))
        assert model.analyses["a"]["kala"].count == int(math.floor(math.log(100))) + 1


class TestResegmentWord:
    def test_single_character_word(self):
        model = initialize({"a": 3, "bc": 1}, {}, [], default_params())
        model.count_unit([("a", model.analyses["a"]["a"])], -1)
        assert resegment_word(model, "a", "a").morphs == ("a",)

    def test_splits_into_frequent_parts(self):
        # with the corpus cost fully weighted, "aabb" rides on aa and bb
        params = default_params(alpha=1.0)
        model = initialize({"aabb": 1, "aa": 5, "bb": 5}, {}, [], params)
        model.count_unit([("a", model.analyses["a"]["aabb"])], -1)
        analysis = resegment_word(model, "aabb", "a")
        assert analysis.morphs == ("aa", "bb")

    @pytest.mark.parametrize("alpha", [0.01, 0.3, 1.0])
    def test_matches_exhaustive_enumeration(self, alpha):
        params = default_params(alpha=alpha)
        model = initialize({"aabb": 1, "aa": 5, "bb": 5}, {}, [], params)
        # oracle: all 8 segmentations of "aabb", exact cost of each
        results = {}
        for seg in segmentations("aabb"):
            model.count_unit([("a", model.analyses["a"]["aabb"])], -1)
            model.analyses["a"]["aabb"] = Analysis("aabb", seg, 1)
            model.count_unit([("a", model.analyses["a"]["aabb"])], 1)
            results[seg] = model.total_cost()
        best_cost = min(results.values())
        model.count_unit([("a", model.analyses["a"]["aabb"])], -1)
        model.analyses["a"]["aabb"] = Analysis("aabb", ("aabb",), 1)
        resegmented = resegment_word(model, "aabb", "a")
        assert model.total_cost() == pytest.approx(best_cost, rel=1e-9)
        assert results[resegmented.morphs] == pytest.approx(best_cost, rel=1e-9)

    def test_never_worse_than_whole_word(self):
        params = default_params()
        model = initialize(
            {"sininen": 1, "sini": 3, "nen": 3, "punainen": 1}, {}, [], params
        )
        for word in ("sininen", "punainen"):
            model.count_unit([("a", model.analyses["a"][word])], -1)
            model.analyses["a"][word] = Analysis(word, (word,), 1)
            model.count_unit([("a", model.analyses["a"][word])], 1)
            whole = model.total_cost()
            model.count_unit([("a", model.analyses["a"][word])], -1)
            resegment_word(model, word, "a")
            assert model.total_cost() <= whole + 1e-9

    def test_empty_word_rejected(self):
        model = initialize({"ab": 1}, {}, [], default_params())
        with pytest.raises(ContractError):
            resegment_word(model, "", "a")


def recorded(model, pair):
    """The recorded (language, analysis) entries of a pair."""
    return [("a", model.analyses["a"][pair.word_a]), ("b", model.analyses["b"][pair.word_b])]


def pair_resegment_oracle(model, pair):
    """Exhaustive minimum over all equal-count paired segmentations."""
    count_a = model.analyses["a"][pair.word_a].count
    count_b = model.analyses["b"][pair.word_b].count
    lex_a, lex_b, lex_e = model.lexicons["a"], model.lexicons["b"], model.edit_lexicon
    best = (math.inf, None)
    for seg_a in segmentations(pair.word_a):
        for seg_b in segmentations(pair.word_b):
            if len(seg_a) != len(seg_b):
                continue
            forms = [
                e.form
                for ma, mb in zip(seg_a, seg_b)
                for e in extract_edits(ma, mb).edits
            ]
            for m in seg_a:
                lex_a.add(m, count_a)
            for m in seg_b:
                lex_b.add(m, count_b)
            for f in forms:
                lex_e.add(f, 1)
            cost = model.total_cost()
            for m in seg_a:
                lex_a.add(m, -count_a)
            for m in seg_b:
                lex_b.add(m, -count_b)
            for f in forms:
                lex_e.add(f, -1)
            if cost < best[0]:
                best = (cost, (seg_a, seg_b))
    return best


class TestResegmentPair:
    @pytest.mark.parametrize("word_a, word_b", [("a", "e"), ("a", "ek"), ("ak", "e")])
    def test_single_character_pair_stays_whole(self, word_a, word_b):
        # A one-character side cannot split, so neither side may.
        model = initialize({word_a: 2}, {word_b: 2}, [(word_a, word_b)], default_params())
        pair = model.pairs[0]
        model.count_unit(recorded(model, pair), -1)
        new_a, new_b = resegment_pair(model, pair)
        assert new_a.morphs == (word_a,) and new_b.morphs == (word_b,)
        assert model.recompute_from_scratch() == pytest.approx(model.total_cost(), rel=1e-12)

    def test_seeded_compound_pair_matches_exhaustive(self):
        corpus_a = {"tööajast": 1, "töö": 5, "aja": 5, "st": 5}
        corpus_b = {"työajasta": 1, "työ": 5, "aja": 5, "sta": 5}
        params = default_params(alpha=1.0)
        model = initialize(corpus_a, corpus_b, [("tööajast", "työajasta")], params)
        pair = model.pairs[0]
        model.count_unit(recorded(model, pair), -1)
        oracle_cost, oracle_segs = pair_resegment_oracle(model, pair)
        new_a, new_b = resegment_pair(model, pair)
        assert len(new_a.morphs) == len(new_b.morphs)
        assert model.total_cost() == pytest.approx(oracle_cost, rel=1e-9)
        assert (new_a.morphs, new_b.morphs) == oracle_segs
        model.recompute_from_scratch()

    def test_equal_morph_counts_enforced_by_construction(self):
        model = initialize(
            {"kalastaja": 1, "kala": 4}, {"kalastaja": 1, "kala": 4},
            [("kalastaja", "kalastaja")], default_params(alpha=1.0),
        )
        pair = model.pairs[0]
        model.count_unit(recorded(model, pair), -1)
        new_a, new_b = resegment_pair(model, pair)
        assert len(new_a.morphs) == len(new_b.morphs)

    def test_unregistered_pair_rejected(self):
        model = initialize({"ab": 1}, {"cd": 1}, [], default_params())
        with pytest.raises(ContractError):
            resegment_pair(model, CognatePair("ab", "cd", 1, 1))


class TestOptimizeRestore:
    """A step whose search finds only costlier analyses than the unit's
    previous ones puts those back. The greedy split misses an analysis into
    three single-character morphs: every first split it scores adds a
    two-character morph, and the whole word scores lower than those. Both
    cases were found by a seeded search over small models."""

    @staticmethod
    def step(model, unit):
        old = [model.analyses[lang][word] for lang, word in unit]
        before = model.total_cost()
        assert _optimize(model, unit) == (False, True)
        assert [model.analyses[lang][word] for lang, word in unit] == old
        assert model.recompute_from_scratch() == pytest.approx(model.total_cost(), rel=1e-12)
        assert model.total_cost() == pytest.approx(before, rel=1e-12)

    def test_word_keeps_cheaper_previous_analysis(self):
        model = initialize({"ccc": 3}, {}, [], default_params(alpha=0.5))
        model.remove_analysis("ccc", "a")
        model.add_analysis(Analysis("ccc", ("c", "c", "c"), 3), "a")
        self.step(model, (("a", "ccc"),))

    def test_pair_keeps_cheaper_previous_analyses(self):
        model = initialize({"ccc": 1}, {"bbb": 3}, [("ccc", "bbb")], default_params(alpha=0.5))
        old_a = Analysis("ccc", ("c", "c", "c"), 1)
        old_b = Analysis("bbb", ("b", "b", "b"), 3)
        model.remove_analysis("ccc", "a")
        model.remove_analysis("bbb", "b")
        model.add_analysis(old_a, "a")
        model.add_analysis(old_b, "b")
        self.step(model, (("a", "ccc"), ("b", "bbb")))
        assert model.edit_lexicon.counts == Counter(aligned_edit_tokens(old_a, old_b))


class TestOptimizeLookups:
    """A step's model-side edit-form lookups (count_unit and cost_with, each
    looking a pair's forms up for itself) ask for the morph pairs of the old
    and of the new pair analyses and for nothing else, and leave counts that
    a recount matches. The search's own lookups go through
    trainer._edit_forms and are not counted here."""

    @staticmethod
    def model_lookups(monkeypatch):
        lookups = []
        real = model_module.edit_forms

        def counted(morph_a, morph_b):
            lookups.append((morph_a, morph_b))
            return real(morph_a, morph_b)

        monkeypatch.setattr(model_module, "edit_forms", counted)
        return lookups

    def test_changed_pair_looks_up_only_old_and_new_morph_pairs(self, monkeypatch):
        model = initialize(
            {"kalassa": 3, "kala": 9, "ssa": 5, "vesi": 2},
            {"kalas": 3, "kala": 8, "s": 5, "veed": 2},
            [("kalassa", "kalas"), ("vesi", "veed")],
            default_params(rng_seed=1),
        )
        lookups = self.model_lookups(monkeypatch)
        assert _optimize(model, (("a", "kalassa"), ("b", "kalas"))) == (True, False)
        assert model.analyses["a"]["kalassa"].morphs == ("kala", "ssa")
        assert model.analyses["b"]["kalas"].morphs == ("kala", "s")
        assert set(lookups) == {("kalassa", "kalas"), ("kala", "kala"), ("ssa", "s")}
        assert model.recompute_from_scratch() == pytest.approx(model.total_cost(), rel=1e-12)

    def test_restored_pair_looks_up_only_old_and_new_morph_pairs(self, monkeypatch):
        model = initialize({"ccc": 1}, {"bbb": 3}, [("ccc", "bbb")], default_params(alpha=0.5))
        model.remove_analysis("ccc", "a")
        model.remove_analysis("bbb", "b")
        model.add_analysis(Analysis("ccc", ("c", "c", "c"), 1), "a")
        model.add_analysis(Analysis("bbb", ("b", "b", "b"), 3), "b")
        lookups = self.model_lookups(monkeypatch)
        assert _optimize(model, (("a", "ccc"), ("b", "bbb"))) == (False, True)
        assert set(lookups) == {("c", "b"), ("ccc", "bbb")}
        assert model.edit_lexicon.counts == {"c|b": 3}
        assert model.recompute_from_scratch() == pytest.approx(model.total_cost(), rel=1e-12)


class TestOptimizeKeep:
    def test_refound_analysis_is_never_restored(self):
        # The search keeps "abba" whole. Adding and taking back its split
        # candidates used to leave the cached cost one rounding step above
        # the old one, and the step restored the identical analysis.
        model = initialize({"abba": 1}, {}, [], default_params(alpha=0.1))
        result = _optimize(model, (("a", "abba"),))
        assert model.analyses["a"]["abba"].morphs == ("abba",)
        assert result == (False, False)


class TestTrain:
    def test_pair_without_both_analyses_rejected_before_any_unit(self):
        model = initialize({"talo": 2, "kala": 3}, {"talu": 2}, [("talo", "talu")],
                           default_params())
        model.remove_analysis("talo", "a")
        analyses = {lang: dict(table) for lang, table in model.analyses.items()}
        with pytest.raises(ContractError) as err:
            train(model, default_params())
        assert str(err.value) == "pair word 'talo' has no analysis in a"
        assert model.analyses == analyses

    def test_failing_second_pair_is_named_by_its_index_before_any_unit(self):
        model = initialize({"talo": 2, "kala": 3}, {"talu": 2, "kalu": 3},
                           [("talo", "talu"), ("kala", "kalu")], default_params())
        model.remove_analysis("kala", "a")
        analyses = {lang: dict(table) for lang, table in model.analyses.items()}
        with pytest.raises(PairError) as err:
            train(model, default_params())
        assert err.value.index == 1
        assert str(err.value) == "pair word 'kala' has no analysis in a"
        assert model.analyses == analyses

    def test_epochs_count_changed_units_and_restores(self):
        params = default_params(alpha=0.5, rng_seed=1, max_epochs=3, convergence_threshold=0.0)
        corpora = TestPinnedTraining
        model = initialize(corpora.CORPUS_A, corpora.CORPUS_B, corpora.PAIRS, params)
        report = train(model, params)
        assert [e.units_changed for e in report.epochs] == [11, 1, 0]
        assert [e.restores for e in report.epochs] == [0, 0, 0]

    def test_epochs_report_time_and_edit_cache_lookups(self, caplog):
        params = default_params(alpha=0.5, rng_seed=1, max_epochs=2, convergence_threshold=0.0)
        corpora = TestPinnedTraining
        model = initialize(corpora.CORPUS_A, corpora.CORPUS_B, corpora.PAIRS, params)
        edit_forms.cache_clear()  # earlier tests may have looked these keys up
        with caplog.at_level(logging.INFO, logger="cogseg.trainer"):
            report = train(model, params)
        info = edit_forms.cache_info()
        assert report.epochs_run == 2
        assert report.epochs[0].edit_cache_misses > 0
        assert sum(e.edit_cache_hits for e in report.epochs) == info.hits
        assert sum(e.edit_cache_misses for e in report.epochs) == info.misses
        assert all(e.seconds > 0 for e in report.epochs)
        logged = [r.getMessage() for r in caplog.records if r.getMessage().startswith("epoch ")]
        assert len(logged) == 2
        first = report.epochs[0]
        assert logged[0].endswith(
            "s, edit cache %d hits %d misses" % (first.edit_cache_hits, first.edit_cache_misses)
        )

    def test_train_leaves_the_edit_cache_bound_alone(self):
        params = default_params(alpha=0.5, rng_seed=1, max_epochs=1)
        corpora = TestPinnedTraining
        train(initialize(corpora.CORPUS_A, corpora.CORPUS_B, corpora.PAIRS, params), params)
        assert edit_forms.cache_info().maxsize == MAX_ENTRIES

    def test_monolingual_epochs_look_up_no_edits(self):
        params = default_params(alpha=0.5, rng_seed=1, max_epochs=2, convergence_threshold=0.0)
        model = initialize(TestPinnedTraining.CORPUS_A, {}, [], params)
        report = train(model, params)
        assert [(e.edit_cache_hits, e.edit_cache_misses) for e in report.epochs] == [(0, 0)] * 2

    def test_restores_are_counted(self):
        # The search misses the cheaper three-morph analysis (TestOptimizeRestore).
        model = initialize({"ccc": 3}, {}, [], default_params(alpha=0.5))
        model.remove_analysis("ccc", "a")
        model.add_analysis(Analysis("ccc", ("c", "c", "c"), 3), "a")
        report = train(model, default_params(max_epochs=1))
        assert (report.epochs[0].units_changed, report.epochs[0].restores) == (0, 1)

    def test_zero_threshold_stops_after_an_epoch_that_changes_nothing(self):
        # Epoch 3 changes no unit, so no later epoch can: training stops
        # there, whatever the rounding of its cost says.
        params = default_params(alpha=0.5, rng_seed=1, max_epochs=8, convergence_threshold=0.0)
        corpora = TestPinnedTraining
        model = initialize(corpora.CORPUS_A, corpora.CORPUS_B, corpora.PAIRS, params)
        report = train(model, params)
        assert [e.units_changed for e in report.epochs] == [11, 1, 0]
        assert repr(report.final_cost) == "1178.681209950501"

    def test_already_converged_stops_after_one_epoch(self):
        model = initialize({"a": 1}, {"b": 1}, [], default_params())
        report = train(model, default_params())
        assert report.epochs_run == 1
        assert report.epochs[0].total_cost == pytest.approx(report.initial_cost, abs=1e-9)

    def test_identical_seeds_bit_identical_reports(self):
        def run():
            params = default_params(rng_seed=11, record_steps=True)
            model = initialize(
                {"kalassa": 2, "kala": 5, "talossa": 2, "talo": 5},
                {"kalas": 2, "kala": 4, "talus": 2, "talu": 4},
                [("kala", "kala"), ("talossa", "talus")],
                params,
            )
            return train(model, params), model

        r1, m1 = run()
        r2, m2 = run()
        assert r1 == r2
        assert m1.analyses == m2.analyses

    def test_different_seeds_may_differ_but_stay_consistent(self):
        for seed in (1, 2, 3):
            params = default_params(rng_seed=seed)
            model = initialize(
                {"saamiseksi": 2, "saami": 3, "seksi": 3},
                {"saamiseks": 2, "saami": 3, "seks": 3},
                [("saamiseksi", "saamiseks")],
                params,
            )
            train(model, params)
            assert model.total_cost() == pytest.approx(
                model.recompute_from_scratch(), rel=1e-9
            )

    def test_loaded_model_trains_in_its_own_seed_order(self, tmp_path):
        corpus = {"aamuksi": 4, "aamusta": 2, "talosta": 4, "iltasta": 2, "kalaksi": 3,
                  "talo": 5, "iltat": 1}

        def trained(seed):
            params = default_params(rng_seed=seed, alpha=1.0)
            model = initialize(corpus, {}, [], params)
            train(model, params)
            return model.analyses

        # The two seeds visit the words in orders that end in different models.
        seven = trained(7)
        assert trained(0) != seven
        path = tmp_path / "model"
        save_model(initialize(corpus, {}, [], default_params(rng_seed=7, alpha=1.0)), path)
        runs = []
        for params in (TrainingParams(), TrainingParams(rng_seed=7)):
            model = load_model(path)
            train(model, params)
            runs.append(model.analyses)
        assert runs[0] == runs[1] == seven

    def test_step_costs_non_increasing(self):
        params = default_params(rng_seed=5, record_steps=True, alpha=0.5)
        model = initialize(
            {"linnassa": 2, "linna": 6, "ssa": 4, "kalassa": 3},
            {"linnas": 2, "linna": 5, "s": 4, "kalas": 3},
            [("linnassa", "linnas"), ("kalassa", "kalas")],
            params,
        )
        report = train(model, params)
        for prev, cur in zip(report.step_costs, report.step_costs[1:]):
            assert cur <= prev + 1e-9 * max(1.0, abs(prev))

    def test_epoch_costs_non_increasing(self):
        params = default_params(rng_seed=3)
        model = initialize(
            {"aamulla": 1, "aamu": 4, "lla": 4, "illalla": 1, "ilta": 3},
            {"aamul": 1, "aamu": 4, "l": 4, "illal": 1, "ilta": 3},
            [("aamulla", "aamul"), ("illalla", "illal")],
            params,
        )
        report = train(model, params)
        costs = [report.initial_cost] + [e.total_cost for e in report.epochs]
        for prev, cur in zip(costs, costs[1:]):
            assert cur <= prev + 1e-9 * max(1.0, abs(prev))

    def test_equal_counts_after_every_epoch(self):
        params = default_params(rng_seed=9, alpha=0.5)
        model = initialize(
            {"vanhuus": 2, "vanha": 5, "uus": 3, "nuoruus": 2, "nuori": 5},
            {"vanadus": 2, "vana": 5, "dus": 3, "noorus": 2, "noor": 5},
            [("vanhuus", "vanadus"), ("nuoruus", "noorus")],
            params,
        )

        def check(model_, epoch):
            for pair in model_.pairs:
                na = model_.analyses["a"][pair.word_a]
                nb = model_.analyses["b"][pair.word_b]
                assert len(na.morphs) == len(nb.morphs)

        train(model, params, epoch_callback=check)

    def test_concatenation_invariant_after_training(self):
        params = default_params(rng_seed=2, alpha=0.7)
        model = initialize(
            {"kirjasto": 2, "kirja": 6, "sto": 3},
            {"raamatukogu": 2, "raamat": 6, "kogu": 3},
            [("kirjasto", "raamatukogu")],
            params,
        )
        train(model, params)
        for lang in ("a", "b"):
            for word, analysis in model.analyses[lang].items():
                assert "".join(analysis.morphs) == word

    def test_decomposition_equals_monolingual_runs(self):
        corpus_a = {"kalassa": 2, "kala": 5, "ssa": 3, "vesi": 4}
        corpus_b = {"vees": 2, "vees": 1, "vee": 5, "s": 3}
        params = default_params(rng_seed=4, convergence_threshold=0.0, max_epochs=6)
        joint = initialize(corpus_a, corpus_b, [], params)
        train(joint, params)
        mono_a = initialize(corpus_a, {}, [], params)
        train(mono_a, params)
        mono_b = initialize({}, corpus_b, [], params)
        train(mono_b, params)
        assert {w: a.morphs for w, a in joint.analyses["a"].items()} == {
            w: a.morphs for w, a in mono_a.analyses["a"].items()
        }
        assert {w: a.morphs for w, a in joint.analyses["b"].items()} == {
            w: a.morphs for w, a in mono_b.analyses["b"].items()
        }
        assert joint.total_cost() == pytest.approx(
            mono_a.total_cost() + mono_b.total_cost(), rel=1e-9
        )

    def test_micro_instance_reaches_exhaustive_optimum(self):
        corpus_a = {"abab": 2, "ab": 5, "cab": 3}
        corpus_b = {"dadad": 2, "da": 5, "cda": 3}
        pairs = [("abab", "dadad")]
        params = default_params(rng_seed=1, alpha=0.5, convergence_threshold=0.0, max_epochs=8)
        model = initialize(corpus_a, corpus_b, pairs, params)
        train(model, params)
        optimum = exhaustive_minimum(corpus_a, corpus_b, pairs, 0.5, 10.0)
        assert model.total_cost() <= optimum * (1 + 1e-9) + 1e-9


class TestPinnedTraining:
    """A cost-preserving rewrite of the bookkeeping or the alignment must not
    change a single trained byte: a flipped float tie or alignment tie
    changes the saved model or its final cost."""

    CORPUS_A = {
        "talo": 5, "talossa": 2, "talot": 3, "kala": 4, "kalassa": 1, "kalat": 2,
        "vesi": 6, "vedessä": 2, "järvi": 3, "järvessä": 1, "saari": 2,
        "saaressa": 1, "metsä": 4, "metsässä": 2, "maa": 7, "maassa": 3,
    }
    CORPUS_B = {
        "talu": 4, "talus": 2, "talud": 3, "kala": 5, "kalas": 1, "kalad": 2,
        "vesi": 2, "vees": 1, "järv": 3, "järves": 1, "saar": 2, "saares": 1,
        "mets": 4, "metsäs": 2, "maa": 6, "maal": 3,
    }
    PAIRS = [
        ("talo", "talu"), ("talossa", "talus"), ("talot", "talud"),
        ("kala", "kala"), ("kalassa", "kalas"), ("kalat", "kalad"),
        ("järvi", "järv"), ("järvessä", "järves"), ("saari", "saar"),
        ("saaressa", "saares"), ("metsä", "mets"), ("metsässä", "metsäs"),
    ]

    def test_two_epoch_joint_model_is_byte_identical(self, tmp_path):
        # The joint model in the full and the count-only mode, and a
        # monolingual one (corpus a, no pairs).
        runs = [
            ("full", self.CORPUS_B, self.PAIRS, "1190.9116639329977", [216, 162],
             "8afb6d3b187e47df31509d3d7e83155c2651e629586c21360d9a7b58a79b99c9"),
            ("count-only", self.CORPUS_B, self.PAIRS, "473.1309269628532", [78, 84],
             "37f637cd2f0ca50f81c4e7a03dd07da26c6ca0e88494b717ee879f602891e7e5"),
            ("full", {}, [], "261.03470027098456", [150, 150],
             "cdb237b70a42aedd56f7c31d92d39d321b57e033b5be4ab48ce95a7c08bb3bf9"),
        ]
        for edit_mode, corpus_b, pairs, final_cost, candidates, digest in runs:
            params = default_params(
                alpha=0.5, rng_seed=3, max_epochs=2, convergence_threshold=0.0,
                edit_mode=edit_mode,
            )
            model = initialize(self.CORPUS_A, corpus_b, pairs, params)
            report = train(model, params)
            path = tmp_path / "model"
            save_model(model, path)
            assert report.epochs_run == 2
            assert repr(report.final_cost) == final_cost
            assert [e.candidates_scored for e in report.epochs] == candidates
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_two_epoch_joint_training_scores_few_edit_forms(self, monkeypatch):
        # Visiting a pair's split combinations cheapest first lowers the
        # best cost early, so the bound rules out more of them: training
        # scores the edit lexicon 293 times, and 412 times when the
        # combinations were visited in (i, j) order.
        params = default_params(
            alpha=0.5, rng_seed=3, max_epochs=2, convergence_threshold=0.0
        )
        model = initialize(self.CORPUS_A, self.CORPUS_B, self.PAIRS, params)
        scored = []
        costs_with = CountLexicon.costs_with

        def spy(lex, forms, delta):
            if lex is model.edit_lexicon:
                scored.append(forms)
            return costs_with(lex, forms, delta)

        monkeypatch.setattr(CountLexicon, "costs_with", spy)
        train(model, params)
        assert len(scored) == 293
