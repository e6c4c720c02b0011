"""The split search scores candidates from the counts without writing them.

oracles.put_and_take_back_search is the search that adds each candidate to
the lexicons, reads total_cost() and takes it back out; the read-only
scorer (CountLexicon.costs_with combined by CognateModel.weigh) must give
the same cost for every candidate it scores, and trainer._search must
choose the oracle's analyses.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cogseg.model import Analysis, CountLexicon
from cogseg.trainer import TrainingParams, _search, initialize

from oracles import put_and_take_back_search, segmentations

WORDS = st.text(alphabet="ab", min_size=1, max_size=5)


@st.composite
def worlds(draw):
    """Corpora, pairs, model settings and pre-set analyses of a small model,
    plus the unit to search: a word or a pair."""
    corpus_a = draw(st.dictionaries(WORDS, st.integers(1, 4), min_size=1, max_size=5))
    corpus_b = draw(st.dictionaries(WORDS, st.integers(1, 4), min_size=1, max_size=5))
    # Pairs link the longest words, so most pairs have split points.
    longest = [sorted(corpus, key=lambda w: (-len(w), w)) for corpus in (corpus_a, corpus_b)]
    n_pairs = draw(st.integers(0, min(3, len(corpus_a), len(corpus_b))))
    pairs = list(zip(*longest))[:n_pairs]
    settings_ = {
        "alpha": draw(st.sampled_from([0.1, 0.5, 1.0])),
        "edit_mode": draw(st.sampled_from(["full", "count-only"])),
    }
    # Pre-set analyses, so the searched unit meets morphs and edit forms
    # already in the lexicons; a pair's two analyses get equal morph counts.
    paired_b = {wb: wa for wa, wb in pairs}
    analyses = {"a": {}, "b": {}}
    for word in sorted(corpus_a):
        analyses["a"][word] = draw(st.sampled_from(segmentations(word)))
    for word in sorted(corpus_b):
        options = segmentations(word)
        if word in paired_b:
            size = len(analyses["a"][paired_b[word]])
            options = [s for s in options if len(s) == size] or [None]
        analyses["b"][word] = draw(st.sampled_from(options))
    paired = {("a", wa) for wa, _ in pairs} | {("b", wb) for _, wb in pairs}
    words = [
        ((language, word),)
        for language, corpus in (("a", corpus_a), ("b", corpus_b))
        for word in sorted(corpus)
        if (language, word) not in paired
    ]
    if pairs and (not words or draw(st.booleans())):
        wa, wb = draw(st.sampled_from(pairs))
        unit = (("a", wa), ("b", wb))
    else:
        unit = draw(st.sampled_from(words))
    return corpus_a, corpus_b, pairs, settings_, analyses, unit


def build(world):
    """The model of a drawn world with its unit detached."""
    corpus_a, corpus_b, pairs, settings_, analyses, unit = world
    analyses = {language: dict(table) for language, table in analyses.items()}
    model = initialize(corpus_a, corpus_b, pairs, TrainingParams(**settings_))
    for pair in model.pairs:
        if analyses["b"][pair.word_b] is None:
            analyses["a"][pair.word_a] = (pair.word_a,)
            analyses["b"][pair.word_b] = (pair.word_b,)
    for language in ("a", "b"):
        for word in model.analyses[language]:
            model.detach_word(word, language)
    for language in ("a", "b"):
        table = model.analyses[language]
        for word, morphs in analyses[language].items():
            table[word] = Analysis(word, morphs, table[word].count)
    for language in ("a", "b"):
        for word in model.analyses[language]:
            model.attach_word(word, language)
    for language, word in unit:
        model.detach_word(word, language)
    return model, unit


def scorer_cost(model, unit, parts, forms):
    """The read-only scorer's total cost of one candidate."""
    records = [model.analyses[language][word] for language, word in unit]
    costs = {language: lex.costs() for language, lex in model.lexicons.items()}
    for k, (language, _) in enumerate(unit):
        morphs = [part[k] for part in parts]
        costs[language] = model.lexicons[language].costs_with(morphs, records[k].count)
    return model.weigh(costs["a"], costs["b"], model.edit_lexicon.costs_with(forms, 1))


@settings(max_examples=300)
@given(worlds())
def test_every_candidate_scores_as_put_then_read(world):
    model, unit = build(world)
    checked = []

    def check(parts, forms, cost):
        assert scorer_cost(model, unit, parts, forms) == pytest.approx(cost, rel=1e-9)
        checked.append(parts)

    put_and_take_back_search(model, unit, on_score=check)
    shortest = min(len(word) for _, word in unit)
    assert (len(checked) > 0) == (shortest > 1)


def near_tie(scores):
    """Whether two candidates of one node score within 1e-9 of its best.
    scores are (number of parts, cost) items in scoring order; each node
    scores staying whole (one part) first."""
    nodes = []
    for parts, cost in scores:
        if parts == 1:
            nodes.append([])
        nodes[-1].append(cost)
    return any(
        sum(cost - min(node) <= 1e-9 * abs(min(node)) for cost in node) > 1 for node in nodes
    )


@settings(max_examples=300)
@given(worlds())
def test_search_chooses_what_the_oracle_chooses(world):
    # Candidates that tie exactly are ordered by rounding, which differs
    # between the two ways of scoring, and the greedy recursion then goes
    # down different paths; such worlds (about 4%) are left out.
    reference, unit = build(world)
    scores = []
    old = put_and_take_back_search(
        reference, unit, on_score=lambda parts, forms, cost: scores.append((len(parts), cost))
    )
    assume(not near_tie(scores))
    searched, _ = build(world)
    assert _search(searched, unit) == old
    assert searched.total_cost() == pytest.approx(reference.total_cost(), rel=1e-9)


def test_a_form_listed_twice_is_counted_twice():
    # "abab" split into ab + ab: one form, entering with its characters.
    lex = CountLexicon()
    lex.add("b", 1)
    repeated = lex.costs_with(("ab", "ab"), 2)
    lex.add("ab", 4)
    assert lex.costs() == pytest.approx(repeated, rel=1e-12)
