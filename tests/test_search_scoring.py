"""The split search scores candidates from the counts without writing them.

oracles.put_and_take_back_search is the search that adds each candidate to
the lexicons, reads total_cost() and takes it back out; the read-only
scorer (CountLexicon.costs_with combined by CognateModel.weigh) must give
the same cost for every candidate it scores, and trainer._search must
choose the oracle's analyses.

The pair search skips split combinations whose a and b costs, weighed with
the edit lexicon as it stands, already exceed the best cost. That rests on
costs_with never being below costs() and on weigh increasing in the edit
costs; oracles.score_every_pair_search scores every combination, and
_search must choose exactly what it chooses. _search visits the
combinations cheapest first, so it breaks exact ties by an explicit key,
the largest (i, j), which is what the oracle's in-order scan picks.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cogseg.edits import edit_forms
from cogseg.model import Analysis, CognateModel, CountLexicon
from cogseg.trainer import TrainingParams, _search, initialize

from oracles import put_and_take_back_search, score_every_pair_search, segmentations


@st.composite
def rewritten(draw, word, alphabet):
    """word with at most two characters substituted, inserted or deleted."""
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(word)))
        ch = draw(st.sampled_from(alphabet))
        word = draw(st.sampled_from(
            [word[:i] + ch + word[i + 1:], word[:i] + ch + word[i:], word[:i] + word[i + 1:]]
        ))
    return word


@st.composite
def worlds(draw, alphabet="ab", max_len=5, edit_weights=(10.0,), cognates=False):
    """Corpora, pairs, model settings and pre-set analyses of a small model,
    plus the unit to search: a word or a pair. With cognates, the unit is
    a pair, whose b word is its a word rewritten in at most two
    characters, so its sub-morphs often align with few edits or none, and
    split combinations tie or nearly tie."""
    words = st.text(alphabet=alphabet, min_size=1, max_size=max_len)
    corpus_a = draw(st.dictionaries(words, st.integers(1, 4), min_size=1, max_size=5))
    corpus_b = draw(st.dictionaries(words, st.integers(1, 4), min_size=1, max_size=5))
    # Pairs link the longest words, so most pairs have split points.
    longest = [sorted(corpus, key=lambda w: (-len(w), w)) for corpus in (corpus_a, corpus_b)]
    n_pairs = draw(st.integers(int(cognates), min(3, len(corpus_a), len(corpus_b))))
    pairs = [] if cognates else list(zip(*longest))[:n_pairs]
    if cognates:
        for word_a in longest[0][:n_pairs]:
            word_b = draw(rewritten(word_a, alphabet))
            if word_b and word_b not in [wb for _, wb in pairs]:
                corpus_b.setdefault(word_b, draw(st.integers(1, 4)))
                pairs.append((word_a, word_b))
    settings_ = {
        "alpha": draw(st.sampled_from([0.1, 0.5, 1.0])),
        "edit_mode": draw(st.sampled_from(["full", "count-only"])),
        "edit_weight": draw(st.sampled_from(edit_weights)),
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
    if pairs and (cognates or not words or draw(st.booleans())):
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
    units = [((language, word),) for language in ("a", "b") for word in model.analyses[language]
             if model.pair_for(language, word) is None]
    units += [(("a", pair.word_a), ("b", pair.word_b)) for pair in model.pairs]
    for each in units:
        model.count_unit(recorded(model, each), -1)
    for language in ("a", "b"):
        table = model.analyses[language]
        for word, morphs in analyses[language].items():
            table[word] = Analysis(word, morphs, table[word].count)
    for each in units:
        model.count_unit(recorded(model, each), 1)
    model.count_unit(recorded(model, unit), -1)
    return model, unit


def recorded(model, unit):
    """The recorded (language, analysis) entries of a unit."""
    return [(language, model.analyses[language][word]) for language, word in unit]


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


def lexicon_state(model):
    """Every count and cached sum of the three lexicons."""
    return [
        (lex.counts, lex.char_counts, lex.tokens, lex.log_token_sum, lex.char_tokens,
         lex.log_char_sum)
        for lex in (model.lexicons["a"], model.lexicons["b"], model.edit_lexicon)
    ]


@settings(max_examples=300, deadline=None)
@given(worlds(alphabet="abcd", max_len=8, edit_weights=(0.5, 10.0), cognates=True))
def test_bounded_search_chooses_what_scoring_every_pair_chooses(world):
    # The same scorer on both sides, so no near-tie is left out: the bound
    # skips only candidates above the best, and exact ties are scored.
    reference, unit = build(world)
    expected = score_every_pair_search(reference, unit)
    searched, _ = build(world)
    assert _search(searched, unit) == expected
    assert lexicon_state(searched) == lexicon_state(reference)


@pytest.mark.parametrize(
    "corpus_a, corpus_b, pair, settings_, ties",
    [
        # The a splits 1 and 2 tie with the one b split. Split 2's own
        # part is one ulp below split 1's, so its row is visited first.
        ({"aba": 1, "baa": 1}, {"a": 1, "b": 1, "aa": 1}, ("aba", "aa"),
         {"alpha": 0.1, "edit_weight": 0.5, "edit_mode": "full"}, [(1, 1), (2, 1)]),
        # Identical words with a repeated part: "b" + "abab" and "baba" + "b"
        # cost alike on each side. In the head pair ("baba", "baba") the b
        # splits 1 and 2 tie in row 2, and split 2 is visited first.
        ({"b": 2, "babab": 1}, {"b": 4, "babab": 1}, ("babab", "babab"),
         {"alpha": 1.0, "edit_mode": "count-only"}, [(1, 1), (1, 4), (4, 1), (4, 4)]),
    ],
    ids=["full", "count-only"],
)
def test_exact_ties_go_to_the_largest_split(monkeypatch, corpus_a, corpus_b, pair, settings_,
                                            ties):
    word_a, word_b = pair
    unit = (("a", word_a), ("b", word_b))

    def detached():
        model = initialize(corpus_a, corpus_b, [pair], TrainingParams(**settings_))
        model.count_unit(recorded(model, unit), -1)
        return model

    reference = detached()
    costs = {(0, 0): scorer_cost(reference, unit, [pair], edit_forms(*pair))}
    for i in range(1, len(word_a)):
        for j in range(1, len(word_b)):
            heads, tails = (word_a[:i], word_b[:j]), (word_a[i:], word_b[j:])
            forms = edit_forms(*heads) + edit_forms(*tails)
            costs[i, j] = scorer_cost(reference, unit, [heads, tails], forms)
    best = min(costs.values())
    assert sorted(split for split, cost in costs.items() if cost == best) == ties
    expected = score_every_pair_search(reference, unit)

    added = []
    add = CountLexicon.add

    def spy(lex, form, delta):
        added.append((lex, form))
        return add(lex, form, delta)

    searched = detached()
    monkeypatch.setattr(CountLexicon, "add", spy)
    assert _search(searched, unit) == expected
    assert lexicon_state(searched) == lexicon_state(reference)
    # A split first counts in its tail pair (a[i:], b[j:]).
    first = {lex: form for lex, form in reversed(added)}
    split = (len(word_a) - len(first[searched.lexicons["a"]]),
             len(word_b) - len(first[searched.lexicons["b"]]))
    assert split == max(ties)


def test_the_bound_skips_edit_scoring(monkeypatch):
    scored = []
    costs_with = CountLexicon.costs_with

    def spy(lex, forms, delta):
        if lex is model.edit_lexicon:
            scored.append(forms)
        return costs_with(lex, forms, delta)

    monkeypatch.setattr(CountLexicon, "costs_with", spy)
    corpus_a = {"kuuluvus": 3, "talossa": 2, "talo": 4, "kuulu": 2}
    corpus_b = {"kuuluvuus": 3, "talos": 2, "talu": 4, "kuulo": 2}
    pairs = [("kuuluvus", "kuuluvuus"), ("talossa", "talos")]
    unit = (("a", "kuuluvus"), ("b", "kuuluvuus"))
    runs = []
    for search in (score_every_pair_search, _search):
        model = initialize(corpus_a, corpus_b, pairs, TrainingParams())
        model.count_unit(recorded(model, unit), -1)
        scored.clear()
        runs.append((search(model, unit), len(scored)))
    (expected, every), (analyses, bounded) = runs
    assert analyses == expected
    assert (every, bounded) == (113, 66)


@st.composite
def inventories(draw):
    """A CountLexicon with a history of adds and removes, and forms to count
    in: some of its own, some new."""
    forms = st.text(alphabet="abc\u00e4|", min_size=1, max_size=4)
    counts = draw(st.dictionaries(forms, st.integers(1, 40), max_size=8))
    lex = CountLexicon()
    for form, count in counts.items():
        lex.add(form, count)
    for form, count in counts.items():
        lex.add(form, -draw(st.integers(0, count)))
    own = sorted(lex.counts)
    pick = st.sampled_from(own) | forms if own else forms
    return lex, draw(st.lists(pick, min_size=1, max_size=5)), draw(st.integers(1, 6))


@settings(max_examples=300)
@given(inventories())
def test_counting_forms_in_never_lowers_a_cost(drawn):
    lex, forms, delta = drawn
    for before, after in zip(lex.costs(), lex.costs_with(forms, delta)):
        assert after >= before - 1e-12 * abs(before)


@given(
    st.floats(0, 1e5), st.floats(0, 1e5),
    st.floats(0, 1e3), st.floats(0, 1e3),
    st.sampled_from([0.01, 1.0, 3.0]), st.sampled_from([0.5, 10.0]),
)
def test_weigh_increases_with_the_edit_costs(lexicon, corpus, more_lexicon, more_corpus,
                                             alpha, edit_weight):
    model = CognateModel(alpha=alpha, edit_weight=edit_weight)
    costs = (12.5, 40.0)
    base = model.weigh(costs, costs, (lexicon, corpus))
    larger = model.weigh(costs, costs, (lexicon + more_lexicon, corpus + more_corpus))
    assert larger >= base
    if more_lexicon + more_corpus >= 1e-6 * (lexicon + corpus + 1):
        assert larger > base


costs_pairs = st.tuples(st.floats(0, 1e5), st.floats(0, 1e5))


@given(costs_pairs, costs_pairs, costs_pairs, costs_pairs,
       st.sampled_from([0.01, 0.1, 1.0, 3.0]), st.sampled_from([0.5, 10.0]),
       st.sampled_from(["full", "count-only"]))
def test_weigh_follows_each_sides_weighed_part(lower, higher, other, edits, alpha, edit_weight,
                                               edit_mode):
    # The pair search visits a and b splits by lexicon + alpha * corpus and
    # stops at the first beyond the bound, so weigh must not fall, beyond
    # rounding, as either side's part grows.
    model = CognateModel(alpha=alpha, edit_weight=edit_weight, edit_mode=edit_mode)
    if lower[0] + alpha * lower[1] > higher[0] + alpha * higher[1]:
        lower, higher = higher, lower
    for low, high in ((model.weigh(lower, other, edits), model.weigh(higher, other, edits)),
                      (model.weigh(other, lower, edits), model.weigh(other, higher, edits))):
        assert low <= high + 1e-12 * abs(high)
