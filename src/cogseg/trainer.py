"""Greedy local-search training with recursive splitting.

Each epoch visits every training unit in a seeded pseudorandom order,
removes it from the model, resegments it by recursive splitting, and commits
the result. A unit is a tuple of (language, word) entries: one entry for a
non-cognate word, two for a cognate pair. One search serves both: for a pair
it splits the two words jointly, so either neither morph of an aligned pair
splits or both do, with all split-point combinations tried, and the two
analyses always keep equal morph counts.

The search scores candidate splits from the counts without writing
them (CountLexicon.costs_with, combined by CognateModel.weigh) and writes
only the morphs and edit forms it chooses. For a pair it visits the split
combinations cheapest first and stops where the a and b costs already rule
the rest out: counting more tokens or types into a lexicon never lowers
either of its costs, and weigh increases with each of them, so a
combination costs at least its a and b costs weighed with the edit lexicon
as it stands. A combination whose bound exceeds the best cost so far by
more than the recount tolerance cannot win, so its edit forms are neither
aligned nor scored. Ties are broken by an explicit key, not by the visiting
order, so the search chooses exactly what scoring every combination would.

Every step counts the unit out (CognateModel.count_unit) and searches. A
new result is counted out again, scored with the previous analyses from the
same counts, and one of them is counted back in: the previous ones only when
strictly cheaper, so the total cost never increases and a unit whose
analysis the search finds again keeps it.

Unit ordering is derived by sorting on a keyed hash of the unit identity
(not the language), which makes a joint run with an empty pair list visit
each language's words in the same relative order as a monolingual run with
the same seed. Training is deterministic given identical inputs and seeds.
"""

from __future__ import annotations

import hashlib
import logging
import math
import time
from dataclasses import dataclass, field

# perfbench/child.py's traced run wraps trainer.extract_edits (not called
# here) and reads the counters of _edit_forms, the one edit-form cache;
# ROADMAP item 4 moves the benchmark onto the model's own counters.
from .edits import edit_forms as _edit_forms, extract_edits  # noqa: F401
from .errors import ContractError
from .model import EDIT_MODE_FULL, Analysis, CognateModel, CognatePair, dampen_count

_logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainingParams:
    """Settings of initialize and train. initialize builds the model from
    alpha, edit_weight, edit_mode, dampening and rng_seed; train reads only
    max_epochs, convergence_threshold and record_steps, so a loaded model
    keeps its own alpha, edit weight, edit mode, dampening and seed. Every
    setting is checked on construction, the five model settings by the
    CognateModel constructor."""

    alpha: float = 0.01
    edit_weight: float = 10.0
    max_epochs: int = 15
    convergence_threshold: float = 1e-5
    rng_seed: int = 0
    dampening: str = "none"
    edit_mode: str = "full"
    record_steps: bool = False

    def __post_init__(self):
        _empty_model(self)
        if self.max_epochs < 1:
            raise ContractError("max_epochs must be at least 1, got %r" % self.max_epochs)
        threshold = self.convergence_threshold
        if not (math.isfinite(threshold) and threshold >= 0):
            raise ContractError("convergence_threshold must be finite and >= 0, got %r" % threshold)


@dataclass
class EpochStats:
    epoch: int
    total_cost: float
    components: dict[str, float]
    morph_types_a: int
    morph_types_b: int
    edit_types: int
    # Units whose analyses the epoch changed, and steps that put the old
    # analyses back because the search found only costlier ones.
    units_changed: int
    restores: int
    # Candidates whose total cost the search computed: for a word, staying
    # whole and every split point; for a pair, staying whole and every
    # split combination within the bound.
    candidates_scored: int
    # Wall time, and the epoch's lookups in the edit-form cache. They
    # describe the run, not its result, so reports compare without them:
    # identical runs differ in time and in what the shared cache held.
    seconds: float = field(compare=False)
    edit_cache_hits: int = field(compare=False)
    edit_cache_misses: int = field(compare=False)


@dataclass
class SearchTally:
    """What a caller's searches did: the candidates whose total cost the
    search computed (see EpochStats.candidates_scored)."""

    candidates: int = 0


@dataclass
class TrainingReport:
    initial_cost: float
    epochs: list[EpochStats] = field(default_factory=list)
    step_costs: list[float] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        return len(self.epochs)

    @property
    def final_cost(self) -> float:
        return self.epochs[-1].total_cost if self.epochs else self.initial_cost


def _empty_model(params: TrainingParams) -> CognateModel:
    """A model of the five model settings of params; the constructor checks
    them."""
    return CognateModel(
        alpha=params.alpha,
        edit_weight=params.edit_weight,
        edit_mode=params.edit_mode,
        seed=params.rng_seed,
        dampening=params.dampening,
    )


def initialize(corpus_a, corpus_b, pairs, params: TrainingParams) -> CognateModel:
    """Build a whole-word-analyzed model from word-count tables.

    corpus_a/corpus_b map word -> token count. pairs is an iterable of
    (word_a, word_b) tuples; pair counts are taken from the corpora. Both
    words of a pair must occur in their corpora and no word may belong to
    two pairs. The analyses are recorded and then counted in with one
    CognateModel.recount, the bulk recount load_model also runs, so
    total_cost() equals recompute_from_scratch() bit for bit.
    """
    model = _empty_model(params)

    def effective(count):
        if count < 1:
            raise ContractError("word counts must be positive")
        return dampen_count(count) if params.dampening == "log" else count

    counts = {
        "a": {w: effective(c) for w, c in corpus_a.items()},
        "b": {w: effective(c) for w, c in corpus_b.items()},
    }
    for wa, wb in pairs:
        if wa not in counts["a"] or wb not in counts["b"]:
            raise ContractError("pair (%r, %r) not covered by the corpora" % (wa, wb))
        model.register_pair(CognatePair(wa, wb, counts["a"][wa], counts["b"][wb]))
    for lang in ("a", "b"):
        for word, count in counts[lang].items():
            model.insert_analysis(Analysis(word, (word,), count), lang)
    model.recount()
    return model


def _search(model: CognateModel, unit, tally: SearchTally | None = None) -> list[Analysis]:
    """Recursive splitting of a counted-out unit of (language, word) entries.

    Each morph takes the cheapest of staying whole and every split point,
    and the two parts of a split are searched in turn. For a cognate pair a
    split in one morph forces a split in the other: every split-point
    combination is tried, with the edit cost of re-pairing the sub-morphs.

    A candidate is scored with CountLexicon.costs_with from the counts as
    they stand plus the candidate's own morphs and edit forms, so its score
    does not depend on the candidates scored before it. A word's split
    points are scored in order, and a split replaces the best on a tie.

    Within one morph pair the a lexicon is scored once per split point i
    and the b lexicon once per split point j. The rows i are then visited
    in ascending order of their own weighed part, lexicon + alpha * corpus,
    and the columns j of each row likewise. The bound of (i, j) is
    weigh(a costs, b costs, edit lexicon costs as they stand); in the
    count-only mode, which does not score the edit lexicon, it is the cost
    itself. A row stops at its first column whose bound exceeds
    best + 1e-9 * |best|, and the scan stops at a row whose cheapest column
    does: the bound grows with each side's part, so every column after it
    and every costlier row is bound to cost more. In the full mode the edit
    forms of a combination within the bound are then looked up and scored.
    The bound is monotone in each part in exact arithmetic; weigh only
    adds non-negative terms, so its rounding is about 1e-15 relative, far
    inside the 1e-9 slack, and every skipped combination costs more than
    the best.

    The tie key is explicit, so the visiting order never decides: a split
    replaces the best when it is strictly cheaper, or equally cheap with a
    larger (i, j), and staying whole has the lowest key. Among equal costs
    the largest i, then the largest j, wins, as in a word. The tail edit
    forms (a[i:], b[j:]) are looked up in the one edit-form cache
    (edit_forms.tails).

    Only chosen morphs and edit forms are written: the tail of a split
    while its head is searched, and each final morph (pair). Leaves the
    final ones counted and returns the new analyses, one per entry, without
    recording them. Adds the candidates it scored to tally, if given.
    """
    records = [model.analyses[language][word] for language, word in unit]
    language = unit[0][0]
    lex_a = model.lexicons[language]
    add_a, score_a = lex_a.add, lex_a.costs_with
    count_a = records[0].count
    weigh, alpha = model.weigh, model.alpha
    if len(unit) > 1:
        lex_b, lex_e = model.lexicons[unit[1][0]], model.edit_lexicon
        add_b, score_b = lex_b.add, lex_b.costs_with
        add_edit, score_e = lex_e.add, lex_e.costs_with
        count_b = records[1].count
        full = model.edit_mode == EDIT_MODE_FULL
    else:
        # A word changes one lexicon; the other two cost what they cost.
        # weigh is symmetric in its a and b costs, so the word's lexicon
        # goes first whichever language it is.
        costs_other = model.lexicons["b" if language == "a" else "a"].costs()
        costs_edits = model.edit_lexicon.costs()

    morphs_a, morphs_b = [], []

    def put(a, b, forms, sign):
        add_a(a, sign * count_a)
        if b is not None:
            add_b(b, sign * count_b)
            for form in forms:
                add_edit(form, sign)

    def by_part(costs):
        """(split point, costs) of each split of one side, cheapest
        lexicon + alpha * corpus first."""
        return sorted(enumerate(costs, 1), key=lambda item: item[1][0] + alpha * item[1][1])

    scored = 0

    def rec(a, b):
        nonlocal scored
        split = None
        if b is None:
            if len(a) > 1:
                scored += len(a)
                best = weigh(score_a((a,), count_a), costs_other, costs_edits)
                for i in range(1, len(a)):
                    cost = weigh(score_a((a[:i], a[i:]), count_a), costs_other, costs_edits)
                    if cost <= best:
                        best, split = cost, (i, None)
        else:
            tail = _edit_forms.tails(a, b)
            if len(a) > 1 and len(b) > 1:
                best = weigh(
                    score_a((a,), count_a),
                    score_b((b,), count_b),
                    score_e(tail(0, 0), 1) if full else None,
                )
                scored += 1
                rows = by_part([score_a((a[:i], a[i:]), count_a) for i in range(1, len(a))])
                columns = by_part([score_b((b[:j], b[j:]), count_b) for j in range(1, len(b))])
                floor_e = lex_e.costs()
                for i, costs_a in rows:
                    passed = 0
                    for j, cost_b in columns:
                        # The bound, and in the count-only mode the cost.
                        cost = weigh(costs_a, cost_b, floor_e)
                        if cost > best + 1e-9 * abs(best):
                            break
                        passed += 1
                        if full:
                            forms = _edit_forms(a[:i], b[:j]) + tail(i, j)
                            cost = weigh(costs_a, cost_b, score_e(forms, 1))
                        # Staying whole loses every tie, and of tied
                        # splits the largest (i, j) wins.
                        if cost < best or cost == best and (split is None or (i, j) > split):
                            best, split = cost, (i, j)
                    if not passed:
                        # The row's cheapest column is ruled out, and so
                        # is every column of the costlier rows after it.
                        break
                    scored += passed
        if split is None:
            put(a, b, () if b is None else tail(0, 0), 1)
            morphs_a.append(a)
            morphs_b.append(b)
            return
        i, j = split
        a1, a2 = a[:i], a[i:]
        b1, b2 = (None, None) if b is None else (b[:j], b[j:])
        tail_forms = () if b is None else tail(i, j)
        put(a2, b2, tail_forms, 1)
        rec(a1, b1)
        put(a2, b2, tail_forms, -1)
        rec(a2, b2)

    rec(unit[0][1], unit[1][1] if len(unit) > 1 else None)
    if tally is not None:
        tally.candidates += scored
    return [Analysis(r.word, tuple(m), r.count) for r, m in zip(records, (morphs_a, morphs_b))]


def resegment_word(model: CognateModel, word: str, language: str,
                   tally: SearchTally | None = None) -> Analysis:
    """Resegment a word counted out (CognateModel.count_unit), leave the new
    morphs counted in and record the new analysis. The old record supplies
    the token count. The search's candidates are added to tally, if given.
    """
    if not word:
        raise ContractError("cannot resegment an empty word")
    if word not in model.analyses[language]:
        raise ContractError("word %r unknown in language %s" % (word, language))
    if model.pair_for(language, word) is not None:
        raise ContractError("cognate word %r must be resegmented as a pair" % word)
    (analysis,) = _search(model, ((language, word),), tally)
    model.analyses[language][word] = analysis
    return analysis


def resegment_pair(model: CognateModel, pair: CognatePair, tally: SearchTally | None = None):
    """Jointly resegment a pair counted out (CognateModel.count_unit), leave
    the new analyses counted in and record them; the search's candidates are
    added to tally, if given."""
    if model.pair_for("a", pair.word_a) is not pair:
        raise ContractError("pair %r not registered" % (pair.key,))
    new_a, new_b = _search(model, (("a", pair.word_a), ("b", pair.word_b)), tally)
    model.analyses["a"][pair.word_a], model.analyses["b"][pair.word_b] = new_a, new_b
    return new_a, new_b


def _optimize(model: CognateModel, unit, tally: SearchTally | None = None) -> tuple[bool, bool]:
    """One local-search step on a unit of (language, word) entries: one
    word, or the two words of a cognate pair. The unit's analyses are
    counted out and it is resegmented. When the search found other analyses
    than the old ones, those are counted out again and both are scored with
    CognateModel.cost_with from the same counts; the new ones are then
    counted in and recorded, or the old ones when they are strictly
    cheaper. A search that finds the unit's own analyses again keeps them.
    The search's candidates are added to tally, if given. Returns (changed,
    restored)."""
    old = [(language, model.analyses[language][word]) for language, word in unit]
    model.count_unit(old, -1)
    if len(unit) == 1:
        ((language, word),) = unit
        resegment_word(model, word, language, tally)
    else:
        resegment_pair(model, model.pair_for(*unit[0]), tally)
    new = [(language, model.analyses[language][word]) for language, word in unit]
    if new == old:
        # Equal analyses score equally: keep them without scoring.
        return False, False
    model.count_unit(new, -1)
    restore = model.cost_with(old) < model.cost_with(new)
    kept = old if restore else new
    model.count_unit(kept, 1)
    for language, analysis in kept:
        model.analyses[language][analysis.word] = analysis
    return not restore, restore


def _unit_sort_key(seed: int, epoch: int, unit) -> bytes:
    # Keyed by the words alone, not their languages, so per-language relative
    # order is the same in joint and monolingual runs with equal seeds.
    tag = ("p" if len(unit) > 1 else "w") + "".join("\x1f" + word for _, word in unit)
    data = ("%d\x1f%d\x1f" % (seed, epoch)) + tag
    return hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest()


def train(model: CognateModel, params: TrainingParams, epoch_callback=None) -> TrainingReport:
    """Run epochs of greedy local search until convergence or max_epochs.

    Training stops after an epoch that changes no unit's analyses (every
    later epoch would search the same counts again), or whose relative cost
    improvement falls below convergence_threshold. With a threshold of 0
    the second rule stops only an epoch whose cost rose, which takes
    rounding: no step raises the cost in exact arithmetic.
    Of params it reads only max_epochs, convergence_threshold and
    record_steps: the cost uses the model's own settings, and units are
    visited in an order seeded by model.seed, the seed a saved model
    records. epoch_callback(model, epoch), if given, is called after every
    epoch. A pair that fails CognateModel.check_pair raises ContractError
    before any unit is visited.
    """
    units = []
    for lang in ("a", "b"):
        for word in model.analyses[lang]:
            if model.pair_for(lang, word) is None:
                units.append(((lang, word),))
    for pair in model.pairs:
        model.check_pair(pair)
        units.append((("a", pair.word_a), ("b", pair.word_b)))

    prev = model.total_cost()
    report = TrainingReport(initial_cost=prev)
    if params.record_steps:
        report.step_costs.append(prev)
    _logger.info("training on %d units, initial cost %.4f", len(units), prev)

    for epoch in range(1, params.max_epochs + 1):
        units.sort(key=lambda u: _unit_sort_key(model.seed, epoch, u))
        changed = restores = 0
        tally = SearchTally()
        start, cache_start = time.perf_counter(), _edit_forms.cache_info()
        for unit in units:
            unit_changed, restored = _optimize(model, unit, tally)
            changed += unit_changed
            restores += restored
            if params.record_steps:
                report.step_costs.append(model.total_cost())
        cost = model.total_cost()
        seconds = time.perf_counter() - start
        cache = _edit_forms.cache_info()
        hits, misses = cache.hits - cache_start.hits, cache.misses - cache_start.misses
        report.epochs.append(
            EpochStats(
                epoch=epoch,
                total_cost=cost,
                components=model.cost_components(),
                morph_types_a=model.lexicons["a"].types,
                morph_types_b=model.lexicons["b"].types,
                edit_types=model.edit_lexicon.types,
                units_changed=changed,
                restores=restores,
                candidates_scored=tally.candidates,
                seconds=seconds,
                edit_cache_hits=hits,
                edit_cache_misses=misses,
            )
        )
        if epoch_callback is not None:
            epoch_callback(model, epoch)
        improvement = prev - cost
        _logger.info(
            "epoch %d: cost %.4f (improvement %.6f), %.2f s, %d scored candidates, "
            "edit cache %d hits %d misses",
            epoch, cost, improvement, seconds, tally.candidates, hits, misses,
        )
        if not changed or improvement < params.convergence_threshold * abs(prev):
            break
        prev = cost
    return report
