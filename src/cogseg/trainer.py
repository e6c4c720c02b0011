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
only the morphs and edit forms it chooses. For a pair it skips the split
combinations that the a and b costs already rule out: counting more tokens
or types into a lexicon never lowers either of its costs, and weigh
increases with each of them, so a combination costs at least its a and b
costs weighed with the edit lexicon as it stands. A combination whose
bound exceeds the best cost so far by more than the recount tolerance
cannot win, so its edit forms are neither aligned nor scored, and the
search chooses exactly what scoring every combination would.

Every step then detaches the search result, scores it and the unit's
previous analyses the same way from the same counts, and counts one of them
back in, in one commit: the previous ones only when they are strictly
cheaper, so the total cost never increases and a unit whose analysis the
search finds again keeps it.

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
    # Wall time, and the epoch's lookups in the edit-form cache. They
    # describe the run, not its result, so reports compare without them:
    # identical runs differ in time and in what the shared cache held.
    seconds: float = field(compare=False)
    edit_cache_hits: int = field(compare=False)
    edit_cache_misses: int = field(compare=False)


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
    two pairs.
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
            model.add_analysis(Analysis(word, (word,), count), lang)
    return model


def _search(model: CognateModel, unit) -> list[Analysis]:
    """Recursive splitting of a detached unit of (language, word) entries.

    Each morph takes the cheapest of staying whole and every split point,
    and the two parts of a split are searched in turn. For a cognate pair a
    split in one morph forces a split in the other: every split-point
    combination is tried, with the edit cost of re-pairing the sub-morphs.

    A candidate is scored with CountLexicon.costs_with from the counts as
    they stand plus the candidate's own morphs and edit forms, so its score
    does not depend on the candidates scored before it. Within one morph
    (pair) the a lexicon is scored once per split point i and the b lexicon
    once per split point j. In the full edit mode the edit lexicon is
    scored per (i, j) only when the lower bound weigh(a costs, b costs,
    edit lexicon costs as they stand) is within 1e-9 * |best| of the best
    cost so far; a skipped candidate's edit forms are never looked up.
    Ties and near-ties are always scored, so the choice is that of scoring
    every (i, j). In the count-only mode the edit lexicon is not scored.
    Staying whole is scored first, and a split replaces the best on a tie,
    so among equal costs the last i, then the last j, wins. The tail edit
    forms (a[i:], b[j:]) come from one alignment table of the morph pair
    (EditFormCache.tails).

    Only chosen morphs and edit forms are written: the tail of a split
    while its head is searched, and each final morph (pair). Leaves the
    final ones counted and returns the new analyses, one per entry, without
    recording them.
    """
    records = [model.analyses[language][word] for language, word in unit]
    language = unit[0][0]
    lex_a = model.lexicons[language]
    add_a, score_a = lex_a.add, lex_a.costs_with
    count_a = records[0].count
    weigh = model.weigh
    if len(unit) > 1:
        lex_b, lex_e = model.lexicons[unit[1][0]], model.edit_lexicon
        add_b, score_b = lex_b.add, lex_b.costs_with
        add_edit, score_e = lex_e.add, lex_e.costs_with
        count_b = records[1].count
        full = model.edit_mode == EDIT_MODE_FULL
    else:
        # A word changes one lexicon; the other two cost what they cost.
        others = {lang: lex.costs() for lang, lex in model.lexicons.items()}
        others["edits"] = model.edit_lexicon.costs()

        def weigh_word(costs_a):
            others[language] = costs_a
            return weigh(others["a"], others["b"], others["edits"])

    morphs_a, morphs_b = [], []

    def put(a, b, forms, sign):
        add_a(a, sign * count_a)
        if b is not None:
            add_b(b, sign * count_b)
            for form in forms:
                add_edit(form, sign)

    def rec(a, b):
        split = None
        if b is None:
            if len(a) > 1:
                best = weigh_word(score_a((a,), count_a))
                for i in range(1, len(a)):
                    cost = weigh_word(score_a((a[:i], a[i:]), count_a))
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
                costs_b = [score_b((b[:j], b[j:]), count_b) for j in range(1, len(b))]
                floor_e = lex_e.costs()
                for i in range(1, len(a)):
                    a1 = a[:i]
                    costs_a = score_a((a1, a[i:]), count_a)
                    for j, cost_b in enumerate(costs_b, 1):
                        costs_e = None
                        if full:
                            if weigh(costs_a, cost_b, floor_e) > best + 1e-9 * abs(best):
                                continue
                            costs_e = score_e(_edit_forms(a1, b[:j]) + tail(i, j), 1)
                        cost = weigh(costs_a, cost_b, costs_e)
                        if cost <= best:
                            best, split = cost, (i, j)
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
    return [Analysis(r.word, tuple(m), r.count) for r, m in zip(records, (morphs_a, morphs_b))]


def resegment_word(model: CognateModel, word: str, language: str) -> Analysis:
    """Resegment a detached word and record the new analysis.

    The word's morph counts must have been removed (detach_word); its
    analysis record supplies the token count.
    """
    if not word:
        raise ContractError("cannot resegment an empty word")
    if word not in model.analyses[language]:
        raise ContractError("word %r unknown in language %s" % (word, language))
    if model.pair_for(language, word) is not None:
        raise ContractError("cognate word %r must be resegmented as a pair" % word)
    (analysis,) = _search(model, ((language, word),))
    model.record_analyses([(language, analysis)])
    return analysis


def resegment_pair(model: CognateModel, pair: CognatePair):
    """Jointly resegment a detached cognate pair and record both analyses."""
    if model.pair_for("a", pair.word_a) is not pair:
        raise ContractError("pair %r not registered" % (pair.key,))
    new_a, new_b = _search(model, (("a", pair.word_a), ("b", pair.word_b)))
    model.record_analyses([("a", new_a), ("b", new_b)])
    return new_a, new_b


def _optimize(model: CognateModel, unit) -> tuple[bool, bool]:
    """One local-search step on a unit of (language, word) entries: one
    word, or the two words of a cognate pair. The unit is detached and
    resegmented. When the search found other analyses than the old ones,
    those are detached again and both are scored with
    CognateModel.cost_with from the detached counts; one attach_analyses
    call then commits the new ones, or the old ones when they are strictly
    cheaper. A search that finds the unit's own analyses again keeps them.
    Returns (changed, restored)."""
    old = [(language, model.analyses[language][word]) for language, word in unit]
    for language, word in unit:
        model.detach_word(word, language)
    if len(unit) == 1:
        ((language, word),) = unit
        resegment_word(model, word, language)
    else:
        resegment_pair(model, model.pair_for(*unit[0]))
    new = [(language, model.analyses[language][word]) for language, word in unit]
    if new == old:
        # Equal analyses score equally: keep them without scoring.
        return False, False
    for language, word in unit:
        model.detach_word(word, language)
    restore = model.cost_with(old) < model.cost_with(new)
    model.attach_analyses(old if restore else new)
    return not restore, restore


def _unit_sort_key(seed: int, epoch: int, unit) -> bytes:
    # Keyed by the words alone, not their languages, so per-language relative
    # order is the same in joint and monolingual runs with equal seeds.
    tag = ("p" if len(unit) > 1 else "w") + "".join("\x1f" + word for _, word in unit)
    data = ("%d\x1f%d\x1f" % (seed, epoch)) + tag
    return hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest()


def train(model: CognateModel, params: TrainingParams, epoch_callback=None) -> TrainingReport:
    """Run epochs of greedy local search until convergence or max_epochs.

    Training stops when the relative cost improvement of an epoch falls
    below convergence_threshold (a threshold of 0 disables early stopping).
    Of params it reads only max_epochs, convergence_threshold and
    record_steps: the cost uses the model's own settings, and units are
    visited in an order seeded by model.seed, the seed a saved model
    records. epoch_callback(model, epoch), if given, is called after every
    epoch.
    """
    units = []
    for lang in ("a", "b"):
        for word in model.analyses[lang]:
            if model.pair_for(lang, word) is None:
                units.append(((lang, word),))
    for pair in model.pairs:
        units.append((("a", pair.word_a), ("b", pair.word_b)))

    prev = model.total_cost()
    report = TrainingReport(initial_cost=prev)
    if params.record_steps:
        report.step_costs.append(prev)
    _logger.info("training on %d units, initial cost %.4f", len(units), prev)

    for epoch in range(1, params.max_epochs + 1):
        units.sort(key=lambda u: _unit_sort_key(model.seed, epoch, u))
        changed = restores = 0
        start, cache_start = time.perf_counter(), _edit_forms.cache_info()
        for unit in units:
            unit_changed, restored = _optimize(model, unit)
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
                seconds=seconds,
                edit_cache_hits=hits,
                edit_cache_misses=misses,
            )
        )
        if epoch_callback is not None:
            epoch_callback(model, epoch)
        improvement = prev - cost
        _logger.info(
            "epoch %d: cost %.4f (improvement %.6f), %.2f s, edit cache %d hits %d misses",
            epoch, cost, improvement, seconds, hits, misses,
        )
        if improvement < params.convergence_threshold * abs(prev):
            break
        prev = cost
    return report
