"""Greedy local-search training with recursive splitting.

Each epoch visits every training unit in a seeded pseudorandom order,
removes it from the model, resegments it by recursive splitting, and commits
the result. A unit is a tuple of (language, word) entries: one entry for a
non-cognate word, two for a cognate pair. One search serves both: for a pair
it splits the two words jointly, so either neither morph of an aligned pair
splits or both do, with all split-point combinations tried, and the two
analyses always keep equal morph counts.

Every step compares the search result against the unit's previous analysis
and keeps whichever is cheaper, so the total cost never increases.

Unit ordering is derived by sorting on a keyed hash of the unit identity
(not the language), which makes a joint run with an empty pair list visit
each language's words in the same relative order as a monolingual run with
the same seed. Training is deterministic given identical inputs and seeds.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field

# perfbench/child.py's traced run wraps trainer.extract_edits (not called
# here) and reads the counters of _edit_forms, the one edit-form cache;
# ROADMAP item 4 moves the benchmark onto the model's own counters.
from .edits import edit_forms as _edit_forms, extract_edits  # noqa: F401
from .errors import ContractError
from .model import Analysis, CognateModel, CognatePair, dampen_count

_logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainingParams:
    """Settings of initialize and train. initialize builds the model from
    alpha, edit_weight, edit_mode, dampening and rng_seed; train reads only
    max_epochs, convergence_threshold and record_steps, so a loaded model
    keeps its own alpha, edit weight, edit mode, dampening and seed."""

    alpha: float = 0.01
    edit_weight: float = 10.0
    max_epochs: int = 15
    convergence_threshold: float = 1e-5
    rng_seed: int = 0
    dampening: str = "none"
    edit_mode: str = "full"
    record_steps: bool = False

    def __post_init__(self):
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


def initialize(corpus_a, corpus_b, pairs, params: TrainingParams) -> CognateModel:
    """Build a whole-word-analyzed model from word-count tables.

    corpus_a/corpus_b map word -> token count. pairs is an iterable of
    (word_a, word_b) tuples; pair counts are taken from the corpora. Both
    words of a pair must occur in their corpora and no word may belong to
    two pairs.
    """
    model = CognateModel(
        alpha=params.alpha,
        edit_weight=params.edit_weight,
        edit_mode=params.edit_mode,
        seed=params.rng_seed,
        dampening=params.dampening,
    )

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
    Leaves the chosen morphs and edit tokens counted and returns the new
    analyses, one per entry, without recording them.
    """
    records = [model.analyses[language][word] for language, word in unit]
    add_a = model.lexicons[unit[0][0]].add
    count_a = records[0].count
    if len(unit) > 1:
        add_b = model.lexicons[unit[1][0]].add
        count_b = records[1].count
        add_edit = model.edit_lexicon.add
    total_cost = model.total_cost
    morphs_a, morphs_b = [], []

    # b is the morph paired with a, or None for a single word; forms are
    # the edit forms of the pairing.
    def put_b(b_parts, forms, sign):
        for b in b_parts:
            add_b(b, sign * count_b)
        for form in forms:
            add_edit(form, sign)

    def put(a, b, forms, sign):
        add_a(a, sign * count_a)
        if b is not None:
            put_b((b,), forms, sign)

    def rec(a, b):
        forms = None if b is None else _edit_forms(a, b)
        split = None
        if len(a) > 1 and (b is None or len(b) > 1):
            put(a, b, forms, 1)
            best = total_cost()
            put(a, b, forms, -1)
            for i in range(1, len(a)):
                a1, a2 = a[:i], a[i:]
                add_a(a1, count_a)
                add_a(a2, count_a)
                if b is None:
                    cost = total_cost()
                    if cost <= best:
                        best, split = cost, (i, None)
                else:
                    for j in range(1, len(b)):
                        b1, b2 = b[:j], b[j:]
                        split_forms = _edit_forms(a1, b1) + _edit_forms(a2, b2)
                        put_b((b1, b2), split_forms, 1)
                        cost = total_cost()
                        put_b((b1, b2), split_forms, -1)
                        if cost <= best:
                            best, split = cost, (i, j)
                add_a(a1, -count_a)
                add_a(a2, -count_a)
        if split is None:
            put(a, b, forms, 1)
            morphs_a.append(a)
            morphs_b.append(b)
            return
        i, j = split
        a1, a2 = a[:i], a[i:]
        b1, b2 = (None, None) if b is None else (b[:j], b[j:])
        tail_forms = None if b is None else _edit_forms(a2, b2)
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


def _optimize(model: CognateModel, unit) -> None:
    """One local-search step on a unit of (language, word) entries: one
    word, or the two words of a cognate pair. The unit is detached and
    resegmented; if the total cost rose, its old analyses are restored."""
    old = [(language, model.analyses[language][word]) for language, word in unit]
    before = model.total_cost()
    for language, word in unit:
        model.detach_word(word, language)
    if len(unit) == 1:
        ((language, word),) = unit
        resegment_word(model, word, language)
    else:
        resegment_pair(model, model.pair_for(*unit[0]))
    if model.total_cost() > before:
        model.restore_analyses(old)


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
        for unit in units:
            _optimize(model, unit)
            if params.record_steps:
                report.step_costs.append(model.total_cost())
        cost = model.total_cost()
        report.epochs.append(
            EpochStats(
                epoch=epoch,
                total_cost=cost,
                components=model.cost_components(),
                morph_types_a=model.lexicons["a"].types,
                morph_types_b=model.lexicons["b"].types,
                edit_types=model.edit_lexicon.types,
            )
        )
        if epoch_callback is not None:
            epoch_callback(model, epoch)
        improvement = prev - cost
        _logger.info("epoch %d: cost %.4f (improvement %.6f)", epoch, cost, improvement)
        if improvement < params.convergence_threshold * abs(prev):
            break
        prev = cost
    return report
