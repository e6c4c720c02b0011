"""Greedy local-search training with recursive splitting.

Each epoch visits every training unit in a seeded pseudorandom order,
removes it from the model, resegments it by recursive splitting, and commits
the result. A unit is a tuple of (language, word) entries: one entry for a
non-cognate word, two for a cognate pair. Cognate pairs are resegmented
jointly: either neither morph of an aligned pair splits, or both do, with
all split-point combinations tried, so the two analyses always keep equal
morph counts.

Every step compares the search result against the unit's previous analysis
and keeps whichever is cheaper, so the total cost never increases.

Unit ordering is derived by sorting on a keyed hash of the unit identity
(not the language), which makes a joint run with an empty pair list visit
each language's words in the same relative order as a monolingual run with
the same seed. Training is deterministic given identical inputs and seeds.
"""

from __future__ import annotations

import functools
import hashlib
import logging
from dataclasses import dataclass, field

from .edits import extract_edits
from .errors import ContractError
from .model import Analysis, CognateModel, CognatePair, dampen_count

_logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainingParams:
    alpha: float = 0.01
    edit_weight: float = 10.0
    max_epochs: int = 15
    convergence_threshold: float = 1e-5
    rng_seed: int = 0
    dampening: str = "none"
    edit_mode: str = "full"
    record_steps: bool = False


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


@functools.lru_cache(maxsize=1 << 17)
def _edit_forms(morph_a: str, morph_b: str) -> tuple[str, ...]:
    return tuple(e.form for e in extract_edits(morph_a, morph_b).edits)


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


def _search_word(model: CognateModel, language: str, word: str, count: int):
    """Recursive splitting of a single word; leaves the result counted."""
    lex = model.lexicons[language]

    def rec(s):
        if len(s) == 1:
            lex.add(s, count)
            return [s]
        lex.add(s, count)
        best = model.total_cost()
        lex.add(s, -count)
        split = 0
        for i in range(1, len(s)):
            pre, suf = s[:i], s[i:]
            lex.add(pre, count)
            lex.add(suf, count)
            cost = model.total_cost()
            lex.add(pre, -count)
            lex.add(suf, -count)
            if cost <= best:
                best, split = cost, i
        if split == 0:
            lex.add(s, count)
            return [s]
        pre, suf = s[:split], s[split:]
        lex.add(suf, count)
        left = rec(pre)
        lex.add(suf, -count)
        return left + rec(suf)

    return tuple(rec(word))


def _search_pair(model: CognateModel, word_a: str, count_a: int, word_b: str, count_b: int):
    """Joint recursive splitting of a cognate pair.

    A split in one morph forces a split in the other; all split-point
    combinations are evaluated, including the edit-cost effect of re-pairing
    the sub-morphs. Leaves the chosen morphs and edit tokens counted.
    """
    lex_a = model.lexicons["a"]
    lex_b = model.lexicons["b"]
    edit_lex = model.edit_lexicon

    def add_forms(forms, sign):
        for form in forms:
            edit_lex.add(form, sign)

    def rec(a, b):
        whole_forms = _edit_forms(a, b)
        lex_a.add(a, count_a)
        lex_b.add(b, count_b)
        add_forms(whole_forms, 1)
        best = model.total_cost()
        lex_a.add(a, -count_a)
        lex_b.add(b, -count_b)
        add_forms(whole_forms, -1)
        split = None
        if len(a) > 1 and len(b) > 1:
            for i in range(1, len(a)):
                a1, a2 = a[:i], a[i:]
                lex_a.add(a1, count_a)
                lex_a.add(a2, count_a)
                for j in range(1, len(b)):
                    b1, b2 = b[:j], b[j:]
                    forms = _edit_forms(a1, b1) + _edit_forms(a2, b2)
                    lex_b.add(b1, count_b)
                    lex_b.add(b2, count_b)
                    add_forms(forms, 1)
                    cost = model.total_cost()
                    lex_b.add(b1, -count_b)
                    lex_b.add(b2, -count_b)
                    add_forms(forms, -1)
                    if cost <= best:
                        best, split = cost, (i, j)
                lex_a.add(a1, -count_a)
                lex_a.add(a2, -count_a)
        if split is None:
            lex_a.add(a, count_a)
            lex_b.add(b, count_b)
            add_forms(whole_forms, 1)
            return [a], [b]
        i, j = split
        a1, a2 = a[:i], a[i:]
        b1, b2 = b[:j], b[j:]
        tail_forms = _edit_forms(a2, b2)
        lex_a.add(a2, count_a)
        lex_b.add(b2, count_b)
        add_forms(tail_forms, 1)
        left_a, left_b = rec(a1, b1)
        lex_a.add(a2, -count_a)
        lex_b.add(b2, -count_b)
        add_forms(tail_forms, -1)
        right_a, right_b = rec(a2, b2)
        return left_a + right_a, left_b + right_b

    morphs_a, morphs_b = rec(word_a, word_b)
    return tuple(morphs_a), tuple(morphs_b)


def resegment_word(model: CognateModel, word: str, language: str) -> Analysis:
    """Resegment a detached word and record the new analysis.

    The word's morph counts must have been removed (detach_word); its
    analysis record supplies the token count.
    """
    if not word:
        raise ContractError("cannot resegment an empty word")
    record = model.analyses[language].get(word)
    if record is None:
        raise ContractError("word %r unknown in language %s" % (word, language))
    if model.pair_for(language, word) is not None:
        raise ContractError("cognate word %r must be resegmented as a pair" % word)
    morphs = _search_word(model, language, word, record.count)
    analysis = Analysis(word, morphs, record.count)
    model.record_analyses([(language, analysis)])
    return analysis


def resegment_pair(model: CognateModel, pair: CognatePair):
    """Jointly resegment a detached cognate pair and record both analyses."""
    if model.pair_for("a", pair.word_a) is not pair:
        raise ContractError("pair %r not registered" % (pair.key,))
    rec_a = model.analyses["a"][pair.word_a]
    rec_b = model.analyses["b"][pair.word_b]
    morphs_a, morphs_b = _search_pair(
        model, pair.word_a, rec_a.count, pair.word_b, rec_b.count
    )
    new_a = Analysis(pair.word_a, morphs_a, rec_a.count)
    new_b = Analysis(pair.word_b, morphs_b, rec_b.count)
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
    epoch_callback, if given, is called as epoch_callback(model, epoch)
    after every epoch.
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
        units.sort(key=lambda u: _unit_sort_key(params.rng_seed, epoch, u))
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
