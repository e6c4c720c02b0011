"""Model state and description-length costs for the bilingual segmentation model.

The model holds two morph lexicons (one per target language), an edit lexicon
over linked cognate pairs, and the current analysis of every word. The total
cost is

    lexicon(a) + lexicon(b) + alpha * (corpus(a) + corpus(b))
    + edit_weight * (lexicon(edits) + alpha * corpus(edits))

in nats. The corpus cost of an inventory is the maximum-likelihood unigram
token code N*ln(N) - sum(c*ln(c)); the lexicon cost is the log-binomial
frequency-distribution code ln C(N-1, M-1) plus a maximum-likelihood
character code over the entry forms, each form carrying one end marker.

In the "count-only" mode the edit terms are dropped from the cost but edit
bookkeeping is still maintained, so reports and the equal-morph-count
constraint behave identically.

Training's bookkeeping is incremental; ``recompute_from_scratch`` is the
oracle guarding it. A fresh model (trainer.initialize) and a loaded one
are counted by the same bulk recount (``recount``): ``checked_pairs``,
the one strict check of the pairs, then a tally. A pair's edit forms are
counted while both of its words are recorded and counted in
(``count_unit``); they are not stored, and each caller looks them up in
edits.edit_forms (``aligned_edit_tokens``) where it needs them.
"""

from __future__ import annotations

import collections
import math
import sys
from dataclasses import dataclass

# extract_edits is not called here; perfbench/child.py wraps it by name.
from .edits import edit_forms, extract_edits  # noqa: F401
from .errors import ContractError, ModelIntegrityError, PairError, holds_whitespace

# Internal end-of-form marker counted once per entry in character statistics.
FORM_END = "\x00"

LANGUAGES = ("a", "b")

EDIT_MODE_FULL = "full"
EDIT_MODE_COUNT_ONLY = "count-only"
EDIT_MODES = (EDIT_MODE_FULL, EDIT_MODE_COUNT_ONLY)

DAMPENING_MODES = ("none", "log")

_log = math.log
_lgamma = math.lgamma

# XLOGX[n] == n * math.log(n), the same float the expression gives, for
# 1 <= n < _XLOGX_SIZE (XLOGX[0] is a placeholder; no caller reads it).
# Larger counts use the expression. The size covers every count the perfbench
# workloads reach (at most 5,604 on seeds 1 and 2); at about 32 B an entry the
# table holds 512 KB. It is a pure function of its index, so lexicons share
# it.
_XLOGX_SIZE = 1 << 14
XLOGX = [0.0] + [n * _log(n) for n in range(1, _XLOGX_SIZE)]


def _xlogx(n: int) -> float:
    """n * ln(n) for a count n >= 1."""
    return XLOGX[n] if n < _XLOGX_SIZE else n * _log(n)


def dampen_count(count: int) -> int:
    """Log-dampened token count: floor(ln(count)) + 1."""
    return int(math.floor(_log(count))) + 1


@dataclass(frozen=True)
class Analysis:
    """A word's current segmentation and its corpus token count."""

    word: str
    morphs: tuple[str, ...]
    count: int

    def __post_init__(self):
        # A bool is an int to Python, and a float count would fail in
        # add_analysis's XLOGX lookup after the lexicon had taken it.
        if type(self.count) is not int or self.count < 1:
            raise ContractError("count must be a positive int: %r" % (self,))
        if not self.morphs or not all(self.morphs):
            raise ContractError("morphs must be non-empty: %r" % (self,))
        if "".join(self.morphs) != self.word:
            raise ContractError(
                "morphs %r do not concatenate to %r" % (self.morphs, self.word)
            )
        if holds_whitespace(self.word):
            raise ContractError("word %r contains whitespace" % self.word)


@dataclass(frozen=True)
class CognatePair:
    """Two linked words, one per language, with their corpus counts."""

    word_a: str
    word_b: str
    count_a: int
    count_b: int

    @property
    def key(self) -> tuple[str, str]:
        return (self.word_a, self.word_b)


class CountLexicon:
    """Counted inventory of forms with cached cost statistics.

    Serves both morph lexicons (forms are morphs) and the edit lexicon
    (forms are serialized edits, boundary symbol included). Zero-count forms
    are evicted immediately so type and character statistics stay exact.

    trie() is the Viterbi index: each form with its step cost. It is built
    on first use and is a snapshot of the counts, so every add() drops it.
    Training never builds it.
    """

    __slots__ = (
        "counts",
        "tokens",
        "log_token_sum",
        "char_counts",
        "char_tokens",
        "log_char_sum",
        "_trie",
    )

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.tokens = 0
        self.log_token_sum = 0.0
        self.char_counts: dict[str, int] = {}
        self.char_tokens = 0
        self.log_char_sum = 0.0
        self._trie = None

    @classmethod
    def from_counts(cls, counts: dict[str, int]) -> "CountLexicon":
        """A lexicon holding counts, a dict of form to positive count, which
        it keeps as its own.

        Each statistic is summed in one pass over the forms or over the
        characters. The float sums are math.fsum's correctly rounded ones,
        so they depend only on the counts, never on their order; they can
        differ in the last bits from the sums add() builds up.
        """
        lex = cls()
        lex.counts = counts
        lex.tokens = sum(counts.values())
        lex.log_token_sum = math.fsum(map(_xlogx, counts.values()))
        chars = collections.Counter("".join(counts))
        if counts:
            chars[FORM_END] = len(counts)
        lex.char_counts = dict(chars)
        lex.char_tokens = sum(chars.values())
        lex.log_char_sum = math.fsum(map(_xlogx, chars.values()))
        return lex

    @property
    def types(self) -> int:
        return len(self.counts)

    def trie(self) -> dict:
        """Character trie of the forms: nested dicts keyed by character,
        where a node's "" key holds the step cost ln N - ln count of the
        form that ends there (ln N is 0.0 for an empty lexicon)."""
        root = self._trie
        if root is None:
            root = {}
            log_tokens = _log(self.tokens) if self.tokens > 0 else 0.0
            for form, count in self.counts.items():
                node = root
                for ch in form:
                    node = node.setdefault(ch, {})
                node[""] = log_tokens - _log(count)
            self._trie = root
        return root

    def add(self, form: str, delta: int) -> None:
        """Adjust the token count of form by delta (negative to remove)."""
        counts = self.counts
        old = counts.get(form, 0)
        new = old + delta
        if new < 0:
            raise ContractError("count of %r would go negative" % form)
        if new == 0:
            if old:
                del counts[form]
        else:
            counts[form] = new
        self.tokens += delta
        self._trie = None
        if old > 1:
            self.log_token_sum -= XLOGX[old] if old < _XLOGX_SIZE else old * _log(old)
        if new > 1:
            self.log_token_sum += XLOGX[new] if new < _XLOGX_SIZE else new * _log(new)
        if old == 0 and new > 0:
            self._add_form_chars(form, 1)
        elif old > 0 and new == 0:
            self._add_form_chars(form, -1)

    def _add_form_chars(self, form: str, sign: int) -> None:
        # Runs exactly when form enters or leaves the inventory. Same float
        # operations, in the same order, as updating self.log_char_sum in
        # place.
        chars = self.char_counts
        total = self.log_char_sum
        for ch in form + FORM_END:
            old = chars.get(ch, 0)
            new = old + sign
            if new == 0:
                del chars[ch]
            else:
                chars[ch] = new
            if old > 1:
                total -= XLOGX[old] if old < _XLOGX_SIZE else old * _log(old)
            if new > 1:
                total += XLOGX[new] if new < _XLOGX_SIZE else new * _log(new)
        self.log_char_sum = total
        self.char_tokens += sign * (len(form) + 1)

    def costs(self) -> tuple[float, float]:
        """(lexicon cost, corpus cost) of the inventory."""
        return _costs(
            len(self.counts), self.tokens, self.log_token_sum, self.char_tokens, self.log_char_sum
        )

    def costs_with(self, forms, delta: int) -> tuple[float, float]:
        """(lexicon cost, corpus cost) with delta > 0 added to the count of
        each of forms (twice for a form listed twice), computed from the
        counts without writing them. The result depends only on the
        inventory and the arguments. Neither cost is below the matching one
        of costs(): more tokens or types never shorten either code, which
        the split search's bound relies on."""
        changes = dict.fromkeys(forms, 0)
        for form in forms:
            changes[form] += delta
        counts = self.counts
        token_gain = 0.0
        entering = []
        for form, change in changes.items():
            old = counts.get(form, 0)
            new = old + change
            # XLOGX[0] == XLOGX[1] == 0.0, the value of n*ln(n) at n = 1.
            token_gain += (XLOGX[new] if new < _XLOGX_SIZE else new * _log(new)) - (
                XLOGX[old] if old < _XLOGX_SIZE else old * _log(old)
            )
            if not old:
                entering.append(form)
        char_tokens = self.char_tokens
        char_gain = 0.0
        if entering:
            text = FORM_END.join(entering) + FORM_END
            char_tokens += len(text)
            chars = dict.fromkeys(text, 0)
            for ch in text:
                chars[ch] += 1
            char_counts = self.char_counts
            for ch, change in chars.items():
                old = char_counts.get(ch, 0)
                new = old + change
                char_gain += (XLOGX[new] if new < _XLOGX_SIZE else new * _log(new)) - (
                    XLOGX[old] if old < _XLOGX_SIZE else old * _log(old)
                )
        return _costs(
            len(counts) + len(entering),
            self.tokens + delta * len(forms),
            self.log_token_sum + token_gain,
            char_tokens,
            self.log_char_sum + char_gain,
        )

    def corpus_cost(self) -> float:
        """Token code N*ln(N) - sum(c*ln(c)); zero for an empty inventory."""
        return self.costs()[1]

    def lexicon_cost(self) -> float:
        """Frequency-distribution code plus character code over entry forms."""
        return self.costs()[0]


def _costs(types, tokens, token_sum, char_tokens, char_sum) -> tuple[float, float]:
    """(lexicon cost, corpus cost) of an inventory of types forms and tokens
    tokens, with token_sum = sum(c*ln(c)) over the form counts, char_tokens
    characters (end markers included) and char_sum = sum(c*ln(c)) over the
    character counts. Both are zero for an empty inventory."""
    if types == 0:
        return 0.0, 0.0
    freq = _lgamma(tokens) - _lgamma(types) - _lgamma(tokens - types + 1)
    forms = char_tokens * _log(char_tokens) - char_sum
    return freq + forms, tokens * _log(tokens) - token_sum


def check_equal_morph_counts(analysis_a: Analysis, analysis_b: Analysis) -> None:
    """Raise ContractError unless a pair's analyses have equal morph counts."""
    if len(analysis_a.morphs) != len(analysis_b.morphs):
        raise ContractError(
            "cognate analyses must have equal morph counts: %r / %r"
            % (analysis_a.morphs, analysis_b.morphs)
        )


def aligned_edit_tokens(analysis_a: Analysis, analysis_b: Analysis) -> tuple[str, ...]:
    """The edit forms of a pair: morphs are paired up in sequence.

    Both analyses must have the same number of morphs.
    """
    check_equal_morph_counts(analysis_a, analysis_b)
    morph_pairs = zip(analysis_a.morphs, analysis_b.morphs)
    return tuple(form for ma, mb in morph_pairs for form in edit_forms(ma, mb))


class CognateModel:
    """Full state of the bilingual model; single-writer, cheap O(1) cost reads."""

    def __init__(
        self,
        alpha: float = 0.01,
        edit_weight: float = 10.0,
        edit_mode: str = EDIT_MODE_FULL,
        seed: int = 0,
        dampening: str = "none",
    ):
        for name, value in (("alpha", alpha), ("edit_weight", edit_weight)):
            # An int beyond the float range cannot be weighed, and a bool (an
            # int to Python) saves as text that load_model rejects.
            if type(value) is bool or not 0 < value <= sys.float_info.max:
                raise ContractError("%s must be positive and finite, got %r" % (name, value))
        if edit_mode not in EDIT_MODES:
            raise ContractError("unknown edit mode %r" % edit_mode)
        if dampening not in DAMPENING_MODES:
            raise ContractError("unknown dampening mode %r" % dampening)
        if type(seed) is not int:
            raise ContractError("seed must be an int, got %r" % (seed,))
        self.alpha = alpha
        self.edit_weight = edit_weight
        self.edit_mode = edit_mode
        self.seed = seed
        self.dampening = dampening
        self.lexicons = {"a": CountLexicon(), "b": CountLexicon()}
        self.edit_lexicon = CountLexicon()
        self.analyses: dict[str, dict[str, Analysis]] = {"a": {}, "b": {}}
        self.pairs: list[CognatePair] = []
        self._pair_by_word: dict[tuple[str, str], CognatePair] = {}

    # -- pair registry -------------------------------------------------

    def register_pair(self, pair: CognatePair) -> None:
        """Register a cognate link before either of its words is recorded;
        each word may belong to one pair only."""
        pair_by_word = self._pair_by_word
        key_a, key_b = keys = ("a", pair.word_a), ("b", pair.word_b)
        for key in keys:
            lang, word = key
            if key in pair_by_word:
                raise ContractError(
                    "word %r already belongs to a pair in language %s" % (word, lang)
                )
            if word in self.analyses[lang]:
                raise ContractError("pair word %r is already analyzed in %s" % (word, lang))
        self.pairs.append(pair)
        pair_by_word[key_a] = pair_by_word[key_b] = pair

    def pair_for(self, language: str, word: str) -> CognatePair | None:
        return self._pair_by_word.get((language, word))

    # -- cost ----------------------------------------------------------

    def total_cost(self) -> float:
        return self.weigh(
            self.lexicons["a"].costs(), self.lexicons["b"].costs(), self.edit_lexicon.costs()
        )

    def weigh(self, costs_a, costs_b, costs_edits) -> float:
        """The total cost from the (lexicon cost, corpus cost) of lexicon a,
        lexicon b and the edit lexicon. costs_edits is not read in the
        count-only mode. Increasing in every cost term it reads, since
        alpha and edit_weight are positive. Bitwise symmetric in costs_a and
        costs_b, since IEEE addition is commutative: swapping them swaps the
        operands of two additions only."""
        lexicon_a, corpus_a = costs_a
        lexicon_b, corpus_b = costs_b
        cost = lexicon_a + lexicon_b + self.alpha * (corpus_a + corpus_b)
        if self.edit_mode == EDIT_MODE_FULL:
            lexicon_e, corpus_e = costs_edits
            cost += self.edit_weight * (lexicon_e + self.alpha * corpus_e)
        return cost

    def cost_with(self, entries) -> float:
        """The total cost with a counted-out unit's (language, analysis)
        entries counted in, computed from the counts without writing them.
        entries are one word, or the a and b words of a cognate pair, whose
        aligned edit forms (aligned_edit_tokens) are counted too."""
        costs = {language: lex.costs() for language, lex in self.lexicons.items()}
        for language, analysis in entries:
            costs[language] = self.lexicons[language].costs_with(analysis.morphs, analysis.count)
        costs_edits = self.edit_lexicon.costs()
        if len(entries) > 1:
            (_, analysis_a), (_, analysis_b) = entries
            forms = aligned_edit_tokens(analysis_a, analysis_b)
            costs_edits = self.edit_lexicon.costs_with(forms, 1)
        return self.weigh(costs["a"], costs["b"], costs_edits)

    def cost_components(self) -> dict[str, float]:
        """Raw (unweighted) cost terms, for reporting."""
        components = {}
        for name, lex in (("a", self.lexicons["a"]), ("b", self.lexicons["b"]),
                          ("edits", self.edit_lexicon)):
            components["lexicon_" + name], components["corpus_" + name] = lex.costs()
        return components

    # -- analysis mutation ----------------------------------------------

    def check_language(self, language: str) -> None:
        """Raise ContractError unless language is one the model holds."""
        if language not in self.analyses:
            raise ContractError(
                "unknown language %r (the model holds: %s)" % (language, ", ".join(self.analyses))
            )

    def check_pair(self, pair: CognatePair) -> tuple[Analysis, Analysis]:
        """The recorded a and b analyses of pair. Raises ContractError
        unless both words are recorded, with the pair's counts and equal
        morph counts."""
        analysis_a = self.analyses["a"].get(pair.word_a)
        analysis_b = self.analyses["b"].get(pair.word_b)
        sides = (("a", pair.word_a, pair.count_a, analysis_a),
                 ("b", pair.word_b, pair.count_b, analysis_b))
        for lang, word, count, analysis in sides:
            if analysis is None:
                raise ContractError("pair word %r has no analysis in %s" % (word, lang))
            if analysis.count != count:
                raise ContractError(
                    "pair count %d disagrees with analysis count %d for %r"
                    % (count, analysis.count, word)
                )
        check_equal_morph_counts(analysis_a, analysis_b)
        return analysis_a, analysis_b

    def insert_analysis(self, analysis: Analysis, language: str) -> None:
        """Record a word's analysis without counting it; recount() counts
        the recorded analyses in."""
        self.check_language(language)
        table = self.analyses[language]
        if analysis.word in table:
            raise ContractError("word %r already analyzed in %s" % (analysis.word, language))
        table[analysis.word] = analysis

    def count_unit(self, entries, sign: int) -> None:
        """Count a unit's (language, analysis) entries in (sign 1) or out
        (sign -1): one word, or the a and b words of a cognate pair, whose
        aligned edit forms (aligned_edit_tokens) are counted first. The
        records are neither read nor written. A pair with unequal morph
        counts raises ContractError before any count changes."""
        if len(entries) > 1:
            (_, analysis_a), (_, analysis_b) = entries
            add = self.edit_lexicon.add
            for form in aligned_edit_tokens(analysis_a, analysis_b):
                add(form, sign)
        for language, analysis in entries:
            add = self.lexicons[language].add
            delta = sign * analysis.count
            for morph in analysis.morphs:
                add(morph, delta)

    def _partner_edit_forms(self, language: str, analysis: Analysis) -> tuple[str, ...]:
        """The edit forms of analysis aligned with its pair partner's recorded
        analysis; () if its word is unpaired or the partner unrecorded."""
        pair = self.pair_for(language, analysis.word)
        if pair is None:
            return ()
        both = {"a": self.analyses["a"].get(pair.word_a), "b": self.analyses["b"].get(pair.word_b)}
        both[language] = analysis
        return () if None in both.values() else aligned_edit_tokens(both["a"], both["b"])

    def add_analysis(self, analysis: Analysis, language: str) -> None:
        """Insert and count a word's analysis, with its pair's edit forms
        first when its partner is recorded. A pair with unequal morph counts
        raises ContractError with the model unchanged. Read the cost with
        total_cost()."""
        forms = self._partner_edit_forms(language, analysis)
        self.insert_analysis(analysis, language)
        for form in forms:
            self.edit_lexicon.add(form, 1)
        self.count_unit([(language, analysis)], 1)

    def remove_analysis(self, word: str, language: str) -> None:
        """Uncount and remove a word's analysis, with its pair's edit forms
        when its partner is recorded."""
        self.check_language(language)
        table = self.analyses[language]
        if word not in table:
            raise ContractError("word %r not analyzed in %s" % (word, language))
        analysis = table[word]
        for form in self._partner_edit_forms(language, analysis):
            self.edit_lexicon.add(form, -1)
        self.count_unit([(language, analysis)], -1)
        del table[word]

    # -- integrity -------------------------------------------------------

    def checked_pairs(self) -> list[tuple[Analysis, Analysis]]:
        """The (analysis_a, analysis_b) of each pair, in order, from
        check_pair: the first pair that fails raises PairError with its
        index in self.pairs."""
        checked = []
        for index, pair in enumerate(self.pairs):
            try:
                checked.append(self.check_pair(pair))
            except ContractError as exc:
                raise PairError(str(exc), index) from None
        return checked

    def _rebuild(self, pair_analyses):
        """The lexicons a, b and edits recounted from the recorded analyses
        with CountLexicon.from_counts. The edits are the aligned edit forms
        of each (analysis_a, analysis_b) of pair_analyses, whose morph
        counts the caller has checked; an edit Edit would reject raises
        ContractError."""
        tallies = {}
        for lang in LANGUAGES:
            tally = tallies[lang] = {}
            for analysis in self.analyses[lang].values():
                count = analysis.count
                for morph in analysis.morphs:
                    tally[morph] = tally.get(morph, 0) + count
        edit_tally = {}
        for ana_a, ana_b in pair_analyses:
            for morph_a, morph_b in zip(ana_a.morphs, ana_b.morphs):
                for form in edit_forms(morph_a, morph_b):
                    edit_tally[form] = edit_tally.get(form, 0) + 1
        return [CountLexicon.from_counts(t) for t in (tallies["a"], tallies["b"], edit_tally)]

    def recount(self) -> None:
        """Replace every count and cached sum with the recount of the
        recorded analyses. Afterwards total_cost() equals
        recompute_from_scratch() bit for bit.

        It runs checked_pairs first, so every pair must pass check_pair:
        the first that fails raises PairError with its index in self.pairs.
        Then it tallies, and an edit Edit would reject raises ContractError.
        Either way the model is unchanged.
        """
        lex_a, lex_b, lex_e = self._rebuild(self.checked_pairs())
        self.lexicons = {"a": lex_a, "b": lex_b}
        self.edit_lexicon = lex_e

    def recompute_from_scratch(self) -> float:
        """Rebuild all statistics from the analyses and return the total cost
        they give; the model's own lexicons are only read. The edits are
        those of each pair whose words are both recorded; one with unequal
        morph counts raises ContractError before any edit is tallied.

        Raises ModelIntegrityError if the rebuilt state disagrees with the
        cached one (exact count mismatch, or cached float sums off by more
        than 1e-9 relative).
        """
        analyses_a, analyses_b = self.analyses["a"], self.analyses["b"]
        recorded = [(analyses_a[p.word_a], analyses_b[p.word_b]) for p in self.pairs
                    if p.word_a in analyses_a and p.word_b in analyses_b]
        for ana_a, ana_b in recorded:
            check_equal_morph_counts(ana_a, ana_b)
        fresh_a, fresh_b, fresh_e = self._rebuild(recorded)
        for name, cached, fresh in (
            ("lexicon a", self.lexicons["a"], fresh_a),
            ("lexicon b", self.lexicons["b"], fresh_b),
            ("edit lexicon", self.edit_lexicon, fresh_e),
        ):
            if cached.counts != fresh.counts:
                raise ModelIntegrityError("%s counts diverge from analyses" % name)
            if cached.char_counts != fresh.char_counts:
                raise ModelIntegrityError("%s character counts diverge" % name)
            if cached.tokens != fresh.tokens or cached.char_tokens != fresh.char_tokens:
                raise ModelIntegrityError("%s totals diverge" % name)
            for attr in ("log_token_sum", "log_char_sum"):
                c = getattr(cached, attr)
                f = getattr(fresh, attr)
                if abs(c - f) > 1e-9 * max(1.0, abs(f)):
                    raise ModelIntegrityError(
                        "%s %s drifted: cached %.17g vs fresh %.17g" % (name, attr, c, f)
                    )
        return self.weigh(fresh_a.costs(), fresh_b.costs(), fresh_e.costs())
