"""Byte pair encoding over language-balanced word counts.

Per-language word-count tables are first scaled so every language
contributes an equal count mass, preventing corpus-size imbalance from
skewing the learned merges. Hyphens are hard segmentation boundaries: they
are kept as standalone symbols and pairs spanning a hyphen are never
counted nor merged. Words carry a distinct end-of-word symbol.
"""

from __future__ import annotations

import collections
import logging
from dataclasses import dataclass, field

from .errors import ContractError, read_rows

_logger = logging.getLogger(__name__)

WORD_END = "</w>"
HYPHENS = "-"


@dataclass
class BalancedCounts:
    """Per-language word counts after normalization to equal sums."""

    tables: dict[str, dict[str, int]]
    scales: dict[str, float]

    def combined(self) -> dict[str, int]:
        total: collections.Counter = collections.Counter()
        for table in self.tables.values():
            total.update(table)
        return dict(total)


@dataclass
class MergeTable:
    """Ordered symbol-pair merges in training acquisition order."""

    merges: list[tuple[str, str]] = field(default_factory=list)
    truncated: bool = False


def balance_counts(tables: dict[str, dict[str, int]]) -> BalancedCounts:
    """Scale every language's counts so the sums match the largest language.

    Counts are rounded half-up; words with a nonzero input count keep at
    least a count of 1.
    """
    if len(tables) < 2:
        raise ContractError("need at least two languages to balance")
    sums = {}
    for lang, table in tables.items():
        if not table:
            raise ContractError("empty count table for language %r" % lang)
        sums[lang] = sum(table.values())
    target = max(sums.values())
    scales = {lang: target / s for lang, s in sums.items()}
    scaled = {}
    for lang, table in tables.items():
        factor = scales[lang]
        scaled[lang] = {
            word: max(1, int(count * factor + 0.5)) for word, count in table.items()
        }
    return BalancedCounts(tables=scaled, scales=scales)


def _fragments(word: str) -> list[tuple[str, ...]]:
    """Split a word into merge-isolated symbol fragments.

    Hyphens become single-symbol fragments; the end-of-word symbol joins the
    last fragment, or stands alone when the word ends in a hyphen so that no
    pair can span the hyphen.
    """
    frags: list[list[str]] = []
    current: list[str] = []
    for ch in word:
        if ch in HYPHENS:
            if current:
                frags.append(current)
            frags.append([ch])
            current = []
        else:
            current.append(ch)
    if current:
        frags.append(current)
    if frags and len(frags[-1]) == 1 and frags[-1][0] in HYPHENS:
        frags.append([WORD_END])
    elif frags:
        frags[-1].append(WORD_END)
    else:
        frags.append([WORD_END])
    return [tuple(f) for f in frags]


def _merge_fragment(symbols: tuple[str, ...], left: str, right: str) -> tuple[str, ...]:
    out = []
    i = 0
    n = len(symbols)
    while i < n:
        if i + 1 < n and symbols[i] == left and symbols[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def train_bpe(counts: dict[str, int], vocab_size: int) -> MergeTable:
    """Learn merges over word counts until vocab_size symbols exist.

    counts maps word -> count; for several languages pass
    balance_counts(tables).combined(). Hyphen fragments
    are single symbols and never participate in pairs. Pair-frequency ties
    break lexicographically. If the corpus runs out of mergeable pairs the
    table is returned shorter, flagged as truncated.
    """
    words = []
    for word, count in counts.items():
        if count < 1:
            raise ContractError("word counts must be positive")
        frags = [f for f in _fragments(word) if not (len(f) == 1 and f[0] in HYPHENS)]
        words.append((frags, count))
    alphabet = {sym for frags, _ in words for frag in frags for sym in frag}
    alphabet.update(ch for word in counts for ch in word if ch in HYPHENS)
    if vocab_size <= len(alphabet):
        raise ContractError(
            "vocab size %d not above initial alphabet size %d" % (vocab_size, len(alphabet))
        )
    table = MergeTable()
    for _ in range(vocab_size - len(alphabet)):
        pair_counts: collections.Counter = collections.Counter()
        for frags, count in words:
            for frag in frags:
                for i in range(len(frag) - 1):
                    pair_counts[(frag[i], frag[i + 1])] += count
        if not pair_counts:
            table.truncated = True
            _logger.warning(
                "ran out of mergeable pairs after %d merges", len(table.merges)
            )
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        table.merges.append(best)
        left, right = best
        for k, (frags, count) in enumerate(words):
            changed = None
            for fi, frag in enumerate(frags):
                for i in range(len(frag) - 1):
                    if frag[i] == left and frag[i + 1] == right:
                        if changed is None:
                            changed = list(frags)
                        changed[fi] = _merge_fragment(frag, left, right)
                        break
            if changed is not None:
                words[k] = (changed, count)
    return table


def apply_bpe(merges: MergeTable, word: str) -> list[str]:
    """Segment a word with a learned merge table.

    Hyphens come out as standalone subwords; the end-of-word symbol is
    stripped from the output, whose concatenation equals the input word.
    """
    if not word:
        return []
    out: list[str] = []
    for frag in _fragments(word):
        if len(frag) == 1 and frag[0] in HYPHENS:
            out.append(frag[0])
            continue
        symbols = frag
        for left, right in merges.merges:
            if len(symbols) < 2:
                break
            symbols = _merge_fragment(symbols, left, right)
        out.extend(symbols)
    if out and out[-1] == WORD_END:
        out.pop()
    elif out and out[-1].endswith(WORD_END):
        out[-1] = out[-1][: -len(WORD_END)]
    return out


def save_merges(path, table: MergeTable) -> None:
    """One merge per line, two space-separated symbols."""
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        for left, right in table.merges:
            stream.write("%s %s\n" % (left, right))


def load_merges(path) -> MergeTable:
    """Read merges written by save_merges."""
    return MergeTable(merges=[(left, right) for _, (left, right) in read_rows(path, 2, " ")])
