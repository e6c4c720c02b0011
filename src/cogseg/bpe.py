"""Byte pair encoding over language-balanced word counts.

Per-language word-count tables are first scaled so every language
contributes an equal count mass, preventing corpus-size imbalance from
skewing the learned merges. Hyphens are hard segmentation boundaries: they
are kept as standalone symbols and pairs spanning a hyphen are never
counted nor merged. Words carry a distinct end-of-word symbol.
"""

from __future__ import annotations

import bisect
import collections
import heapq
import logging
from dataclasses import dataclass, field

from .errors import ContractError, FormatError, read_rows

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
    """Ordered symbol-pair merges in training acquisition order.

    merges may grow after the table has been applied, but an entry must not
    be replaced in place: the pair index is rebuilt only when its length
    changes.
    """

    merges: list[tuple[str, str]] = field(default_factory=list)
    truncated: bool = False
    _positions: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _indexed: int = field(default=0, init=False, repr=False, compare=False)

    def pair_positions(self) -> dict[tuple[str, str], list[int]]:
        """Each pair's indices in merges, ascending."""
        if self._indexed != len(self.merges):
            self._positions = {}
            for index, pair in enumerate(self.merges):
                self._positions.setdefault(pair, []).append(index)
            self._indexed = len(self.merges)
        return self._positions


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
        if sums[lang] <= 0:
            raise ContractError("counts for language %r sum to %r" % (lang, sums[lang]))
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

    Pairs are counted once (the pair-statistics index of Sennrich et al.
    2016, arXiv:1508.07909): each merge recounts only the fragments that
    hold the chosen pair, and the best pair is the least (-count, pair)
    entry of a heap whose stale entries are dropped when they surface.
    """
    fragment_counts: collections.Counter = collections.Counter()
    alphabet = set()
    for word, count in counts.items():
        if count < 1:
            raise ContractError("word counts must be positive")
        for frag in _fragments(word):
            alphabet.update(frag)
            if len(frag) > 1:
                fragment_counts[frag] += count
    if vocab_size <= len(alphabet):
        raise ContractError(
            "vocab size %d not above initial alphabet size %d" % (vocab_size, len(alphabet))
        )
    # A merge acts alike on equal fragments, so each distinct one is a unit.
    units = [[frag, count] for frag, count in fragment_counts.items()]
    pair_counts: collections.Counter = collections.Counter()
    holders: dict[tuple[str, str], set[int]] = collections.defaultdict(set)
    for unit, (symbols, count) in enumerate(units):
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] += count
            holders[pair].add(unit)
    # Every pair in pair_counts has a heap entry holding its current count.
    heap = [(-count, pair) for pair, count in pair_counts.items()]
    heapq.heapify(heap)
    table = MergeTable()
    for _ in range(vocab_size - len(alphabet)):
        while heap and pair_counts.get(heap[0][1]) != -heap[0][0]:
            heapq.heappop(heap)
        if not heap:
            table.truncated = True
            _logger.warning(
                "ran out of mergeable pairs after %d merges", len(table.merges)
            )
            break
        best = heapq.heappop(heap)[1]
        table.merges.append(best)
        left, right = best
        before: dict[tuple[str, str], int] = {}
        # A holder may no longer hold the pair; its merge is then a no-op.
        for unit in holders.pop(best):
            symbols, count = units[unit]
            merged = _merge_fragment(symbols, left, right)
            if len(merged) == len(symbols):
                continue
            units[unit][0] = merged
            for pair in zip(symbols, symbols[1:]):
                before.setdefault(pair, pair_counts[pair])
                pair_counts[pair] -= count
            for pair in zip(merged, merged[1:]):
                before.setdefault(pair, pair_counts[pair])
                pair_counts[pair] += count
                holders[pair].add(unit)
        for pair, old in before.items():
            count = pair_counts[pair]
            if count == 0:
                del pair_counts[pair]
                holders.pop(pair, None)
            elif count != old:
                heapq.heappush(heap, (-count, pair))
    return table


def apply_bpe(merges: MergeTable, word: str) -> list[str]:
    """Segment a word with a learned merge table.

    Merges apply in table order, each at its own turn: for each line of the
    table in turn, every occurrence of its pair is merged, left to right. A
    line whose pair forms only after its turn does not act, though a later
    duplicate of it can. Each step jumps to the next line whose pair is
    present, found through the table's pair index. Hyphens come out as
    standalone subwords; the end-of-word symbol is stripped from the output,
    whose concatenation equals the input word.
    """
    if not word:
        return []
    positions = merges.pair_positions()
    out: list[str] = []
    for symbols in _fragments(word):
        last = -1
        while len(symbols) > 1:
            step = None
            for pair in zip(symbols, symbols[1:]):
                indices = positions.get(pair)
                if indices is not None and indices[-1] > last:
                    index = indices[bisect.bisect_right(indices, last)]
                    if step is None or index < step:
                        step = index
            if step is None:
                break
            last = step
            symbols = _merge_fragment(symbols, *merges.merges[step])
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
    """Read merges written by save_merges; an empty symbol is malformed."""
    merges = []
    for lineno, (left, right) in read_rows(path, 2, " "):
        if not (left and right):
            raise FormatError("empty merge symbol", path, lineno)
        merges.append((left, right))
    return MergeTable(merges=merges)
