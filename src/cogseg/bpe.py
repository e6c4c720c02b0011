"""Byte pair encoding over language-balanced word counts.

Per-language word-count tables are first scaled so every language
contributes an equal count mass, preventing corpus-size imbalance from
skewing the learned merges. Hyphens are hard segmentation boundaries: they
are kept as standalone symbols and pairs spanning a hyphen are never
counted nor merged. Words carry a distinct end-of-word symbol.
"""

from __future__ import annotations

import collections
import heapq
import itertools
import logging
import re
from dataclasses import dataclass, field

from .errors import ContractError, FormatError, read_rows

_logger = logging.getLogger(__name__)

WORD_END = "</w>"
HYPHENS = "-"
_HYPHEN_SPLIT = re.compile("([%s])" % re.escape(HYPHENS))


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

    apply_bpe ranks pairs with rank_index(). merges may grow after the
    table has been applied, but an entry must not be replaced in place: the
    rank index is rebuilt only when its length changes.
    """

    merges: list[tuple[str, str]] = field(default_factory=list)
    truncated: bool = False
    _first: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _next: list = field(default_factory=list, init=False, repr=False, compare=False)
    _indexed: int = field(default=0, init=False, repr=False, compare=False)

    def rank_index(self) -> tuple[dict[tuple[str, str], int], list[int]]:
        """Each pair's first line in merges, and for each line the next line
        that holds the same pair, or len(merges) after the last one."""
        if self._indexed != len(self.merges):
            end = len(self.merges)
            self._first = {}
            self._next = [end] * end
            # From the last line back to the first: when a line is reached,
            # _first holds its pair's nearest later line, if there is one.
            for index in range(end - 1, -1, -1):
                pair = self.merges[index]
                self._next[index] = self._first.get(pair, end)
                self._first[pair] = index
            self._indexed = end
        return self._first, self._next


def balance_counts(tables: dict[str, dict[str, int]]) -> BalancedCounts:
    """Scale every language's counts so the sums match the largest language.

    Every input count must be an int of at least 1; a bool is not one.
    Counts are rounded half-up; no scale is below 1, so every word keeps a
    count of at least 1.
    """
    if len(tables) < 2:
        raise ContractError("need at least two languages to balance")
    sums = {}
    for lang, table in tables.items():
        if not table:
            raise ContractError("empty count table for language %r" % lang)
        for word, count in table.items():
            if type(count) is not int or count < 1:
                raise ContractError(
                    "count %r of word %r in language %r is not an int of at least 1"
                    % (count, word, lang)
                )
        sums[lang] = sum(table.values())
    target = max(sums.values())
    scales = {lang: target / s for lang, s in sums.items()}
    scaled = {}
    for lang, table in tables.items():
        factor = scales[lang]
        scaled[lang] = {
            word: int(count * factor + 0.5) for word, count in table.items()
        }
    return BalancedCounts(tables=scaled, scales=scales)


def _fragments(word: str) -> list[tuple[str, ...]]:
    """Split a word into merge-isolated symbol fragments.

    Hyphens become single-symbol fragments; the end-of-word symbol joins the
    last fragment, or stands alone when the word ends in a hyphen so that no
    pair can span the hyphen. A word that holds no hyphen is one fragment,
    and is not run through the split.
    """
    if not _HYPHEN_SPLIT.search(word):
        return [(*word, WORD_END)]
    # The split alternates text and hyphen, and ends with the (maybe empty)
    # text after the last hyphen.
    *pieces, last = _HYPHEN_SPLIT.split(word)
    return [tuple(piece) for piece in pieces if piece] + [(*last, WORD_END)]


def train_bpe(counts: dict[str, int], vocab_size: int) -> MergeTable:
    """Learn merges over word counts until vocab_size symbols exist.

    counts maps word -> count, each an int of at least 1; for several
    languages pass balance_counts(tables).combined(). Hyphen fragments
    are single symbols and never participate in pairs. Pair-frequency ties
    break lexicographically. If the corpus runs out of mergeable pairs the
    table is returned shorter, flagged as truncated.

    Pairs are counted once (the pair-statistics index of Sennrich et al.
    2016, arXiv:1508.07909), and the best pair is the least (-count, pair)
    entry of a heap whose stale entries are dropped when they surface. A
    merge visits only the fragments in the chosen pair's holder set, and
    merges each occurrence in place, left to right; one that overlaps the
    occurrence merged before it (the second pair of a a a) is not merged.
    Each occurrence takes away the pair before it, itself and the pair
    after it, and puts in the two pairs beside the joined symbol. These
    changes are summed over the merge, and only a pair whose sum is not 0
    is written back and pushed onto the heap. A fragment that holds a pair
    is in its holder set, because a merge that forms the pair adds the
    fragment, and a set is dropped only when its pair has no occurrence
    left: it was merged, which leaves none, or its count fell to 0.
    """
    # A bool is an int to Python, and a float would count, scale or bound
    # the merges as if it were one.
    if type(vocab_size) is not int:
        raise ContractError("vocab size must be an int, got %r" % (vocab_size,))
    fragment_counts: collections.Counter = collections.Counter()
    alphabet = set()
    for word, count in counts.items():
        if type(count) is not int or count < 1:
            raise ContractError("word counts must be positive ints, got %r" % (count,))
        for frag in _fragments(word):
            alphabet.update(frag)
            if len(frag) > 1:
                fragment_counts[frag] += count
    if vocab_size <= len(alphabet):
        raise ContractError(
            "vocab size %d not above initial alphabet size %d" % (vocab_size, len(alphabet))
        )
    # A merge acts alike on equal fragments, so each distinct one is a unit.
    units = [(list(frag), count) for frag, count in fragment_counts.items()]
    # A plain dict: Counter's __missing__ is a Python call per new pair.
    pair_counts: dict[tuple[str, str], int] = {}
    holders: dict[tuple[str, str], set[int]] = collections.defaultdict(set)
    for unit, (symbols, count) in enumerate(units):
        for pair in zip(symbols, symbols[1:]):
            pair_counts[pair] = pair_counts.get(pair, 0) + count
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
        joined = left + right
        # A merge of a a uses up a second left symbol a.
        twin = left == right
        delta: dict[tuple[str, str], int] = {}
        # A holder may no longer hold the pair; its merge is then a no-op.
        for unit in holders.pop(best):
            symbols, count = units[unit]
            lefts = symbols.count(left)
            last = len(symbols) - 1
            i = 0
            while lefts:
                i = symbols.index(left, i)
                lefts -= 1
                if i < last and symbols[i + 1] == right:
                    lefts -= twin
                    delta[best] = delta.get(best, 0) - count
                    if i:
                        pair = (symbols[i - 1], left)
                        delta[pair] = delta.get(pair, 0) - count
                        pair = (symbols[i - 1], joined)
                        delta[pair] = delta.get(pair, 0) + count
                        holders[pair].add(unit)
                    symbols[i : i + 2] = (joined,)
                    last -= 1
                    if i < last:
                        pair = (right, symbols[i + 1])
                        delta[pair] = delta.get(pair, 0) - count
                        pair = (joined, symbols[i + 1])
                        delta[pair] = delta.get(pair, 0) + count
                        holders[pair].add(unit)
                i += 1
        for pair, change in delta.items():
            count = pair_counts.get(pair, 0) + change
            if not count:
                pair_counts.pop(pair, None)
                holders.pop(pair, None)
            elif change:
                pair_counts[pair] = count
                heapq.heappush(heap, (-count, pair))
    return table


def apply_bpe(merges: MergeTable, word: str) -> list[str]:
    """Segment a word with a learned merge table.

    Merges apply in table order, each at its own turn: for each line of the
    table in turn, every occurrence of its pair is merged, left to right. A
    line whose pair forms only after its turn does not act, though a later
    duplicate of it can. Hyphens come out as standalone subwords; the
    end-of-word symbol is stripped from the output, whose concatenation
    equals the input word.

    Each fragment keeps, beside its symbols, the rank of every adjacent
    pair: its first line above the last line applied, or len(merges.merges)
    when there is none. A fragment's first ranks are the pairs' first lines
    in the rank index. The least rank is the next line whose pair is
    present. Its leftmost occurrence is merged into the concatenation of
    its two symbols, and only the two pairs beside it are ranked again: a
    pair's first line, or when that line's turn has passed, the next line
    along its chain of duplicates whose turn has not. A merge never forms
    its own pair, so the line's other occurrences keep the least rank and
    are merged in turn, left to right; an overlapped one (the second pair
    of a a a) has become (aa, a) and is not.
    """
    if not word:
        return []
    first, following = merges.rank_index()
    get = first.get
    end = len(merges.merges)
    out: list[str] = []
    for fragment in _fragments(word):
        symbols = list(fragment)
        ranks = list(map(get, zip(fragment, fragment[1:]), itertools.repeat(end)))
        while ranks:
            step = min(ranks)
            if step == end:
                break
            i = ranks.index(step)
            merged = symbols[i] + symbols[i + 1]
            symbols[i : i + 2] = (merged,)
            del ranks[i]
            # Inlined: a helper call per neighbour costs apply_bpe about 7%.
            # A line at or before step has had its turn and gives way to its
            # pair's next line; end is above step, so the walk stops there.
            if i:
                rank = get((symbols[i - 1], merged), end)
                while rank <= step:
                    rank = following[rank]
                ranks[i - 1] = rank
            if i < len(ranks):
                rank = get((merged, symbols[i + 1]), end)
                while rank <= step:
                    rank = following[rank]
                ranks[i] = rank
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
