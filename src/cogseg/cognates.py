"""Cognate pair extraction from aligned word-pair counts.

The pipeline filters a table of (word_a, word_b, count) alignment counts
down to a one-to-one cognate list: drop words containing punctuation or
digits, drop rarely aligned pairs, require closeness under a length-scaled
Levenshtein threshold (exact match for short words), then resolve words
participating in several pairs greedily by descending count.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field

from .edits import levenshtein_distance
from .errors import ContractError, check_word, parse_positive, read_rows

# The filters' defaults, which extract-cognates also uses.
DEFAULT_MIN_COUNT = 2
DEFAULT_SHORT_LEN = 4


@dataclass(frozen=True)
class AlignedPair:
    """Two words aligned to each other `count` times by the word aligner;
    line is the 1-based line of the pairs TSV it was read from, if any."""

    word_a: str
    word_b: str
    count: int
    line: int | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if type(self.count) is not int or self.count < 1:
            raise ContractError("alignment count must be a positive int: %r" % (self,))


def excluded_char(ch: str) -> bool:
    """Punctuation (Unicode P*) and digits disqualify a word."""
    cat = unicodedata.category(ch)
    return cat.startswith("P") or cat == "Nd"


def levenshtein_threshold(len_a: int, len_b: int, short_len: int = DEFAULT_SHORT_LEN) -> int:
    """Maximum allowed distance for word lengths (len_a, len_b).

    Words of short_len or fewer characters require an exact match; otherwise
    up to a third of the mean length is allowed, rounded up (the mean is
    kept exact, the ceiling applied once to the final quotient).
    """
    if len_a < 1 or len_b < 1:
        raise ContractError("word lengths must be positive")
    if min(len_a, len_b) <= short_len:
        return 0
    return -((len_a + len_b) // -6)  # ceil((len_a + len_b) / 6)


def filter_pairs(
    pairs, min_count: int = DEFAULT_MIN_COUNT, short_len: int = DEFAULT_SHORT_LEN
) -> list[AlignedPair]:
    """Apply the count, character (excluded_char) and distance filters."""
    pairs = [pair for pair in pairs if pair.count >= min_count]
    alphabet = set("".join(pair.word_a + pair.word_b for pair in pairs))
    excluded = {ch for ch in alphabet if excluded_char(ch)}
    kept = []
    for pair in pairs:
        word_a, word_b = pair.word_a, pair.word_b
        if not (excluded.isdisjoint(word_a) and excluded.isdisjoint(word_b)):
            continue
        limit = levenshtein_threshold(len(word_a), len(word_b), short_len)
        # The distance is at least the length difference.
        if abs(len(word_a) - len(word_b)) > limit or levenshtein_distance(word_a, word_b) > limit:
            continue
        kept.append(pair)
    return kept


def resolve_unique(pairs) -> list[AlignedPair]:
    """Keep each word's pairing to its most frequent cognate.

    Greedy over the conflict graph: pairs are taken in order of descending
    count (ties by lexicographic partner words) while both words are still
    unclaimed, so no word occurs in two output pairs.
    """
    used_a: set[str] = set()
    used_b: set[str] = set()
    out = []
    for pair in sorted(pairs, key=lambda p: (-p.count, p.word_a, p.word_b)):
        if pair.word_a in used_a or pair.word_b in used_b:
            continue
        used_a.add(pair.word_a)
        used_b.add(pair.word_b)
        out.append(pair)
    return out


def extract(
    pairs, min_count: int = DEFAULT_MIN_COUNT, short_len: int = DEFAULT_SHORT_LEN
) -> list[AlignedPair]:
    """Full pipeline (filter_pairs, then resolve_unique); output is
    deterministic and sorted by (word_a, word_b)."""
    resolved = resolve_unique(filter_pairs(pairs, min_count, short_len))
    return sorted(resolved, key=lambda p: (p.word_a, p.word_b))


def read_pairs_tsv(path) -> list[AlignedPair]:
    """Read (word_a, word_b, count) rows from a UTF-8 TSV file; every count
    must be positive, and every word non-empty and free of whitespace."""
    pairs = []
    for lineno, (word_a, word_b, count) in read_rows(path, 3):
        count = parse_positive(count, path, lineno)
        check_word(word_a, path, lineno)
        check_word(word_b, path, lineno)
        pairs.append(AlignedPair(word_a, word_b, count, lineno))
    return pairs


def write_pairs_tsv(path, pairs) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        for pair in pairs:
            stream.write("%s\t%s\t%d\n" % (pair.word_a, pair.word_b, pair.count))
