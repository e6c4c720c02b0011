"""Applying trained models to text: Viterbi segmentation, corpus streaming,
source-side override, and target-language tagging.

Corpus segmentation is lookup-first: words seen in training reuse their
stored analyses, unseen words are segmented with the Viterbi algorithm under
the unigram morph distribution. Out-of-lexicon single characters receive an
additive smoothing penalty so that every word is segmentable.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

from .errors import CogsegError, ContractError
from .model import Analysis, CognateModel, CountLexicon

# Pseudo-tokens of this shape select the target language in a multilingual
# system; they pass through segmentation unsplit.
TAG_PATTERN = re.compile(r"^<to_[0-9A-Za-z]+>$")

DEFAULT_JOINER = "@@"

# Extra cost in nats (on top of ln N) of emitting an out-of-lexicon single
# character, chosen large so known morphs always win when available.
UNKNOWN_CHAR_PENALTY = 20.0


@dataclass(frozen=True)
class SegmenterConfig:
    """Output conventions: joiner marks non-final subwords of a token."""

    joiner: str = DEFAULT_JOINER

    def __post_init__(self):
        if not self.joiner or any(ch.isspace() for ch in self.joiner):
            raise ContractError("joiner must be a non-empty token-safe string")


def viterbi_segment(lexicon: CountLexicon, word: str) -> Analysis:
    """Most probable segmentation of word under the lexicon's unigram model.

    A forward pass over the lexicon's trie: from each start position the
    walk follows word down the trie, so only the morphs that occur in word
    are looked at. A morph costs ln N - ln count; the single character at a
    start position is always a candidate, at ln N + UNKNOWN_CHAR_PENALTY
    when it is not a morph. Ties are broken deterministically: fewest morphs
    first, then the leftmost-longest morph sequence.
    """
    if not word:
        raise ContractError("cannot segment an empty word")
    trie = lexicon.trie()
    counts = lexicon.counts
    log = math.log
    log_tokens = log(lexicon.tokens) if lexicon.tokens > 0 else 0.0
    unknown = log_tokens + UNKNOWN_CHAR_PENALTY
    n = len(word)
    # Over word[:i]: the best cost, its morph count, and where its last
    # morph starts. Candidates for each i arrive in increasing start j.
    cost = [0.0] + [math.inf] * n
    size = [0] * (n + 1)
    back = [0] * (n + 1)
    for j in range(n):
        base = cost[j]
        k = size[j] + 1
        node = trie.get(word[j], _NO_FORMS)
        step = unknown
        i = j + 1
        while True:
            form = node.get("")
            if form is not None:
                step = log_tokens - log(counts[form])
            if step is not None:
                c = base + step
                if c < cost[i] or c == cost[i] and (
                    k < size[i]
                    or k == size[i] and _lengths(back, j) + [j - i] < _lengths(back, i)
                ):
                    cost[i] = c
                    size[i] = k
                    back[i] = j
                step = None
            if i == n:
                break
            node = node.get(word[i])
            if node is None:
                break
            i += 1
    morphs: list[str] = []
    pos = n
    while pos > 0:
        prev = back[pos]
        morphs.append(word[prev:pos])
        pos = prev
    morphs.reverse()
    return Analysis(word, tuple(morphs), 1)


# The trie node of a character that begins no morph.
_NO_FORMS: dict = {}


def _lengths(back, pos):
    """Negated morph lengths of the best segmentation of word[:pos]."""
    lengths = []
    while pos > 0:
        prev = back[pos]
        lengths.append(prev - pos)
        pos = prev
    lengths.reverse()
    return lengths


def join_morphs(morphs, joiner: str) -> str:
    """Render a token's morphs with the joiner marking non-final subwords.

    Rejects morphs containing the joiner, which would make the output
    ambiguous to undo.
    """
    if len(morphs) == 1:
        return morphs[0]
    if any(joiner in m for m in morphs):
        raise ContractError("joiner %r occurs inside a morph of %r" % (joiner, morphs))
    return " ".join(m + joiner for m in morphs[:-1]) + " " + morphs[-1]


def map_lines(lines, transform):
    """The line loop of every stdin command; yields transform(text) plus
    the line's own terminator for each line, so an unterminated last line
    stays unterminated. An error at line N stops the stream after lines
    1..N-1; I/O and decoding failures are reported with the offending line
    number. A text stream decodes a chunk ahead, so a line that is not
    UTF-8 stops the stream before the earlier lines of its chunk too.
    """
    lineno = 0
    try:
        for lineno, line in enumerate(lines, 1):
            text = line.rstrip("\r\n")
            yield transform(text) + line[len(text):]
    except (OSError, UnicodeError) as exc:
        if isinstance(exc, UnicodeDecodeError):  # text streams decode a chunk ahead
            lineno += exc.object.count(b"\n", 0, exc.start)
        raise CogsegError("line %d: %s" % (lineno + 1, exc)) from exc


def segment_lines(lines, token_morphs, config: SegmenterConfig):
    """The token loop of every apply command, run by map_lines; yields
    output lines.

    Lines are split on single spaces. Empty tokens, target tags and tokens
    holding other whitespace pass through unsplit; any other token becomes
    token_morphs(token) rendered with the joiner. A token's rendering
    depends on the token alone, so each call keeps one memo and a repeated
    token is rendered once; token_morphs runs once per distinct token
    (while it stays among the memo's 2^16 most recent). Each line keeps its
    terminator, so unjoin restores the input byte for byte.
    """
    joiner = config.joiner

    @functools.lru_cache(maxsize=1 << 16)
    def render(token):
        # isprintable() is False for every whitespace character but the
        # space, so plain tokens skip the per-character check.
        if not token or TAG_PATTERN.match(token) or (
            not token.isprintable() and any(ch.isspace() for ch in token)
        ):
            return token
        return join_morphs(token_morphs(token), joiner)

    return map_lines(lines, lambda text: " ".join(map(render, text.split(" "))))


def segment_corpus(
    model: CognateModel,
    lines,
    language: str,
    config: SegmenterConfig = SegmenterConfig(),
):
    """Segment a stream of whitespace-tokenized lines with segment_lines.

    Words seen in training reuse their stored analyses; other words are
    segmented by Viterbi under the language's lexicon.
    """
    analyses = model.analyses[language]
    lexicon = model.lexicons[language]
    return segment_lines(
        lines,
        lambda token: (analyses.get(token) or viterbi_segment(lexicon, token)).morphs,
        config,
    )


def unjoin(line: str, joiner: str = DEFAULT_JOINER) -> str:
    """Undo segment markers on one line, restoring the original tokens."""
    return line.replace(joiner + " ", "")


def override_source_segmentation(
    source_model: CognateModel, cognate_model: CognateModel, word: str
) -> Analysis:
    """Segmentation of a source-language word, kept consistent with the
    target side. The first stored analysis of the word wins, looked up in
    the cognate model's language a, then its language b, then the source
    model (language a); any other word is segmented by Viterbi under the
    source model's lexicon.
    """
    stored = (
        cognate_model.analyses["a"].get(word)
        or cognate_model.analyses["b"].get(word)
        or source_model.analyses["a"].get(word)
    )
    if stored is not None:
        return stored
    return viterbi_segment(source_model.lexicons["a"], word)


def prefix_target_tag(sentence: str, language_id: str, targets=("et", "fi")) -> str:
    """Prefix the target-language pseudo-token: "<to_XX> " + sentence."""
    if language_id not in targets:
        raise ContractError(
            "unknown target language %r (configured: %s)" % (language_id, ", ".join(targets))
        )
    return "<to_%s> %s" % (language_id, sentence)
