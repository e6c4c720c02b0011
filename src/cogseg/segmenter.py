"""Applying trained models to text: Viterbi segmentation, corpus streaming,
source-side override, and target-language tagging.

Corpus segmentation is lookup-first: words seen in training reuse their
stored analyses, unseen words are segmented with the Viterbi algorithm under
the unigram morph distribution. Out-of-lexicon single characters receive an
additive smoothing penalty so that every word is segmentable. Viterbi
returns a Segmentation, which holds only the morphs: an unseen word has no
corpus count, so it gets no Analysis. segment_corpus and segment_source
share one rule per token: the stored analysis from one mapping, or else
Viterbi under one lexicon.
"""

from __future__ import annotations

import collections
import math
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import CogsegError, ContractError, holds_whitespace
from .model import CognateModel, CountLexicon

# Pseudo-tokens of this shape select the target language in a multilingual
# system; they pass through segmentation unsplit.
TAG_PATTERN = re.compile(r"^<to_[0-9A-Za-z]+>$")

DEFAULT_JOINER = "@@"
DEFAULT_TARGETS = ("et", "fi")

# Extra cost in nats (on top of ln N) of emitting an out-of-lexicon single
# character, chosen large so known morphs always win when available.
UNKNOWN_CHAR_PENALTY = 20.0

# Distinct tokens the render memo of one segment_lines call holds.
MEMO_SIZE = 1 << 16


@dataclass(frozen=True)
class SegmenterConfig:
    """Output conventions: joiner marks non-final subwords of a token."""

    joiner: str = DEFAULT_JOINER

    def __post_init__(self):
        if not self.joiner or holds_whitespace(self.joiner):
            raise ContractError("joiner must be a non-empty token-safe string")


class Segmentation(NamedTuple):
    """Viterbi's segmentation of a word: its morphs, which concatenate to
    the word. Unlike an Analysis it carries no corpus count."""

    morphs: tuple[str, ...]


def viterbi_segment(lexicon: CountLexicon, word: str) -> Segmentation:
    """Most probable segmentation of word under the lexicon's unigram model.

    A forward pass over the lexicon's trie: from each start position the
    walk follows word down the trie, so only the morphs that occur in word
    are looked at. A morph costs ln N - ln count, the step the trie stores;
    the single character at a start position is always a candidate, at
    ln N + UNKNOWN_CHAR_PENALTY when it is not a morph. Ties are broken
    deterministically: fewest morphs first, then the leftmost-longest morph
    sequence. An empty word, or one holding whitespace, raises
    ContractError.
    """
    if not word:
        raise ContractError("cannot segment an empty word")
    if holds_whitespace(word):
        raise ContractError("word %r contains whitespace" % word)
    trie = lexicon.trie()
    log_tokens = math.log(lexicon.tokens) if lexicon.tokens > 0 else 0.0
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
        step = node.get("", unknown)
        i = j + 1
        while True:
            if step is not None:
                c = base + step
                if c < cost[i] or c == cost[i] and (
                    k < size[i]
                    or k == size[i] and _lengths(back, j) + [j - i] < _lengths(back, i)
                ):
                    cost[i] = c
                    size[i] = k
                    back[i] = j
            if i == n:
                break
            node = node.get(word[i])
            if node is None:
                break
            step = node.get("")
            i += 1
    morphs: list[str] = []
    pos = n
    while pos > 0:
        prev = back[pos]
        morphs.append(word[prev:pos])
        pos = prev
    morphs.reverse()
    return Segmentation(tuple(morphs))


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

    Rejects a rendering that unjoin could not undo: several morphs of which
    one holds the joiner, or a single morph (a token written whole) that
    ends with it, which unjoin would join to the next token. Neither the
    joiner nor one of several morphs may hold whitespace (SegmenterConfig,
    Analysis and viterbi_segment reject it), so the joiner occurs in the
    space-joined morphs exactly when it occurs inside one of them.
    """
    if len(morphs) == 1:
        if morphs[0].endswith(joiner):
            raise ContractError("token %r ends with the joiner %r" % (morphs[0], joiner))
        return morphs[0]
    if joiner in " ".join(morphs):
        raise ContractError("joiner %r occurs inside a morph of %r" % (joiner, morphs))
    return (joiner + " ").join(morphs)


def map_lines(lines, transform):
    """The line loop of every stdin command; yields transform(text) plus
    the line's own terminator for each line, so an unterminated last line
    stays unterminated. An error at line N stops the stream after lines
    1..N-1; a ContractError of transform, and I/O and decoding failures,
    are reported with the offending line number. A text stream decodes a
    chunk ahead, so a line that is not UTF-8 stops the stream before the
    earlier lines of its chunk too.
    """
    lineno = 0
    try:
        for lineno, line in enumerate(lines, 1):
            text = line.rstrip("\r\n")
            yield transform(text) + line[len(text):]
    except ContractError as exc:
        raise ContractError("line %d: %s" % (lineno, exc)) from exc
    except (OSError, UnicodeError) as exc:
        if isinstance(exc, UnicodeDecodeError):  # text streams decode a chunk ahead
            lineno += exc.object.count(b"\n", 0, exc.start)
        raise CogsegError("line %d: %s" % (lineno + 1, exc)) from exc


class _RenderMemo(collections.OrderedDict):
    """A token's rendering, keyed by the token. A hit is a plain dict
    subscript and runs no Python code; a miss renders the token in
    __missing__ and stores it, first dropping the oldest entry when the
    memo holds MEMO_SIZE tokens (first in, first out: a hit does not move
    an entry)."""

    def __init__(self, token_morphs, joiner: str):
        super().__init__()
        self.token_morphs = token_morphs
        self.joiner = joiner

    def __missing__(self, token):
        # Every tag starts with "<"; testing that first keeps the regex off
        # the path of almost every token.
        if not token or token[0] == "<" and TAG_PATTERN.match(token) or holds_whitespace(token):
            morphs = (token,)
        else:
            morphs = self.token_morphs(token)
        rendered = join_morphs(morphs, self.joiner)
        if len(self) >= MEMO_SIZE:
            self.popitem(last=False)
        self[token] = rendered
        return rendered


def segment_lines(lines, token_morphs, config: SegmenterConfig):
    """The token loop of every apply command, run by map_lines; yields
    output lines.

    Lines are split on single spaces. Empty tokens, target tags and tokens
    holding other whitespace pass through unsplit; any other token becomes
    token_morphs(token) rendered with the joiner. A token written whole (a
    single morph, or one that passes through) that ends with the joiner
    raises ContractError, as a morph holding the joiner does: unjoin would
    delete the space after it. A token's rendering depends on the token
    alone, so each call keeps one memo of up to MEMO_SIZE (2^16) distinct
    tokens, dropping the oldest first: a token is rendered again only after
    it has been dropped, and the output never depends on the memo. Each
    line keeps its terminator, so unjoin restores the input byte for byte.
    """
    render = _RenderMemo(token_morphs, config.joiner).__getitem__
    return map_lines(lines, lambda text: " ".join(map(render, text.split(" "))))


def _stored_or_viterbi(analyses, lexicon):
    """The morphs of a token: its analysis in analyses, or else Viterbi
    under lexicon. viterbi_segment is looked up in this module at each
    call, so a hook that replaces the module attribute sees every call."""
    return lambda token: (analyses.get(token) or viterbi_segment(lexicon, token)).morphs


def segment_corpus(
    model: CognateModel,
    lines,
    language: str,
    config: SegmenterConfig = SegmenterConfig(),
):
    """Segment a stream of whitespace-tokenized lines with segment_lines.

    Words seen in training reuse their stored analyses; other words are
    segmented by Viterbi under the language's lexicon. A language the model
    does not hold raises ContractError.
    """
    if language not in model.analyses:
        raise ContractError(
            "unknown language %r (the model holds: %s)" % (language, ", ".join(model.analyses))
        )
    return segment_lines(
        lines, _stored_or_viterbi(model.analyses[language], model.lexicons[language]), config
    )


def segment_source(
    source_model: CognateModel,
    cognate_model: CognateModel,
    lines,
    config: SegmenterConfig = SegmenterConfig(),
):
    """Segment a stream of source-language lines with segment_lines,
    keeping the source side consistent with the target side.

    A token takes the first stored analysis found in the cognate model's
    language a, then its language b, then the source model (language a);
    the precedence is built once, as one mapping over the three tables.
    Any other token is segmented by Viterbi under the source model's
    lexicon.
    """
    stored = {
        **source_model.analyses["a"],
        **cognate_model.analyses["b"],
        **cognate_model.analyses["a"],
    }
    return segment_lines(lines, _stored_or_viterbi(stored, source_model.lexicons["a"]), config)


def unjoin(line: str, joiner: str = DEFAULT_JOINER) -> str:
    """Undo segment markers on one line, restoring the original tokens."""
    return line.replace(joiner + " ", "")


def target_tag(language_id: str, targets=DEFAULT_TARGETS) -> str:
    """The target-language pseudo-token "<to_XX>" of a configured language.
    An id whose tag does not match TAG_PATTERN, which the apply commands
    would split like any other token, raises ContractError."""
    if language_id not in targets:
        raise ContractError(
            "unknown target language %r (configured: %s)" % (language_id, ", ".join(targets))
        )
    tag = "<to_%s>" % language_id
    if not TAG_PATTERN.match(tag):
        raise ContractError("target language id %r is not ASCII letters and digits" % language_id)
    return tag


def prefix_target_tag(sentence: str, language_id: str, targets=DEFAULT_TARGETS) -> str:
    """Prefix the target-language pseudo-token: "<to_XX> " + sentence."""
    return target_tag(language_id, targets) + " " + sentence
