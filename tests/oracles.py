"""Independent reference implementations used as test oracles.

These deliberately avoid the package's own code paths wherever they verify
one: the distance and alignment oracles are naive memoized recursions, the
cost oracles evaluate the stated formulas in high-precision arithmetic, the
reference lexicon keeps the plain n*ln(n) float arithmetic the cached sums
must reproduce bit for bit, and the search oracle enumerates every
admissible configuration; the unbounded search scores every split
combination of a cognate pair. The token-loop oracle renders every token on
its own, with no memo, and the Viterbi oracle pulls every slice of the word
from the lexicon's counts. The fixpoint span extension repeats its growing
and merging until nothing changes. The rebuilt lexicon is the package's own CountLexicon
fed each form once, the reference for a history of adds and removes.
"""

import collections
import functools
import itertools
import math
import re

import mpmath

# tails calls this on every tail, so it is imported once, not in the helper.
from cogseg.edits import edit_forms

mpmath.mp.dps = 50

FORM_END = "\x00"


def brute_levenshtein(a, b):
    """Edit distance by naive recursion with memoization."""

    @functools.lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        diag = rec(i + 1, j + 1) + (0 if a[i] == b[j] else 1)
        return min(diag, rec(i + 1, j) + 1, rec(i, j + 1) + 1)

    result = rec(0, 0)
    rec.cache_clear()
    return result



# Operation kinds in preference order, best first.
_ALIGN_OPS = ("match", "substitute", "delete", "insert")


def brute_alignment(a, b):
    """The alignment of a with b that minimizes (cost, runs, preference
    sequence), as (kind, source, target, source_pos, target_pos) tuples.

    cost counts non-match operations and runs the maximal blocks of them;
    remaining ties go to the lexicographically smallest sequence of
    operation ranks, match < substitute < delete < insert. A match needs
    equal characters and a substitute unequal ones.
    """

    @functools.lru_cache(maxsize=None)
    def rec(i, j, after_non_match):
        if i == len(a) and j == len(b):
            return (0, 0, ())
        options = []
        for rank, kind in enumerate(_ALIGN_OPS):
            di = kind != "insert"
            dj = kind != "delete"
            if i + di > len(a) or j + dj > len(b):
                continue
            if kind in ("match", "substitute") and (a[i] == b[j]) != (kind == "match"):
                continue
            if kind == "match":
                cost, runs, seq = rec(i + 1, j + 1, False)
            else:
                cost, runs, seq = rec(i + di, j + dj, True)
                cost += 1
                runs += not after_non_match
            options.append((cost, runs, (rank,) + seq))
        return min(options)

    ops = []
    i = j = 0
    for rank in rec(0, 0, False)[2]:
        kind = _ALIGN_OPS[rank]
        source = a[i] if kind != "insert" else None
        target = b[j] if kind != "delete" else None
        ops.append((kind, source, target, i, j))
        i += source is not None
        j += target is not None
    rec.cache_clear()
    return ops


class ReferenceCountLexicon:
    """Counts and cached sums with the plain arithmetic: each n*ln(n) term is
    computed where it is needed and the sums are updated in place, old term
    out before new term in, character by character and then the end marker."""

    def __init__(self):
        self.counts = {}
        self.tokens = 0
        self.log_token_sum = 0.0
        self.char_counts = {}
        self.char_tokens = 0
        self.log_char_sum = 0.0

    def add(self, form, delta):
        old = self.counts.get(form, 0)
        new = old + delta
        if new == 0:
            if old:
                del self.counts[form]
        else:
            self.counts[form] = new
        self.tokens += delta
        if old > 1:
            self.log_token_sum -= old * math.log(old)
        if new > 1:
            self.log_token_sum += new * math.log(new)
        if old == 0 and new > 0:
            self._add_form_chars(form, 1)
        elif old > 0 and new == 0:
            self._add_form_chars(form, -1)

    def _add_form_chars(self, form, sign):
        for ch in itertools.chain(form, (FORM_END,)):
            old = self.char_counts.get(ch, 0)
            new = old + sign
            if new == 0:
                del self.char_counts[ch]
            else:
                self.char_counts[ch] = new
            if old > 1:
                self.log_char_sum -= old * math.log(old)
            if new > 1:
                self.log_char_sum += new * math.log(new)
        self.char_tokens += sign * (len(form) + 1)


def rebuilt_lexicon(lexicon):
    """A fresh CountLexicon with lexicon's counts, each form added once, so
    its statistics are recomputed rather than carried over."""
    from cogseg.model import CountLexicon

    fresh = CountLexicon()
    for form, count in lexicon.counts.items():
        fresh.add(form, count)
    return fresh


def exact_corpus_cost(counts):
    """N*ln(N) - sum(c*ln(c)) in 50-digit arithmetic."""
    n = sum(counts.values())
    if n == 0:
        return 0.0
    total = mpmath.mpf(n) * mpmath.log(n)
    for c in counts.values():
        total -= mpmath.mpf(c) * mpmath.log(c)
    return float(total)


def exact_lexicon_cost(counts):
    """ln C(N-1, M-1) plus the maximum-likelihood character code."""
    m = len(counts)
    if m == 0:
        return 0.0
    n = sum(counts.values())
    freq = mpmath.log(mpmath.binomial(n - 1, m - 1))
    chars = {}
    for form in counts:
        for ch in form:
            chars[ch] = chars.get(ch, 0) + 1
        chars[FORM_END] = chars.get(FORM_END, 0) + 1
    t = sum(chars.values())
    form_cost = mpmath.mpf(t) * mpmath.log(t)
    for c in chars.values():
        form_cost -= mpmath.mpf(c) * mpmath.log(c)
    return float(freq + form_cost)


def exact_total_cost(counts_a, counts_b, counts_e, alpha, edit_weight, edit_mode="full"):
    cost = (
        exact_lexicon_cost(counts_a)
        + exact_lexicon_cost(counts_b)
        + alpha * (exact_corpus_cost(counts_a) + exact_corpus_cost(counts_b))
    )
    if edit_mode == "full":
        cost += edit_weight * (
            exact_lexicon_cost(counts_e) + alpha * exact_corpus_cost(counts_e)
        )
    return cost


@functools.lru_cache(maxsize=None)
def segmentations(word):
    """All 2**(len-1) segmentations of a word."""
    out = []
    n = len(word)
    for mask in range(1 << max(0, n - 1)):
        parts = []
        start = 0
        for i in range(1, n):
            if (mask >> (i - 1)) & 1:
                parts.append(word[start:i])
                start = i
        parts.append(word[start:])
        out.append(tuple(parts))
    return tuple(out)


def exhaustive_minimum(corpus_a, corpus_b, pairs, alpha, edit_weight, edit_mode="full"):
    """Global cost minimum over all joint segmentations.

    Pairs are constrained to equal morph counts; edit tokens are counted
    once per pair. Non-pair words of the two languages are enumerated
    independently per pair configuration, which is exact because they only
    contribute to their own language's cost terms.
    """
    from cogseg.edits import extract_edits
    from cogseg.model import CountLexicon

    lex_a, lex_b, lex_e = CountLexicon(), CountLexicon(), CountLexicon()
    in_pair_a = {wa for wa, _ in pairs}
    in_pair_b = {wb for _, wb in pairs}
    free_a = [(w, c) for w, c in corpus_a.items() if w not in in_pair_a]
    free_b = [(w, c) for w, c in corpus_b.items() if w not in in_pair_b]

    pair_options = []
    for wa, wb in pairs:
        opts = []
        for sa in segmentations(wa):
            for sb in segmentations(wb):
                if len(sa) != len(sb):
                    continue
                forms = tuple(
                    e.form
                    for ma, mb in zip(sa, sb)
                    for e in extract_edits(ma, mb).edits
                )
                opts.append((sa, sb, forms))
        pair_options.append((corpus_a[wa], corpus_b[wb], opts))

    def language_minimum(lex, free, idx):
        if idx == len(free):
            return lex.lexicon_cost() + alpha * lex.corpus_cost()
        word, count = free[idx]
        best = math.inf
        for seg in segmentations(word):
            for m in seg:
                lex.add(m, count)
            value = language_minimum(lex, free, idx + 1)
            for m in seg:
                lex.add(m, -count)
            if value < best:
                best = value
        return best

    def pair_minimum(idx):
        if idx == len(pair_options):
            value = language_minimum(lex_a, free_a, 0) + language_minimum(lex_b, free_b, 0)
            if edit_mode == "full":
                value += edit_weight * (
                    lex_e.lexicon_cost() + alpha * lex_e.corpus_cost()
                )
            return value
        count_a, count_b, opts = pair_options[idx]
        best = math.inf
        for sa, sb, forms in opts:
            for m in sa:
                lex_a.add(m, count_a)
            for m in sb:
                lex_b.add(m, count_b)
            for f in forms:
                lex_e.add(f, 1)
            value = pair_minimum(idx + 1)
            for m in sa:
                lex_a.add(m, -count_a)
            for m in sb:
                lex_b.add(m, -count_b)
            for f in forms:
                lex_e.add(f, -1)
            if value < best:
                best = value
        return best

    return pair_minimum(0)


def reference_bpe_apply(merges, word, hyphens="-"):
    """Rank-priority BPE application: merge the best-ranked pair present,
    all occurrences, and repeat, as subword-nmt does.

    The rank dict keeps the *last* index of a duplicated pair. This is not
    the table-order rule of apply_bpe: the two agree on the tables train_bpe
    writes, not on hand-made ones (merges a a, a aa, b b, b aaa, aa a on
    "baaa" give b|aaa in table order and baaa here).
    """
    from cogseg.bpe import WORD_END

    ranks = {pair: i for i, pair in enumerate(merges)}
    fragments = []
    current = []
    for ch in word:
        if ch in hyphens:
            if current:
                fragments.append(current)
            fragments.append([ch])
            current = []
        else:
            current.append(ch)
    if current:
        fragments.append(current)
    if fragments and len(fragments[-1]) == 1 and fragments[-1][0] in hyphens:
        fragments.append([WORD_END])
    elif fragments:
        fragments[-1].append(WORD_END)
    else:
        fragments.append([WORD_END])

    out = []
    for frag in fragments:
        if len(frag) == 1 and frag[0] in hyphens:
            out.append(frag[0])
            continue
        symbols = list(frag)
        while len(symbols) > 1:
            pairs = [(symbols[i], symbols[i + 1]) for i in range(len(symbols) - 1)]
            ranked = [(ranks[p], p) for p in pairs if p in ranks]
            if not ranked:
                break
            _, best = min(ranked)
            merged = []
            i = 0
            while i < len(symbols):
                if (
                    i + 1 < len(symbols)
                    and (symbols[i], symbols[i + 1]) == best
                ):
                    merged.append(symbols[i] + symbols[i + 1])
                    i += 2
                else:
                    merged.append(symbols[i])
                    i += 1
            symbols = merged
        out.extend(symbols)
    if out and out[-1] == WORD_END:
        out.pop()
    elif out and out[-1].endswith(WORD_END):
        out[-1] = out[-1][: -len(WORD_END)]
    return out


def _merge_span(symbols: tuple[str, ...], left: str, right: str):
    """Merge every occurrence of the pair (left, right) in symbols, left to
    right; one that overlaps the occurrence merged before it (the second
    pair of a a a) is not merged.

    Returns the merged tuple and the indices in symbols of the first and
    the last merged occurrence, or (symbols, -1, -1) when none is merged.
    The merged tuple equals symbols before the first occurrence and after
    the last one.
    """
    joined = (left + right,)
    merged: tuple[str, ...] = ()
    first = -1
    start = 0  # the first symbol not yet copied into merged
    i = -1
    for _ in range(symbols.count(left)):
        i = symbols.index(left, i + 1)
        if start <= i < len(symbols) - 1 and symbols[i + 1] == right:
            if first < 0:
                first = i
            merged += symbols[start:i] + joined
            start = i + 2
    if first < 0:
        return symbols, -1, -1
    return merged + symbols[start:], first, start - 2


def _merge_fragment(symbols: tuple[str, ...], left: str, right: str) -> tuple[str, ...]:
    """symbols with every occurrence of (left, right) merged (_merge_span)."""
    return _merge_span(symbols, left, right)[0]


def recounting_bpe_train(counts, vocab_size):
    """The recounting trainer: every merge counts every pair of the corpus
    again and takes the least (-count, pair)."""
    from cogseg.bpe import HYPHENS, MergeTable, _fragments
    from cogseg.errors import ContractError

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
        pair_counts = collections.Counter()
        for frags, count in words:
            for frag in frags:
                for i in range(len(frag) - 1):
                    pair_counts[(frag[i], frag[i + 1])] += count
        if not pair_counts:
            table.truncated = True
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        table.merges.append(best)
        left, right = best
        words = [
            ([_merge_fragment(frag, left, right) for frag in frags], count)
            for frags, count in words
        ]
    return table


def table_order_bpe_apply(merges, word):
    """Table-order BPE application: walk the whole merge list for each
    fragment, merging every occurrence of each pair in turn."""
    from cogseg.bpe import WORD_END, _fragments

    if not word:
        return []
    out = []
    for symbols in _fragments(word):
        for left, right in merges:
            symbols = _merge_fragment(symbols, left, right)
        out.extend(symbols)
    if out and out[-1] == WORD_END:
        out.pop()
    elif out and out[-1].endswith(WORD_END):
        out[-1] = out[-1][: -len(WORD_END)]
    return out


_TAG = re.compile(r"^<to_[0-9A-Za-z]+>$")


def per_token_segment_lines(lines, token_morphs, joiner="@@"):
    """The apply token loop without a memo: every token is tested and
    rendered where it occurs. Lines split on single spaces; empty tokens,
    target tags and tokens holding whitespace other than the space pass
    through; each line keeps its terminator."""
    for line in lines:
        text = line.rstrip("\r\n")
        spaced = not text.isprintable()
        out = []
        for token in text.split(" "):
            if not token or _TAG.match(token) or (
                spaced and any(ch.isspace() for ch in token)
            ):
                out.append(token)
            else:
                morphs = list(token_morphs(token))
                out.append(" ".join([m + joiner for m in morphs[:-1]] + morphs[-1:]))
        yield " ".join(out) + line[len(text):]


def pull_viterbi_segment(lexicon, word):
    """Morphs of the cheapest segmentation of word by a pull loop: each end
    position i tries every slice word[j:i] in increasing j against the
    lexicon's counts. A morph costs ln N - ln count; a single character not
    in the lexicon costs ln N + 20. Ties go to fewer morphs, then to the
    lexicographically smallest sequence of negated lengths (leftmost-longest)."""
    counts = lexicon.counts
    log_tokens = math.log(lexicon.tokens) if lexicon.tokens > 0 else 0.0
    unknown = log_tokens + 20.0
    n = len(word)
    # best[i]: (cost, morph count, negated morph lengths, predecessor) over word[:i]
    best = [None] * (n + 1)
    best[0] = (0.0, 0, (), -1)
    for i in range(1, n + 1):
        for j in range(0, i):
            base = best[j]
            count = counts.get(word[j:i])
            if count is not None:
                step = log_tokens - math.log(count)
            elif i - j == 1:
                step = unknown
            else:
                continue
            cand = (base[0] + step, base[1] + 1, base[2] + (j - i,), j)
            if best[i] is None or cand[:3] < best[i][:3]:
                best[i] = cand
    morphs = []
    pos = n
    while pos > 0:
        prev = best[pos][3]
        morphs.append(word[prev:pos])
        pos = prev
    return tuple(reversed(morphs))


def put_and_take_back_search(model, unit, on_score=None):
    """Recursive splitting of a detached unit of (language, word) entries,
    scoring each candidate by adding its morphs and edit forms to the
    lexicons, reading model.total_cost() and taking them back out.

    The same greedy recursion and tie rule as trainer._search (staying whole
    is scored first; a split replaces the best on <=), so it is the
    reference for the search's read-only scorer. Leaves the chosen morphs
    and edit forms counted and returns the new analyses. on_score, if
    given, is called as on_score(parts, forms, cost) after each candidate
    has been taken back out: parts are its (morph_a, morph_b) pairs
    (morph_b None for a word), forms its edit forms, cost the total cost
    read with it counted in.
    """
    from cogseg.model import Analysis

    records = [model.analyses[language][word] for language, word in unit]
    add_a = model.lexicons[unit[0][0]].add
    count_a = records[0].count
    if len(unit) > 1:
        add_b = model.lexicons[unit[1][0]].add
        count_b = records[1].count
        add_edit = model.edit_lexicon.add
    morphs_a, morphs_b = [], []

    def put(parts, forms, sign):
        for a, b in parts:
            add_a(a, sign * count_a)
            if b is not None:
                add_b(b, sign * count_b)
        for form in forms:
            add_edit(form, sign)

    def scored(parts, forms):
        put(parts, forms, 1)
        cost = model.total_cost()
        put(parts, forms, -1)
        if on_score is not None:
            on_score(parts, forms, cost)
        return cost

    def rec(a, b):
        forms = () if b is None else edit_forms(a, b)
        split = None
        if len(a) > 1 and (b is None or len(b) > 1):
            best = scored([(a, b)], forms)
            for i in range(1, len(a)):
                for j in [None] if b is None else range(1, len(b)):
                    parts = [(a[:i], None), (a[i:], None)]
                    split_forms = ()
                    if b is not None:
                        parts = [(a[:i], b[:j]), (a[i:], b[j:])]
                        split_forms = edit_forms(a[:i], b[:j]) + edit_forms(a[i:], b[j:])
                    cost = scored(parts, split_forms)
                    if cost <= best:
                        best, split = cost, (i, j)
        if split is None:
            put([(a, b)], forms, 1)
            morphs_a.append(a)
            morphs_b.append(b)
            return
        i, j = split
        head = (a[:i], None if b is None else b[:j])
        tail = (a[i:], None if b is None else b[j:])
        tail_forms = () if b is None else edit_forms(*tail)
        put([tail], tail_forms, 1)
        rec(*head)
        put([tail], tail_forms, -1)
        rec(*tail)

    rec(unit[0][1], unit[1][1] if len(unit) > 1 else None)
    return [Analysis(r.word, tuple(m), r.count) for r, m in zip(records, (morphs_a, morphs_b))]


def tails(a, b):
    """A function of (i, j) giving the forms of (a[i:], b[j:])."""
    return lambda i, j: edit_forms(a[i:], b[j:])


def score_every_pair_search(model, unit):
    """trainer._search as it was before the split search bounded its pair
    candidates: every split combination (i, j) of a cognate pair is scored,
    in the full edit mode with its edit forms looked up and scored. The
    same scorer, recursion, writes and tie rule as trainer._search, so the
    two must choose the same analyses and leave the same counts, exactly.
    Leaves the chosen morphs and edit forms counted and returns the new
    analyses."""
    from cogseg.model import EDIT_MODE_FULL, Analysis

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
            tail = tails(a, b)
            if len(a) > 1 and len(b) > 1:
                best = weigh(
                    score_a((a,), count_a),
                    score_b((b,), count_b),
                    score_e(tail(0, 0), 1) if full else None,
                )
                costs_b = [score_b((b[:j], b[j:]), count_b) for j in range(1, len(b))]
                for i in range(1, len(a)):
                    a1 = a[:i]
                    costs_a = score_a((a1, a[i:]), count_a)
                    for j, cost_b in enumerate(costs_b, 1):
                        costs_e = None
                        if full:
                            costs_e = score_e(edit_forms(a1, b[:j]) + tail(i, j), 1)
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


def fixpoint_extend_and_remerge(a, b, spans):
    """edits._extend_and_remerge as it was before it ran one pass: the
    growing of one-sided spans and the merging of adjacent ones repeat
    until a whole round changes nothing. Spans are [a0, a1, b0, b1) lists
    and are updated in place."""
    changed = True
    while changed:
        changed = False
        for k, span in enumerate(spans):
            a0, a1, b0, b1 = span
            lhs_empty = a0 == a1
            rhs_empty = b0 == b1
            if lhs_empty == rhs_empty:
                continue
            nonempty = a[a0:a1] if rhs_empty else b[b0:b1]
            prev = spans[k - 1] if k > 0 else None
            nxt = spans[k + 1] if k + 1 < len(spans) else None
            can_left = (
                a0 > 0
                and b0 > 0
                and a[a0 - 1] == b[b0 - 1]
                and a[a0 - 1] in nonempty
                and (prev is None or (prev[1] < a0 and prev[3] < b0))
            )
            if can_left:
                span[0] = a0 - 1
                span[2] = b0 - 1
                changed = True
                continue
            can_right = (
                a1 < len(a)
                and b1 < len(b)
                and a[a1] == b[b1]
                and a[a1] in nonempty
                and (nxt is None or (a1 < nxt[0] and b1 < nxt[2]))
            )
            if can_right:
                span[1] = a1 + 1
                span[3] = b1 + 1
                changed = True
        merged = []
        for span in spans:
            if merged and merged[-1][1] == span[0] and merged[-1][3] == span[2]:
                merged[-1][1] = span[1]
                merged[-1][3] = span[3]
                changed = True
            else:
                merged.append(span)
        spans = merged
    return spans
