"""Deterministic corpus generator for the cogseg benchmark (stdlib only).

One seed describes one synthetic world: a target language a, its close
relative b, and a source language s. Words are stem + suffix(es); every
b word of a cognate pair is its a word rewritten morph by morph with the
regular correspondences d->t, y->ü, aa->a and l->ll, so the joint trainer
finds real, reusable edits. The generator writes

    corpus_a.txt, corpus_b.txt   training corpora (shuffled token lines)
    aligned.tsv                  word-aligner counts: true cognate pairs plus
                                 noise that extract-cognates must drop
                                 (punctuation, digits, counts below
                                 --min-count, one-to-many conflicts)
    counts_{a,b,s}.tsv           word<TAB>count tables for bpe-train
    stream_stored.txt            tagged lines of stored a-side words
    stream_unseen.txt            unseen a-like words, some with unseen chars
    stream_source.txt            source lines mixing target, source and new words
    stream_bpe.txt               mixed-language lines, some hyphenated words
    gold_{a,b,s}.tsv, gold_pairs.tsv   the generator's stem+suffix analyses

Identical (seed, size) arguments give identical bytes. `write_models` turns
the gold analyses into model files through cogseg's public API, so the
apply-side inputs never depend on the trainer. perfbench/run.py calls both
and leaves the files in .perfbench_work/<workload>-<seed>/in/.
"""

from __future__ import annotations

import os
import random

A_ONSETS = "ptkdmnlrsvhj"
A_VOWELS = ("a", "e", "i", "o", "u", "y", "a", "e", "i", "u", "aa", "ee")
A_CODAS = "nrsdt"
A_SUFFIXES = ("d", "le", "lt", "ga", "des", "st", "sse", "ks", "ni", "ta", "id",
              "del", "lla", "da", "l", "mine", "line", "lik", "sid", "te")
B_ONSETS = "ptkmnrsvhj"
B_VOWELS = ("a", "e", "i", "o", "u", "ü", "ä", "uo")
S_ONSETS = ("b", "c", "d", "f", "g", "h", "l", "m", "n", "p", "r", "s", "t",
            "w", "st", "tr", "gr", "pl")
S_VOWELS = ("a", "e", "i", "o", "u", "ea", "ou", "ai")
S_SUFFIXES = ("s", "ed", "ing", "er", "ly", "ness", "ion")
TAGS = ("<to_et>", "<to_fi>")
UNSEEN_CHARS = "qxzwöõ"
MIN_COUNT = 2  # extract-cognates default; noise rows sit just below it
ZIPF_TOP = 1000  # token count of the most frequent word


def to_b(morph: str) -> str:
    """Rewrite an a-side morph with the regular correspondences."""
    out = []
    i = 0
    while i < len(morph):
        if morph.startswith("aa", i):
            out.append("a")
            i += 2
            continue
        ch = morph[i]
        out.append({"d": "t", "y": "ü", "l": "ll"}.get(ch, ch))
        i += 1
    return "".join(out)


def _stem(rng, onsets, vowels, codas, syllables):
    parts = []
    for _ in range(syllables):
        parts.append(rng.choice(onsets) + rng.choice(vowels))
        if codas and rng.random() < 0.3:
            parts.append(rng.choice(codas))
    return "".join(parts)


def _a_stem(rng):
    while True:
        stem = _stem(rng, A_ONSETS, A_VOWELS, A_CODAS, 2)
        if "ll" not in stem and "aaa" not in stem:
            return stem


def _zipf(rank: int) -> int:
    """Token count of the word at a frequency rank (1-based)."""
    return max(1, ZIPF_TOP // rank)


class World:
    """Word types with gold analyses for languages a, b and s.

    The a and s sides hold `types` words each, so the sizes and the
    Zipf-shaped token counts are the same for every seed; the seed decides
    the words and their ranks.
    """

    def __init__(self, seed: int, types: int):
        rng = random.Random(seed)
        self.rng = rng
        # word -> (morphs, token count)
        self.a: dict[str, tuple[tuple[str, ...], int]] = {}
        self.b: dict[str, tuple[tuple[str, ...], int]] = {}
        self.s: dict[str, tuple[tuple[str, ...], int]] = {}
        self.pairs: list[tuple[str, str]] = []
        # b words of one shared stem: close forms for one-to-many noise.
        self.siblings: dict[str, list[str]] = {}
        # Eight stems in ten are shared (cognates), one is a-only, one b-only.
        # The kinds and the number of forms per stem follow fixed cycles, so
        # the inventory's shape does not vary with the seed.
        stem_index = 0
        while len(self.a) < types:
            kind = stem_index % 10
            if kind < 8:
                self._shared_stem(rng, stem_index)
            elif kind == 8:
                self._single_stem(rng, self.a, _a_stem(rng), A_SUFFIXES, stem_index)
            else:
                stem = _stem(rng, B_ONSETS, B_VOWELS, "nrst", rng.choice((2, 3)))
                self._single_stem(rng, self.b, stem, tuple(to_b(s) for s in A_SUFFIXES),
                                  stem_index)
            stem_index += 1
        while len(self.s) < types:
            stem = _stem(rng, S_ONSETS, S_VOWELS, "nrstk", rng.choice((1, 2, 2)))
            self._single_stem(rng, self.s, stem, S_SUFFIXES, stem_index)
            stem_index += 1
        # Zipf counts by a seeded ranking; every tenth a rank goes to an
        # a-only word, so the paired share of the profile is fixed too.
        paired = {word_a for word_a, _ in self.pairs}
        groups = ([w for w in self.a if w in paired], [w for w in self.a if w not in paired])
        for group in groups:
            rng.shuffle(group)
        order = []
        while groups[0] or groups[1]:
            pick = 1 if (len(order) % 10 == 9 and groups[1]) or not groups[0] else 0
            order.append(groups[pick].pop())
        words_s = list(self.s)
        rng.shuffle(words_s)
        for table, words in ((self.a, order), (self.s, words_s)):
            for rank, word in enumerate(words, 1):
                table[word] = (table[word][0], _zipf(rank))
        # A b word of a pair is as frequent as its a word; the b-only words
        # spread evenly over the ranks of the whole profile.
        partner = {word_b: word_a for word_a, word_b in self.pairs}
        single = [word_b for word_b in self.b if word_b not in partner]
        rng.shuffle(single)
        for k, word_b in enumerate(single):
            self.b[word_b] = (self.b[word_b][0], _zipf(1 + k * types // len(single)))
        for word_b, word_a in partner.items():
            self.b[word_b] = (self.b[word_b][0], self.a[word_a][1])

    @staticmethod
    def _forms(rng, stem, suffixes, stem_index):
        """The bare stem, 0-2 suffixed forms and, every fifth stem, a form
        with two suffixes."""
        forms = [(stem,)]
        for suffix in rng.sample(suffixes, stem_index % 3):
            forms.append((stem, suffix))
        if stem_index % 5 == 0:
            forms.append((stem, rng.choice(suffixes), rng.choice(suffixes)))
        return forms

    def _single_stem(self, rng, table, stem, suffixes, stem_index):
        for morphs in self._forms(rng, stem, suffixes, stem_index):
            table.setdefault("".join(morphs), (morphs, 0))

    def _shared_stem(self, rng, stem_index):
        stem = _a_stem(rng)
        group = []
        for morphs_a in self._forms(rng, stem, A_SUFFIXES, stem_index):
            morphs_b = tuple(to_b(m) for m in morphs_a)
            word_a, word_b = "".join(morphs_a), "".join(morphs_b)
            if word_a in self.a or word_b in self.b:
                continue
            self.a[word_a] = (morphs_a, 0)
            self.b[word_b] = (morphs_b, 0)
            self.pairs.append((word_a, word_b))
            group.append(word_b)
        for word_b in group:
            self.siblings[word_b] = group


def _corpus_lines(rng, table):
    tokens = [w for w, (_, count) in table.items() for _ in range(count)]
    rng.shuffle(tokens)
    lines = []
    i = 0
    while i < len(tokens):
        n = rng.randint(6, 18)
        lines.append(" ".join(tokens[i : i + n]))
        i += n
    return lines


def _sample_lines(rng, words, weights, tokens, tags=False):
    lines = []
    total = 0
    while total < tokens:
        n = rng.randint(6, 18)
        line = rng.choices(words, weights, k=n)
        if tags:
            line.insert(0, rng.choice(TAGS))
        lines.append(" ".join(line))
        total += len(line)
    return lines


def _unseen_words(rng, stems, known, n):
    """New a-like words: three in five inflect a known stem anew, the rest
    have a new stem; a fifth of all carry a character never trained on."""
    out = []
    while len(out) < n:
        stem = rng.choice(stems) if rng.random() < 0.6 else _a_stem(rng)
        word = stem + "".join(rng.sample(A_SUFFIXES, rng.randint(1, 2)))
        if rng.random() < 0.2:
            pos = rng.randrange(len(word) + 1)
            word = word[:pos] + rng.choice(UNSEEN_CHARS) + word[pos:]
        if word not in known:
            out.append(word)
    return out


def _aligned_rows(rng, world):
    """True pair counts plus rows extract-cognates must drop."""
    rows = []
    for word_a, word_b in world.pairs:
        rows.append((word_a, word_b, world.a[word_a][1] + world.b[word_b][1]))
    b_words = [wb for _, wb in world.pairs]
    true_count = {wa: c for wa, _, c in rows}
    true_count.update({wb: c for _, wb, c in rows})
    noise = []
    for word_a, word_b, _ in rows:
        roll = rng.random()
        if roll < 0.05:
            noise.append((word_a + rng.choice(",.!?"), word_b, 5))
        elif roll < 0.10:
            noise.append((word_a, word_b + str(rng.randint(0, 9)), 5))
        elif roll < 0.20:
            noise.append((word_a, rng.choice(b_words), MIN_COUNT - 1))
        elif roll < 0.40:
            # One-to-many: a close b form (same stem, other inflection) aligned
            # less often than both true pairings it competes with.
            other = rng.choice(world.siblings[word_b])
            count = min(true_count[word_a], true_count[other]) - 1
            if other != word_b and count >= MIN_COUNT:
                noise.append((word_a, other, count))
    rows.extend(noise)
    rng.shuffle(rows)
    return rows


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        for line in lines:
            stream.write(line + "\n")


def _write_gold(path, table):
    _write_lines(
        path, ["%s\t%d\t%s" % (w, c, " ".join(m)) for w, (m, c) in sorted(table.items())]
    )


def _bpe_table(rng, table, types):
    words = sorted(table)
    return {w: table[w] for w in sorted(rng.sample(words, min(types, len(words))))}


def generate(seed: int, out_dir, types: int, stored: int, unseen: int, source: int,
             bpe: int, bpe_types: int) -> dict:
    """Write one world's files to out_dir; returns its sizes.

    types sets the training corpora and gold models (word types of a and
    of s); stored, unseen, source and bpe the tokens of the four streams;
    bpe_types the words per language in the bpe-train count tables.
    """
    os.makedirs(out_dir, exist_ok=True)
    world = World(seed, types)
    rng = world.rng

    def path(name):
        return os.path.join(out_dir, name)

    _write_lines(path("corpus_a.txt"), _corpus_lines(rng, world.a))
    _write_lines(path("corpus_b.txt"), _corpus_lines(rng, world.b))
    aligned = _aligned_rows(rng, world)
    _write_lines(path("aligned.tsv"), ["%s\t%s\t%d" % row for row in aligned])
    for lang, table in (("a", world.a), ("b", world.b), ("s", world.s)):
        _write_gold(path("gold_%s.tsv" % lang), table)
    _write_lines(path("gold_pairs.tsv"), ["%s\t%s" % p for p in world.pairs])

    words_a = sorted(world.a)
    weights_a = [world.a[w][1] for w in words_a]
    _write_lines(path("stream_stored.txt"),
                 _sample_lines(rng, words_a, weights_a, stored, tags=True))

    known = set(world.a) | set(world.b) | set(world.s)
    stems = sorted({morphs[0] for morphs, _ in world.a.values()})
    new_words = _unseen_words(rng, stems, known, max(10, unseen // 2))
    _write_lines(path("stream_unseen.txt"), _sample_lines(rng, new_words, None, unseen))

    # Source text: mostly source words, some target words (which reuse the
    # target analyses), some unseen words (Viterbi under the source model).
    words_s = sorted(world.s)
    words_t = words_a + sorted(world.b)
    new = new_words[: len(new_words) // 2]
    mixed = words_s + words_t + new
    weights = [5.0 / len(words_s)] * len(words_s) + [3.0 / len(words_t)] * len(words_t) \
        + [2.0 / len(new)] * len(new)
    _write_lines(path("stream_source.txt"), _sample_lines(rng, mixed, weights, source))

    hyphenated = ["%s-%s" % (rng.choice(words_s), rng.choice(words_a)) for _ in range(100)]
    tables = {
        "a": _bpe_table(rng, world.a, bpe_types),
        "b": _bpe_table(rng, world.b, bpe_types),
        "s": _bpe_table(rng, world.s, bpe_types),
    }
    tables["s"].update((w, ((w,), rng.randint(1, 3))) for w in hyphenated[:50])
    for lang, table in tables.items():
        _write_lines(path("counts_%s.tsv" % lang),
                     ["%s\t%d" % (w, c) for w, (_, c) in sorted(table.items())])
    bpe_words = mixed + hyphenated
    bpe_weights = weights + [1.0 / len(hyphenated)] * len(hyphenated)
    _write_lines(path("stream_bpe.txt"),
                 _sample_lines(rng, bpe_words, bpe_weights, bpe))
    return {
        "types_a": len(world.a),
        "types_b": len(world.b),
        "types_s": len(world.s),
        "tokens_a": sum(c for _, c in world.a.values()),
        "tokens_b": sum(c for _, c in world.b.values()),
        "gold_pairs": len(world.pairs),
        "aligned_rows": len(aligned),
    }


def _read_gold(path):
    rows = []
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            word, count, morphs = line.rstrip("\n").split("\t")
            rows.append((word, int(count), tuple(morphs.split(" "))))
    return rows


def write_models(out_dir) -> None:
    """Build the gold model files from the gold analyses (needs cogseg).

    target_joint.model  a and b analyses with every gold pair registered
    target_mono.model   a analyses only, no pairs
    source.model        s analyses, as a monolingual model
    """
    from cogseg.model import Analysis, CognateModel, CognatePair
    from cogseg.serialization import save_model

    def path(name):
        return os.path.join(out_dir, name)

    gold = {lang: _read_gold(path("gold_%s.tsv" % lang)) for lang in "abs"}
    counts = {lang: {w: c for w, c, _ in rows} for lang, rows in gold.items()}

    def build(sides, pairs):
        model = CognateModel()
        for word_a, word_b in pairs:
            model.register_pair(CognatePair(word_a, word_b, counts["a"][word_a],
                                            counts["b"][word_b]))
        for model_lang, lang in sides:
            for word, count, morphs in gold[lang]:
                model.add_analysis(Analysis(word, morphs, count), model_lang)
        return model

    with open(path("gold_pairs.tsv"), encoding="utf-8") as stream:
        pairs = [tuple(line.rstrip("\n").split("\t")) for line in stream]
    save_model(build((("a", "a"), ("b", "b")), pairs), path("target_joint.model"))
    save_model(build((("a", "a"),), ()), path("target_mono.model"))
    save_model(build((("a", "s"),), ()), path("source.model"))
