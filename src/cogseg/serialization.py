"""Deterministic text serialization of trained models.

A model file is a versioned, sectioned UTF-8 document with TSV rows inside
the sections. Sections are sorted, so saving is byte-deterministic and
save -> load -> save is the identity on bytes. Loading revalidates all model
invariants, and the first check that fails raises FormatError at its
path:line. The checks run in this order:

1. the format line, then the header fields;
2. the section headers, found in one scan of the text;
3. each [PAIRS] row: its fields, its two counts, and its registration;
4. each [ANALYSES-A], then [ANALYSES-B] row: its fields, its count, and
   the analysis (its morphs concatenate to its word, which is listed once);
5. the recount (CognateModel.recount, the bulk recount trainer.initialize
   also runs): checked_pairs checks each pair at its [PAIRS] row (both
   words analyzed, with the pair's counts and equal morph counts), then
   the tally fails at an edit that Edit rejects, with no line;
6. each [LEXICON-A], [LEXICON-B] and [EDITS] row: its fields, a repeated
   form, its count, and agreement with the recount; then a missing form.

It is one pass over the rows. Each row is split once and unescaped only if
it holds a backslash. Each count field takes an ASCII-digit test inline,
and parse_positive only when it fails. Each pair is looked up once, by the
recount's checked_pairs. On the benchmark's seed-1 gold joint model (3,057
pairs, 6,802 analyses), a cold load in a fresh process takes about 41 ms on
a 2-vCPU VM, and about a fifth of that aligns the 1,372 distinct morph
pairs for the tally: the [EDITS] check needs it.
"""

from __future__ import annotations

import re

from .edits import EDIT_BOUNDARY, Edit
from .errors import (
    CogsegError, FormatError, PairError, holds_whitespace, open_text, parse_float, parse_int,
    parse_positive,
)
from .model import Analysis, CognateModel, CognatePair

FORMAT_NAME = "cogseg-model"
FORMAT_VERSION = 1

_SECTIONS = (
    "LEXICON-A",
    "LEXICON-B",
    "EDITS",
    "PAIRS",
    "ANALYSES-A",
    "ANALYSES-B",
)

# Header fields in file order, each with the parser of its value. Each is the
# str() of the model attribute of the same name, with "-" for "_".
_HEADER_FIELDS = {
    "alpha": parse_float,
    "edit-weight": parse_float,
    "edit-mode": str,
    "seed": parse_int,
    "dampening": str,
}

# Each character that would break the file format, with its escape. An edit
# form is its two escaped sides joined by an unescaped EDIT_BOUNDARY.
_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", EDIT_BOUNDARY: "\\" + EDIT_BOUNDARY}
_ESCAPE_TABLE = str.maketrans(_ESCAPES)
_UNESCAPES = {escaped[1]: ch for ch, escaped in _ESCAPES.items()}
# A backslash and the character after it, if any.
_ESCAPED = re.compile(r"\\(.?)", re.DOTALL)
# A section header line "[NAME]" with the newline before it. Every row holds
# a tab, so a row whose word is bracketed ("[1]") is not taken for one.
_SECTION_HEADER = re.compile(r"\n\[([^\t\n]*)\](?=\n|\Z)")


def escape_field(text: str) -> str:
    """Escape the characters that would break the file format."""
    return text.translate(_ESCAPE_TABLE)


def unescape_field(text: str, path=None, line=None) -> str:
    """Undo escape_field; a backslash that starts no escape raises FormatError."""

    def unescape(match):
        ch = _UNESCAPES.get(match[1])
        if ch is None:
            raise FormatError("bad escape in %r" % text, path, line)
        return ch

    return _ESCAPED.sub(unescape, text)


def save_model(model: CognateModel, path) -> None:
    """Write the model to path; output bytes depend only on the model state.
    A pair that fails its check (CognateModel.checked_pairs), which
    load_model would reject, raises PairError with its index before
    anything is written."""
    model.checked_pairs()
    lines = ["%s %d" % (FORMAT_NAME, FORMAT_VERSION)]
    for key in _HEADER_FIELDS:
        lines.append("%s %s" % (key, getattr(model, key.replace("-", "_"))))
    for lang, name in (("a", "LEXICON-A"), ("b", "LEXICON-B")):
        lines.append("[%s]" % name)
        lex = model.lexicons[lang]
        for form in sorted(lex.counts):
            if not form or holds_whitespace(form):
                raise CogsegError("morph %r is empty or contains whitespace" % form)
            lines.append("%s\t%d" % (escape_field(form), lex.counts[form]))
    lines.append("[EDITS]")
    for form in sorted(model.edit_lexicon.counts):
        edit = Edit.from_form(form)
        sides = escape_field(edit.lhs) + EDIT_BOUNDARY + escape_field(edit.rhs)
        lines.append("%s\t%d" % (sides, model.edit_lexicon.counts[form]))
    lines.append("[PAIRS]")
    for pair in sorted(model.pairs, key=lambda p: (p.word_a, p.word_b)):
        lines.append(
            "%s\t%s\t%d\t%d"
            % (
                escape_field(pair.word_a),
                escape_field(pair.word_b),
                pair.count_a,
                pair.count_b,
            )
        )
    for lang, name in (("a", "ANALYSES-A"), ("b", "ANALYSES-B")):
        lines.append("[%s]" % name)
        table = model.analyses[lang]
        for word in sorted(table):
            analysis = table[word]
            lines.append(
                "%s\t%d\t%s"
                % (
                    escape_field(word),
                    analysis.count,
                    " ".join(escape_field(m) for m in analysis.morphs),
                )
            )
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        stream.write("\n".join(lines))
        stream.write("\n")


def load_model(path) -> CognateModel:
    """Load and fully validate a model file (see the module docstring)."""
    with open_text(path) as stream:
        text = stream.read()
    raw = text.split("\n")
    if raw and raw[-1] == "":
        raw.pop()
    if not raw:
        raise FormatError("empty model file", path, 1)
    head = raw[0].split(" ")
    if len(head) != 2 or head[0] != FORMAT_NAME:
        raise FormatError("not a %s file" % FORMAT_NAME, path, 1)
    if head[1] != str(FORMAT_VERSION):
        raise FormatError(
            "unsupported format version %s (expected %d)" % (head[1], FORMAT_VERSION),
            path,
            1,
        )
    header: dict[str, tuple[int, str]] = {}
    lineno = 1
    while lineno < len(raw) and not raw[lineno].startswith("["):
        key, sep, value = raw[lineno].partition(" ")
        if not sep:
            raise FormatError("bad header line %r" % raw[lineno], path, lineno + 1)
        if key not in _HEADER_FIELDS:
            raise FormatError("unknown header field %r" % key, path, lineno + 1)
        if key in header:
            raise FormatError("repeated header field %r" % key, path, lineno + 1)
        header[key] = (lineno + 1, value)
        lineno += 1
    settings = {}
    for key, parse in _HEADER_FIELDS.items():
        if key not in header:
            raise FormatError("missing header field %r" % key, path, lineno + 1)
        line, value = header[key]
        name = key.replace("-", "_")
        try:
            settings[name] = parse(value)
            # The constructor holds the one check of each setting: try this one alone.
            CognateModel(**{name: settings[name]})
        except (ValueError, CogsegError) as exc:
            raise FormatError("bad header field %r (%s)" % (key, exc), path, line) from None

    # (index in raw, name) of each section header, found in one scan of the
    # text from raw[lineno], the first line after the header. raw[index]
    # starts at offset at of the text.
    heads = []
    index, at = lineno, sum(map(len, raw[:lineno])) + lineno
    for match in _SECTION_HEADER.finditer(text, at - 1):
        start = match.start() + 1
        index += text.count("\n", at, start)
        at = start
        heads.append((index, match[1]))
    if lineno < len(raw) and (not heads or heads[0][0] != lineno):
        # The header ends at the first line that starts with "[".
        raise FormatError("bad section header %r" % raw[lineno], path, lineno + 1)
    sections: dict[str, tuple[int, int]] = {}
    for (index, name), (end, _) in zip(heads, heads[1:] + [(len(raw), None)]):
        if name not in _SECTIONS:
            raise FormatError("unknown section %r" % name, path, index + 1)
        if name in sections:
            raise FormatError("duplicate section %r" % name, path, index + 1)
        sections[name] = (index + 1, end)
    for name in _SECTIONS:
        if name not in sections:
            raise FormatError("missing section [%s]" % name, path, len(raw))

    def rows(section, layout, what):
        """(line number, fields) of each row of a section, with one letter
        of layout per field: t for escaped text, m for escaped morphs joined
        by spaces, c for a count. Only a row that holds a backslash is
        unescaped: its text fields, and its morphs one by one, so that a bad
        escape names the morph that holds it."""
        first, end = sections[section]
        width = len(layout)
        for line_no, line in enumerate(raw[first:end], first + 1):
            fields = line.split("\t")
            if len(fields) != width:
                raise FormatError("%s rows need %d fields" % (what, width), path, line_no)
            if "\\" in line:
                for k, kind in enumerate(layout):
                    if kind == "t":
                        fields[k] = unescape_field(fields[k], path, line_no)
                    elif kind == "m":
                        morphs = fields[k].split(" ")
                        fields[k] = " ".join(unescape_field(m, path, line_no) for m in morphs)
            yield line_no, fields

    model = CognateModel(**settings)
    # Each count field takes the inline ASCII-digit test; one that fails it,
    # or reads 0, goes to parse_positive, which raises its message.
    # Pairs are registered before any word is recorded, and checked against
    # the recorded analyses at their own rows by the recount.
    pair_lines = []
    for line_no, (word_a, word_b, count_a, count_b) in rows("PAIRS", "ttcc", "pair"):
        n_a = int(count_a) if count_a.isdigit() and count_a.isascii() else 0
        if n_a < 1:
            n_a = parse_positive(count_a, path, line_no)
        n_b = int(count_b) if count_b.isdigit() and count_b.isascii() else 0
        if n_b < 1:
            n_b = parse_positive(count_b, path, line_no)
        try:
            model.register_pair(CognatePair(word_a, word_b, n_a, n_b))
        except CogsegError as exc:
            raise FormatError(str(exc), path, line_no) from exc
        pair_lines.append(line_no)

    insert = model.insert_analysis
    for lang, name in (("a", "ANALYSES-A"), ("b", "ANALYSES-B")):
        for line_no, (word, count, morphs) in rows(name, "tcm", "analysis"):
            n = int(count) if count.isdigit() and count.isascii() else 0
            if n < 1:
                n = parse_positive(count, path, line_no)
            try:
                insert(Analysis(word, tuple(morphs.split(" ")), n), lang)
            except CogsegError as exc:
                raise FormatError(str(exc), path, line_no) from exc

    try:
        model.recount()
    except PairError as exc:
        raise FormatError(str(exc), path, pair_lines[exc.index]) from exc
    except CogsegError as exc:
        raise FormatError(str(exc), path) from exc

    for name, lexicon in (
        ("LEXICON-A", model.lexicons["a"]),
        ("LEXICON-B", model.lexicons["b"]),
        ("EDITS", model.edit_lexicon),
    ):
        counts = lexicon.counts
        stored: dict[str, int] = {}
        for line_no, (form, count) in rows(name, "tc", "lexicon"):
            if form in stored:
                raise FormatError("repeated row for %r" % form, path, line_no)
            n = int(count) if count.isdigit() and count.isascii() else 0
            if n < 1:
                n = parse_positive(count, path, line_no)
            stored[form] = n
            if counts.get(form) != n:
                raise FormatError(
                    "stored count for %r disagrees with the analyses" % form,
                    path,
                    line_no,
                )
        if stored != counts:
            missing = sorted(set(counts) - set(stored))[:3]
            raise FormatError(
                "[%s] is missing entries (e.g. %r)" % (name, missing), path, None
            )
    return model


def report_edits(model: CognateModel, top_k: int, direction: str = "ab"):
    """Most used edits, by descending lexicon count.

    direction "ab" reports edits as stored (language a to b); "ba" displays
    them reversed. Returns at most top_k (edit, count) rows.
    """
    if direction not in ("ab", "ba"):
        raise CogsegError("direction must be 'ab' or 'ba'")
    rows = []
    for form, count in model.edit_lexicon.counts.items():
        edit = Edit.from_form(form)
        if direction == "ba":
            edit = edit.reversed()
        rows.append((edit, count))
    rows.sort(key=lambda r: (-r[1], r[0].lhs, r[0].rhs))
    return rows[: max(0, top_k)]
