"""Deterministic text serialization of trained models.

A model file is a versioned, sectioned UTF-8 document with TSV rows inside
the sections. Sections are sorted, so saving is byte-deterministic and
save -> load -> save is the identity on bytes. Loading revalidates all model
invariants: analyses must concatenate to their words, cognate analyses must
have equal morph counts, and the stored lexicon and edit sections must match
an exact recount from the analyses (CognateModel.recount, the bulk recount
that trainer.initialize and recompute_from_scratch also run).
"""

from __future__ import annotations

from .edits import Edit
from .errors import CogsegError, FormatError, open_text, parse_int, parse_positive
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
    "alpha": float,
    "edit-weight": float,
    "edit-mode": str,
    "seed": parse_int,
    "dampening": str,
}

_ESCAPES = {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "|": "\\|"}
_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "|": "|"}


def escape_field(text: str) -> str:
    """Escape the characters that would break the file format."""
    if not any(ch in text for ch in _ESCAPES):
        return text
    return "".join(_ESCAPES.get(ch, ch) for ch in text)


def unescape_field(text: str, path=None, line=None) -> str:
    if "\\" not in text:
        return text
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text) or text[i + 1] not in _UNESCAPES:
                raise FormatError("bad escape in %r" % text, path, line)
            out.append(_UNESCAPES[text[i + 1]])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def save_model(model: CognateModel, path) -> None:
    """Write the model to path; output bytes depend only on the model state.
    A pair that fails CognateModel.check_pair, which load_model would
    reject, raises ContractError before anything is written."""
    for pair in model.pairs:
        model.check_pair(pair)
    lines = ["%s %d" % (FORMAT_NAME, FORMAT_VERSION)]
    for key in _HEADER_FIELDS:
        lines.append("%s %s" % (key, getattr(model, key.replace("-", "_"))))
    for lang, name in (("a", "LEXICON-A"), ("b", "LEXICON-B")):
        lines.append("[%s]" % name)
        lex = model.lexicons[lang]
        for form in sorted(lex.counts):
            if not form or any(ch.isspace() for ch in form):
                raise CogsegError("morph %r is empty or contains whitespace" % form)
            lines.append("%s\t%d" % (escape_field(form), lex.counts[form]))
    lines.append("[EDITS]")
    for form in sorted(model.edit_lexicon.counts):
        edit = Edit.from_form(form)
        lines.append(
            "%s|%s\t%d"
            % (
                escape_field(edit.lhs),
                escape_field(edit.rhs),
                model.edit_lexicon.counts[form],
            )
        )
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
    """Load and fully validate a model file."""
    with open_text(path) as stream:
        raw = stream.read().split("\n")
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
        line, text = header[key]
        name = key.replace("-", "_")
        try:
            settings[name] = parse(text)
            # The constructor holds the one check of each setting: try this one alone.
            CognateModel(**{name: settings[name]})
        except (ValueError, CogsegError) as exc:
            raise FormatError("bad header field %r (%s)" % (key, exc), path, line) from None

    sections: dict[str, list[tuple[int, str]]] = {}
    current = None
    for offset in range(lineno, len(raw)):
        line = raw[offset]
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name not in _SECTIONS:
                raise FormatError("unknown section %r" % name, path, offset + 1)
            if name in sections:
                raise FormatError("duplicate section %r" % name, path, offset + 1)
            sections[name] = []
            current = name
        elif current is None:
            raise FormatError("data before first section", path, offset + 1)
        else:
            sections[current].append((offset + 1, line))
    for name in _SECTIONS:
        if name not in sections:
            raise FormatError("missing section [%s]" % name, path, len(raw))

    def rows(section, layout, what):
        """(line number, fields) of each row of a section, with one letter
        of layout per field: t for escaped text, m for escaped morphs joined
        by spaces, c for a count. Only a row that holds a backslash is
        unescaped: its text fields, and its morphs one by one, so that a bad
        escape names the morph that holds it."""
        for line_no, line in sections[section]:
            fields = line.split("\t")
            if len(fields) != len(layout):
                raise FormatError("%s rows need %d fields" % (what, len(layout)), path, line_no)
            if "\\" in line:
                for k, kind in enumerate(layout):
                    if kind == "t":
                        fields[k] = unescape_field(fields[k], path, line_no)
                    elif kind == "m":
                        morphs = fields[k].split(" ")
                        fields[k] = " ".join(unescape_field(m, path, line_no) for m in morphs)
            yield line_no, fields

    model = CognateModel(**settings)
    # Pairs are registered before any word is recorded, and checked against
    # the recorded analyses at their own rows.
    pairs = []
    for line_no, (word_a, word_b, count_a, count_b) in rows("PAIRS", "ttcc", "pair"):
        count_a = parse_positive(count_a, path, line_no)
        count_b = parse_positive(count_b, path, line_no)
        try:
            pair = CognatePair(word_a, word_b, count_a, count_b)
            model.register_pair(pair)
        except CogsegError as exc:
            raise FormatError(str(exc), path, line_no) from exc
        pairs.append((line_no, pair))

    for lang, name in (("a", "ANALYSES-A"), ("b", "ANALYSES-B")):
        for line_no, (word, count, morphs) in rows(name, "tcm", "analysis"):
            count = parse_positive(count, path, line_no)
            try:
                model.insert_analysis(Analysis(word, tuple(morphs.split(" ")), count), lang)
            except CogsegError as exc:
                raise FormatError(str(exc), path, line_no) from exc

    for line_no, pair in pairs:
        try:
            model.check_pair(pair)
        except CogsegError as exc:
            raise FormatError(str(exc), path, line_no) from exc

    try:
        model.recount()
    except CogsegError as exc:
        raise FormatError(str(exc), path) from exc

    for name, lexicon in (
        ("LEXICON-A", model.lexicons["a"]),
        ("LEXICON-B", model.lexicons["b"]),
        ("EDITS", model.edit_lexicon),
    ):
        stored: dict[str, int] = {}
        for line_no, (form, count) in rows(name, "tc", "lexicon"):
            if form in stored:
                raise FormatError("repeated row for %r" % form, path, line_no)
            count = stored[form] = parse_positive(count, path, line_no)
            if lexicon.counts.get(form) != count:
                raise FormatError(
                    "stored count for %r disagrees with the analyses" % form,
                    path,
                    line_no,
                )
        if stored != lexicon.counts:
            missing = sorted(set(lexicon.counts) - set(stored))[:3]
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
