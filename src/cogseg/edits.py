"""Character-level alignment and edit extraction for linked morph pairs.

Edits describe how a morph in language 1 is rewritten into its counterpart
in language 2 as a pair of substrings (lhs -> rhs), with positions dropped.
They are produced in two steps: minimal alignment, then one pass over its
runs of non-match operations that extends each one-sided run over a
neighboring unchanged character (so a lengthened sound becomes 'a -> aa'
rather than the harder-to-reuse ' -> a') and merges runs that come to touch.

One alignment table serves distance, alignment and edits:
levenshtein_distance reads the cost from its first cell (after stripping
the common prefix and suffix; only the distance may strip the suffix). One
traceback writes the common prefix as matches, walks the table of the rest
from that cell and writes the operations as a string of letters.
levenshtein_align turns those letters into AlignmentOps; _edit_spans turns
their non-match runs into spans. edit_forms, a functools.lru_cache with
one fixed bound of MAX_ENTRIES (2^20) entries, builds the serialized forms
from the spans: the one edit-form cache, called directly by training, the
model's pair bookkeeping, the recount and model loading. extract_edits,
the positioned script (Edit objects and spans), runs its own traceback
under its own 2^17-entry cache.

All functions operate on Unicode code points, never bytes.

Alignment tie-breaking is fully deterministic: among minimum-distance
alignments, the one with the fewest contiguous runs of non-match operations
is preferred, and remaining ties are resolved left to right with the
operation preference match > substitute > delete > insert.  Plain
per-operation preference alone cannot keep edit regions contiguous, which
the merging step depends on; minimizing run count is what makes the
extraction stable.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from .errors import ContractError

# Separates lhs from rhs in the serialized form of an edit. Reserved: may not
# occur inside training tokens.
EDIT_BOUNDARY = "|"

MATCH = "match"
SUBSTITUTE = "substitute"
DELETE = "delete"
INSERT = "insert"


@dataclass(frozen=True)
class AlignmentOp:
    """One step of a character alignment.

    source/target are None when the op does not consume a character on that
    side (insert/delete respectively). Positions index into the respective
    strings; for the non-consuming side the position is where the gap sits.
    """

    kind: str
    source: str | None
    target: str | None
    source_pos: int
    target_pos: int


def _check_sides(lhs: str, rhs: str) -> None:
    if lhs == rhs:
        raise ContractError("edit sides must differ: %r" % (lhs,))
    if EDIT_BOUNDARY in lhs or EDIT_BOUNDARY in rhs:
        raise ContractError("edit sides may not contain %r" % EDIT_BOUNDARY)


@dataclass(frozen=True)
class Edit:
    """A positionless rewrite of one substring into another."""

    lhs: str
    rhs: str

    def __post_init__(self):
        _check_sides(self.lhs, self.rhs)

    @property
    def form(self) -> str:
        """Serialized form, also the key used in the edit lexicon."""
        return self.lhs + EDIT_BOUNDARY + self.rhs

    @classmethod
    def from_form(cls, form: str) -> "Edit":
        lhs, sep, rhs = form.partition(EDIT_BOUNDARY)
        if not sep:
            raise ContractError("malformed edit form %r" % form)
        return cls(lhs, rhs)

    def reversed(self) -> "Edit":
        return Edit(self.rhs, self.lhs)

    def __str__(self):
        return "%s→%s" % (self.lhs or "ε", self.rhs or "ε")


@dataclass(frozen=True)
class PositionedEdit:
    """An Edit plus the source span it rewrites (source[start:end] == lhs)."""

    edit: Edit
    start: int
    end: int


@dataclass(frozen=True)
class EditScript:
    """Ordered edits extracted from one morph pair; empty for identical morphs."""

    positioned: tuple[PositionedEdit, ...]

    @property
    def edits(self) -> tuple[Edit, ...]:
        return tuple(p.edit for p in self.positioned)

    def __len__(self):
        return len(self.positioned)


def levenshtein_distance(a: str, b: str) -> int:
    """Plain unit-cost edit distance: the cost packed above the run count
    in cell (0, 0) of the alignment table of the parts of a and b that
    differ.

    Stripping a common prefix and suffix never changes the plain distance.
    Stripping the suffix can change which alignment the tie-break picks, so
    the alignment and the edits keep it.
    """
    if a == b:
        return 0
    start = _common_prefix(a, b)
    shorter = min(len(a), len(b))
    end = 0
    while end < shorter - start and a[-1 - end] == b[-1 - end]:
        end += 1
    a = a[start : len(a) - end]
    b = b[start : len(b) - end]
    table0, _, one = _suffix_table(a, b)
    return table0[0][0] // one


def _common_prefix(a: str, b: str) -> int:
    """The length of the longest common prefix of a and b."""
    shorter = min(len(a), len(b))
    k = 0
    while k < shorter and a[k] == b[k]:
        k += 1
    return k


def _suffix_table(a: str, b: str):
    """(cost, runs) of aligning a[i:] with b[j:], for both predecessor states.

    State p=1 means the operation just before (i, j) was a non-match, in
    which case a following non-match continues the current run for free.
    Each cell is packed into one int, cost << shift | runs, with shift wide
    enough that runs (at most len(a) + len(b)) never carry into the cost, so
    packed ints order exactly as (cost, runs) tuples do. Returns the tables
    for p=0 and p=1, indexed [i][j], and one = 1 << shift, the packed cost
    of one non-match operation.
    """
    la, lb = len(a), len(b)
    one = 1 << (la + lb + 1).bit_length()
    # Row la: only inserts remain, one run of them.
    nxt1 = [(lb - j) * one for j in range(lb + 1)]
    nxt0 = [cell + 1 for cell in nxt1]
    nxt0[lb] = 0
    table0 = [nxt0]
    table1 = [nxt1]
    for i in range(la - 1, -1, -1):
        ai = a[i]
        row0 = [0] * (lb + 1)
        row1 = [0] * (lb + 1)
        # Column lb: only deletes remain. Going left, ins holds row1[j + 1]
        # and diag holds nxt1[j + 1].
        ins = row1[lb] = nxt1[lb] + one
        row0[lb] = ins + 1
        diag = nxt1[lb]
        for j in range(lb - 1, -1, -1):
            dele = nxt1[j]
            # Cheapest non-match from (i, j): delete, insert, or substitute
            # when the characters differ; p=0 opens a new run.
            best = dele if dele < ins else ins
            if ai == b[j]:
                best += one
                match = nxt0[j + 1]
                ins = best if best < match else match
                row0[j] = best + 1 if best + 1 < match else match
            else:
                if diag < best:
                    best = diag
                ins = best + one
                row0[j] = ins + 1
            row1[j] = ins
            diag = dele
        table0.append(row0)
        table1.append(row1)
        nxt0, nxt1 = row0, row1
    table0.reverse()
    table1.reverse()
    return table0, table1, one


def _traceback(a: str, b: str) -> str:
    """The tie-broken minimum-cost alignment of a with b, one letter per
    operation: m(atch), s(ubstitute), d(elete), i(nsert), walked from cell
    (0, 0, p=0) of _suffix_table(a, b).

    The common prefix is all matches, so only the rest is tabled: at p=0 a
    match of equal characters is among the cheapest moves and wins the
    tie-break, and a run opened instead could take the match's place at no
    greater cost or run count. The common suffix cannot be skipped that
    way: the tie-break aligns aa with a as md.
    """
    k = _common_prefix(a, b)
    a, b = a[k:], b[k:]
    table0, table1, one = _suffix_table(a, b)
    tables = (table0, table1)
    la, lb = len(a), len(b)
    ops = ["m" * k]
    i = j = p = 0
    while i < la or j < lb:
        cur = tables[p][i][j]
        if i < la and j < lb and a[i] == b[j] and table0[i + 1][j + 1] == cur:
            ops.append("m")
            i, j, p = i + 1, j + 1, 0
            continue
        # A non-match from (i, j) costs one and, from p=0, opens a run.
        step = one + (1 - p)
        if i < la and j < lb and a[i] != b[j] and table1[i + 1][j + 1] + step == cur:
            ops.append("s")
            i, j, p = i + 1, j + 1, 1
            continue
        if i < la and table1[i + 1][j] + step == cur:
            ops.append("d")
            i, p = i + 1, 1
            continue
        ops.append("i")
        j, p = j + 1, 1
    return "".join(ops)


_KINDS = {"m": MATCH, "s": SUBSTITUTE, "d": DELETE, "i": INSERT}


def levenshtein_align(a: str, b: str) -> list[AlignmentOp]:
    """One deterministic minimum-cost alignment of a with b.

    The number of substitute/delete/insert ops equals the Levenshtein
    distance; tie-breaking is as described in the module docstring.
    """
    ops: list[AlignmentOp] = []
    i = j = 0
    for letter in _traceback(a, b):
        source = a[i] if letter != "i" else None
        target = b[j] if letter != "d" else None
        ops.append(AlignmentOp(_KINDS[letter], source, target, i, j))
        i += source is not None
        j += target is not None
    return ops


_NON_MATCH_RUN = re.compile("[^m]+")


def _edit_spans(a: str, b: str, ops: str) -> list[list[int]]:
    """Spans [a0, a1, b0, b1) of the edits rewriting a into b, given the
    alignment letters ops of a with b, in one pass over its non-match runs.

    Each run becomes a span. A one-sided span (a pure delete or insert run)
    grows over the matched character on its left, or else on its right,
    when its non-empty side contains that character; a run is flanked by
    matches except at the ends of the alignment. A span that touches the
    previous one is joined to it.

    No span looks at a neighbour that is not finished: a check that the
    neighbour has not claimed the character first would never fail.
    - Right (a1 < next a0 and b1 < next b0): the next run is not yet
      processed, and at least one match separates two runs on both sides.
    - Left (previous a1 < a0 and previous b1 < b0): the previous span
      takes the single match c between the two spans only by growing right
      over it. That needs both spans to be one-sided, with c on each
      span's non-empty side. On the same side, matching at the first c of
      the previous run costs the same with no more runs, and the
      left-to-right match preference picks it. On opposite sides,
      aligning through the c's is strictly cheaper.
    """
    spans: list[list[int]] = []
    i = j = end = 0
    for run in _NON_MATCH_RUN.finditer(ops):
        # Everything between the previous run and this one is matches.
        start = run.start()
        a0 = i = i + start - end
        b0 = j = j + start - end
        end = run.end()
        letters = run.group()
        a1 = i = a0 + end - start - letters.count("i")
        b1 = j = b0 + end - start - letters.count("d")
        if (a0 == a1) != (b0 == b1):
            nonempty = a[a0:a1] or b[b0:b1]
            if start and a[a0 - 1] in nonempty:
                a0 -= 1
                b0 -= 1
            elif end < len(ops) and a[a1] in nonempty:
                a1 += 1
                b1 += 1
        if spans and spans[-1][1] == a0 and spans[-1][3] == b0:
            spans[-1][1] = a1
            spans[-1][3] = b1
        else:
            spans.append([a0, a1, b0, b1])
    return spans


@functools.lru_cache(maxsize=1 << 17)
def extract_edits(morph_a: str, morph_b: str) -> EditScript:
    """Canonical positioned edit script rewriting morph_a into morph_b.

    Pure and deterministic; results are cached, so the returned script must
    be treated as immutable (it is). The package counts edits through
    edit_forms; this is the positioned API, for apply_edit_script.
    """
    ops = _traceback(morph_a, morph_b)
    return EditScript(
        tuple(
            PositionedEdit(Edit(morph_a[a0:a1], morph_b[b0:b1]), a0, a1)
            for a0, a1, b0, b1 in _edit_spans(morph_a, morph_b, ops)
        )
    )


def _forms(a: str, b: str, spans) -> tuple[str, ...]:
    forms = []
    for a0, a1, b0, b1 in spans:
        lhs, rhs = a[a0:a1], b[b0:b1]
        _check_sides(lhs, rhs)
        forms.append(lhs + EDIT_BOUNDARY + rhs)
    return tuple(forms)


# The bound of edit_forms, a least-recently-used cache. An entry takes about
# 270 bytes (tracemalloc over 50,000 short morph pairs), so a full cache
# holds about 280 MB. A 2-epoch seed-1 joint run on the benchmark corpus
# stores 8,915 keys (about 2 per unit; the split search skips the lookups of
# combinations it rules out), and a world four times that size 34,034, so
# neither evicts.
MAX_ENTRIES = 1 << 20


@functools.lru_cache(maxsize=MAX_ENTRIES)
def edit_forms(morph_a: str, morph_b: str) -> tuple[str, ...]:
    """The edit forms (lhs|rhs) rewriting morph_a into morph_b, the forms of
    extract_edits(morph_a, morph_b).edits built without Edit objects. The
    one edit-form cache: training, the model's pair bookkeeping, the
    recount and model loading all read it. Raises ContractError where Edit
    would."""
    if morph_a == morph_b:
        return ()
    return _forms(morph_a, morph_b, _edit_spans(morph_a, morph_b, _traceback(morph_a, morph_b)))


def apply_edit_script(morph: str, script: EditScript) -> str:
    """Apply a script extracted from (morph, target); returns target exactly."""
    pieces = []
    pos = 0
    for pe in script.positioned:
        if pe.start < pos or pe.end > len(morph):
            raise ContractError(
                "edit span %d:%d does not fit %r" % (pe.start, pe.end, morph)
            )
        if morph[pe.start : pe.end] != pe.edit.lhs:
            raise ContractError(
                "edit lhs %r does not match source at %d:%d"
                % (pe.edit.lhs, pe.start, pe.end)
            )
        pieces.append(morph[pos : pe.start])
        pieces.append(pe.edit.rhs)
        pos = pe.end
    pieces.append(morph[pos:])
    return "".join(pieces)
