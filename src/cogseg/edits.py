"""Character-level alignment and edit extraction for linked morph pairs.

Edits describe how a morph in language 1 is rewritten into its counterpart
in language 2 as a pair of substrings (lhs -> rhs), with positions dropped.
They are produced in three steps: minimal alignment, merging of adjacent
non-match operations, and extension of one-sided edits over a neighboring
unchanged character (so a lengthened sound becomes 'a -> aa' rather than
the harder-to-reuse ' -> a').

One alignment table serves distance, alignment and edits:
levenshtein_distance reads the cost from its first cell. One traceback
walks the table and writes the operations as a string of letters; it can
start from any cell, since cell (i, j) of the table of (a, b) holds the
alignment of a[i:] with b[j:]. levenshtein_align
turns those letters into AlignmentOps; _edit_spans merges their non-match
runs into spans. edit_forms, an EditFormCache with one fixed bound of
MAX_ENTRIES (2^20) entries, builds the serialized forms from the spans: the
one edit path that training, the model's pair bookkeeping, the recount and
model loading all read. Its tails(a, b)
gives the forms of every tail pair (a[i:], b[j:]) from one table of (a, b).
extract_edits builds the positioned script (Edit objects and spans) from them.

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

import collections
import functools
import itertools
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
    in cell (0, 0) of the alignment table of a with b."""
    if a == b:
        return 0
    table0, _, one = _suffix_table(a, b)
    return table0[0][0] // one


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


def _traceback(a: str, b: str, tables, i: int = 0, j: int = 0) -> str:
    """The tie-broken minimum-cost alignment of a[i:] with b[j:], one letter
    per operation: m(atch), s(ubstitute), d(elete), i(nsert).

    tables is _suffix_table(a, b). Its cells at and below (i, j) depend on
    a[i:] and b[j:] alone, and its packed ints order as (cost, runs) tuples
    do, so the walk from cell (i, j, p=0) makes exactly the choices the walk
    of _suffix_table(a[i:], b[j:]) makes from (0, 0, p=0).
    """
    table0, table1, one = tables
    tables = (table0, table1)
    la, lb = len(a), len(b)
    ops: list[str] = []
    p = 0
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
    for letter in _traceback(a, b, _suffix_table(a, b)):
        source = a[i] if letter != "i" else None
        target = b[j] if letter != "d" else None
        ops.append(AlignmentOp(_KINDS[letter], source, target, i, j))
        i += source is not None
        j += target is not None
    return ops


_NON_MATCH_RUN = re.compile("[^m]+")


def _edit_spans(a: str, b: str, ops: str) -> list[list[int]]:
    """Spans [a0, a1, b0, b1) of the edits rewriting a into b, given the
    alignment letters ops of a with b: its runs of non-match operations,
    extended and re-merged."""
    spans: list[list[int]] = []
    i = j = end = 0
    for run in _NON_MATCH_RUN.finditer(ops):
        # Everything between the previous run and this one is matches.
        start = run.start()
        i += start - end
        j += start - end
        end = run.end()
        letters = run.group()
        a1 = i + end - start - letters.count("i")
        b1 = j + end - start - letters.count("d")
        spans.append([i, a1, j, b1])
        i, j = a1, b1
    return _extend_and_remerge(a, b, spans)


def _extend_and_remerge(a: str, b: str, spans: list[list[int]]) -> list[list[int]]:
    """Grow one-sided spans over a neighboring equal character, then merge
    spans that became adjacent.

    A neighbor is eligible when it is an unchanged (matched) character, the
    non-empty side of the edit contains it, and it is not already claimed by
    the adjacent span. The left neighbor is preferred over the right.

    One pass of each reaches the fixed point. A span that grows gains its
    second side, so it never grows again. A one-sided span that cannot grow
    never can: its neighbors' characters and the left span it was checked
    against stay as they are, and the right span can only grow towards it.
    The input spans are maximal non-match runs, so only grown spans can
    become adjacent, and one merge pass joins every such chain.
    """
    for k, span in enumerate(spans):
        a0, a1, b0, b1 = span
        lhs_empty = a0 == a1
        rhs_empty = b0 == b1
        if lhs_empty == rhs_empty:
            continue
        nonempty = a[a0:a1] if rhs_empty else b[b0:b1]
        prev = spans[k - 1] if k > 0 else None
        nxt = spans[k + 1] if k + 1 < len(spans) else None
        if (
            a0 > 0
            and b0 > 0
            and a[a0 - 1] == b[b0 - 1]
            and a[a0 - 1] in nonempty
            and (prev is None or (prev[1] < a0 and prev[3] < b0))
        ):
            span[0] = a0 - 1
            span[2] = b0 - 1
        elif (
            a1 < len(a)
            and b1 < len(b)
            and a[a1] == b[b1]
            and a[a1] in nonempty
            and (nxt is None or (a1 < nxt[0] and b1 < nxt[2]))
        ):
            span[1] = a1 + 1
            span[3] = b1 + 1
    merged: list[list[int]] = []
    for span in spans:
        if merged and merged[-1][1] == span[0] and merged[-1][3] == span[2]:
            merged[-1][1] = span[1]
            merged[-1][3] = span[3]
        else:
            merged.append(span)
    return merged


def _spans(a: str, b: str) -> list[list[int]]:
    """The edit spans of a with b, from their own alignment table."""
    return [] if a == b else _edit_spans(a, b, _traceback(a, b, _suffix_table(a, b)))


@functools.lru_cache(maxsize=1 << 17)
def extract_edits(morph_a: str, morph_b: str) -> EditScript:
    """Canonical positioned edit script rewriting morph_a into morph_b.

    Pure and deterministic; results are cached, so the returned script must
    be treated as immutable (it is). The package counts edits through
    edit_forms; this is the positioned API, for apply_edit_script.
    """
    return EditScript(
        tuple(
            PositionedEdit(Edit(morph_a[a0:a1], morph_b[b0:b1]), a0, a1)
            for a0, a1, b0, b1 in _spans(morph_a, morph_b)
        )
    )


def _forms(a: str, b: str, spans) -> tuple[str, ...]:
    forms = []
    for a0, a1, b0, b1 in spans:
        lhs, rhs = a[a0:a1], b[b0:b1]
        _check_sides(lhs, rhs)
        forms.append(lhs + EDIT_BOUNDARY + rhs)
    return tuple(forms)


CacheInfo = collections.namedtuple("CacheInfo", "hits misses maxsize currsize")


class EditFormCache:
    """The edit forms (lhs|rhs) rewriting morph_a into morph_b, the forms of
    extract_edits(morph_a, morph_b).edits built without Edit objects.

    Calling the cache returns them; tails(a, b) returns the forms of every
    tail pair (a[i:], b[j:]), traced from one shared alignment table. Both
    read and fill one bounded store, which evicts its older half when
    full, and count their hits and misses in cache_info() as
    functools.lru_cache does. Raises ContractError where Edit would.
    """

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._store: dict[tuple[str, str], tuple[str, ...]] = {}
        self._hits = self._misses = 0

    def __call__(self, morph_a: str, morph_b: str) -> tuple[str, ...]:
        key = (morph_a, morph_b)
        forms = self._store.get(key)
        if forms is None:
            return self._put(key, _forms(morph_a, morph_b, _spans(morph_a, morph_b)))
        self._hits += 1
        return forms

    def tails(self, a: str, b: str):
        """A function of (i, j) returning the forms of (a[i:], b[j:]). The
        alignment table of (a, b) is built on the first tail that misses the
        cache, and every missing tail is traced back from it."""
        store = self._store
        tables = None

        def tail(i: int, j: int) -> tuple[str, ...]:
            nonlocal tables
            key = (a_tail, b_tail) = (a[i:], b[j:])
            forms = store.get(key)
            if forms is not None:
                self._hits += 1
                return forms
            spans = []
            if a_tail != b_tail:
                if tables is None:
                    tables = _suffix_table(a, b)
                spans = _edit_spans(a_tail, b_tail, _traceback(a, b, tables, i, j))
            return self._put(key, _forms(a_tail, b_tail, spans))

        return tail

    def _put(self, key, forms):
        self._misses += 1
        store = self._store
        if len(store) >= self.maxsize:
            for old in list(itertools.islice(store, (len(store) + 1) // 2)):
                del store[old]
        store[key] = forms
        return forms

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses, self.maxsize, len(self._store))

    def cache_clear(self) -> None:
        self._store.clear()
        self._hits = self._misses = 0


# The bound of edit_forms. An entry takes about 300 bytes, so the cache
# stays below about 300 MB. A 2-epoch seed-1 joint run on the benchmark
# corpus stores 37,185 keys (about 9 per unit; the split search skips the
# lookups of combinations it rules out), and a world four times that size
# 139,510, so neither evicts.
MAX_ENTRIES = 1 << 20

# The one edit-form cache: training, the model's pair bookkeeping, the
# recount and model loading all read it.
edit_forms = EditFormCache(MAX_ENTRIES)


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
