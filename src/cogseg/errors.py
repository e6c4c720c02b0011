"""Exception types, the readers that turn malformed files into FormatError,
and the one whitespace rule every word, morph and joiner follows."""

import contextlib
import re

# A finite number as str() writes a float or an int: "0.01", "10.0", "1e-05", "1".
_DECIMAL = re.compile(r"-?[0-9]+(\.[0-9]+)?(e[-+][0-9]+)?")


class CogsegError(Exception):
    """Base class for exceptions in this package."""


class ContractError(CogsegError):
    """An operation was called in a state that violates its precondition."""


class PairError(ContractError):
    """A cognate pair failed a check; index is its position among the pairs
    given, so a caller that read them from a file can name the line."""

    def __init__(self, message, index):
        self.index = index
        super().__init__(message)


class ModelIntegrityError(CogsegError):
    """Cached model statistics disagree with a from-scratch recount."""


class UsageError(CogsegError):
    """The command line could not be parsed or holds a value out of range."""


class FormatError(CogsegError):
    """A model or data file could not be parsed or failed validation.

    Carries the offending path and 1-based line number when known.
    """

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = str(path)
            if line is not None:
                prefix += ":%d" % line
            prefix += ": "
        super().__init__(prefix + message)


@contextlib.contextmanager
def open_text(path):
    """Open a UTF-8 text file; bytes that are not UTF-8 raise FormatError."""
    with open(path, encoding="utf-8") as stream:
        try:
            yield stream
        except UnicodeDecodeError as exc:
            raise FormatError("not UTF-8 text (%s)" % exc.reason, path) from None


def read_rows(path, width: int, sep: str = "\t"):
    """Yield (line number, fields) for each non-empty line of a table file;
    a line without exactly width fields raises FormatError."""
    with open_text(path) as stream:
        for lineno, line in enumerate(stream, 1):
            line = line.rstrip("\n")
            if line:
                fields = line.split(sep)
                if len(fields) != width:
                    raise FormatError("expected %d fields" % width, path, lineno)
                yield lineno, fields


def holds_whitespace(text: str) -> bool:
    """Whether text holds a character for which str.isspace() is true."""
    # isprintable() is False for every whitespace character but the space,
    # so printable text skips the per-character check.
    return " " in text or (not text.isprintable() and any(ch.isspace() for ch in text))


def check_word(word: str, path, line) -> None:
    """The word field of a table row: an empty word, or one holding
    whitespace, raises FormatError at path:line."""
    if not word:
        raise FormatError("empty word", path, line)
    if holds_whitespace(word):
        raise FormatError("word %r contains whitespace" % word, path, line)


def parse_int(text: str, path=None, line=None) -> int:
    """The integer of an optional "-" and ASCII digits. Other text raises
    FormatError, also where int() would take it: with "_", "+", whitespace
    or non-ASCII digits."""
    if text.isascii() and (text.isdigit() or text[:1] == "-" and text[1:].isdigit()):
        return int(text)
    raise FormatError("bad integer %r" % text, path, line)


def parse_float(text: str, path=None, line=None) -> float:
    """The float of a finite number as str() writes a float or an int.
    Other text raises FormatError, also where float() would take it: with
    "_", "+", whitespace or non-ASCII digits."""
    if _DECIMAL.fullmatch(text):
        return float(text)
    raise FormatError("bad number %r" % text, path, line)


def parse_positive(text: str, path, line) -> int:
    value = parse_int(text, path, line)
    if value < 1:
        raise FormatError("count must be positive, got %d" % value, path, line)
    return value
