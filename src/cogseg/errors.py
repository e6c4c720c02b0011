"""Exception types, and the readers that turn malformed files into FormatError."""

import contextlib


class CogsegError(Exception):
    """Base class for exceptions in this package."""


class ContractError(CogsegError):
    """An operation was called in a state that violates its precondition."""


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


def parse_int(text: str, path, line) -> int:
    try:
        value = int(text)
    except ValueError:
        raise FormatError("bad integer %r" % text, path, line) from None
    return value


def parse_positive(text: str, path, line) -> int:
    value = parse_int(text, path, line)
    if value < 1:
        raise FormatError("count must be positive, got %d" % value, path, line)
    return value
