"""Exception types shared across the toolkit, and the one text reader
that turns a byte that is not UTF-8 into one of them."""

import sys


class ToolkitError(Exception):
    """Base class for all errors raised deliberately by hodt."""


class TreeStructureError(ToolkitError):
    """A tree violates a structural invariant (bad yields, heads, classes)."""


class TreebankFormatError(ToolkitError):
    """Malformed treebank input; carries file/line location when known."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ''
        if path is not None:
            where = f'{path}:'
        if line is not None:
            where += f'{line}:'
        if where:
            message = f'{where} {message}'
        super().__init__(message)


class HeadRuleError(ToolkitError):
    """Bad head-rule file syntax; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f'line {line}: {message}'
        super().__init__(message)


class ModelFormatError(ToolkitError):
    """A model file does not match the expected versioned layout."""


def read_utf8(path, error):
    """The whole text of a UTF-8 file, or of stdin for '-'.  A byte that
    does not decode raises `error` with the path and the byte's offset."""
    try:
        if path == '-':
            # the bytes, not sys.stdin's text: it may escape bad bytes
            return sys.stdin.buffer.read().decode('utf-8')
        with open(path, encoding='utf-8') as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise error(f'{path}: not UTF-8: byte 0x{exc.object[exc.start]:02x} '
                    f'at offset {exc.start}') from None
