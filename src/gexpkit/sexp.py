"""S-expression values, reader, canonical printer, and content digests.

The value space is small and fixed: symbols, strings, signed 64-bit
integers, booleans, keywords (``#:name``), and proper lists.  Reading
and canonical printing are exact inverses over this space, and every
content hash in the system is taken over canonical text, so the
printed format must never change.

Reader shorthand expands to plain list forms::

    'x    (quote x)            #~x   (gexp x)
    `x    (quasiquote x)       #$x   (ungexp x)
    ,x    (unquote x)          #$@x  (ungexp-splicing x)
    ,@x   (unquote-splicing x) #+x   (ungexp-native x)
                               #+@x  (ungexp-native-splicing x)

Comments run from ``;`` to end of line and are discarded: two sources
differing only in comments or whitespace read to equal values and
therefore hash identically.

The reader is one loop over the matches of one token regex, with an
explicit stack of open lists, so nesting depth is bounded by memory,
not by Python's recursion limit.  Line and column are worked out from
the match offset only when a ParseError is raised.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

_DELIMITERS = set(" \t\n\r()\";'`,")
_INTEGER_RE = re.compile(r"[+-]?[0-9]+\Z")

# String escapes accepted on input.  The canonical printer escapes only
# the quote and the backslash and emits newline, tab and return raw.
_STRING_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}


class ParseError(Exception):
    """Malformed input; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class Sexp:
    """Base class for the six value kinds."""


def symbol_text_ok(text: str) -> bool:
    """True when *text* survives a print/read round trip as a symbol."""
    if not text or text.startswith("#"):
        return False
    if any(c in _DELIMITERS for c in text):
        return False
    head = text[1:] if text[0] in "+-" else text
    # Digit-leading tokens always lex as numbers, never as symbols.
    if head and head[:1].isdigit():
        return False
    return True


@dataclass(frozen=True)
class Symbol(Sexp):
    name: str

    def __post_init__(self):
        if not symbol_text_ok(self.name):
            raise ValueError(f"invalid symbol text: {self.name!r}")


@dataclass(frozen=True)
class String(Sexp):
    value: str


@dataclass(frozen=True)
class Integer(Sexp):
    value: int

    def __post_init__(self):
        if type(self.value) is not int:
            raise ValueError(f"Integer wants an int, got {type(self.value).__name__}")
        if not INT64_MIN <= self.value <= INT64_MAX:
            raise ValueError(f"integer out of signed 64-bit range: {self.value}")


@dataclass(frozen=True)
class Boolean(Sexp):
    value: bool

    def __post_init__(self):
        if type(self.value) is not bool:
            raise ValueError("Boolean wants a bool")


@dataclass(frozen=True)
class Keyword(Sexp):
    name: str

    def __post_init__(self):
        if not self.name or any(c in _DELIMITERS for c in self.name):
            raise ValueError(f"invalid keyword text: {self.name!r}")


@dataclass(frozen=True)
class SList(Sexp):
    items: tuple[Sexp, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        for item in self.items:
            if not isinstance(item, Sexp):
                raise ValueError(f"list element is not a sexp: {item!r}")

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        return iter(self.items)

    def __getitem__(self, index):
        return self.items[index]


def slist(*items: Sexp) -> SList:
    return SList(tuple(items))


# Blanks and comments, then one token: a parenthesis, a closed string, a
# lone quote (an unterminated string), a shorthand prefix, or an atom.
_TOKEN = re.compile(r'''
    (?: [ \t\n\r]+ | ;[^\n]* )*
    ( [()]
    | "[^"\\]*(?:\\.[^"\\]*)*"
    | "
    | ['`] | ,@? | \#~ | \#[$+]@?
    | [^ \t\n\r()";'`,]+
    )?''', re.VERBOSE | re.DOTALL)

_PREFIXES = {token: Symbol(head) for token, head in {
    "'": "quote", "`": "quasiquote", ",": "unquote",
    ",@": "unquote-splicing", "#~": "gexp", "#$": "ungexp",
    "#$@": "ungexp-splicing", "#+": "ungexp-native",
    "#+@": "ungexp-native-splicing"}.items()}

_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _error(text: str, offset: int, message: str) -> ParseError:
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - text.rfind("\n", 0, offset))


def _unescape(text: str, start: int, end: int) -> str:
    """The value of the string literal body text[start:end]."""
    def unescape(m):
        if m[1] not in _STRING_ESCAPES:
            raise _error(text, start + m.end(),
                         f"unsupported string escape: \\{m[1]}")
        return _STRING_ESCAPES[m[1]]
    return _ESCAPE.sub(unescape, text[start:end])


def _atom(token: str, text: str, start: int) -> Sexp:
    if token == "#t":
        return Boolean(True)
    if token == "#f":
        return Boolean(False)
    if token.startswith("#:"):
        if len(token) == 2:
            raise _error(text, start, "empty keyword")
        return Keyword(token[2:])
    if token.startswith("#"):
        raise _error(text, start, f"unsupported # syntax: {token}")
    if _INTEGER_RE.fullmatch(token):
        value = int(token)
        if not INT64_MIN <= value <= INT64_MAX:
            raise _error(text, start,
                         f"integer out of signed 64-bit range: {token}")
        return Integer(value)
    head = token[1:] if token[0] in "+-" else token
    if head[:1].isdigit():
        raise _error(text, start, f"invalid numeric literal: {token}")
    return Symbol(token)


def _read(text: str, one: bool) -> list[Sexp]:
    """Read data left to right with one token regex and an explicit
    stack, so nesting depth is bounded by memory alone.  With *one*, stop
    after the first datum and reject anything but blanks after it."""
    top: list[Sexp] = []
    # One entry per open list, the top level first: its items, the
    # offset of its "(", and the prefixes still waiting for a datum.
    stack = [(top, 0, [])]
    items, _, waiting = stack[-1]
    pos = 0
    while True:
        m = _TOKEN.match(text, pos)
        token, start, pos = m[1], m.start(1), m.end()
        if token is None:
            if waiting or (one and len(stack) == 1):
                raise _error(text, pos, "unexpected end of input")
            if len(stack) > 1:
                raise _error(text, stack[-1][1], "unterminated list")
            return top
        if token == "(":
            items, waiting = [], []
            stack.append((items, start, waiting))
            continue
        if token == ")":
            if waiting or len(stack) == 1:
                raise _error(text, start, "unexpected )")
            value = SList(tuple(stack.pop()[0]))
            items, _, waiting = stack[-1]
        elif token in _PREFIXES:
            waiting.append(_PREFIXES[token])
            continue
        elif token == '"':
            _unescape(text, pos, len(text))
            raise _error(text, start, "unterminated string")
        elif token[0] == '"':
            value = String(_unescape(text, start + 1, pos - 1))
        else:
            value = _atom(token, text, start)
        while waiting:
            value = SList((waiting.pop(), value))
        items.append(value)
        if one and len(stack) == 1:
            rest = _TOKEN.match(text, pos)
            if rest[1] is not None:
                raise _error(text, rest.start(1), "trailing data after datum")
            return top


def read(text: str) -> Sexp:
    """Parse exactly one datum.

    Anything beyond the datum other than whitespace and comments is an
    error; use read_all for form sequences.
    """
    return _read(text, one=True)[0]


def read_all(text: str) -> list[Sexp]:
    """Parse a whole file worth of data, in order."""
    return _read(text, one=False)


def _quote_string(text: str) -> str:
    """*text* as a canonical string literal: only \\ and \" are escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _print_into(value: Sexp, out: list[str]) -> None:
    if isinstance(value, SList):
        out.append("(")
        for i, item in enumerate(value.items):
            if i:
                out.append(" ")
            _print_into(item, out)
        out.append(")")
    elif isinstance(value, Symbol):
        out.append(value.name)
    elif isinstance(value, String):
        out.append(_quote_string(value.value))
    elif isinstance(value, Integer):
        out.append(str(value.value))
    elif isinstance(value, Boolean):
        out.append("#t" if value.value else "#f")
    elif isinstance(value, Keyword):
        out.append("#:")
        out.append(value.name)
    else:
        raise TypeError(f"not a sexp: {value!r}")


def print_canonical(value: Sexp) -> str:
    """Render one datum on one line: single spaces, no abbreviations,
    strings escaped with \\\" and \\\\ only."""
    out: list[str] = []
    _print_into(value, out)
    return "".join(out)


@dataclass(frozen=True)
class Digest:
    """A SHA-256 digest (32 raw bytes)."""

    data: bytes

    def __post_init__(self):
        if len(self.data) != 32:
            raise ValueError("digest must be 32 bytes")

    @property
    def hex(self) -> str:
        return self.data.hex()


def sha256_digest(payload: bytes) -> Digest:
    return Digest(hashlib.sha256(payload).digest())


def hash_sexp(value: Sexp) -> Digest:
    """Digest of the UTF-8 canonical text of *value*."""
    return sha256_digest(print_canonical(value).encode("utf-8"))
