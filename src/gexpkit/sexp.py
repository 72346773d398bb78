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

The reader is one loop over the tokens of one ``findall`` pass, with
an explicit stack of open lists, so nesting depth is bounded by memory,
not by Python's recursion limit.  A token's offset, line and column are
worked out only when a ParseError is raised.

Where the checks run: the public constructors check their values.  The
reader, and the staging walk and templates in ``gexp``, build only valid
nodes, so they skip those checks through ``_symbol`` and ``_slist``.
Within one read, equal atom tokens share one node.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from itertools import islice

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


# A non-empty atom token that is not "#"-led; group 1 is the character
# after an optional sign, which str.isdigit must reject (such tokens lex
# as numbers).
_SYMBOL_TEXT = r"(?!#|\Z)[+-]?([^ \t\n\r()\";'`,]?)[^ \t\n\r()\";'`,]*"


def symbol_text_ok(text: str) -> bool:
    """True when *text* survives a print/read round trip as a symbol."""
    m = re.fullmatch(_SYMBOL_TEXT, text)  # compiled once, by re's cache
    return m is not None and not m[1].isdigit()


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


def _unchecked(cls, field: str):
    """A constructor of *cls* that skips its checks, for callers that
    only build valid nodes."""
    new = object.__new__

    def make(value):
        node = new(cls)
        node.__dict__[field] = value
        return node
    return make


_symbol = _unchecked(Symbol, "name")
_slist = _unchecked(SList, "items")


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

_PREFIXES = {token: _symbol(head) for token, head in {
    "'": "quote", "`": "quasiquote", ",": "unquote",
    ",@": "unquote-splicing", "#~": "gexp", "#$": "ungexp",
    "#$@": "ungexp-splicing", "#+": "ungexp-native",
    "#+@": "ungexp-native-splicing"}.items()}

_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _offset(text: str, index: int) -> int:
    """Where token *index* starts: only errors need it, so it rematches."""
    m = next(islice(_TOKEN.finditer(text), index, None))
    return m.end() if m[1] is None else m.start(1)


def _error(text: str, index: int, message: str, skip: int = 0) -> ParseError:
    """A ParseError *skip* characters after the start of token *index*."""
    offset = _offset(text, index) + skip
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - text.rfind("\n", 0, offset))


def _unescape(body: str, text: str, index: int) -> str:
    """The value of the *body* after the opening quote of token *index*."""
    def unescape(m):
        if m[1] not in _STRING_ESCAPES:
            raise _error(text, index, f"unsupported string escape: \\{m[1]}",
                         1 + m.end())
        return _STRING_ESCAPES[m[1]]
    return _ESCAPE.sub(unescape, body)


def _atom(token: str, text: str, index: int) -> Sexp:
    """The node of atom token *index* (a string literal included)."""
    if token[0] == '"':
        if len(token) == 1:  # a quote that no quote closes
            _unescape(text[_offset(text, index) + 1:], text, index)
            raise _error(text, index, "unterminated string")
        return String(_unescape(token[1:-1], text, index))
    if token == "#t":
        return Boolean(True)
    if token == "#f":
        return Boolean(False)
    if token.startswith("#:"):
        if len(token) == 2:
            raise _error(text, index, "empty keyword")
        return Keyword(token[2:])
    if token.startswith("#"):
        raise _error(text, index, f"unsupported # syntax: {token}")
    if _INTEGER_RE.fullmatch(token):
        value = int(token)
        if not INT64_MIN <= value <= INT64_MAX:
            raise _error(text, index,
                         f"integer out of signed 64-bit range: {token}")
        return Integer(value)
    head = token[1:] if token[0] in "+-" else token
    if head[:1].isdigit():
        raise _error(text, index, f"invalid numeric literal: {token}")
    return _symbol(token)


def _read(text: str, one: bool) -> list[Sexp]:
    """Read data left to right over the tokens, with an explicit stack, so
    nesting depth is bounded by memory alone.  With *one*, stop after the
    first datum and reject anything but blanks after it."""
    # Every token is non-empty but the last ones, which mark the end.
    tokens = _TOKEN.findall(text)
    atoms: dict[str, Sexp] = {}  # token -> node, so equal atoms share one
    top: list[Sexp] = []
    # One entry per open list, the top level first: its items, the
    # index of its "(" token, and the prefixes still waiting for a datum.
    stack = [(top, 0, [])]
    items, _, waiting = stack[-1]
    for index, token in enumerate(tokens):
        if token == "(":
            items, waiting = [], []
            stack.append((items, index, waiting))
            continue
        if token == ")":
            if waiting or len(stack) == 1:
                raise _error(text, index, "unexpected )")
            value = _slist(tuple(stack.pop()[0]))
            items, _, waiting = stack[-1]
        else:
            value = atoms.get(token)
            if value is None:
                if token in _PREFIXES:
                    waiting.append(_PREFIXES[token])
                    continue
                if not token:
                    if waiting or (one and len(stack) == 1):
                        raise _error(text, index, "unexpected end of input")
                    if len(stack) > 1:
                        raise _error(text, stack[-1][1], "unterminated list")
                    return top
                value = atoms[token] = _atom(token, text, index)
        while waiting:
            value = _slist((waiting.pop(), value))
        items.append(value)
        if one and len(stack) == 1:
            if tokens[index + 1]:
                raise _error(text, index + 1, "trailing data after datum")
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
