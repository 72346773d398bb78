"""Build-side module files: naming, import closure, store interning.

A module name like ``(demo util a)`` maps to the relative path
``demo/util/a.scm``.  Module files start with a ``(define-module ...)``
header whose ``#:use-module`` clauses declare imports; the closure
walk follows those edges depth-first, keeping first occurrences.

The arity check of a built-in procedure lives here too, so the host
evaluator (``gexp``) and the builder share it without the builder
loading ``gexp``.
"""

from __future__ import annotations

import hashlib
import io
import sys
from dataclasses import dataclass
from pathlib import Path
from types import FunctionType
from typing import Iterable, Optional, Sequence

from .sexp import (Keyword, Sexp, SList, Symbol, print_canonical, read_all,
                   symbol_text_ok)

MODULE_SUFFIX = ".scm"


class ModuleError(Exception):
    pass


@dataclass(frozen=True)
class ModuleName:
    parts: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ModuleError("empty module name")
        for part in self.parts:
            if not symbol_text_ok(part):
                raise ModuleError(f"invalid module name component: {part!r}")

    @property
    def relpath(self) -> str:
        return "/".join(self.parts) + MODULE_SUFFIX

    def __str__(self):
        return "(" + " ".join(self.parts) + ")"

    @classmethod
    def from_sexp(cls, value: Sexp) -> "ModuleName":
        if (isinstance(value, SList) and value.items
                and all(isinstance(i, Symbol) for i in value.items)):
            return cls(tuple(i.name for i in value.items))
        raise ModuleError(f"not a module name: {print_canonical(value)}")


def coerce_module_names(value) -> tuple[ModuleName, ...]:
    """Accept the shapes module lists show up in: ModuleName values,
    ModuleFile values, sexp lists of symbol lists, or plain sequences."""
    if isinstance(value, ModuleName):
        return (value,)
    if isinstance(value, ModuleFile):
        return (value.name,)
    if isinstance(value, SList):
        if value.items and all(isinstance(i, Symbol) for i in value.items):
            return (ModuleName.from_sexp(value),)
        return tuple(n for item in value.items for n in coerce_module_names(item))
    if isinstance(value, (list, tuple)):
        return tuple(n for item in value for n in coerce_module_names(item))
    raise ModuleError(f"not a module name list: {value!r}")


@dataclass(frozen=True)
class ModuleFile:
    name: ModuleName
    source: tuple[Sexp, ...]
    imports: tuple[ModuleName, ...]

    @property
    def canonical_text(self) -> str:
        return "\n".join(print_canonical(form) for form in self.source) + "\n"


def parse_module_source(text: str, expected: ModuleName) -> ModuleFile:
    """Parse module text and check the header against the path-derived name."""
    forms = read_all(text)
    if not forms:
        raise ModuleError(f"module {expected} is empty")
    head = forms[0]
    if not (isinstance(head, SList) and len(head) >= 2
            and head[0] == Symbol("define-module")):
        raise ModuleError(f"module {expected} lacks a (define-module ...) header")
    declared = ModuleName.from_sexp(head[1])
    if declared != expected:
        raise ModuleError(
            f"module header {declared} does not match its path-derived name {expected}")
    imports = []
    rest = head.items[2:]
    i = 0
    while i < len(rest):
        item = rest[i]
        if isinstance(item, Keyword):
            if i + 1 >= len(rest):
                raise ModuleError(f"dangling #:{item.name} in header of {expected}")
            if item.name == "use-module":
                imports.append(ModuleName.from_sexp(rest[i + 1]))
            i += 2
        else:
            i += 1
    return ModuleFile(expected, tuple(forms), tuple(imports))


def read_source(path: Path, reads: Optional[dict] = None) -> str:
    """The UTF-8 text of the file at *path*, newlines translated as in
    text mode; *reads*, when given, maps *path* to the SHA-256 of the
    bytes read."""
    data = path.read_bytes()
    if reads is not None:
        reads[str(path)] = hashlib.sha256(data).hexdigest()
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()


def load_module(name: ModuleName, search_path: Sequence,
                reads: Optional[dict] = None) -> ModuleFile:
    """Parse the first ``name.relpath`` found under *search_path*;
    *reads*, when given, records each candidate path probed (see
    `read_source`), with None for one found absent."""
    for directory in search_path:
        candidate = Path(directory) / name.relpath
        if candidate.is_file():
            try:
                text = read_source(candidate, reads)
            except UnicodeDecodeError as exc:
                raise ModuleError(f"{candidate}: not UTF-8 text: {exc}") from None
            return parse_module_source(text, name)
        if reads is not None:
            reads[str(candidate)] = None
    searched = ":".join(str(d) for d in search_path) or "<empty>"
    raise ModuleError(f"module not found: {name} (searched {searched})")


def source_module_closure(names: Iterable, search_path: Sequence,
                          reads: Optional[dict] = None) -> list[ModuleFile]:
    """Named modules plus everything they import, transitively.

    Depth-first, first occurrence wins, so ``A -> B -> C`` comes out as
    [A, B, C].  Import cycles are an error.  *reads* is passed to
    `load_module`.  The walk keeps its own stack, so an import chain is
    bounded by memory, not by recursion.
    """
    out: list[ModuleFile] = []
    entered: set[ModuleName] = set()
    open_names: set[ModuleName] = set()
    stack = [(None, iter(coerce_module_names(names)))]
    while stack:
        for name in stack[-1][1]:
            if name in open_names:
                chain = " -> ".join(str(n) for n, _ in stack[1:])
                raise ModuleError(f"cyclic module imports: {chain} -> {name}")
            if name not in entered:
                entered.add(name)
                open_names.add(name)
                out.append(load_module(name, search_path, reads))
                stack.append((name, iter(out[-1].imports)))
                break
        else:
            open_names.discard(stack.pop()[0])
    return out


def intern_module_closure(store, files: Sequence[ModuleFile]):
    """Write the module files into *store* as one directory item.

    The item mirrors the module paths and is content-addressed over the
    canonical file texts, so editing a module body (but not its
    comments) changes the store path.
    """
    entries: dict[str, bytes] = {}
    for module in files:
        relpath = module.name.relpath
        text = module.canonical_text.encode("utf-8")
        if entries.get(relpath, text) != text:
            raise ModuleError(f"conflicting contents for module {module.name}")
        entries[relpath] = text
    return store.intern_dir(entries, "modules")


def _arity(fn: FunctionType, skip: int = 0) -> tuple[int, int]:
    """The fewest and the most positional arguments *fn* takes after its
    first *skip* parameters, read off its code; sys.maxsize for *args."""
    code = fn.__code__
    most = code.co_argcount - skip
    least = most - len(fn.__defaults__ or ())
    if code.co_flags & 0x04:  # CO_VARARGS
        most = sys.maxsize
    return least, most


def _arity_message(name: str, least: int, most: int, count: int) -> str:
    if least == most:
        wanted = str(least)
    elif most == sys.maxsize:
        wanted = f"at least {least}"
    else:
        wanted = f"{least} to {most}"
    return f"{name}: expected {wanted} arguments, got {count}"
