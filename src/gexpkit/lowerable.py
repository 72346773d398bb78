"""Compilers for objects embedded in staged code.

Any Python object can sit inside an escape as long as a compiler is
registered for its type.  Lowering turns the object into a store item
(a store path or a derivation); expansion turns the lowered item into
the string spliced into the residual program.  Results are cached per
(object, system, target) on the store so shared objects lower once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from .gexp import Gexp, gexp_outputs


class LoweringError(Exception):
    pass


@dataclass(eq=False)
class Package:
    """A buildable package: metadata plus a staged build program."""

    name: str
    version: str
    build: Gexp
    outputs: tuple = ("out",)
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.build, Gexp):
            raise LoweringError(f"package {self.name}: build must be a gexp")
        self.outputs = tuple(self.outputs)
        extra = [o for o in gexp_outputs(self.build) if o not in self.outputs]
        if extra:
            raise LoweringError(
                f"package {self.name} build references undeclared "
                f"outputs: {', '.join(sorted(extra))}")

    def __repr__(self):
        return f"<package {self.name}-{self.version}>"


@dataclass(eq=False)
class LocalFile:
    """A file read from the local filesystem at lowering time."""

    path: str
    name: Optional[str] = None

    def __post_init__(self):
        if self.name is None:
            self.name = os.path.basename(self.path)

    def __repr__(self):
        return f"<local-file {self.path}>"


@dataclass(eq=False)
class PlainFile:
    """A file with inline content."""

    name: str
    content: bytes

    def __post_init__(self):
        if isinstance(self.content, str):
            self.content = self.content.encode("utf-8")

    def __repr__(self):
        return f"<plain-file {self.name}>"


@dataclass(eq=False)
class FileAppend:
    """A lowerable object whose expansion is another object's expansion
    with literal suffixes appended (e.g. a path inside a package)."""

    base: object
    suffixes: tuple = ()

    def __repr__(self):
        return f"<file-append {self.base!r} {''.join(self.suffixes)!r}>"


def file_append(base, *suffixes) -> FileAppend:
    return FileAppend(base, tuple(str(s) for s in suffixes))


@dataclass(frozen=True)
class GexpCompiler:
    """How to lower (and optionally expand) one object type."""

    type_tag: type
    lower: Callable
    expand: Optional[Callable] = None


class Registry:
    def __init__(self):
        self._compilers: dict[type, GexpCompiler] = {}

    def register(self, compiler: GexpCompiler) -> None:
        if compiler.type_tag in self._compilers:
            raise LoweringError(
                f"compiler already registered for {compiler.type_tag.__name__}")
        self._compilers[compiler.type_tag] = compiler

    def find(self, obj) -> GexpCompiler:
        compiler = self._compilers.get(type(obj))
        if compiler is not None:
            return compiler
        for compiler in self._compilers.values():
            if isinstance(obj, compiler.type_tag):
                return compiler
        raise LoweringError(f"no compiler registered for {type(obj).__name__}")


default_registry = Registry()


def register_compiler(compiler: GexpCompiler):
    default_registry.register(compiler)


def lower_object(obj, store, system: str, target: Optional[str] = None):
    """Lower *obj* for (system, target), memoized on the store."""
    key = (id(obj), system, target)
    hit = store.lower_cache.get(key)
    if hit is not None:
        return hit[0]
    compiler = default_registry.find(obj)
    lowered = compiler.lower(obj, store, system, target)
    # The object rides along so its id stays unique for the cache's life.
    store.lower_cache[key] = (lowered, obj)
    return lowered


def expand_object(obj, lowered) -> str:
    compiler = default_registry.find(obj)
    if compiler.expand is not None:
        return compiler.expand(obj, lowered)
    return default_expansion(lowered)


def default_expansion(lowered) -> str:
    from .store import Derivation, StorePath

    if isinstance(lowered, StorePath):
        return str(lowered)
    if isinstance(lowered, Derivation):
        out = lowered.outputs.get("out")
        if out is None:
            raise LoweringError(
                f"derivation {lowered.name} has no 'out' output to expand")
        return str(out)
    raise LoweringError(f"cannot expand {type(lowered).__name__}")


def make_resolver(store):
    """Resolver handed to gexp serialization: lower, expand, splice as
    a string literal."""
    from .sexp import String

    def resolve(obj, system: str, target: Optional[str]):
        lowered = lower_object(obj, store, system, target)
        return String(expand_object(obj, lowered))

    return resolve


def _lower_package(pkg: Package, store, system, target):
    from .store import gexp_to_derivation

    return gexp_to_derivation(store, f"{pkg.name}-{pkg.version}", pkg.build,
                              system=system, target=target)


def _lower_local_file(lf: LocalFile, store, system, target):
    try:
        with open(lf.path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise LoweringError(f"cannot read {lf.path}: {exc}") from exc
    return store.intern_file(data, lf.name)


def _lower_plain_file(pf: PlainFile, store, system, target):
    return store.intern_file(pf.content, pf.name)


def _lower_file_append(fa: FileAppend, store, system, target):
    return lower_object(fa.base, store, system, target)


def _expand_file_append(fa: FileAppend, lowered) -> str:
    return expand_object(fa.base, lowered) + "".join(fa.suffixes)


default_registry.register(GexpCompiler(Package, _lower_package))
default_registry.register(GexpCompiler(LocalFile, _lower_local_file))
default_registry.register(GexpCompiler(PlainFile, _lower_plain_file))
default_registry.register(GexpCompiler(FileAppend, _lower_file_append,
                                       _expand_file_append))
