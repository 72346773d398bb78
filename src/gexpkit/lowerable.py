"""Lowering: embedded objects, their compilers, gexps to derivations.

Any Python object can sit inside an escape as long as a compiler is
registered for its type.  Lowering turns the object into a store item
(a store path or a derivation); expansion turns the lowered item into
the string spliced into the residual program.  A `Lowering` carries
the store and the system through one lowering run and memoizes per
(object, target), so shared objects lower once and each derivation is
written once.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional

from .gexp import (Gexp, gexp_inputs, gexp_modules, gexp_outputs,
                   gexp_to_sexp)
from .modules import intern_module_closure, source_module_closure
from .sexp import String, print_canonical
from .store import (DEFAULT_SYSTEM, Derivation, Store, StorePath,
                    output_path, validate_store_name, validate_system,
                    write_derivation)


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


_COMPILERS: dict[type, GexpCompiler] = {}


def register_compiler(compiler: GexpCompiler) -> None:
    if compiler.type_tag in _COMPILERS:
        raise LoweringError(
            f"compiler already registered for {compiler.type_tag.__name__}")
    _COMPILERS[compiler.type_tag] = compiler


def _compiler(obj) -> GexpCompiler:
    compiler = _COMPILERS.get(type(obj))
    if compiler is not None:
        return compiler
    for compiler in _COMPILERS.values():
        if isinstance(obj, compiler.type_tag):
            return compiler
    raise LoweringError(f"no compiler registered for {type(obj).__name__}")


class Lowering:
    """One lowering run (a CLI command or a `gexp_to_derivation` call):
    the store, the system, and memos that last as long as the run.
    ``lowered`` maps (object id, target) to (lowered item, object) and
    ``written`` maps a derivation's id to (``.drv`` path, derivation);
    holding the object keeps its id from being reused meanwhile.  The
    derivations themselves are memoized by the store, so a derivation's
    inputs are checked without reading them back.  ``reads`` records
    every host file the run read: it maps the path to the SHA-256 hex
    of the bytes read, or to None for a module candidate found absent."""

    def __init__(self, store: Store, system: str = DEFAULT_SYSTEM):
        self.store = store
        self.system = validate_system(system)
        self.lowered: dict = {}
        self.written: dict = {}
        self.reads: dict[str, Optional[str]] = {}

    def write(self, d: Derivation,
              builder_text: Optional[str] = None) -> StorePath:
        """The ``.drv`` path of *d*, written the first time *d* is seen;
        *builder_text* is the content of ``d.builder`` when the caller
        has it at hand."""
        hit = self.written.get(id(d))
        if hit is None:
            path = write_derivation(self.store, d, builder_text)
            hit = self.written[id(d)] = (path, d)
        return hit[0]


def lower_object(obj, lowering: Lowering, target: Optional[str] = None):
    """Lower *obj* for *target*, memoized on *lowering*."""
    key = (id(obj), target)
    hit = lowering.lowered.get(key)
    if hit is None:
        lowered = _compiler(obj).lower(obj, lowering, target)
        hit = lowering.lowered[key] = (lowered, obj)
    return hit[0]


def expand_object(obj, lowered) -> str:
    compiler = _compiler(obj)
    if compiler.expand is not None:
        return compiler.expand(obj, lowered)
    return default_expansion(lowered)


def default_expansion(lowered) -> str:
    if isinstance(lowered, StorePath):
        return str(lowered)
    if isinstance(lowered, Derivation):
        out = lowered.outputs.get("out")
        if out is None:
            raise LoweringError(
                f"derivation {lowered.name} has no 'out' output to expand")
        return str(out)
    raise LoweringError(f"cannot expand {type(lowered).__name__}")


def lower_gexp(lowering: Lowering, name: str, g: Gexp,
               target: Optional[str] = None) -> Derivation:
    """Lower *g* into a derivation named *name*.

    Embedded objects lower under (system, target) honoring native
    flags, the residual program is interned as ``<name>-builder``, each
    referenced output gets an env entry mapping its name to its output
    path, and the imported-module closure (if any), found on
    ``store.module_path``, is interned with its store path in env
    MODULE_PATH.  The derivation file is written before returning.
    """
    validate_store_name(name)
    if target is not None:
        validate_system(target)
    store, system = lowering.store, lowering.system

    # Inputs lower first, so the resolver below only hits the memo.
    drv_inputs: dict[str, tuple[StorePath, set]] = {}
    source_inputs: dict[str, StorePath] = {}
    for ref in gexp_inputs(g):
        effective_target = None if ref.native else target
        lowered = lower_object(ref.payload.obj, lowering, effective_target)
        if isinstance(lowered, Derivation):
            drv_path = lowering.write(lowered)
            entry = drv_inputs.setdefault(str(drv_path), (drv_path, set()))
            entry[1].add("out")
        elif isinstance(lowered, StorePath):
            source_inputs.setdefault(str(lowered), lowered)
        else:
            raise LoweringError(
                f"compiler returned {type(lowered).__name__}, "
                f"expected a store path or derivation")

    residual = gexp_to_sexp(g, system, target, lambda obj, _system, t: String(
        expand_object(obj, lower_object(obj, lowering, t))))
    builder_text = print_canonical(residual)
    builder = store.intern_file(builder_text.encode("utf-8"), f"{name}-builder")

    env: dict[str, str] = {}
    module_names = gexp_modules(g)
    if module_names:
        closure = intern_module_closure(
            store, source_module_closure(module_names, store.module_path,
                                         lowering.reads))
        source_inputs.setdefault(str(closure), closure)
        env["MODULE_PATH"] = str(closure)

    out_names = tuple(gexp_outputs(g)) or ("out",)
    draft = Derivation(
        name=name, system=system, target=target, builder=builder,
        input_drvs=tuple((p, tuple(sorted(ns))) for p, ns in drv_inputs.values()),
        input_sources=tuple(source_inputs.values()),
        outputs={n: "" for n in out_names},
        env={**env, **{n: "" for n in out_names}})
    out_paths = {n: output_path(draft, n) for n in out_names}
    env.update({n: str(p) for n, p in out_paths.items()})
    final = replace(draft, outputs=out_paths, env=env)
    lowering.write(final, builder_text)
    return final


def gexp_to_derivation(store: Store, name: str, g: Gexp,
                       system: str = DEFAULT_SYSTEM,
                       target: Optional[str] = None) -> Derivation:
    """`lower_gexp` under a fresh `Lowering` of *store* for *system*; an
    invalid *name* is reported before an invalid *system*."""
    validate_store_name(name)
    return lower_gexp(Lowering(store, system), name, g, target)


def _lower_package(pkg: Package, lowering: Lowering, target):
    return lower_gexp(lowering, f"{pkg.name}-{pkg.version}", pkg.build, target)


def _lower_local_file(lf: LocalFile, lowering: Lowering, target):
    try:
        with open(lf.path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise LoweringError(f"cannot read {lf.path}: {exc}") from exc
    lowering.reads[lf.path] = hashlib.sha256(data).hexdigest()
    return lowering.store.intern_file(data, lf.name)


def _lower_plain_file(pf: PlainFile, lowering: Lowering, target):
    return lowering.store.intern_file(pf.content, pf.name)


def _lower_file_append(fa: FileAppend, lowering: Lowering, target):
    return lower_object(fa.base, lowering, target)


def _expand_file_append(fa: FileAppend, lowered) -> str:
    return expand_object(fa.base, lowered) + "".join(fa.suffixes)


register_compiler(GexpCompiler(Package, _lower_package))
register_compiler(GexpCompiler(LocalFile, _lower_local_file))
register_compiler(GexpCompiler(PlainFile, _lower_plain_file))
register_compiler(GexpCompiler(FileAppend, _lower_file_append,
                               _expand_file_append))
