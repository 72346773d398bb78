"""Lowering: embedded objects, their compilers, gexps to derivations.

Any Python object can sit inside an escape as long as a compiler is
registered for its type.  Lowering turns the object into a store item
(a store path or a derivation); expansion turns the lowered item into
the string spliced into the residual program.  A `Lowering` carries
the store and the system through one lowering run and memoizes per
(object, target), so shared objects lower once and each derivation is
written once.

`load_deployment` reads a deployment file (the input of ``gexpkit
lower`` and ``build``) and evaluates it to the gexp that gets lowered.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Optional

from .gexp import (Gexp, HostEnv, StagingError, _head_name, eval_host,
                   gexp_inputs, gexp_modules, gexp_outputs, gexp_to_sexp)
from .modules import (intern_module_closure, read_source,
                      source_module_closure)
from .sexp import SList, String, Symbol, print_canonical, read_all
from .store import (DEFAULT_SYSTEM, RESERVED_VARIABLES, Derivation, Store,
                    StorePath, output_path, validate_store_name,
                    validate_system, write_derivation)


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
    for cls in type(obj).__mro__:
        if cls in _COMPILERS:
            return _COMPILERS[cls]
    raise LoweringError(f"no compiler registered for {type(obj).__name__}")


class Lowering:
    """One lowering run (a CLI command or a `gexp_to_derivation` call):
    the store, the system, and memos that last as long as the run.
    ``lowered`` maps (object id, target) to (lowered item, object) and
    ``written`` maps a derivation's id to (``.drv`` path, derivation);
    holding the object keeps its id from being reused meanwhile.  Each
    derivation is written after its inputs, so ``written`` in order, with
    repeated paths dropped, is the build plan of what was lowered.  The
    store memoizes the derivations, so their inputs are checked without
    reading them back.  ``reads`` maps the path of every host file the
    run read to the SHA-256 hex of its bytes, or to None for a module
    candidate found absent."""

    def __init__(self, store: Store, system: str = DEFAULT_SYSTEM):
        self.store = store
        self.system = validate_system(system)
        self.lowered: dict = {}
        self.written: dict = {}
        self.reads: dict[str, Optional[str]] = {}
        self._running = None  # the walk's frame whose compiler runs

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


class _Need(BaseException):
    """Stops a compiler that asked for objects not lowered yet; not an
    `Exception`, so a compiler's ``except Exception`` lets it pass."""


class _Frame:
    """An object on the walk's stack: the answers to its compiler's
    requests, in order, each with the types and targets asked for; and
    the request waiting for one (``need``), with its objects still to
    lower, last first (``pending``)."""

    def __init__(self, obj=None, target=None):
        self.obj, self.target = obj, target
        self.answers, self.asked, self.need, self.pending = [], 0, None, []


def lower_object(obj, lowering: Lowering, target: Optional[str] = None):
    """Lower *obj* for *target*, memoized on *lowering*.

    One walk on its own stack runs the compilers.  A compiler asking for
    objects not yet lowered stops (`_Need`); the walk lowers them, then
    runs the compiler again, and each request of the new run gets the
    answer to the same request of the last: the lowered items, or the
    exception a compiler raised, so a compiler must ask in the same
    order each run.  A dependency chain is bounded by memory, not by
    recursion, and a cycle is a `LoweringError` naming it."""
    return _lower(lowering, [(obj, target)])[0]


def _lower(lowering: Lowering, pairs: list) -> list:
    """The lowered items of the (object, target) *pairs*, asked for by
    the running compiler or, outside the walk, by the caller."""
    frame = lowering._running or _Frame()
    frame.asked += 1
    shape = [(type(o), t) for o, t in pairs]
    if frame.asked > len(frame.answers):
        lowered = lowering.lowered
        missing = [p for p in pairs if (id(p[0]), p[1]) not in lowered]
        if not missing:
            frame.answers.append(
                (shape, [lowered[(id(o), t)][0] for o, t in pairs]))
        else:
            frame.need, frame.pending = (shape, pairs), missing[::-1]
            if lowering._running is not None:
                raise _Need
            _walk(lowering, frame)
    asked, got = frame.answers[frame.asked - 1]
    if asked != shape:
        raise LoweringError(f"the compiler of {frame.obj!r} asked for "
                            f"other objects when run again")
    if isinstance(got, Exception):
        raise got
    return got


def _walk(lowering: Lowering, caller: _Frame) -> None:
    """Lower what *caller* waits for, and answer it."""
    lowered = lowering.lowered
    opened: dict = {}  # (object id, target) on the stack -> its index
    stack = [caller]
    while True:
        frame = stack[-1]
        if frame.pending:
            dep, dep_target = frame.pending.pop()
            dep_key = (id(dep), dep_target)
            if dep_key in opened:
                cycle = [f.obj for f in stack[opened[dep_key]:]] + [dep]
                raise LoweringError(
                    "dependency cycle: " + " -> ".join(map(repr, cycle)))
            if dep_key not in lowered:
                opened[dep_key] = len(stack)
                stack.append(_Frame(dep, dep_target))
            continue
        if frame.need is not None:
            shape, pairs = frame.need
            frame.answers.append(
                (shape, [lowered[(id(o), t)][0] for o, t in pairs]))
            frame.need = None
        if frame is caller:
            return
        frame.asked = 0
        lowering._running = frame
        try:
            result = _compiler(frame.obj).lower(frame.obj, lowering,
                                                frame.target)
        except _Need:
            continue
        except Exception as exc:
            asker = stack[-2]
            asker.answers.append((asker.need[0], exc))
            asker.need, asker.pending = None, []
        else:
            lowered[(id(frame.obj), frame.target)] = (result, frame.obj)
        finally:
            lowering._running = None
        del opened[(id(frame.obj), frame.target)]
        stack.pop()


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

    The embedded objects lower first, in one request, under (system,
    target) honoring native flags, and each becomes an input drv or
    source.  The residual program is interned as ``<name>-builder``,
    each referenced output (none may be named after one of
    `RESERVED_VARIABLES`) gets an env entry mapping its name to its
    output path, and the imported-module closure (if any), found on
    ``store.module_path``, is interned with its store path in env
    MODULE_PATH.  The derivation file is written before returning.
    """
    validate_store_name(name)
    if target is not None:
        validate_system(target)
    out_names = tuple(gexp_outputs(g)) or ("out",)
    for out in out_names:
        if out in RESERVED_VARIABLES:
            raise LoweringError(f"{name}: output '{out}' is a builder variable")
    store, system = lowering.store, lowering.system

    pairs = [(ref.payload.obj, None if ref.native else target)
             for ref in gexp_inputs(g)]
    items = _lower(lowering, pairs)
    drv_inputs: dict[str, StorePath] = {}
    source_inputs: dict[str, StorePath] = {}
    for lowered in items:
        if isinstance(lowered, Derivation):
            drv_path = lowering.write(lowered)
            drv_inputs.setdefault(str(drv_path), drv_path)
        elif isinstance(lowered, StorePath):
            source_inputs.setdefault(str(lowered), lowered)
        else:
            raise LoweringError(
                f"compiler returned {type(lowered).__name__}, "
                f"expected a store path or derivation")

    got = {(id(o), t): item for (o, t), item in zip(pairs, items)}
    residual = gexp_to_sexp(g, system, target, lambda obj, _system, t: String(
        expand_object(obj, got[(id(obj), t)])))
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

    draft = Derivation(
        name=name, system=system, target=target, builder=builder,
        input_drvs=tuple((p, ("out",)) for p in drv_inputs.values()),
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
    suffixes = []  # every suffix of the chain, last first
    while isinstance(fa, FileAppend):
        suffixes.extend(reversed(fa.suffixes))
        fa = fa.base
    return expand_object(fa, lowered) + "".join(reversed(suffixes))


register_compiler(GexpCompiler(Package, _lower_package))
register_compiler(GexpCompiler(LocalFile, _lower_local_file))
register_compiler(GexpCompiler(PlainFile, _lower_plain_file))
register_compiler(GexpCompiler(FileAppend, _lower_file_append,
                               _expand_file_append))


def _want_string(value, op: str, what: str) -> str:
    if not isinstance(value, str):
        raise StagingError(
            f"{op}: {what} must be a string, got {type(value).__name__}")
    return value


def _base_bindings(base_dir: Path, lowering: Lowering) -> dict:
    def local_file(path, name=None):
        p = Path(_want_string(path, "local-file", "the path"))
        if name is not None:
            _want_string(name, "local-file", "the name")
        resolved = p if p.is_absolute() else base_dir / p
        return LocalFile(str(resolved), name if name is not None else p.name)

    def plain_file(name, content):
        return PlainFile(_want_string(name, "plain-file", "the name"),
                         _want_string(content, "plain-file", "the content"))

    def file_append(base, *suffixes):
        return FileAppend(base, tuple(
            _want_string(s, "file-append", "a suffix") for s in suffixes))

    return {
        "local-file": local_file,
        "plain-file": plain_file,
        "file-append": file_append,
        "source-module-closure": lambda names: source_module_closure(
            names, lowering.store.module_path, lowering.reads),
    }


def _parse_package(form: SList, env: HostEnv) -> Package:
    if _head_name(form) != "package":
        raise StagingError("define-package wants a (package ...) form")
    fields: dict[str, tuple] = {}
    for item in form.items[1:]:
        if not (isinstance(item, SList) and item.items
                and isinstance(item.items[0], Symbol)):
            raise StagingError(
                "package fields must look like (field value ...)")
        fields[item.items[0].name] = item.items[1:]

    def one_string(key):
        entry = fields.pop(key, None)
        if entry is None or len(entry) != 1 or not isinstance(entry[0], String):
            raise StagingError(f"package needs a ({key} \"...\") field")
        return entry[0].value

    name = one_string("name")
    version = one_string("version")
    build_field = fields.pop("build", None)
    if build_field is None or len(build_field) != 1:
        raise StagingError("package needs a (build <gexp expression>) field")
    build_gexp = eval_host(build_field[0], env)
    if not isinstance(build_gexp, Gexp):
        raise StagingError(f"package {name}: build expression must produce a gexp")
    outputs: tuple = ("out",)
    out_field = fields.pop("outputs", None)
    if out_field is not None:
        if not all(isinstance(o, String) for o in out_field):
            raise StagingError("package outputs must be strings")
        outputs = tuple(o.value for o in out_field)
    # Remaining fields are inert metadata, kept as parsed data.
    return Package(name=name, version=version, build=build_gexp,
                   outputs=outputs, metadata=dict(fields))


def load_deployment(path: Path, lowering: Lowering) -> Gexp:
    """Read a deployment file and evaluate it to a gexp; the files read
    go into ``lowering.reads``, this one under its resolved path, as the
    CLI's trace key holds it."""
    reads: dict = {}
    try:
        forms = read_all(read_source(path, reads))
    except UnicodeDecodeError as exc:
        raise StagingError(f"{path}: not UTF-8 text: {exc}") from None
    lowering.reads[os.path.realpath(path)] = reads[str(path)]
    if not forms:
        raise StagingError(f"{path}: empty deployment file")
    bindings = _base_bindings(path.resolve().parent, lowering)
    env = HostEnv(bindings)
    for form in forms[:-1]:
        head = _head_name(form)
        if (head == "define" and len(form) == 3
                and isinstance(form.items[1], Symbol)):
            bindings[form.items[1].name] = eval_host(form.items[2], env)
        elif (head == "define-package" and len(form) == 3
                and isinstance(form.items[1], Symbol)
                and isinstance(form.items[2], SList)):
            bindings[form.items[1].name] = _parse_package(form.items[2], env)
        else:
            raise StagingError(
                f"{path}: every form before the last must be a define "
                f"or define-package")
    value = eval_host(forms[-1], env)
    if not isinstance(value, Gexp):
        raise StagingError(
            f"{path}: the last form must evaluate to a gexp, "
            f"got {type(value).__name__}")
    return value
