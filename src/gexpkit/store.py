"""Content-addressed store: interning, derivations, output paths.

Every store item lives at ``<prefix>/<hash32>-<name>`` where hash32 is
32 base32 characters encoding the first 20 bytes of a SHA-256 over a
fingerprint string.  The prefix is deliberately excluded from all
fingerprints so a store can be relocated (or recreated elsewhere) and
keep the same hashes; with the default relative prefix this also makes
derivation files byte-identical across machines.

Fingerprints, one per item kind::

    source:sha256:<hex of content>:<name>            plain files, directories
    text:sha256:<hex of drv text>:<name>.drv         derivation files
    output:<out>:sha256:<hex of blanked text>:<name> output paths

where a directory's content is ``<len>:<relpath><len>:<bytes>`` per
file in relative path order (decimal lengths), and "blanked text" is
the canonical derivation text with every output path field emptied
(outputs map values and their env copies).
Nothing here knows about gexps, lowering or modules; those build on it.

The build plan lives here too: (``.drv`` path, outputs) for each
member of a derivation's closure, dependencies first.  The CLI's plan
is the order its lowering wrote the closure in, each package's inputs
in the order its gexp names them; `plan` and `build` of a `Derivation`
walk the store instead, inputs in ``.drv`` text order.  `build` runs
the plan, and `_realise` builds one member whose outputs are missing:
it imports the evaluator (``builder``) only then, so a build that finds
everything built never loads it.  The builder sees the derivation's
env, SYSTEM, TARGET, TMPDIR, and its outputs as paths in a staging
directory; they are committed to the store only after it finishes and
every declared output exists, and the staging directory is removed.
"""

from __future__ import annotations

import hashlib
import os
import re
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .sexp import (Boolean, ParseError, Sexp, SList, String, Symbol,
                   _quote_string, print_canonical, read, read_all)

DEFAULT_SYSTEM = "x86_64-linux"

NIX32_ALPHABET = "0123456789abcdfghijklmnpqrsvwxyz"

_NAME_RE = re.compile(r"[A-Za-z0-9+._=-]+\Z")
_SYSTEM_RE = re.compile(r"[A-Za-z0-9_]+(-[A-Za-z0-9_]+)+\Z")
_HASH_RE = re.compile(f"[{NIX32_ALPHABET}]{{32}}")


class StoreError(Exception):
    pass


class BuildError(Exception):
    """A build failed, or the store holds a dependency cycle; the CLI
    exits 2.  *derivation* names the ``.drv`` at fault, when known."""

    def __init__(self, message, derivation: Optional[str] = None):
        super().__init__(message)
        self.derivation = derivation


def base32_hash(data: bytes) -> str:
    """Base32 over the custom alphabet, five-bit groups read from the
    highest offset down (20 bytes encode to exactly 32 characters): the
    digits of *data* read as one little-endian integer."""
    n = int.from_bytes(data, "little")
    out_len = (len(data) * 8 + 4) // 5
    return "".join([NIX32_ALPHABET[(n >> (5 * i)) & 0x1F]
                    for i in range(out_len - 1, -1, -1)])


def validate_store_name(name: str) -> str:
    if not _NAME_RE.fullmatch(name or ""):
        raise StoreError(f"invalid store name: {name!r}")
    return name


def validate_system(tag: str) -> str:
    if not _SYSTEM_RE.fullmatch(tag or ""):
        raise StoreError(f"invalid system tag: {tag!r}")
    return tag


@dataclass(frozen=True)
class StorePath:
    prefix: str
    hash32: str
    name: str

    def __post_init__(self):
        if not self.prefix or self.prefix.endswith("/"):
            raise StoreError(f"invalid store prefix: {self.prefix!r}")
        if not _HASH_RE.fullmatch(self.hash32):
            raise StoreError(f"invalid store hash: {self.hash32!r}")
        validate_store_name(self.name)

    def __str__(self):
        return f"{self.prefix}/{self.hash32}-{self.name}"

    @property
    def fs(self) -> Path:
        """Filesystem location; relative prefixes resolve against the
        current working directory, by design."""
        return Path(str(self))


def parse_store_path(text: str) -> StorePath:
    prefix, _, base = text.rpartition("/")
    if prefix and len(base) > 33 and base[32] == "-":
        try:
            return StorePath(prefix, base[:32], base[33:])
        except StoreError:
            pass
    raise StoreError(f"not a store path: {text!r}")


def _fingerprint_hash(kind: str, content_hex: str, name: str) -> str:
    fingerprint = f"{kind}:sha256:{content_hex}:{name}"
    return base32_hash(hashlib.sha256(fingerprint.encode("utf-8")).digest()[:20])


def _make_tree_read_only(path: str) -> None:
    if os.path.isfile(path):
        os.chmod(path, 0o444)
        return
    for dirpath, dirnames, filenames in os.walk(path, topdown=False):
        for fname in filenames:
            os.chmod(os.path.join(dirpath, fname), 0o444)
        os.chmod(dirpath, 0o555)


def rmtree_rw(path: str) -> None:
    """Remove a tree that may have been made read-only."""
    if os.path.isfile(path) or os.path.islink(path):
        os.remove(path)
        return
    for dirpath, dirnames, filenames in os.walk(path):
        os.chmod(dirpath, 0o755)
        for fname in filenames:
            try:
                os.chmod(os.path.join(dirpath, fname), 0o644)
            except OSError:
                pass
    shutil.rmtree(path, ignore_errors=True)


class Store:
    """A store rooted at *prefix* (kept verbatim for path rendering).

    Build-side modules are searched for on *module_path*, fixed for the
    store's life.

    Every item enters through ``commit``, so interning is atomic and
    idempotent: re-interning existing content is a no-op (the
    ``writes`` counter only moves on actual materialization), and
    concurrent writers, threads or processes, agree without a lock.

    ``derivations`` is the one derivation memo, for the Store's life:
    it maps a ``.drv`` path string to the bytes and the ``Derivation``
    last written or read there.  A ``.drv`` file is still read on every
    ``read_derivation``, so a rewritten file is parsed afresh and never
    answered from a stale entry.  Every caller gets one shared
    ``Derivation`` per entry and must not mutate it.
    """

    def __init__(self, prefix="./store", module_path: Sequence = ()):
        self.prefix = str(prefix).rstrip("/")
        if not self.prefix:
            raise StoreError(f"invalid store prefix: {str(prefix)!r}")
        Path(self.prefix).mkdir(parents=True, exist_ok=True)
        self.writes = 0
        self.derivations: dict[str, tuple[bytes, Derivation]] = {}
        self.module_path = tuple(module_path)

    def contains(self, path: StorePath) -> bool:
        return path.prefix == self.prefix and os.path.exists(str(path))

    def intern_file(self, data: bytes, name: str) -> StorePath:
        return self._intern_bytes("source", data, name)

    def _intern_bytes(self, kind: str, data: bytes, name: str) -> StorePath:
        validate_store_name(name)
        content_hex = hashlib.sha256(data).hexdigest()
        path = StorePath(self.prefix, _fingerprint_hash(kind, content_hex, name), name)
        return self.commit(path, lambda tmp: Path(tmp).write_bytes(data))

    def intern_dir(self, entries: Mapping[str, bytes], name: str) -> StorePath:
        """Intern a directory, content-addressed over its entries (see
        the module docstring): each path and content is length-prefixed,
        so no two directories share a fingerprint."""
        validate_store_name(name)
        blob = b""
        for relpath in sorted(entries):
            if relpath.startswith("/") or ".." in relpath.split("/"):
                raise StoreError(f"bad relative path in directory item: {relpath!r}")
            key, content = relpath.encode("utf-8"), entries[relpath]
            blob += b"%d:%s%d:%s" % (len(key), key, len(content), content)
        content_hex = hashlib.sha256(blob).hexdigest()
        path = StorePath(self.prefix, _fingerprint_hash("source", content_hex, name), name)

        def fill(tmp):
            os.mkdir(tmp)
            for relpath in sorted(entries):
                dest = Path(tmp) / relpath
                dest.parent.mkdir(parents=True, exist_ok=True)
                dest.write_bytes(entries[relpath])

        return self.commit(path, fill)

    def commit(self, path: StorePath, fill) -> StorePath:
        """Add the item that ``fill(tmp)`` creates at *path*.

        *fill* makes a file or a directory tree at the fresh name *tmp*
        under the prefix; it is made read-only and published, a file by
        ``link(2)`` and a directory by ``rename(2)``.  Neither replaces a
        file or a non-empty directory, so the first writer wins and no
        reader sees a missing or partial item (the store needs hard
        links).  A loser fails with *path* present, which is success;
        only the winner adds to ``writes``, but ``rename`` may replace
        an identical empty directory, counting that race twice.
        """
        dest = str(path)
        if os.path.exists(dest):
            return path
        tmp = os.path.join(self.prefix, f".tmp-{os.urandom(8).hex()}")
        try:
            fill(tmp)
            _make_tree_read_only(tmp)
            try:
                (os.rename if os.path.isdir(tmp) else os.link)(tmp, dest)
                self.writes += 1
            except OSError:
                if not os.path.exists(dest):
                    raise
        finally:
            if os.path.lexists(tmp):
                rmtree_rw(tmp)
        return path


@dataclass(frozen=True)
class Derivation:
    """A build recipe.  All fields take part in hashing; env carries the
    output paths (and MODULE_PATH when modules are imported) so builder
    programs reach their outputs through getenv."""

    name: str
    system: str
    target: Optional[str]
    builder: StorePath
    input_drvs: tuple = ()      # ((drv path, (output names...)), ...)
    input_sources: tuple = ()   # (store paths...)
    outputs: Mapping[str, object] = field(default_factory=dict)
    env: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        validate_store_name(self.name)
        validate_system(self.system)
        if self.target is not None:
            validate_system(self.target)
        if not self.outputs:
            raise StoreError("derivation needs at least one output")


def _derivation_text(d: Derivation, blank: bool) -> str:
    """The canonical text of *d*, with every output path field emptied
    (outputs map values and their env copies) when *blank*."""
    q = _quote_string
    parts = ["(derivation (name ", q(d.name), ") (system ", q(d.system),
             ") (target ", "#f" if d.target is None else q(d.target),
             ") (builder ", q(str(d.builder)), ") (input-drvs"]
    for path, names in sorted(d.input_drvs, key=lambda e: str(e[0])):
        parts.append(" (" + q(str(path)))
        parts.extend(" " + q(str(n)) for n in sorted(names))
        parts.append(")")
    parts.append(") (input-sources")
    parts.extend(" " + q(str(p)) for p in sorted(d.input_sources, key=str))
    parts.append(") (outputs")
    for k in sorted(d.outputs):
        parts.append(f" ({q(str(k))} {q('' if blank else str(d.outputs[k]))})")
    parts.append(") (env")
    for k in sorted(d.env):
        value = "" if blank and k in d.outputs else str(d.env[k])
        parts.append(f" ({q(str(k))} {q(value)})")
    parts.append("))")
    return "".join(parts)


def derivation_text(d: Derivation) -> str:
    """Canonical serialization; the exact bytes stored in .drv files."""
    return _derivation_text(d, blank=False)


def _canonical(d: Derivation) -> Derivation:
    """*d* as its text reads back, for a *d* whose paths are all
    `StorePath`s: inputs, sources, outputs and env in text order,
    output names sorted, env values as strings."""
    return replace(
        d, input_drvs=tuple((path, tuple(str(n) for n in sorted(names)))
                            for path, names in sorted(d.input_drvs,
                                                      key=lambda e: str(e[0]))),
        input_sources=tuple(sorted(d.input_sources, key=str)),
        outputs={str(k): d.outputs[k] for k in sorted(d.outputs)},
        env={str(k): str(d.env[k]) for k in sorted(d.env)})


def derivation_from_sexp(value: Sexp) -> Derivation:
    def fail():
        raise StoreError(f"not a derivation: {print_canonical(value)[:120]}")

    if not (isinstance(value, SList) and value.items
            and value.items[0] == Symbol("derivation")):
        fail()
    fields = {}
    for item in value.items[1:]:
        if not (isinstance(item, SList) and item.items
                and isinstance(item.items[0], Symbol)):
            fail()
        fields[item.items[0].name] = item.items[1:]

    def one_string(key):
        entry = fields.get(key)
        if entry is None or len(entry) != 1 or not isinstance(entry[0], String):
            fail()
        return entry[0].value

    name = one_string("name")
    system = one_string("system")
    target_field = fields.get("target")
    if target_field is None or len(target_field) != 1:
        fail()
    if target_field[0] == Boolean(False):
        target = None
    elif isinstance(target_field[0], String):
        target = target_field[0].value
    else:
        fail()
    builder = parse_store_path(one_string("builder"))

    input_drvs = []
    for entry in fields.get("input-drvs", ()):
        if not (isinstance(entry, SList) and len(entry) >= 2
                and all(isinstance(i, String) for i in entry.items)):
            fail()
        input_drvs.append((parse_store_path(entry.items[0].value),
                           tuple(i.value for i in entry.items[1:])))
    sources = []
    for entry in fields.get("input-sources", ()):
        if not isinstance(entry, String):
            fail()
        sources.append(parse_store_path(entry.value))

    def pairs(key):
        out = {}
        for entry in fields.get(key, ()):
            if not (isinstance(entry, SList) and len(entry) == 2
                    and isinstance(entry.items[0], String)
                    and isinstance(entry.items[1], String)):
                fail()
            out[entry.items[0].value] = entry.items[1].value
        return out

    if "outputs" not in fields or "env" not in fields:
        fail()
    outputs = {k: parse_store_path(v) for k, v in pairs("outputs").items()}
    return Derivation(name=name, system=system, target=target, builder=builder,
                      input_drvs=tuple(input_drvs), input_sources=tuple(sources),
                      outputs=outputs, env=pairs("env"))


def output_path(d: Derivation, out_name: str) -> StorePath:
    """Deterministic output path: hash of the derivation text with all
    output path fields blanked, so the result does not depend on itself."""
    if out_name not in d.outputs:
        raise StoreError(f"derivation {d.name} has no output '{out_name}'")
    text = _derivation_text(d, blank=True)
    content_hex = hashlib.sha256(text.encode("utf-8")).hexdigest()
    hash32 = base32_hash(hashlib.sha256(
        f"output:{out_name}:sha256:{content_hex}:{d.name}".encode("utf-8")
    ).digest()[:20])
    path_name = d.name if out_name == "out" else f"{d.name}-{out_name}"
    return StorePath(d.builder.prefix, hash32, path_name)


_REFERENCE_RE_CACHE: dict[str, re.Pattern] = {}


def find_store_references(text: str, prefix: str) -> list[str]:
    """Store paths (under *prefix*) mentioned in *text*, in order."""
    pattern = _REFERENCE_RE_CACHE.get(prefix)
    if pattern is None:
        pattern = re.compile(
            re.escape(prefix) + r"/[" + NIX32_ALPHABET + r"]{32}-[A-Za-z0-9+._=-]+")
        _REFERENCE_RE_CACHE[prefix] = pattern
    return pattern.findall(text)


def write_derivation(store: Store, d: Derivation,
                     builder_text: Optional[str] = None) -> StorePath:
    """Serialize *d* into the store and enter it in the memo.

    Every write checks: all referenced paths (builder, sources, input
    derivation files) must already exist, and every store path
    mentioned by the builder text must be accounted for by the input
    lists or the outputs.  A mention counts by its hash part, as Nix
    scans for references, so text after an allowed path ("<path>/bin",
    "<path>-suffix") is allowed too.  Input derivations come from the
    memo when it has them; *builder_text*, when the caller has it at hand, is the
    content of ``d.builder``, which is otherwise read from the store.
    """
    data = derivation_text(d).encode("utf-8")
    _check_references(store, d, builder_text)
    path = store._intern_bytes("text", data, f"{d.name}.drv")
    if str(path) not in store.derivations:
        store.derivations[str(path)] = (data, _canonical(d))
    return path


def _check_references(store: Store, d: Derivation,
                      builder_text: Optional[str]) -> None:
    for path in (d.builder, *d.input_sources, *(p for p, _ in d.input_drvs)):
        if not isinstance(path, StorePath) or not store.contains(path):
            raise StoreError(f"dangling reference in {d.name}: {path}")
    for out, path in d.outputs.items():
        if not isinstance(path, StorePath):
            raise StoreError(f"unfilled output '{out}' in {d.name}")

    allowed = {p.hash32 for p in d.input_sources}
    allowed.update(p.hash32 for p in d.outputs.values())
    for drv_path, names in d.input_drvs:
        dep = _derivation(store, drv_path)
        for out in names:
            if out not in dep.outputs:
                raise StoreError(
                    f"{d.name} wants output '{out}' of {dep.name}, which has none")
            allowed.add(dep.outputs[out].hash32)
    if builder_text is None:
        # References are ASCII, so undecodable bytes cannot hide one.
        builder_text = d.builder.fs.read_bytes().decode("utf-8", "replace")
    start = len(store.prefix) + 1
    for ref in find_store_references(builder_text, store.prefix):
        if ref[start:start + 32] not in allowed:
            raise StoreError(f"builder of {d.name} references unlisted path {ref}")


def read_derivation(store: Store, path) -> Derivation:
    if isinstance(path, str):
        path = parse_store_path(path)
    if not store.contains(path):
        raise StoreError(f"no such derivation: {path}")
    data = path.fs.read_bytes()
    entry = store.derivations.get(str(path))
    if entry is None or entry[0] != data:
        entry = store.derivations[str(path)] = (data, _parse_derivation(data, path))
    return entry[1]


def _derivation(store: Store, path) -> Derivation:
    """The memo's derivation at *path*, or else the one its ``.drv`` holds."""
    entry = store.derivations.get(str(path))
    return entry[1] if entry else read_derivation(store, path)


def _parse_derivation(data: bytes, source) -> Derivation:
    """The derivation in the ``.drv`` bytes *data*; undecodable or
    malformed bytes raise a StoreError naming *source*."""
    try:
        return derivation_from_sexp(read(data.decode("utf-8")))
    except UnicodeDecodeError as exc:
        raise StoreError(f"{source}: not UTF-8 text: {exc}") from None
    except (ParseError, StoreError) as exc:
        raise StoreError(f"{source}: {exc}") from None


def _closure_order(store: Store, root: StorePath, d: Derivation) -> list:
    """(path, derivation) for *root*, whose derivation *d* is in the
    store, and everything it needs: depth-first postorder over
    input-drvs, dependencies first.  The walk keeps its own stack of
    (path, derivation, inputs not yet entered), so chain length is
    bounded by memory, not by recursion.  It reads every input's
    ``.drv``; the CLI takes its plan from its `Lowering` instead."""
    order = []
    state = {str(root): "visiting"}
    stack = [(root, d, iter(d.input_drvs))]
    while stack:
        path, drv, deps = stack[-1]
        for dep_path, _names in deps:
            key = str(dep_path)
            if state.get(key) == "visiting":
                raise BuildError(f"dependency cycle through {key} (corrupt store)",
                                 derivation=key)
            if key not in state:
                state[key] = "visiting"
                dep = read_derivation(store, dep_path)
                stack.append((dep_path, dep, iter(dep.input_drvs)))
                break
        else:
            stack.pop()
            state[str(path)] = "done"
            order.append((path, drv))
    return order


def _outputs_built(outputs: Mapping) -> bool:
    return all(os.path.exists(str(p)) for p in outputs.values())


def _build_plan(store: Store, d: Derivation) -> list:
    """The build plan of *d*, which is written (and so checked) first:
    (``.drv`` path, outputs) for each member of its closure, in the
    order `_closure_order` gives."""
    return [(path, drv.outputs) for path, drv in
            _closure_order(store, write_derivation(store, d), d)]


def plan(store: Store, d: Derivation) -> list:
    """Derivation paths that still need building, dependencies first."""
    return [path for path, outputs in _build_plan(store, d)
            if not _outputs_built(outputs)]


def build(store: Store, d: Derivation | list,
          log: Optional[list] = None) -> dict:
    """Build *d* and everything it needs; return *d*'s output paths.

    *d* is a Derivation, or its build plan as `_build_plan` gives it,
    as a `Lowering` wrote it, or as the CLI's traces keep it.  A member
    whose outputs all exist is reused without reading its ``.drv``; any
    other is built, from the memo's derivation when the memo has one.
    *log*, when given, receives ("build"|"cached", drv path) pairs in
    execution order.
    """
    steps = _build_plan(store, d) if isinstance(d, Derivation) else d
    for path, outputs in steps:
        action = _realise(store, path, outputs)
        if log is not None:
            log.append((action, str(path)))
    return dict(steps[-1][1])


# What `_realise` sets besides the outputs; lowering rejects such outputs.
RESERVED_VARIABLES = ("SYSTEM", "TARGET", "TMPDIR", "MODULE_PATH")


def _realise(store: Store, path, outputs: Mapping) -> str:
    """Build the plan member *path* unless its *outputs* all exist;
    return "build" or "cached"."""
    if _outputs_built(outputs):
        return "cached"
    import tempfile
    from .builder import EvalEnv, _evaluate
    drv = _derivation(store, path)
    drv_path = str(path)
    tmp = tempfile.mkdtemp(prefix=f"gexpkit-build-{drv.name}-")
    try:
        staging = {name: os.path.join(tmp, f"out-{name}") for name in drv.outputs}
        variables = {**drv.env, **staging, "SYSTEM": drv.system, "TMPDIR": tmp}
        if drv.target is not None:
            variables["TARGET"] = drv.target
        module_path = tuple(
            p for p in variables.get("MODULE_PATH", "").split(":") if p)
        env = EvalEnv(variables=variables, module_path=module_path,
                      base_dir=os.getcwd())
        try:
            forms = read_all(drv.builder.fs.read_bytes().decode("utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise BuildError(f"cannot read builder of {drv.name}: {exc}",
                             derivation=drv_path) from exc
        try:
            _evaluate(forms, env)
        except BuildError as exc:
            raise BuildError(f"builder for {drv.name} failed: {exc}",
                             derivation=drv_path) from exc

        for name in drv.outputs:
            if not os.path.exists(staging[name]):
                raise BuildError(
                    f"builder for {drv.name} did not produce output '{name}'",
                    derivation=drv_path)
        for name, final in drv.outputs.items():
            store.commit(final, lambda dest: shutil.move(staging[name], dest))
    finally:
        rmtree_rw(tmp)
    return "build"
