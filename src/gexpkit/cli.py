"""Command line interface.

Subcommands:

* ``lower FILE``  stage a deployment file, write its derivation, print
  the derivation path
* ``build FILE``  same, then build; prints ``output<TAB>path`` lines
* ``show DRV``    pretty-print a derivation file
* ``add PATH``    intern a file into the store, print its path

A deployment file (read by `lowerable.load_deployment`) is a sequence
of forms.  All but the last must be ``(define name expr)`` or
``(define-package name (package ...))``; the last form must evaluate to
a gexp.  Host expressions can call the built-ins ``local-file``
(relative to the deployment file), ``plain-file``, ``file-append``, and
``source-module-closure``.

Exit codes: 0 on success, 1 for read/stage/lower problems, 2 for build
failures.

Warm builds and traces: after ``lower`` or ``build`` lowers a
deployment, it writes a trace beside the store, in
``<store prefix>.traces/``, named by the SHA-256 of its key: the
resolved deployment path, the store prefix as given, ``--name``,
``--system``, ``--target`` and the module search path.  The trace holds
the root ``.drv`` path, a digest of gexpkit's own sources, and every
host file lowering read: the SHA-256 of the deployment, of each
``local-file`` and of each module file, and each module candidate found
absent.  A later ``lower`` or ``build`` with the same key re-hashes
those files; if all match and the root's closure (every ``.drv``,
builder and source) is still in the store, it skips reading, staging
and lowering.  Anything else (no trace, an unreadable or corrupt one,
a mismatch, a missing store item) lowers as if there were no trace.
Delete the traces directory to force a re-lower.

Start-up: each command imports only the tiers it runs.  This module
loads ``store`` and ``sexp``; ``lower`` and ``build`` import the host
tier (``gexp``, ``lowerable``, ``modules``) only on a trace miss, and
`store.build` imports the evaluator (``builder``) only when some
derivation's outputs are missing.  ``show`` and ``add`` need neither.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import os
import sys
from pathlib import Path
from typing import Optional

from .sexp import (Boolean, ParseError, Sexp, SList, String, Symbol,
                   print_canonical, read, slist)
from .store import (DEFAULT_SYSTEM, BuildError, Store, StoreError,
                    _closure_order, _parse_derivation, build,
                    parse_store_path, read_derivation, validate_store_name)


def _add_common(parser: argparse.ArgumentParser, with_name=False) -> None:
    parser.add_argument(
        "--store", default=os.environ.get("GEXP_STORE_DIR", "./store"),
        help="store prefix (env GEXP_STORE_DIR, default ./store)")
    parser.add_argument("--system", default=DEFAULT_SYSTEM,
                        help=f"build system tag (default {DEFAULT_SYSTEM})")
    parser.add_argument("--target", default=None,
                        help="cross-compilation target system tag")
    parser.add_argument("--module-path", action="append", default=None,
                        metavar="DIR",
                        help="module search directory, repeatable "
                             "(env GEXP_MODULE_PATH, colon separated)")
    if with_name:
        parser.add_argument("--name", default=None,
                            help="derivation name (default: file stem)")


def _module_path(args) -> tuple:
    if args.module_path is not None:
        return tuple(args.module_path)
    env_value = os.environ.get("GEXP_MODULE_PATH", "")
    return tuple(p for p in env_value.split(":") if p)


@functools.cache
def _source_digest() -> str:
    """SHA-256 over gexpkit's own source files, read once per process,
    so that a trace written by other code never matches."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def _file_digest(path: str) -> Sexp:
    """What lowering records for reading *path* now: ``#f`` when no
    regular file is there, else the SHA-256 of its bytes."""
    if not os.path.isfile(path):
        return Boolean(False)
    with open(path, "rb") as fh:
        return String(hashlib.sha256(fh.read()).hexdigest())


def _traced_root(trace_file: Path, key: SList) -> Optional[str]:
    """The root ``.drv`` path the trace at *trace_file* records for
    *key*, if the gexpkit sources and every file it read hash as they
    did; else None."""
    try:
        trace = read(trace_file.read_text("utf-8", "surrogatepass"))
        items = trace.items if isinstance(trace, SList) else ()
        if (len(items) < 4 or items[0] != Symbol("trace") or items[1] != key
                or not isinstance(items[2], String)
                or items[3] != String(_source_digest())):
            return None
        for entry in items[4:]:
            if not (isinstance(entry, SList) and len(entry) == 2
                    and isinstance(entry[0], String)
                    and _file_digest(entry[0].value) == entry[1]):
                return None
    except (OSError, UnicodeDecodeError, ParseError):
        return None
    return items[2].value


def _write_trace(trace_file: Path, key: SList, root, reads: dict) -> None:
    """Write the trace of one lowering in one rename; a failure to
    write it is ignored."""
    tmp = trace_file.with_name(f".tmp-{os.urandom(8).hex()}")
    try:
        trace = slist(Symbol("trace"), key, String(str(root)),
                      String(_source_digest()),
                      *(slist(String(path), Boolean(False) if digest is None
                              else String(digest))
                        for path, digest in reads.items()))
        trace_file.parent.mkdir(exist_ok=True)
        tmp.write_text(print_canonical(trace), "utf-8", "surrogatepass")
        # Renaming over a file can make the file system flush the new
        # file's data first (ext4 does); renaming to a free name does not.
        with contextlib.suppress(FileNotFoundError):
            os.unlink(trace_file)
        os.rename(tmp, trace_file)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def _closure_on_disk(store: Store, root: str) -> list:
    """The closure of the derivation at *root*, as `build` takes it; a
    StoreError unless every ``.drv``, builder and source of it is in
    *store*."""
    path = parse_store_path(root)
    closure = _closure_order(store, path, read_derivation(store, path))
    for _path, drv in closure:
        for item in (drv.builder, *drv.input_sources):
            if not store.contains(item):
                raise StoreError(f"missing from the store: {item}")
    return closure


def _lower_args(args):
    """The store, the root ``.drv`` path, its derivation and its closure
    for `build`: taken from a matching trace when there is one, else
    lowered and traced, with the closure left for `build` to walk."""
    store = Store(args.store, _module_path(args))
    source = Path(args.file)
    key = slist(*(Boolean(False) if v is None else String(v) for v in (
        os.path.realpath(source), store.prefix, args.name, args.system,
        args.target)), slist(*map(String, store.module_path)))
    trace_file = Path(store.prefix + ".traces") / hashlib.sha256(
        print_canonical(key).encode("utf-8", "surrogatepass")).hexdigest()
    root = _traced_root(trace_file, key)
    if root is not None:
        try:
            closure = _closure_on_disk(store, root)
            return store, root, closure[-1][1], closure
        except StoreError:
            pass
    from .lowerable import Lowering, load_deployment, lower_gexp
    lowering = Lowering(store, args.system)
    g = load_deployment(source, lowering)
    name = validate_store_name(args.name if args.name else source.stem)
    d = lower_gexp(lowering, name, g, args.target)
    root = lowering.write(d)
    _write_trace(trace_file, key, root, lowering.reads)
    return store, root, d, None


def _cmd_lower(args) -> int:
    print(_lower_args(args)[1])
    return 0


def _cmd_build(args) -> int:
    store, _root, d, closure = _lower_args(args)
    log: list = []
    outputs = build(store, d, log, closure)
    for action, path in log:
        print(f"{action} {path}", file=sys.stderr)
    for out in sorted(outputs):
        print(f"{out}\t{outputs[out]}")
    return 0


def _cmd_show(args) -> int:
    d = _parse_derivation(Path(args.drv).read_bytes(), args.drv)
    print(f"name: {d.name}")
    print(f"system: {d.system}")
    print(f"target: {d.target if d.target is not None else '(none)'}")
    print(f"builder: {d.builder}")
    print("input-drvs:")
    for path, outs in sorted(d.input_drvs, key=lambda e: str(e[0])):
        print(f"  {path} ({' '.join(sorted(outs))})")
    print("input-sources:")
    for path in sorted(d.input_sources, key=str):
        print(f"  {path}")
    print("outputs:")
    for out in sorted(d.outputs):
        print(f"  {out}: {d.outputs[out]}")
    print("env:")
    for key in sorted(d.env):
        print(f"  {key} = {d.env[key]}")
    return 0


def _cmd_add(args) -> int:
    store = Store(args.store)
    source = Path(args.path)
    name = args.name if args.name else source.name
    print(store.intern_file(source.read_bytes(), name))
    return 0


def _user_errors() -> tuple:
    """The error classes that exit 1.  An ``except`` clause evaluates
    this only when an exception reaches it, so the host tier's classes
    are imported on the error path alone."""
    from .gexp import StagingError
    from .lowerable import LoweringError
    from .modules import ModuleError
    return (ParseError, StagingError, LoweringError, ModuleError,
            StoreError, OSError, UnicodeDecodeError)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gexpkit",
        description="stage deployment files and build their derivations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_lower = sub.add_parser("lower", help="stage a file, print its derivation path")
    p_lower.add_argument("file", help="deployment file")
    _add_common(p_lower, with_name=True)
    p_lower.set_defaults(run=_cmd_lower)

    p_build = sub.add_parser("build", help="stage and build a file")
    p_build.add_argument("file", help="deployment file")
    _add_common(p_build, with_name=True)
    p_build.set_defaults(run=_cmd_build)

    p_show = sub.add_parser("show", help="pretty-print a derivation file")
    p_show.add_argument("drv", help="derivation file path")
    p_show.set_defaults(run=_cmd_show)

    p_add = sub.add_parser("add", help="intern a file into the store")
    p_add.add_argument("path", help="file to intern")
    p_add.add_argument("name", nargs="?", default=None,
                       help="store name (default: file name)")
    p_add.add_argument(
        "--store", default=os.environ.get("GEXP_STORE_DIR", "./store"),
        help="store prefix (env GEXP_STORE_DIR, default ./store)")
    p_add.set_defaults(run=_cmd_add)

    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except BuildError as exc:
        where = f" [{exc.derivation}]" if exc.derivation else ""
        print(f"gexpkit: build error{where}: {exc}", file=sys.stderr)
        return 2
    except _user_errors() as exc:
        print(f"gexpkit: error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("gexpkit: error: nesting or dependency chain too deep "
              "(recursion limit)", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
