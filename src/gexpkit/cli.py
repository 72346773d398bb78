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
``--system``, ``--target`` and the module search path.  The trace's
first line is the SHA-256 of the rest, which holds the key, a digest of
gexpkit's own sources, every host file lowering read (the SHA-256 of
the deployment, of each ``local-file`` and of each module file, and
each module candidate found absent), and the build plan: the root's
closure in build order, each member as its ``.drv`` path, builder,
sources and outputs.  A later ``lower`` or ``build`` with the same key
re-hashes those files; if all match and every ``.drv``, builder and
source of the plan is still in the store, it skips reading, staging and
lowering, and `store.build` reads a ``.drv`` only for a member whose
outputs are missing.  Anything else (no trace, an unreadable, corrupt
or altered one, a mismatch, a missing store item) lowers as if there
were no trace.  Delete the traces directory to force a re-lower.

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
                    validate_store_name)


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


def _traced_plan(trace_file: Path, key: SList) -> Optional[list]:
    """The build plan the trace at *trace_file* records for *key*, if
    its checksum holds, the gexpkit sources and every file lowering read
    hash as they did, and every ``.drv``, builder and source of the plan
    is in the store; else None."""
    try:
        checksum, _, data = trace_file.read_bytes().partition(b"\n")
        if checksum != hashlib.sha256(data).hexdigest().encode():
            return None
        trace = read(data.decode("utf-8", "surrogatepass"))
        items = trace.items if isinstance(trace, SList) else ()
        if items[:3] != (Symbol("trace"), key, String(_source_digest())):
            return None
        # The checksum and the source digest hold, so this code wrote
        # the rest as `_write_trace` lays it out.
        for path, digest in (entry.items for entry in items[3].items):
            if _file_digest(path.value) != digest:
                return None
        steps = []
        for member in items[4].items:
            drv, builder, sources, *outputs = member.items
            if not all(os.path.exists(item.value)
                       for item in (drv, builder, *sources.items)):
                return None
            steps.append((drv.value, {out.items[0].value: out.items[1].value
                                      for out in outputs}))
    except (OSError, UnicodeDecodeError, ParseError):
        return None
    return steps


def _write_trace(trace_file: Path, key: SList, reads: dict,
                 closure: list) -> None:
    """Write the trace of one lowering in one rename: its checksum line,
    then the key, the source digest, the reads and the build plan of
    *closure*, each member as its ``.drv`` path, builder, sources and
    ``(output-name path)`` pairs.  A failure to write it is ignored."""
    tmp = trace_file.with_name(f".tmp-{os.urandom(8).hex()}")
    try:
        data = print_canonical(slist(
            Symbol("trace"), key, String(_source_digest()),
            slist(*(slist(String(path), Boolean(False) if digest is None
                          else String(digest))
                    for path, digest in reads.items())),
            slist(*(slist(String(str(path)), String(str(drv.builder)),
                          slist(*(String(str(s)) for s in drv.input_sources)),
                          *(slist(String(str(out)), String(str(out_path)))
                            for out, out_path in drv.outputs.items()))
                    for path, drv in closure)))).encode("utf-8", "surrogatepass")
        trace_file.parent.mkdir(exist_ok=True)
        tmp.write_bytes(hashlib.sha256(data).hexdigest().encode() + b"\n" + data)
        # Renaming over a file can make the file system flush the new
        # file's data first (ext4 does); renaming to a free name does not.
        with contextlib.suppress(FileNotFoundError):
            os.unlink(trace_file)
        os.rename(tmp, trace_file)
    except OSError:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)


def _lower_args(args):
    """The store and the build plan of the deployment (the root last):
    taken from a matching trace when there is one, else lowered and
    traced."""
    store = Store(args.store, _module_path(args))
    source = Path(args.file)
    key = slist(*(Boolean(False) if v is None else String(v) for v in (
        os.path.realpath(source), store.prefix, args.name, args.system,
        args.target)), slist(*map(String, store.module_path)))
    trace_file = Path(store.prefix + ".traces") / hashlib.sha256(
        print_canonical(key).encode("utf-8", "surrogatepass")).hexdigest()
    steps = _traced_plan(trace_file, key)
    if steps is not None:
        return store, steps
    from .lowerable import Lowering, load_deployment, lower_gexp
    lowering = Lowering(store, args.system)
    g = load_deployment(source, lowering)
    name = validate_store_name(args.name if args.name else source.stem)
    d = lower_gexp(lowering, name, g, args.target)
    closure = _closure_order(store, lowering.write(d), d)
    _write_trace(trace_file, key, lowering.reads, closure)
    return store, [(path, drv.outputs) for path, drv in closure]


def _cmd_lower(args) -> int:
    _store, steps = _lower_args(args)
    print(steps[-1][0])
    return 0


def _cmd_build(args) -> int:
    store, steps = _lower_args(args)
    log: list = []
    outputs = build(store, steps, log)
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
