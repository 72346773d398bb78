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
``--system``, ``--target`` and the module search path, as a JSON list.
The trace's first line is the SHA-256 of the rest, one JSON array:
the key, a digest of gexpkit's own sources, the host files lowering
read (each path mapped to its SHA-256: the deployment, each
``local-file`` and each module file; null for a module candidate found
absent), and the build plan: the root's closure in the order lowering
wrote it (dependencies first, each package's inputs in the order its
gexp names them, the root last), each member as ``[drv, builder,
[sources...], {output: path}]``.  A later ``lower`` or ``build`` with
the same key re-hashes those files; if all match and every ``.drv``,
builder and source of the plan is still in the store, it skips
reading, staging and lowering, and `store.build` reads a ``.drv`` only
for a member whose outputs are missing.  Anything else (no trace, an
unreadable, corrupt or altered one, a mismatch, a missing store item)
lowers as if there were no trace.  Delete the traces directory to force
a re-lower.

Start-up: each command imports only the tiers it runs.  This module
loads ``store``, ``sexp`` and ``json``; ``lower`` and ``build`` import
the host tier (``gexp``, ``lowerable``, ``modules``) only on a trace
miss, and `store.build` imports the evaluator (``builder``) only when
some derivation's outputs are missing.  ``show`` and ``add`` need
neither.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .sexp import ParseError
from .store import (DEFAULT_SYSTEM, BuildError, Store, StoreError,
                    _parse_derivation, build, validate_store_name)


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


def _file_digest(path: str) -> Optional[str]:
    """What lowering records for reading *path* now: None when no
    regular file is there, else the SHA-256 of its bytes."""
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _traced_plan(trace_file: Path, key: list) -> Optional[list]:
    """The build plan the trace at *trace_file* records for *key*, if
    its checksum holds, the gexpkit sources and every file lowering read
    hash as they did, and every ``.drv``, builder and source of the plan
    is in the store; else None."""
    try:
        checksum, _, data = trace_file.read_bytes().partition(b"\n")
        if checksum != hashlib.sha256(data).hexdigest().encode():
            return None
        traced_key, source_digest, reads, plan = json.loads(data)
        if (traced_key, source_digest) != (key, _source_digest()):
            return None
        # The checksum and the source digest hold, so this code wrote
        # the rest as `_write_trace` lays it out.
        if any(_file_digest(path) != digest for path, digest in reads.items()):
            return None
        for drv, builder, sources, _outputs in plan:
            if not all(map(os.path.exists, (drv, builder, *sources))):
                return None
    except (OSError, ValueError, TypeError, RecursionError):
        return None
    return [(drv, outputs) for drv, _builder, _sources, outputs in plan]


def _write_trace(trace_file: Path, key: list, reads: dict,
                 closure: list) -> None:
    """Write the trace of one lowering in one rename: its checksum line,
    then a JSON array of the key, the source digest, the reads and the
    build plan of *closure*, each member as its ``.drv`` path, builder,
    sources and ``{output-name: path}``.  A failure to write it is
    ignored."""
    tmp = trace_file.with_name(f".tmp-{os.urandom(8).hex()}")
    data = json.dumps([key, _source_digest(), reads, [
        [str(path), str(drv.builder), [str(s) for s in drv.input_sources],
         {out: str(out_path) for out, out_path in drv.outputs.items()}]
        for path, drv in closure]]).encode()
    try:
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
    traced; a lowering's plan is the order it wrote the closure in."""
    store = Store(args.store, _module_path(args))
    source = Path(args.file)
    key = [os.path.realpath(source), store.prefix, args.name, args.system,
           args.target, list(store.module_path)]
    trace_file = Path(store.prefix + ".traces") / hashlib.sha256(
        json.dumps(key).encode()).hexdigest()
    steps = _traced_plan(trace_file, key)
    if steps is not None:
        return store, steps
    from .lowerable import Lowering, load_deployment, lower_gexp
    lowering = Lowering(store, args.system)
    g = load_deployment(source, lowering)
    name = validate_store_name(args.name if args.name else source.stem)
    lower_gexp(lowering, name, g, args.target)
    plan = list({str(path): (path, drv)
                 for path, drv in lowering.written.values()}.values())
    _write_trace(trace_file, key, lowering.reads, plan)
    return store, [(path, drv.outputs) for path, drv in plan]


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
        print("gexpkit: error: nesting too deep (recursion limit)",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
