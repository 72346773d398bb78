"""Command line interface.

Subcommands:

* ``lower FILE``  stage a deployment file, write its derivation, print
  the derivation path
* ``build FILE``  same, then build; prints ``output<TAB>path`` lines
* ``show DRV``    pretty-print a derivation file
* ``add PATH``    intern a file into the store, print its path

A deployment file is a sequence of forms.  All but the last must be
``(define name expr)`` or ``(define-package name (package ...))``;
the last form must evaluate to a gexp.  Host expressions can call the
built-ins ``local-file`` (relative to the deployment file),
``plain-file``, ``file-append``, and ``source-module-closure``.

Exit codes: 0 on success, 1 for read/stage/lower problems, 2 for build
failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional

from .builder import BuildError, build
from .gexp import Gexp, HostEnv, StagingError, _head_name, eval_host
from .lowerable import (FileAppend, LocalFile, Lowering, LoweringError,
                        Package, PlainFile, lower_gexp)
from .modules import ModuleError, source_module_closure
from .sexp import ParseError, SList, String, Symbol, read_all
from .store import (DEFAULT_SYSTEM, Store, StoreError, _parse_derivation,
                    validate_store_name)


def _want_string(value, op: str, what: str) -> str:
    if not isinstance(value, str):
        raise StagingError(
            f"{op}: {what} must be a string, got {type(value).__name__}")
    return value


def _base_bindings(base_dir: Path, module_path) -> dict:
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
            names, module_path),
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


def load_deployment(path: Path, module_path) -> Gexp:
    """Read a deployment file and evaluate it to a gexp."""
    try:
        forms = read_all(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise StagingError(f"{path}: not UTF-8 text: {exc}") from None
    if not forms:
        raise StagingError(f"{path}: empty deployment file")
    bindings = _base_bindings(path.resolve().parent, module_path)
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


def _lower_args(args):
    store = Store(args.store, _module_path(args))
    source = Path(args.file)
    g = load_deployment(source, store.module_path)
    name = validate_store_name(args.name if args.name else source.stem)
    lowering = Lowering(store, args.system)
    return lowering, lower_gexp(lowering, name, g, args.target)


def _cmd_lower(args) -> int:
    lowering, d = _lower_args(args)
    print(lowering.write(d))
    return 0


def _cmd_build(args) -> int:
    lowering, d = _lower_args(args)
    log: list = []
    outputs = build(lowering.store, d, log=log)
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
    except (ParseError, StagingError, LoweringError, ModuleError,
            StoreError, OSError, UnicodeDecodeError) as exc:
        print(f"gexpkit: error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("gexpkit: error: nesting or dependency chain too deep "
              "(recursion limit)", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
