"""Build execution: dependency planning plus a small strict evaluator
for builder programs.

Builders run hermetically: the only ambient state they see is the
variable map handed to the evaluator (output paths, SYSTEM, TARGET,
MODULE_PATH, TMPDIR), reached through ``getenv``.  Outputs are produced
in a staging directory and moved into the store only after the builder
finishes and every declared output exists.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .modules import ModuleError, ModuleName, load_module
from .sexp import (Boolean, Integer, Keyword, ParseError, Sexp, SList, String,
                   Symbol, read_all)
from .store import (Derivation, Store, StorePath, read_derivation, rmtree_rw,
                    write_derivation)


class BuildError(Exception):
    def __init__(self, message, derivation: Optional[str] = None):
        super().__init__(message)
        self.derivation = derivation


@dataclass
class EvalEnv:
    """Ambient state visible to a builder program."""

    variables: dict = field(default_factory=dict)
    module_path: tuple = ()
    base_dir: str = "."
    step_budget: int = 10_000_000


class _Frame:
    __slots__ = ("vars", "parent")

    def __init__(self, vars, parent):
        self.vars = vars
        self.parent = parent

    def lookup(self, name: str):
        frame = self
        while frame is not None:
            if name in frame.vars:
                value = frame.vars[name]
                if value is _UNASSIGNED:
                    raise BuildError(f"variable used before initialization: {name}")
                return value
            frame = frame.parent
        raise BuildError(f"unbound variable: {name}")

    def assign(self, name: str, value) -> None:
        self.vars[name] = value


class _Closure:
    __slots__ = ("params", "body", "frame", "name")

    def __init__(self, params, body, frame, name="lambda"):
        self.params = params
        self.body = body
        self.frame = frame
        self.name = name


_UNASSIGNED = object()


def _display(value) -> str:
    if value is True:
        return "#t"
    if value is False:
        return "#f"
    if value is None:
        return "#nil"
    if isinstance(value, Symbol):
        return value.name
    if isinstance(value, list):
        return "(" + " ".join(_display(v) for v in value) + ")"
    if isinstance(value, _Closure):
        return f"#<procedure {value.name}>"
    return str(value)


def _scheme_equal(a, b) -> bool:
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_scheme_equal(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def _datum(value: Sexp):
    """Quoted data as runtime values: lists become Python lists, atoms
    unwrap, symbols stay symbols."""
    if isinstance(value, SList):
        return [_datum(i) for i in value.items]
    if isinstance(value, Integer):
        return value.value
    if isinstance(value, String):
        return value.value
    if isinstance(value, Boolean):
        return value.value
    return value


def _check_int(value, op: str) -> int:
    if type(value) is not int:
        raise BuildError(f"{op}: expected an integer, got {_display(value)}")
    return value


def _check_str(value, op: str) -> str:
    if not isinstance(value, str):
        raise BuildError(f"{op}: expected a string, got {_display(value)}")
    return value


class _Evaluator:
    def __init__(self, env: EvalEnv):
        self.env = env
        self.steps = 0
        self.loaded_modules: set = set()
        self.globals = _Frame(dict(self._builtins()), None)

    # program driver

    def run(self, forms):
        value = None
        for form in forms:
            value = self.eval(form, self.globals)
        return value

    def eval(self, expr: Sexp, frame: _Frame):
        self.steps += 1
        if self.steps > self.env.step_budget:
            raise BuildError(
                f"step budget exceeded ({self.env.step_budget} steps)")
        if isinstance(expr, Integer):
            return expr.value
        if isinstance(expr, String):
            return expr.value
        if isinstance(expr, Boolean):
            return expr.value
        if isinstance(expr, Keyword):
            return expr
        if isinstance(expr, Symbol):
            return frame.lookup(expr.name)
        if not isinstance(expr, SList):
            raise BuildError(f"cannot evaluate {expr!r}")
        if not expr.items:
            raise BuildError("cannot evaluate ()")
        head = expr.items[0]
        if isinstance(head, Symbol):
            special = self._SPECIAL.get(head.name)
            if special is not None:
                return special(self, expr, frame)
        fn = self.eval(head, frame)
        args = [self.eval(arg, frame) for arg in expr.items[1:]]
        return self.apply(fn, args)

    def apply(self, fn, args):
        if isinstance(fn, _Closure):
            if len(args) != len(fn.params):
                raise BuildError(
                    f"{fn.name}: expected {len(fn.params)} arguments, "
                    f"got {len(args)}")
            frame = _Frame(dict(zip(fn.params, args)), fn.frame)
            value = None
            for form in fn.body:
                value = self.eval(form, frame)
            return value
        if callable(fn):
            return fn(*args)
        raise BuildError(f"not a procedure: {_display(fn)}")

    # special forms

    def _sf_quote(self, expr, frame):
        if len(expr) != 2:
            raise BuildError("malformed quote")
        return _datum(expr.items[1])

    def _sf_if(self, expr, frame):
        if len(expr) not in (3, 4):
            raise BuildError("malformed if")
        if self.eval(expr.items[1], frame) is not False:
            return self.eval(expr.items[2], frame)
        if len(expr) == 4:
            return self.eval(expr.items[3], frame)
        return None

    def _sf_begin(self, expr, frame):
        value = None
        for form in expr.items[1:]:
            value = self.eval(form, frame)
        return value

    def _sf_define(self, expr, frame):
        if len(expr) < 2:
            raise BuildError("malformed define")
        target = expr.items[1]
        if isinstance(target, Symbol):
            if len(expr) != 3:
                raise BuildError("malformed define")
            frame.assign(target.name, self.eval(expr.items[2], frame))
            return None
        if (isinstance(target, SList) and target.items
                and all(isinstance(p, Symbol) for p in target.items)
                and len(expr) >= 3):
            name = target.items[0].name
            params = [p.name for p in target.items[1:]]
            frame.assign(name, _Closure(params, expr.items[2:], frame, name))
            return None
        raise BuildError("malformed define")

    def _sf_lambda(self, expr, frame):
        if len(expr) < 3:
            raise BuildError("malformed lambda")
        params_form = expr.items[1]
        if not (isinstance(params_form, SList)
                and all(isinstance(p, Symbol) for p in params_form.items)):
            raise BuildError("lambda parameters must be a list of symbols")
        return _Closure([p.name for p in params_form.items],
                        expr.items[2:], frame)

    def _bindings(self, form, what):
        if not isinstance(form, SList):
            raise BuildError(f"malformed {what} bindings")
        pairs = []
        for binding in form.items:
            if not (isinstance(binding, SList) and len(binding) == 2
                    and isinstance(binding.items[0], Symbol)):
                raise BuildError(f"malformed {what} binding")
            pairs.append((binding.items[0].name, binding.items[1]))
        return pairs

    def _sf_let(self, expr, frame):
        if len(expr) >= 3 and isinstance(expr.items[1], Symbol):
            return self._named_let(expr, frame)
        if len(expr) < 3:
            raise BuildError("malformed let")
        pairs = self._bindings(expr.items[1], "let")
        values = [self.eval(init, frame) for _, init in pairs]
        inner = _Frame({name: v for (name, _), v in zip(pairs, values)}, frame)
        value = None
        for form in expr.items[2:]:
            value = self.eval(form, inner)
        return value

    def _named_let(self, expr, frame):
        if len(expr) < 4:
            raise BuildError("malformed named let")
        loop_name = expr.items[1].name
        pairs = self._bindings(expr.items[2], "let")
        args = [self.eval(init, frame) for _, init in pairs]
        loop_frame = _Frame({}, frame)
        closure = _Closure([name for name, _ in pairs], expr.items[3:],
                           loop_frame, loop_name)
        loop_frame.assign(loop_name, closure)
        return self.apply(closure, args)

    def _sf_let_star(self, expr, frame):
        if len(expr) < 3:
            raise BuildError("malformed let*")
        inner = _Frame({}, frame)
        for name, init in self._bindings(expr.items[1], "let*"):
            inner.assign(name, self.eval(init, inner))
        value = None
        for form in expr.items[2:]:
            value = self.eval(form, inner)
        return value

    def _sf_letrec(self, expr, frame):
        if len(expr) < 3:
            raise BuildError("malformed letrec")
        pairs = self._bindings(expr.items[1], "letrec")
        inner = _Frame({name: _UNASSIGNED for name, _ in pairs}, frame)
        for name, init in pairs:
            inner.assign(name, self.eval(init, inner))
        value = None
        for form in expr.items[2:]:
            value = self.eval(form, inner)
        return value

    def _sf_use_modules(self, expr, frame):
        for form in expr.items[1:]:
            try:
                name = ModuleName.from_sexp(form)
            except ModuleError as exc:
                raise BuildError(str(exc)) from exc
            self._load_module(name)
        return None

    _SPECIAL = {}

    # module loading

    def _load_module(self, name: ModuleName) -> None:
        if name in self.loaded_modules:
            return
        self.loaded_modules.add(name)
        try:
            module = load_module(
                name, [self._resolve(d) for d in self.env.module_path])
        except (ModuleError, ParseError, OSError) as exc:
            raise BuildError(f"cannot load module {name}: {exc}") from exc
        for imported in module.imports:
            self._load_module(imported)
        for form in module.source[1:]:
            self.eval(form, self.globals)

    # builtins

    def _resolve(self, path: str) -> str:
        return os.path.join(self.env.base_dir, path)

    def _builtins(self):
        env = self.env

        def getenv(name):
            _check_str(name, "getenv")
            return env.variables.get(name, False)

        def string_append(*parts):
            return "".join(_check_str(p, "string-append") for p in parts)

        def plus(*args):
            total = 0
            for a in args:
                total += _check_int(a, "+")
            return total

        def minus(first, *rest):
            _check_int(first, "-")
            if not rest:
                return -first
            for a in rest:
                first -= _check_int(a, "-")
            return first

        def times(*args):
            total = 1
            for a in args:
                total *= _check_int(a, "*")
            return total

        def num_equal(first, *rest):
            _check_int(first, "=")
            return all(_check_int(a, "=") == first for a in rest)

        def car(lst):
            if not isinstance(lst, list) or not lst:
                raise BuildError(f"car: expected a non-empty list, got {_display(lst)}")
            return lst[0]

        def cdr(lst):
            if not isinstance(lst, list) or not lst:
                raise BuildError(f"cdr: expected a non-empty list, got {_display(lst)}")
            return lst[1:]

        def cons(value, lst):
            if not isinstance(lst, list):
                raise BuildError(f"cons: expected a list, got {_display(lst)}")
            return [value] + lst

        def mkdir(path):
            try:
                os.mkdir(self._resolve(_check_str(path, "mkdir")))
            except OSError as exc:
                raise BuildError(f"mkdir {path}: {exc}") from exc
            return True

        def write_file(path, content):
            _check_str(path, "write-file")
            _check_str(content, "write-file")
            try:
                with open(self._resolve(path), "w", encoding="utf-8") as fh:
                    fh.write(content)
            except OSError as exc:
                raise BuildError(f"write-file {path}: {exc}") from exc
            return True

        def read_file(path):
            _check_str(path, "read-file")
            try:
                with open(self._resolve(path), "r", encoding="utf-8") as fh:
                    return fh.read()
            except OSError as exc:
                raise BuildError(f"read-file {path}: {exc}") from exc

        def copy_file(src, dst):
            _check_str(src, "copy-file")
            _check_str(dst, "copy-file")
            try:
                shutil.copyfile(self._resolve(src), self._resolve(dst))
            except OSError as exc:
                raise BuildError(f"copy-file {src} -> {dst}: {exc}") from exc
            return True

        def file_exists(path):
            return os.path.exists(self._resolve(_check_str(path, "file-exists?")))

        def error_fn(*parts):
            raise BuildError("error: " + " ".join(_display(p) for p in parts))

        def system_star(*argv):
            raise BuildError("system* is disabled in this build environment")

        return {
            "getenv": getenv,
            "string-append": string_append,
            "list": lambda *args: list(args),
            "cons": cons,
            "car": car,
            "cdr": cdr,
            "null?": lambda v: isinstance(v, list) and not v,
            "equal?": _scheme_equal,
            "+": plus,
            "-": minus,
            "*": times,
            "=": num_equal,
            "mkdir": mkdir,
            "write-file": write_file,
            "read-file": read_file,
            "copy-file": copy_file,
            "file-exists?": file_exists,
            "error": error_fn,
            "system*": system_star,
        }


_Evaluator._SPECIAL = {
    "quote": _Evaluator._sf_quote,
    "if": _Evaluator._sf_if,
    "begin": _Evaluator._sf_begin,
    "define": _Evaluator._sf_define,
    "lambda": _Evaluator._sf_lambda,
    "let": _Evaluator._sf_let,
    "let*": _Evaluator._sf_let_star,
    "letrec": _Evaluator._sf_letrec,
    "letrec*": _Evaluator._sf_letrec,
    "use-modules": _Evaluator._sf_use_modules,
}


def mini_eval(program, env: Optional[EvalEnv] = None):
    """Evaluate one form or a sequence of forms, returning the last value."""
    forms = program if isinstance(program, (list, tuple)) else [program]
    evaluator = _Evaluator(env or EvalEnv())
    try:
        return evaluator.run(forms)
    except RecursionError:
        raise BuildError("recursion limit exceeded in builder program") from None


def _closure_order(store: Store, d: Derivation):
    """Depth-first postorder over input-drvs: dependencies first."""
    root = write_derivation(store, d)
    order = []
    state: dict[str, str] = {}

    def visit(path: StorePath, drv: Optional[Derivation]):
        key = str(path)
        if state.get(key) == "done":
            return
        if state.get(key) == "visiting":
            raise BuildError(f"dependency cycle through {key} (corrupt store)",
                             derivation=key)
        state[key] = "visiting"
        if drv is None:
            drv = read_derivation(store, path)
        for dep_path, _names in drv.input_drvs:
            visit(dep_path, None)
        state[key] = "done"
        order.append((path, drv))

    visit(root, d)
    return order


def _outputs_built(drv: Derivation) -> bool:
    return all(Path(str(p)).exists() for p in drv.outputs.values())


def plan(store: Store, d: Derivation) -> list:
    """Derivation paths that still need building, dependencies first."""
    return [path for path, drv in _closure_order(store, d)
            if not _outputs_built(drv)]


def build(store: Store, d: Derivation, log: Optional[list] = None) -> dict:
    """Build *d* and everything it needs; return its output paths.

    Each closure member is either rebuilt or reused: *log*, when given,
    receives ("build"|"cached", drv path) pairs in execution order.
    """
    for path, drv in _closure_order(store, d):
        if _outputs_built(drv):
            if log is not None:
                log.append(("cached", str(path)))
            continue
        _run_builder(store, drv, str(path))
        if log is not None:
            log.append(("build", str(path)))
    return dict(d.outputs)


def _run_builder(store: Store, drv: Derivation, drv_path: str) -> None:
    base_dir = os.getcwd()
    tmp = tempfile.mkdtemp(prefix=f"gexpkit-build-{drv.name}-")
    try:
        staging = {name: os.path.join(tmp, f"out-{name}") for name in drv.outputs}
        variables = dict(drv.env)
        variables.update(staging)
        variables["SYSTEM"] = drv.system
        if drv.target is not None:
            variables["TARGET"] = drv.target
        variables["TMPDIR"] = tmp
        module_path = tuple(
            p for p in variables.get("MODULE_PATH", "").split(":") if p)
        env = EvalEnv(variables=variables, module_path=module_path,
                      base_dir=base_dir)

        builder_file = os.path.join(base_dir, str(drv.builder))
        try:
            with open(builder_file, "r", encoding="utf-8") as fh:
                forms = read_all(fh.read())
        except OSError as exc:
            raise BuildError(f"cannot read builder of {drv.name}: {exc}",
                             derivation=drv_path) from exc
        try:
            mini_eval(forms, env)
        except BuildError as exc:
            raise BuildError(f"builder for {drv.name} failed: {exc}",
                             derivation=drv_path) from exc

        for name in drv.outputs:
            if not os.path.exists(staging[name]):
                raise BuildError(
                    f"builder for {drv.name} did not produce output '{name}'",
                    derivation=drv_path)
        for name, final in drv.outputs.items():
            store.commit(final, lambda tmp: shutil.move(staging[name], tmp))
    finally:
        rmtree_rw(tmp)
