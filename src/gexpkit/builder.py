"""The build tier's evaluator for builder programs: a program and an
`EvalEnv` in, a value or a `BuildError` out; it knows nothing of stores
or derivations.  `store._realise` runs a member's builder with it, and
imports this module only when some derivation's outputs are missing.

The evaluator compiles each form once into flat instructions, which
push the variables and constants they consume before they run, and runs
them on an explicit value stack and control stack.  Calls in tail
position, named-let loops included, replace the current call, so loops
run in constant space; other calls may nest MAX_CALL_DEPTH deep.  Lists
are immutable pairs ``(car, cdr)``; `mini_eval` returns Python lists.

Programs run hermetically: the only ambient state they see is the
variable map in their `EvalEnv`, reached through ``getenv``.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from typing import Optional

from .modules import (ModuleError, ModuleName, _arity, _arity_message,
                      load_module)
from .sexp import (INT64_MAX, INT64_MIN, Boolean, Integer, Keyword, ParseError,
                   Sexp, SList, String, Symbol)
from .store import BuildError


@dataclass
class EvalEnv:
    """Ambient state visible to a builder program."""

    variables: dict = field(default_factory=dict)
    module_path: tuple = ()
    base_dir: str = "."
    step_budget: int = 10_000_000


# Deepest chain of pending (non-tail) procedure calls a builder program
# may build up.  Tail calls and named-let re-entry replace the current
# call instead of nesting, so loops never count toward it.
MAX_CALL_DEPTH = 10_000

# Longest string ``string-append`` may return, in characters.  It bounds
# the work and the memory of one step: without it, a loop that doubles
# a string exhausts memory within a hundred steps.
MAX_STRING_LENGTH = 1 << 24


class _Closure:
    __slots__ = ("params", "code", "frame", "name")

    def __init__(self, params, code, frame, name):
        self.params = params
        self.code = code
        self.frame = frame
        self.name = name


class _Primitive:
    """A built-in procedure.  *fn* takes the EvalEnv, then the Scheme
    arguments; the accepted argument counts are read off its code once."""

    __slots__ = ("name", "fn", "lo", "hi")

    def __init__(self, name, fn):
        self.name = name
        self.fn = fn
        self.lo, self.hi = _arity(fn, skip=1)

    def __repr__(self):
        return f"#<procedure {self.name}>"


_UNASSIGNED = object()


def _display(value) -> str:
    """The printed form of *value*, for messages.  Printing fails once
    the text passes MAX_STRING_LENGTH characters: a list that shares
    structure, like those ``(list x x)`` builds, prints unfolded, so its
    text can grow exponentially with the steps that made it."""
    parts = []
    length = 0

    def put(text):
        nonlocal length
        length += len(text)
        if length > MAX_STRING_LENGTH:
            raise BuildError(f"cannot print a value longer than "
                             f"{MAX_STRING_LENGTH} characters")
        parts.append(text)

    def walk(value):
        if value is True:
            put("#t")
        elif value is False:
            put("#f")
        elif value is None:
            put("#nil")
        elif isinstance(value, Symbol):
            put(value.name)
        elif isinstance(value, Keyword):
            put("#:" + value.name)
        elif type(value) is tuple:
            put("(")
            while value:
                walk(value[0])
                value = value[1]
                if value:
                    put(" ")
            put(")")
        elif isinstance(value, _Closure):
            put(f"#<procedure {value.name}>")
        else:
            put(str(value))

    walk(value)
    return "".join(parts)


def _scheme_equal(a, b) -> bool:
    """Structural equality on an explicit stack.  Identical values are
    equal at once, and each two pairs are compared once, so lists that
    share structure, like those ``(list x x)`` builds, cost their
    distinct nodes rather than their unfolded size."""
    stack = [(a, b)]
    seen = set()
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        if type(a) is not type(b):
            return False
        if type(a) is tuple:
            if len(a) != len(b):
                return False
            if a and (id(a), id(b)) not in seen:
                seen.add((id(a), id(b)))
                stack += (a[1], b[1]), (a[0], b[0])
        elif a != b:
            return False
    return True


def _datum(value: Sexp):
    """Quoted data as runtime values, on an explicit stack: lists become
    pairs, atoms unwrap, symbols and keywords stay as they are."""
    # per open list, outermost first: items left (last first), pairs so far
    items, made = [iter((value,))], [()]
    while items:
        for item in items[-1]:
            if isinstance(item, SList):
                items.append(reversed(item.items))
                made.append(())
                break
            made[-1] = (item.value if isinstance(item, (Integer, String, Boolean))
                        else item, made[-1])
        else:
            del items[-1]
            done = made.pop()
            if made:
                made[-1] = (done, made[-1])
    return done[0]


def _python_lists(value):
    """*value* with its lists as Python lists, on an explicit stack: each
    list is converted once, and one whose tail is converted copies that."""
    converted = {}
    stack = [value] if type(value) is tuple else []
    while stack:
        lst = stack[-1]
        if id(lst) in converted:
            del stack[-1]
            continue
        items = []
        while lst and id(lst) not in converted:
            items.append(lst[0])
            lst = lst[1]
        inner = [i for i in items if type(i) is tuple and id(i) not in converted]
        stack += inner
        if not inner:
            converted[id(stack.pop())] = ([converted.get(id(i), i) for i in items]
                                          + converted.get(id(lst), []))
    return converted.get(id(value), value)


def _check_int(value, op: str) -> None:
    if type(value) is not int:
        raise BuildError(f"{op}: expected an integer, got {_display(value)}")


def _check_int64(value: int, op: str) -> None:
    """Fail unless *value* fits the reader's integers: that keeps steps cheap."""
    if not INT64_MIN <= value <= INT64_MAX:
        raise BuildError(f"{op}: result out of signed 64-bit range")


def _check_str(value, op: str) -> str:
    if not isinstance(value, str):
        raise BuildError(f"{op}: expected a string, got {_display(value)}")
    return value


# compiler
#
# Each form is compiled once into a flat list of instructions, tuples
# (opcode, steps, pushes, operand).  The run loop pushes the values of
# *pushes*, pairs (is_variable, name or value), before it runs the
# opcode; the compiler holds each variable or constant until the next
# emit, and flushes them into a _PUSH before a jump target, which other
# paths reach too.  *steps* counts the syntax nodes whose evaluation
# begins at the instruction, as a tree walk counts every node it visits.
# A form in tail position ends in _RETURN or _TAILCALL.  _NEXT_MODULE
# runs again after each module body it enters: it has no pushes or steps.

(_CALL, _TAILCALL, _JUMP_IF_FALSE, _RETURN, _POP, _JUMP, _PUSH, _DEFINE,
 _BIND, _CLOSURE, _LOOP, _ENTER, _FRAME, _LEAVE, _MODULES, _NEXT_MODULE,
 _FAIL) = range(17)


def _bindings(form, what):
    if not isinstance(form, SList):
        raise BuildError(f"malformed {what} bindings")
    pairs = []
    for binding in form.items:
        if not (isinstance(binding, SList) and len(binding) == 2
                and isinstance(binding.items[0], Symbol)):
            raise BuildError(f"malformed {what} binding")
        pairs.append((binding.items[0].name, binding.items[1]))
    return pairs


def _compile_body(forms, tail=True) -> list:
    """The code of a procedure body or a program: *forms* in sequence,
    the last in tail position.  Not *tail*, the code of a module body:
    each form's value is popped, then it returns."""
    compiler = _Compiler()
    compiler.sequence(forms, tail)
    if not tail:
        compiler.emit(_POP)
        compiler.emit(_RETURN)
    return compiler.code


class _Compiler:
    """Syntax to instructions.  A malformed form compiles to _FAIL with
    its error message, so it fails only if it is executed."""

    def __init__(self):
        self.code: list = []
        self.steps = 0
        self.pushes: list = []

    def emit(self, op, a=None) -> int:
        self.code.append((op, self.steps, tuple(self.pushes), a))
        self.steps = 0
        self.pushes.clear()
        return len(self.code) - 1

    def value(self, op, a, tail) -> None:
        self.emit(op, a)
        if tail:
            self.emit(_RETURN)

    def operand(self, variable: bool, x, tail) -> None:
        """Have the next instruction push a variable's or a constant's value."""
        self.pushes.append((variable, x))
        if tail:
            self.emit(_RETURN)

    def patch(self, at: int) -> None:
        """Point the jump at *at* here, first flushing the held operands."""
        if self.pushes or self.steps:
            self.emit(_PUSH)
        op, steps, pushes, _ = self.code[at]
        self.code[at] = (op, steps, pushes, len(self.code))

    def sequence(self, forms, tail) -> None:
        if not forms:
            self.operand(False, None, tail)
            return
        for form in forms[:-1]:
            self.expr(form, False)
            self.emit(_POP)
        self.expr(forms[-1], tail)

    def expr(self, expr: Sexp, tail: bool) -> None:
        self.steps += 1
        if isinstance(expr, SList):
            if not expr.items:
                self.emit(_FAIL, "cannot evaluate ()")
                return
            head = expr.items[0]
            special = _SPECIAL.get(head.name) if isinstance(head, Symbol) else None
            if special is not None:
                try:
                    special(self, expr, tail)
                except BuildError as exc:
                    self.emit(_FAIL, str(exc))
                return
            for item in expr.items:
                self.expr(item, False)
            self.emit(_TAILCALL if tail else _CALL, len(expr.items) - 1)
        elif isinstance(expr, Symbol):
            self.operand(True, expr.name, tail)
        elif isinstance(expr, (Integer, String, Boolean, Keyword)):
            self.operand(False, _datum(expr), tail)
        else:
            self.emit(_FAIL, f"cannot evaluate {expr!r}")

    # special forms: each checks the whole form before emitting or holding
    # anything and raises BuildError, which `expr` turns into _FAIL

    def scope_body(self, forms, tail) -> None:
        self.sequence(forms, tail)
        if not tail:
            self.emit(_LEAVE)

    def sf_quote(self, expr, tail):
        if len(expr) != 2:
            raise BuildError("malformed quote")
        self.operand(False, _datum(expr.items[1]), tail)

    def sf_if(self, expr, tail):
        if len(expr) not in (3, 4):
            raise BuildError("malformed if")
        self.expr(expr.items[1], False)
        test = self.emit(_JUMP_IF_FALSE)
        self.expr(expr.items[2], tail)
        if not tail:
            done = self.emit(_JUMP)
        self.patch(test)
        if len(expr) == 4:
            self.expr(expr.items[3], tail)
        else:
            self.operand(False, None, tail)
        if not tail:
            self.patch(done)

    def sf_begin(self, expr, tail):
        self.sequence(expr.items[1:], tail)

    def sf_define(self, expr, tail):
        items = expr.items
        target = items[1] if len(items) >= 2 else None
        if isinstance(target, Symbol) and len(items) == 3:
            self.expr(items[2], False)
            self.value(_DEFINE, target.name, tail)
        elif (isinstance(target, SList) and target.items
                and all(isinstance(p, Symbol) for p in target.items)
                and len(items) >= 3):
            name = target.items[0].name
            params = tuple(p.name for p in target.items[1:])
            self.emit(_CLOSURE, (params, _compile_body(items[2:]), name))
            self.value(_DEFINE, name, tail)
        else:
            raise BuildError("malformed define")

    def sf_lambda(self, expr, tail):
        if len(expr) < 3:
            raise BuildError("malformed lambda")
        params_form = expr.items[1]
        if not (isinstance(params_form, SList)
                and all(isinstance(p, Symbol) for p in params_form.items)):
            raise BuildError("lambda parameters must be a list of symbols")
        params = tuple(p.name for p in params_form.items)
        self.value(_CLOSURE,
                   (params, _compile_body(expr.items[2:]), "lambda"), tail)

    def sf_let(self, expr, tail):
        items = expr.items
        if len(items) >= 3 and isinstance(items[1], Symbol):
            if len(items) < 4:
                raise BuildError("malformed named let")
            pairs = _bindings(items[2], "let")
            params = tuple(name for name, _ in pairs)
            self.emit(_LOOP, (params, _compile_body(items[3:]), items[1].name))
            for _, init in pairs:
                self.expr(init, False)
            self.emit(_TAILCALL if tail else _CALL, len(pairs))
            return
        if len(items) < 3:
            raise BuildError("malformed let")
        pairs = _bindings(items[1], "let")
        for _, init in pairs:
            self.expr(init, False)
        self.emit(_ENTER, tuple(name for name, _ in pairs))
        self.scope_body(items[2:], tail)

    def sequential_let(self, expr, tail, what, recursive):
        if len(expr) < 3:
            raise BuildError(f"malformed {what}")
        pairs = _bindings(expr.items[1], what)
        self.emit(_FRAME, tuple(name for name, _ in pairs) if recursive else ())
        for name, init in pairs:
            self.expr(init, False)
            self.emit(_BIND, name)
        self.scope_body(expr.items[2:], tail)

    def sf_use_modules(self, expr, tail):
        names = []
        for form in expr.items[1:]:
            try:
                names.append((ModuleName.from_sexp(form), None))
            except ModuleError as exc:
                names.append((None, str(exc)))
        self.emit(_MODULES, tuple(names))
        self.value(_NEXT_MODULE, None, tail)


_SPECIAL = {
    "quote": _Compiler.sf_quote,
    "if": _Compiler.sf_if,
    "begin": _Compiler.sf_begin,
    "define": _Compiler.sf_define,
    "lambda": _Compiler.sf_lambda,
    "let": _Compiler.sf_let,
    "let*": lambda c, expr, tail: c.sequential_let(expr, tail, "let*", False),
    "letrec": lambda c, expr, tail: c.sequential_let(expr, tail, "letrec", True),
    "letrec*": lambda c, expr, tail: c.sequential_let(expr, tail, "letrec", True),
    "use-modules": _Compiler.sf_use_modules,
}


# run loop

class _Evaluator:
    def __init__(self, env: EvalEnv):
        self.env = env
        self.loaded_modules: set = set()
        self.globals = (dict(_PRIMITIVES), None)

    def run(self, code, frame):
        """Run *code* in *frame*, a (bindings, parent) tuple; return its value.

        Operands and results live on *stack*.  A non-tail call of a
        closure saves the caller's (code, pc, frame) on *control*; a tail
        call saves nothing, so host recursion never grows with the
        program's call depth.  A module body runs as a call, too.
        """
        env = self.env
        budget = env.step_budget
        steps = 0
        stack: list = []
        push = stack.append
        control: list = []
        pc = 0
        while True:
            op, weight, pushes, a = code[pc]
            pc += 1
            if weight:
                steps += weight
                if steps > budget:
                    raise BuildError(
                        f"step budget exceeded ({budget} steps)")
            for variable, value in pushes:
                if variable:
                    bound, scope = frame
                    while value not in bound:
                        if scope is None:
                            raise BuildError(f"unbound variable: {value}")
                        bound, scope = scope
                    name, value = value, bound[value]
                    if value is _UNASSIGNED:
                        raise BuildError(
                            f"variable used before initialization: {name}")
                push(value)
            if op == _CALL or op == _TAILCALL:
                # The operands are stack[-a:], the procedure is below
                # them.  One and two operands are spelled out: that is
                # several times cheaper than zip() or a *-call.
                fn = stack[-a - 1]
                if type(fn) is _Closure:
                    params = fn.params
                    if len(params) != a:
                        raise BuildError(
                            f"{fn.name}: expected {len(params)} "
                            f"arguments, got {a}")
                    if a == 1:
                        bound = {params[0]: stack[-1]}
                    elif a == 2:
                        bound = {params[0]: stack[-2], params[1]: stack[-1]}
                    else:
                        bound = dict(zip(params, stack[len(stack) - a:]))
                    del stack[-a - 1:]
                    if op == _CALL:
                        control.append((code, pc, frame))
                        if len(control) > MAX_CALL_DEPTH:
                            raise BuildError(
                                "recursion too deep: more than "
                                f"{MAX_CALL_DEPTH} nested calls")
                    code, pc, frame = fn.code, 0, (bound, fn.frame)
                    continue
                if type(fn) is not _Primitive:
                    raise BuildError(f"not a procedure: {_display(fn)}")
                if not fn.lo <= a <= fn.hi:
                    raise BuildError(
                        _arity_message(fn.name, fn.lo, fn.hi, a))
                if a == 1:
                    value = fn.fn(env, stack[-1])
                elif a == 2:
                    value = fn.fn(env, stack[-2], stack[-1])
                else:
                    value = fn.fn(env, *stack[len(stack) - a:])
                del stack[-a - 1:]
                if op == _TAILCALL:
                    if not control:
                        return value
                    code, pc, frame = control.pop()
                push(value)
            elif op == _JUMP_IF_FALSE:
                if stack.pop() is False:
                    pc = a
            elif op == _RETURN:
                if not control:
                    return stack.pop()
                code, pc, frame = control.pop()
            elif op == _PUSH:
                pass
            elif op == _POP:
                del stack[-1]
            elif op == _JUMP:
                pc = a
            elif op == _DEFINE:
                frame[0][a] = stack[-1]
                stack[-1] = None
            elif op == _BIND:
                frame[0][a] = stack.pop()
            elif op == _CLOSURE:
                push(_Closure(a[0], a[1], frame, a[2]))
            elif op == _LOOP:  # a named let's procedure, in a frame of its own
                params, body, name = a
                bound = {}
                bound[name] = loop = _Closure(params, body, (bound, frame), name)
                push(loop)
            elif op == _ENTER:
                base = len(stack) - len(a)
                frame = (dict(zip(a, stack[base:])), frame)
                del stack[base:]
            elif op == _FRAME:
                frame = (dict.fromkeys(a, _UNASSIGNED), frame)
            elif op == _LEAVE:
                frame = frame[1]
            elif op == _MODULES:
                push(self._load_modules(a))
            elif op == _NEXT_MODULE:  # enter the next module body, if any
                body = next(stack[-1], None)
                if body is None:
                    stack[-1] = None
                else:
                    control.append((code, pc - 1, frame))
                    code, pc, frame = body, 0, self.globals
            else:
                raise BuildError(a)

    def _load_modules(self, names):
        """The code of each module body a use-modules of *names* runs,
        lazily in run order: imports first, and a module counts as
        loaded once entered."""
        search_path = [_resolve(self.env, d) for d in self.env.module_path]
        for root, error in names:
            if error is not None:
                raise BuildError(error)
            stack = [(None, iter((root,)))]
            while stack:
                for name in stack[-1][1]:
                    if name not in self.loaded_modules:
                        self.loaded_modules.add(name)
                        try:
                            module = load_module(name, search_path)
                        except (ModuleError, ParseError, OSError) as exc:
                            raise BuildError(f"cannot load module {name}: {exc}") from exc
                        stack.append((module, iter(module.imports)))
                        break
                else:
                    module = stack.pop()[0]
                    if module is not None:
                        yield _compile_body(module.source[1:], False)


def _resolve(env: EvalEnv, path: str) -> str:
    return os.path.join(env.base_dir, path)


def _primitives() -> dict:
    """The built-in procedures, made once for every evaluator: each takes
    the EvalEnv first, then its Scheme arguments."""

    def getenv(env, name):
        _check_str(name, "getenv")
        return env.variables.get(name, False)

    def string_append(env, *parts):
        length = 0
        for p in parts:
            length += len(_check_str(p, "string-append"))
        if length > MAX_STRING_LENGTH:
            raise BuildError(f"string-append: result longer than "
                             f"{MAX_STRING_LENGTH} characters")
        return "".join(parts)

    # the integer primitives call _check_int and _check_int64 only to raise

    def plus(env, *args):
        total = 0
        for a in args:
            if type(a) is not int:
                _check_int(a, "+")
            total += a
        return total if INT64_MIN <= total <= INT64_MAX else _check_int64(total, "+")

    def minus(env, first, *rest):
        if type(first) is not int:
            _check_int(first, "-")
        if not rest:
            first = -first
        for a in rest:
            if type(a) is not int:
                _check_int(a, "-")
            first -= a
        return first if INT64_MIN <= first <= INT64_MAX else _check_int64(first, "-")

    def times(env, *args):
        total = 1
        for a in args:
            if type(a) is not int:
                _check_int(a, "*")
            total *= a
        return total if INT64_MIN <= total <= INT64_MAX else _check_int64(total, "*")

    def num_equal(env, first, *rest):
        if type(first) is not int:
            _check_int(first, "=")
        for a in rest:
            if type(a) is not int:
                _check_int(a, "=")
            if a != first:
                return False
        return True

    def make_list(env, *items):
        lst = ()
        for item in reversed(items):
            lst = (item, lst)
        return lst

    def car(env, lst):
        if type(lst) is not tuple or not lst:
            raise BuildError(f"car: expected a non-empty list, got {_display(lst)}")
        return lst[0]

    def cdr(env, lst):
        if type(lst) is not tuple or not lst:
            raise BuildError(f"cdr: expected a non-empty list, got {_display(lst)}")
        return lst[1]

    def cons(env, value, lst):
        if type(lst) is not tuple:
            raise BuildError(f"cons: expected a list, got {_display(lst)}")
        return (value, lst)

    def mkdir(env, path):
        try:
            os.mkdir(_resolve(env, _check_str(path, "mkdir")))
        except OSError as exc:
            raise BuildError(f"mkdir {path}: {exc}") from exc
        return True

    def write_file(env, path, content):
        _check_str(path, "write-file")
        _check_str(content, "write-file")
        try:
            with open(_resolve(env, path), "w", encoding="utf-8") as fh:
                fh.write(content)
        except OSError as exc:
            raise BuildError(f"write-file {path}: {exc}") from exc
        return True

    def read_file(env, path):
        _check_str(path, "read-file")
        try:
            with open(_resolve(env, path), "r", encoding="utf-8") as fh:
                return fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise BuildError(f"read-file {path}: {exc}") from exc

    def copy_file(env, src, dst):
        _check_str(src, "copy-file")
        _check_str(dst, "copy-file")
        try:
            shutil.copyfile(_resolve(env, src), _resolve(env, dst))
        except OSError as exc:
            raise BuildError(f"copy-file {src} -> {dst}: {exc}") from exc
        return True

    def file_exists(env, path):
        return os.path.exists(_resolve(env, _check_str(path, "file-exists?")))

    def error_fn(env, *parts):
        raise BuildError("error: " + " ".join(_display(p) for p in parts))

    def system_star(env, *argv):
        raise BuildError("system* is disabled in this build environment")

    return {name: _Primitive(name, fn) for name, fn in {
        "getenv": getenv,
        "string-append": string_append,
        "list": make_list,
        "cons": cons,
        "car": car,
        "cdr": cdr,
        "null?": lambda env, v: v == (),
        "equal?": lambda env, a, b: _scheme_equal(a, b),
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
    }.items()}


_PRIMITIVES = _primitives()


def mini_eval(program, env: Optional[EvalEnv] = None):
    """Evaluate one form or a sequence of forms, returning the last value."""
    return _python_lists(_evaluate(program, env))


def _evaluate(program, env: Optional[EvalEnv] = None):
    """`mini_eval`'s last value with its lists still evaluator pairs: a
    build discards it, and converting lists that share tails copies them."""
    forms = program if isinstance(program, (list, tuple)) else [program]
    evaluator = _Evaluator(env or EvalEnv())
    try:
        return evaluator.run(_compile_body(forms), evaluator.globals)
    except RecursionError:
        # The compiler recurses on the nesting of code, and printing on
        # the nesting of lists in lists; program calls, module loading
        # and quoted data never recurse on the host stack.
        raise BuildError("recursion limit exceeded in builder program") from None

