"""Staged code with escapes: construction, hygiene, and serialization.

A gexp is a staged program fragment.  Staging makes two passes over
the source:

1. deterministic alpha-renaming of every identifier bound by a
   recognized binding construct (hygiene),
2. compilation of the renamed body into a template (a closure that maps
   one resolved value per escape to the final residual, without ever
   re-traversing the body) and, in the same walk, collection of the
   escape forms (``ungexp`` and friends).

The escapes' host expressions are then evaluated left to right in the
host environment.

Serialization (``gexp_to_sexp``) resolves each escape payload (output
references become ``(getenv "name")`` calls, nested gexps serialize
recursively, lowerable objects go through the supplied resolver) and
applies the template.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import FunctionType
from typing import Callable, Mapping, Optional

from .modules import ModuleName, _arity, _arity_message, coerce_module_names
from .sexp import (Boolean, Digest, Integer, Keyword, Sexp, SList, String,
                   Symbol, hash_sexp, print_canonical, slist)


class StagingError(Exception):
    pass


# head symbol -> (native, splicing)
UNGEXP_HEADS = {
    "ungexp": (False, False),
    "ungexp-splicing": (False, True),
    "ungexp-native": (True, False),
    "ungexp-native-splicing": (True, True),
}

BINDING_HEADS = ("lambda", "let", "let*", "letrec", "letrec*", "define")


@dataclass
class HostEnv:
    """Host bindings visible to escape expressions.  Values may be
    anything: gexps, lowerable objects, sexp data, callables."""

    bindings: Mapping[str, object] = field(default_factory=dict)

    def lookup(self, name: str):
        try:
            return self.bindings[name]
        except KeyError:
            raise StagingError(f"unbound host symbol '{name}'") from None


def as_host_env(env) -> HostEnv:
    if env is None:
        return HostEnv({})
    if isinstance(env, HostEnv):
        return env
    return HostEnv(dict(env))


@dataclass
class Literal:
    value: Sexp


@dataclass
class OutputName:
    name: str


@dataclass
class NestedGexp:
    gexp: "Gexp"


@dataclass
class ListPayload:
    items: tuple


@dataclass(eq=False)
class Lowerable:
    obj: object


@dataclass
class EscapeRef:
    payload: object
    native: bool = False
    splicing: bool = False


@dataclass
class Template:
    """Escape-position substitution compiled from a renamed body."""

    fn: Callable
    arity: int

    def __call__(self, args) -> Sexp:
        args = tuple(args)
        if len(args) != self.arity:
            raise StagingError(
                f"template wants {self.arity} escape values, got {len(args)}")
        return self.fn(args)


@dataclass
class Gexp:
    template: Template
    escapes: tuple[EscapeRef, ...]
    outputs: tuple[str, ...]
    imported_modules: tuple[ModuleName, ...]
    source_digest: Digest

    def __post_init__(self):
        if self.template.arity != len(self.escapes):
            raise StagingError("template arity does not match escape count")


def _head_name(expr: Sexp) -> Optional[str]:
    if isinstance(expr, SList) and expr.items and isinstance(expr.items[0], Symbol):
        return expr.items[0].name
    return None


class _Renamer:
    """Alpha-renaming walk.

    Bound identifiers become ``<name>-<tag>-<depth>`` where the tag is
    the first four hex digits of the source digest and depth counts the
    enclosing recognized binding constructs (0 at the top of the gexp).
    The walk runs in one of three modes:

    * staged: inside this gexp's body; binders assign fresh names.
    * foreign: inside a nested ``(gexp ...)`` found within an escape.
      Outer renames still apply to in-scope occurrences, but binders
      belong to the inner gexp, so they only shadow (the inner staging
      pass renames them later, with its own digest).
    * host: inside an escape's host expression; nothing is renamed, but
      nested ``(gexp ...)`` forms re-enter the foreign walk and quoted
      host data is left untouched.

    Renaming is inert wherever the quote/quasiquote level is positive
    and reactivates under ``unquote`` at the matching level.  Binder
    handling likewise only happens at level zero, so quoted lists that
    merely look like ``let`` forms stay data.
    """

    def __init__(self, tag: str):
        self.tag = tag

    def rename(self, name: str, depth: int) -> str:
        return f"{name}-{self.tag}-{depth}"

    def bind(self, env, names, depth, foreign):
        if foreign:
            return {k: v for k, v in env.items() if k not in set(names)}
        new = dict(env)
        for name in names:
            new[name] = self.rename(name, depth)
        return new

    # -- staged / foreign -------------------------------------------------

    def staged(self, expr, env, depth, qlevel, foreign):
        if isinstance(expr, Symbol):
            if qlevel == 0 and expr.name in env:
                return Symbol(env[expr.name])
            return expr
        if not isinstance(expr, SList) or not expr.items:
            return expr
        head = _head_name(expr)
        if head in ("quote", "quasiquote") and len(expr) == 2:
            return slist(expr[0], self.staged(expr[1], env, depth, qlevel + 1, foreign))
        if head in ("unquote", "unquote-splicing") and len(expr) == 2 and qlevel > 0:
            return slist(expr[0], self.staged(expr[1], env, depth, qlevel - 1, foreign))
        if head in UNGEXP_HEADS:
            rest = tuple(self.host(item, env) for item in expr.items[1:])
            return SList((expr.items[0],) + rest)
        if head == "gexp":
            raise StagingError(
                "literal (gexp ...) in staged position; nest gexps through escapes")
        if qlevel == 0 and head in BINDING_HEADS:
            result = self.binder(head, expr, env, depth, foreign)
            if result is not None:
                return result
        if head == "begin" and qlevel == 0:
            return SList((expr.items[0],)
                         + self.body(expr.items[1:], env, depth, qlevel, foreign))
        return SList(tuple(self.staged(item, env, depth, qlevel, foreign)
                           for item in expr.items))

    def body(self, forms, env, depth, qlevel, foreign):
        """Walk a body sequence; internal defines scope over the whole
        sequence (through nested begins)."""
        defined = _scan_defines(forms)
        env = self.bind(env, defined, depth, foreign) if defined else env
        return tuple(self.staged(form, env, depth, qlevel, foreign) for form in forms)

    def binder(self, head, expr, env, depth, foreign):
        items = expr.items
        if head == "lambda" and len(items) >= 3 and _param_list(items[1]) is not None:
            params = _param_list(items[1])
            inner = self.bind(env, params, depth, foreign)
            new_params = SList(tuple(Symbol(inner.get(p.name, p.name)) for p in items[1]))
            return SList((items[0], new_params)
                         + self.body(items[2:], inner, depth + 1, 0, foreign))
        if head in ("let", "let*", "letrec", "letrec*"):
            return self.let_form(head, expr, env, depth, foreign)
        if head == "define" and len(items) >= 3:
            return self.define_form(expr, env, depth, foreign)
        return None

    def let_form(self, head, expr, env, depth, foreign):
        items = expr.items
        loop_name = None
        bindings_index = 1
        if head == "let" and len(items) >= 4 and isinstance(items[1], Symbol):
            loop_name = items[1].name
            bindings_index = 2
        if len(items) < bindings_index + 2:
            return None
        bindings = _binding_pairs(items[bindings_index])
        if bindings is None:
            return None
        names = [name.name for name, _ in bindings]
        bound = names + ([loop_name] if loop_name else [])
        inner = self.bind(env, bound, depth, foreign)

        new_pairs = []
        if head == "let*":
            # Each init sees the bindings before it.
            running = env
            for i, (name, init) in enumerate(bindings):
                walked = self.staged(init, running, depth + 1, 0, foreign)
                running = self.bind(running, [name.name], depth, foreign)
                new_pairs.append(slist(Symbol(running.get(name.name, name.name)), walked))
            inner = running
        else:
            init_env = inner if head in ("letrec", "letrec*") else env
            for name, init in bindings:
                walked = self.staged(init, init_env, depth + 1, 0, foreign)
                new_pairs.append(slist(Symbol(inner.get(name.name, name.name)), walked))

        parts = [items[0]]
        if loop_name is not None:
            parts.append(Symbol(inner.get(loop_name, loop_name)))
        parts.append(SList(tuple(new_pairs)))
        parts.extend(self.body(items[bindings_index + 1:], inner, depth + 1, 0, foreign))
        return SList(tuple(parts))

    def define_form(self, expr, env, depth, foreign):
        items = expr.items
        target = items[1]
        if isinstance(target, Symbol):
            # Body scans already bound the name when this define sits in
            # a sequence; otherwise bind it here (letrec-style).
            if target.name not in env or foreign:
                env = self.bind(env, [target.name], depth, foreign)
            new_name = Symbol(env.get(target.name, target.name))
            value = tuple(self.staged(i, env, depth + 1, 0, foreign)
                          for i in items[2:])
            return SList((items[0], new_name) + value)
        if (isinstance(target, SList) and target.items
                and all(isinstance(p, Symbol) for p in target.items)):
            fname = target.items[0].name
            if fname not in env or foreign:
                env = self.bind(env, [fname], depth, foreign)
            params = [p.name for p in target.items[1:]]
            inner = self.bind(env, params, depth + 1, foreign)
            new_target = SList(tuple(Symbol(inner.get(p.name, p.name))
                                     for p in target.items))
            return SList((items[0], new_target)
                         + self.body(items[2:], inner, depth + 2, 0, foreign))
        return None

    # -- host -------------------------------------------------------------

    def host(self, expr, env):
        if not isinstance(expr, SList) or not expr.items:
            return expr
        head = _head_name(expr)
        if head == "gexp" and len(expr) == 2:
            return slist(expr.items[0], self.staged(expr.items[1], env, 0, 0, True))
        if head in UNGEXP_HEADS:
            raise StagingError(f"{head} outside any gexp")
        if head == "quote" and len(expr) == 2:
            return expr
        return SList(tuple(self.host(item, env) for item in expr.items))


def _scan_defines(forms) -> list[str]:
    names = []
    for form in forms:
        head = _head_name(form)
        if head == "define" and isinstance(form, SList) and len(form) >= 3:
            target = form.items[1]
            if isinstance(target, Symbol):
                names.append(target.name)
            elif (isinstance(target, SList) and target.items
                  and isinstance(target.items[0], Symbol)):
                names.append(target.items[0].name)
        elif head == "begin":
            names.extend(_scan_defines(form.items[1:]))
    return names


def _param_list(expr):
    if isinstance(expr, SList) and all(isinstance(p, Symbol) for p in expr.items):
        return [p.name for p in expr.items]
    return None


def _binding_pairs(expr):
    if not isinstance(expr, SList):
        return None
    pairs = []
    for item in expr.items:
        if (isinstance(item, SList) and len(item) == 2
                and isinstance(item.items[0], Symbol)):
            pairs.append((item.items[0], item.items[1]))
        else:
            return None
    return pairs


def alpha_rename(body: Sexp, digest: Digest) -> Sexp:
    """Hygienically rename bound identifiers in *body*.

    The renaming is a pure function of the digest (taken over the
    pre-rename source) and each binder's nesting depth, so staging the
    same source twice yields byte-identical residuals.
    """
    return _Renamer(digest.hex[:4]).staged(body, {}, 0, 0, False)


def _parse_escape(form: SList) -> EscapeRef:
    """An escape whose payload is its output name or its unevaluated
    host expression."""
    native, splicing = UNGEXP_HEADS[form.items[0].name]
    args = form.items[1:]
    if len(args) == 1 and args[0] == Symbol("output"):
        return EscapeRef(OutputName("out"), native, splicing)
    if (len(args) == 2 and args[0] == Symbol("output")
            and isinstance(args[1], String)):
        return EscapeRef(OutputName(args[1].value), native, splicing)
    if len(args) == 1:
        return EscapeRef(args[0], native, splicing)
    raise StagingError(f"malformed escape: {print_canonical(form)}")


def substitute_escapes(body: Sexp) -> tuple[Template, list[EscapeRef]]:
    """Compile *body* into a template with one hole per escape, and
    return it with the escapes in left-to-right depth-first order.

    Escape positions are fixed at compile time; applying the template
    only assembles the result, it never searches the body again.
    Quotation does not stop the walk (escapes under quote are still
    escapes), and an escape's host expression is not entered, so
    escapes of a nested ``(gexp ...)`` there belong to that inner gexp.
    """
    escapes: list[EscapeRef] = []

    def compile_node(expr):
        if isinstance(expr, SList) and expr.items:
            if _head_name(expr) in UNGEXP_HEADS:
                escape = _parse_escape(expr)
                escapes.append(escape)
                index = len(escapes) - 1
                return (lambda args, i=index: args[i]), escape.splicing
            parts = [compile_node(item) for item in expr.items]

            def build(args, parts=parts):
                items = []
                for fn, splice in parts:
                    value = fn(args)
                    if splice:
                        if not isinstance(value, SList):
                            raise StagingError(
                                "splicing escape did not resolve to a list")
                        items.extend(value.items)
                    else:
                        items.append(value)
                return SList(tuple(items))

            return build, False
        return (lambda args, e=expr: e), False

    fn, splicing = compile_node(body)
    if splicing:
        raise StagingError("splicing escape cannot be the whole gexp body")
    return Template(fn, len(escapes)), escapes


def classify(value) -> object:
    """Map an evaluated host value onto an escape payload."""
    if isinstance(value, Gexp):
        return NestedGexp(value)
    if isinstance(value, SList):
        return ListPayload(tuple(classify(item) for item in value.items))
    if isinstance(value, Sexp):
        return Literal(value)
    if isinstance(value, bool):
        return Literal(Boolean(value))
    if isinstance(value, int):
        return Literal(Integer(value))
    if isinstance(value, str):
        return Literal(String(value))
    if isinstance(value, (list, tuple)):
        return ListPayload(tuple(classify(item) for item in value))
    if value is None:
        raise StagingError("cannot embed None in staged code")
    return Lowerable(value)


def eval_host(expr: Sexp, env: HostEnv, imported_modules=()):
    """Evaluate a host expression.

    Atoms self-evaluate (symbols look up in *env*), ``(quote d)``
    yields the datum, ``(gexp body)`` stages the body right here with
    the current imported-modules context, ``(with-imported-modules m e)``
    extends that context for its body, and anything else is a call of a
    host callable.
    """
    if isinstance(expr, Symbol):
        return env.lookup(expr.name)
    if isinstance(expr, Integer):
        return expr.value
    if isinstance(expr, String):
        return expr.value
    if isinstance(expr, Boolean):
        return expr.value
    if isinstance(expr, Keyword):
        return expr
    if isinstance(expr, SList):
        if not expr.items:
            raise StagingError("cannot evaluate an empty host form")
        head = _head_name(expr)
        if head == "quote":
            if len(expr) != 2:
                raise StagingError("quote wants exactly one datum")
            return expr.items[1]
        if head == "gexp":
            if len(expr) != 2:
                raise StagingError("gexp wants exactly one body")
            return stage(expr.items[1], env, imported_modules)
        if head in UNGEXP_HEADS:
            raise StagingError(f"{head} outside any gexp")
        if head == "with-imported-modules":
            if len(expr) != 3:
                raise StagingError("with-imported-modules wants modules and a body")
            modules = coerce_module_names(eval_host(expr.items[1], env,
                                                    imported_modules))
            merged = list(imported_modules)
            for name in modules:
                if name not in merged:
                    merged.append(name)
            return eval_host(expr.items[2], env, tuple(merged))
        fn = eval_host(expr.items[0], env, imported_modules)
        if not callable(fn):
            raise StagingError(
                f"host value is not callable: {print_canonical(expr.items[0])}")
        args = [eval_host(item, env, imported_modules) for item in expr.items[1:]]
        if isinstance(fn, FunctionType):
            least, most = _arity(fn)
            if not least <= len(args) <= most:
                raise StagingError(_arity_message(
                    print_canonical(expr.items[0]), least, most, len(args)))
        return fn(*args)
    raise StagingError(f"cannot evaluate host expression: {expr!r}")


def stage(source: Sexp, env=None, imported_modules=()) -> Gexp:
    """Stage *source* into a Gexp.

    Renames binders, compiles the template while collecting the
    escapes, then evaluates each escape's host expression left to
    right in *env*.  A nested ``(gexp ...)`` inside a host expression
    stages at this moment; lowering of embedded objects stays deferred
    until serialization.
    """
    env = as_host_env(env)
    modules = coerce_module_names(list(imported_modules)) if imported_modules else ()
    digest = hash_sexp(source)
    template, escapes = substitute_escapes(alpha_rename(source, digest))
    outputs: list[str] = []
    for i, esc in enumerate(escapes):
        if isinstance(esc.payload, OutputName):
            if esc.payload.name not in outputs:
                outputs.append(esc.payload.name)
        else:
            escapes[i] = EscapeRef(classify(eval_host(esc.payload, env, modules)),
                                   esc.native, esc.splicing)
    return Gexp(template, tuple(escapes), tuple(outputs), modules, digest)


Resolver = Callable[[object, str, Optional[str]], Sexp]


def _resolve_payload(payload, system, target, resolver) -> Sexp:
    if isinstance(payload, Literal):
        return payload.value
    if isinstance(payload, OutputName):
        return slist(Symbol("getenv"), String(payload.name))
    if isinstance(payload, NestedGexp):
        return gexp_to_sexp(payload.gexp, system, target, resolver)
    if isinstance(payload, ListPayload):
        return SList(tuple(_resolve_payload(p, system, target, resolver)
                           for p in payload.items))
    if isinstance(payload, Lowerable):
        if resolver is None:
            raise StagingError(
                f"no resolver supplied for embedded object {payload.obj!r}")
        return resolver(payload.obj, system, target)
    raise StagingError(f"unknown escape payload: {payload!r}")


def gexp_to_sexp(g: Gexp, system: str, target: Optional[str] = None,
                 resolver: Optional[Resolver] = None) -> Sexp:
    """Serialize *g* to its residual program.

    Native escapes resolve with no target, and that nativeness
    propagates to everything beneath them: a nested gexp under ``#+``
    serializes entirely target-free.
    """
    args = []
    for esc in g.escapes:
        effective_target = None if esc.native else target
        args.append(_resolve_payload(esc.payload, system, effective_target, resolver))
    return g.template(args)


def _payloads(g: Gexp):
    """Every escape payload of *g* and of its nested gexps, depth first,
    each with its effective native flag: a native escape makes all
    payloads beneath it native."""
    stack = [(esc.payload, esc.native) for esc in reversed(g.escapes)]
    while stack:
        payload, native = stack.pop()
        yield payload, native
        if isinstance(payload, ListPayload):
            stack.extend((item, native) for item in reversed(payload.items))
        elif isinstance(payload, NestedGexp):
            stack.extend((esc.payload, native or esc.native)
                         for esc in reversed(payload.gexp.escapes))


def gexp_inputs(g: Gexp) -> list[EscapeRef]:
    """Embedded lowerable objects of *g* and of all nested gexps, each
    with its effective native flag, deduplicated by object identity."""
    seen = set()
    out: list[EscapeRef] = []
    for payload, native in _payloads(g):
        if isinstance(payload, Lowerable) and (id(payload.obj), native) not in seen:
            seen.add((id(payload.obj), native))
            out.append(EscapeRef(payload, native=native, splicing=False))
    return out


def gexp_outputs(g: Gexp) -> list[str]:
    """Output names referenced by *g* or any nested gexp.  No default:
    empty means the gexp never mentions its outputs."""
    out: list[str] = []
    for payload, _ in _payloads(g):
        if isinstance(payload, OutputName) and payload.name not in out:
            out.append(payload.name)
    return out


def gexp_modules(g: Gexp) -> tuple[ModuleName, ...]:
    """Imported-module names of *g* unioned with those of nested gexps."""
    nested = (p.gexp for p, _ in _payloads(g) if isinstance(p, NestedGexp))
    return tuple(dict.fromkeys(
        name for gx in (g, *nested) for name in gx.imported_modules))
