"""Staged code with escapes: construction, hygiene, and serialization.

A gexp is a staged program fragment.  Staging hashes the source, then
makes one walk over it (`_Renamer`, the only one) that does three
things at once:

1. deterministic alpha-renaming of every identifier bound by a
   recognized binding construct (hygiene),
2. compilation of the renamed body into a template (a plain function
   that maps one resolved value per escape to the final residual,
   without re-traversing the body; subtrees without an escape are
   constants),
3. collection of the escape forms (``ungexp`` and friends).

The escapes' host expressions are then evaluated left to right in the
host environment.  Output names, embedded objects and imported modules
are read off the escapes (`gexp_outputs` and friends).

Serialization (``gexp_to_sexp``) resolves each escape payload (output
references become ``(getenv "name")`` calls, nested gexps serialize
recursively, lowerable objects go through the supplied resolver) and
applies the template.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from types import FunctionType
from typing import Callable, Mapping, Optional

from .modules import ModuleName, _arity, _arity_message, coerce_module_names
from .sexp import (Boolean, Digest, Integer, Keyword, Sexp, SList, String,
                   Symbol, _slist, _symbol, hash_sexp, print_canonical, slist)


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
_OUTPUT = _symbol("output")


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
class Gexp:
    template: Callable[[list], Sexp]  # one value per escape -> residual
    escapes: tuple[EscapeRef, ...]
    imported_modules: tuple[ModuleName, ...]
    source_digest: Digest


def _head_name(expr: Sexp) -> Optional[str]:
    if isinstance(expr, SList) and expr.items and isinstance(expr.items[0], Symbol):
        return expr.items[0].name
    return None


class _Renamer:
    """Alpha-renaming walk that also compiles the template.

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
    merely look like ``let`` forms stay data; escapes are escapes at
    any level.

    Each method returns the walked node with its template code (see
    `_join`).  ``escapes`` collects the staged (not foreign) escapes.
    """

    def __init__(self, tag: str):
        self.tag = tag
        self.escapes: list[SList] = []

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
                return _symbol(env[expr.name]), None
            return expr, None
        if not isinstance(expr, SList) or not expr.items:
            return expr, None
        items = expr.items
        head = _head_name(expr)
        if head in ("quote", "quasiquote") and len(items) == 2:
            return _join(expr, [(items[0], None), self.staged(
                items[1], env, depth, qlevel + 1, foreign)])
        if head in ("unquote", "unquote-splicing") and len(items) == 2 and qlevel > 0:
            return _join(expr, [(items[0], None), self.staged(
                items[1], env, depth, qlevel - 1, foreign)])
        if head in UNGEXP_HEADS:
            node, _ = _join(expr, [self.host(item, env) for item in items])
            if foreign:
                return node, None
            self.escapes.append(node)
            return node, len(self.escapes) - 1
        if head == "gexp":
            raise StagingError(
                "literal (gexp ...) in staged position; nest gexps through escapes")
        if qlevel == 0 and head in BINDING_HEADS:
            result = self.binder(head, expr, env, depth, foreign)
            if result is not None:
                return result
        if head == "begin" and qlevel == 0:
            return _join(expr, [(items[0], None)]
                         + self.body(items[1:], env, depth, qlevel, foreign))
        return _join(expr, [self.staged(item, env, depth, qlevel, foreign)
                            for item in items])

    def body(self, forms, env, depth, qlevel, foreign):
        """Walk a body sequence; internal defines scope over the whole
        sequence (through nested begins)."""
        defined = _scan_defines(forms)
        env = self.bind(env, defined, depth, foreign) if defined else env
        return [self.staged(form, env, depth, qlevel, foreign) for form in forms]

    def binder(self, head, expr, env, depth, foreign):
        items = expr.items
        if head == "lambda" and len(items) >= 3 and _param_list(items[1]) is not None:
            inner = self.bind(env, _param_list(items[1]), depth, foreign)
            params = _join(items[1], [self.staged(p, inner, depth, 0, foreign)
                                      for p in items[1].items])
            return _join(expr, [(items[0], None), params]
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
        names = [pair.items[0].name for pair in bindings]
        bound = names + ([loop_name] if loop_name else [])
        inner = self.bind(env, bound, depth, foreign)

        # letrec inits see every binding, let* inits the ones before them.
        init_env = inner if head in ("letrec", "letrec*") else env
        new_pairs = []
        for pair in bindings:
            name, init = pair.items
            walked = self.staged(init, init_env, depth + 1, 0, foreign)
            if head == "let*":
                init_env = self.bind(init_env, [name.name], depth, foreign)
            new_pairs.append(_join(pair, [
                self.staged(name, inner, depth, 0, foreign), walked]))

        parts = [(items[0], None)]
        if loop_name is not None:
            parts.append(self.staged(items[1], inner, depth, 0, foreign))
        parts.append(_join(items[bindings_index], new_pairs))
        parts.extend(self.body(items[bindings_index + 1:], inner, depth + 1, 0, foreign))
        return _join(expr, parts)

    def define_form(self, expr, env, depth, foreign):
        items = expr.items
        target = items[1]
        if isinstance(target, Symbol):
            # Body scans already bound the name when this define sits in
            # a sequence; otherwise bind it here (letrec-style).
            if target.name not in env or foreign:
                env = self.bind(env, [target.name], depth, foreign)
            name = self.staged(target, env, depth, 0, foreign)
            return _join(expr, [(items[0], None), name]
                         + [self.staged(i, env, depth + 1, 0, foreign)
                            for i in items[2:]])
        if (isinstance(target, SList) and target.items
                and all(isinstance(p, Symbol) for p in target.items)):
            fname = target.items[0].name
            if fname not in env or foreign:
                env = self.bind(env, [fname], depth, foreign)
            params = [p.name for p in target.items[1:]]
            inner = self.bind(env, params, depth + 1, foreign)
            new_target = _join(target, [self.staged(p, inner, depth, 0, foreign)
                                        for p in target.items])
            return _join(expr, [(items[0], None), new_target]
                         + self.body(items[2:], inner, depth + 2, 0, foreign))
        return None

    # -- host -------------------------------------------------------------

    def host(self, expr, env):
        if not isinstance(expr, SList) or not expr.items:
            return expr, None
        head = _head_name(expr)
        if head == "gexp" and len(expr) == 2:
            return _join(expr, [(expr.items[0], None),
                                self.staged(expr.items[1], env, 0, 0, True)])
        if head in UNGEXP_HEADS:
            raise StagingError(f"{head} outside any gexp")
        if head == "quote" and len(expr) == 2:
            return expr, None
        return _join(expr, [self.host(item, env) for item in expr.items])


def _join(expr: SList, parts: list) -> tuple:
    """The walked list *expr* and its template code, from one walked
    (node, code) pair per item: *expr* itself when no item changed.  A
    code tells `_fill` how to make a node from the escape values: None
    for a constant, an escape's index, or the items' nodes and codes."""
    if not parts:
        return expr, None
    nodes, codes = zip(*parts)
    if not all(map(is_, nodes, expr.items)):
        expr = _slist(nodes)
    return expr, None if codes.count(None) == len(codes) else (nodes, codes)


def _fill(nodes: tuple, codes: tuple, args) -> SList:
    """The list whose items *nodes* and *codes* (see `_join`) describe,
    made with the escape values *args*."""
    items, make = [], _slist
    for node, code in zip(nodes, codes):
        if code is None:
            items.append(node)
        elif type(code) is not int:
            items.append(_fill(*code, args))
        elif UNGEXP_HEADS[node.items[0].name][1]:
            if not isinstance(args[code], SList):
                raise StagingError("splicing escape did not resolve to a list")
            items.extend(args[code].items)
        else:  # the public constructor checks what the resolver returned
            items.append(args[code])
            make = SList
    return make(tuple(items))


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
    """The ``(name init)`` pairs of a binding list, or None."""
    if not isinstance(expr, SList):
        return None
    for item in expr.items:
        if not (isinstance(item, SList) and len(item) == 2
                and isinstance(item.items[0], Symbol)):
            return None
    return expr.items


def _parse_escape(form: SList) -> EscapeRef:
    """An escape whose payload is its output name or its unevaluated
    host expression."""
    native, splicing = UNGEXP_HEADS[form.items[0].name]
    args = form.items[1:]
    if len(args) == 1 and args[0] == _OUTPUT:
        return EscapeRef(OutputName("out"), native, splicing)
    if (len(args) == 2 and args[0] == _OUTPUT
            and isinstance(args[1], String)):
        return EscapeRef(OutputName(args[1].value), native, splicing)
    if len(args) == 1:
        return EscapeRef(args[0], native, splicing)
    raise StagingError(f"malformed escape: {print_canonical(form)}")


def _template(node: Sexp, code, forms: list) -> tuple[Callable, list[EscapeRef]]:
    """The template of a walked body (*node* with its *code*, see
    `_join`) and the parsed escape *forms*."""
    escapes = [_parse_escape(form) for form in forms]
    if code is None:
        return lambda args: node, escapes
    if type(code) is int:
        if escapes[code].splicing:
            raise StagingError("splicing escape cannot be the whole gexp body")
        return lambda args: args[code], escapes
    return lambda args: _fill(*code, args), escapes


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

    One walk renames binders, compiles the template (escape-free
    subtrees become its constants) and collects the escapes; then each
    escape's host expression is evaluated left to right in *env*.  A
    nested ``(gexp ...)`` inside a host expression stages at this
    moment; lowering of embedded objects stays deferred until
    serialization.
    """
    if not isinstance(env, HostEnv):
        env = HostEnv(dict(env or {}))
    modules = coerce_module_names(list(imported_modules)) if imported_modules else ()
    digest = hash_sexp(source)
    renamer = _Renamer(digest.hex[:4])
    template, escapes = _template(*renamer.staged(source, {}, 0, 0, False),
                                  renamer.escapes)
    for i, esc in enumerate(escapes):
        if not isinstance(esc.payload, OutputName):
            escapes[i] = EscapeRef(classify(eval_host(esc.payload, env, modules)),
                                   esc.native, esc.splicing)
    return Gexp(template, tuple(escapes), modules, digest)


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
