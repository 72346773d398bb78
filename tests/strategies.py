"""Hypothesis strategies shared across the suite."""

import string

import hypothesis.strategies as st

from gexpkit import (Boolean, Integer, Keyword, SList, String, Symbol, read,
                     slist)

_SYMBOL_START = string.ascii_lowercase
_SYMBOL_REST = string.ascii_lowercase + string.digits + "*!?<>=-"

symbols = st.builds(
    lambda first, rest: Symbol(first + rest),
    st.sampled_from(_SYMBOL_START),
    st.text(alphabet=_SYMBOL_REST, max_size=6))

strings = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    max_size=10).map(String)

integers = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1).map(Integer)

atoms = st.one_of(integers, st.booleans().map(Boolean), strings, symbols)

sexps = st.recursive(
    atoms,
    lambda children: st.lists(children, max_size=5).map(lambda i: SList(tuple(i))),
    max_leaves=25)


# Escape-free integer programs over the builder evaluator's subset.
# Variable names come from a fixed pool so shadowing happens often.

_VAR_POOL = ("v0", "v1", "v2", "v3")


def _int_expr(env: tuple, depth: int):
    leaves = [st.integers(min_value=-50, max_value=50).map(Integer)]
    if env:
        leaves.append(st.sampled_from(env).map(Symbol))
    base = st.one_of(*leaves)
    if depth <= 0:
        return base

    sub = _int_expr(env, depth - 1)

    binop = st.builds(
        lambda op, a, b: slist(Symbol(op), a, b),
        st.sampled_from(("+", "-", "*")), sub, sub)

    let = st.sampled_from(_VAR_POOL).flatmap(
        lambda var: st.builds(
            lambda init, body: slist(
                Symbol("let"), slist(slist(Symbol(var), init)), body),
            sub, _int_expr(env + (var,), depth - 1)))

    conditional = st.builds(
        lambda a, b, then, alt: slist(
            Symbol("if"), slist(Symbol("="), a, b), then, alt),
        sub, sub, sub, sub)

    call = st.sampled_from(_VAR_POOL).flatmap(
        lambda var: st.builds(
            lambda body, arg: slist(
                slist(Symbol("lambda"), slist(Symbol(var)), body), arg),
            _int_expr(env + (var,), depth - 1), sub))

    return st.one_of(base, binop, let, conditional, call)


int_programs = _int_expr((), 3)



# Builder programs over every special form and primitive, with random
# arities and argument kinds: many are malformed or fail when run.
# File names are relative and never "..", so a program only touches the
# directory it runs in.  The primitives that can grow a value faster
# than one step at a time (a product, a concatenation, a list holding
# one list twice) get only literal arguments, so the step budget bounds
# the size of every value too.

_BUILDER_NAMES = ("v0", "v1", "v2")
_GROWING = ("*", "string-append", "list", "cons")
_OTHER_PRIMITIVES = ("getenv", "car", "cdr", "null?", "equal?", "+", "-",
                     "=", "mkdir", "write-file", "read-file", "copy-file",
                     "file-exists?", "error", "system*")
_SPECIAL_FORMS = ("quote", "if", "begin", "define", "lambda", "let", "let*",
                  "letrec", "letrec*", "use-modules")
_MODULE_NAMES = ("(demo util a)", "(demo build utils)", "(no such)", "demo")

_builder_literals = st.one_of(
    st.sampled_from((0, 1, 2, -1, 2 ** 63 - 1, -(2 ** 63))).map(Integer),
    st.booleans().map(Boolean),
    st.sampled_from(("", "a", "b", "a/b", "out", "x y")).map(String),
    st.just(Keyword("k")),
    st.sampled_from(("'(1 (2 \"a\") #t)", "'()", "'v0")).map(read))

_builder_names = st.sampled_from(_BUILDER_NAMES).map(Symbol)


def _form(*parts):
    """A list strategy: each part gives one item, or a list of items."""
    def flatten(values):
        items = []
        for value in values:
            items.extend(value if isinstance(value, list) else [value])
        return SList(tuple(items))
    return st.tuples(*parts).map(flatten)


def _builder_extend(children):
    body = st.lists(children, min_size=1, max_size=2)
    bindings = st.lists(st.tuples(_builder_names, children), max_size=2).map(
        lambda pairs: SList(tuple(slist(*pair) for pair in pairs)))
    params = st.lists(_builder_names, max_size=2).map(
        lambda names: SList(tuple(names)))

    def special(name, *parts):
        return _form(st.just(Symbol(name)), *parts)

    return st.one_of(
        _form(st.one_of(st.sampled_from(_OTHER_PRIMITIVES).map(Symbol),
                        children),
              st.lists(children, max_size=3)),
        _form(st.sampled_from(_GROWING).map(Symbol),
              st.lists(_builder_literals, max_size=3)),
        special("if", children, children, st.lists(children, max_size=1)),
        st.sampled_from(("let", "let*", "letrec", "letrec*")).flatmap(
            lambda head: special(head, bindings, body)),
        special("let", _builder_names, bindings, body),
        special("lambda", params, body),
        special("define", _builder_names, children),
        special("define", _form(_builder_names, st.lists(_builder_names,
                                                         max_size=2)), body),
        special("begin", st.lists(children, max_size=3)),
        special("use-modules", st.sampled_from(_MODULE_NAMES).map(read)),
        _form(st.sampled_from(_SPECIAL_FORMS).map(Symbol),
              st.lists(children, max_size=3)),
    )


builder_programs = st.lists(
    st.recursive(st.one_of(_builder_literals, _builder_names),
                 _builder_extend, max_leaves=20),
    min_size=1, max_size=3)
