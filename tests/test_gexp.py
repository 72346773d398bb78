import hashlib
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from gexpkit import (Boolean, EvalEnv, Gexp, Integer, SList, StagingError,
                     String, Symbol, eval_host, gexp_inputs, gexp_modules,
                     gexp_outputs, gexp_to_sexp, hash_sexp, mini_eval,
                     print_canonical, read, slist, stage)
from gexpkit.gexp import UNGEXP_HEADS, Lowerable, OutputName, _Renamer

from strategies import sexps

SYSTEM = "x86_64-linux"


def residual(g, target=None, resolver=None):
    return print_canonical(gexp_to_sexp(g, SYSTEM, target, resolver))


def alpha_renamed(body):
    """*body* as staging renames it, escapes left in place."""
    return _Renamer(hash_sexp(body).hex[:4]).staged(body, {}, 0, 0, False)[0]


def tag_of(canonical_text):
    # renaming tags are the first four hex digits of the body's hash
    return hashlib.sha256(canonical_text.encode()).hexdigest()[:4]


class Thing:
    """Opaque host object standing in for a package."""


class TestEscapeCollection:
    def test_escape_order_and_kinds(self):
        imagemagick, image = Thing(), Thing()
        g = stage(read("""
            (begin
              (mkdir #$output)
              (install #$imagemagick #$image
                       (string-append #$output "/image.jpg")))"""),
                  {"imagemagick": imagemagick, "image": image})
        kinds = [type(e.payload) for e in g.escapes]
        assert kinds == [OutputName, Lowerable, Lowerable, OutputName]
        assert g.escapes[1].payload.obj is imagemagick
        assert g.escapes[2].payload.obj is image
        assert gexp_outputs(g) == ["out"]

    def test_named_output(self):
        g = stage(read('(list #$output (ungexp output "lib"))'))
        assert [e.payload.name for e in g.escapes] == ["out", "lib"]
        assert gexp_outputs(g) == ["out", "lib"]

    def test_escapes_collected_under_quote(self):
        g = stage(read("'(a #$x)"), {"x": 1})
        assert len(g.escapes) == 1
        assert residual(g) == "(quote (a 1))"

    def test_collect_does_not_enter_nested_gexp_in_host_exprs(self):
        # Under quasiquote/unquote too, #$a, the escape holding the
        # nested #~ and #$b belong to the outer gexp, in that order;
        # #$inner belongs to the nested one.
        inner = Thing()
        g = stage(read("(f `(x ,#$a ,(g #$(id #~(h #$inner)))) #$b)"),
                  {"a": 1, "b": 2, "inner": inner, "id": lambda v: v})
        kinds = [type(e.payload) for e in g.escapes]
        assert kinds == [Integer, Gexp, Integer]
        nested = g.escapes[1].payload
        assert [e.payload.obj for e in nested.escapes] == [inner]
        assert residual(g, resolver=lambda o, s, t: String("inner")) == (
            '(f (quasiquote (x (unquote 1) (unquote (g (h "inner"))))) 2)')

    @pytest.mark.parametrize("source, message", [
        ("(list #$(record 1) (ungexp a b))", "malformed escape"),
        ("#$@(record 1)", "whole gexp body"),
    ], ids=["malformed-escape", "whole-body-splice"])
    def test_rejected_before_any_host_code_runs(self, source, message):
        calls = []

        def record(value):
            calls.append(value)
            return [value]

        with pytest.raises(StagingError, match=message):
            stage(read(source), {"record": record, "a": 1, "b": 2})
        assert calls == []

    @pytest.mark.parametrize("source, error", [
        ("(a (b #$x))", ValueError),
        ("(a (b #$@x))", StagingError),
    ], ids=["placed", "spliced"])
    def test_template_checks_what_the_resolver_returns(self, source, error):
        g = stage(read(source), {"x": Thing()})
        with pytest.raises(error):
            gexp_to_sexp(g, SYSTEM, None, lambda obj, system, target: "text")

    def test_escape_free_subtrees_are_template_constants(self):
        g = stage(read("(begin (a (b c)) (d #$x))"), {"x": 1})
        first, second = gexp_to_sexp(g, SYSTEM), gexp_to_sexp(g, SYSTEM)
        assert print_canonical(first) == "(begin (a (b c)) (d 1))"
        assert first.items[1] is second.items[1]
        assert first.items[2] is not second.items[2]

    def test_literal_gexp_in_staged_position_rejected(self):
        with pytest.raises(StagingError):
            stage(read("(list (gexp x))"))

    def test_none_payload_rejected(self):
        with pytest.raises(StagingError):
            stage(read("#$x"), {"x": None})


class TestRenaming:
    def test_lambda_param_renamed_with_depth(self):
        src = "(lambda (x) (lambda (x) x))"
        tag = tag_of(src)
        g = stage(read(src))
        assert residual(g) == (
            f"(lambda (x-{tag}-0) (lambda (x-{tag}-1) x-{tag}-1))")

    def test_unchanged_lists_are_kept(self):
        body = read("(f (g 1) (let ((x 1)) x))")
        renamed = alpha_renamed(body)
        assert renamed.items[1] is body.items[1]
        assert renamed.items[2] is not body.items[2]

    def test_free_symbols_untouched(self):
        g = stage(read("(+ x y)"))
        assert residual(g) == "(+ x y)"

    def test_quote_inert(self):
        src = "(let ((x 1)) (list 'x (quote (x y)) x))"
        tag = tag_of("(let ((x 1)) (list (quote x) (quote (x y)) x))")
        g = stage(read(src))
        assert residual(g) == (
            f"(let ((x-{tag}-0 1)) "
            f"(list (quote x) (quote (x y)) x-{tag}-0))")

    def test_quasiquote_with_unquote(self):
        # inside quasiquote only unquoted holes see the renamer
        src = "(lambda (x) `(x ,x))"
        expanded = "(lambda (x) (quasiquote (x (unquote x))))"
        tag = tag_of(expanded)
        g = stage(read(src))
        assert residual(g) == (
            f"(lambda (x-{tag}-0) (quasiquote (x (unquote x-{tag}-0))))")

    def test_let_star_sequential_scope(self):
        src = "(let* ((x 1) (y x)) y)"
        tag = tag_of(src)
        g = stage(read(src))
        assert residual(g) == (
            f"(let* ((x-{tag}-0 1) (y-{tag}-0 x-{tag}-0)) y-{tag}-0)")

    def test_named_let(self):
        src = "(let loop ((i n)) (if (= i 0) 0 (loop (- i 1))))"
        tag = tag_of(src)
        g = stage(read(src))
        assert residual(g) == (
            f"(let loop-{tag}-0 ((i-{tag}-0 n)) "
            f"(if (= i-{tag}-0 0) 0 (loop-{tag}-0 (- i-{tag}-0 1))))")

    def test_internal_define(self):
        src = "(lambda (n) (define (twice k) (* 2 k)) (twice n))"
        tag = tag_of(src)
        g = stage(read(src))
        assert residual(g) == (
            f"(lambda (n-{tag}-0) "
            f"(define (twice-{tag}-1 k-{tag}-2) (* 2 k-{tag}-2)) "
            f"(twice-{tag}-1 n-{tag}-0))")

    def test_determinism_and_source_sensitivity(self):
        a1 = stage(read("(let ((x 1)) x)"))
        a2 = stage(read("(let ((x 1)) x)"))
        b = stage(read("(let ((x 2)) x)"))
        assert residual(a1) == residual(a2)
        assert residual(a1) != residual(b)

    @given(sexps)
    @settings(max_examples=80)
    def test_renaming_preserves_shape(self, value):
        renamed = alpha_renamed(value)

        def shape(v):
            if isinstance(v, SList):
                return tuple(shape(i) for i in v.items)
            if isinstance(v, Symbol):
                return Symbol
            return v

        assert shape(renamed) == shape(value)


class TestHygiene:
    def test_cross_stage_scope_preserved(self):
        def gen_body(x):
            return stage(read("(let ((x 40)) (+ x #$x))"), {"x": x})

        outer = stage(read("(let ((x 2)) #$(gen-body #~x))"),
                      {"gen-body": gen_body})
        text = residual(outer)
        m = re.fullmatch(
            r"\(let \(\((x-[0-9a-f]{4}-0) 2\)\) "
            r"\(let \(\((x-[0-9a-f]{4}-0) 40\)\) \(\+ \2 \1\)\)\)", text)
        assert m, text
        assert m.group(1) != m.group(2)
        assert mini_eval(read(text)) == 42

    def test_outer_rename_reaches_into_nested_gexp(self):
        # in-scope occurrences inside a nested gexp pick up the outer
        # renaming; binders in there shadow without being renamed
        src = read("(let ((x 1)) (ungexp (f (gexp x) (gexp (lambda (x) x)))))")
        renamed = alpha_renamed(src)
        tag = hash_sexp(src).hex[:4]
        assert print_canonical(renamed) == (
            f"(let ((x-{tag}-0 1)) "
            f"(ungexp (f (gexp x-{tag}-0) (gexp (lambda (x) x)))))")

    def test_nested_gexp_binders_get_their_own_tag(self):
        g = stage(read("(let ((x 1)) #$(identity #~(lambda (x) x)))"),
                  {"identity": lambda v: v})
        text = residual(g)
        m = re.fullmatch(
            r"\(let \(\(x-([0-9a-f]{4})-0 1\)\) "
            r"\(lambda \(x-([0-9a-f]{4})-0\) x-\2-0\)\)", text)
        assert m, text
        assert m.group(1) != m.group(2)


class TestHostEval:
    def test_atoms_self_evaluate(self):
        env = {}
        assert eval_host(Integer(3), env) == 3
        assert eval_host(String("s"), env) == "s"
        assert eval_host(Boolean(True), env) is True

    def test_application(self):
        env = {"add": lambda a, b: a + b}
        assert eval_host(read("(add 1 2)"), env) == 3

    def test_quote_yields_datum(self):
        assert eval_host(read("'(a b)"), {}) == read("(a b)")

    def test_unbound_symbol(self):
        with pytest.raises(StagingError, match="unbound host symbol 'nope'"):
            eval_host(read("nope"), {})

    def test_ungexp_outside_gexp(self):
        with pytest.raises(StagingError, match="outside any gexp"):
            eval_host(read("#$x"), {"x": 1})

    def test_non_callable_application(self):
        with pytest.raises(StagingError, match="not callable"):
            eval_host(read("(x 1)"), {"x": 5})

    @pytest.mark.parametrize("call, message", [
        ("(add 1)", "add: expected 2 arguments, got 1"),
        ("(opt)", "opt: expected 1 to 2 arguments, got 0"),
        ("(many)", "many: expected at least 1 arguments, got 0"),
    ])
    def test_wrong_argument_count_is_a_staging_error(self, call, message):
        env = {"add": lambda a, b: a + b,
               "opt": lambda a, b=None: a,
               "many": lambda a, *rest: a}
        with pytest.raises(StagingError, match=f"^{re.escape(message)}$"):
            eval_host(read(call), env)
        assert eval_host(read("(many 1 2 3)"), env) == 1

    def test_with_imported_modules(self):
        g = eval_host(read("(with-imported-modules '((demo util a)) #~(f))"), {})
        assert [str(m) for m in g.imported_modules] == ["(demo util a)"]

    def test_imported_modules_union_across_nesting(self):
        inner = eval_host(read("(with-imported-modules '((m one)) #~1)"), {})
        outer = eval_host(
            read("(with-imported-modules '((m two)) #~(list #$inner))"),
            {"inner": inner})
        assert [str(m) for m in gexp_modules(outer)] == ["(m two)", "(m one)"]


# Staged bodies whose escapes hold literals and lists: each escape names
# a bound host variable or quotes a datum, which may itself look like an
# escape.  Binding heads appear often, so the renamer rewrites the body.
_VALUES = {"v0": Integer(7), "v1": String("s"), "v2": read("(a (b #t))"),
           "l0": read("(1 x)"), "l1": SList(())}
_data = st.recursive(
    st.one_of(st.integers(-9, 9).map(Integer), st.sampled_from([
        "x", "y", "f", "let", "lambda", "define", "begin", "quote",
        "quasiquote", "unquote"]).map(Symbol)),
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(lambda i: SList(tuple(i))),
        st.builds(lambda head, host: slist(Symbol(head), host),
                  st.sampled_from(sorted(UNGEXP_HEADS)),
                  st.sampled_from(["l0", "l1"]).map(Symbol)),
        st.builds(lambda head, host: slist(Symbol(head), host),
                  st.sampled_from(["ungexp", "ungexp-native"]),
                  st.one_of(st.sampled_from(["v0", "v1", "v2"]).map(Symbol),
                            children.map(lambda d: slist(Symbol("quote"), d))))),
    max_leaves=20)
_bodies = st.lists(_data, max_size=4).map(lambda i: SList(tuple(i)))


def substituted(node):
    """Reference for the template compiler: the renamed *node* with each
    escape replaced by its value, depth first, spliced for the
    ``-splicing`` heads, host expressions not entered."""
    if not isinstance(node, SList):
        return node
    items = []
    for item in node.items:
        head = item.items[0] if isinstance(item, SList) and item.items else None
        if isinstance(head, Symbol) and head.name in UNGEXP_HEADS:
            host = item.items[1]
            value = (host.items[1] if isinstance(host, SList)
                     else _VALUES[host.name])
            if UNGEXP_HEADS[head.name][1]:
                items.extend(value.items)
            else:
                items.append(value)
        else:
            items.append(substituted(item))
    return SList(tuple(items))


class TestTemplates:
    @given(_bodies)
    @settings(max_examples=150)
    def test_template_matches_the_reference(self, body):
        assert gexp_to_sexp(stage(body, _VALUES), SYSTEM) == substituted(
            alpha_renamed(body))

    def test_compiled_once_applied_per_serialization(self):
        thing = Thing()
        g = stage(read("(list #$thing)"), {"thing": thing})
        first = print_canonical(
            gexp_to_sexp(g, SYSTEM, None, lambda o, s, t: String("alpha")))
        second = print_canonical(
            gexp_to_sexp(g, SYSTEM, None, lambda o, s, t: String("beta")))
        assert first == '(list "alpha")'
        assert second == '(list "beta")'

    def test_splicing(self):
        g = stage(read("(list 1 #$@middle 4)"), {"middle": [2, 3]})
        text = residual(g)
        assert text == "(list 1 2 3 4)"
        assert mini_eval(read(text)) == [1, 2, 3, 4]

    def test_splice_requires_list(self):
        g = stage(read("(list #$@x)"), {"x": 5})
        with pytest.raises(StagingError, match="splic"):
            residual(g)

    def test_missing_resolver_for_object(self):
        g = stage(read("(list #$obj)"), {"obj": Thing()})
        with pytest.raises(StagingError, match="no resolver"):
            residual(g)


class TestNesting:
    def test_nested_gexp_serializes_recursively(self):
        inner = stage(read("(+ 1 2)"))
        outer = stage(read("(list #$inner)"), {"inner": inner})
        assert residual(outer) == "(list (+ 1 2))"

    def test_inputs_union_and_dedup(self):
        shared = Thing()
        inner = stage(read("(f #$shared)"), {"shared": shared})
        outer = stage(read("(g #$shared #$inner)"),
                      {"shared": shared, "inner": inner})
        refs = gexp_inputs(outer)
        assert len(refs) == 1
        assert refs[0].payload.obj is shared

    def test_native_flag_propagates_into_nested(self):
        tool = Thing()
        inner = stage(read("(f #$tool)"), {"tool": tool})
        outer = stage(read("(g #+inner)"), {"inner": inner})
        refs = gexp_inputs(outer)
        assert [(r.payload.obj, r.native) for r in refs] == [(tool, True)]

    def test_same_object_native_and_target_counts_twice(self):
        tool = Thing()
        g = stage(read("(list #$tool #+tool)"), {"tool": tool})
        refs = gexp_inputs(g)
        assert [(r.payload.obj, r.native) for r in refs] == [
            (tool, False), (tool, True)]

    def test_outputs_union_across_nesting(self):
        inner = stage(read('(f (ungexp output "lib"))'))
        outer = stage(read("(g #$output #$inner)"), {"inner": inner})
        assert gexp_outputs(outer) == ["out", "lib"]

    def test_output_reference_becomes_getenv(self):
        g = stage(read("(mkdir #$output)"))
        assert residual(g) == '(mkdir (getenv "out"))'


class TestSemanticPreservation:
    def test_staging_is_meaning_preserving_for_closed_programs(self):
        src = read("""
            (let ((compose (lambda (f g) (lambda (x) (f (g x)))))
                  (inc (lambda (n) (+ n 1))))
              ((compose inc inc) 40))""")
        direct = mini_eval(src)
        staged = mini_eval(gexp_to_sexp(stage(src), SYSTEM))
        assert direct == staged == 42
