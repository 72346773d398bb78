import os
import re
import signal
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings

from gexpkit import builder
from gexpkit import (BuildError, Derivation, EvalEnv, Package, Store, build,
                     gexp_to_derivation, mini_eval, output_path, plan, read,
                     read_all, stage, write_derivation)

from conftest import FIXTURE_DIR
from strategies import builder_programs


class _TooSlow(Exception):
    pass


def _too_slow(signum, frame):
    raise _TooSlow("did not return at once")


def ev(text, **kwargs):
    return mini_eval(read_all(text), EvalEnv(**kwargs) if kwargs else None)


class TestMiniEval:
    def test_arithmetic(self):
        assert ev("(+ 1 2 3)") == 6
        assert ev("(- 10 1 2)") == 7
        assert ev("(- 5)") == -5
        assert ev("(* 2 3 4)") == 24
        assert ev("(= 2 2 2)") is True
        assert ev("(= 2 3)") is False

    def test_arithmetic_stays_in_the_reader_range(self):
        assert ev("(+ 9223372036854775806 1)") == 2**63 - 1
        assert ev("(- -9223372036854775807 1)") == -(2**63)
        assert ev("(* -4611686018427387904 2)") == -(2**63)
        for program, op in [("(* 4611686018427387904 4)", "*"),
                            ("(- -9223372036854775808)", "-"),
                            ("(+ 9223372036854775807 1)", "+"),
                            ("(- -9223372036854775808 1)", "-")]:
            message = f"{op}: result out of signed 64-bit range"
            with pytest.raises(BuildError, match="^" + re.escape(message)):
                ev(program)

    def test_squaring_loop_stops_at_the_int64_bound(self):
        # Unbounded, x reaches 3**(2**24): about ten seconds of bignum work.
        with pytest.raises(BuildError, match="64-bit"):
            ev("(let loop ((x 3) (i 0))"
               " (if (= i 24) (= x 0) (loop (* x x) (+ i 1))))")

    def test_strings(self):
        assert ev('(string-append "a" "b" "c")') == "abc"
        with pytest.raises(BuildError, match="string-append"):
            ev('(string-append "a" 1)')

    def test_lists(self):
        assert ev("(list 1 2)") == [1, 2]
        assert ev("(cons 0 (list 1))") == [0, 1]
        assert ev("(car (list 7 8))") == 7
        assert ev("(cdr (list 7 8))") == [8]
        assert ev("(null? (list))") is True
        assert ev("(null? (list 1))") is False
        with pytest.raises(BuildError):
            ev("(car (list))")

    def test_equality_keeps_booleans_and_ints_apart(self):
        assert ev("(equal? 1 1)") is True
        assert ev("(equal? 1 #t)") is False
        assert ev("(equal? (list 1 (list 2)) (list 1 (list 2)))") is True
        assert ev('(equal? "1" 1)') is False

    def test_quote(self):
        assert ev("'(1 2 (3))") == [1, 2, [3]]
        assert ev("(car '(a b))") == read("a")

    def test_only_false_is_falsy(self):
        assert ev("(if 0 1 2)") == 1
        assert ev('(if "" 1 2)') == 1
        assert ev("(if (list) 1 2)") == 1
        assert ev("(if #f 1 2)") == 2

    def test_binding_forms(self):
        assert ev("(let ((x 1) (y 2)) (+ x y))") == 3
        assert ev("(let* ((x 1) (y (+ x 1))) y)") == 2
        assert ev("""
            (letrec ((even? (lambda (n) (if (= n 0) #t (odd? (- n 1)))))
                     (odd? (lambda (n) (if (= n 0) #f (even? (- n 1))))))
              (even? 10))""") is True
        assert ev("(let loop ((i 0) (acc 0))"
                  " (if (= i 5) acc (loop (+ i 1) (+ acc i))))") == 10

    def test_define_and_lambda(self):
        assert ev("(define (inc n) (+ n 1)) (inc 41)") == 42
        assert ev("(define f (lambda (a b) (* a b))) (f 6 7)") == 42
        with pytest.raises(BuildError, match="arguments"):
            ev("((lambda (a) a) 1 2)")

    def test_letrec_use_before_init(self):
        with pytest.raises(BuildError, match="before initialization"):
            ev("(letrec ((a b) (b 1)) a)")

    def test_unbound_variable(self):
        with pytest.raises(BuildError, match="unbound variable: ghost"):
            ev("(+ ghost 1)")

    def test_error_builtin(self):
        with pytest.raises(BuildError, match="error: boom 3"):
            ev('(error "boom" (+ 1 2))')

    def test_error_prints_keywords_and_symbols_as_written(self):
        with pytest.raises(BuildError, match="^error: #:k sym \\(#:a 1\\)$"):
            ev("(error #:k 'sym '(#:a 1))")

    def test_getenv_reads_only_the_supplied_variables(self):
        os.environ["GEXPKIT_LEAK_PROBE"] = "visible"
        try:
            assert ev('(getenv "GEXPKIT_LEAK_PROBE")') is False
            assert ev('(getenv "X")', variables={"X": "1"}) == "1"
        finally:
            del os.environ["GEXPKIT_LEAK_PROBE"]

    def test_step_budget(self):
        with pytest.raises(BuildError, match="step budget"):
            ev("(let loop ((i 0)) (loop (+ i 1)))", step_budget=500)

    def test_deep_recursion_reported(self):
        with pytest.raises(BuildError, match="recursion|step budget"):
            ev("(define (down n) (if (= n 0) 0 (+ 1 (down (- n 1)))))"
               " (down 100000)")

    def test_system_star_gated(self):
        with pytest.raises(BuildError, match="disabled"):
            ev('(system* "true")')

    def test_file_ops_resolve_against_base_dir(self, tmp_path):
        env = EvalEnv(base_dir=str(tmp_path))
        mini_eval(read_all('(write-file "f" "content")'), env)
        assert (tmp_path / "f").read_text() == "content"
        assert mini_eval(read('(read-file "f")'), env) == "content"
        assert mini_eval(read('(file-exists? "f")'), env) is True
        assert mini_eval(read('(file-exists? "g")'), env) is False

    def test_use_modules_chain(self, module_dir):
        value = mini_eval(
            read_all("(use-modules (demo util a)) (a-label)"),
            EvalEnv(module_path=(module_dir,)))
        assert value == "a+b+c"

    def test_use_modules_missing(self):
        with pytest.raises(BuildError, match="module not found"):
            ev("(use-modules (no such module))")

    def test_relative_module_dir_resolves_against_base_dir(self, tmp_path):
        mods = tmp_path / "mods" / "demo"
        mods.mkdir(parents=True)
        (mods / "x.scm").write_text(
            "(define-module (demo x))\n(define (x-val) 42)\n")
        env = EvalEnv(base_dir=str(tmp_path), module_path=("mods",))
        assert mini_eval(read_all("(use-modules (demo x)) (x-val)"), env) == 42

    @pytest.mark.parametrize("body", [b"(define (f)\n", b'(define x "\xff")\n'],
                             ids=["syntax-error", "not-utf8"])
    def test_unreadable_module_is_a_build_error(self, tmp_path, body):
        mods = tmp_path / "mods" / "demo"
        mods.mkdir(parents=True)
        (mods / "bad.scm").write_bytes(b"(define-module (demo bad))\n" + body)
        env = EvalEnv(base_dir=str(tmp_path), module_path=("mods",))
        with pytest.raises(BuildError, match=r"\(demo bad\)"):
            mini_eval(read_all("(use-modules (demo bad))"), env)

    def test_non_tail_recursion_up_to_the_depth_cap(self):
        # (down n) leaves n calls of down pending at its deepest.
        down = "(define (down n) (if (= n 0) 0 (+ 1 (down (- n 1)))))"
        depth = builder.MAX_CALL_DEPTH
        assert ev(f"{down} (down {depth})") == depth
        with pytest.raises(BuildError, match="^recursion too deep"):
            ev(f"{down} (down {depth + 1})")

    def test_tail_calls_do_not_nest(self):
        assert ev("(define (down n) (if (= n 0) 0 (down (- n 1))))"
                  " (down 100000)") == 0
        assert ev("""
            (letrec ((even? (lambda (n) (if (= n 0) #t (odd? (- n 1)))))
                     (odd? (lambda (n) (if (= n 0) #f (even? (- n 1))))))
              (even? 20001))""") is False

    def test_long_named_let_fits_the_default_budget(self):
        # 15 steps per iteration plus 9: 7,500,009 of the 10,000,000.
        assert ev("(let loop ((i 0) (acc 0))"
                  " (if (= i 500000) acc (loop (+ i 1) (+ acc i))))"
                  ) == 500000 * 499999 // 2

    @pytest.mark.parametrize("consumer", ["(error x)"])
    def test_deeply_nested_list_is_a_build_error(self, consumer):
        with pytest.raises(BuildError, match="recursion"):
            ev("(let loop ((i 0) (x (list)))"
               f" (if (= i 100000) {consumer} (loop (+ i 1) (list x))))")

    def test_deeply_nested_lists_compare(self):
        nest = ("(let loop ((i 0) (x (list)) (y (list {})))"
                " (if (= i 20000) (equal? x y) (loop (+ i 1) (list x) (list y))))")
        assert ev(nest.format("")) is True
        assert ev(nest.format("1")) is False

    @pytest.mark.parametrize("program, expected", [
        ("(equal? x x)", True),
        ("(equal? x y)", True),
        ("(equal? x z)", False),
    ])
    def test_equal_on_shared_structure_visits_each_node_once(self, program,
                                                            expected):
        # Doubled 64 times, each list unfolds to 2**64 leaves.
        assert ev("(let loop ((i 0) (x (list 1)) (y (list 1)) (z (list 2)))"
                  f" (if (= i 64) {program}"
                  " (loop (+ i 1) (list x x) (list y y) (list z z))))"
                  ) is expected

    def test_string_append_is_capped(self, monkeypatch):
        monkeypatch.setattr(builder, "MAX_STRING_LENGTH", 64)
        assert ev('(string-append "{}" "{}")'.format("a" * 32, "b" * 32)) == (
            "a" * 32 + "b" * 32)
        with pytest.raises(BuildError, match="^string-append: result longer "
                                             "than 64 characters$"):
            ev('(let loop ((s "x")) (loop (string-append s s)))')

    def test_printing_is_capped(self, monkeypatch):
        monkeypatch.setattr(builder, "MAX_STRING_LENGTH", 64)
        with pytest.raises(BuildError, match="^error: {}$".format("a" * 56)):
            ev('(error "{}")'.format("a" * 56))
        # Doubled 64 times, the list would print as 2**64 atoms.  The
        # timer stops a print that is not bounded before it exhausts memory.
        signal.signal(signal.SIGALRM, _too_slow)
        signal.setitimer(signal.ITIMER_REAL, 2.0)
        try:
            with pytest.raises(BuildError, match="^cannot print a value "
                                                 "longer than 64 characters$"):
                ev("(let loop ((i 0) (x (list 1)))"
                   " (if (= i 64) (error x) (loop (+ i 1) (list x x))))")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @pytest.mark.parametrize("program, steps", [
        ("(define (fib n) (if (= n 0) 0 (if (= n 1) 1"
         " (+ (fib (- n 1)) (fib (- n 2)))))) (fib 18)", 138330),
        ("(let loop ((i 0) (acc 0))"
         " (if (= i 200) acc (loop (+ i 1) (+ acc i))))", 3009),
        ("(letrec ((even? (lambda (n) (if (= n 0) #t (odd? (- n 1)))))"
         " (odd? (lambda (n) (if (= n 0) #f (even? (- n 1))))))"
         " (even? 100))", 1112),
        ("(use-modules (demo util a)) (a-label)", 17),
    ], ids=["fib-18", "named-let-200", "letrec-even-100", "modules"])
    def test_every_syntax_node_is_one_step(self, program, steps, module_dir):
        forms = read_all(program)
        mini_eval(forms, EvalEnv(module_path=(module_dir,), step_budget=steps))
        with pytest.raises(BuildError,
                           match=rf"^step budget exceeded \({steps - 1} steps\)$"):
            mini_eval(forms, EvalEnv(module_path=(module_dir,),
                                     step_budget=steps - 1))

    @pytest.mark.parametrize("program, value", [
        ("(if #f (let) 2)", 2),
        ("(define (f) (lambda)) 3", 3),
        ("(if #t 1 (use-modules 5))", 1),
    ])
    def test_malformed_form_fails_only_when_run(self, program, value):
        assert ev(program) == value

    @pytest.mark.parametrize("program, message", [
        ("(let)", "malformed let"),
        ("(define (f) (let loop ())) (f)", "malformed named let"),
        ("(let* ((x)) x)", "malformed let\\* binding"),
        ("(letrec* 5 1)", "malformed letrec bindings"),
        ("(lambda (1) 1)", "lambda parameters must be a list of symbols"),
        ("(quote)", "malformed quote"),
        ("()", "cannot evaluate \\(\\)"),
        ("(use-modules 5)", "not a module name: 5"),
        ("(1 2)", "not a procedure: 1"),
    ])
    def test_malformed_form_message(self, program, message):
        with pytest.raises(BuildError, match=message):
            ev(program)

    def test_define_binds_in_the_frame_it_runs_in(self):
        assert ev("(define x 1) (define (f) (define x 2) x) (f) x") == 1
        assert ev("(define x 1) (let () (define x 2) x)") == 2
        assert ev("(define x 1) (let () (define x 2)) x") == 1
        assert ev("(define x 1) (begin (define x 2)) x") == 2
        assert ev("(let loop ((i 0)) (define last i)"
                  " (if (= i 3) last (loop (+ i 1))))") == 3

    @settings(max_examples=300, deadline=None)
    @given(builder_programs)
    def test_any_program_returns_or_raises_build_error(self, program):
        with tempfile.TemporaryDirectory() as base:
            env = EvalEnv(variables={"out": "out"}, base_dir=base,
                          module_path=(str(FIXTURE_DIR / "modules"),),
                          step_budget=2000)
            try:
                mini_eval(program, env)
            except BuildError:
                pass

def simple_derivation(store, name, body=None):
    g = stage(read(body or f"""
        (begin
          (mkdir #$output)
          (write-file (string-append #$output "/tag") "{name}"))"""))
    return gexp_to_derivation(store, name, g)


def package_using(store, name, dep_pkg):
    g = stage(read("""
        (begin
          (mkdir #$output)
          (write-file (string-append #$output "/uses")
                      (read-file (string-append #$dep "/tag"))))"""),
              {"dep": dep_pkg})
    return gexp_to_derivation(store, name, g)


def written_chain(store, length):
    """*length* derivations written with `write_derivation`, each taking
    the one before as input; returns the .drv paths and the last one."""
    builder_path = store.intern_file(b'(mkdir (getenv "out"))', "mk-builder")
    paths, inputs = [], ()
    for i in range(length):
        d = Derivation(name=f"c{i}", system="x86_64-linux", target=None,
                       builder=builder_path, input_drvs=inputs,
                       outputs={"out": ""}, env={"out": ""})
        out = output_path(d, "out")
        d = replace(d, outputs={"out": out}, env={"out": str(out)})
        paths.append(write_derivation(store, d))
        inputs = ((paths[-1], ("out",)),)
    return paths, d


class TestPlan:
    def test_unbuilt_leaf(self, store):
        d = simple_derivation(store, "leaf")
        assert plan(store, d) == [write_derivation(store, d)]

    def test_built_leaf_planned_empty(self, store):
        d = simple_derivation(store, "leaf")
        build(store, d)
        assert plan(store, d) == []

    def test_dependencies_come_first(self, store):
        dep = Package("dep", "1", stage(read("""
            (begin (mkdir #$output)
                   (write-file (string-append #$output "/tag") "dep"))""")))
        d = package_using(store, "top", dep)
        order = [str(p) for p in plan(store, d)]
        assert len(order) == 2
        assert "dep-1.drv" in order[0]
        assert "top.drv" in order[1]

    def test_long_chain_plans_and_builds(self, store):
        paths, top = written_chain(store, 3000)
        assert plan(store, top) == paths
        log = []
        build(store, top, log=log)
        assert log == [("build", str(p)) for p in paths]
        assert plan(store, top) == []

    def test_cycle_reported_as_corruption(self, store):
        a = simple_derivation(store, "aa")
        dep = Package("bb", "1", stage(read("""
            (begin (mkdir #$output)
                   (write-file (string-append #$output "/tag") "bb"))""")))
        top = package_using(store, "cc", dep)
        top_path = write_derivation(store, top)
        dep_path = top.input_drvs[0][0]
        # forge a cyclic edge: rewrite the dependency to require the top
        text = dep_path.fs.read_text()
        forged = text.replace(
            "(input-drvs)", f'(input-drvs ("{top_path}" "out"))')
        os.chmod(dep_path.fs, 0o644)
        dep_path.fs.write_text(forged)
        with pytest.raises(BuildError, match="cycle"):
            plan(store, top)


class TestBuild:
    def test_embedded_package_finds_modules_on_store_path(self, scratch,
                                                          module_dir):
        store = Store("./store", module_path=[module_dir])
        labeller = Package("labeller", "1", stage(read("""
            (begin (use-modules (demo util a))
                   (write-file #$output (a-label)))"""),
            imported_modules=[read("(demo util a)")]))
        g = stage(read("(write-file #$output (read-file #$pkg))"),
                  {"pkg": labeller})
        d = gexp_to_derivation(store, "uses-labeller", g)
        assert Path(str(build(store, d)["out"])).read_text() == "a+b+c"

    def test_outputs_and_log(self, store):
        d = simple_derivation(store, "leaf")
        log = []
        outputs = build(store, d, log=log)
        assert (Path(str(outputs["out"])) / "tag").read_text() == "leaf"
        assert log == [("build", str(write_derivation(store, d)))]

    def test_second_build_is_cached(self, store):
        d = simple_derivation(store, "leaf")
        build(store, d)
        log = []
        build(store, d, log=log)
        assert log == [("cached", str(write_derivation(store, d)))]

    def test_dependency_chain_builds_and_caches(self, store):
        dep = Package("dep", "1", stage(read("""
            (begin (mkdir #$output)
                   (write-file (string-append #$output "/tag") "dep-tag"))""")))
        d = package_using(store, "top", dep)
        log = []
        outputs = build(store, d, log=log)
        assert [a for a, _ in log] == ["build", "build"]
        assert (Path(str(outputs["out"])) / "uses").read_text() == "dep-tag"
        log2 = []
        build(store, d, log=log2)
        assert [a for a, _ in log2] == ["cached", "cached"]

    def test_outputs_are_read_only(self, store):
        d = simple_derivation(store, "leaf")
        outputs = build(store, d)
        mode = os.stat(str(outputs["out"])).st_mode
        assert not mode & 0o222

    def test_missing_output_detected(self, store):
        d = simple_derivation(store, "lazy", body="(list 1 2)")
        with pytest.raises(BuildError, match="did not produce output"):
            build(store, d)

    def test_builder_failure_names_derivation(self, store):
        d = simple_derivation(store, "boom", body='(error "nope")')
        with pytest.raises(BuildError) as info:
            build(store, d)
        assert info.value.derivation == str(write_derivation(store, d))

    def test_failed_build_leaves_no_output(self, store):
        d = simple_derivation(store, "boom", body='(error "nope")')
        with pytest.raises(BuildError):
            build(store, d)
        assert not Path(str(d.outputs["out"])).exists()
        assert plan(store, d) == [write_derivation(store, d)]

    def test_builder_sees_system_and_tmpdir(self, store):
        d = simple_derivation(store, "probe", body="""
            (begin
              (mkdir #$output)
              (write-file (string-append #$output "/sys") (getenv "SYSTEM"))
              (write-file (string-append (getenv "TMPDIR") "/scratch") "x")
              (write-file (string-append #$output "/t")
                          (if (getenv "TARGET") (getenv "TARGET") "native")))""")
        outputs = build(store, d)
        out = Path(str(outputs["out"]))
        assert (out / "sys").read_text() == "x86_64-linux"
        assert (out / "t").read_text() == "native"

    def test_concurrent_independent_builds(self, store):
        first = simple_derivation(store, "one")
        second = simple_derivation(store, "two")
        errors = []

        def run(d):
            try:
                build(store, d)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(d,))
                   for d in (first, second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert (Path(str(first.outputs["out"])) / "tag").read_text() == "one"
        assert (Path(str(second.outputs["out"])) / "tag").read_text() == "two"

    def test_concurrent_builds_of_one_derivation(self, store, monkeypatch):
        # Every builder finishes before any of them registers its output,
        # so each round all threads race to put one directory in the store.
        workers = 4
        barrier = threading.Barrier(workers)
        real_eval = builder.mini_eval

        def eval_then_meet(*args, **kwargs):
            result = real_eval(*args, **kwargs)
            barrier.wait(timeout=30)
            return result

        monkeypatch.setattr(builder, "mini_eval", eval_then_meet)
        errors = []

        def run(d):
            try:
                build(Store("./store"), d)
            except Exception as exc:
                errors.append(exc)

        for n in range(20):
            d = simple_derivation(store, f"race{n}")
            threads = [threading.Thread(target=run, args=(d,))
                       for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors, f"round {n}: {errors!r}"
            out = Path(str(d.outputs["out"]))
            assert (out / "tag").read_text() == f"race{n}"


class TestReproducibility:
    def test_two_stores_agree_byte_for_byte(self, tmp_path, monkeypatch):
        results = []
        for workdir in ("left", "right"):
            monkeypatch.chdir(tmp_path)
            (tmp_path / workdir).mkdir()
            monkeypatch.chdir(tmp_path / workdir)
            store = Store("./store")
            d = simple_derivation(store, "repro")
            outputs = build(store, d)
            out = Path(str(outputs["out"]))
            results.append((str(write_derivation(store, d)),
                            str(outputs["out"]),
                            sorted((p.name, p.read_bytes())
                                   for p in out.rglob("*") if p.is_file())))
        assert results[0] == results[1]
