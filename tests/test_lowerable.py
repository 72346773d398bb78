import builtins
import gc
import io
import re
import sys
import weakref
from dataclasses import dataclass, replace

import pytest

import gexpkit.lowerable
import gexpkit.store
from gexpkit import (Derivation, GexpCompiler, LocalFile, Lowering,
                     LoweringError, Package, PlainFile, StoreError, StorePath,
                     expand_object, file_append, gexp_to_derivation,
                     lower_gexp, lower_object, output_path, read,
                     register_compiler, stage)
from gexpkit.gexp import gexp_to_sexp
from gexpkit.lowerable import default_expansion


def make_package(name="imagemagick", version="6.9"):
    build = stage(read("""
        (begin
          (mkdir #$output)
          (write-file (string-append #$output "/tag") "built"))"""))
    return Package(name=name, version=version, build=build)


def package_chain(length):
    """A gexp embedding the last two of *length* packages, each of which
    embeds its two predecessors."""
    pkgs = []
    for i in range(length):
        deps = {f"d{k}": pkgs[j] for k, j in enumerate((i - 1, i - 2)) if j >= 0}
        body = " ".join(f"#${name}" for name in deps)
        pkgs.append(Package(f"p{i}", "1", stage(
            read(f"(begin (mkdir #$output) (list {body}))"), deps)))
    return stage(read("(begin (mkdir #$output) (list #$a #$b))"),
                 {"a": pkgs[-1], "b": pkgs[-2]})


@pytest.fixture
def lowering(store):
    return Lowering(store)


class TestRegistry:
    def test_duplicate_registration_rejected(self):
        compiler = GexpCompiler(PlainFile, lambda obj, lowering, target: None)
        with pytest.raises(LoweringError, match="already registered"):
            register_compiler(compiler)

    def test_unknown_type_has_no_compiler(self, lowering):
        with pytest.raises(LoweringError, match="no compiler"):
            lower_object(object(), lowering)

    def test_isinstance_fallback(self, lowering):
        class FancyFile(PlainFile):
            pass

        path = lower_object(FancyFile("f", b"x"), lowering)
        assert isinstance(path, StorePath)

    def test_nearest_base_class_wins(self, lowering, compilers):
        class A:
            pass

        class B(A):
            pass

        class C(B):
            pass

        for cls in (A, B):
            register_compiler(GexpCompiler(
                cls, lambda obj, lowering, target, tag=cls.__name__:
                    lowering.store.intern_file(tag.encode(), "which")))
        assert lower_object(C(), lowering).fs.read_bytes() == b"B"


class TestFiles:
    def test_plain_file_interns_content(self, lowering):
        path = lower_object(PlainFile("note", "text"), lowering)
        assert path.fs.read_bytes() == b"text"
        assert path.name == "note"

    def test_local_file_reads_disk(self, lowering, scratch):
        (scratch / "input.txt").write_bytes(b"payload")
        lf = LocalFile(str(scratch / "input.txt"))
        assert lf.name == "input.txt"
        path = lower_object(lf, lowering)
        assert path.fs.read_bytes() == b"payload"

    def test_local_file_missing(self, lowering):
        with pytest.raises(LoweringError, match="cannot read"):
            lower_object(LocalFile("nope.txt"), lowering)

    def test_files_lower_target_independently(self, lowering):
        pf = PlainFile("note", b"x")
        native = lower_object(pf, lowering, None)
        crossed = lower_object(pf, lowering, "i686-linux")
        assert native == crossed


class TestPackages:
    def test_package_derivation_naming(self, lowering):
        d = lower_object(make_package(), lowering)
        assert isinstance(d, Derivation)
        assert d.name == "imagemagick-6.9"

    def test_lowering_cached_per_key(self, lowering):
        pkg = make_package()
        first = lower_object(pkg, lowering)
        writes = lowering.store.writes
        second = lower_object(pkg, lowering)
        assert second is first
        assert lowering.store.writes == writes

    def test_target_is_part_of_the_cache_key(self, lowering):
        pkg = make_package()
        native = lower_object(pkg, lowering, None)
        crossed = lower_object(pkg, lowering, "i686-linux")
        assert native.target is None
        assert crossed.target == "i686-linux"
        assert native.outputs["out"] != crossed.outputs["out"]

    def test_equal_but_distinct_packages_lower_separately(self, lowering):
        a = lower_object(make_package(), lowering)
        b = lower_object(make_package(), lowering)
        assert derivation_equal(a, b)

    def test_undeclared_build_outputs_rejected(self):
        build = stage(read('(list #$output (ungexp output "doc"))'))
        with pytest.raises(LoweringError, match="undeclared"):
            Package(name="p", version="1", build=build)

    def test_declared_extra_outputs_accepted(self):
        build = stage(read('(list #$output (ungexp output "doc"))'))
        pkg = Package(name="p", version="1", build=build,
                      outputs=("out", "doc"))
        assert pkg.outputs == ("out", "doc")


def derivation_equal(a, b):
    from gexpkit import derivation_text

    return derivation_text(a) == derivation_text(b)


class TestExpansion:
    def test_store_path_expands_to_itself(self, lowering):
        pf = PlainFile("note", b"x")
        path = lower_object(pf, lowering)
        assert expand_object(pf, path) == str(path)

    def test_derivation_expands_to_out(self, lowering):
        pkg = make_package()
        d = lower_object(pkg, lowering)
        assert expand_object(pkg, d) == str(d.outputs["out"])

    def test_derivation_without_out_cannot_expand(self, lowering):
        from dataclasses import replace

        d = lower_object(make_package(), lowering)
        odd = replace(d, outputs={"lib": d.outputs["out"]})
        with pytest.raises(LoweringError, match="out"):
            default_expansion(odd)

    def test_file_append_concatenates(self, lowering):
        pkg = make_package()
        fa = file_append(pkg, "/bin/convert")
        lowered = lower_object(fa, lowering)
        assert expand_object(fa, lowered) == \
            str(lowered.outputs["out"]) + "/bin/convert"

    def test_file_append_in_residual(self, store):
        pkg = make_package()
        g = stage(read("(exec #$convert)"),
                  {"convert": file_append(pkg, "/bin/convert")})
        d = gexp_to_derivation(store, "uses-append", g)
        text = d.builder.fs.read_bytes().decode()
        assert "/bin/convert" in text
        assert len(d.input_drvs) == 1


class TestLowering:
    def test_store_keeps_no_lowered_object_alive(self, store):
        pkg = make_package()
        ref = weakref.ref(pkg)
        g = stage(read("(list #$p)"), {"p": pkg})
        gexp_to_derivation(store, "top", g)
        del pkg, g
        gc.collect()
        assert ref() is None

    def test_each_derivation_written_once(self, store, monkeypatch):
        written = []
        real_write = gexpkit.lowerable.write_derivation

        def counting_write(store, d, *args):
            written.append(d)
            return real_write(store, d, *args)

        monkeypatch.setattr(gexpkit.lowerable, "write_derivation",
                            counting_write)
        gexp_to_derivation(store, "top", package_chain(20))
        assert len(written) == 21
        assert len({id(d) for d in written}) == 21

    def test_long_chain_lowers(self, store):
        d = gexp_to_derivation(store, "top", package_chain(250))
        assert len(d.input_drvs) == 2

    @pytest.mark.parametrize("length", [1, 2])
    def test_dependency_cycle_is_a_lowering_error(self, store, length):
        pkgs = [make_package(f"p{i}", "1") for i in range(length)]
        for pkg, dep in zip(pkgs, pkgs[1:] + pkgs[:1]):
            pkg.build = stage(read("(begin (mkdir #$output) (list #$dep))"),
                              {"dep": dep})
        cycle = " -> ".join(map(repr, [*pkgs, pkgs[0]]))
        with pytest.raises(LoweringError,
                           match=re.escape(f"dependency cycle: {cycle}")):
            gexp_to_derivation(store, "top",
                               stage(read("(list #$p)"), {"p": pkgs[0]}))

    def test_lowering_rejects_invalid_system(self, store):
        with pytest.raises(StoreError, match="invalid system tag"):
            Lowering(store, "not a system")


@dataclass(eq=False)
class Wrap:
    """An object whose compiler lowers the object it wraps."""

    inner: object


@pytest.fixture
def wrap(compilers):
    register_compiler(GexpCompiler(
        Wrap, lambda w, lowering, target:
            lower_object(w.inner, lowering, target)))


class TestCompilersThatLower:
    """Compilers registered through the API that lower other objects
    share the walk of `lower_object`: its stack, cycle check and order."""

    def test_self_wrapper_is_a_cycle(self, store, wrap):
        w = Wrap(None)
        w.inner = w
        lowering = Lowering(store)
        with pytest.raises(LoweringError, match=re.escape(
                f"dependency cycle: {w!r} -> {w!r}")):
            lower_gexp(lowering, "top", stage(read("(list #$w)"), {"w": w}))
        assert lower_object(PlainFile("after", b"x"), lowering).name == "after"

    def test_deep_nesting_lowers(self, store, wrap):
        assert sys.getrecursionlimit() == 1000
        leaf = PlainFile("leaf", b"x")
        w = leaf
        for _ in range(2000):
            w = Wrap(w)
        d = gexp_to_derivation(store, "top", stage(read("(list #$w)"), {"w": w}))
        leaf_path = lower_object(leaf, Lowering(store))
        assert d.input_sources == (leaf_path,)
        assert str(leaf_path) in d.builder.fs.read_text()

    def test_compiler_lowering_a_gexp_writes_its_inputs_first(
            self, lowering, compilers):
        @dataclass(eq=False)
        class Script:
            program: object

        register_compiler(GexpCompiler(
            Script, lambda s, lowering, target:
                lower_gexp(lowering, "script", s.program, target)))
        pkg = make_package()
        script = Script(stage(read("(list #$p)"), {"p": pkg}))
        top = lower_gexp(lowering, "top",
                         stage(read("(list #$s)"), {"s": script}))
        plan = [(d.name, path) for path, d in lowering.written.values()]
        assert [name for name, _ in plan] == ["imagemagick-6.9", "script", "top"]
        script_drv = lower_object(script, lowering)
        assert script_drv.input_drvs == ((plan[0][1], ("out",)),)
        assert top.input_drvs == ((plan[1][1], ("out",)),)

    def test_catch_all_in_a_compiler_lets_the_walk_through(
            self, lowering, compilers):
        @dataclass(eq=False)
        class Guarded:
            inner: object

        def lower(obj, lowering, target):
            try:
                return lower_object(obj.inner, lowering, target)
            except Exception:
                return lowering.store.intern_file(b"fallback", "fallback")

        register_compiler(GexpCompiler(Guarded, lower))
        pkg = make_package()
        assert lower_object(Guarded(pkg), lowering) is lower_object(pkg, lowering)

    def test_compiler_catches_a_failure_of_what_it_asked_for(
            self, lowering, wrap):
        @dataclass(eq=False)
        class Guarded:
            inner: object

        def lower(obj, lowering, target):
            try:
                return lower_object(obj.inner, lowering, target)
            except LoweringError:
                return lowering.store.intern_file(b"fallback", "fallback")

        register_compiler(GexpCompiler(Guarded, lower))
        for inner in (object(), Wrap(Wrap(object()))):
            path = lower_object(Guarded(inner), lowering)
            assert path.fs.read_bytes() == b"fallback"
        with pytest.raises(LoweringError, match="no compiler registered"):
            lower_object(Wrap(object()), lowering)
        assert lower_object(Guarded(Wrap(PlainFile("f", b"x"))),
                            lowering).fs.read_bytes() == b"x"

    def test_compiler_lowering_an_object_it_builds(self, lowering, wrap):
        @dataclass(eq=False)
        class Note:
            name: str
            text: str

        register_compiler(GexpCompiler(
            Note, lambda n, lowering, target: lower_object(
                PlainFile(n.name, n.text), lowering, target)))
        notes = Wrap(Wrap(Note("n", "hi")))
        assert lower_object(notes, lowering).fs.read_bytes() == b"hi"

    def test_compiler_staging_a_gexp_around_an_object_it_builds(
            self, lowering, compilers):
        @dataclass(eq=False)
        class Note:
            name: str
            text: str

        register_compiler(GexpCompiler(
            Note, lambda n, lowering, target: lower_gexp(
                lowering, n.name, stage(read("(list #$f)"),
                                        {"f": PlainFile(n.name, n.text)}),
                target)))
        d = lower_object(Note("n", "hi"), lowering)
        [source] = d.input_sources
        assert source.fs.read_bytes() == b"hi"
        assert str(source) in d.builder.fs.read_text()

    def test_compiler_asking_for_other_objects_when_run_again(
            self, lowering, compilers):
        @dataclass(eq=False)
        class Fickle:
            runs: int = 0

        def lower(obj, lowering, target):
            obj.runs += 1
            inner = PlainFile("f", b"x") if obj.runs == 1 else LocalFile("/x")
            return lower_object(inner, lowering, target)

        register_compiler(GexpCompiler(Fickle, lower))
        with pytest.raises(LoweringError, match="asked for other objects"):
            lower_object(Fickle(), lowering)

    def test_wide_package_runs_twice_and_serializes_once(
            self, lowering, compilers, monkeypatch):
        runs, serialized = [], []
        lower_package = gexpkit.lowerable._COMPILERS[Package].lower

        def counting_lower(pkg, lowering, target):
            runs.append(pkg)
            return lower_package(pkg, lowering, target)

        def counting_gexp_to_sexp(g, *args):
            serialized.append(g)
            return gexp_to_sexp(g, *args)

        gexpkit.lowerable._COMPILERS[Package] = GexpCompiler(
            Package, counting_lower)
        monkeypatch.setattr(gexpkit.lowerable, "gexp_to_sexp",
                            counting_gexp_to_sexp)
        files = {f"f{i}": PlainFile(f"f{i}", str(i)) for i in range(200)}
        body = " ".join(f"#$f{i}" for i in range(200))
        pkg = Package("wide", "1", stage(read(f"(list {body})"), files))
        d = lower_object(pkg, lowering)
        assert len(d.input_sources) == 200
        assert runs == [pkg, pkg]
        assert serialized == [pkg.build]


class TestChecksFromMemory:
    """A `Lowering` checks each derivation it writes against the inputs
    it wrote itself and the builder text it interned, not the files."""

    @pytest.fixture
    def reads(self, monkeypatch):
        """Counts of `read_derivation` calls and builder-file opens."""
        counts = {"drv": 0, "builder": 0}
        real_read = gexpkit.store.read_derivation
        real_open = io.open

        def counting_read(*args, **kwargs):
            counts["drv"] += 1
            return real_read(*args, **kwargs)

        def counting_open(file, *args, **kwargs):
            if str(file).endswith("-builder"):
                counts["builder"] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(gexpkit.store, "read_derivation", counting_read)
        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        return counts

    def draft(self, lowering, name, builder_text, **fields):
        """A derivation with a filled "out" output, its builder interned."""
        builder = lowering.store.intern_file(builder_text.encode(),
                                             f"{name}-builder")
        d = Derivation(name=name, system="x86_64-linux", target=None,
                       builder=builder, outputs={"out": ""}, env={"out": ""},
                       **fields)
        out = output_path(d, "out")
        return replace(d, outputs={"out": out}, env={"out": str(out)})

    def test_lowering_a_chain_reads_nothing_back(self, store, reads):
        gexp_to_derivation(store, "top", package_chain(20))
        assert reads == {"drv": 0, "builder": 0}

    def test_dangling_reference(self, lowering):
        ghost = StorePath(lowering.store.prefix, "0" * 32, "ghost")
        d = self.draft(lowering, "x", "(list)", input_sources=(ghost,))
        with pytest.raises(StoreError, match="dangling reference in x"):
            lowering.write(d, "(list)")

    def test_missing_output_of_a_known_input(self, lowering, reads):
        dep = lower_object(make_package(), lowering)
        dep_path = lowering.write(dep)
        d = self.draft(lowering, "x", "(list)",
                       input_drvs=((dep_path, ("x",)),))
        with pytest.raises(StoreError,
                           match="x wants output 'x' of imagemagick-6.9"):
            lowering.write(d, "(list)")
        assert reads == {"drv": 0, "builder": 0}

    def test_unlisted_reference_in_builder_text(self, lowering, reads):
        secret = lowering.store.intern_file(b"secret", "secret")
        text = f'(read-file "{secret}")'
        d = self.draft(lowering, "peek", text)
        with pytest.raises(StoreError, match="references unlisted path"):
            lowering.write(d, text)
        assert reads == {"drv": 0, "builder": 0}
