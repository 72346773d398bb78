"""The acceptance gate: one test per advertised guarantee.

Each test prints a single ``ACCEPTANCE n (<label>): PASS`` line when
its assertions hold (run with ``-s`` to see them while passing).
"""

import hashlib
import re
import time
from pathlib import Path

from hypothesis import given, settings

from gexpkit import (Package, PlainFile, Store, build, derivation_from_sexp,
                     find_store_references, gexp_inputs, gexp_to_derivation,
                     gexp_to_sexp, mini_eval, print_canonical, read,
                     read_derivation, stage, write_derivation)
from gexpkit.cli import main
from gexpkit.gexp import ListPayload, Lowerable, NestedGexp

from conftest import (DEPLOY_IMAGE, IMAGE_BYTES, JPG_BYTES,
                      write_image_deployment)
from strategies import int_programs

SYSTEM = "x86_64-linux"


def _ok(number, label):
    print(f"ACCEPTANCE {number} ({label}): PASS")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_acceptance_1_hygiene():
    started = time.perf_counter()

    def gen_body(x):
        return stage(read("(let ((x 40)) (+ x #$x))"), {"x": x})

    outer = stage(read("(let ((x 2)) #$(gen-body #~x))"),
                  {"gen-body": gen_body})
    text = print_canonical(gexp_to_sexp(outer, SYSTEM))
    match = re.fullmatch(
        r"\(let \(\((x-([0-9a-f]{4})-0) 2\)\) "
        r"\(let \(\((x-([0-9a-f]{4})-0) 40\)\) \(\+ \3 \1\)\)\)", text)
    assert match, text
    assert match.group(2) != match.group(4)
    assert mini_eval(read(text)) == 42
    assert time.perf_counter() - started < 1.0
    _ok(1, "hygiene")


def test_acceptance_2_quotation_levels():
    expanded = "(lambda (x) (quasiquote (x (unquote x))))"
    tag = hashlib.sha256(expanded.encode()).hexdigest()[:4]
    g = stage(read("(lambda (x) `(x ,x))"))
    assert print_canonical(gexp_to_sexp(g, SYSTEM)) == (
        f"(lambda (x-{tag}-0) (quasiquote (x (unquote x-{tag}-0))))")
    _ok(2, "quotation levels")


def test_acceptance_3_determinism(capsys, scratch):
    deploy = write_image_deployment(scratch)
    runs = [run_cli(capsys, "lower", str(deploy)) for _ in range(5)]
    assert all(code == 0 for code, _, _ in runs)
    assert len({out for _, out, _ in runs}) == 1
    baseline_drv = runs[0][1].strip()
    baseline_out = read_derivation(Store("./store"),
                                   baseline_drv).outputs["out"]

    def lowered_output(deploy_path, *argv):
        code, out, _ = run_cli(capsys, "lower", str(deploy_path), *argv)
        assert code == 0
        drv = out.strip()
        assert drv != baseline_drv
        return read_derivation(Store("./store"), drv).outputs["out"]

    # builder body perturbation
    body_dir = scratch / "body"
    tweaked = write_image_deployment(
        body_dir, DEPLOY_IMAGE.replace("-quality=75%:", "-quality=80%:"))
    assert lowered_output(tweaked) != baseline_out

    # one input byte perturbation
    byte_dir = scratch / "byte"
    tweaked = write_image_deployment(
        byte_dir, image_bytes=IMAGE_BYTES[:-1] + b"?")
    assert lowered_output(tweaked) != baseline_out

    # system tag perturbation
    assert lowered_output(deploy, "--system", "i686-linux") != baseline_out

    # env var perturbation (no CLI surface; checked on the derivation)
    from dataclasses import replace

    from gexpkit import output_path

    store = Store("./store")
    d = read_derivation(store, baseline_drv)
    variant = replace(d, env={**d.env, "TZ": "UTC"})
    assert output_path(variant, "out") != output_path(d, "out")
    _ok(3, "determinism")


def test_acceptance_4_end_to_end_build(capsys, scratch):
    deploy = write_image_deployment(scratch)
    code, out, err = run_cli(capsys, "build", str(deploy))
    assert code == 0
    out_path = out.strip().split("\t")[1]
    assert (Path(out_path) / "image.jpg").read_bytes() == JPG_BYTES
    assert all(line.startswith("build ")
               for line in err.strip().split("\n"))

    code, out2, err2 = run_cli(capsys, "build", str(deploy))
    assert code == 0
    assert out2 == out
    assert all(line.startswith("cached ")
               for line in err2.strip().split("\n"))
    _ok(4, "end-to-end build")


STAMP_BUILD = """
(begin
  (mkdir #$output)
  (write-file (string-append #$output "/stamp")
              (string-append (getenv "SYSTEM") ":"
                             (if (getenv "TARGET") (getenv "TARGET")
                                 "native"))))
"""


def test_acceptance_5_cross_compilation(store):
    pkg = Package("stamper", "1.0", stage(read(STAMP_BUILD)))
    g = stage(read("""
        (begin
          (mkdir #$output)
          (write-file (string-append #$output "/stamps")
                      (string-append
                        (read-file (string-append #$pkg "/stamp"))
                        "|"
                        (read-file (string-append #+pkg "/stamp")))))"""),
              {"pkg": pkg})

    crossed = gexp_to_derivation(store, "cross-check", g, system=SYSTEM,
                                 target="i686-linux")
    assert len(crossed.input_drvs) == 2
    outputs = build(store, crossed)
    stamps = (Path(str(outputs["out"])) / "stamps").read_text()
    assert stamps == "x86_64-linux:i686-linux|x86_64-linux:native"

    native = gexp_to_derivation(store, "native-check", g, system=SYSTEM)
    assert len(native.input_drvs) == 1

    # nativeness propagates one nesting level down
    inner = stage(read("(f #$pkg)"), {"pkg": pkg})
    outer = stage(read("(g #+inner)"), {"inner": inner})
    assert [(r.payload.obj, r.native) for r in gexp_inputs(outer)] == [
        (pkg, True)]
    _ok(5, "cross-compilation")


def test_acceptance_6_input_union():
    class Obj:
        def __init__(self, tag):
            self.tag = tag

    shared, o1, o2, o3 = Obj("shared"), Obj("o1"), Obj("o2"), Obj("o3")
    depth3 = stage(read("(c #$o3 #+shared)"), {"o3": o3, "shared": shared})
    depth2 = stage(read("(b #$o2 #$depth3)"), {"o2": o2, "depth3": depth3})
    depth1 = stage(read("(a #$o1 #$shared #$depth2 #$@extras)"),
                   {"o1": o1, "shared": shared, "depth2": depth2,
                    "extras": [o2, o3]})

    def brute_force(g, inherited):
        found = []
        for esc in g.escapes:
            native = esc.native or inherited
            queue = [esc.payload]
            while queue:
                payload = queue.pop(0)
                if isinstance(payload, Lowerable):
                    found.append((payload.obj, native))
                elif isinstance(payload, ListPayload):
                    queue = list(payload.items) + queue
                elif isinstance(payload, NestedGexp):
                    found.extend(brute_force(payload.gexp, native))
        return found

    expected = []
    for obj, native in brute_force(depth1, False):
        if (id(obj), native) not in [(id(o), n) for o, n in expected]:
            expected.append((obj, native))

    got = [(r.payload.obj, r.native) for r in gexp_inputs(depth1)]
    assert got == expected
    assert (shared, False) in got and (shared, True) in got
    _ok(6, "input union")


def test_acceptance_7_module_imports(capsys, scratch, module_dir, store):
    body = """
#~(begin
    (use-modules (demo build utils))
    (mkdir-p #$output)
    (write-file (string-append #$output "/ok") "yes"))
"""
    without = scratch / "without.scm"
    without.write_text(body)
    code, _, err = run_cli(capsys, "build", str(without),
                           "--module-path", module_dir)
    assert code == 2
    assert "module not found" in err

    with_modules = scratch / "with.scm"
    with_modules.write_text(
        "(with-imported-modules '((demo build utils))\n  " + body + ")")
    code, out, err = run_cli(capsys, "build", str(with_modules),
                             "--module-path", module_dir)
    assert code == 0, err
    out_path = out.strip().split("\t")[1]
    assert (Path(out_path) / "ok").read_text() == "yes"

    # a 3-module import chain interns exactly 3 files
    g = stage(read("""
        (begin (use-modules (demo util a))
               (write-file #$output (a-label)))"""),
              imported_modules=[read("(demo util a)")])
    d = gexp_to_derivation(Store("./store", module_path=[module_dir]),
                           "chained", g)
    closure_dir = Path(d.env["MODULE_PATH"])
    files = sorted(p.relative_to(closure_dir).as_posix()
                   for p in closure_dir.rglob("*") if p.is_file())
    assert files == ["demo/util/a.scm", "demo/util/b.scm", "demo/util/c.scm"]
    _ok(7, "module imports")


def test_acceptance_8_semantic_preservation():
    executed = []

    @settings(max_examples=55, deadline=None)
    @given(int_programs)
    def check(program):
        executed.append(1)
        direct = mini_eval(program)
        residual = gexp_to_sexp(stage(program), SYSTEM)
        assert mini_eval(residual) == direct

    check()
    assert len(executed) >= 50
    _ok(8, "semantic preservation")


def test_acceptance_9_store_properties(store, golden_paths, golden_drv_text):
    # intern idempotence
    first = store.intern_file(b"hello\n", "greeting")
    assert str(first) == golden_paths["greeting"]
    assert store.writes == 1
    assert store.intern_file(b"hello\n", "greeting") == first
    assert store.writes == 1

    # golden .drv byte equality
    img = PlainFile("image.png", IMAGE_BYTES)
    g = stage(read("""
        (begin
          (mkdir #$output)
          (copy-file #$img (string-append #$output "/image.png")))"""),
              {"img": img})
    d = gexp_to_derivation(store, "golden-example", g)
    drv_path = write_derivation(store, d)
    assert str(drv_path) == golden_paths["drv"]
    assert drv_path.fs.read_text() == golden_drv_text

    # closure completeness of every derivation in the store
    mock = Package("imagemagick", "6.9", stage(read("""
        (begin (mkdir #$output)
               (write-file (string-append #$output "/bin") "b"))""")))
    g2 = stage(read("(run (string-append #$mock \"/bin\") #$img)"),
               {"mock": mock, "img": img})
    gexp_to_derivation(store, "uses-both", g2)
    checked = 0
    for drv_file in Path(store.prefix).glob("*.drv"):
        drv = derivation_from_sexp(read(drv_file.read_text()))
        allowed = {str(p) for p in drv.input_sources}
        for dep_path, names in drv.input_drvs:
            dep = read_derivation(store, dep_path)
            allowed.update(str(dep.outputs[n]) for n in names)
        refs = find_store_references(
            drv.builder.fs.read_bytes().decode(), store.prefix)
        assert set(refs) <= allowed, drv.name
        checked += 1
    assert checked >= 3
    _ok(9, "store properties")
