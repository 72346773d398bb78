import os
import subprocess
import sys
from pathlib import Path

import pytest

import gexpkit
from gexpkit.cli import main

from conftest import (DEPLOY_IMAGE, JPG_BYTES, package_chain,
                      write_image_deployment)

MODULE_DEPLOY = """\
(with-imported-modules '((demo util a))
  #~(begin
      (use-modules (demo util a))
      (mkdir #$output)
      (write-file (string-append #$output "/label") (a-label))))
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLower:
    def test_prints_derivation_path(self, capsys, image_deployment):
        code, out, err = run(capsys, "lower", str(image_deployment))
        assert code == 0
        assert out.strip().startswith("./store/")
        assert out.strip().endswith("-deploy.drv")

    def test_five_runs_byte_identical(self, capsys, image_deployment):
        outputs = {run(capsys, "lower", str(image_deployment))[1]
                   for _ in range(5)}
        assert len(outputs) == 1

    def test_name_flag(self, capsys, image_deployment):
        code, out, _ = run(capsys, "lower", str(image_deployment),
                           "--name", "resize-job")
        assert code == 0
        assert out.strip().endswith("-resize-job.drv")

    def test_target_changes_the_path(self, capsys, image_deployment):
        _, native, _ = run(capsys, "lower", str(image_deployment))
        _, crossed, _ = run(capsys, "lower", str(image_deployment),
                            "--target", "i686-linux")
        assert native != crossed

    def test_system_changes_the_path(self, capsys, image_deployment):
        _, amd64, _ = run(capsys, "lower", str(image_deployment))
        _, i686, _ = run(capsys, "lower", str(image_deployment),
                         "--system", "i686-linux")
        assert amd64 != i686

    def test_store_flag(self, capsys, scratch, image_deployment):
        code, out, _ = run(capsys, "lower", str(image_deployment),
                           "--store", "./elsewhere")
        assert code == 0
        assert out.startswith("./elsewhere/")
        assert (scratch / "elsewhere").is_dir()

    def test_store_env_var(self, capsys, scratch, image_deployment,
                           monkeypatch):
        monkeypatch.setenv("GEXP_STORE_DIR", "./env-store")
        code, out, _ = run(capsys, "lower", str(image_deployment))
        assert code == 0
        assert out.startswith("./env-store/")


class TestBuild:
    def test_end_to_end(self, capsys, scratch, image_deployment):
        code, out, err = run(capsys, "build", str(image_deployment))
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1
        name, path = lines[0].split("\t")
        assert name == "out"
        assert (Path(path) / "image.jpg").read_bytes() == JPG_BYTES
        assert all(line.startswith("build ") for line in err.strip().split("\n"))

    def test_rebuild_hits_cache(self, capsys, image_deployment):
        _, first_out, _ = run(capsys, "build", str(image_deployment))
        code, second_out, err = run(capsys, "build", str(image_deployment))
        assert code == 0
        assert second_out == first_out
        assert all(line.startswith("cached ")
                   for line in err.strip().split("\n"))

    def test_modules_built_from_search_path(self, capsys, scratch,
                                            module_dir):
        deploy = scratch / "labeled.scm"
        deploy.write_text(MODULE_DEPLOY)
        code, out, _ = run(capsys, "build", str(deploy),
                           "--module-path", module_dir)
        assert code == 0
        path = out.strip().split("\t")[1]
        assert (Path(path) / "label").read_text() == "a+b+c"

    def test_module_path_env_var(self, capsys, scratch, module_dir,
                                 monkeypatch):
        monkeypatch.setenv("GEXP_MODULE_PATH", module_dir)
        deploy = scratch / "labeled.scm"
        deploy.write_text(MODULE_DEPLOY)
        assert run(capsys, "build", str(deploy))[0] == 0


class TestShowAndAdd:
    def test_show_round_trips_fields(self, capsys, image_deployment):
        _, drv_path, _ = run(capsys, "lower", str(image_deployment))
        code, out, _ = run(capsys, "show", drv_path.strip())
        assert code == 0
        assert "name: deploy" in out
        assert "system: x86_64-linux" in out
        assert "target: (none)" in out
        assert "-deploy-builder" in out
        assert "-imagemagick-6.9.drv (out)" in out
        assert "-image.png" in out
        assert "out = ./store/" in out

    @pytest.mark.parametrize("data", [
        b'(derivation "\xff")', b"(derivation", b"(not-a-derivation)",
    ], ids=["not-utf8", "syntax-error", "not-a-derivation"])
    def test_show_unreadable_drv_exits_1_naming_it(self, capsys, scratch,
                                                    data):
        (scratch / "bad.drv").write_bytes(data)
        code, out, err = run(capsys, "show", "bad.drv")
        assert code == 1
        assert out == ""
        assert err.startswith("gexpkit: error: bad.drv: ")
        assert "Traceback" not in err

    def test_add_idempotent(self, capsys, scratch):
        (scratch / "blob").write_bytes(b"blob")
        _, first, _ = run(capsys, "add", "blob")
        _, second, _ = run(capsys, "add", "blob")
        assert first == second
        assert first.strip().endswith("-blob")

    def test_add_custom_name(self, capsys, scratch):
        (scratch / "blob").write_bytes(b"blob")
        _, out, _ = run(capsys, "add", "blob", "renamed")
        assert out.strip().endswith("-renamed")


class TestFailureModes:
    def test_missing_file_is_an_error(self, capsys, scratch):
        code, out, err = run(capsys, "lower", "absent.scm")
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_parse_error(self, capsys, scratch):
        bad = scratch / "bad.scm"
        bad.write_text("(unbalanced")
        code, _, err = run(capsys, "lower", str(bad))
        assert code == 1
        assert "line" in err

    def test_non_gexp_tail(self, capsys, scratch):
        bad = scratch / "bad.scm"
        bad.write_text("(define x 1)\nx\n")
        code, _, err = run(capsys, "lower", str(bad))
        assert code == 1
        assert "gexp" in err

    def test_stray_toplevel_form(self, capsys, scratch):
        bad = scratch / "bad.scm"
        bad.write_text("(display 1)\n#~(list)\n")
        code, _, err = run(capsys, "lower", str(bad))
        assert code == 1

    def test_unbound_symbol(self, capsys, scratch):
        bad = scratch / "bad.scm"
        bad.write_text("#~(list #$missing)\n")
        code, _, err = run(capsys, "lower", str(bad))
        assert code == 1
        assert "missing" in err

    def test_missing_module_at_lowering(self, capsys, scratch):
        deploy = scratch / "labeled.scm"
        deploy.write_text(MODULE_DEPLOY)
        code, _, err = run(capsys, "lower", str(deploy))
        assert code == 1
        assert "(demo util a)" in err

    @pytest.mark.parametrize("prefix", ["/", "//"])
    def test_empty_store_prefix_exits_1(self, capsys, image_deployment,
                                        prefix):
        code, out, err = run(capsys, "lower", str(image_deployment),
                             "--store", prefix)
        assert code == 1
        assert out == ""
        assert err == f"gexpkit: error: invalid store prefix: {prefix!r}\n"

    @pytest.mark.parametrize("builder, name", [
        ("imagemagick-6.9-builder", "imagemagick-6.9"),
        ("deploy-builder", "deploy"),
    ], ids=["input", "root"])
    def test_corrupt_builder_is_a_build_error(self, capsys, image_deployment,
                                              builder, name):
        assert run(capsys, "lower", str(image_deployment))[0] == 0
        [corrupt] = Path("store").glob(f"*-{builder}")
        corrupt.chmod(0o644)
        corrupt.write_bytes(b"(mkdir \xff)")
        code, out, err = run(capsys, "build", str(image_deployment))
        assert code == 2
        assert out == ""
        assert err.startswith("gexpkit: build error [./store/")
        assert f"-{name}.drv]: cannot read builder of {name}:" in err
        assert "Traceback" not in err

    def test_builder_failure_exits_2(self, capsys, scratch):
        bad = scratch / "boom.scm"
        bad.write_text('#~(error "deliberate")\n')
        code, _, err = run(capsys, "build", str(bad))
        assert code == 2
        assert "deliberate" in err
        assert "boom.drv" in err

    @pytest.mark.parametrize("output",
                             ["SYSTEM", "TARGET", "TMPDIR", "MODULE_PATH"])
    def test_reserved_output_name_exits_1_naming_it(self, capsys, scratch,
                                                    output):
        bad = scratch / "reserved.scm"
        bad.write_text(f'#~(mkdir (ungexp output "{output}"))\n')
        code, out, err = run(capsys, "build", str(bad))
        assert (code, out) == (1, "")
        assert err == (f"gexpkit: error: reserved: output '{output}' is a "
                       f"builder variable\n")
        assert not any(Path("store").glob("*-reserved*"))

    @pytest.mark.parametrize("files, named", [
        ({"hostile.scm": b"#~(quote " + b"(" * 3000 + b")" * 3000 + b")"},
         "too deep"),
        ({"hostile.scm": b'#~(write-file #$output "\xff")'}, "hostile.scm"),
        ({"hostile.scm": MODULE_DEPLOY.encode(),
          "mods/demo/util/a.scm":
              b'(define-module (demo util a))\n(define (a-label) "\xff")\n'},
         "demo/util/a.scm"),
    ], ids=["deep-nesting", "not-utf8", "not-utf8-module"])
    def test_hostile_input_exits_1_without_traceback(self, capsys, scratch,
                                                     files, named):
        for relpath, data in files.items():
            (scratch / relpath).parent.mkdir(parents=True, exist_ok=True)
            (scratch / relpath).write_bytes(data)
        code, _, err = run(capsys, "lower", str(scratch / "hostile.scm"),
                           "--module-path", "mods")
        assert code == 1
        assert err.startswith("gexpkit: error:")
        assert "Traceback" not in err
        assert named in err

    def test_long_chain_builds_then_is_all_cached(self, capsys, scratch):
        assert sys.getrecursionlimit() == 1000
        deploy = scratch / "chain.scm"
        deploy.write_bytes(package_chain(2000))
        code, first, err = run(capsys, "build", str(deploy))
        assert code == 0, err[-300:]
        assert len(err.splitlines()) == 2001
        assert all(line.startswith("build ") for line in err.splitlines())
        code, second, err = run(capsys, "build", str(deploy))
        assert (code, second) == (0, first)
        assert len(err.splitlines()) == 2001
        assert all(line.startswith("cached ") for line in err.splitlines())

    def test_long_file_append_chain_builds(self, capsys, scratch):
        assert sys.getrecursionlimit() == 1000
        forms = ['(define a0 (plain-file "base" "hello"))']
        forms += [f'(define a{i} (file-append a{i - 1} "/x"))'
                  for i in range(1, 2000)]
        deploy = scratch / "appends.scm"
        deploy.write_text("\n".join([*forms, "#~(write-file #$output #$a1999)"]))
        code, out, err = run(capsys, "build", str(deploy))
        assert code == 0, err[-300:]
        base = str(next(Path("store").glob("*-base")))
        output = Path(out.strip().split("\t")[1])
        assert output.read_text() == "./" + base + "/x" * 1999

    def test_long_module_import_chain_builds(self, capsys, scratch):
        # Each module's value extends the one it imports, so the output
        # also shows that every import ran before its importer.
        assert sys.getrecursionlimit() == 1000
        (scratch / "mods" / "m").mkdir(parents=True)
        for i in range(1200):
            header = f"(define-module (m m{i}) #:use-module (m m{i + 1}))"
            body = f'(define v{i} (string-append v{i + 1} "."))'
            if i == 1199:
                header, body = "(define-module (m m1199))", '(define v1199 "")'
            (scratch / "mods" / "m" / f"m{i}.scm").write_text(
                header + "\n" + body + "\n")
        deploy = scratch / "imports.scm"
        deploy.write_text("(with-imported-modules '((m m0))\n"
                          "  #~(begin (use-modules (m m0))"
                          " (write-file #$output v0)))\n")
        code, out, err = run(capsys, "build", str(deploy),
                             "--module-path", "mods")
        assert code == 0, err[-300:]
        assert Path(out.strip().split("\t")[1]).read_text() == "." * 1199

    @pytest.mark.parametrize("call, message", [
        ("(car)", "car: expected 1 arguments, got 0"),
        ("(cons 1)", "cons: expected 2 arguments, got 1"),
        ('(copy-file "x")', "copy-file: expected 2 arguments, got 1"),
        ("(-)", "-: expected at least 1 arguments, got 0"),
        ('(read-file "bin")', "read-file bin: 'utf-8' codec"),
    ])
    def test_builder_misuse_exits_2_without_traceback(self, capsys, scratch,
                                                      call, message):
        (scratch / "bin").write_bytes(b"\xff\xfe")
        bad = scratch / "misuse.scm"
        bad.write_text(f"#~(begin (mkdir #$output) {call})\n")
        code, _, err = run(capsys, "build", str(bad))
        assert code == 2
        assert err.startswith("gexpkit: build error")
        assert "Traceback" not in err
        assert message in err

    def test_string_past_the_cap_exits_2(self, capsys, scratch, monkeypatch):
        monkeypatch.setattr(gexpkit.builder, "MAX_STRING_LENGTH", 64)
        bad = scratch / "doubling.scm"
        bad.write_text('#~(let loop ((s "x")) (loop (string-append s s)))\n')
        code, _, err = run(capsys, "build", str(bad))
        assert code == 2
        assert err.startswith("gexpkit: build error [./store/")
        assert "string-append: result longer than 64 characters" in err

    @pytest.mark.parametrize("text, message", [
        ('(plain-file "a" "b" "c")', "plain-file: expected 2 arguments, got 3"),
        ("(define f (local-file))\n#~(begin #$f)",
         "local-file: expected 1 to 2 arguments, got 0"),
        ("(define f (local-file 5))\n#~(begin #$f)",
         "local-file: the path must be a string, got int"),
        ('#~(write-file #$output #$(plain-file "a" 5))',
         "plain-file: the content must be a string, got int"),
        ('#~(write-file #$output #$(file-append (plain-file "a" "b") 5))',
         "file-append: a suffix must be a string, got int"),
    ])
    def test_host_builtin_misuse_exits_1_without_traceback(
            self, capsys, scratch, text, message):
        bad = scratch / "misuse.scm"
        bad.write_text(text + "\n")
        code, _, err = run(capsys, "build", str(bad))
        assert code == 1
        assert err.startswith("gexpkit: error:")
        assert "Traceback" not in err
        assert message in err

    def test_use_modules_without_import_exits_2(self, capsys, scratch,
                                                module_dir):
        bad = scratch / "forgot.scm"
        bad.write_text("""
#~(begin
    (use-modules (demo util a))
    (mkdir #$output)
    (write-file (string-append #$output "/label") (a-label)))
""")
        code, _, err = run(capsys, "build", str(bad),
                           "--module-path", module_dir)
        assert code == 2
        assert "module not found" in err


class TestConsoleScript:
    def test_installed_entry_point(self, scratch, image_deployment):
        # The child must import the gexpkit this suite imported: a relative
        # PYTHONPATH stops resolving under cwd=scratch, and an installed copy
        # would otherwise shadow the one under test.
        package_root = str(Path(gexpkit.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "gexpkit", "lower", str(image_deployment)],
            capture_output=True, text=True, cwd=scratch, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().endswith("-deploy.drv")
