"""Start-up: what each command imports, and its exit codes, in a fresh
interpreter.

In-process tests run with every gexpkit module already imported, so
they can see neither what a command loads nor a handler that misses an
error class of a module the command imports lazily.  These tests run
``gexpkit`` in a child process through a ``-c`` wrapper that runs it
with `runpy` and then prints the sorted ``gexpkit.*`` names in
``sys.modules``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gexpkit

SRC = str(Path(gexpkit.__file__).resolve().parent.parent)

WRAPPER = """\
import json, runpy, sys
try:
    runpy.run_module("gexpkit", run_name="__main__", alter_sys=True)
finally:
    print(json.dumps(sorted(m for m in sys.modules
                            if m.split(".")[0] == "gexpkit")))
"""

EVALUATOR = "gexpkit.builder"
HOST_TIER = {"gexpkit.gexp", "gexpkit.lowerable", "gexpkit.modules"}
STORE_TIER = {"gexpkit", "gexpkit.cli", "gexpkit.sexp", "gexpkit.store"}


def child(cwd, *args):
    """Run ``python *args`` in a fresh interpreter that imports the
    gexpkit under test; return its exit code, stdout and stderr."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GEXP_")}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, *args], capture_output=True,
                            text=True, cwd=cwd, env=env)
    return result.returncode, result.stdout, result.stderr


def gexpkit_child(cwd, *argv):
    """Run ``gexpkit *argv`` in a fresh interpreter; return its exit
    code, its stdout, its stderr and the gexpkit modules it loaded."""
    code, out, err = child(cwd, "-c", WRAPPER, *argv)
    out, _, modules = out.rstrip("\n").rpartition("\n")
    return code, out, err, set(json.loads(modules))


def test_import_gexpkit_loads_no_submodule(scratch):
    code, out, err = child(scratch, "-c", "import gexpkit, sys; print(sorted("
                           "m for m in sys.modules if m.startswith('gexpkit')))")
    assert code == 0, err
    assert out == "['gexpkit']\n"


def test_lower_show_and_add_load_no_evaluator(scratch, image_deployment):
    code, root, err, modules = gexpkit_child(scratch, "lower",
                                             str(image_deployment))
    assert code == 0, err
    assert EVALUATOR not in modules
    assert HOST_TIER <= modules
    for argv in (["show", root], ["add", str(image_deployment)],
                 ["lower", str(image_deployment)]):
        code, _, err, modules = gexpkit_child(scratch, *argv)
        assert code == 0, err
        assert modules == STORE_TIER, argv


def test_warm_build_loads_neither_host_tier_nor_evaluator(scratch,
                                                           image_deployment):
    code, cold, err, modules = gexpkit_child(scratch, "build",
                                             str(image_deployment))
    assert code == 0, err
    assert {EVALUATOR, *HOST_TIER} <= modules
    code, warm, err, modules = gexpkit_child(scratch, "build",
                                             str(image_deployment))
    assert code == 0, err
    assert warm == cold
    assert [line.split()[0] for line in err.splitlines()] == ["cached"] * 2
    assert modules == STORE_TIER


def test_built_but_not_lowered_loads_the_evaluator_only_to_build(
        scratch, image_deployment):
    assert gexpkit_child(scratch, "lower", str(image_deployment))[0] == 0
    code, _, err, modules = gexpkit_child(scratch, "build",
                                          str(image_deployment))
    assert code == 0, err
    assert [line.split()[0] for line in err.splitlines()] == ["build"] * 2
    assert modules == STORE_TIER | {EVALUATOR, "gexpkit.modules"}


@pytest.mark.parametrize("text, code, message", [
    ("(display 1)\n#~(list)\n", 1,
     "gexpkit: error: {file}: every form before the last must be a define"),
    ('(define f (local-file "absent.png"))\n#~(copy-file #$f #$output)\n', 1,
     "gexpkit: error: cannot read {dir}/absent.png"),
    ("(with-imported-modules '((demo util a))\n"
     "  #~(begin (use-modules (demo util a)) (mkdir #$output)))\n", 1,
     "gexpkit: error: module not found: (demo util a)"),
    ("(unbalanced\n", 1, "gexpkit: error: "),
    ('#~(error "deliberate")\n', 2,
     "gexpkit: build error [./store/"),
], ids=["staging", "lowering", "module", "parse", "builder"])
def test_exit_codes_in_a_fresh_process(scratch, text, code, message):
    deploy = scratch / "failing.scm"
    deploy.write_text(text)
    got, out, err, _modules = gexpkit_child(scratch, "build", str(deploy))
    assert got == code
    assert out == ""
    assert err.startswith(message.format(file=deploy, dir=scratch))
    assert "Traceback" not in err
    assert err.count("\n") == 1
