"""The ``.drv`` file names of whole closures, pinned.

Each deployment below is lowered through ``gexpkit lower`` into an
empty store, and the names of the ``.drv`` files it wrote (the root's
closure) must equal those in ``closure_drvs.json``.  The four shapes
are the ones a change to how lowering is driven could get wrong: a
fan-in DAG with shared inputs named in different orders, a package
with two outputs, a cross build that embeds one package both natively
and for the target, and a nested gexp whose inputs belong to the gexp
around it.  A change that means to move one of these hashes edits the
table and says why in CHANGES.md.
"""

import json
import os
from pathlib import Path

import pytest

from gexpkit.cli import main

TABLE = Path(__file__).parent / "closure_drvs.json"


def leaf(name):
    return (f'(define-package {name} (package (name "{name}") (version "1")'
            f' (build #~(mkdir #$output))))')


def package(name, body):
    return (f'(define-package {name} (package (name "{name}") (version "1")'
            f' (build #~(begin (mkdir #$output) {body}))))')


DEPLOYMENTS = {
    "fan-in": ([], "\n".join([
        leaf("c"), leaf("d"), leaf("e"),
        package("a", "(list #$c #$d #$e)"),
        package("b", "(list #$e #$d #$c)"),
        "#~(begin (mkdir #$output) (list #$b #$a))"])),
    "two-outputs": ([], "\n".join([
        '(define-package tools (package (name "tools") (version "1")'
        ' (outputs "out" "doc")'
        ' (build #~(begin (mkdir #$output) (mkdir (ungexp output "doc"))))))',
        "#~(begin (mkdir #$output) (list #$tools))"])),
    "cross-mixed": (["--target", "aarch64-linux"], "\n".join([
        leaf("tool"),
        package("lib", "(list #+tool)"),
        "#~(begin (mkdir #$output) (list #+tool #$tool #$lib))"])),
    "nested": ([], "\n".join([
        leaf("inner"), leaf("outer"),
        "(define step #~(list #$inner))",
        "#~(begin (mkdir #$output) (list #$step #$outer))"])),
}


def closure_drvs(name: str, directory: Path, capsys) -> dict:
    """The root and the sorted closure ``.drv`` names of deployment
    *name*, lowered from *directory* (the current working directory)."""
    flags, text = DEPLOYMENTS[name]
    source = directory / f"{name}.scm"
    source.write_text(text + "\n")
    code = main(["lower", str(source), "--store", "./store", *flags])
    out, err = capsys.readouterr()
    assert code == 0, err
    return {"root": os.path.basename(out.strip()),
            "drvs": sorted(p.name for p in (directory / "store").iterdir()
                           if p.name.endswith(".drv"))}


@pytest.mark.parametrize("name", sorted(DEPLOYMENTS))
def test_closure_drv_names_pinned(name, scratch, capsys):
    table = json.loads(TABLE.read_text())
    assert closure_drvs(name, scratch, capsys) == table[name]
