"""The independent oracle and the code agree.

``scripts/make_goldens.py`` computes the golden files from first
principles, without importing gexpkit.  These tests check that the
frozen files are still what the oracle computes, and that ``gexpkit
lower`` writes the same bytes for the two-package chain, whose let
binders show the staging rename in the builder's store path, and for a
root with two outputs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from conftest import FIXTURE_DIR, GOLDEN_DIR, run_main

SCRIPT = Path(__file__).parent.parent / "scripts" / "make_goldens.py"


def check(script: Path):
    return subprocess.run([sys.executable, str(script), "--check"],
                          capture_output=True, text=True)


def test_goldens_match_their_oracle():
    result = check(SCRIPT)
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")


def test_check_names_each_drifted_file(tmp_path):
    script = tmp_path / "scripts" / "make_goldens.py"
    script.parent.mkdir()
    shutil.copy(SCRIPT, script)
    subprocess.run([sys.executable, str(script)], check=True,
                   capture_output=True)
    (tmp_path / "tests" / "golden" / "second.drv").write_text("(derivation)")
    (tmp_path / "tests" / "fixtures" / "modules" / "demo" / "util" / "c.scm").unlink()
    result = check(script)
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        "differs from its oracle: tests/golden/second.drv",
        "differs from its oracle: tests/fixtures/modules/demo/util/c.scm"]


def test_lowered_chain_matches_the_oracle(scratch):
    paths = json.loads((GOLDEN_DIR / "paths.json").read_text())
    code, out, err = run_main(["lower", str(FIXTURE_DIR / "chain" / "second.scm"),
                               "--store", "./store"])
    assert code == 0, err
    assert out.strip() == paths["second-drv"]
    for key, golden in (("first-drv", "first-1.drv"), ("second-drv", "second.drv")):
        assert Path(paths[key]).read_bytes() == (GOLDEN_DIR / golden).read_bytes()


def test_lowered_two_outputs_match_the_oracle(scratch):
    paths = json.loads((GOLDEN_DIR / "paths.json").read_text())
    code, out, err = run_main(["lower", str(FIXTURE_DIR / "outputs" / "split.scm"),
                               "--store", "./store"])
    assert code == 0, err
    assert out.strip() == paths["split-drv"]
    assert Path(paths["split-drv"]).read_bytes() == (
        GOLDEN_DIR / "split.drv").read_bytes()
