"""Root ``.drv`` paths of the benchmark workloads, pinned.

Each workload variant from ``perfbench/workloads.py`` is written into a
temp dir (``base/`` and ``incr/`` as siblings, as the benchmark lays
them out) and lowered through ``gexpkit lower`` with the relative
``./store`` prefix the benchmark uses.  The printed root basename must
equal the one in ``workload_roots.json``, and so must the root that a
second ``lower`` in the same store takes from its trace.  A change that
means to move one of these hashes edits the table and says why in
CHANGES.md.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from gexpkit import lowerable
from gexpkit.cli import main

TESTS_DIR = Path(__file__).parent
TABLE = TESTS_DIR / "workload_roots.json"
WORKLOADS = ("readme", "chain", "compute")
SEEDS = (1, 2, 3)


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", TESTS_DIR.parent / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up by name while it runs.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def lower_roots(name: str, seed: int, directory: Path, capsys) -> dict:
    """{variant: root .drv basename} for one workload and seed, lowered
    from *directory* (the current working directory)."""
    work = workloads.GENERATORS[name](seed)
    variants = {"base": work.base, "incr": work.incr}
    for variant, v in variants.items():
        for rel, data in v.files.items():
            path = directory / variant / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
    roots = {}
    for variant, v in variants.items():
        argv = ["lower", str(directory / variant / "deploy.scm"),
                "--store", "./store"]
        if v.module_dir:
            argv += ["--module-path", str(directory / variant / v.module_dir)]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 0, err
        roots[variant] = os.path.basename(out.strip())
    return roots


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_root_drv_paths_pinned(name, seed, scratch, capsys, monkeypatch):
    monkeypatch.delenv("GEXP_MODULE_PATH", raising=False)
    table = json.loads(TABLE.read_text())
    assert lower_roots(name, seed, scratch, capsys) == table[name][str(seed)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_trace_hit_prints_the_pinned_root(name, seed, scratch, capsys,
                                          monkeypatch):
    monkeypatch.delenv("GEXP_MODULE_PATH", raising=False)
    table = json.loads(TABLE.read_text())
    assert lower_roots(name, seed, scratch, capsys) == table[name][str(seed)]

    def no_lowering(*args):
        raise AssertionError("a trace hit lowered the deployment")

    monkeypatch.setattr(lowerable, "load_deployment", no_lowering)
    assert lower_roots(name, seed, scratch, capsys) == table[name][str(seed)]
