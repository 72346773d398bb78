"""Verifying traces: a warm ``lower``/``build`` skips lowering only when
nothing lowering read or was keyed on has changed.

Every change below must miss the trace (lower again) and print what a
fresh store prints; a hit must call neither ``load_deployment`` nor
``lower_gexp``.
"""

import hashlib
import json
import os
import shutil
from collections import Counter
from pathlib import Path

import pytest

from gexpkit import cli, lowerable, store
from gexpkit.cli import main
from gexpkit.sexp import Boolean, String, Symbol, print_canonical, slist

from conftest import FIXTURE_DIR

DEPLOY = """\
(define-package tool
  (package
    (name "tool")
    (version "1.0")
    (build #~(begin
               (mkdir #$output)
               (write-file (string-append #$output "/v") "1")))))
(define image (local-file "image.png"))
(with-imported-modules '((demo util a))
  #~(begin
      (use-modules (demo util a))
      (mkdir #$output)
      (write-file (string-append #$output "/label") (a-label))
      (copy-file #$image (string-append #$output "/image"))
      (copy-file (string-append #$tool "/v") (string-append #$output "/v"))))
"""


class Spy:
    """Counts the calls of the two lowering entry points the CLI uses,
    which it imports from `lowerable` when it lowers."""

    def __init__(self, monkeypatch):
        self.calls = {"load_deployment": 0, "lower_gexp": 0}
        for name in self.calls:
            monkeypatch.setattr(lowerable, name,
                                self._counting(name, getattr(lowerable, name)))

    def _counting(self, name, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def reset(self):
        self.calls = dict.fromkeys(self.calls, 0)

    @property
    def lowered(self) -> bool:
        return self.calls["load_deployment"] == 1 and self.calls["lower_gexp"] >= 1

    @property
    def skipped(self) -> bool:
        return not any(self.calls.values())


@pytest.fixture
def work(scratch, monkeypatch):
    """The deployment, its image and two module roots: ``mods-a``, empty
    and searched first, and ``mods-b``, holding ``(demo util ...)``.
    The search path comes from GEXP_MODULE_PATH."""
    directory = scratch / "work"
    directory.mkdir()
    (directory / "deploy.scm").write_text(DEPLOY)
    (directory / "image.png").write_bytes(b"mock-png:1\n")
    (directory / "mods-a").mkdir()
    shutil.copytree(FIXTURE_DIR / "modules", directory / "mods-b")
    monkeypatch.setenv("GEXP_MODULE_PATH", "{0}/mods-a:{0}/mods-b".format(directory))
    monkeypatch.delenv("GEXP_STORE_DIR", raising=False)
    return directory


def run(capsys, argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 0, err
    return out


def in_fresh_store(capsys, monkeypatch, scratch, argv):
    """*argv*'s stdout from a new directory, so ``./store`` is empty."""
    fresh = scratch / "fresh"
    fresh.mkdir()
    monkeypatch.chdir(fresh)
    try:
        return run(capsys, argv)
    finally:
        monkeypatch.chdir(scratch)


def change_deployment(work, argv, monkeypatch):
    deploy = work / "deploy.scm"
    deploy.write_text(deploy.read_text().replace('"/v") "1"', '"/v") "2"'))


def change_local_file(work, argv, monkeypatch):
    (work / "image.png").write_bytes(b"mock-png:2\n")


def change_module_file(work, argv, monkeypatch):
    (work / "mods-b/demo/util/c.scm").write_text(
        '(define-module (demo util c))\n(define (c-label) "C")\n')


def shadow_module(work, argv, monkeypatch):
    (work / "mods-a/demo/util").mkdir(parents=True)
    (work / "mods-a/demo/util/a.scm").write_text(
        '(define-module (demo util a))\n(define (a-label) "shadow")\n')


def module_path_flag(work, argv, monkeypatch):
    argv += ["--module-path", str(work / "mods-b")]


def module_path_env(work, argv, monkeypatch):
    monkeypatch.setenv("GEXP_MODULE_PATH", str(work / "mods-b"))


def system_flag(work, argv, monkeypatch):
    argv += ["--system", "i686-linux"]


def target_flag(work, argv, monkeypatch):
    argv += ["--target", "aarch64-linux"]


def name_flag(work, argv, monkeypatch):
    argv += ["--name", "renamed"]


def store_text(work, argv, monkeypatch):
    # Same directory as the default ./store, but paths print as store/...
    argv += ["--store", "store"]


def source_digest(work, argv, monkeypatch):
    monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)


CHANGES = [change_deployment, change_local_file, change_module_file,
           shadow_module, module_path_flag, module_path_env, system_flag,
           target_flag, name_flag, store_text, source_digest]


@pytest.mark.parametrize("command", ["lower", "build"])
def test_unchanged_input_skips_lowering(command, work, capsys, monkeypatch):
    argv = [command, str(work / "deploy.scm")]
    first = run(capsys, argv)
    spy = Spy(monkeypatch)
    assert run(capsys, argv) == first
    assert spy.skipped
    assert len(list(Path("store.traces").iterdir())) == 1


@pytest.mark.parametrize("change", CHANGES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("command", ["lower", "build"])
def test_any_change_misses_the_trace(command, change, work, scratch, capsys,
                                     monkeypatch):
    argv = [command, str(work / "deploy.scm")]
    run(capsys, argv)
    spy = Spy(monkeypatch)
    change(work, argv, monkeypatch)
    out = run(capsys, argv)
    assert spy.lowered
    assert out == in_fresh_store(capsys, monkeypatch, scratch, argv)
    spy.reset()
    assert run(capsys, argv) == out
    assert spy.skipped


def test_changes_that_move_the_result_are_seen(work, capsys, monkeypatch):
    # The misses above would also pass if a change left the result as it
    # was; these changes do move the root.
    argv = ["lower", str(work / "deploy.scm")]
    first = run(capsys, argv)
    for change in (change_deployment, change_local_file, change_module_file,
                   shadow_module, system_flag, target_flag, name_flag,
                   store_text):
        before = run(capsys, argv)
        change(work, argv, monkeypatch)
        assert run(capsys, argv) not in (before, first), change.__name__


@pytest.mark.parametrize("item", ["*-tool-1.0.drv", "*-tool-1.0-builder",
                                  "*-image.png"])
def test_missing_closure_item_is_lowered_again(item, work, capsys,
                                               monkeypatch):
    argv = ["build", str(work / "deploy.scm")]
    first = run(capsys, argv)
    [path] = Path("store").glob(item)
    path.unlink()
    spy = Spy(monkeypatch)
    assert run(capsys, argv) == first
    assert spy.lowered
    assert path.is_file()


def test_failing_to_write_a_trace_does_not_fail(work, capsys, monkeypatch):
    Path("store.traces").write_text("not a directory")
    argv = ["build", str(work / "deploy.scm")]
    first = run(capsys, argv)
    spy = Spy(monkeypatch)
    assert run(capsys, argv) == first
    assert spy.lowered


CHAIN = """\
(define-package p0
  (package
    (name "p0")
    (version "1.0")
    (build #~(begin
               (mkdir #$output)
               (write-file (string-append #$output "/v") "0")))))
(define-package p1
  (package
    (name "p1")
    (version "1.0")
    (build #~(begin
               (mkdir #$output)
               (write-file (string-append #$output "/v")
                           (string-append
                             (read-file (string-append #$p0 "/v")) "1"))))))
(define-package p2
  (package
    (name "p2")
    (version "1.0")
    (build #~(begin
               (mkdir #$output)
               (write-file (string-append #$output "/v")
                           (string-append
                             (read-file (string-append #$p1 "/v")) "2"))))))
#~(copy-file (string-append #$p2 "/v") #$output)
"""


@pytest.fixture
def chain(scratch, monkeypatch):
    """``build`` argv for `CHAIN` in a fresh ``./store``."""
    monkeypatch.delenv("GEXP_STORE_DIR", raising=False)
    deploy = scratch / "chain.scm"
    deploy.write_text(CHAIN)
    return ["build", str(deploy)]


def count_parses(monkeypatch) -> Counter:
    """Counts, by ``.drv`` path, the derivations `store` parses."""
    parses = Counter()
    real_parse = store._parse_derivation

    def counting_parse(data, source):
        parses[str(source)] += 1
        return real_parse(data, source)

    monkeypatch.setattr(store, "_parse_derivation", counting_parse)
    return parses


def test_all_cached_trace_hit_reads_no_drv(chain, capsys, monkeypatch):
    first = run(capsys, chain)
    assert Path(first.split("\t")[1].strip()).read_text() == "012"

    def no_access(*args):
        raise AssertionError("an all-cached trace hit read or wrote a .drv")

    for name in ("read_derivation", "_parse_derivation", "_closure_order",
                 "write_derivation", "_check_references"):
        monkeypatch.setattr(store, name, no_access)
    spy = Spy(monkeypatch)
    assert run(capsys, chain) == first
    assert spy.skipped


def test_trace_hit_parses_only_what_it_builds(chain, scratch, capsys,
                                              monkeypatch):
    (scratch / "fresh").mkdir()
    monkeypatch.chdir(scratch / "fresh")
    assert main(chain) == 0
    fresh = capsys.readouterr()
    monkeypatch.chdir(scratch)
    run(capsys, ["lower", chain[1]])
    drvs = {f"./store/{p.name}" for p in Path("store").glob("*.drv")}
    assert len(drvs) == 4
    spy = Spy(monkeypatch)
    parses = count_parses(monkeypatch)
    assert main(chain) == 0
    assert capsys.readouterr() == fresh
    assert spy.skipped
    assert parses == dict.fromkeys(drvs, 1)

    [p1] = Path("store").glob("*-p1-1.0")
    store.rmtree_rw(str(p1))
    [p1_drv] = (d for d in drvs if d.endswith("-p1-1.0.drv"))
    parses.clear()
    assert main(chain) == 0
    out, err = capsys.readouterr()
    assert out == fresh.out
    assert spy.skipped
    assert parses == {p1_drv: 1}
    assert err == fresh.err.replace("build ", "cached ").replace(
        f"cached {p1_drv}", f"build {p1_drv}")
    assert p1.is_dir()


def test_edited_trace_is_a_miss(chain, capsys, monkeypatch):
    first = run(capsys, chain)
    [trace] = Path("store.traces").iterdir()
    data = trace.read_bytes()
    assert data.count(b'"out": "') == 4
    trace.unlink()
    trace.write_bytes(data.replace(b'"out": "', b'"nut": "'))
    spy = Spy(monkeypatch)
    assert run(capsys, chain) == first
    assert spy.lowered
    assert trace.read_bytes() == data


def sexp_layout(body: bytes) -> bytes:
    """The JSON trace *body* in the s-expression layout of earlier
    gexpkit: ``(trace KEY DIGEST ((path digest) ...) ((drv builder
    (source ...) (output path) ...) ...))``, ``#f`` for None."""
    key, digest, reads, plan = json.loads(body)

    def atom(value):
        return Boolean(False) if value is None else String(value)

    return print_canonical(slist(
        Symbol("trace"),
        slist(*map(atom, key[:-1]), slist(*map(String, key[-1]))),
        String(digest),
        slist(*(slist(String(path), atom(d)) for path, d in reads.items())),
        slist(*(slist(String(drv), String(builder), slist(*map(String, sources)),
                      *(slist(String(out), String(path))
                        for out, path in outputs.items()))
                for drv, builder, sources, outputs in plan)))).encode()


@pytest.mark.parametrize("layout", [sexp_layout, lambda _: b"5",
                                    lambda _: b"{}", lambda _: b"[]",
                                    lambda _: b"[" * 100_000],
                         ids=["sexp", "number", "object", "empty-array",
                              "deep-array"])
def test_other_layouts_miss(layout, chain, capsys, monkeypatch):
    first = run(capsys, chain)
    [trace] = Path("store.traces").iterdir()
    data = trace.read_bytes()
    body = layout(data.partition(b"\n")[2])
    trace.unlink()
    trace.write_bytes(hashlib.sha256(body).hexdigest().encode() + b"\n" + body)
    spy = Spy(monkeypatch)
    code = main(chain)
    out, err = capsys.readouterr()
    assert (code, out) == (0, first)
    assert "Traceback" not in err
    assert spy.lowered
    assert trace.read_bytes() == data


def test_same_file_from_another_directory(work, scratch, capsys, monkeypatch):
    # The trace key holds the resolved deployment path; from b/,
    # ../work/deploy.scm is work/deploy.scm, not b/deploy.scm.
    argv = ["build", "deploy.scm", "--store", str(scratch / "store")]
    monkeypatch.chdir(work)
    first = run(capsys, argv)
    (scratch / "b").mkdir()
    shutil.copy(work / "deploy.scm", scratch / "b")
    change_deployment(work, argv, monkeypatch)
    monkeypatch.chdir(scratch / "b")
    spy = Spy(monkeypatch)
    out = run(capsys, ["build", "../work/deploy.scm", *argv[2:]])
    assert spy.lowered
    assert out != first
    assert (Path(out.split("\t")[1].strip()) / "v").read_text() == "2"


def test_non_utf8_paths_hit(scratch, capsys, monkeypatch):
    monkeypatch.delenv("GEXP_STORE_DIR", raising=False)
    monkeypatch.delenv("GEXP_MODULE_PATH", raising=False)
    directory = scratch / os.fsdecode(b"d\xff")
    directory.mkdir()
    (directory / "deploy.scm").write_text(
        '(define image (local-file "image.png"))\n'
        '#~(copy-file #$image #$output)\n')
    (directory / "image.png").write_bytes(b"mock-png:1\n")
    argv = ["build", str(directory / "deploy.scm")]
    first = run(capsys, argv)
    spy = Spy(monkeypatch)
    assert run(capsys, argv) == first
    assert spy.skipped
