"""Verifying traces: a warm ``lower``/``build`` skips lowering only when
nothing lowering read or was keyed on has changed.

Every change below must miss the trace (lower again) and print what a
fresh store prints; a hit must call neither ``load_deployment`` nor
``lower_gexp``.
"""

import shutil
from pathlib import Path

import pytest

from gexpkit import cli
from gexpkit.cli import main

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
    """Counts the calls of the two lowering entry points the CLI uses."""

    def __init__(self, monkeypatch):
        self.calls = {"load_deployment": 0, "lower_gexp": 0}
        for name in self.calls:
            monkeypatch.setattr(cli, name, self._counting(name, getattr(cli, name)))

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
