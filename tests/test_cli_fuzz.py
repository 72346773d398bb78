"""Mutated deployment files and ``.drv`` files through the CLI.

Whatever bytes ``gexpkit lower`` or ``gexpkit show`` is handed, it
must exit 0, 1 or 2, let no exception escape ``main``, and start its
stderr with ``gexpkit:`` whenever it fails.  ``build`` is not fuzzed
with mutated deployments: builders still accept absolute paths, so a
mutated program could write outside the scratch directory.  It is
fuzzed with mutated traces: a fixed deployment whose trace has a bit
flipped in an output name or path of its build plan, and maybe is
truncated or has more bits flipped, must still build, printing what it
printed before.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gexpkit.cli import main

from conftest import FIXTURE_DIR, run_main

SEEDS = {
    "package": """\
(define-package hello
  (package
    (name "hello")
    (version "2.1")
    (build #~(begin
               (mkdir #$output)
               (write-file (string-append #$output "/greeting") "hi")))))
#~(begin
    (mkdir #$output)
    (copy-file (string-append #$hello "/greeting")
               (string-append #$output "/greeting")))
""",
    "plain-file": """\
(define note (plain-file "note.txt" "hello, store"))
#~(begin
    (mkdir #$output)
    (copy-file #$note (string-append #$output "/note.txt")))
""",
    "module": """\
(with-imported-modules '((demo util a))
  #~(begin
      (use-modules (demo util a))
      (mkdir #$output)
      (write-file (string-append #$output "/label") (a-label))))
""",
    "named-let": """\
#~(begin
    (mkdir #$output)
    (write-file (string-append #$output "/count")
                (let loop ((i 0) (acc ""))
                  (if (= i 5) acc (loop (+ i 1) (string-append acc "x"))))))
""",
    "splice-native": """\
(define-package tools
  (package
    (name "tools")
    (version "1.0")
    (outputs "out" "doc")
    (build #~(begin
               (mkdir #$output)
               (mkdir (ungexp output "doc"))))))
(define flags '("-v" 3 #t))
#~(begin
    (mkdir #$output)
    (list #$@flags #+tools #$(plain-file "a" "1")))
""",
}

INSERTS = [b"\xff", b"#$@", b"#$", b"#+", b"#~", b"(", b")", b"((", b"))",
           b'"', b"\\", b";", b"#:k", b"#t", b"9223372036854775808", b"'",
           b"(ungexp output \"doc\")", b"#$output", b" ", b"\n", b"\x00"]


@st.composite
def mutated(draw, seeds):
    """One seed's bytes after one to three random mutations."""
    data = bytearray(draw(st.sampled_from(seeds)))
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data)))
        end = draw(st.integers(pos, min(len(data), pos + 16)))
        kind = draw(st.sampled_from(
            ["flip", "cut", "insert", "duplicate", "truncate"]))
        if kind == "flip" and pos < len(data):
            data[pos] ^= 1 << draw(st.integers(0, 7))
        elif kind == "cut":
            del data[pos:end]
        elif kind == "insert":
            data[pos:pos] = draw(st.sampled_from(INSERTS))
        elif kind == "duplicate":
            data[end:end] = data[pos:end]
        elif kind == "truncate":
            del data[pos:]
    return bytes(data)


def assert_clean_exit(code, _out, err):
    assert code in (0, 1, 2)
    if code != 0:
        assert err.startswith("gexpkit:"), err


def lower_argv(deploy: Path, directory: Path) -> list:
    return ["lower", str(deploy), "--store", str(directory / "store"),
            "--module-path", str(FIXTURE_DIR / "modules")]


@pytest.fixture(scope="module")
def drv_seeds(tmp_path_factory):
    """The root ``.drv`` bytes of every seed deployment."""
    directory = tmp_path_factory.mktemp("drv-seeds")
    seeds = []
    for name, text in SEEDS.items():
        deploy = directory / f"{name}.scm"
        deploy.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(lower_argv(deploy, directory)) == 0, name
        seeds.append(Path(out.getvalue().strip()).read_bytes())
    return seeds


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(data=mutated([text.encode() for text in SEEDS.values()]))
def test_lower_exits_cleanly(workdir, data):
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        directory = Path(tmp)
        deploy = directory / "deploy.scm"
        deploy.write_bytes(data)
        assert_clean_exit(*run_main(lower_argv(deploy, directory)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_show_exits_cleanly(workdir, drv_seeds, data):
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        drv = Path(tmp) / "mutated.drv"
        drv.write_bytes(data.draw(mutated(drv_seeds)))
        assert_clean_exit(*run_main(["show", str(drv)]))


TRACED = """\
(define-package hello
  (package
    (name "hello")
    (version "2.1")
    (build #~(begin
               (mkdir #$output)
               (write-file (string-append #$output "/greeting") "hi")))))
(with-imported-modules '((demo util a))
  #~(begin
      (use-modules (demo util a))
      (mkdir #$output)
      (write-file (string-append #$output "/label") (a-label))
      (copy-file (string-append #$hello "/greeting")
                 (string-append #$output "/greeting"))))
"""


@pytest.fixture(scope="module")
def traced_build(tmp_path_factory):
    """A built deployment with a package and modules: its build argv and
    stdout, its trace file, the trace's bytes, and the byte ranges of
    every output name and output path in the trace's build plan."""
    directory = tmp_path_factory.mktemp("traced")
    deploy = directory / "deploy.scm"
    deploy.write_text(TRACED)
    argv = ["build", *lower_argv(deploy, directory)[1:]]
    code, out, err = run_main(argv)
    assert code == 0, err
    [trace] = (directory / "store.traces").iterdir()
    data = trace.read_bytes()
    # Only the plan's {output-name: path} members map a name to a store
    # path; the files read map to digests or null.
    pairs = re.finditer(rb'"([^"]+)": "(%s/[^"]+)"'
                        % re.escape(str(directory / "store").encode()), data)
    spans = [pair.span(group) for pair in pairs for group in (1, 2)]
    assert len(spans) == 4
    return argv, out, trace, data, spans


@st.composite
def corrupted(draw, data: bytes, spans: list):
    """*data* with a bit flipped in one of *spans*, then maybe truncated
    after that byte, or with up to two more bits flipped elsewhere."""
    data = bytearray(data)
    start, end = draw(st.sampled_from(spans))
    edited = draw(st.integers(start, end - 1))
    data[edited] ^= 1 << draw(st.integers(0, 7))
    if draw(st.booleans()):
        return bytes(data[:draw(st.integers(edited + 1, len(data)))])
    for _ in range(draw(st.integers(0, 2))):
        pos = draw(st.integers(0, len(data) - 1).filter(lambda i: i != edited))
        data[pos] ^= 1 << draw(st.integers(0, 7))
    return bytes(data)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_build_ignores_a_corrupt_trace(traced_build, data):
    argv, out, trace, good, spans = traced_build
    bad = data.draw(corrupted(good, spans))
    # A new file: truncating the old one can cost a flush of its data.
    trace.unlink()
    trace.write_bytes(bad)
    code, got, err = run_main(argv)
    assert (code, got) == (0, out), err
    assert "Traceback" not in err
