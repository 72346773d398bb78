import contextlib
import io
import json
import signal
from pathlib import Path

import pytest

import gexpkit.lowerable
from gexpkit import Store
from gexpkit.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
FIXTURE_DIR = Path(__file__).parent / "fixtures"

IMAGE_BYTES = b"mock-png:GuixSD\n"
CONVERT_TEXT = "convert-6.9\n"
JPG_BYTES = b"convert-6.9\n-quality=75%:mock-png:GuixSD\n"

# A mock package manager scenario: a "compiler" package whose output is
# a data file, and a deployment whose builder applies it to an image.
DEPLOY_IMAGE = """\
; resize an image with a mock converter
(define-package imagemagick
  (package
    (name "imagemagick")
    (version "6.9")
    (build #~(begin
               (mkdir #$output)
               (mkdir (string-append #$output "/bin"))
               (write-file (string-append #$output "/bin/convert")
                           "convert-6.9\\n")))))

(define image (local-file "image.png"))

#~(begin
    (mkdir #$output)
    (write-file (string-append #$output "/image.jpg")
                (string-append
                  (read-file (string-append #$imagemagick "/bin/convert"))
                  "-quality=75%:"
                  (read-file #$image))))
"""


def package_chain(length):
    """A deployment of *length* packages, each embedding its two
    predecessors, and a root embedding the last two; the text nests no
    deeper than one package."""
    def build(i):
        deps = " ".join(f"#$p{j}" for j in (i - 1, i - 2) if j >= 0)
        return f"#~(begin (mkdir #$output) (list {deps}))"

    forms = [f'(define-package p{i} (package (name "p{i}") (version "1")'
             f' (build {build(i)})))' for i in range(length)]
    return "\n".join([*forms, build(length)]).encode()


class TooSlow(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TooSlow inside the block once *seconds* of wall time have
    passed, so that work which should be bounded fails fast instead of
    stalling the suite.  It uses SIGALRM: main thread only."""
    def too_slow(signum, frame):
        raise TooSlow(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_main(argv):
    """Exit code, stdout and stderr of ``gexpkit.cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def compilers(monkeypatch):
    """Compilers registered during the test are dropped after it."""
    monkeypatch.setattr(gexpkit.lowerable, "_COMPILERS",
                        dict(gexpkit.lowerable._COMPILERS))


@pytest.fixture
def golden_paths():
    return json.loads((GOLDEN_DIR / "paths.json").read_text())


@pytest.fixture
def golden_drv_text():
    return (GOLDEN_DIR / "golden-example.drv").read_text()


@pytest.fixture
def module_dir():
    return str(FIXTURE_DIR / "modules")


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    """Run from a scratch directory so the default relative ./store
    prefix lands somewhere disposable."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def store(scratch):
    return Store("./store")


def write_image_deployment(directory: Path, deploy_text: str = DEPLOY_IMAGE,
                           image_bytes: bytes = IMAGE_BYTES) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "image.png").write_bytes(image_bytes)
    deploy = directory / "deploy.scm"
    deploy.write_text(deploy_text)
    return deploy


@pytest.fixture
def image_deployment(scratch):
    return write_image_deployment(scratch)
