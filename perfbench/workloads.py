"""Seeded input generators for the four benchmark workloads.

Each generator returns a `Workload`: the files of a base deployment and
of an "incremental" variant in which one input changed, plus the
expected contents of the root output for both.  Every expected value is
computed here, in plain Python, and never by gexpkit.

The seed picks content only (tags, strings, file bytes, an integer
offset).  Every token has a fixed width, so the amount of work does not
depend on the seed.

Sizes stay below the recursion limits of the seed code: a package chain
of about 400 raises RecursionError while lowering, and a named-let loop
in a builder dies after about 250 iterations.  They were picked for run
time, not to hide that defect; lengthen them only after the limits are
lifted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Half of the first sizes (150 packages; 200 KB and 300 files), which
# gave 5 samples per phase in a 25 s run and too wide a run-to-run spread.
# chain: packages in the dependency chain (RecursionError at ~400).
CHAIN_PACKAGES = 75
# chain: the package whose version changes in the incremental variant.
CHAIN_CHANGED = 37
# wide: records and record groups of the quoted datum (~110 KB of text).
WIDE_RECORDS = 2400
WIDE_GROUP = 50
# wide: local-file inputs the builder copies, their size, the one changed.
WIDE_FILES = 150
WIDE_FILE_BYTES = 256
WIDE_CHANGED = 75
# compute: argument of the naive recursive fib the builder evaluates.
COMPUTE_FIB_N = 18

README_DEPLOY = """\
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


@dataclass
class Variant:
    """One deployment directory: files by relative path, and the files
    its root output must hold afterwards (relative path -> bytes)."""

    files: dict
    expected: dict
    module_dir: str | None = None


@dataclass
class Workload:
    name: str
    base: Variant
    incr: Variant
    # (built, cached) entries expected in the build log of each phase.
    log_counts: dict = field(default_factory=dict)


def _hex(rng: random.Random, width: int) -> str:
    return f"{rng.getrandbits(4 * width):0{width}x}"


def readme(seed: int) -> Workload:
    rng = random.Random(f"readme:{seed}")

    def variant() -> Variant:
        image = f"mock-png:{_hex(rng, 16)}\n".encode()
        return Variant(
            files={"deploy.scm": README_DEPLOY.encode(), "image.png": image},
            expected={"image.jpg": b"convert-6.9\n-quality=75%:" + image})

    return Workload("readme", variant(), variant(),
                    {"cold": (2, 0), "warm": (0, 2), "incr": (1, 1)})


def _check_input(pkg: str, dep: str, value: str) -> str:
    return (f'(if (equal? (read-file (string-append #${dep} "/value")) '
            f'"{value}") #t (error "{pkg}: wrong {dep}"))')


def chain(seed: int) -> Workload:
    rng = random.Random(f"chain:{seed}")
    tag = _hex(rng, 8)
    values = [f"{tag}-{i:03d}-{_hex(rng, 16)}" for i in range(CHAIN_PACKAGES)]

    def deploy(changed_version: str) -> str:
        forms = []
        for i, value in enumerate(values):
            pkg = f"p{i:03d}"
            checks = [_check_input(pkg, f"p{j:03d}", values[j])
                      for j in (i - 1, i - 2) if j >= 0]
            version = changed_version if i == CHAIN_CHANGED else "1.0"
            body = "\n               ".join(checks + [
                "(mkdir #$output)",
                f'(write-file (string-append #$output "/value") "{value}")'])
            forms.append(
                f"(define-package {pkg}\n"
                f"  (package\n"
                f'    (name "{pkg}")\n'
                f'    (version "{version}")\n'
                f"    (build #~(begin\n"
                f"               {body}))))\n")
        last, prev = f"p{CHAIN_PACKAGES - 1:03d}", f"p{CHAIN_PACKAGES - 2:03d}"
        forms.append(
            "#~(begin\n"
            f"    {_check_input('deploy', last, values[-1])}\n"
            f"    {_check_input('deploy', prev, values[-2])}\n"
            "    (mkdir #$output)\n"
            '    (write-file (string-append #$output "/value")\n'
            "                (string-append\n"
            f'                  (read-file (string-append #${last} "/value"))\n'
            f'                  (read-file (string-append #${prev} "/value")))))\n')
        return "\n".join(forms)

    expected = {"value": (values[-1] + values[-2]).encode()}
    rebuilt = CHAIN_PACKAGES - CHAIN_CHANGED + 1
    return Workload(
        "chain",
        Variant({"deploy.scm": deploy("1.0").encode()}, expected),
        Variant({"deploy.scm": deploy("1.1").encode()}, expected),
        {"cold": (CHAIN_PACKAGES + 1, 0), "warm": (0, CHAIN_PACKAGES + 1),
         "incr": (rebuilt, CHAIN_PACKAGES + 1 - rebuilt)})


def wide(seed: int) -> Workload:
    rng = random.Random(f"wide:{seed}")
    groups = []
    first_key = None
    for g in range(WIDE_RECORDS // WIDE_GROUP):
        records = []
        for _ in range(WIDE_GROUP):
            key = f"k{_hex(rng, 8)}"
            first_key = first_key or key
            records.append(f'(rec "{key}" {rng.randrange(100000, 1000000)} '
                           f"(alpha beta) #t)")
        groups.append(f"(group {g:03d} " + " ".join(records) + ")")
    datum = "(" + "\n".join(groups) + ")"
    names = [f"f{i:03d}" for i in range(WIDE_FILES)]
    blobs = [_hex(rng, WIDE_FILE_BYTES).encode() for _ in names]
    changed = _hex(rng, WIDE_FILE_BYTES).encode()

    def deploy(source) -> bytes:
        copies = "\n    ".join(
            f'(copy-file #$(local-file "{source(i)}") (string-append #$output "/{n}"))'
            for i, n in enumerate(names))
        return (
            "#~(begin\n"
            "    (mkdir #$output)\n"
            f"    (define data (quote {datum}))\n"
            '    (write-file (string-append #$output "/first")\n'
            "                (car (cdr (car (cdr (cdr (car data)))))))\n"
            f"    {copies})\n").encode()

    base_files = {f"in/{n}.dat": b for n, b in zip(names, blobs)}
    base_files["deploy.scm"] = deploy(lambda i: f"in/{names[i]}.dat")
    # The incremental variant, written next to the base directory, reads
    # every base file but the changed one: a store item depends on the
    # file's name and content, not on its path.
    incr_files = {f"in/{names[WIDE_CHANGED]}.dat": changed,
                  "deploy.scm": deploy(lambda i: f"in/{names[i]}.dat" if i == WIDE_CHANGED
                                       else f"../base/in/{names[i]}.dat")}
    expected = {"first": first_key.encode()}
    expected.update(zip(names, blobs))
    incr_expected = dict(expected, **{names[WIDE_CHANGED]: changed})
    return Workload("wide", Variant(base_files, expected),
                    Variant(incr_files, incr_expected),
                    {"cold": (1, 0), "warm": (0, 1), "incr": (1, 0)})


def _fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def compute(seed: int) -> Workload:
    rng = random.Random(f"compute:{seed}")
    tag = _hex(rng, 8)
    # fib(18) = 2584: the expected value, and the incremental variant's
    # offset + 1, stay at four digits.
    offset = rng.randrange(1000, 7000)
    fib_module = (
        "(define-module (bench fib) #:use-module (bench util))\n"
        "(define (fib n)\n"
        "  (if (= n 0) 0\n"
        "      (if (= n 1) 1\n"
        "          (+ (fib (- n 1)) (fib (- n 2))))))\n")

    def variant(offset: int) -> Variant:
        want = _fib(COMPUTE_FIB_N) + offset
        marker = f"fib-ok-{tag}-{want}"
        deploy = (
            "(with-imported-modules '((bench fib))\n"
            "  #~(begin\n"
            "      (use-modules (bench fib))\n"
            "      (mkdir #$output)\n"
            f"      (if (= (add-offset (fib {COMPUTE_FIB_N})) {want})\n"
            f'          (write-file (string-append #$output "/result") "{marker}")\n'
            '          (error "fib result differs from the expected value"))))\n')
        util = ("(define-module (bench util))\n"
                f"(define offset {offset})\n"
                "(define (add-offset n) (+ n offset))\n")
        return Variant(
            files={"deploy.scm": deploy.encode(),
                   "mods/bench/fib.scm": fib_module.encode(),
                   "mods/bench/util.scm": util.encode()},
            expected={"result": marker.encode()},
            module_dir="mods")

    return Workload("compute", variant(offset), variant(offset + 1),
                    {"cold": (1, 0), "warm": (0, 1), "incr": (1, 0)})


GENERATORS = {"readme": readme, "chain": chain, "wide": wide,
              "compute": compute}
