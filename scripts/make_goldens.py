#!/usr/bin/env python3
"""Generate the golden store values used by the test suite.

Everything here is computed from first principles with hashlib and
string assembly; the script deliberately does not import gexpkit, so
the frozen files pin the path formula independently of the package
implementation.  Run from the repository root:

    python scripts/make_goldens.py          # write the files below
    python scripts/make_goldens.py --check  # exit 1 if any file differs

Outputs:
    tests/golden/paths.json          expected store paths
    tests/golden/golden-example.drv  expected derivation file bytes
    tests/golden/first-1.drv         the two-package chain: the embedded
    tests/golden/second.drv          package and the root that binds a let
    tests/fixtures/chain/second.scm  the chain's deployment
    tests/golden/split.drv           a root with two outputs, "out" and "lib"
    tests/fixtures/outputs/split.scm its deployment
    tests/fixtures/modules/...       module fixture tree (3-file import chain)
"""

import filecmp
import hashlib
import json
import pathlib
import sys
import tempfile

PREFIX = "./store"
SYSTEM = "x86_64-linux"

ALPHABET = "0123456789abcdfghijklmnpqrsvwxyz"


def base32(data: bytes) -> str:
    # 5-bit groups taken from the highest bit offset downward.
    out_len = (len(data) * 8 + 4) // 5
    chars = []
    for i in range(out_len - 1, -1, -1):
        bit = i * 5
        byte = bit // 8
        off = bit % 8
        val = data[byte] >> off
        if byte + 1 < len(data):
            val |= data[byte + 1] << (8 - off)
        chars.append(ALPHABET[val & 0x1F])
    return "".join(chars)


def store_path(kind: str, payload: bytes, name: str, path_name: str = None) -> str:
    content_hex = hashlib.sha256(payload).hexdigest()
    fingerprint = f"{kind}:sha256:{content_hex}:{name}"
    truncated = hashlib.sha256(fingerprint.encode("utf-8")).digest()[:20]
    return f"{PREFIX}/{base32(truncated)}-{path_name if path_name is not None else name}"


def quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def derivation_text(name, system, target, builder, input_drvs, input_sources,
                    outputs, env) -> str:
    parts = [
        "(derivation",
        f" (name {quote(name)})",
        f" (system {quote(system)})",
        " (target #f)" if target is None else f" (target {quote(target)})",
        f" (builder {quote(builder)})",
    ]
    drvs = "".join(
        " (" + " ".join([quote(path)] + [quote(o) for o in sorted(outs)]) + ")"
        for path, outs in sorted(input_drvs)
    )
    parts.append(f" (input-drvs{drvs})")
    parts.append("".join([" (input-sources"] +
                         [" " + quote(p) for p in sorted(input_sources)] + [")"]))
    parts.append("".join([" (outputs"] +
                         [f" ({quote(k)} {quote(v)})" for k, v in sorted(outputs.items())] +
                         [")"]))
    parts.append("".join([" (env"] +
                         [f" ({quote(k)} {quote(v)})" for k, v in sorted(env.items())] +
                         [")"]))
    return "".join(parts) + ")"


def derivation(name, builder_text, input_drvs=(), input_sources=(),
               outputs=("out",)):
    """The .drv text, its store path and the "out" path of a derivation
    whose builder program is *builder_text*, as lowering writes it: the
    builder is interned as <name>-builder and each output path is hashed
    over the text with the output fields blanked.  An output other than
    "out" gets the path name <name>-<output>."""
    builder = store_path("source", builder_text.encode("utf-8"), f"{name}-builder")
    blanks = {o: "" for o in outputs}
    blank = derivation_text(name, SYSTEM, None, builder, input_drvs, input_sources,
                            blanks, blanks)
    blank_hex = hashlib.sha256(blank.encode("utf-8")).hexdigest()
    paths = {}
    for o in outputs:
        out_fp = f"output:{o}:sha256:{blank_hex}:{name}"
        out_hash = base32(hashlib.sha256(out_fp.encode("utf-8")).digest()[:20])
        paths[o] = f"{PREFIX}/{out_hash}-{name if o == 'out' else f'{name}-{o}'}"
    final = derivation_text(name, SYSTEM, None, builder, input_drvs, input_sources,
                            paths, paths)
    return (final, store_path("text", final.encode("utf-8"), f"{name}.drv"),
            paths["out"])


# A two-package chain: "second" (the deployment's root gexp) embeds the
# package "first" with #$ and binds a let.  Staging renames the let's
# binders to <name>-<tag>-0, the tag being the first four hex digits of
# the SHA-256 of the body's canonical text (shorthand expanded), taken
# before renaming.
CHAIN_DEPLOYMENT = """\
(define-package first
  (package
    (name "first")
    (version "1")
    (build #~(begin
               (mkdir #$output)
               (write-file (string-append #$output "/greeting") "hello")))))

#~(let ((dir #$output) (from #$first))
    (mkdir dir)
    (copy-file (string-append from "/greeting") (string-append dir "/greeting")))
"""

SECOND_BODY = ('(let ((dir (ungexp output)) (from (ungexp first))) (mkdir dir)'
               ' (copy-file (string-append from "/greeting")'
               ' (string-append dir "/greeting")))')


def chain_goldens():
    """{file name: .drv text} and {paths.json key: path} of the chain."""
    first_text, first_drv, first_out = derivation(
        "first-1", '(begin (mkdir (getenv "out")) (write-file'
                   ' (string-append (getenv "out") "/greeting") "hello"))')
    tag = hashlib.sha256(SECOND_BODY.encode("utf-8")).hexdigest()[:4]
    d, f = f"dir-{tag}-0", f"from-{tag}-0"
    second_text, second_drv, _ = derivation(
        "second", f'(let (({d} (getenv "out")) ({f} {quote(first_out)})) (mkdir {d})'
                  f' (copy-file (string-append {f} "/greeting")'
                  f' (string-append {d} "/greeting")))',
        input_drvs=[(first_drv, ["out"])])
    return ({"first-1.drv": first_text, "second.drv": second_text},
            {"first-drv": first_drv, "second-drv": second_drv})


# A deployment whose root gexp names two outputs, "out" through #$output
# and "lib" through (ungexp output "lib"); nothing in it is renamed.
SPLIT_DEPLOYMENT = """\
#~(begin
    (mkdir #$output)
    (mkdir (ungexp output "lib"))
    (write-file (string-append (ungexp output "lib") "/version") "1")
    (write-file (string-append #$output "/lib") (ungexp output "lib")))
"""


def split_golden():
    """The .drv text and store path of the two-output deployment."""
    out, lib = '(getenv "out")', '(getenv "lib")'
    text, drv, _ = derivation(
        "split", f'(begin (mkdir {out}) (mkdir {lib}) (write-file'
                 f' (string-append {lib} "/version") "1") (write-file'
                 f' (string-append {out} "/lib") {lib}))',
        outputs=("out", "lib"))
    return text, drv


MODULE_FILES = {
    "demo/util/a.scm": '(define-module (demo util a) #:use-module (demo util b))\n'
                       '(define (a-label) (string-append "a+" (b-label)))\n',
    "demo/util/b.scm": '(define-module (demo util b) #:use-module (demo util c))\n'
                       '(define (b-label) (string-append "b+" (c-label)))\n',
    "demo/util/c.scm": '(define-module (demo util c))\n'
                       '(define (c-label) "c")\n',
}


def generate(root: pathlib.Path) -> list:
    """Write every golden file under *root*; return their paths relative
    to it."""
    written = []
    golden_dir = root / "tests" / "golden"
    golden_dir.mkdir(parents=True, exist_ok=True)

    paths = {}

    paths["greeting"] = store_path("source", b"hello\n", "greeting")

    # End-to-end fixture: one interned source, one derivation copying it.
    source_content = b"mock-png:GuixSD\n"
    src = store_path("source", source_content, "image.png")
    paths["source"] = src

    builder_text = (
        f'(begin (mkdir (getenv "out")) '
        f'(copy-file {quote(src)} (string-append (getenv "out") "/image.png")))'
    )
    paths["builder"] = store_path("source", builder_text.encode("utf-8"),
                                  "golden-example-builder")
    final, drv, paths["output"] = derivation(
        "golden-example", builder_text, input_sources=[src])
    paths["drv"] = drv
    drvs = {"golden-example.drv": final}

    chain_drvs, chain_paths = chain_goldens()
    drvs.update(chain_drvs)
    paths.update(chain_paths)
    drvs["split.drv"], paths["split-drv"] = split_golden()
    for file_name, text in drvs.items():
        (golden_dir / file_name).write_bytes(text.encode("utf-8"))
        written.append(f"tests/golden/{file_name}")
    chain_dir = root / "tests" / "fixtures" / "chain"
    chain_dir.mkdir(parents=True, exist_ok=True)
    (chain_dir / "second.scm").write_text(CHAIN_DEPLOYMENT, encoding="utf-8")
    written.append("tests/fixtures/chain/second.scm")
    outputs_dir = root / "tests" / "fixtures" / "outputs"
    outputs_dir.mkdir(parents=True, exist_ok=True)
    (outputs_dir / "split.scm").write_text(SPLIT_DEPLOYMENT, encoding="utf-8")
    written.append("tests/fixtures/outputs/split.scm")

    # Module import chain fixture and its interned closure directory.
    fixtures = root / "tests" / "fixtures" / "modules"
    blob = b""
    for relpath in sorted(MODULE_FILES):
        text = MODULE_FILES[relpath]
        target = fixtures / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
        written.append(f"tests/fixtures/modules/{relpath}")
        key, content = relpath.encode("utf-8"), text.encode("utf-8")
        # Each path and content is length-prefixed, so the fingerprint
        # is injective.
        blob += b"%d:%s%d:%s" % (len(key), key, len(content), content)
    paths["modules"] = store_path("source", blob, "modules")

    (golden_dir / "paths.json").write_text(json.dumps(paths, indent=2) + "\n",
                                           encoding="utf-8")
    written.append("tests/golden/paths.json")
    return written


def main(argv) -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    if argv == ["--check"]:
        with tempfile.TemporaryDirectory() as tmp:
            stale = [rel for rel in generate(pathlib.Path(tmp))
                     if not (root / rel).is_file()
                     or not filecmp.cmp(pathlib.Path(tmp) / rel, root / rel,
                                        shallow=False)]
        for rel in stale:
            print(f"differs from its oracle: {rel}")
        return 1 if stale else 0
    if argv:
        print("usage: make_goldens.py [--check]", file=sys.stderr)
        return 2
    for rel in generate(root):
        print(rel)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
