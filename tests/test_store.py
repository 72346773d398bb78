import hashlib
import os
import random
import stat
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import gexpkit.store
from gexpkit import (Boolean, Derivation, Package, PlainFile, SList, Store,
                     StoreError, StorePath, String, Symbol, build,
                     derivation_from_sexp, derivation_text,
                     find_store_references, gexp_to_derivation, output_path,
                     parse_store_path, print_canonical, read, read_derivation,
                     slist, stage, write_derivation)
from gexpkit.store import (NIX32_ALPHABET, _canonical, _parse_derivation,
                           base32_hash)

from conftest import IMAGE_BYTES


def golden_example(store):
    """The derivation pinned by the oracle goldens."""
    img = PlainFile("image.png", IMAGE_BYTES)
    g = stage(read("""
        (begin
          (mkdir #$output)
          (copy-file #$img (string-append #$output "/image.png")))"""),
              {"img": img})
    return gexp_to_derivation(store, "golden-example", g)


def five_bit_base32(data: bytes) -> str:
    """The reference encoding: five-bit groups read byte by byte from the
    highest offset down."""
    out_len = (len(data) * 8 + 4) // 5
    chars = []
    for i in range(out_len - 1, -1, -1):
        bit = i * 5
        byte = bit // 8
        off = bit % 8
        value = data[byte] >> off
        if byte + 1 < len(data):
            value |= data[byte + 1] << (8 - off)
        chars.append(NIX32_ALPHABET[value & 0x1F])
    return "".join(chars)


class TestBase32:
    def test_alphabet_shape(self):
        assert len(NIX32_ALPHABET) == 32
        assert len(set(NIX32_ALPHABET)) == 32
        for missing in "eout":
            assert missing not in NIX32_ALPHABET

    def test_zero_bytes(self):
        assert base32_hash(b"\x00" * 20) == "0" * 32

    def test_length(self):
        assert len(base32_hash(os.urandom(20))) == 32

    @pytest.mark.parametrize("length", [1, 5, 19, 20, 21, 32])
    def test_matches_the_five_bit_loop(self, length):
        rng = random.Random(length)
        inputs = [b"\x00" * length, b"\xff" * length]
        inputs += [rng.randbytes(length) for _ in range(500)]
        for data in inputs:
            assert base32_hash(data) == five_bit_base32(data), data.hex()

    def test_empty_input(self):
        assert base32_hash(b"") == five_bit_base32(b"") == ""


class TestStorePath:
    def test_render_and_parse(self):
        path = StorePath("./store", "0" * 32, "thing-1.0")
        assert str(path) == "./store/" + "0" * 32 + "-thing-1.0"
        assert parse_store_path(str(path)) == path

    def test_prefix_kept_verbatim(self):
        assert Store("./store").prefix == "./store"

    @pytest.mark.parametrize("prefix", ["/", "", "//"])
    def test_empty_prefix_rejected_naming_it(self, prefix, monkeypatch):
        def no_mkdir(*args, **kwargs):
            raise AssertionError("mkdir before the prefix was checked")

        monkeypatch.setattr(gexpkit.store.Path, "mkdir", no_mkdir)
        with pytest.raises(StoreError) as info:
            Store(prefix)
        assert str(info.value) == f"invalid store prefix: {prefix!r}"

    def test_parse_rejects_junk(self):
        for text in ("no-slash", "./store/short-x", "./store/" + "0" * 32,
                     "./store/" + "e" * 32 + "-name"):
            with pytest.raises(StoreError):
                parse_store_path(text)

    @pytest.mark.parametrize("hash32", [
        "0" * 31, "0" * 33, "A" * 32, "0" * 31 + "Z", "e" * 32,
        "0" * 31 + "o", "t" + "0" * 31, "0" * 16 + "u" + "0" * 15,
        "0" * 31 + "-", "0" * 32 + "\n", "",
    ])
    def test_bad_hash_rejected(self, hash32):
        with pytest.raises(StoreError) as info:
            StorePath("./store", hash32, "x")
        assert str(info.value) == f"invalid store hash: {hash32!r}"

    def test_name_validation(self):
        with pytest.raises(StoreError):
            StorePath("./store", "0" * 32, "bad name")


class TestInterning:
    def test_golden_greeting(self, store, golden_paths):
        path = store.intern_file(b"hello\n", "greeting")
        assert str(path) == golden_paths["greeting"]
        assert path.fs.read_bytes() == b"hello\n"

    def test_idempotent_single_write(self, store):
        first = store.intern_file(b"data", "d")
        assert store.writes == 1
        second = store.intern_file(b"data", "d")
        assert second == first
        assert store.writes == 1

    def test_content_and_name_address(self, store):
        a = store.intern_file(b"data", "d")
        b = store.intern_file(b"data2", "d")
        c = store.intern_file(b"data", "e")
        assert len({str(a), str(b), str(c)}) == 3

    def test_interned_file_read_only(self, store):
        path = store.intern_file(b"data", "d")
        assert not os.stat(path.fs).st_mode & stat.S_IWUSR

    def test_dir_entry_order_irrelevant(self, store):
        entries = {"a/x.scm": b"1", "b/y.scm": b"2"}
        reversed_entries = dict(reversed(list(entries.items())))
        assert store.intern_dir(entries, "modules") == \
            store.intern_dir(reversed_entries, "modules")
        assert store.writes == 1

    def test_dir_rejects_escaping_paths(self, store):
        with pytest.raises(StoreError):
            store.intern_dir({"../evil": b""}, "modules")

    def test_concurrent_intern_same_content(self, store):
        with ThreadPoolExecutor(max_workers=8) as pool:
            paths = list(pool.map(
                lambda _: str(store.intern_file(b"race", "r")), range(16)))
        assert len(set(paths)) == 1
        assert store.writes == 1

    def test_concurrent_intern_distinct_content(self, store):
        with ThreadPoolExecutor(max_workers=8) as pool:
            paths = list(pool.map(
                lambda i: str(store.intern_file(b"%d" % i, "r")), range(8)))
        assert len(set(paths)) == 8


class TestDerivations:
    def test_golden_derivation(self, store, golden_paths, golden_drv_text):
        d = golden_example(store)
        drv_path = write_derivation(store, d)
        assert str(d.builder) == golden_paths["builder"]
        assert str(d.outputs["out"]) == golden_paths["output"]
        assert str(d.input_sources[0]) == golden_paths["source"]
        assert str(drv_path) == golden_paths["drv"]
        assert drv_path.fs.read_text() == golden_drv_text

    def test_serialization_round_trip(self, store):
        d = golden_example(store)
        parsed = derivation_from_sexp(read(derivation_text(d)))
        assert derivation_text(parsed) == derivation_text(d)
        assert parsed.outputs == d.outputs
        assert parsed.target is None

    def test_read_derivation(self, store):
        d = golden_example(store)
        path = write_derivation(store, d)
        assert derivation_text(read_derivation(store, path)) == \
            derivation_text(d)

    def test_needs_an_output(self, store):
        builder = store.intern_file(b"(list)", "b")
        with pytest.raises(StoreError, match="output"):
            Derivation(name="x", system="x86_64-linux", target=None,
                       builder=builder)

    def test_dangling_builder_rejected(self, store):
        ghost = StorePath(store.prefix, "0" * 32, "ghost")
        d = Derivation(name="x", system="x86_64-linux", target=None,
                       builder=ghost, outputs={"out": ghost})
        with pytest.raises(StoreError, match="dangling"):
            write_derivation(store, d)

    def test_unlisted_reference_rejected(self, store):
        secret = store.intern_file(b"secret", "secret")
        builder = store.intern_file(
            f'(read-file "{secret}")'.encode(), "peek-builder")
        d = Derivation(name="peek", system="x86_64-linux", target=None,
                       builder=builder, outputs={"out": ""})
        d = replace(d, outputs={"out": output_path(d, "out")})
        with pytest.raises(StoreError, match="unlisted"):
            write_derivation(store, d)

    def test_reference_scan(self, store):
        d = golden_example(store)
        refs = find_store_references(d.builder.fs.read_bytes().decode(),
                                     store.prefix)
        assert refs == [str(d.input_sources[0])]


def reference_sexp(d: Derivation):
    """The derivation as a datum, field by field, in the canonical
    order; printing it canonically gives the reference ``.drv`` text."""
    def s(value) -> String:
        return String(str(value))

    drvs = tuple(
        SList((s(path),) + tuple(s(n) for n in sorted(names)))
        for path, names in sorted(d.input_drvs, key=lambda e: str(e[0])))
    sources = tuple(s(p) for p in sorted(d.input_sources, key=str))
    outs = tuple(slist(s(k), s(v)) for k, v in sorted(d.outputs.items()))
    env = tuple(slist(s(k), s(v)) for k, v in sorted(d.env.items()))
    return slist(
        Symbol("derivation"),
        slist(Symbol("name"), s(d.name)),
        slist(Symbol("system"), s(d.system)),
        slist(Symbol("target"),
              Boolean(False) if d.target is None else s(d.target)),
        slist(Symbol("builder"), s(d.builder)),
        SList((Symbol("input-drvs"),) + drvs),
        SList((Symbol("input-sources"),) + sources),
        SList((Symbol("outputs"),) + outs),
        SList((Symbol("env"),) + env))


def reference_output_path(d: Derivation, out_name: str) -> StorePath:
    blanked = replace(
        d, outputs={k: "" for k in d.outputs},
        env={k: ("" if k in d.outputs else v) for k, v in d.env.items()})
    text = print_canonical(reference_sexp(blanked))
    content_hex = hashlib.sha256(text.encode("utf-8")).hexdigest()
    hash32 = base32_hash(hashlib.sha256(
        f"output:{out_name}:sha256:{content_hex}:{d.name}".encode("utf-8")
    ).digest()[:20])
    path_name = d.name if out_name == "out" else f"{d.name}-{out_name}"
    return StorePath(d.builder.prefix, hash32, path_name)


# Free text with the characters the printer must escape or keep raw.
_awkward = st.text(alphabet=st.one_of(
    st.sampled_from('"\\\n\t\r ();#:é☃𝄞'),
    st.characters(blacklist_categories=("Cs",))), max_size=8)
_names = st.text(alphabet="abcxyz019+._=-", min_size=1, max_size=8)
_systems = st.sampled_from(["x86_64-linux", "i686-linux", "aarch64-linux"])
_store_paths = st.builds(
    StorePath,
    _awkward.map(lambda t: "./st" + t.rstrip("/")),
    st.text(alphabet=NIX32_ALPHABET, min_size=32, max_size=32),
    _names)


@st.composite
def derivations(draw):
    # output names other than "out" end up in store names
    outputs = draw(st.dictionaries(st.just("out") | _names, _store_paths,
                                   min_size=1, max_size=3))
    env = draw(st.dictionaries(_awkward, _awkward, max_size=3))
    env.update({k: str(v) for k, v in outputs.items()
                if draw(st.booleans())})
    return Derivation(
        name=draw(_names), system=draw(_systems),
        target=draw(st.none() | _systems), builder=draw(_store_paths),
        input_drvs=tuple(draw(st.lists(st.tuples(
            _store_paths, st.lists(_awkward, min_size=1, max_size=3)
            .map(tuple)), max_size=3))),
        input_sources=tuple(draw(st.lists(_store_paths, max_size=3))),
        outputs=outputs, env=env)


class TestDerivationText:
    @settings(max_examples=100, deadline=None)
    @given(derivations())
    def test_text_is_canonical_and_reads_back(self, d):
        text = derivation_text(d)
        assert text == print_canonical(reference_sexp(d))
        assert print_canonical(read(text)) == text
        parsed = derivation_from_sexp(read(text))
        canonical = _canonical(d)
        assert parsed == canonical
        assert list(parsed.outputs.items()) == list(canonical.outputs.items())
        assert list(parsed.env.items()) == list(canonical.env.items())

    @settings(max_examples=100, deadline=None)
    @given(derivations())
    def test_output_path_ignores_filled_outputs(self, d):
        blank = replace(
            d, outputs={k: "" for k in d.outputs},
            env={k: ("" if k in d.outputs else v) for k, v in d.env.items()})
        for out in d.outputs:
            assert output_path(d, out) == output_path(blank, out) \
                == reference_output_path(d, out)


def chain_gexp(length):
    """A gexp embedding the last of *length* packages, each of which
    embeds the one before."""
    pkg = Package("p0", "1", stage(read("(mkdir #$output)")))
    for i in range(1, length):
        pkg = Package(f"p{i}", "1", stage(
            read("(begin (mkdir #$output) (list #$dep))"), {"dep": pkg}))
    return stage(read("(begin (mkdir #$output) (list #$dep))"), {"dep": pkg})


class TestDerivationMemo:
    @pytest.fixture
    def parsed(self, monkeypatch):
        """The texts store.py hands to the reader, in call order."""
        texts = []
        real_read = gexpkit.store.read

        def counting_read(text):
            texts.append(text)
            return real_read(text)

        monkeypatch.setattr(gexpkit.store, "read", counting_read)
        return texts

    def test_each_drv_parsed_at_most_once_per_store(self, store, parsed):
        d = gexp_to_derivation(store, "top", chain_gexp(20))
        log = []
        build(store, d, log=log)
        assert [action for action, _ in log] == ["build"] * 21
        assert parsed == []

        fresh = Store("./store")
        log = []
        build(fresh, d, log=log)
        assert [action for action, _ in log] == ["cached"] * 21
        assert parsed
        assert len(parsed) == len(set(parsed))

    def test_written_entry_is_what_the_file_parses_to(self, store):
        d = gexp_to_derivation(store, "top", chain_gexp(20))
        golden_example(store)
        entries = list(store.derivations.items())
        assert len(entries) == 22
        for path, (data, entry) in entries:
            assert data == parse_store_path(path).fs.read_bytes()
            parsed = _parse_derivation(data, "entry")
            assert entry == parsed
            assert list(entry.outputs.items()) == list(parsed.outputs.items())
            assert list(entry.env.items()) == list(parsed.env.items())
        assert store.derivations[str(write_derivation(store, d))] == \
            (derivation_text(d).encode(), d)

    def test_input_written_by_this_store_is_not_read_back(self, store,
                                                          monkeypatch):
        dep = golden_example(store)
        dep_path = write_derivation(store, dep)
        builder = store.intern_file(b"(list)", "x-builder")
        d = Derivation(name="x", system="x86_64-linux", target=None,
                       builder=builder, input_drvs=((dep_path, ("out",)),),
                       outputs={"out": ""})
        d = replace(d, outputs={"out": output_path(d, "out")})
        reads = []
        real_read = gexpkit.store.read_derivation
        monkeypatch.setattr(gexpkit.store, "read_derivation",
                            lambda *args: reads.append(args) or real_read(*args))
        write_derivation(store, d)
        assert reads == []

    def test_rewrite_checks_again(self, store):
        d = golden_example(store)
        write_derivation(store, d)
        d.builder.fs.unlink()
        with pytest.raises(StoreError, match="dangling reference"):
            write_derivation(store, d)

    def test_rewritten_drv_is_parsed_afresh(self, store):
        d = golden_example(store)
        path = write_derivation(store, d)
        assert derivation_text(read_derivation(store, path)) == \
            derivation_text(d)
        changed = replace(d, env={**d.env, "TZ": "UTC"})
        os.chmod(path.fs, 0o644)
        path.fs.write_text(derivation_text(changed))
        assert derivation_text(read_derivation(store, path)) == \
            derivation_text(changed)

    def test_text_read_but_not_written_is_still_validated(self, store):
        ghost = StorePath(store.prefix, "0" * 32, "ghost")
        d = Derivation(name="x", system="x86_64-linux", target=None,
                       builder=ghost, outputs={"out": ghost})
        path = store._intern_bytes("text", derivation_text(d).encode(),
                                   "x.drv")
        loaded = read_derivation(store, path)
        with pytest.raises(StoreError, match="dangling reference"):
            write_derivation(store, loaded)

    def test_missing_drv(self, store):
        path = StorePath(store.prefix, "0" * 32, "absent.drv")
        with pytest.raises(StoreError, match="no such derivation"):
            read_derivation(store, path)

    @pytest.mark.parametrize("data", [
        b'(derivation "\xff")', b"(derivation", b"(not-a-derivation)",
    ], ids=["not-utf8", "syntax-error", "not-a-derivation"])
    def test_unreadable_drv_is_a_store_error_naming_it(self, store, data):
        path = store._intern_bytes("text", data, "bad.drv")
        with pytest.raises(StoreError) as info:
            read_derivation(store, path)
        assert str(path) in str(info.value)


class TestOutputPaths:
    def test_named_output_path_naming(self, store):
        builder = store.intern_file(b"(list)", "b")
        d = Derivation(name="multi", system="x86_64-linux", target=None,
                       builder=builder, outputs={"out": "", "lib": ""})
        assert output_path(d, "out").name == "multi"
        assert output_path(d, "lib").name == "multi-lib"

    def test_unknown_output(self, store):
        d = golden_example(store)
        with pytest.raises(StoreError):
            output_path(d, "doc")

    def test_output_path_ignores_current_output_values(self, store):
        # the formula blanks output fields, so it cannot depend on them
        d = golden_example(store)
        blanked = replace(d, outputs={"out": ""},
                          env={k: "" for k in d.env})
        assert output_path(blanked, "out") == output_path(d, "out")
        assert output_path(blanked, "out") == d.outputs["out"]

    @pytest.mark.parametrize("mutate", [
        lambda store, d: replace(d, system="i686-linux"),
        lambda store, d: replace(d, target="i686-linux"),
        lambda store, d: replace(d, name="other-example"),
        lambda store, d: replace(
            d, builder=store.intern_file(b"(list 1)", "other-builder")),
        lambda store, d: replace(d, env={**d.env, "TZ": "UTC"}),
        lambda store, d: replace(
            d, input_sources=d.input_sources + (
                store.intern_file(b"extra", "extra"),)),
    ], ids=["system", "target", "name", "builder", "env", "source"])
    def test_any_field_change_moves_output_path(self, store, mutate):
        d = golden_example(store)
        variant = mutate(store, d)
        assert output_path(variant, "out") != output_path(d, "out")
