import hashlib
from dataclasses import replace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from gexpkit import (Boolean, Integer, Keyword, ParseError, SList, String,
                     Symbol, gexp_to_sexp, hash_sexp, print_canonical, read,
                     read_all, slist, stage)
from gexpkit.gexp import _Renamer
from gexpkit.sexp import symbol_text_ok

from strategies import builder_programs, sexps


def sym(name):
    return Symbol(name)


class TestReader:
    def test_atoms(self):
        assert read("foo") == sym("foo")
        assert read("42") == Integer(42)
        assert read("-42") == Integer(-42)
        assert read("#t") == Boolean(True)
        assert read("#f") == Boolean(False)
        assert read('"hi"') == String("hi")
        assert read("#:mode") == Keyword("mode")

    def test_symbols_with_punctuation(self):
        for text in ("string-append", "null?", "set!", "+", "-", "<=>", "a.b"):
            assert read(text) == sym(text)

    def test_lists(self):
        assert read("(a (b 1) ())") == slist(
            sym("a"), slist(sym("b"), Integer(1)), SList(()))

    def test_string_escapes(self):
        assert read(r'"a\"b\\c"') == String('a"b\\c')
        assert read(r'"l1\nl2\t\r"') == String("l1\nl2\t\r")
        with pytest.raises(ParseError, match="escape"):
            read(r'"\q"')

    def test_string_escapes_read_back_from_raw_output(self):
        value = String("line1\nline2")
        assert read(print_canonical(value)) == value

    @pytest.mark.parametrize("text,head", [
        ("'x", "quote"),
        ("`x", "quasiquote"),
        (",x", "unquote"),
        (",@x", "unquote-splicing"),
        ("#~x", "gexp"),
        ("#$x", "ungexp"),
        ("#$@x", "ungexp-splicing"),
        ("#+x", "ungexp-native"),
        ("#+@x", "ungexp-native-splicing"),
    ])
    def test_reader_shorthand(self, text, head):
        assert read(text) == slist(sym(head), sym("x"))

    def test_shorthand_nests(self):
        assert read("#~(a #$b)") == slist(
            sym("gexp"), slist(sym("a"), slist(sym("ungexp"), sym("b"))))
        assert read("`(x ,x)") == slist(
            sym("quasiquote"),
            slist(sym("x"), slist(sym("unquote"), sym("x"))))

    def test_comments_skipped(self):
        assert read("; intro\n(a ; inline\n b)") == slist(sym("a"), sym("b"))

    def test_read_all(self):
        assert read_all("1 2 (3)") == [Integer(1), Integer(2),
                                       slist(Integer(3))]
        assert read_all("  ; nothing\n") == []

    def test_int64_bounds(self):
        assert read(str(2**63 - 1)) == Integer(2**63 - 1)
        assert read(str(-(2**63))) == Integer(-(2**63))
        with pytest.raises(ParseError):
            read(str(2**63))
        with pytest.raises(ParseError):
            read(str(-(2**63) - 1))

    def test_digit_leading_token_rejected(self):
        with pytest.raises(ParseError):
            read("1abc")

    def test_error_positions(self):
        with pytest.raises(ParseError) as info:
            read("(a\n  (b")
        assert info.value.line == 2
        with pytest.raises(ParseError) as info:
            read(")")
        assert (info.value.line, info.value.column) == (1, 1)

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            read('"abc')

    def test_unknown_hash_prefix(self):
        with pytest.raises(ParseError):
            read("#x41")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            read("(a) b")


# Every ParseError the reader raises: the function, the text, and the
# exact message, line and column.  Columns count characters, so a "\r"
# before "\n" takes a column and "é" takes one.
PARSE_ERRORS = [
    (read, "", "unexpected end of input", 1, 1),
    (read, "  ; only a comment\n", "unexpected end of input", 2, 1),
    (read, "'", "unexpected end of input", 1, 2),
    (read, "(a\r\n #$@", "unexpected end of input", 2, 5),
    (read_all, "(a) ,@ ; dangling", "unexpected end of input", 1, 18),
    (read, ")", "unexpected )", 1, 1),
    (read_all, "(a) )", "unexpected )", 1, 5),
    (read, "(a ' )", "unexpected )", 1, 6),
    (read, "(x (y #+@\t))", "unexpected )", 1, 11),
    (read, "(x (y) \"z\"", "unterminated list", 1, 1),
    (read, "(a\n\t(b ; (c)\n", "unterminated list", 2, 2),
    (read_all, "() (é\r\n (ü)", "unterminated list", 1, 4),
    (read, "'(a", "unterminated list", 1, 2),
    (read, '"abc', "unterminated string", 1, 1),
    (read, '(a "b\\', "unterminated string", 1, 4),
    (read, '(a "b\\"', "unterminated string", 1, 4),
    (read, '"a \\q', "unsupported string escape: \\q", 1, 6),
    (read, '"ok" "a \\x"', "trailing data after datum", 1, 6),
    (read_all, '"ok" "é \\x"', "unsupported string escape: \\x", 1, 11),
    (read, '"ab\\\ncd"', "unsupported string escape: \\\n", 2, 1),
    (read, '"ab\\\r\ncd"', "unsupported string escape: \\\r", 1, 6),
    (read, "(f #:)", "empty keyword", 1, 4),
    (read, "(a\r\n  b\r\n  #:)", "empty keyword", 3, 3),
    (read, "#x41", "unsupported # syntax: #x41", 1, 1),
    (read, "(é #()", "unsupported # syntax: #", 1, 4),
    (read, "#tt", "unsupported # syntax: #tt", 1, 1),
    (read, "9223372036854775808", "integer out of signed 64-bit range: "
     "9223372036854775808", 1, 1),
    (read, "\t-9223372036854775809",
     "integer out of signed 64-bit range: -9223372036854775809", 1, 2),
    (read_all, "a 99999999999999999999",
     "integer out of signed 64-bit range: 99999999999999999999", 1, 3),
    (read, "1abc", "invalid numeric literal: 1abc", 1, 1),
    (read, "(λ +1x)", "invalid numeric literal: +1x", 1, 4),
    (read, "-٣", "invalid numeric literal: -٣", 1, 1),
    (read, "a 99999999999999999999", "trailing data after datum", 1, 3),
    (read, "(a) )", "trailing data after datum", 1, 5),
    (read, 'x\r\n"unterminated', "trailing data after datum", 2, 1),
    (read, "(ü ; ünïcode\n  ))", "trailing data after datum", 2, 4),
]


class TestParseErrors:
    @pytest.mark.parametrize("reader, text, message, line, column",
                             PARSE_ERRORS)
    def test_message_and_position(self, reader, text, message, line, column):
        with pytest.raises(ParseError) as info:
            reader(text)
        assert str(info.value) == f"{message} (line {line}, column {column})"
        assert (info.value.line, info.value.column) == (line, column)

    @pytest.mark.parametrize("reader", [read, read_all])
    def test_deep_nesting_reads_without_recursion(self, reader):
        depth = 100_000
        value = reader("(" * depth + ")" * depth)
        if reader is read_all:
            [value] = value
        levels = 1
        while value.items:
            [value] = value.items
            levels += 1
        assert levels == depth

    @given(st.lists(st.sampled_from(
        ["(", ")", "#", "@", "\\", '"', "'", "`", ",", "~", "$", "+", "-",
         ":", "t", "f", "0", "9", "a", "é", ";", "\n", "\r", " ", "\t",
         "99999999999999999999"]), max_size=40).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_token_soup_reads_or_raises_parse_error(self, text):
        for reader in (read, read_all):
            try:
                reader(text)
            except ParseError as exc:
                assert 1 <= exc.line <= text.count("\n") + 1
                assert exc.column >= 1


class TestPrinter:
    def test_canonical_form(self):
        value = read("( a  ( b\n 1 )\t#t )")
        assert print_canonical(value) == "(a (b 1) #t)"

    def test_string_quoting(self):
        assert print_canonical(String('say "hi" \\ there')) == \
            '"say \\"hi\\" \\\\ there"'

    def test_keywords_and_booleans(self):
        assert print_canonical(slist(Keyword("k"), Boolean(False))) == "(#:k #f)"

    def test_shorthand_prints_long_form(self):
        assert print_canonical(read("#~(a #$b)")) == "(gexp (a (ungexp b)))"


class TestRoundTrip:
    @given(sexps)
    @settings(max_examples=150)
    def test_read_print_inverse(self, value):
        text = print_canonical(value)
        assert read(text) == value
        assert print_canonical(read(text)) == text


class TestHash:
    def test_hash_is_sha256_of_canonical_text(self):
        value = read("(a 1 #t)")
        expected = hashlib.sha256(b"(a 1 #t)").hexdigest()
        assert hash_sexp(value).hex == expected

    @pytest.mark.parametrize("plain,commented", [
        ("(a b)", "(a ; x\n b)"),
        ("(a b)", ";; header\n(a b) ; trailer"),
        ("1", "1 ; one"),
        ("(let ((x 2)) x)", "(let ; bind\n ((x 2)) ; pair\n x)"),
        ('"s;not-comment"', '"s;not-comment" ; real comment'),
        ("(a (b (c)))", "(a\n (b ; deep\n  (c)))"),
        ("#t", "#t;tight"),
        ("(x)", "(x;)\n)"),
        ("(+ 1 2)", "( + ; op\n 1 ; l\n 2 ; r\n )"),
        ("(q 'v)", "(q ; quote next\n 'v)"),
    ])
    def test_comment_and_whitespace_invariance(self, plain, commented):
        assert hash_sexp(read(plain)) == hash_sexp(read(commented))

    @given(sexps)
    @settings(max_examples=60)
    def test_equal_values_hash_equal(self, value):
        assert hash_sexp(value) == hash_sexp(read(print_canonical(value)))


def rebuilt(value):
    """*value* made again through the public, checking constructors."""
    if isinstance(value, SList):
        return replace(value, items=tuple(rebuilt(item) for item in value.items))
    return replace(value)


def symbol_text_ok_per_character(text):
    """The per-character predicate that `symbol_text_ok`'s regex
    replaced, kept as its oracle."""
    if not text or text.startswith("#"):
        return False
    if any(c in " \t\n\r()\";'`," for c in text):
        return False
    head = text[1:] if text[0] in "+-" else text
    # Digit-leading tokens always lex as numbers, never as symbols.
    if head and head[:1].isdigit():
        return False
    return True


# Every character below U+20000 that str.isdigit accepts but that is not
# an ASCII digit: superscripts, circled digits, the decimal digits of
# other scripts (the last one is U+1FBF9).
OTHER_DIGITS = [c for c in map(chr, range(0x80, 0x20000)) if c.isdigit()]


class TestConstruction:
    """The reader and staging build nodes without the public checks;
    the public constructors keep them."""

    @given(sexps, builder_programs)
    @settings(max_examples=80)
    def test_built_nodes_pass_the_public_checks(self, value, program):
        [read_back] = read_all(print_canonical(value))
        body = SList((Symbol("begin"), *program,
                      read("(list #$x #$@xs #+(f #~(g #$x)))")))
        g = stage(body, {"x": "s", "xs": [1, Symbol("y")],
                         "f": lambda inner: [inner, 2]})
        residual = gexp_to_sexp(g, "x86_64-linux")
        renamed = _Renamer(hash_sexp(body).hex[:4]).staged(body, {}, 0, 0, False)[0]
        for node in (read_back, renamed, residual):
            assert rebuilt(node) == node

    @pytest.mark.parametrize("make, argument", [
        (Symbol, "1a"), (Symbol, "a b"), (Symbol, "#x"), (SList, [1]),
        (Integer, 2**63), (Keyword, "")])
    def test_public_constructors_still_check(self, make, argument):
        with pytest.raises(ValueError):
            make(argument)

    @given(st.lists(st.sampled_from(
        ["a", "x-1", "+", "-", "#", "1", "9", "\u00b2", "\u0661", "\u2460",
         " ", "\t", "\n", "\r", "(", ")", '"', ";", "'", "`", ",", "\u00e9"]),
        max_size=4).map("".join))
    @settings(max_examples=400)
    def test_symbol_text_ok_agrees_with_the_per_character_predicate(self, text):
        assert symbol_text_ok(text) == symbol_text_ok_per_character(text)

    def test_symbol_text_ok_rejects_every_digit_after_an_optional_sign(self):
        assert not symbol_text_ok("\u00b2x") and not symbol_text_ok("+\u0661")
        assert len(OTHER_DIGITS) > 100
        for c in OTHER_DIGITS + list("0123456789"):
            for text in (c, c + "x", "+" + c, "-" + c + "a", "++" + c, "a" + c):
                assert symbol_text_ok(text) == symbol_text_ok_per_character(text)
