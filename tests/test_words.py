import pytest
from hypothesis import given, strategies as st

from geothue.errors import AlphabetError, FormatError
from geothue.words import (EMPTY, Alphabet, _directive_shapes,
                           _directive_table, _read_directives,
                           _single_directive, lenlex_key)


def test_alphabet_basics():
    ab = Alphabet(["a", "b", "c"])
    assert len(ab) == 3
    assert ab.id("b") == 1
    assert ab.name(2) == "c"
    assert "a" in ab and "z" not in ab


@pytest.mark.parametrize("sym", [-1, 3])
def test_a_symbol_id_outside_the_alphabet_has_no_name(sym):
    with pytest.raises(AlphabetError, match="out of range"):
        Alphabet(["a", "b", "c"]).name(sym)


def test_duplicate_names_rejected():
    with pytest.raises(AlphabetError):
        Alphabet(["a", "a"])


@pytest.mark.parametrize("name", ["", ".", "a b", "a#", "#", "->", "<->"])
def test_names_that_no_file_can_hold_are_rejected(name):
    with pytest.raises(AlphabetError, match="bad letter name"):
        Alphabet(["x", name])


def test_empty_alphabet_rejected():
    with pytest.raises(AlphabetError):
        Alphabet([])


def test_word_parsing_tokens_and_compact():
    ab = Alphabet(["a", "b"])
    assert ab.word("a b a") == (0, 1, 0)
    assert ab.word("aba") == (0, 1, 0)
    assert ab.word(".") == EMPTY
    assert ab.word("") == EMPTY
    with pytest.raises(AlphabetError, match='"." must stand alone'):
        ab.word("a .")


def test_word_parsing_multichar_names():
    ab = Alphabet(["12", "13", "t"])
    assert ab.word("12 t 13") == (0, 2, 1)
    with pytest.raises(AlphabetError):
        ab.word("14")


def test_format_roundtrip():
    ab = Alphabet(["a", "b"])
    assert ab.format((0, 1, 1)) == "a b b"
    assert ab.format(EMPTY) == "."
    assert ab.word(ab.format((1, 0))) == (1, 0)


def test_words_upto_is_lenlex_sorted_and_complete():
    ab = Alphabet(["a", "b"])
    ws = list(ab.words_upto(3))
    assert len(ws) == 1 + 2 + 4 + 8
    assert ws == sorted(ws, key=lenlex_key)
    assert len(set(ws)) == len(ws)


def test_extend_keeps_prefix_ids():
    ab = Alphabet(["a", "b"])
    bigger = ab.extend(["c"])
    assert bigger.id("a") == ab.id("a")
    assert bigger.id("c") == 2


@given(st.lists(st.integers(0, 2), max_size=8),
       st.lists(st.integers(0, 2), max_size=8))
def test_lenlex_shorter_always_smaller(u, v):
    u, v = tuple(u), tuple(v)
    if len(u) < len(v):
        assert lenlex_key(u) < lenlex_key(v)
    elif u == v:
        assert lenlex_key(u) == lenlex_key(v)


SHAPES = _directive_shapes("head ...", "names <x>...", "one <x>",
                           "pair <x> = <y>")


def test_directive_reader_groups_the_names_by_head():
    text = "head any thing\n\none a  # note\npair a = b\nnames a b\npair c = b\n"
    lines = _read_directives(text, SHAPES)
    assert lines == {"head": [(1, ["any", "thing"])], "names": [(5, ["a", "b"])],
                     "one": [(3, ["a"])], "pair": [(4, ("a", "b")), (6, ("c", "b"))]}
    assert _single_directive(lines, "one") == ["a"]
    assert _directive_table(lines["pair"], "pair") == {"a": "b", "c": "b"}
    with pytest.raises(FormatError, match="line 6: conflicting pair for 'b'"):
        _directive_table(lines["pair"], "pair", symmetric=True)


@pytest.mark.parametrize("line, message", [
    ("other a", "unknown directive 'other'"),
    ("one", "expected: one <x>"),
    ("one a b", "expected: one <x>"),
    ("pair a - b", "expected: pair <x> = <y>"),
    ("names", "expected: names <x>..."),
])
def test_directive_reader_names_a_misshapen_line(line, message):
    with pytest.raises(FormatError) as info:
        _read_directives("head\n" + line + "\n", SHAPES)
    assert str(info.value) == f"line 2: {message}"


def test_single_directive_refuses_none_or_two():
    with pytest.raises(FormatError, match="^missing one line$"):
        _single_directive(_read_directives("head\n", SHAPES), "one")
    with pytest.raises(FormatError, match="^line 3: duplicate one line$"):
        _single_directive(_read_directives("one a\nhead\none a\n", SHAPES), "one")
