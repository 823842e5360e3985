"""Alphabets and words.

Words are plain tuples of symbol ids (small ints).  All hot loops in the
package rely on that representation, so nothing here wraps words in a
class.  The Alphabet owns the name <-> id mapping and the concrete
syntax: words are written as whitespace-separated letter names and the
single token "." denotes the empty word.

The line-based input files (systems, rule lists, pregroups, groups and
maps) share one directive reader, kept here: each format gives its
table of line shapes, compiled once.
"""

from __future__ import annotations

import sys
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .errors import AlphabetError, FormatError

Word = tuple  # tuple[int, ...]; alias kept for signatures

EMPTY: Word = ()


def _is_letter_name(name: str) -> bool:
    """Non-empty, without whitespace or "#", which starts a comment in
    every file format, and not ".", the empty word, nor "->" or "<->",
    the arrows of a rule line: a name that a written file can hold."""
    return (bool(name) and name not in (".", "->", "<->") and "#" not in name
            and not any(c.isspace() for c in name))


class Alphabet:
    """Ordered set of letter names; ids are 0..n-1 in declaration order."""

    __slots__ = ("names", "index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise AlphabetError("alphabet must have at least one letter")
        index = {}
        for i, name in enumerate(names):
            if not _is_letter_name(name):
                raise AlphabetError(f"bad letter name {name!r}")
            if name in index:
                raise AlphabetError(f"duplicate letter name {name!r}")
            index[name] = i
        self.names = names
        self.index = index

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.index

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Alphabet({list(self.names)!r})"

    def id(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise AlphabetError(f"unknown letter {name!r}") from None

    def name(self, sym: int) -> str:
        if 0 <= sym < len(self.names):
            return self.names[sym]
        raise AlphabetError(f"symbol id {sym} out of range")

    def word(self, text: str) -> Word:
        """Parse a word.  "." is the empty word; tokens are letter names.

        A single token that is not itself a letter name is re-read one
        character at a time when every character is a letter, so short
        words over one-character alphabets can be written compactly.
        """
        text = text.strip()
        if text == "." or text == "":
            return EMPTY
        out = []
        for token in text.split():
            if token in self.index:
                out.append(self.index[token])
            elif all(c in self.index for c in token):
                out.extend(self.index[c] for c in token)
            elif token == ".":
                raise AlphabetError('"." must stand alone')
            else:
                raise AlphabetError(f"unknown letter {token!r}")
        return tuple(out)

    def format(self, word: Sequence[int]) -> str:
        if not word:
            return "."
        return " ".join(self.names[s] for s in word)

    def extend(self, names: Iterable[str]) -> "Alphabet":
        return Alphabet(self.names + tuple(names))

    def words_upto(self, max_len: int) -> Iterator[Word]:
        """All words of length <= max_len in length-lex order."""
        n = len(self.names)
        layer = [EMPTY]
        yield EMPTY
        for _ in range(max_len):
            nxt = []
            for w in layer:
                for s in range(n):
                    v = w + (s,)
                    nxt.append(v)
                    yield v
            layer = nxt


def _directive_shapes(*spelled: str) -> Dict[str, tuple]:
    """Compile the line shapes of one directive file format, by head.

    After the head, either "<x>..." stands alone for one name or more,
    "..." alone for anything at all, or each token is "<x>", one name,
    or else a literal token.  A line's names are the tokens after the
    head, less the literals.  A compiled shape is the tuple (spelling,
    least and most tokens, getter of the literals or None, what it must
    get, getter of the names).
    """
    shapes = {}
    for shape in spelled:
        tokens = shape.split()
        if len(tokens) == 2 and tokens[1].endswith("..."):
            least = 1 if tokens[1] == "..." else 2
            shapes[tokens[0]] = (shape, least, sys.maxsize, None, None,
                                 itemgetter(slice(1, None)))
            continue
        slots = [i for i, t in enumerate(tokens) if i and t.startswith("<")]
        fixed = [i for i, t in enumerate(tokens) if i and not t.startswith("<")]
        literals = itemgetter(*fixed) if fixed else None
        names = (itemgetter(*slots) if len(slots) > 1
                 else itemgetter(slice(slots[0], slots[0] + 1)))
        shapes[tokens[0]] = (shape, len(tokens), len(tokens), literals,
                             literals and literals(tokens), names)
    return shapes


def _read_directives(text: str, shapes: Dict[str, tuple]
                     ) -> Dict[str, List[Tuple[int, Sequence[str]]]]:
    """The (line number, names) of every line of a directive file, grouped
    by head; '#' starts a comment.  A line whose head has no shape, or
    that does not fit its shape, is a FormatError naming the line."""
    lines: Dict[str, list] = {head: [] for head in shapes}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        try:
            spelled, least, most, literals, expected, names = shapes[tokens[0]]
        except KeyError:
            raise FormatError(f"unknown directive {tokens[0]!r}", line_no) from None
        if not least <= len(tokens) <= most or (
                literals and literals(tokens) != expected):
            raise FormatError(f"expected: {spelled}", line_no)
        lines[tokens[0]].append((line_no, names(tokens)))
    return lines


def _single_directive(lines, head: str) -> Sequence[str]:
    """The names of the one line with this head; none or two is an error."""
    found = lines[head]
    if not found:
        raise FormatError(f"missing {head} line")
    if len(found) > 1:
        raise FormatError(f"duplicate {head} line", found[1][0])
    return found[0][1]


def _element_letters(lines) -> Sequence[str]:
    """The names of the one elements line, which become letters: a name
    that cannot be a letter is a FormatError naming the line."""
    elements = _single_directive(lines, "elements")
    for name in elements:
        if not _is_letter_name(name):
            raise FormatError(f"element {name!r} cannot be a letter name",
                              lines["elements"][0][0])
    return elements


def _directive_table(lines, what: str, symmetric: bool = False) -> dict:
    """{key: value} of lines whose last name is a value and the names
    before it its key (one name stands for itself); symmetric also maps
    each value back to its key.  A key given a second value is a
    FormatError naming the line."""
    table: dict = {}
    for line_no, names in lines:
        key = names[0] if len(names) == 2 else names[:-1]
        value = names[-1]
        if table.setdefault(key, value) != value:
            raise FormatError(f"conflicting {what} for {key!r}", line_no)
        if symmetric and table.setdefault(value, key) != key:
            raise FormatError(f"conflicting {what} for {value!r}", line_no)
    return table


def lenlex_key(word: Word):
    """Sort key for the length-lexicographic order used everywhere."""
    return (len(word), word)
