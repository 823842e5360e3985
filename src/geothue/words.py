"""Alphabets and words.

Words are plain tuples of symbol ids (small ints).  All hot loops in the
package rely on that representation, so nothing here wraps words in a
class.  The Alphabet owns the name <-> id mapping and the concrete
syntax: words are written as whitespace-separated letter names and the
single token "." denotes the empty word.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

from .errors import AlphabetError

Word = tuple  # tuple[int, ...]; alias kept for signatures

EMPTY: Word = ()


class Alphabet:
    """Ordered set of letter names; ids are 0..n-1 in declaration order."""

    __slots__ = ("names", "index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise AlphabetError("alphabet must have at least one letter")
        index = {}
        for i, name in enumerate(names):
            if not name or name == "." or any(c.isspace() for c in name):
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
        try:
            return self.names[sym]
        except IndexError:
            raise AlphabetError(f"symbol id {sym} out of range") from None

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


def _directive_lines(text: str) -> Iterator[Tuple[int, List[str]]]:
    """(line number, tokens) of every non-blank line of a directive file;
    '#' starts a comment.  Shared by the system, pregroup, group and map
    file readers."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield line_no, tokens


def lenlex_key(word: Word):
    """Sort key for the length-lexicographic order used everywhere."""
    return (len(word), word)
