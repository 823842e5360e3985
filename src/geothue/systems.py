"""Rules, rewrite systems, and their file format.

A system splits into reducing rules (|lhs| > |rhs|) and preserving rules
(|lhs| = |rhs|).  Preserving rules are symmetric: the constructor inserts
the mirror of a preserving rule right after it when the system lacks
that mirror so far, and drops a rule it already has, unless the system
is explicitly built with symmetrize=False (used only for the
direction-only amalgam variant; such systems record sp_symmetric=False).
A symmetric system so holds each preserving rule followed by its mirror
(a new rule's mirror is never held already, or the rule would have come
right after it), and format_system writes every other one.  Every entry
point that takes a word reads it through RewriteSystem._word.

An optional inverse pairing turns the system into a group system; the
constructor then insists that x x^-1 -> 1 and x^-1 x -> 1 are present
for every letter.

The structures that the searches compile from the rules are lazy
attributes of the system, each built on first use and kept with it:
the step sets of the bounded closures (_reducing_steps and _all_steps
forwards, _undirected_steps each preserving rule both ways, whether the
system is symmetric or not), the automaton of the reducing left-hand
sides behind reduce_lr (_automaton), and the left-hand sides by their
factors behind the critical pairs, rule by rule (_rule_overlaps) and by
distinct lhs (_group_overlaps).  with_rules builds a system that
compiles its own; it hands on only the preserving classes found so far.

The system and rule-list files are read by the directive reader of
``words``; their grammar is under "File formats" in the README.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import (Dict, FrozenSet, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .errors import AlphabetError, FormatError, StructureError
from .words import (EMPTY, Alphabet, Word, _directive_shapes,
                    _directive_table, _read_directives)


class RuleKind(enum.Enum):
    REDUCING = "reducing"
    PRESERVING = "preserving"


@dataclass(frozen=True, slots=True)
class Rule:
    lhs: Word
    rhs: Word
    kind: RuleKind

    def __post_init__(self):
        if not self.lhs:
            raise StructureError("rule with empty lhs")
        if self.kind is RuleKind.REDUCING:
            if len(self.lhs) <= len(self.rhs):
                raise StructureError(
                    f"reducing rule needs |lhs| > |rhs|: {self.lhs} -> {self.rhs}")
        else:
            if len(self.lhs) != len(self.rhs):
                raise StructureError(
                    f"preserving rule needs |lhs| = |rhs|: {self.lhs} <-> {self.rhs}")
            if self.lhs == self.rhs:
                raise StructureError("preserving rule with lhs = rhs")

    def mirror(self) -> "Rule":
        if self.kind is not RuleKind.PRESERVING:
            raise StructureError("only preserving rules have mirrors")
        return Rule(self.rhs, self.lhs, RuleKind.PRESERVING)


def reducing(lhs: Sequence[int], rhs: Sequence[int]) -> Rule:
    return Rule(tuple(lhs), tuple(rhs), RuleKind.REDUCING)


def preserving(lhs: Sequence[int], rhs: Sequence[int]) -> Rule:
    return Rule(tuple(lhs), tuple(rhs), RuleKind.PRESERVING)


class RewriteSystem:
    def __init__(
        self,
        alphabet: Alphabet,
        rules: Iterable[Rule],
        inverse_pairing: Optional[Dict[int, int]] = None,
        symmetrize: bool = True,
    ):
        self.alphabet = alphabet
        n = len(alphabet)
        self._symbols = frozenset(range(n))
        red = []
        pres = []
        # (lhs, rhs) names a rule: its kind follows from the lengths
        seen = set()

        def add(rule: Rule):
            key = (rule.lhs, rule.rhs)
            if key in seen:
                return
            if not (self._symbols.issuperset(rule.lhs)
                    and self._symbols.issuperset(rule.rhs)):
                for s in rule.lhs + rule.rhs:
                    if not 0 <= s < n:
                        raise StructureError(f"rule symbol {s} outside alphabet")
            seen.add(key)
            if rule.kind is RuleKind.REDUCING:
                red.append(rule)
            else:
                pres.append(rule)

        for rule in rules:
            add(rule)
            if (rule.kind is RuleKind.PRESERVING and symmetrize
                    and (rule.rhs, rule.lhs) not in seen):
                add(rule.mirror())

        self.reducing = tuple(red)
        self.preserving = tuple(pres)
        self.sp_symmetric = symmetrize
        if symmetrize:
            assert all((r.rhs, r.lhs) in seen for r in self.preserving)

        if inverse_pairing is not None:
            pairing = dict(inverse_pairing)
            for x, y in pairing.items():
                if pairing.get(y) != x:
                    raise StructureError("inverse pairing is not an involution")
                if not (0 <= x < n and 0 <= y < n):
                    raise StructureError("inverse pairing outside alphabet")
            have = {r.lhs for r in self.reducing if r.rhs == EMPTY}
            for x, y in pairing.items():
                if (x, y) not in have:
                    raise StructureError(
                        f"group system missing rule {alphabet.name(x)} {alphabet.name(y)} -> .")
        self.inverse_pairing = dict(inverse_pairing) if inverse_pairing is not None else None

    @property
    def rules(self) -> Tuple[Rule, ...]:
        return self.reducing + self.preserving

    @property
    def is_group_system(self) -> bool:
        return self.inverse_pairing is not None

    @cached_property
    def _reducing_steps(self) -> "_StepSet":
        """The forward reducing steps, behind the reducing-descendant
        closures."""
        return _step_set((r.lhs, r.rhs) for r in self.reducing)

    @cached_property
    def _all_steps(self) -> "_StepSet":
        """The forward steps of every rule, behind descendant_closure."""
        return _step_set((r.lhs, r.rhs) for r in self.rules)

    @cached_property
    def _undirected_steps(self) -> "_StepSet":
        """The preserving steps taken both ways, behind the preserving
        classes.  On a symmetric system each mirror follows its rule, so
        the backward steps repeat forward ones and the table is that of
        the forward steps, in rule order."""
        return _step_set(step for r in self.preserving
                         for step in ((r.lhs, r.rhs), (r.rhs, r.lhs)))

    @cached_property
    def _automaton(self) -> "_Automaton":
        """The matcher of the reducing left-hand sides behind reduce_lr."""
        return _lhs_automaton(self.reducing, len(self.alphabet))

    @cached_property
    def _rule_overlaps(self) -> "_OverlapKeys":
        """The rules by the factors of their left-hand sides, in rule
        order, behind the stream of critical pairs."""
        return _overlap_keys(self.rules)

    @cached_property
    def _group_overlaps(self) -> "_OverlapKeys":
        """An _LhsGroup per distinct left-hand side, in the order of its
        first rule, by the factors of the lhs, behind the grouped walk of
        check_geodesically_perfect."""
        rules_of: Dict[Word, List[Rule]] = {}
        for rule in self.rules:
            rules_of.setdefault(rule.lhs, []).append(rule)
        keys = _overlap_keys([_LhsGroup(lhs, tuple(rules))
                              for lhs, rules in rules_of.items()])
        # kept with the system, so tuples, which hold no spare room; the
        # keys of a phase's new rules, built once and dropped, skip this
        for table in keys[:4]:
            for key, items in table.items():
                table[key] = tuple(items)
        return keys

    @cached_property
    def _sp_memo(self) -> Tuple[Dict[Word, FrozenSet[Word]], Dict[Word, int]]:
        """The preserving classes found so far, each member mapped to its
        class, and per word the largest budget its class overflowed;
        filled by confluence._sp_class and handed on by with_rules."""
        return {}, {}

    def _word(self, word: Sequence[int]) -> Word:
        """word as a tuple; AlphabetError if it leaves the alphabet."""
        word = tuple(word)
        if not self._symbols.issuperset(word):
            raise AlphabetError("word uses symbols outside the system alphabet")
        return word

    def with_rules(self, extra: Iterable[Rule]) -> "RewriteSystem":
        new = RewriteSystem(
            self.alphabet,
            self.rules + tuple(extra),
            inverse_pairing=self.inverse_pairing,
            symmetrize=self.sp_symmetric,
        )
        # the classes depend only on the preserving rules
        if new.preserving == self.preserving:
            new._sp_memo = self._sp_memo
        return new

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RewriteSystem)
            and self.alphabet == other.alphabet
            and self.reducing == other.reducing
            and self.preserving == other.preserving
            and self.inverse_pairing == other.inverse_pairing
            and self.sp_symmetric == other.sp_symmetric
        )

    def __repr__(self):
        return (f"RewriteSystem({len(self.alphabet)} letters, "
                f"{len(self.reducing)} reducing, {len(self.preserving)} preserving)")


class _StepSet(NamedTuple):
    """One-step rewrites indexed by the factor they replace."""

    rhs_of: Dict[Word, Tuple[Word, ...]]  # lhs -> distinct rhs, in rule order
    lengths: Tuple[int, ...]              # the lhs lengths, ascending


def _step_set(steps: Iterable[Tuple[Word, Word]]) -> _StepSet:
    table: Dict[Word, list] = {}
    for lhs, rhs in steps:
        table.setdefault(lhs, []).append(rhs)
    return _StepSet({k: tuple(dict.fromkeys(v)) for k, v in table.items()},
                    tuple(sorted({len(k) for k in table})))


class _LhsGroup(NamedTuple):
    """A left-hand side and its rules, in rule order."""

    lhs: Word
    rules: Tuple[Rule, ...]


class _OverlapKeys(NamedTuple):
    """Items with an lhs (rules, or lhs groups) by every nonempty prefix
    and every nonempty suffix of their lhs, by the lhs itself and by its
    length, each in the items' order."""

    by_prefix: Dict[Word, Sequence]
    by_suffix: Dict[Word, Sequence]
    by_lhs: Dict[Word, Sequence]
    of_len: Dict[int, Sequence]
    lengths: List[int]  # ascending


def _overlap_keys(items) -> _OverlapKeys:
    by_prefix: Dict[Word, list] = {}
    by_suffix: Dict[Word, list] = {}
    by_lhs: Dict[Word, list] = {}
    of_len: Dict[int, list] = {}
    for item in items:
        lhs = item.lhs
        by_lhs.setdefault(lhs, []).append(item)
        of_len.setdefault(len(lhs), []).append(item)
        for k in range(1, len(lhs) + 1):
            by_prefix.setdefault(lhs[:k], []).append(item)
            by_suffix.setdefault(lhs[len(lhs) - k:], []).append(item)
    return _OverlapKeys(by_prefix, by_suffix, by_lhs, of_len, sorted(of_len))


class _Automaton(NamedTuple):
    """Aho-Corasick automaton over the left-hand sides of some rules.

    A state stands for a prefix of some lhs, state 0 for the empty word.
    Read a text letter by letter from state 0 along delta: the state
    reached stands for the longest suffix of the text that is such a
    prefix, and first of that state is the first rule, in the given
    order, whose lhs is a suffix of the text (None if there is none).
    Each row of delta is dense, one entry per letter; a state without
    children shares the row of its failure state, so the index holds
    (states with children + 1) x letters entries at most.
    """

    delta: Tuple[List[int], ...]  # delta[state][letter] is the next state
    first: Tuple[Optional[Rule], ...]


def _lhs_automaton(rules: Sequence[Rule], n_letters: int) -> _Automaton:
    none = len(rules)
    children: List[Dict[int, int]] = [{}]
    own = [none]  # the index of the first rule whose lhs a state spells
    for i, rule in enumerate(rules):
        s = 0
        for x in rule.lhs:
            t = children[s].get(x)
            if t is None:
                t = children[s][x] = len(children)
                children.append({})
                own.append(none)
            s = t
        own[s] = min(own[s], i)
    # breadth first, so that the failure state of a state (its longest
    # proper suffix that is a state) has its row and first rule already
    rows = [[children[0].get(x, 0) for x in range(n_letters)]] * len(children)
    fail = [0] * len(children)
    first = own[:]
    queue = list(children[0].values())
    for s in queue:
        f = fail[s]
        if children[s]:
            rows[s] = row = rows[f][:]
            for x, t in children[s].items():
                row[x] = t
                fail[t] = rows[f][x]
                queue.append(t)
        else:  # a leaf moves as its failure state does; rows never change
            rows[s] = rows[f]
        first[s] = min(own[s], first[f])
    return _Automaton(tuple(rows),
                      tuple(rules[i] if i < none else None for i in first))


# ---------------------------------------------------------------------------
# file format


_SYSTEM_LINES = _directive_shapes("alphabet <letter>...", "inverse <x> <y>",
                                  "rule ...")


def _read_system(text: str):
    """(alphabet, inverse lines, rule lines) of a system or rules file,
    each rule line as (line number, lhs, arrow, rhs); "<->" wins over
    "->"."""
    lines = _read_directives(text, _SYSTEM_LINES)
    alphabet = None
    for line_no, names in lines["alphabet"]:
        try:
            alphabet = Alphabet(names) if alphabet is None else alphabet.extend(names)
        except AlphabetError as exc:
            raise FormatError(str(exc), line_no) from None
    if alphabet is None:
        raise FormatError("missing alphabet line")
    rules = []
    for line_no, tokens in lines["rule"]:
        arrow = "<->" if "<->" in tokens else "->"
        if arrow not in tokens:
            raise FormatError("rule line without -> or <->", line_no)
        i = tokens.index(arrow)
        try:
            rules.append((line_no, alphabet.word(" ".join(tokens[:i])), arrow,
                          alphabet.word(" ".join(tokens[i + 1:]))))
        except AlphabetError as exc:
            raise FormatError(str(exc), line_no) from None
    return alphabet, lines["inverse"], rules


def parse_system(text: str) -> RewriteSystem:
    alphabet, inverse_lines, rule_lines = _read_system(text)
    for line_no, names in inverse_lines:
        if not all(x in alphabet for x in names):
            raise FormatError("inverse uses unknown letter", line_no)
    pairing = {alphabet.id(x): alphabet.id(y) for x, y in
               _directive_table(inverse_lines, "inverse", symmetric=True).items()}

    rules = []
    for line_no, lhs, arrow, rhs in rule_lines:
        if not lhs:
            raise FormatError("rule with empty lhs", line_no)
        if arrow == "<->" and len(lhs) != len(rhs):
            raise FormatError("<-> rule must preserve length", line_no)
        if len(lhs) > len(rhs):
            rules.append(reducing(lhs, rhs))
        elif len(lhs) < len(rhs):
            raise FormatError("length-increasing rule not allowed here", line_no)
        elif lhs == rhs:
            raise FormatError("preserving rule with lhs = rhs", line_no)
        else:
            rules.append(preserving(lhs, rhs))

    try:
        return RewriteSystem(alphabet, rules, inverse_pairing=pairing or None)
    except StructureError as exc:
        raise FormatError(str(exc)) from exc


def format_system(system: RewriteSystem) -> str:
    alphabet = system.alphabet
    lines = ["alphabet " + " ".join(alphabet.names)]
    if system.inverse_pairing:
        for x in sorted(system.inverse_pairing):
            y = system.inverse_pairing[x]
            if x <= y:
                lines.append(f"inverse {alphabet.name(x)} {alphabet.name(y)}")
    for rule in system.reducing:
        lines.append(f"rule {alphabet.format(rule.lhs)} -> {alphabet.format(rule.rhs)}")
    if system.sp_symmetric:  # each preserving rule's mirror comes right after it
        arrow, rules = "<->", system.preserving[::2]
    else:
        arrow, rules = "->", system.preserving
    for rule in rules:
        lines.append(f"rule {alphabet.format(rule.lhs)} {arrow} {alphabet.format(rule.rhs)}")
    return "\n".join(lines) + "\n"


def load_system(path) -> RewriteSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def parse_rule_pairs(text: str):
    """Relaxed loader for raw (lhs, rhs) pairs, e.g. for weight search.

    Accepts the system file syntax but drops every Thue constraint:
    length-increasing '->' lines are allowed, '<->' lines contribute
    both directions, and inverse lines are checked for shape only.
    Returns (alphabet, tuple of (lhs, rhs) pairs).
    """
    alphabet, _, rule_lines = _read_system(text)
    pairs = []
    for _, lhs, arrow, rhs in rule_lines:
        pairs.append((lhs, rhs))
        if arrow == "<->":
            pairs.append((rhs, lhs))
    return alphabet, tuple(pairs)
