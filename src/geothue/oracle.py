"""Brute-force reference semantics: bounded congruence-class closures.

Everything here explores the symmetric one-step relation (rules applied
forwards and backwards, so reversed reducing rules grow words) under two
explicit caps: a length horizon and a node budget.  "complete" means
the closure is closed under every step that stays within the horizon and
the node budget was not hit; verdicts derived from closures say so
relative to those caps and never overclaim beyond them.  One step
generator, _neighbors, serves both searches: a class closure is a plain
breadth-first search over its steps, and class_partition joins each
word with the neighbours it yields of no greater length.  A budget
counts the start word, so every entry point refuses one below 1, with
the fast searches' errors._check_budget; yet the oracle stays independent
of them, and imports only the errors, the systems and the words.  Its
semi-test of the geodesic property, geodesic_bounded_check, finds the
words that no reducing rule matches in its own step tables.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from .errors import DEFAULT_MAX_NODES, PreconditionError, _check_budget
from .systems import RewriteSystem
from .words import Word, lenlex_key


def default_horizon(*words: Word) -> int:
    longest = max((len(w) for w in words), default=0)
    return 2 * longest + 4


@dataclass
class ClassClosure:
    seed: Word
    members: FrozenSet[Word]
    complete: bool
    max_length: int
    # member -> (parent, direction, pos, rule); seed maps to None
    parents: Dict[Word, Optional[tuple]] = field(repr=False, default_factory=dict)


def _step_tables(system: RewriteSystem):
    """The oracle's own step tables, built on the first closure of a
    system and kept on it; the system's rules never change."""
    tables = vars(system).get("_oracle_tables")
    if tables is None:
        # indexed by the matched side, so a node costs O(positions), not
        # O(rules)
        fwd: Dict[Word, List] = {}
        bwd: Dict[Word, List] = {}
        sides = {(rule.lhs, rule.rhs) for rule in system.rules}
        for rule in system.rules:
            fwd.setdefault(rule.lhs, []).append(rule)
            # the backward step of a rule whose reverse is a rule is the
            # reverse's forward step, which _neighbors yields first
            if (rule.rhs, rule.lhs) not in sides:
                bwd.setdefault(rule.rhs, []).append(rule)
        tables = system._oracle_tables = (fwd, sorted({len(k) for k in fwd}),
                                          bwd, sorted({len(k) for k in bwd}))
    return tables


def _neighbors(word: Word, tables, max_length: int):
    fwd, fwd_lengths, bwd, bwd_lengths = tables
    n = len(word)
    for L in fwd_lengths:
        for i in range(n - L + 1):
            rules = fwd.get(word[i:i + L])
            if rules:
                for rule in rules:
                    yield word[:i] + rule.rhs + word[i + L:], ("fwd", i, rule)
    for R in bwd_lengths:
        for i in range(n - R + 1):
            rules = bwd.get(word[i:i + R])
            if rules:
                for rule in rules:
                    if n - R + len(rule.lhs) <= max_length:
                        yield word[:i] + rule.lhs + word[i + R:], ("bwd", i, rule)


def class_closure(word: Word, system: RewriteSystem,
                  max_length: Optional[int] = None,
                  max_nodes: int = DEFAULT_MAX_NODES,
                  stop_at: Optional[Word] = None) -> ClassClosure:
    """Breadth-first closure of the congruence class within the caps.

    The search returns as soon as the budget runs out or stop_at joins
    the class; either way the closure is reported incomplete.
    """
    _check_budget(max_nodes)
    seed = system._word(word)
    if max_length is None:
        max_length = default_horizon(seed)
    if len(seed) > max_length:
        raise PreconditionError("seed longer than the closure horizon")
    parents: Dict[Word, Optional[tuple]] = {seed: None}
    tables = _step_tables(system)

    def explore() -> bool:
        queue = [seed]
        for v in queue:  # the loop reaches the children appended below
            for child, step in _neighbors(v, tables, max_length):
                if child in parents:
                    continue
                if len(parents) >= max_nodes:
                    return False
                parents[child] = (v, *step)
                if child == stop_at:
                    return False
                queue.append(child)
        return True

    complete = seed != stop_at and explore()
    return ClassClosure(seed, frozenset(parents), complete, max_length, parents)


def replay_path(closure: ClassClosure, member: Word):
    """Steps from the seed to a member: list of (word, direction, pos, rule)."""
    if member not in closure.parents:
        raise PreconditionError("word is not in the closure")
    path = []
    cur = member
    while True:
        entry = closure.parents[cur]
        if entry is None:
            break
        parent, direction, pos, rule = entry
        path.append((cur, direction, pos, rule))
        cur = parent
    path.reverse()
    return path


class WpVerdict(enum.Enum):
    EQUAL = "equal"
    DISTINCT = "distinct"
    UNKNOWN = "unknown"


def oracle_wp(u: Word, v: Word, system: RewriteSystem,
              max_length: Optional[int] = None,
              max_nodes: int = DEFAULT_MAX_NODES) -> WpVerdict:
    """Three-valued bounded word problem.

    Distinct means: both classes fully explored within the horizon and
    they stay disjoint there.
    """
    _check_budget(max_nodes)
    u, v = system._word(u), system._word(v)
    if u == v:
        return WpVerdict.EQUAL
    if max_length is None:
        max_length = default_horizon(u, v)
    cu = class_closure(u, system, max_length, max_nodes, stop_at=v)
    if v in cu.members:
        return WpVerdict.EQUAL
    if not cu.complete:
        return WpVerdict.UNKNOWN
    cv = class_closure(v, system, max_length, max_nodes)
    if u in cv.members:
        return WpVerdict.EQUAL
    if cv.complete and cu.members.isdisjoint(cv.members):
        return WpVerdict.DISTINCT
    return WpVerdict.UNKNOWN


def oracle_geodesics(word: Word, system: RewriteSystem,
                     slack: Optional[int] = None,
                     max_nodes: int = DEFAULT_MAX_NODES):
    """Minimal-length members of the bounded class; certified iff complete."""
    _check_budget(max_nodes)
    w = system._word(word)
    if slack is None:
        slack = 2 * len(w) + 4
    closure = class_closure(w, system, max_length=len(w) + slack, max_nodes=max_nodes)
    best = min(len(m) for m in closure.members)
    geos = frozenset(m for m in closure.members if len(m) == best)
    return geos, closure.complete


def _reducible(word: Word, tables) -> bool:
    """Whether the lhs of some reducing rule is a factor of word."""
    fwd, fwd_lengths = tables[:2]
    return any(len(rule.rhs) < L
               for L in fwd_lengths for i in range(len(word) - L + 1)
               for rule in fwd.get(word[i:i + L], ()))


class GeodesicCheckStatus(enum.Enum):
    CONSISTENT = "consistent-up-to"
    COUNTEREXAMPLE = "counterexample"
    UNDECIDED = "undecided"


@dataclass
class GeodesicCheck:
    status: GeodesicCheckStatus
    max_len: int
    counterexample: Optional[Tuple[Word, Word]] = None  # (irreducible, shorter equal word)

    def to_dict(self, alphabet):
        ce = None
        if self.counterexample:
            ce = [alphabet.format(self.counterexample[0]),
                  alphabet.format(self.counterexample[1])]
        return {"status": self.status.value, "max_len": self.max_len,
                "counterexample": ce}


def geodesic_bounded_check(system: RewriteSystem, max_len: int,
                           slack: Optional[int] = None,
                           max_nodes: int = DEFAULT_MAX_NODES) -> GeodesicCheck:
    """Semi-test of the geodesic property.

    Every reducing-irreducible word up to max_len is compared against the
    shortest members of its bounded class closure (oracle_geodesics): a
    strictly shorter one, the length-lex least, refutes geodesy.  Capped
    closures downgrade a clean sweep to undecided.
    """
    tables = _step_tables(system)
    all_complete = True
    for w in system.alphabet.words_upto(max_len):
        if _reducible(w, tables):
            continue
        geos, complete = oracle_geodesics(w, system, slack, max_nodes)
        shortest = min(geos, key=lenlex_key)
        if len(shortest) < len(w):
            return GeodesicCheck(GeodesicCheckStatus.COUNTEREXAMPLE, max_len,
                                 (w, shortest))
        if not complete:
            all_complete = False
    if all_complete:
        return GeodesicCheck(GeodesicCheckStatus.CONSISTENT, max_len)
    return GeodesicCheck(GeodesicCheckStatus.UNDECIDED, max_len)


@dataclass
class QuotientCount:
    count: int
    complete: bool
    max_word_length: int


def class_partition(system: RewriteSystem, horizon: int,
                    max_nodes: int = DEFAULT_MAX_NODES):
    """Partition all words of length <= horizon into congruence blocks.

    Rules never increase length, so joining every word up to the horizon
    with its neighbours of no greater length covers every symmetric step
    inside it: the forward steps, and on a directed system the backward
    steps of equal length, which only repeat the forward steps of their
    targets.
    Returns (rep_of, capped): rep_of maps each word to the length-lex
    least member of its block, capped reports a hit node budget (blocks
    may then be too fine).
    """
    _check_budget(max_nodes)
    alphabet = system.alphabet
    words: List[Word] = []
    index: Dict[Word, int] = {}
    capped = False
    for w in alphabet.words_upto(horizon):
        if len(words) >= max_nodes:
            capped = True
            break
        index[w] = len(words)
        words.append(w)

    parent = list(range(len(words)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    tables = _step_tables(system)
    for w in words:
        wi = index[w]
        for child, _ in _neighbors(w, tables, len(w)):
            ci = index.get(child)
            if ci is None:
                capped = True
            else:
                union(wi, ci)

    # words_upto yields in length-lex order, so the first member seen
    # with a given root is the least one
    least: Dict[int, Word] = {}
    rep_of: Dict[Word, Word] = {}
    for w in words:
        root = find(index[w])
        rep = least.setdefault(root, w)
        rep_of[w] = rep
    return rep_of, capped


def enumerate_quotient(system: RewriteSystem, max_word_length: int,
                       max_length: Optional[int] = None,
                       max_nodes: int = DEFAULT_MAX_NODES) -> QuotientCount:
    """Count congruence classes among words of length <= max_word_length.

    The count is reported complete when it is stable against raising the
    word length by one and no cap was hit.
    """
    _check_budget(max_nodes)
    horizon = max(max_length or 0, max_word_length + 1)
    rep_of, capped = class_partition(system, horizon, max_nodes)

    def count_upto(bound: int) -> int:
        return len({r for w, r in rep_of.items() if len(w) <= bound})

    count = count_upto(max_word_length)
    stable = count == count_upto(max_word_length + 1)
    return QuotientCount(count, complete=stable and not capped,
                         max_word_length=max_word_length)
