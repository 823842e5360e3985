"""Critical pairs, the geodesically-perfect criterion, and word problems
for preperfect systems.

A critical pair comes from two rule applications covering a word z with
overlapping spans, the first rule always length-reducing.  The pair
passes the perfectness criterion when some reducing descendants of its
two sides have equal length and are connected by preserving rules alone;
a system is certified geodesically perfect when every pair passes.

By default a rule overlapping a shifted copy of itself is not treated as
critical; include_same_rule_overlaps=True switches to the classical
enumeration where it is.  Distinct rules sharing a left-hand side always
produce the pair of their right-hand sides.

Index lookups list placements (rule2, pos1, pos2), the starts of both
spans in z, and one routine, _pairs, builds each placement's pair as a
plain tuple (z, x, y, rule1, rule2, pos1, pos2).  Distinct placements
can give the same pair, so each rule1 keeps a seen set.
iter_critical_pairs and critical_pairs (so also completion) wrap this
stream into CriticalPair with its kind; check_geodesically_perfect
reads the plain tuples.  Completion enumerates only the pairs that use
a new rule: a new rule1 is looked up in the index of every rule, an old
one in the index of the new rules alone.

check_geodesically_perfect decides a pair from the signatures of its
two sides, a side's signature being the set of preserving classes of
its reducing descendants: the pair passes iff the two signatures
intersect.  So its cost is one descendant closure per distinct side and
one isdisjoint per pair, not a closure per pair.
It walks the stream in order and builds a CriticalPair only for the
first failing pair, the witness.  A signature that needs a class over
the budget is not formed; a pair with such a side is decided by the
pairwise test, which closes classes only until its first match, so the
budget errors and capped answers are those of a check pair by pair.

Descendant closures and preserving classes are the bounded breadth-first
closures of ``rewriting``: children by left-hand side length, then
position, then right-hand side in rule order, and a budget of max_nodes
words for each closure, the start word included, so a closure of N
words passes at max_nodes=N.  In check_geodesically_perfect every
reducing-descendant set and every preserving class has its own budget.

Preserving classes are computed once per set of preserving rules:
_sp_class memoises each full class on the system, every member mapped
to the same frozenset, check_geodesically_perfect and sp_equivalent
(so also completion) read them there, and RewriteSystem.with_rules
hands them on while the preserving rules stay the same.  A cached
class larger than a later, smaller budget raises as its closure would,
and so does a word whose class already overflowed a budget at least as
large: the memo also holds, per word, the largest budget its class
overflowed.
sp_equivalent then falls back to a search that stops at its target,
with the same budget, so a target reached within it is answered.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (AbstractSet, Dict, FrozenSet, Iterable, List, NamedTuple,
                    Optional, Tuple)

from .errors import DEFAULT_MAX_NODES, ResourceLimitError
from .oracle import oracle_geodesics
from .rewriting import _check_budget, _closure, is_irreducible
from .systems import Rule, RewriteSystem
from .words import Word, lenlex_key


class OverlapKind(enum.Enum):
    LEFT_OVERLAP = "left-overlap"
    RIGHT_OVERLAP = "right-overlap"
    INCLUSION = "inclusion"


class CriticalPair(NamedTuple):
    z: Word
    x: Word
    y: Word
    rule1: Rule
    rule2: Rule
    pos1: int
    pos2: int
    kind: OverlapKind

    def to_dict(self, alphabet):
        return {
            "z": alphabet.format(self.z),
            "x": alphabet.format(self.x),
            "y": alphabet.format(self.y),
            "rule1": [alphabet.format(self.rule1.lhs), alphabet.format(self.rule1.rhs)],
            "rule2": [alphabet.format(self.rule2.lhs), alphabet.format(self.rule2.rhs)],
            "pos1": self.pos1,
            "pos2": self.pos2,
            "kind": self.kind.value,
        }


class _LhsTables(NamedTuple):
    """Some rules by a prefix of their lhs, by a suffix, by the whole lhs
    and by its length, each list in the rules' order."""

    by_prefix: Dict[Word, List[Rule]]
    by_suffix: Dict[Word, List[Rule]]
    by_lhs: Dict[Word, List[Rule]]
    rules_of_len: Dict[int, List[Rule]]
    lhs_lengths: List[int]  # ascending


def _lhs_tables(rules: Iterable[Rule]) -> _LhsTables:
    by_prefix: Dict[Word, List[Rule]] = {}
    by_suffix: Dict[Word, List[Rule]] = {}
    by_lhs: Dict[Word, List[Rule]] = {}
    rules_of_len: Dict[int, List[Rule]] = {}
    for rule in rules:
        lhs = rule.lhs
        by_lhs.setdefault(lhs, []).append(rule)
        rules_of_len.setdefault(len(lhs), []).append(rule)
        for k in range(1, len(lhs) + 1):
            by_prefix.setdefault(lhs[:k], []).append(rule)
            by_suffix.setdefault(lhs[len(lhs) - k:], []).append(rule)
    return _LhsTables(by_prefix, by_suffix, by_lhs, rules_of_len,
                      sorted(rules_of_len))


def _placements(l1: Word, tables: _LhsTables):
    """(rule2, pos1, pos2) for every rule2 of the tables whose lhs
    overlaps l1 with pos1, pos2 the starts of the two spans in z."""
    by_prefix, by_suffix, by_lhs, rules_of_len, lhs_lengths = tables
    L1 = len(l1)
    # rule1 span starts at 0, rule2 span ends at |z|
    for k in range(1, L1 + 1):
        for r2 in by_prefix.get(l1[L1 - k:], ()):
            yield r2, 0, L1 - k
    # rule2 span starts at 0, rule1 span ends at |z|; an equal lhs
    # (k = |lhs1| = |lhs2|) was listed just above
    for k in range(1, L1 + 1):
        for r2 in by_suffix.get(l1[:k], ()):
            L2 = len(r2.lhs)
            if k < L1 or L2 > k:
                yield r2, L2 - k, 0
    # rule2 strictly inside rule1
    for p in range(1, L1 - 1):
        for L2 in lhs_lengths:
            if p + L2 >= L1:
                break
            for r2 in by_lhs.get(l1[p:p + L2], ()):
                yield r2, 0, p
    # rule1 strictly inside rule2
    for L2 in lhs_lengths:
        if L2 < L1 + 2:
            continue
        for r2 in rules_of_len[L2]:
            for p in range(1, L2 - L1):
                if r2.lhs[p:p + L1] == l1:
                    yield r2, p, 0


def _pairs(system: RewriteSystem, include_same_rule_overlaps: bool,
           new: Optional[AbstractSet[Rule]]):
    """The critical pairs that use a rule of new, or every pair for None,
    as plain tuples (z, x, y, rule1, rule2, pos1, pos2).

    For each reducing rule1, four index lookups list the placements
    (rule2, pos1, pos2): rule2 over rule1's end, over its start, strictly
    inside it, and around it.  A new rule1 is looked up in the tables of
    every rule, an old one in the tables of the new rules alone, so no
    placement of two old rules is listed.  One routine builds each
    placement's pair.  Distinct placements can give the same pair: with
    a a a -> b and a -> ., deleting any letter of a a a gives a a, so
    six placements give two pairs.  A seen set per rule1 and rule2 keeps
    the first placement; as every table lists its rules in system order,
    the pairs of new come in the order, and with the placements, that
    they have among all pairs.
    """
    every = _lhs_tables(system.rules)
    of_new = every if new is None else _lhs_tables(r for r in system.rules
                                                    if r in new)
    for r1 in system.reducing:
        l1, rh1 = r1.lhs, r1.rhs
        L1 = len(l1)
        seen = set()  # rules of one system are distinct objects
        tables = every if new is None or r1 in new else of_new
        for r2, pos1, pos2 in _placements(l1, tables):
            if r2 is r1 and (pos1 == pos2 or not include_same_rule_overlaps):
                continue
            l2 = r2.lhs
            L2 = len(l2)
            z = l1 + l2[L1 - pos2:] if pos1 == 0 else l2 + l1[L2 - pos1:]
            x = z[:pos1] + rh1 + z[pos1 + L1:]
            y = z[:pos2] + r2.rhs + z[pos2 + L2:]
            key = (x, y, z, id(r2))
            if key in seen:
                continue
            seen.add(key)
            yield z, x, y, r1, r2, pos1, pos2


# read once: an enum member read off its class is a slow attribute lookup
_INCLUSION, _LEFT_OVERLAP, _RIGHT_OVERLAP = (
    OverlapKind.INCLUSION, OverlapKind.LEFT_OVERLAP, OverlapKind.RIGHT_OVERLAP)


def _critical_pair(pair: tuple) -> CriticalPair:
    """A tuple of _pairs as a CriticalPair, with its kind."""
    z, _, _, r1, r2, pos1, _ = pair
    # one span starts z and the other ends it
    kind = (_INCLUSION if len(z) in (len(r1.lhs), len(r2.lhs))
            else _LEFT_OVERLAP if pos1 == 0 else _RIGHT_OVERLAP)
    # tuple.__new__ skips the named tuple's own __new__, a second call
    return tuple.__new__(CriticalPair, pair + (kind,))


def iter_critical_pairs(system: RewriteSystem,
                        include_same_rule_overlaps: bool = False):
    """Every critical pair once, in a deterministic order: by reducing
    rule1 in rule order, then by placement of rule2 over rule1's end,
    over its start, strictly inside it and around it."""
    return map(_critical_pair, _pairs(system, include_same_rule_overlaps, None))


def critical_pairs(system: RewriteSystem,
                   include_same_rule_overlaps: bool = False, *,
                   _new: Optional[AbstractSet[Rule]] = None) -> Tuple[CriticalPair, ...]:
    """All critical pairs, deduplicated, sorted by (|z|, z, rule order).

    _new is completion's: only the pairs that use one of these rules of
    the system are enumerated and sorted.
    """
    rule_index = {id(r): i for i, r in enumerate(system.rules)}
    out = list(map(_critical_pair,
                   _pairs(system, include_same_rule_overlaps, _new)))
    out.sort(key=lambda cp: (len(cp.z), cp.z, rule_index[id(cp.rule1)],
                             rule_index[id(cp.rule2)], cp.pos1, cp.pos2))
    return tuple(out)


def _sp_class(w: Word, system: RewriteSystem, max_nodes: int,
              what: str) -> FrozenSet[Word]:
    """The preserving class of w, memoised on the system.

    Every member of a class maps to the same frozenset, so two words are
    S_P-connected iff their classes are identical.  A class is the
    closure of w under the preserving steps taken both ways, with its
    budget.  A cached class checked against a smaller budget, and a word
    whose class overflowed a budget at least as large, raise the error
    that the closure would raise, without running it.
    """
    classes, overflows = system._sp_memo
    got = classes.get(w)
    if got is None:
        # a class that exceeded a budget b has more than b words and more
        # than one, so its closure raises at every budget up to b
        if max_nodes <= overflows.get(w, -1):
            raise ResourceLimitError(f"{what} exceeded its node budget",
                                     cap=max_nodes)
        try:
            got = frozenset(_closure(w, system._steps.undirected, max_nodes, what))
        except ResourceLimitError:
            overflows[w] = max_nodes
            raise
        for m in got:
            classes[m] = got
    # a closure raises only when it adds a word, so never at one word
    elif len(got) > max_nodes and len(got) > 1:
        raise ResourceLimitError(f"{what} exceeded its node budget",
                                 cap=max_nodes)
    return got


def sp_equivalent(u: Word, v: Word, system: RewriteSystem,
                  max_nodes: int = DEFAULT_MAX_NODES) -> bool:
    """Connectivity under preserving rules only; lengths must agree.

    Preserving rules are used in both directions, also in systems built
    with symmetrize=False.  Equal words are equivalent without a search.
    Otherwise the answer is read off u's class when the class fits the
    budget; otherwise a search from u stops at v, with the same budget,
    so a target reached within it is still answered.
    """
    _check_budget(max_nodes)
    u, v = tuple(u), tuple(v)
    system._check_symbols(u)
    system._check_symbols(v)
    if u == v:
        return True
    if len(u) != len(v):
        return False
    try:
        return v in _sp_class(u, system, max_nodes, "sp_equivalent")
    except ResourceLimitError:
        return v in _closure(u, system._steps.undirected, max_nodes,
                             "sp_equivalent", target=(v,))


def descendant_closure(word: Word, system: RewriteSystem,
                       max_nodes: int = DEFAULT_MAX_NODES) -> FrozenSet[Word]:
    """Everything reachable by forward steps of any rule, the word
    included, within the budget."""
    w = tuple(word)
    system._check_symbols(w)
    return frozenset(_closure(w, system._steps.all, max_nodes,
                              "descendant closure"))


@dataclass
class FailedPair:
    pair: CriticalPair
    descendants_x: FrozenSet[Word]
    descendants_y: FrozenSet[Word]

    def to_dict(self, alphabet):
        return {
            "pair": self.pair.to_dict(alphabet),
            "descendants_x": sorted(alphabet.format(w) for w in self.descendants_x),
            "descendants_y": sorted(alphabet.format(w) for w in self.descendants_y),
        }


@dataclass
class GpVerdict:
    holds: bool
    pairs_checked: int
    witness: Optional[FailedPair]

    def to_dict(self, alphabet):
        return {
            "holds": self.holds,
            "pairs_checked": self.pairs_checked,
            "witness": self.witness.to_dict(alphabet) if self.witness else None,
        }


def _holds_lazily(dx: FrozenSet[Word], dy: FrozenSet[Word],
                  system: RewriteSystem, max_nodes: int) -> bool:
    """Whether some words of dx and dy of equal length are one word or
    share a preserving class, closing classes only until the first match."""
    what = "preserving-class closure"
    by_len: Dict[int, set] = {}
    for w in dx:
        by_len.setdefault(len(w), set()).add(w)
    for w in dy:
        bucket = by_len.get(len(w))
        if bucket is None:
            continue
        if w in bucket:
            return True
        cls = _sp_class(w, system, max_nodes, what)
        if any(_sp_class(c, system, max_nodes, what) is cls for c in bucket):
            return True
    return False


def check_geodesically_perfect(system: RewriteSystem,
                               include_same_rule_overlaps: bool = False,
                               max_nodes: int = DEFAULT_MAX_NODES) -> GpVerdict:
    """Decide the critical-pair criterion over full reducing-descendant sets.

    A side's signature is the set of preserving classes of its reducing
    descendants.  A class has one length and holds its own members, so a
    pair passes iff the signatures of its two sides intersect.  Each
    distinct side is closed once and keeps its signature, a frozenset
    of the shared class frozensets, so a pair costs one isdisjoint.
    The first failing pair of _pairs' stream is the witness, the only
    pair built as a CriticalPair, with fresh descendant closures.  A
    side whose signature needs a class over the budget gets no
    signature, and its pairs get _holds_lazily's test, on descendant
    sets kept once per side, so every budget error and capped answer is
    that of a check pair by pair.

    By default a rule's overlaps with its own shifts are skipped, so a
    verdict that holds does not license preperfect_wp: fixtures/gpex.rws
    holds, yet preperfect_wp calls d f c and f d c distinct although
    d f c = d d d c = f d c.  include_same_rule_overlaps=True gives the
    classical check, which fails there on the pair of d d d.
    """
    _check_budget(max_nodes)
    steps = system._steps.reducing

    def rdesc(w: Word) -> FrozenSet[Word]:
        return frozenset(_closure(w, steps, max_nodes, "descendant closure"))

    # descendants kept for the pairwise test, closed once per side
    desc: Dict[Word, FrozenSet[Word]] = {}
    # one object per signature: far fewer signatures than sides
    shared: Dict[FrozenSet[FrozenSet[Word]], FrozenSet[FrozenSet[Word]]] = {}

    def signature(w: Word) -> Optional[FrozenSet[FrozenSet[Word]]]:
        """w's signature, or None when a class is over the budget."""
        dw = rdesc(w)  # over its budget, this ends the check
        try:
            sig = frozenset([_sp_class(d, system, max_nodes,
                                       "preserving-class closure")
                             for d in dw])
        except ResourceLimitError:
            desc[w] = dw
            return None
        return shared.setdefault(sig, sig)

    def descendants(w: Word) -> FrozenSet[Word]:
        got = desc.get(w)
        if got is None:
            got = desc[w] = rdesc(w)
        return got

    sigs: Dict[Word, Optional[FrozenSet[FrozenSet[Word]]]] = {}
    unseen = object()
    # under a cap the lazy test's answer depends on the words themselves
    lazy: Dict[Tuple[Word, Word], bool] = {}
    checked = 0
    for pair in _pairs(system, include_same_rule_overlaps, None):
        checked += 1
        x, y = pair[1], pair[2]
        sx = sigs.get(x, unseen)
        if sx is unseen:
            sx = sigs[x] = signature(x)
        sy = sigs.get(y, unseen)
        if sy is unseen:
            sy = sigs[y] = signature(y)
        if sx is not None and sy is not None:
            ok = not sx.isdisjoint(sy)
        else:
            ok = lazy.get((x, y))
            if ok is None:
                ok = _holds_lazily(descendants(x), descendants(y), system,
                                   max_nodes)
                lazy[(x, y)] = lazy[(y, x)] = ok
        if not ok:
            return GpVerdict(False, checked, FailedPair(
                _critical_pair(pair), rdesc(x), rdesc(y)))
    return GpVerdict(True, checked, None)


def preperfect_wp(u: Word, v: Word, system: RewriteSystem,
                  max_nodes: int = DEFAULT_MAX_NODES) -> bool:
    """Joinability of descendant closures; sound word problem test for
    preperfect (and geodesically perfect) systems.

    u's descendant closure is built in full, then a search from v stops
    at the first word in it, so the answer is that of the two full
    closures wherever both fit the budget, and a pair also passes when
    v's closure is over the budget but its search meets u's within it.

    A system is only known to qualify when check_geodesically_perfect
    holds with include_same_rule_overlaps=True; the default check skips
    self-overlaps and holds on fixtures/gpex.rws, where this test calls
    the equal words d f c and f d c distinct.
    """
    du = descendant_closure(u, system, max_nodes)
    w = tuple(v)
    system._check_symbols(w)
    met = _closure(w, system._steps.all, max_nodes,
                   "descendant closure", target=du)
    return not du.isdisjoint(met)


def geodesics_of(word: Word, system: RewriteSystem,
                 max_nodes: int = DEFAULT_MAX_NODES) -> FrozenSet[Word]:
    """Minimal-length words in the descendant closure."""
    closure = descendant_closure(word, system, max_nodes)
    best = min(len(w) for w in closure)
    return frozenset(w for w in closure if len(w) == best)


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
    all_complete = True
    for w in system.alphabet.words_upto(max_len):
        if not is_irreducible(w, system):
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
