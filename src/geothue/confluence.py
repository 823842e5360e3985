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

The system keeps its left-hand sides by prefix, by suffix, by the
whole word and by length in two sets of overlap keys, each built on
first use: RewriteSystem._rule_overlaps files the rules themselves, in
rule order, and _group_overlaps one lhs group (a distinct lhs with its
rules) per distinct lhs.  Lookups in them list placements (item, pos1,
pos2), the starts of both spans in z.  One routine, _pairs, reads the
rule keys and yields each placement's CriticalPair; its kind is read
off z, the two lhs lengths and pos1.  Distinct placements can give the
same pair, so each rule1 keeps a seen set.  iter_critical_pairs and
critical_pairs (so also completion) return this stream.  Completion
enumerates only the pairs that use a new rule: a new rule1 is looked up
in the keys of every rule, an old one in keys of the new rules alone.

check_geodesically_perfect decides a pair first by the normal forms
of its two sides, the Knuth-Bendix test taken modulo the preserving
rules: reduce_lr takes a side to a reducing descendant, so when the
two normal forms share a preserving class, the pair passes.  A pair
that this leaves open is decided by the signatures of its sides, a
side's signature being the set of preserving classes of the words of
its reducing-descendant closure: the pair passes iff the two
signatures intersect.  Each side is closed once per check for its
signature, which is memoised; the closure itself is kept only for the
pairwise test below.  The check walks the lhs-group keys, one
placement group (rule1, l2, pos1, pos2) at a time: z, x and x's
normal-form class once per group, only y per rule of l2, each side
reduced once per check.  When every pair passes there, that is the
verdict.  A failing pair, a side without a signature or a budget
error sends it back to the start of _pairs' stream, keeping the
signatures formed, and there the first failing pair is the witness.
A signature that needs a class over the budget is not formed; a pair
with such a side is decided by the pairwise test, which closes
classes only until its first match, so the witness, the count, the
budget errors and capped answers are those of a check pair by pair in
stream order.

The normal-form test is taken only for sides short enough that no
search below them can meet the budget: over k letters, a side w with
1 + k + ... + k^|w| <= max_nodes.  No rule lengthens a word, so such a
side's descendant closure and every preserving class below it fit the
budget, and the test settles nothing that the signatures would not
settle without a budget error.  A longer side goes to the signatures.

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

The brute-force semi-test of geodesy is geodesic_bounded_check in
``oracle``, the reference these searches are tested against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, NamedTuple, Optional, Tuple

from .errors import DEFAULT_MAX_NODES, ResourceLimitError, _check_budget
from .rewriting import _closure, _reduce_lr
from .systems import Rule, RewriteSystem, _OverlapKeys, _overlap_keys
from .words import Word


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

    @property
    def kind(self) -> OverlapKind:
        # one span starts z and the other ends it
        if len(self.z) in (len(self.rule1.lhs), len(self.rule2.lhs)):
            return OverlapKind.INCLUSION
        if self.pos1 == 0:
            return OverlapKind.LEFT_OVERLAP
        return OverlapKind.RIGHT_OVERLAP

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


def _placements(l1: Word, keys: _OverlapKeys):
    """(item, pos1, pos2) for every item of some overlap keys, a rule or
    an lhs group, whose lhs overlaps l1, with pos1, pos2 the starts of
    the spans of l1 and the item's lhs in z."""
    by_prefix, by_suffix, by_lhs, of_len, lengths = keys
    L1 = len(l1)
    # l1's span starts at 0, the item's ends at |z|
    for k in range(1, L1 + 1):
        for item in by_prefix.get(l1[L1 - k:], ()):
            yield item, 0, L1 - k
    # the item's span starts at 0, l1's ends at |z|; an equal lhs
    # (k = |l1| = |l2|) was listed just above
    for k in range(1, L1 + 1):
        for item in by_suffix.get(l1[:k], ()):
            L2 = len(item.lhs)
            if k < L1 or L2 > k:
                yield item, L2 - k, 0
    # the item's lhs strictly inside l1
    for p in range(1, L1 - 1):
        for L2 in lengths:
            if p + L2 >= L1:
                break
            for item in by_lhs.get(l1[p:p + L2], ()):
                yield item, 0, p
    # l1 strictly inside the item's lhs
    for L2 in lengths:
        if L2 < L1 + 2:
            continue
        for item in of_len[L2]:
            for p in range(1, L2 - L1):
                if item.lhs[p:p + L1] == l1:
                    yield item, p, 0


def _pairs(system: RewriteSystem, include_same_rule_overlaps: bool,
           new: Optional[AbstractSet[Rule]]):
    """The critical pairs that use a rule of new, or every pair for None.

    For each reducing rule1, four lookups in overlap keys in rule order
    list the placements (rule2, pos1, pos2): rule2 over rule1's end,
    over its start, strictly inside it, and around it.  A new rule1 is
    looked up in the system's keys of every rule, an old one in keys of
    the new rules alone, so no placement of two old rules is listed.
    Distinct placements can give the same pair: with a a a -> b and
    a -> ., deleting any letter of a a a gives a a, so six placements
    give two pairs.  A seen set per rule1 and rule2 keeps the first
    placement; as both keys list their rules in system order, the pairs
    of new come in the order, and with the placements, that they have
    among all pairs.  check_geodesically_perfect reads this stream only
    to replay a check that its grouped walk could not settle.
    """
    every = system._rule_overlaps
    of_new = every if new is None else _overlap_keys(
        [r for r in system.rules if r in new])
    for r1 in system.reducing:
        l1, rh1 = r1.lhs, r1.rhs
        L1 = len(l1)
        seen = set()  # rules of one system are distinct objects
        keys = every if new is None or r1 in new else of_new
        for r2, pos1, pos2 in _placements(l1, keys):
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
            yield CriticalPair(z, x, y, r1, r2, pos1, pos2)


def iter_critical_pairs(system: RewriteSystem,
                        include_same_rule_overlaps: bool = False):
    """Every critical pair once, in a deterministic order: by reducing
    rule1 in rule order, then by placement of rule2 over rule1's end,
    over its start, strictly inside it and around it."""
    return _pairs(system, include_same_rule_overlaps, None)


def critical_pairs(system: RewriteSystem,
                   include_same_rule_overlaps: bool = False, *,
                   _new: Optional[AbstractSet[Rule]] = None) -> Tuple[CriticalPair, ...]:
    """All critical pairs, deduplicated, sorted by (|z|, z, rule order).

    _new is completion's: only the pairs that use one of these rules of
    the system are enumerated and sorted.
    """
    rule_index = {id(r): i for i, r in enumerate(system.rules)}
    out = list(_pairs(system, include_same_rule_overlaps, _new))
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
            got = frozenset(_closure(w, system._undirected_steps, max_nodes, what))
        except ResourceLimitError:
            overflows[w] = max_nodes
            raise
        for m in got:
            classes[m] = got
    elif len(got) > max_nodes:
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
    u, v = system._word(u), system._word(v)
    if u == v:
        return True
    if len(u) != len(v):
        return False
    try:
        return v in _sp_class(u, system, max_nodes, "sp_equivalent")
    except ResourceLimitError:
        return v in _closure(u, system._undirected_steps, max_nodes,
                             "sp_equivalent", target=(v,))


def descendant_closure(word: Word, system: RewriteSystem,
                       max_nodes: int = DEFAULT_MAX_NODES) -> FrozenSet[Word]:
    """Everything reachable by forward steps of any rule, the word
    included, within the budget."""
    return frozenset(_closure(system._word(word), system._all_steps, max_nodes,
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


_Sig = FrozenSet[FrozenSet[Word]]


class _Signatures(dict):
    """The side signatures of one check: a dict from side to signature,
    each formed on the side's first lookup.

    A side's signature is the set of preserving classes of the words of
    its descendant closure under the reducing rules, or None when one of
    these classes is over the budget.  The check forms them only for the
    pairs that the normal forms of their sides leave open (_walk_groups),
    and for its replay in stream order.  A side is closed once, with the
    budget of a descendant closure, so its lookup raises exactly where
    the side's closure raises, and a memoised signature needs no check:
    the answers are those of a check pair by pair, in whatever order the
    sides come.  A side with a signature keeps only the signature, one
    object per distinct signature; a side without one keeps its closure
    for the pairwise test and the witness, and descendants closes a side
    with one again, once, when they need its closure too.
    """

    def __init__(self, system: RewriteSystem, max_nodes: int):
        super().__init__()
        self.system = system
        self.max_nodes = max_nodes
        self.steps = system._reducing_steps
        self.desc: Dict[Word, FrozenSet[Word]] = {}
        self.shared: Dict[_Sig, _Sig] = {}  # one object per signature

    def descendants(self, w: Word) -> FrozenSet[Word]:
        got = self.desc.get(w)
        if got is None:
            got = self.desc[w] = frozenset(_closure(
                w, self.steps, self.max_nodes, "descendant closure"))
        return got

    def __missing__(self, w: Word) -> Optional[_Sig]:
        system, max_nodes = self.system, self.max_nodes
        below = _closure(w, self.steps, max_nodes, "descendant closure")
        # the memoised classes first: a signature already shared is
        # within the budget, and _sp_class closes the missing classes and
        # checks any other that may be over it
        sig = frozenset(map(system._sp_memo[0].get, below))
        got = self.shared.get(sig)
        if got is None:
            if None in sig or max(map(len, sig)) > max_nodes:
                try:
                    sig = frozenset([_sp_class(d, system, max_nodes,
                                               "preserving-class closure")
                                     for d in below])
                except ResourceLimitError:
                    self.desc[w] = frozenset(below)
                    self[w] = None
                    return None
            got = self.shared.setdefault(sig, sig)
        self[w] = got
        return got


def _fits_below(k: int, max_nodes: int) -> int:
    """The largest n with 1 + k + ... + k^n <= max_nodes, for k >= 1
    letters: every closure below a word of length n fits the budget."""
    if k == 1:
        return max_nodes - 1
    n, total, power = -1, 0, 1  # at most log_k(max_nodes) + 1 rounds
    while total + power <= max_nodes:
        total += power
        power *= k
        n += 1
    return n


def _walk_groups(system: RewriteSystem, include_same_rule_overlaps: bool,
                 sigs: _Signatures) -> Optional[int]:
    """The number of critical pairs when every pair passes, or None at
    the first placement group with a pair that neither test passes.

    A group (rule1, l2, pos1, pos2) is a placement of a distinct lhs l2
    from the system's lhs-group keys: z, x and x's normal-form class
    come once per group, and only y per rule of l2.  A pair whose two
    sides have normal forms in one preserving class passes; x's
    signature is formed at the group's first pair that this leaves
    open, so also when x is too long for the test.  Two equal pairs of
    one rule1 share z, x and rule2, so l2; a group's pairs are compared
    one by one with those of earlier groups only when an earlier group
    of the same rule1 had its (x, z, l2).
    """
    max_nodes = sigs.max_nodes
    longest = _fits_below(len(system.alphabet), max_nodes)
    # a side's normal-form class, or None for a side over longest;
    # nf_class itself marks a side not met yet
    classes: Dict[Word, Optional[FrozenSet[Word]]] = {}
    class_of = classes.get

    def nf_class(w: Word) -> Optional[FrozenSet[Word]]:
        got = None
        if len(w) <= longest:
            got = _sp_class(_reduce_lr(w, system, None), system, max_nodes,
                            "preserving-class closure")
        classes[w] = got
        return got

    grouped = system._group_overlaps
    checked = 0
    for r1 in system.reducing:
        l1, rh1 = r1.lhs, r1.rhs
        L1 = len(l1)
        # (x, z, l2) -> the first group's (head, tail, skip), then the
        # (y, id(rule2)) of every pair with that key
        firsts: Dict[tuple, object] = {}
        for (l2, rules), pos1, pos2 in _placements(l1, grouped):
            L2 = len(l2)
            z = l1 + l2[L1 - pos2:] if pos1 == 0 else l2 + l1[L2 - pos1:]
            x = z[:pos1] + rh1 + z[pos1 + L1:]
            cx = class_of(x, nf_class)
            if cx is nf_class:
                cx = nf_class(x)
            sx = None  # x's signature, formed at its first open pair
            head, tail = z[:pos2], z[pos2 + L2:]
            # r1 is in rules only when l2 = l1
            skip = r1 if pos1 == pos2 or not include_same_rule_overlaps else None
            key = (x, z, l2)
            seen = firsts.get(key)
            if seen is None:
                firsts[key] = (head, tail, skip)
            elif type(seen) is tuple:
                h, t, s = seen
                seen = firsts[key] = {(h + r.rhs + t, id(r))
                                      for r in rules if r is not s}
            for r2 in rules:
                if r2 is skip:
                    continue
                y = head + r2.rhs + tail
                if seen is not None:
                    if (y, id(r2)) in seen:
                        continue
                    seen.add((y, id(r2)))
                checked += 1
                cy = class_of(y, nf_class)
                if cy is nf_class:
                    cy = nf_class(y)
                if cy is cx and cx is not None:
                    continue
                if sx is None:
                    sx = sigs[x]
                sy = sigs[y]
                if sx is None or sy is None or sx.isdisjoint(sy):
                    return None
    return checked


def check_geodesically_perfect(system: RewriteSystem,
                               include_same_rule_overlaps: bool = False,
                               max_nodes: int = DEFAULT_MAX_NODES) -> GpVerdict:
    """Decide the critical-pair criterion over full reducing-descendant sets.

    A pair passes when some reducing descendants of its two sides are
    connected by preserving rules alone.  The pairs are first walked by
    placement group (_walk_groups), where a pair passes at once when
    reduce_lr takes its two sides into one preserving class, and
    otherwise when their signatures intersect: a side's signature is the
    set of preserving classes of its reducing-descendant closure,
    memoised per side (_Signatures).  The normal-form test is taken only
    for a side whose length keeps every search below it within
    max_nodes, so it raises no budget error and passes no pair that the
    signatures would fail.  When every pair passes there, that is the
    verdict.  Otherwise, at a failing pair, a side without a signature
    or a budget error, the check starts again in the order of _pairs'
    stream, keeping the signatures formed: the first failing pair is the
    witness.  A side whose signature needs a class over the budget gets
    no signature, and its pairs get _holds_lazily's test, on descendant
    sets closed once per side, so every budget error and capped answer
    is that of a check pair by pair.

    By default a rule's overlaps with its own shifts are skipped, so a
    verdict that holds does not license preperfect_wp: fixtures/gpex.rws
    holds, yet preperfect_wp calls d f c and f d c distinct although
    d f c = d d d c = f d c.  include_same_rule_overlaps=True gives the
    classical check, which fails there on the pair of d d d.
    """
    _check_budget(max_nodes)
    sigs = _Signatures(system, max_nodes)
    try:
        checked = _walk_groups(system, include_same_rule_overlaps, sigs)
    except ResourceLimitError:
        checked = None
    if checked is not None:
        return GpVerdict(True, checked, None)
    descendants = sigs.descendants
    # under a cap the lazy test's answer depends on the words themselves
    lazy: Dict[Tuple[Word, Word], bool] = {}
    checked = 0
    for pair in _pairs(system, include_same_rule_overlaps, None):
        checked += 1
        x, y = pair.x, pair.y
        sx = sigs[x]
        sy = sigs[y]
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
                pair, descendants(x), descendants(y)))
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
    met = _closure(system._word(v), system._all_steps, max_nodes,
                   "descendant closure", target=du)
    return not du.isdisjoint(met)


def geodesics_of(word: Word, system: RewriteSystem,
                 max_nodes: int = DEFAULT_MAX_NODES) -> FrozenSet[Word]:
    """Minimal-length words in the descendant closure."""
    closure = descendant_closure(word, system, max_nodes)
    best = min(len(w) for w in closure)
    return frozenset(w for w in closure if len(w) == best)

