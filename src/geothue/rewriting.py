"""One-step rewriting, the linear left-to-right reducer, Thue resolution,
the Dehn-style word problem, and the bounded closure behind every
descendant and class search.

reduce_lr is the performance-critical entry point: it runs the
stack-and-stream algorithm (irreducible prefix as a stack, pending
letters re-scanned after each contraction) over an Aho-Corasick
automaton of the reducing left-hand sides, cached on the system.  A
stack of automaton states runs beside the prefix, so each letter read
is one transition, whatever the number of rules, and a contraction
pops its states with its letters; the reduction is linear in |w| for a
fixed system (Book's algorithm for length-reducing systems).
reduce_lr_trace runs the same loop and also records the word before
each contraction.  Like every entry point that takes a word, both read
it through RewriteSystem._word, which makes it a tuple and refuses a
symbol outside the system's alphabet; the loop itself, _reduce_lr,
checks nothing, so completion calls it directly, once per distinct side
in a phase, on the sides of critical pairs, which are built from the
system's own rules.

The closures (dehn_wp here, the descendant and preserving-class
searches in ``confluence``, and the interleave search in ``pregroup``)
are breadth-first over a step set: one of the system's cached step sets
(RewriteSystem._reducing_steps, _all_steps or _undirected_steps), or
the pregroup's slide table.  A word's children come by left-hand side
length, then position, then right-hand side in rule order.  The node
budget is an int; it applies to each closure on its own and counts the
start word: a closure of N words passes at max_nodes=N, and
ResourceLimitError(cap=max_nodes) is raised when a new word would make
N + 1.  No closure fits a budget below 1, so every search refuses one
with PreconditionError before it starts (errors._check_budget, the one
budget check of the package, the oracle's included).  A search may be
given a collection of stop words, its target: it stops at the first
word it reaches that lies in the target, and since that test comes
before the budget, reaching a target word never raises.
"""

from __future__ import annotations

import warnings
from typing import Collection, Iterable, List, Optional, Set, Tuple

from .errors import (DEFAULT_MAX_NODES, PreconditionError, ResourceLimitError,
                     _check_budget)
from .systems import Rule, RuleKind, RewriteSystem, reducing, preserving
from .words import EMPTY, Alphabet, Word


def apply_rule(word: Word, pos: int, rule: Rule) -> Word:
    word = tuple(word)
    L = len(rule.lhs)
    if word[pos:pos + L] != rule.lhs:
        raise PreconditionError(f"rule does not match at position {pos}")
    return word[:pos] + rule.rhs + word[pos + L:]


def _picked_rules(system: RewriteSystem, kind: Optional[RuleKind]):
    if kind is None:
        return system.rules
    if kind is RuleKind.REDUCING:
        return system.reducing
    return system.preserving


def redexes(word: Word, system: RewriteSystem, kind: Optional[RuleKind] = None):
    """All (pos, rule) matches, by rule order then position."""
    word = system._word(word)
    out = []
    n = len(word)
    for rule in _picked_rules(system, kind):
        lhs = rule.lhs
        L = len(lhs)
        for i in range(n - L + 1):
            if word[i:i + L] == lhs:
                out.append((i, rule))
    return out


def is_irreducible(word: Word, system: RewriteSystem) -> bool:
    """True iff no reducing rule matches word: a walk of reduce_lr's
    automaton that stops at the first state naming a rule."""
    word = system._word(word)
    delta, first = system._automaton
    s = 0
    for x in word:
        s = delta[s][x]
        if first[s] is not None:
            return False
    return True


def successors(word: Word, system: RewriteSystem) -> Tuple[Word, ...]:
    """One-step successors, deduplicated, in rule-then-position order."""
    word = system._word(word)
    seen = dict()
    for pos, rule in redexes(word, system):
        v = word[:pos] + rule.rhs + word[pos + len(rule.lhs):]
        if v not in seen:
            seen[v] = None
    return tuple(seen.keys())


def reduce_lr(word: Word, system: RewriteSystem) -> Word:
    """Reduce with S_R only, leftmost reduction point, first rule wins."""
    return _reduce_lr(system._word(word), system, None)


def reduce_lr_trace(word: Word, system: RewriteSystem):
    """Same reduction as reduce_lr, returning (final, steps).

    Steps are (word_before, pos, rule), one per contraction of reduce_lr's
    own loop, so the search is linear in |w| as there; copying the word
    for each step is the only extra cost.  The reduction point is the
    earliest end position of any reducing match; ties between rules
    ending there go to system rule order.
    """
    steps: list = []
    return _reduce_lr(system._word(word), system, steps), steps


def _reduce_lr(word: Word, system: RewriteSystem, steps: Optional[list]) -> Word:
    """The stack-and-stream loop behind reduce_lr and reduce_lr_trace.

    u is the irreducible prefix read so far, pending the letters a
    contraction put back, in reverse.  states runs in step with u: its
    k-th entry is the state of the system's automaton over the reducing
    left-hand sides after reading u[:k].  Each letter x is one
    transition; the state reached names the first reducing rule whose
    lhs ends at x, and since u is irreducible a match can only end at x,
    so it ends earliest in the word.  A contraction pops |lhs| - 1
    letters and states and pushes the rhs back onto pending.  With a
    steps list, each contraction appends (word_before, pos, rule).  word
    is a tuple over the system's alphabet; it is not checked here.
    """
    delta, first = system._automaton
    u: List[int] = []
    append = u.append
    states = [0]
    push = states.append
    pending: List[int] = []
    pop = pending.pop
    s = 0
    i = 0
    n = len(word)
    while True:
        if pending:
            x = pop()
        elif i < n:
            x = word[i]
            i += 1
        else:
            break
        s = delta[s][x]
        rule = first[s]
        if rule is None:
            append(x)
            push(s)
            continue
        lu = len(u)
        k = len(rule.lhs) - 1
        if steps is not None:
            steps.append((tuple(u) + (x,) + tuple(reversed(pending))
                          + word[i:], lu - k, rule))
        del u[lu - k:]
        del states[lu - k + 1:]
        s = states[-1]
        rhs = rule.rhs
        if rhs:
            pending.extend(reversed(rhs))
    return tuple(u)


def reduce_random(word: Word, system: RewriteSystem, rng) -> Word:
    """Maximal reduction applying a uniformly random reducing redex each
    step."""
    w = system._word(word)
    while True:
        hits = redexes(w, system, RuleKind.REDUCING)
        if not hits:
            return w
        pos, rule = hits[rng.randrange(len(hits))]
        w = w[:pos] + rule.rhs + w[pos + len(rule.lhs):]


def thue_resolution(alphabet: Alphabet, pairs: Iterable[Tuple[Word, Word]],
                    inverse_pairing=None, symmetrize: bool = True) -> RewriteSystem:
    """Orient arbitrary (lhs, rhs) pairs into a Thue system.

    The symmetric closure of the pairs is taken and every
    length-increasing direction is dropped: longer side -> shorter side
    becomes a reducing rule, equal lengths become a preserving rule.
    Trivial pairs (lhs = rhs) vanish.
    """
    rules = []
    for lhs, rhs in pairs:
        lhs, rhs = tuple(lhs), tuple(rhs)
        if len(lhs) > len(rhs):
            rules.append(reducing(lhs, rhs))
        elif len(lhs) < len(rhs):
            rules.append(reducing(rhs, lhs))
        elif lhs != rhs:
            rules.append(preserving(lhs, rhs))
    return RewriteSystem(alphabet, rules, inverse_pairing=inverse_pairing,
                         symmetrize=symmetrize)


def _closure(start: Word, steps, max_nodes: int, what: str,
             target: Collection[Word] = ()) -> Set[Word]:
    """Every word reachable from start by steps, breadth-first.

    steps is a step set, of a system or a pregroup's slide table; the
    order and the budget are as in the module docstring.
    target is a collection of stop words, () for none: the search stops
    at the first word in it, start included, and the partial closure
    then contains that word.  what names the search in the budget error.
    """
    _check_budget(max_nodes)
    rhs_of, lengths = steps
    seen = {start}
    if start in target:
        return seen
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            n = len(v)
            for L in lengths:
                if L > n:
                    break
                for i in range(n - L + 1):
                    rhss = rhs_of.get(v[i:i + L])
                    if rhss is None:
                        continue
                    for rhs in rhss:
                        child = v[:i] + rhs + v[i + L:]
                        if child in seen:
                            continue
                        if child in target:
                            seen.add(child)
                            return seen
                        if len(seen) >= max_nodes:
                            raise ResourceLimitError(
                                f"{what} exceeded its node budget", cap=max_nodes)
                        seen.add(child)
                        nxt.append(child)
        frontier = nxt
    return seen


def dehn_wp(word: Word, system: RewriteSystem,
            max_nodes: int = DEFAULT_MAX_NODES) -> bool:
    """True iff some S_R reduction sequence reaches the empty word.

    Exhaustive search over reducing descendants, so it is a sound word
    problem test exactly when the system is confluent on the class of
    the empty word (Dehn systems).  Warns when preserving rules exist,
    since they are ignored here.
    """
    w = system._word(word)
    if system.preserving:
        warnings.warn("dehn_wp ignores the preserving rules of this system",
                      stacklevel=2)
    return EMPTY in _closure(w, system._reducing_steps, max_nodes, "dehn_wp",
                             target=(EMPTY,))
