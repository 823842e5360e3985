"""Completion toward a geodesically perfect system.

Instead of orienting equations by a reduction order, unresolved critical
pairs contribute either a length-reducing rule or a length-preserving
equation.  Work proceeds in phases: every pair of a phase is resolved
against the system as it stood when the phase began, and the rules
gathered during the phase only take effect in the next one.  This makes
the trace independent of pair enumeration order.

A phase enumerates, sorts and resolves only the critical pairs that
use at least one rule absent from the system one phase earlier (at the
first phase, every pair): a new reducing rule is overlapped with every
rule, an old one with the new rules alone.  Rules are only ever added,
so a pair of two older rules was enumerated, identically, and resolved
in the phase before.  The run stops successfully the first time a phase
contributes nothing new; the result need not be finite in general, so
both a phase budget and a rule budget apply.

A pair is resolved by reducing both sides with reduce_lr, memoised on
the phase's system, and, when the normal forms differ but have one
length, asking sp_equivalent, which reads the system's preserving
classes, handed on by with_rules while the preserving rules stay the
same.  Only a pair that adds a rule is reduced again with
reduce_lr_trace, for the certificate chain that kb_complete keeps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from .confluence import CriticalPair, critical_pairs, sp_equivalent
from .errors import DEFAULT_MAX_NODES, PreconditionError
from .rewriting import _check_budget, reduce_lr, reduce_lr_trace
from .systems import Rule, RuleKind, RewriteSystem, preserving, reducing
from .words import Word

DEFAULT_MAX_PHASES = 32
DEFAULT_MAX_RULES = 10 ** 4


class ResolutionAction(enum.Enum):
    JOINED = "joined"
    SP_EQUIVALENT = "sp-equivalent"
    ADD_REDUCING = "add-reducing"
    ADD_PRESERVING = "add-preserving"


@dataclass(frozen=True)
class Resolution:
    """Outcome of resolving one critical pair.

    For a pair that adds a rule, chain lists the words of the derivation
    certificate: from the normal form of x up through x to the
    superposition z, then down through y to the normal form of y.  Each
    adjacent pair is one rewrite step.  A pair that adds nothing (JOINED
    or SP_EQUIVALENT) has the empty chain.
    """

    pair: CriticalPair
    action: ResolutionAction
    x_hat: Word
    y_hat: Word
    rule: Optional[Rule]
    chain: Tuple[Word, ...]

    def to_dict(self, alphabet):
        return {
            "pair": self.pair.to_dict(alphabet),
            "action": self.action.value,
            "x_hat": alphabet.format(self.x_hat),
            "y_hat": alphabet.format(self.y_hat),
            "rule": ([alphabet.format(self.rule.lhs), alphabet.format(self.rule.rhs),
                      self.rule.kind.value] if self.rule else None),
            "chain": [alphabet.format(w) for w in self.chain],
        }


def _chain(pair: CriticalPair, system: RewriteSystem) -> Tuple[Word, ...]:
    """The certificate of a pair: x's reduction reversed, z, y's reduction."""
    sides = []
    for side in (pair.x, pair.y):
        final, steps = reduce_lr_trace(side, system)
        sides.append(tuple(before for before, _pos, _rule in steps) + (final,))
    return sides[0][::-1] + (pair.z,) + sides[1]


def _normal_form(w: Word, system: RewriteSystem) -> Word:
    """reduce_lr(w, system), read from or added to the system's memo."""
    memo = system._reduce_lr_memo
    got = memo.get(w)
    if got is None:
        got = memo[w] = reduce_lr(w, system)
    return got


def resolve_pair(pair: CriticalPair, system: RewriteSystem,
                 max_nodes: int = DEFAULT_MAX_NODES) -> Resolution:
    """Normalize both sides and classify what, if anything, must be added;
    only a pair that adds a rule is traced again for its chain.  The
    normal forms are memoised on the system, so the pairs of one
    completion phase share them.  max_nodes is sp_equivalent's budget.
    """
    _check_budget(max_nodes)
    x_hat = _normal_form(pair.x, system)
    y_hat = _normal_form(pair.y, system)
    if x_hat == y_hat:
        return Resolution(pair, ResolutionAction.JOINED, x_hat, y_hat, None, ())
    if len(x_hat) == len(y_hat):
        if sp_equivalent(x_hat, y_hat, system, max_nodes=max_nodes):
            return Resolution(pair, ResolutionAction.SP_EQUIVALENT,
                              x_hat, y_hat, None, ())
        action = ResolutionAction.ADD_PRESERVING
        rule = preserving(x_hat, y_hat)
    else:
        action = ResolutionAction.ADD_REDUCING
        if len(x_hat) > len(y_hat):
            rule = reducing(x_hat, y_hat)
        else:
            rule = reducing(y_hat, x_hat)
    return Resolution(pair, action, x_hat, y_hat, rule, _chain(pair, system))


class CompletionStatus(enum.Enum):
    COMPLETED = "completed"
    PHASE_LIMIT = "phase-limit"
    RULE_LIMIT = "rule-limit"


@dataclass
class PhaseStats:
    index: int
    new_pairs: int
    added_reducing: int
    added_preserving: int  # counted as unordered equations
    total_rules: int

    def to_dict(self):
        return {"index": self.index, "new_pairs": self.new_pairs,
                "added_reducing": self.added_reducing,
                "added_preserving": self.added_preserving,
                "total_rules": self.total_rules}


@dataclass
class CompletionResult:
    system: RewriteSystem
    status: CompletionStatus
    phases: Tuple[PhaseStats, ...]
    certificates: Tuple[Resolution, ...]

    def to_dict(self):
        alphabet = self.system.alphabet
        return {
            "status": self.status.value,
            "phases": [p.to_dict() for p in self.phases],
            "rules": len(self.system.rules),
            "certificates": [c.to_dict(alphabet) for c in self.certificates],
        }


def kb_complete(system: RewriteSystem,
                max_phases: int = DEFAULT_MAX_PHASES,
                max_rules: int = DEFAULT_MAX_RULES,
                include_same_rule_overlaps: bool = False,
                max_nodes: int = DEFAULT_MAX_NODES) -> CompletionResult:
    """Run phases until one adds nothing, or a budget is hit.

    max_rules is checked after each phase, so a system with more rules
    still runs one; a max_phases, max_rules or max_nodes below 1 raises
    PreconditionError before the first phase.
    """
    if max_phases < 1:
        raise PreconditionError(f"phase limit must be at least 1, got {max_phases}")
    if max_rules < 1:
        raise PreconditionError(f"rule limit must be at least 1, got {max_rules}")
    _check_budget(max_nodes)
    current = system
    # the rules of the current system that the previous phase's lacked;
    # None at the first phase, where every pair is fresh
    new: Optional[Set[Rule]] = None
    phases: List[PhaseStats] = []
    certificates: List[Resolution] = []

    for index in range(1, max_phases + 1):
        fresh = critical_pairs(current, include_same_rule_overlaps, _new=new)
        added: List[Rule] = []
        # resolve_pair returns no rule of the system: a reducing lhs is a
        # normal form, a preserving rule joins two inequivalent ones
        added_keys: Set[Tuple[Word, Word]] = set()
        n_red = n_pres = 0
        for pair in fresh:
            res = resolve_pair(pair, current, max_nodes=max_nodes)
            rule = res.rule
            if rule is None:
                continue
            key = (rule.lhs, rule.rhs)
            mirror_key = ((rule.rhs, rule.lhs)
                          if rule.kind is RuleKind.PRESERVING else None)
            if key in added_keys or mirror_key in added_keys:
                continue
            added_keys.add(key)
            if mirror_key is not None:
                added_keys.add(mirror_key)
                n_pres += 1
            else:
                n_red += 1
            added.append(rule)
            certificates.append(res)
        if added:
            extended = current.with_rules(added)
            new = set(extended.rules).difference(current.rules)
            current = extended
        phases.append(PhaseStats(index, len(fresh), n_red, n_pres,
                                 len(current.rules)))
        if not added:
            return CompletionResult(current, CompletionStatus.COMPLETED,
                                    tuple(phases), tuple(certificates))
        if len(current.rules) > max_rules:
            return CompletionResult(current, CompletionStatus.RULE_LIMIT,
                                    tuple(phases), tuple(certificates))
    return CompletionResult(current, CompletionStatus.PHASE_LIMIT,
                            tuple(phases), tuple(certificates))
