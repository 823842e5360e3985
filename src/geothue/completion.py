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

A pair is classified by the key (lhs, rhs) of the rule it would add, or
none: both sides are reduced with the reducer's loop, each distinct side
once per phase, and, when the normal forms differ but have one length,
sp_equivalent is asked, which reads the system's preserving classes,
handed on by with_rules while the preserving rules stay the same.  A
phase classifies every fresh pair, in order, and keeps a rule only when
the phase holds neither its key nor, for a preserving rule, the mirror
key; only a kept pair is passed to resolve_pair, which reduces both
sides with reduce_lr_trace and reads the normal forms, the key and the
certificate chain off those two traces.  So a pair whose rule the phase
already holds is never traced.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .confluence import CriticalPair, critical_pairs, sp_equivalent
from .errors import DEFAULT_MAX_NODES, PreconditionError, _check_budget
from .rewriting import _reduce_lr, reduce_lr_trace
from .systems import Rule, RewriteSystem, preserving, reducing
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


def _rule_key(x_hat: Word, y_hat: Word, system: RewriteSystem,
              max_nodes: int) -> Optional[Tuple[Word, Word]]:
    """(lhs, rhs) of the rule that a pair with normal forms x_hat and
    y_hat adds, or None when they are equal or S_P-equivalent.  Unequal
    lengths give a reducing rule from the longer normal form, equal ones
    the preserving rule x_hat <-> y_hat.  The key is never one of the
    system's rules: a reducing lhs is a normal form, a preserving rule
    joins two inequivalent ones."""
    if x_hat == y_hat:
        return None
    if len(x_hat) == len(y_hat):
        if sp_equivalent(x_hat, y_hat, system, max_nodes=max_nodes):
            return None
        return x_hat, y_hat
    if len(x_hat) > len(y_hat):
        return x_hat, y_hat
    return y_hat, x_hat


def resolve_pair(pair: CriticalPair, system: RewriteSystem,
                 max_nodes: int = DEFAULT_MAX_NODES) -> Resolution:
    """Reduce both sides with reduce_lr_trace, classify the pair by the
    rule its normal forms add (_rule_key) and, for a pair that adds one,
    read its chain off the same two traces.  kb_complete passes only the
    pairs whose rule it keeps.  max_nodes is sp_equivalent's budget.
    """
    _check_budget(max_nodes)
    x_hat, x_steps = reduce_lr_trace(pair.x, system)
    y_hat, y_steps = reduce_lr_trace(pair.y, system)
    key = _rule_key(x_hat, y_hat, system, max_nodes)
    if key is None:
        action = (ResolutionAction.JOINED if x_hat == y_hat
                  else ResolutionAction.SP_EQUIVALENT)
        return Resolution(pair, action, x_hat, y_hat, None, ())
    lhs, rhs = key
    if len(lhs) == len(rhs):
        action, rule = ResolutionAction.ADD_PRESERVING, preserving(lhs, rhs)
    else:
        action, rule = ResolutionAction.ADD_REDUCING, reducing(lhs, rhs)
    # x's reduction reversed, z, y's reduction
    down_x = [before for before, _pos, _rule in x_steps] + [x_hat]
    down_y = [before for before, _pos, _rule in y_steps] + [y_hat]
    chain = tuple(down_x[::-1]) + (pair.z,) + tuple(down_y)
    return Resolution(pair, action, x_hat, y_hat, rule, chain)


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
        # a kept key is filed with its mirror: a preserving rule's mirror
        # is the same equation, and a reducing key's is never a key
        added_keys: Set[Tuple[Word, Word]] = set()
        kept: List[Resolution] = []
        normal_forms: Dict[Word, Word] = {}
        for pair in fresh:
            for side in (pair.x, pair.y):
                if side not in normal_forms:
                    normal_forms[side] = _reduce_lr(side, current, None)
            key = _rule_key(normal_forms[pair.x], normal_forms[pair.y],
                            current, max_nodes)
            if key is None or key in added_keys:
                continue
            added_keys.add(key)
            added_keys.add(key[::-1])
            kept.append(resolve_pair(pair, current, max_nodes=max_nodes))
        certificates += kept
        added = [res.rule for res in kept]
        n_pres = sum(res.action is ResolutionAction.ADD_PRESERVING for res in kept)
        n_red = len(kept) - n_pres
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
