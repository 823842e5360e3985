"""Two-letter rewriting systems and the pregroup they define.

A system is triangular when every rule rewrites two letters to at most
one; almost triangular additionally tolerates single-letter erasing
rules.  For a geodesic triangular group system, merging letters whose
quotient reduces to the empty word yields a partial multiplication
table on the merged letters.  The construction below refuses, with a
witness, whenever the input fails to behave like a geodesic system:
either the merge is not an equivalence, the table is not well defined,
or the table breaks a pregroup condition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from .errors import PreconditionError, StructureError
from .pregroup import Pregroup, check_axioms
from .rewriting import reduce_lr
from .systems import Rule, RewriteSystem
from .words import EMPTY


class TriangularKind(enum.Enum):
    TRIANGULAR = "triangular"
    ALMOST_TRIANGULAR = "almost-triangular"
    NEITHER = "neither"


def classify_triangular(system: RewriteSystem) -> TriangularKind:
    """TRIANGULAR when every rule rewrites two letters to at most one,
    ALMOST_TRIANGULAR when some rule erases one letter instead and every
    other rule is of the first shape, and NEITHER otherwise."""
    trivial = False
    for rule in system.rules:
        if len(rule.lhs) == 2 and len(rule.rhs) <= 1:
            continue
        if len(rule.lhs) == 1 and len(rule.rhs) == 0:
            trivial = True
            continue
        return TriangularKind.NEITHER
    if trivial:
        return TriangularKind.ALMOST_TRIANGULAR
    return TriangularKind.TRIANGULAR


def reducing_part(system: RewriteSystem) -> RewriteSystem:
    """The reducing rules alone, inverse pairing kept."""
    return RewriteSystem(system.alphabet, system.reducing,
                         inverse_pairing=system.inverse_pairing,
                         symmetrize=system.sp_symmetric)


@dataclass
class LetterClasses:
    """Partition of the letters plus the empty word.

    classes[0] is always the class of the empty word; it holds the
    letters that reduce to nothing and may be empty.  Remaining classes
    are ordered by their smallest letter.
    """

    classes: Tuple[FrozenSet[int], ...]
    class_of: Dict[int, int]


def letter_classes(system: RewriteSystem) -> LetterClasses:
    """Merge letters x, y whenever x y' reduces to the empty word, y' the
    inverse of y.  Sound and complete only for geodesic group systems;
    failures of the equivalence laws raise with a witness."""
    if not system.is_group_system:
        raise PreconditionError("letter classes require an inverse pairing")
    inv = system.inverse_pairing
    alphabet = system.alphabet
    n = len(alphabet)
    name = alphabet.name
    unpaired = [name(x) for x in range(n) if x not in inv]
    if unpaired:
        raise PreconditionError(
            f"letters without inverses: {', '.join(unpaired)}")

    trivial = [x for x in range(n) if reduce_lr((x,), system) == EMPTY]
    trivial_set = set(trivial)
    for x in trivial:
        if inv[x] not in trivial_set:
            raise StructureError(
                f"letter {name(x)!r} erases but its inverse {name(inv[x])!r} "
                "does not; input cannot be geodesic")

    rest = [x for x in range(n) if x not in trivial_set]
    related = {}
    for x in rest:
        for y in rest:
            related[(x, y)] = reduce_lr((x, inv[y]), system) == EMPTY
    for x in rest:
        if not related[(x, x)]:
            raise StructureError(
                f"letter {name(x)!r} is not related to itself; "
                "missing cancellation rule")
        for y in rest:
            if related[(x, y)] != related[(y, x)]:
                raise StructureError(
                    f"letter relation is not symmetric at {name(x)!r}, {name(y)!r}")
            if related[(x, y)] and not related[(inv[x], inv[y])]:
                raise StructureError(
                    f"letter relation ignores inverses at {name(x)!r}, {name(y)!r}")
            if related[(x, y)]:
                for z in rest:
                    if related[(y, z)] and not related[(x, z)]:
                        raise StructureError(
                            "letter relation is not transitive at "
                            f"{name(x)!r}, {name(y)!r}, {name(z)!r}")

    classes: List[FrozenSet[int]] = [frozenset(trivial_set)]
    class_of: Dict[int, int] = {x: 0 for x in trivial}
    for x in rest:
        if x in class_of:
            continue
        members = frozenset(y for y in rest if related[(x, y)])
        cid = len(classes)
        classes.append(members)
        for y in members:
            class_of[y] = cid
    return LetterClasses(tuple(classes), class_of)


def _eps_name(taken) -> str:
    for candidate in ("1", "eps", "e"):
        if candidate not in taken:
            return candidate
    k = 0
    while f"e{k}" in taken:
        k += 1
    return f"e{k}"


def pregroup_from_system(system: RewriteSystem) -> Pregroup:
    """Partial multiplication on letter classes read off the rules.

    Each two-letter rule contributes one table entry; single-letter
    erasing rules only feed the identity class.  Distinct rules landing
    on the same class pair must agree, the implied identity and inverse
    entries must not be contradicted, and the finished table must pass
    the pregroup conditions.  Any violation raises, as evidence the
    input was not a geodesic triangular system.
    """
    if classify_triangular(system) is TriangularKind.NEITHER:
        raise PreconditionError("system is not triangular or almost triangular")
    if not system.is_group_system:
        raise PreconditionError("pregroup construction requires a group system")
    lc = letter_classes(system)
    alphabet = system.alphabet
    inv = system.inverse_pairing

    # class 0 is the empty word's
    rep_name: Dict[int, str] = {}
    for cid, members in enumerate(lc.classes[1:], 1):
        rep_name[cid] = alphabet.name(min(members))
    eps = _eps_name(set(rep_name.values()))
    rep_name[0] = eps

    inv_name: Dict[str, str] = {eps: eps}
    for cid, members in enumerate(lc.classes[1:], 1):
        target = lc.class_of[inv[min(members)]]
        inv_name[rep_name[cid]] = rep_name[target]

    table: Dict[Tuple[str, str], str] = {}
    origin: Dict[Tuple[str, str], Rule] = {}
    for rule in system.rules:
        if len(rule.lhs) != 2:
            continue
        x, y = rule.lhs
        p, q = rep_name[lc.class_of[x]], rep_name[lc.class_of[y]]
        if rule.rhs == EMPTY:
            value = eps
        else:
            value = rep_name[lc.class_of[rule.rhs[0]]]
        old = table.get((p, q))
        if old is not None and old != value:
            prev = origin[(p, q)]
            raise StructureError(
                "table not well defined: rules "
                f"{alphabet.format(prev.lhs)} -> {alphabet.format(prev.rhs)} and "
                f"{alphabet.format(rule.lhs)} -> {alphabet.format(rule.rhs)} "
                f"give {old!r} vs {value!r} on classes ({p!r}, {q!r})")
        table[(p, q)] = value
        origin[(p, q)] = rule

    elements = [rep_name[cid] for cid in range(len(lc.classes))]
    result = Pregroup(elements, eps, inv_name, table)

    report = check_axioms(result)
    if not report.ok:
        # the fields p1..p5 in order, each with its first counterexample
        failed = [(label, c) for label, c in vars(report).items() if not c.ok]
        raise StructureError(
            f"derived table violates {', '.join(label for label, _ in failed)} "
            f"at {failed[0][1].counterexample}; "
            "input cannot be a geodesic triangular system")
    return result
