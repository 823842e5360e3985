"""Pregroups and the rewriting systems of their universal groups.

A pregroup here is a finite set with identity, involution, and a partial
multiplication satisfying the five Stallings conditions.  Two Thue
systems present the universal group: one over all elements with the
identity as an ordinary letter, one over the non-identity elements with
an inverse pairing.  Reduced sequences represent universal-group
elements; two reduced sequences represent the same element exactly when
a chain of mediator slides a b -> (a*c)(c^-1*b) connects them.

The preserving rules of both universal systems are read straight from
the pregroup's slide generator, each unordered pair of sides once.
Only the slide search tabulates the slides: on its first use the table
maps every pair (a, b) to its distinct slides, in element order of the
mediator c, and interleave_equivalent searches it with the bounded
closure of ``rewriting``.  up_wp answers the same question without a
search: two reduced sequences are equal exactly when they interleave,
and one left-to-right pass over the pair computes the only possible
carries.  p_reduce is the one reduction of sequences, left to right;
the tests contract at random spots to check that all maximal
reductions of a sequence have one length and interleave.

Pregroup files are read by the directive reader of ``words``; their
grammar is under "File formats" in the README.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (DEFAULT_MAX_NODES, FormatError, PreconditionError,
                     StructureError, _check_budget)
from .rewriting import _closure
from .systems import RewriteSystem, _step_set, preserving, reducing
from .words import (Alphabet, _directive_shapes, _directive_table,
                    _element_letters, _read_directives, _single_directive)

Seq = Tuple[str, ...]


class Pregroup:
    """Finite partial multiplication table with identity and involution.

    Products implied by the identity and inverse laws are materialized at
    construction; explicit entries contradicting them are rejected.
    _each_slide generates the slides, which the universal systems read.
    The slide table is tabulated only for interleave_equivalent, on its
    first use, in the step-set shape of the bounded closure:
    _slides.rhs_of maps each pair (a, b) to the pairs (a*c, c^-1*b) for
    the mediators c in element order, without repeats or (a, b) itself.
    """

    __slots__ = ("elements", "eps", "inv", "mult", "index", "_right",
                 "_slide_table")

    def __init__(self, elements: Sequence[str], eps: str,
                 inv: Dict[str, str], mult: Dict[Tuple[str, str], str]):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise StructureError("duplicate element names")
        known = set(elements)
        if eps not in known:
            raise StructureError(f"identity {eps!r} is not an element")
        inv = dict(inv)
        inv.setdefault(eps, eps)
        for a in elements:
            b = inv.get(a)
            if b is None:
                raise StructureError(f"no inverse declared for {a!r}")
            if b not in known:
                raise StructureError(f"inverse of {a!r} is unknown name {b!r}")
            if inv.get(b) != a:
                raise StructureError(f"involution broken at {a!r}/{b!r}")
        if inv[eps] != eps:
            raise StructureError("identity must be self-inverse")

        table: Dict[Tuple[str, str], str] = {}

        def put(a, b, c, why):
            old = table.get((a, b))
            if old is not None and old != c:
                raise StructureError(
                    f"conflicting products {a!r}*{b!r}: {old!r} vs {c!r} ({why})")
            table[(a, b)] = c

        for a in elements:
            put(eps, a, a, "identity law")
            put(a, eps, a, "identity law")
            put(a, inv[a], eps, "inverse law")
            put(inv[a], a, eps, "inverse law")
        for (a, b), c in mult.items():
            if a not in known or b not in known or c not in known:
                raise StructureError(f"product entry {a!r}*{b!r}={c!r} uses unknown name")
            put(a, b, c, "explicit entry")

        self.elements = elements
        self.eps = eps
        self.inv = inv
        self.mult = table
        self.index = {a: i for i, a in enumerate(elements)}
        right: Dict[str, List[str]] = {a: [] for a in elements}
        for (a, b) in table:
            right[a].append(b)
        order = self.index
        self._right = {a: tuple(sorted(bs, key=order.__getitem__))
                       for a, bs in right.items()}

        self._slide_table = None

    @property
    def _slides(self):
        """The slide table, tabulated on first use."""
        if self._slide_table is None:
            self._slide_table = _step_set(self._each_slide())
        return self._slide_table

    def _each_slide(self):
        table, inv, right = self.mult, self.inv, self._right
        pairs: Dict[Seq, Seq] = {}  # one tuple per distinct slide result
        for a in self.elements:
            via = [(table[(a, c)], inv[c]) for c in right[a]]
            for b in self.elements:
                for ac, c_inv in via:
                    cb = table.get((c_inv, b))
                    if cb is not None and (ac, cb) != (a, b):
                        pair = (ac, cb)
                        yield (a, b), pairs.setdefault(pair, pair)

    def defined(self, a: str, b: str) -> bool:
        return (a, b) in self.mult

    def prod(self, a: str, b: str) -> str:
        c = self.mult.get((a, b))
        if c is None:
            raise PreconditionError(f"product {a!r}*{b!r} is not defined")
        return c

    def inverse(self, a: str) -> str:
        return self.inv[a]

    def right_factors(self, a: str) -> Tuple[str, ...]:
        """b such that a*b is defined, in element order."""
        return self._right[a]

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return (f"Pregroup({len(self.elements)} elements, "
                f"{len(self.mult)} defined products)")


@dataclass
class AxiomCheck:
    ok: bool
    counterexample: Optional[Tuple[str, ...]] = None

    def to_dict(self):
        return {"ok": self.ok,
                "counterexample": list(self.counterexample) if self.counterexample else None}


@dataclass
class AxiomReport:
    p1: AxiomCheck
    p2: AxiomCheck
    p3: AxiomCheck
    p4: AxiomCheck
    p5: AxiomCheck

    @property
    def ok(self) -> bool:
        return all(c.ok for c in (self.p1, self.p2, self.p3, self.p4, self.p5))

    def to_dict(self):
        return {"ok": self.ok,
                "p1": self.p1.to_dict(), "p2": self.p2.to_dict(),
                "p3": self.p3.to_dict(), "p4": self.p4.to_dict(),
                "p5": self.p5.to_dict()}


def _first(counterexamples: Iterable[Tuple[str, ...]]) -> AxiomCheck:
    """The check failed by the first counterexample, or passed."""
    for bad in counterexamples:
        return AxiomCheck(False, bad)
    return AxiomCheck(True)


def check_axioms(P: Pregroup) -> AxiomReport:
    """Verify the five conditions, reporting the first counterexample each.

    Each condition is one search: over the elements for P1 and P2, and
    over the defined products a*b in table order for P3-P5, extended by
    the right factors c of b and then d of c in element order.
    """
    eps, inv, mult, right = P.eps, P.inv, P.mult, P.right_factors
    return AxiomReport(
        _first((a,) for a in P.elements
               if mult.get((eps, a)) != a or mult.get((a, eps)) != a),
        _first((a,) for a in P.elements
               if mult.get((a, inv[a])) != eps
               or mult.get((inv[a], a)) != eps),
        _first((a, b) for (a, b), c in mult.items()
               if mult.get((inv[b], inv[a])) != inv[c]),
        # associativity where both sides are grounded in defined pairs
        _first((a, b, c) for (a, b), ab in mult.items() for c in right(b)
               if mult.get((ab, c)) != mult.get((a, mult[(b, c)]))),
        # one of the two outer triples must associate
        _first((a, b, c, d) for (a, b), ab in mult.items() for c in right(b)
               if (ab, c) not in mult and (a, mult[(b, c)]) not in mult
               for d in right(c)
               if (mult[(b, c)], d) not in mult
               and (b, mult[(c, d)]) not in mult))


def _sorted_products(P: Pregroup):
    """The defined products, by the element order of their factors."""
    return sorted(P.mult.items(), key=lambda kv: (P.index[kv[0][0]],
                                                 P.index[kv[0][1]]))


def _slide_pairs(P: Pregroup):
    """The slides of P straight from its generator, each unordered pair
    once, in the direction met first: RewriteSystem adds the mirrors."""
    emitted = set()
    for pair in P._each_slide():
        lhs, rhs = pair
        if (rhs, lhs) in emitted or pair in emitted:
            continue
        emitted.add(pair)
        yield pair


def universal_system(P: Pregroup) -> RewriteSystem:
    """Thue system over all elements, the identity kept as a letter.

    Reducing rules erase the identity letter and contract every defined
    product.  Preserving rules are the pregroup's slides, read from its
    generator without tabulating them.
    """
    ids = P.index
    rules = [reducing((ids[P.eps],), ())]
    for (a, b), c in _sorted_products(P):
        rules.append(reducing((ids[a], ids[b]), (ids[c],)))
    for (a, b), (x, y) in _slide_pairs(P):
        rules.append(preserving((ids[a], ids[b]), (ids[x], ids[y])))
    return RewriteSystem(Alphabet(P.elements), rules)


def universal_system_prime(P: Pregroup) -> RewriteSystem:
    """Thue system over the non-identity elements, with inverse pairing.

    All rule sides avoid the identity letter, so the system is a group
    presentation system: cancellations, contractions of defined products
    with non-trivial result, and the slides with no identity on either
    side, read from the generator as in universal_system.
    """
    eps = P.eps
    gamma = tuple(a for a in P.elements if a != eps)
    ids = {a: i for i, a in enumerate(gamma)}
    rules = [reducing((ids[a], ids[P.inv[a]]), ()) for a in gamma]
    for (a, b), c in _sorted_products(P):
        if eps not in (a, b, c):
            rules.append(reducing((ids[a], ids[b]), (ids[c],)))
    for (a, b), (x, y) in _slide_pairs(P):
        if eps not in (a, b, x, y):
            rules.append(preserving((ids[a], ids[b]), (ids[x], ids[y])))
    pairing = {ids[a]: ids[P.inv[a]] for a in gamma}
    return RewriteSystem(Alphabet(gamma), rules, inverse_pairing=pairing)


def _check_elements(seq: Iterable[str], P: Pregroup) -> None:
    for a in seq:
        if a not in P.index:
            raise PreconditionError(f"unknown element {a!r}")


def p_reduce(seq: Iterable[str], P: Pregroup) -> Seq:
    """Contract adjacent defined products left to right, drop identities."""
    out: List[str] = []
    mult, index = P.mult, P.index
    for a in seq:
        if a not in index:
            raise PreconditionError(f"unknown element {a!r}")
        while out:
            c = mult.get((out[-1], a))
            if c is None:
                break
            out.pop()
            a = c
        out.append(a)
    return tuple(a for a in out if a != P.eps)


def is_reduced(seq: Sequence[str], P: Pregroup) -> bool:
    _check_elements(seq, P)
    if any(a == P.eps for a in seq):
        return False
    return all(not P.defined(seq[i], seq[i + 1]) for i in range(len(seq) - 1))


def interleave_equivalent(u: Sequence[str], v: Sequence[str], P: Pregroup,
                          max_nodes: int = DEFAULT_MAX_NODES) -> bool:
    """Connectivity of two reduced sequences under mediator slides.

    A breadth-first closure from u over the slide table, stopped at v,
    with the node budget of every bounded closure: a slide class of N
    sequences passes at max_nodes=N, and ResourceLimitError(cap=max_nodes)
    is raised when the search would take in one more.  A budget below 1
    raises PreconditionError.
    """
    _check_budget(max_nodes)
    u, v = tuple(u), tuple(v)
    if not is_reduced(u, P) or not is_reduced(v, P):
        raise PreconditionError("interleave check requires reduced sequences")
    if len(u) != len(v):
        return False
    return v in _closure(u, P._slides, max_nodes, "interleave search",
                         target=(v,))


def up_wp(u: Sequence[str], v: Sequence[str], P: Pregroup) -> bool:
    """Word problem of the universal group on arbitrary element sequences.

    Both sequences are reduced with p_reduce.  Over a table that passes
    check_axioms, reduced sequences x and y of equal length are equal in
    the universal group iff they interleave (Stallings): there are
    carries c_0 = eps, ..., c_n = eps with y_i = c_{i-1}^-1 x_i c_i.
    Each carry is forced, c_i = (x_i^-1 c_{i-1}) y_i, so one pass of two
    table lookups per element decides the pair, and it stops at the
    first undefined product.  interleave_equivalent answers the same
    question by a bounded search of the slide class.
    """
    ru = p_reduce(u, P)
    rv = p_reduce(v, P)
    if len(ru) != len(rv):
        return False
    mult, inv = P.mult, P.inv
    c = P.eps
    for x, y in zip(ru, rv):
        c = mult.get((inv[x], c))
        if c is None:
            return False
        c = mult.get((c, y))
        if c is None:
            return False
    return c == P.eps


def _iso_signatures(P: Pregroup):
    lefts = Counter(b for _, b in P.mult)
    return {a: (a == P.eps, P.inv[a] == a, len(P.right_factors(a)), lefts[a])
            for a in P.elements}


def table_isomorphic(P: Pregroup, Q: Pregroup) -> bool:
    """Existence of a bijection matching identity, inverses, and the table."""
    if len(P) != len(Q):
        return False
    if P.elements == Q.elements and P.eps == Q.eps and P.inv == Q.inv \
            and P.mult == Q.mult:
        return True
    sig_p = _iso_signatures(P)
    sig_q = _iso_signatures(Q)
    if sorted(sig_p.values()) != sorted(sig_q.values()):
        return False
    candidates = {a: tuple(b for b in Q.elements if sig_q[b] == sig_p[a])
                  for a in P.elements}
    order = sorted(P.elements, key=lambda a: len(candidates[a]))
    mapping: Dict[str, str] = {}
    used = set()

    def consistent(a: str, b: str) -> bool:
        if Q.inv[b] != mapping.get(P.inv[a], Q.inv[b]):
            return False
        for x, fx in mapping.items():
            for (l, r) in ((a, x), (x, a), (a, a)):
                fl = b if l == a else mapping[l]
                fr = b if r == a else mapping[r]
                c = P.mult.get((l, r))
                fc = Q.mult.get((fl, fr))
                if (c is None) != (fc is None):
                    return False
                if c is not None:
                    img = mapping.get(c, b if c == a else None)
                    if img is not None and img != fc:
                        return False
        return True

    def extend(k: int) -> bool:
        if k == len(order):
            # full table check under the completed bijection
            for (x, y), z in P.mult.items():
                if Q.mult.get((mapping[x], mapping[y])) != mapping[z]:
                    return False
            return len(P.mult) == len(Q.mult)
        a = order[k]
        for b in candidates[a]:
            if b in used or not consistent(a, b):
                continue
            mapping[a] = b
            used.add(b)
            if extend(k + 1):
                return True
            mapping.pop(a)
            used.discard(b)
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# file format

_PREGROUP_LINES = _directive_shapes("pregroup ...", "elements <e>...", "eps <e>",
                                    "inv <x> <y>", "mult <a> <b> = <c>")


def parse_pregroup(text: str) -> Pregroup:
    """Parse the line format: elements, eps, inv, mult directives.

    Elements become the letters of the universal systems, so a name that
    cannot be a letter is a FormatError naming the elements line.
    """
    lines = _read_directives(text, _PREGROUP_LINES)
    elements = _element_letters(lines)
    (eps,) = _single_directive(lines, "eps")
    inv = _directive_table(lines["inv"], "inverse", symmetric=True)
    mult = _directive_table(lines["mult"], "product")
    try:
        return Pregroup(elements, eps, inv, mult)
    except StructureError as exc:
        raise FormatError(str(exc)) from exc


def format_pregroup(P: Pregroup) -> str:
    """Inverse of parse_pregroup; entries implied by identity and inverse
    laws are left out."""
    lines = ["pregroup", "elements " + " ".join(P.elements), f"eps {P.eps}"]
    for a in P.elements:
        b = P.inv[a]
        if a != P.eps and P.index[a] <= P.index[b]:  # the pair's first element
            lines.append(f"inv {a} {b}")
    for (a, b), c in _sorted_products(P):
        if a == P.eps or b == P.eps or b == P.inv[a]:
            continue
        lines.append(f"mult {a} {b} = {c}")
    return "\n".join(lines) + "\n"


def load_pregroup(path) -> Pregroup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pregroup(fh.read())
