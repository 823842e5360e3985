"""Finite groups as Cayley tables, subgroup embeddings, and transversals.

These are the base data for the construction of amalgam and extension
systems.  Everything is verified eagerly: a table that is not a group,
a map that is not an injective homomorphism, or an iso that is not
bijective all fail at construction time.

Group and map files are read by the directive reader of ``words``;
their grammar is under "File formats" in the README.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

from .errors import FormatError, StructureError
from .words import (_directive_shapes, _directive_table, _element_letters,
                    _read_directives, _single_directive)


class FiniteGroup:
    """Total multiplication table over named elements."""

    __slots__ = ("elements", "identity", "table", "index", "inv")

    def __init__(self, elements: Sequence[str], identity: str,
                 table: Dict[Tuple[str, str], str]):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise StructureError("duplicate element names")
        known = set(elements)
        if identity not in known:
            raise StructureError(f"identity {identity!r} is not an element")
        for a in elements:
            for b in elements:
                c = table.get((a, b))
                if c is None:
                    raise StructureError(f"table is missing {a!r}*{b!r}")
                if c not in known:
                    raise StructureError(f"{a!r}*{b!r} leaves the element set")
        for key in table:
            if key[0] not in known or key[1] not in known:
                raise StructureError(f"table entry {key} uses unknown name")
        for a in elements:
            if table[(identity, a)] != a or table[(a, identity)] != a:
                raise StructureError(f"identity law fails at {a!r}")
        for a in elements:
            for b in elements:
                ab = table[(a, b)]
                for c in elements:
                    if table[(ab, c)] != table[(a, table[(b, c)])]:
                        raise StructureError(
                            f"associativity fails at {a!r}, {b!r}, {c!r}")
        inv: Dict[str, str] = {}
        for a in elements:
            for b in elements:
                if table[(a, b)] == identity and table[(b, a)] == identity:
                    inv[a] = b
                    break
            else:
                raise StructureError(f"no inverse for {a!r}")

        self.elements = elements
        self.identity = identity
        self.table = dict(table)
        self.index = {a: i for i, a in enumerate(elements)}
        self.inv = inv

    def mult(self, a: str, b: str) -> str:
        return self.table[(a, b)]

    def inverse(self, a: str) -> str:
        return self.inv[a]

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (isinstance(other, FiniteGroup)
                and self.elements == other.elements
                and self.identity == other.identity
                and self.table == other.table)

    def __hash__(self):
        return hash((self.elements, self.identity))

    def __repr__(self):
        return f"FiniteGroup({len(self.elements)} elements)"


def cyclic_group(n: int, gen: str = "a") -> FiniteGroup:
    """Z/n with elements named 1, gen, gen2, ..."""
    if n < 1:
        raise StructureError("order must be positive")
    names = ["1"] + [gen if k == 1 else f"{gen}{k}" for k in range(1, n)]
    table = {(names[i], names[j]): names[(i + j) % n]
             for i in range(n) for j in range(n)}
    return FiniteGroup(names, "1", table)


def _perm_name(perm: Tuple[int, ...]) -> str:
    # cycle notation without parentheses, 1-based; identity is "1"
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("".join(str(i + 1) for i in cycle))
    return "".join(parts) if parts else "1"


def symmetric_group(n: int) -> FiniteGroup:
    """S_n with cycle-notation names; meant for small n (digits stay
    unambiguous below n = 10)."""
    if not 1 <= n <= 9:
        raise StructureError("supported ranks are 1 through 9")
    perms = sorted(itertools.permutations(range(n)))
    names = {p: _perm_name(p) for p in perms}
    # product applies the right factor first
    table = {}
    for p in perms:
        for q in perms:
            pq = tuple(p[q[i]] for i in range(n))
            table[(names[p], names[q])] = names[pq]
    ordered = sorted(perms, key=lambda p: (len([i for i in range(n) if p[i] != i]),
                                           names[p]))
    return FiniteGroup([names[p] for p in ordered], names[tuple(range(n))], table)


class SubgroupEmbedding:
    """Injective homomorphism of one finite group into another."""

    __slots__ = ("sub", "into", "map", "preimage")

    def __init__(self, sub: FiniteGroup, into: FiniteGroup, mapping: Dict[str, str]):
        for a in sub.elements:
            if a not in mapping:
                raise StructureError(f"embedding undefined on {a!r}")
            if mapping[a] not in into.index:
                raise StructureError(f"embedding sends {a!r} outside the target")
        images = [mapping[a] for a in sub.elements]
        if len(set(images)) != len(images):
            raise StructureError("embedding is not injective")
        if mapping[sub.identity] != into.identity:
            raise StructureError("embedding must send identity to identity")
        for a in sub.elements:
            for b in sub.elements:
                if mapping[sub.mult(a, b)] != into.mult(mapping[a], mapping[b]):
                    raise StructureError(
                        f"embedding breaks multiplication at {a!r}, {b!r}")
        self.sub = sub
        self.into = into
        self.map = {a: mapping[a] for a in sub.elements}
        self.preimage = {v: k for k, v in self.map.items()}

    @property
    def image(self) -> Tuple[str, ...]:
        return tuple(self.map[a] for a in self.sub.elements)


class GroupIso:
    """Bijective homomorphism between two finite groups."""

    __slots__ = ("source", "target", "map")

    def __init__(self, source: FiniteGroup, target: FiniteGroup,
                 mapping: Dict[str, str]):
        if len(source) != len(target):
            raise StructureError("groups of different order cannot be isomorphic")
        emb = SubgroupEmbedding(source, target, mapping)
        if set(emb.image) != set(target.elements):
            raise StructureError("map is not surjective")
        self.source = source
        self.target = target
        self.map = emb.map


def transversal(G: FiniteGroup, emb: SubgroupEmbedding) -> Tuple[str, ...]:
    """One representative per right coset Hg of the embedded subgroup, so
    every g factors as g = h * rep.  The identity represents its own
    coset; other cosets take their earliest declared element.
    """
    if emb.into is not G and emb.into != G:
        raise StructureError("embedding does not target this group")
    H = set(emb.image)
    reps: List[str] = []
    assigned: Dict[str, str] = {}
    for g in G.elements:
        if g in assigned:
            continue
        coset = [G.mult(h, g) for h in H]
        rep = G.identity if G.identity in coset else \
            min(coset, key=G.index.__getitem__)
        reps.append(rep)
        for member in coset:
            assigned[member] = rep
    return tuple(reps)


def coset_decompose(G: FiniteGroup, emb: SubgroupEmbedding, g: str,
                    reps: Sequence[str]) -> Tuple[str, str]:
    """Factor g = h * rep, h in the image and rep in the transversal."""
    H = set(emb.image)
    for rep in reps:
        h = G.mult(g, G.inverse(rep))
        if h in H:
            return h, rep
    raise StructureError(f"{g!r} lies in no coset of the given transversal")


# ---------------------------------------------------------------------------
# file formats

_GROUP_LINES = _directive_shapes("group ...", "elements <e>...", "identity <e>",
                                 "mult <a> <b> = <c>")
_MAP_LINES = _directive_shapes("map <x> -> <y>")


def parse_group(text: str) -> FiniteGroup:
    """Parse the line format: elements, identity, mult directives.

    Elements become the letters of the amalgam and stable-letter
    constructions, so a name that cannot be a letter is a FormatError
    naming the elements line.
    """
    lines = _read_directives(text, _GROUP_LINES)
    elements = _element_letters(lines)
    (identity,) = _single_directive(lines, "identity")
    table = _directive_table(lines["mult"], "product")
    try:
        return FiniteGroup(elements, identity, table)
    except StructureError as exc:
        raise FormatError(str(exc)) from exc


def format_group(G: FiniteGroup) -> str:
    lines = ["group", "elements " + " ".join(G.elements), f"identity {G.identity}"]
    for a in G.elements:
        for b in G.elements:
            lines.append(f"mult {a} {b} = {G.mult(a, b)}")
    return "\n".join(lines) + "\n"


def parse_map(text: str) -> Dict[str, str]:
    return _directive_table(_read_directives(text, _MAP_LINES)["map"], "images")


def format_map(mapping: Dict[str, str]) -> str:
    return "".join(f"map {x} -> {y}\n" for x, y in mapping.items())


def save_group(G: FiniteGroup, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_group(G))
