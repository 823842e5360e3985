"""Generators for the worked example families.

Graph groups and Coxeter systems come out as plain Thue systems.  The
amalgamated product of two finite groups over a shared subgroup yields
both a Thue system (via transversal decompositions) and a pregroup.
The extension of a finite group by a stable letter conjugating one
subgroup onto another yields three artifacts: a convergent but
length-increasing rewrite program, the length-reducing pinch system,
and a pregroup on the elements of syllable length at most one.  All
three read one derivation of the stable-letter data (_StableLetter):
the input checks, the alphabet, the isomorphism on the subgroup images
both ways, the right transversals, the products of the base group and
the inverse of every letter.  The pregroup derives it once, looks the
normal form of each product up among its carrier words, and reads the
inverses off the finished table.  A program evaluates leftmost first
(normal_form) only; the tests rewrite it at random matches.  A Coxeter
system needs one name per generator, or takes a, b, ... up to rank 26.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import PreconditionError, ResourceLimitError, StructureError
from .groups import (FiniteGroup, GroupIso, SubgroupEmbedding, coset_decompose,
                     cyclic_group, symmetric_group, transversal)
from .pregroup import Pregroup, check_axioms
from .rewriting import thue_resolution
from .systems import RewriteSystem, parse_rule_pairs, preserving, reducing
from .words import Alphabet, Word


class CommutationGraph:
    """Finite simple graph on generator names."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: Sequence[str], edges: Sequence[Tuple[str, str]]):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise StructureError("duplicate vertex names")
        order = {v: i for i, v in enumerate(vertices)}
        normalized = []
        for (u, v) in edges:
            if u not in order or v not in order:
                raise StructureError(f"edge ({u!r}, {v!r}) leaves the vertex set")
            if u == v:
                raise StructureError(f"loop at {u!r}")
            if order[u] > order[v]:
                u, v = v, u
            normalized.append((u, v))
        self.vertices = vertices
        self.edges = tuple(dict.fromkeys(normalized))


def _inverse_names(vertices: Sequence[str]) -> Dict[str, str]:
    taken = set(vertices)
    out: Dict[str, str] = {}
    for v in vertices:
        cand = v.upper()
        if not (len(v) == 1 and v.islower() and cand not in taken):
            cand = v + "^-1"
        if cand in taken:
            raise StructureError(f"cannot name an inverse for {v!r}")
        taken.add(cand)
        out[v] = cand
    return out


def build_graph_group(graph: CommutationGraph) -> RewriteSystem:
    """Free cancellations plus commutations for each edge, in all four
    sign combinations."""
    inv_name = _inverse_names(graph.vertices)
    names: List[str] = []
    for v in graph.vertices:
        names.append(v)
        names.append(inv_name[v])
    alphabet = Alphabet(names)
    pairing = {}
    for v in graph.vertices:
        i, j = alphabet.id(v), alphabet.id(inv_name[v])
        pairing[i] = j
        pairing[j] = i
    rules = []
    for v in graph.vertices:
        i, j = alphabet.id(v), alphabet.id(inv_name[v])
        rules.append(reducing((i, j), ()))
        rules.append(reducing((j, i), ()))
    for (u, v) in graph.edges:
        for a in (alphabet.id(u), alphabet.id(inv_name[u])):
            for b in (alphabet.id(v), alphabet.id(inv_name[v])):
                rules.append(preserving((a, b), (b, a)))
    return RewriteSystem(alphabet, rules, inverse_pairing=pairing)


@dataclass(frozen=True)
class CoxeterMatrix:
    entries: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise StructureError("matrix must be square")
            for value in row:
                if not isinstance(value, int) or value < 0:
                    raise StructureError("entries must be nonnegative integers")
        for i in range(n):
            if self.entries[i][i] != 1:
                raise StructureError("diagonal entries must be 1")
            for j in range(n):
                if self.entries[i][j] != self.entries[j][i]:
                    raise StructureError("matrix must be symmetric")

    @property
    def n(self) -> int:
        return len(self.entries)


def build_tits_system(M: CoxeterMatrix,
                      names: Optional[Sequence[str]] = None) -> RewriteSystem:
    """Involution rules plus alternating braid equations.

    Entry 0 stands for an unbounded pair and emits nothing; an
    off-diagonal 1 would identify two generators and is rejected.
    """
    n = M.n
    if names is None:
        if n > 26:
            raise PreconditionError("supply names for rank above 26")
        names = [chr(ord("a") + i) for i in range(n)]
    elif len(names) != n:
        raise PreconditionError(
            f"rank {n} needs {n} names, got {len(names)}")
    alphabet = Alphabet(names)
    rules = []
    for i in range(n):
        rules.append(reducing((i, i), ()))
    for i in range(n):
        for j in range(i + 1, n):
            m = M.entries[i][j]
            if m == 0:
                continue
            if m == 1:
                raise PreconditionError(
                    f"entry 1 at ({i}, {j}) would identify the generators")
            lhs = tuple(i if k % 2 == 0 else j for k in range(m))
            rhs = tuple(j if k % 2 == 0 else i for k in range(m))
            rules.append(preserving(lhs, rhs))
    return RewriteSystem(alphabet, rules,
                         inverse_pairing={i: i for i in range(n)})


# ---------------------------------------------------------------------------
# amalgamated products

def _check_shared_subgroup(embA: SubgroupEmbedding, embB: SubgroupEmbedding):
    if embA.sub is not embB.sub and embA.sub != embB.sub:
        raise StructureError("the two embeddings must share one subgroup")


def _amalgam_letters(A: FiniteGroup, B: FiniteGroup,
                     embA: SubgroupEmbedding, embB: SubgroupEmbedding):
    """Non-identity elements of both factors, subgroup images identified
    and named after the first factor."""
    _check_shared_subgroup(embA, embB)
    b_img = set(embB.image)
    a_name: Dict[str, Optional[str]] = {}
    b_name: Dict[str, Optional[str]] = {}
    letters: List[str] = []
    for a in A.elements:
        if a == A.identity:
            a_name[a] = None
            continue
        a_name[a] = a
        letters.append(a)
    for b in B.elements:
        if b == B.identity:
            b_name[b] = None
        elif b in b_img:
            b_name[b] = embA.map[embB.preimage[b]]
        else:
            b_name[b] = b
            letters.append(b)
    if len(set(letters)) != len(letters) or A.identity in letters:
        raise StructureError("element name clash between the factors")
    return letters, a_name, b_name


def build_amalgam_system(A: FiniteGroup, B: FiniteGroup,
                         embA: SubgroupEmbedding, embB: SubgroupEmbedding,
                         symmetrize: bool = True) -> RewriteSystem:
    """Multiplication rules inside each factor, and mixed-pair rules that
    pull the subgroup part of the right letter across to the left.

    Mixed rules preserve length in general; they enter the Thue
    resolution, symmetric by default, which drops the trivial pairs and
    keeps the first of repeated rules.  symmetrize=False keeps only the
    indicated direction of each length-preserving rule.
    """
    letters, a_name, b_name = _amalgam_letters(A, B, embA, embB)
    alphabet = Alphabet(letters)
    b_img = set(embB.image)
    a_img = set(embA.image)

    def wrd(*names) -> Word:
        return tuple(alphabet.id(n) for n in names if n is not None)

    factors = ((A, a_name), (B, b_name))
    pairs: List[Tuple[Word, Word]] = []
    for F, name in factors:
        for x in F.elements:
            for y in F.elements:
                if x != F.identity and y != F.identity:
                    pairs.append((wrd(name[x], name[y]),
                                  wrd(name[F.mult(x, y)])))

    X = transversal(A, embA)
    Y = transversal(B, embB)
    for a in A.elements:
        if a == A.identity or a in a_img:
            continue
        for b in B.elements:
            if b == B.identity or b in b_img:
                continue
            h_b, y = coset_decompose(B, embB, b, Y)
            h_in_A = embA.map[embB.preimage[h_b]]
            pairs.append((wrd(a_name[a], b_name[b]),
                          wrd(a_name[A.mult(a, h_in_A)], b_name[y])))
            h_a, x = coset_decompose(A, embA, a, X)
            h_in_B = embB.map[embA.preimage[h_a]]
            pairs.append((wrd(b_name[b], a_name[a]),
                          wrd(b_name[B.mult(b, h_in_B)], a_name[x])))

    pairing = {alphabet.id(name[g]): alphabet.id(name[F.inverse(g)])
               for F, name in factors for g in F.elements if g != F.identity}
    return thue_resolution(alphabet, pairs, inverse_pairing=pairing,
                           symmetrize=symmetrize)


def build_amalgam_pregroup(A: FiniteGroup, B: FiniteGroup,
                           embA: SubgroupEmbedding,
                           embB: SubgroupEmbedding) -> Pregroup:
    """Union of the two factors over the shared subgroup; products are
    defined exactly inside each factor."""
    letters, a_name, b_name = _amalgam_letters(A, B, embA, embB)
    eps = A.identity
    if B.identity != eps and B.identity in letters:
        raise StructureError("identity name clash between the factors")
    elements = [eps] + letters

    def nm(table_name: Optional[str]) -> str:
        return eps if table_name is None else table_name

    mult: Dict[Tuple[str, str], str] = {}
    for x in A.elements:
        for y in A.elements:
            mult[(nm(a_name[x]), nm(a_name[y]))] = nm(a_name[A.mult(x, y)])
    for x in B.elements:
        for y in B.elements:
            key = (nm(b_name[x]), nm(b_name[y]))
            value = nm(b_name[B.mult(x, y)])
            if mult.get(key, value) != value:
                raise StructureError(
                    f"factors disagree on the shared subgroup at {key}")
            mult[key] = value

    inv: Dict[str, str] = {eps: eps}
    for a in A.elements:
        inv[nm(a_name[a])] = nm(a_name[A.inverse(a)])
    for b in B.elements:
        inv[nm(b_name[b])] = nm(b_name[B.inverse(b)])

    result = Pregroup(elements, eps, inv, mult)
    report = check_axioms(result)
    if not report.ok:
        raise StructureError(f"amalgam table fails the axioms: {report.to_dict()}")
    return result


# ---------------------------------------------------------------------------
# stable-letter extensions

class RuleProgram:
    """Ordered rewrite rules with no length discipline.

    Rules may grow words, so this is kept apart from the Thue systems.
    Evaluation rewrites at the leftmost matching position, earliest
    declared rule first; the callers only build terminating programs,
    and a step budget guards against mistakes.
    """

    __slots__ = ("alphabet", "rules", "_longest_lhs")

    def __init__(self, alphabet: Alphabet, rules: Sequence[Tuple[Word, Word]]):
        checked = []
        for lhs, rhs in rules:
            lhs, rhs = tuple(lhs), tuple(rhs)
            if not lhs:
                raise StructureError("empty left-hand side")
            for sym in lhs + rhs:
                alphabet.name(sym)
            if lhs == rhs:
                raise StructureError("rule must change the word")
            checked.append((lhs, rhs))
        self.alphabet = alphabet
        self.rules = tuple(checked)
        self._longest_lhs = max((len(l) for l, _ in self.rules), default=1)

    def normal_form(self, word: Word, max_steps: int = 10 ** 6) -> Word:
        w = tuple(word)
        steps = 0
        i = 0
        while i < len(w):
            for lhs, rhs in self.rules:
                if w[i:i + len(lhs)] == lhs:
                    w = w[:i] + rhs + w[i + len(lhs):]
                    steps += 1
                    if steps > max_steps:
                        raise ResourceLimitError(
                            "normal form exceeded the step budget", cap=max_steps)
                    # a new redex can only reach back by one window
                    i = max(0, i - self._longest_lhs + 1)
                    break
            else:
                i += 1
        return w


def format_rule_program(program: RuleProgram) -> str:
    """Serialize a rule program in the relaxed rule-pair file syntax."""
    alphabet = program.alphabet
    lines = ["alphabet " + " ".join(alphabet.names)]
    for lhs, rhs in program.rules:
        lines.append(f"rule {alphabet.format(lhs)} -> {alphabet.format(rhs)}")
    return "\n".join(lines) + "\n"


def parse_rule_program(text: str) -> RuleProgram:
    alphabet, pairs = parse_rule_pairs(text)
    return RuleProgram(alphabet, pairs)


class _StableLetter:
    """What the three stable-letter constructions share, derived once
    from the base group G, the embeddings of A and B, and phi: A -> B.

    The alphabet is t, T and G's non-identity elements; phi and phi_inv
    act on the subgroup images; X and Y are the right transversals of A
    and B; base_rules are the products x y -> xy of G; inverse pairs
    every letter with its inverse.
    """

    def __init__(self, G: FiniteGroup, embA: SubgroupEmbedding,
                 embB: SubgroupEmbedding, phi: GroupIso):
        for emb in (embA, embB):
            if emb.into is not G and emb.into != G:
                raise StructureError("embeddings must target the base group")
        if phi.source is not embA.sub and phi.source != embA.sub:
            raise StructureError("iso domain must be the first subgroup")
        if phi.target is not embB.sub and phi.target != embB.sub:
            raise StructureError("iso range must be the second subgroup")
        if "t" in G.index or "T" in G.index:
            raise StructureError("base group may not use the names 't' or 'T'")
        letters = [g for g in G.elements if g != G.identity]
        self.G, self.embA, self.embB = G, embA, embB
        self.alphabet = Alphabet(["t", "T"] + letters)
        self.t, self.T = self.alphabet.id("t"), self.alphabet.id("T")
        self.phi = {embA.map[k]: embB.map[v] for k, v in phi.map.items()}
        self.phi_inv = {v: k for k, v in self.phi.items()}
        self.X = transversal(G, embA)
        self.Y = transversal(G, embB)
        self.base_rules = [(self.word(g, h), self.word(G.mult(g, h)))
                           for g in letters for h in letters]
        self.inverse = {self.t: self.T, self.T: self.t}
        for g in letters:
            self.inverse[self.alphabet.id(g)] = self.alphabet.id(G.inverse(g))

    def word(self, *names: str) -> Word:
        """The letters of the named elements, the identity left out."""
        return tuple(self.alphabet.id(n) for n in names if n != self.G.identity)


def _hnn_program(d: _StableLetter) -> RuleProgram:
    G, t, T = d.G, d.t, d.T
    rules: List[Tuple[Word, Word]] = [((t, T), ()), ((T, t), ())] + d.base_rules
    # t b y -> phi_inv(b) t y over b in B, and T a x -> phi(a) T x over a in A
    for mark, emb, reps, move in ((t, d.embB, d.Y, d.phi_inv),
                                  (T, d.embA, d.X, d.phi)):
        for g in G.elements:
            if g == G.identity:
                continue
            h, rep = coset_decompose(G, emb, g, reps)
            lhs = (mark,) + d.word(g)
            rhs = d.word(move[h]) + (mark,) + d.word(rep)
            if lhs != rhs:
                rules.append((lhs, rhs))
    return RuleProgram(d.alphabet, rules)


def build_hnn_system(G: FiniteGroup, embA: SubgroupEmbedding,
                     embB: SubgroupEmbedding, phi: GroupIso) -> RuleProgram:
    """Convergent program for the extension of G by a stable letter.

    The stable letter moves right across a base letter by splitting it
    along the relevant coset decomposition; those rules can grow a word
    by one letter, hence a RuleProgram rather than a Thue system.
    """
    return _hnn_program(_StableLetter(G, embA, embB, phi))


def build_britton_system(G: FiniteGroup, embA: SubgroupEmbedding,
                         embB: SubgroupEmbedding, phi: GroupIso) -> RewriteSystem:
    """Length-reducing pinch rules; confluent on the class of the empty
    word but not geodesic."""
    d = _StableLetter(G, embA, embB, phi)
    t, T = d.t, d.T
    rules = [reducing(lhs, rhs)
             for lhs, rhs in [((t, T), ()), ((T, t), ())] + d.base_rules]
    # T a t -> phi(a) over a in A, and t b T -> phi_inv(b) over b in B
    for left, right, emb, move in ((T, t, embA, d.phi), (t, T, embB, d.phi_inv)):
        for h in emb.image:
            if h != G.identity:
                rules.append(reducing((left,) + d.word(h) + (right,),
                                      d.word(move[h])))
    return RewriteSystem(d.alphabet, rules, inverse_pairing=d.inverse)


def build_hnn_pregroup(G: FiniteGroup, embA: SubgroupEmbedding,
                       embB: SubgroupEmbedding, phi: GroupIso) -> Pregroup:
    """Elements of syllable length at most one, i.e. G together with the
    formal products g t y and g t' x over the two transversals.

    Each carrier element has a word that the convergent program leaves
    fixed.  A product is defined exactly when the normal form of the
    two words is one of these words, and the inverse of u is the v with
    u*v the identity.  The axiom check then arbitrates the result.
    """
    d = _StableLetter(G, embA, embB, phi)
    program = _hnn_program(d)

    names: List[str] = list(G.elements)
    denote: Dict[str, Word] = {g: d.word(g) for g in G.elements}
    for mark, reps in (("t", d.Y), ("T", d.X)):
        for g in G.elements:
            for rep in reps:
                name = f"{g}.{mark}.{rep}"
                names.append(name)
                denote[name] = d.word(g) + (d.alphabet.id(mark),) + d.word(rep)
    if len(set(names)) != len(names):
        raise StructureError("carrier names collide; rename the base group")
    # every carrier word is a normal form, so a product lies in the
    # carrier exactly when its normal form is one of them
    carrier = {w: u for u, w in denote.items()}

    mult: Dict[Tuple[str, str], str] = {}
    for u in names:
        for v in names:
            w = carrier.get(program.normal_form(denote[u] + denote[v]))
            if w is not None:
                mult[(u, v)] = w

    inv = {u: v for (u, v), w in mult.items() if w == G.identity}
    result = Pregroup(names, G.identity, inv, mult)
    report = check_axioms(result)
    if not report.ok:
        raise StructureError(
            f"stable-letter table fails the axioms: {report.to_dict()}")
    return result


# ---------------------------------------------------------------------------
# shipped base data

@dataclass(frozen=True)
class AmalgamData:
    A: FiniteGroup
    B: FiniteGroup
    H: FiniteGroup
    embA: SubgroupEmbedding
    embB: SubgroupEmbedding


@dataclass(frozen=True)
class HnnData:
    G: FiniteGroup
    H: FiniteGroup
    embA: SubgroupEmbedding
    embB: SubgroupEmbedding
    phi: GroupIso


def example_amalgam() -> AmalgamData:
    """Z/4 and Z/6 glued along their Z/2."""
    A = cyclic_group(4, "r")
    B = cyclic_group(6, "s")
    H = cyclic_group(2, "h")
    embA = SubgroupEmbedding(H, A, {"1": "1", "h": "r2"})
    embB = SubgroupEmbedding(H, B, {"1": "1", "h": "s3"})
    return AmalgamData(A, B, H, embA, embB)


def example_hnn() -> HnnData:
    """S_3 with a stable letter conjugating a transposition to itself."""
    G = symmetric_group(3)
    H = cyclic_group(2, "h")
    emb = SubgroupEmbedding(H, G, {"1": "1", "h": "12"})
    phi = GroupIso(H, H, {"1": "1", "h": "h"})
    return HnnData(G, H, emb, emb, phi)
