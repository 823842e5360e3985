import random

import pytest

from geothue import builders
from geothue.builders import (CommutationGraph, CoxeterMatrix, RuleProgram,
                              build_amalgam_pregroup, build_amalgam_system,
                              build_britton_system, build_graph_group,
                              build_hnn_pregroup, build_hnn_system,
                              build_tits_system, format_rule_program,
                              parse_rule_program)
from geothue.confluence import check_geodesically_perfect
from geothue.errors import (AlphabetError, PreconditionError,
                            ResourceLimitError, StructureError)
from geothue.groups import (GroupIso, SubgroupEmbedding, cyclic_group,
                            symmetric_group)
from geothue.pregroup import (check_axioms, table_isomorphic,
                              universal_system_prime)
from geothue.rewriting import dehn_wp, reduce_lr
from geothue.systems import RuleKind
from geothue.triangular import pregroup_from_system, reducing_part
from tests.conftest import (GENERATED, _cyclic_hnn, _cyclic_hnn_data,
                            fixture_path, program_is_irreducible,
                            program_reduce_random)


def test_graph_group_single_edge(z2_graph):
    built = build_graph_group(CommutationGraph(("a", "b"), (("a", "b"),)))
    assert built == z2_graph
    assert len(built.reducing) == 4
    # four sign combinations, each symmetrized
    assert len(built.preserving) == 8


def test_graph_group_no_edges_is_free(free_ab):
    built = build_graph_group(CommutationGraph(("a", "b"), ()))
    assert built == free_ab
    assert built.preserving == ()


def test_graph_rejects_loops_and_unknown_vertices():
    with pytest.raises(StructureError):
        CommutationGraph(("a",), (("a", "a"),))
    with pytest.raises(StructureError):
        CommutationGraph(("a",), (("a", "b"),))


def test_graph_group_multichar_vertex_names():
    built = build_graph_group(CommutationGraph(("g1", "g2"), ()))
    assert "g1^-1" in built.alphabet.names


def test_tits_system_d3(tits_d3):
    assert build_tits_system(CoxeterMatrix(((1, 3), (3, 1)))) == tits_d3


def test_tits_matrix_validation():
    with pytest.raises(StructureError):
        CoxeterMatrix(((1, 2), (3, 1)))  # not symmetric
    with pytest.raises(StructureError):
        CoxeterMatrix(((2, 3), (3, 1)))  # diagonal must be 1
    with pytest.raises(PreconditionError):
        build_tits_system(CoxeterMatrix(((1, 1), (1, 1))))  # collapses letters


def test_tits_infinite_entry_skipped():
    sys_ = build_tits_system(CoxeterMatrix(((1, 0), (0, 1))))
    assert sys_.preserving == ()  # free product, no braid equation
    assert len(sys_.reducing) == 2


def test_tits_longer_braid():
    sys_ = build_tits_system(CoxeterMatrix(((1, 4), (4, 1))))
    (lhs,) = [r.lhs for r in sys_.preserving
              if sys_.alphabet.format(r.lhs) == "a b a b"]
    assert sys_.alphabet.format(lhs) == "a b a b"


def test_amalgam_system_shapes(amalgam_data):
    d = amalgam_data
    S = build_amalgam_system(d.A, d.B, d.embA, d.embB)
    ab = S.alphabet
    assert set(ab.names) == {"r", "r2", "r3", "s", "s2", "s4", "s5"}
    # in-factor products orient by length
    assert any(ab.format(r.lhs) == "r r" and ab.format(r.rhs) == "r2"
               for r in S.reducing)
    # mixed products slide the shared subgroup: s r = (s r2)(r2^-1 r) = s4 r3
    assert any(ab.format(r.lhs) == "s r" and ab.format(r.rhs) == "s4 r3"
               for r in S.preserving)
    assert S.sp_symmetric


def test_amalgam_directed_variant(amalgam_data):
    d = amalgam_data
    S = build_amalgam_system(d.A, d.B, d.embA, d.embB, symmetrize=False)
    assert not S.sp_symmetric


def test_amalgam_name_clash_rejected():
    A = cyclic_group(4, "r")
    B = cyclic_group(6, "r")  # same element names as A
    H = cyclic_group(2, "h")
    from geothue.groups import SubgroupEmbedding
    embA = SubgroupEmbedding(H, A, {"1": "1", "h": "r2"})
    embB = SubgroupEmbedding(H, B, {"1": "1", "h": "r3"})
    with pytest.raises(StructureError):
        build_amalgam_system(A, B, embA, embB)


def test_amalgam_pregroup_products(amalgam_data, amalgam_pregroup):
    d = amalgam_data
    P = build_amalgam_pregroup(d.A, d.B, d.embA, d.embB)
    assert P.elements == amalgam_pregroup.elements
    assert P.mult == amalgam_pregroup.mult
    assert check_axioms(P).ok
    # products stay inside a factor; cross pairs are undefined
    assert P.defined("r", "r3")
    assert P.defined("r2", "s")  # r2 is the shared subgroup
    assert not P.defined("r", "s")
    assert not P.defined("s", "r3")


def test_hnn_program_normal_forms(hnn_data):
    d = hnn_data
    prog = build_hnn_system(d.G, d.embA, d.embB, d.phi)
    ab = prog.alphabet
    w = ab.word("12 t 12")
    assert prog.normal_form(w) == ab.word("t")
    assert prog.normal_form(ab.word("t T")) == ()
    assert prog.normal_form(ab.word("123 132")) == ()
    nf = prog.normal_form(ab.word("t 123 t 132"))
    assert program_is_irreducible(prog, nf)


def test_hnn_program_rules_can_grow():
    d = builders.example_hnn()
    prog = build_hnn_system(d.G, d.embA, d.embB, d.phi)
    assert any(len(rhs) > len(lhs) for lhs, rhs in prog.rules)


def test_rule_program_validation():
    from geothue.words import Alphabet
    ab = Alphabet(["a", "b"])
    with pytest.raises(StructureError):
        RuleProgram(ab, [((), (0,))])
    with pytest.raises(StructureError):
        RuleProgram(ab, [((0,), (0,))])
    with pytest.raises(AlphabetError):
        RuleProgram(ab, [((-1,), (0,))])
    prog = RuleProgram(ab, [((0,), (0, 1))])
    with pytest.raises(ResourceLimitError):
        prog.normal_form((0,), max_steps=10)


def test_rule_program_file_roundtrip():
    cases = [build_hnn_system(*data) for data in HNN_CASES.values()]
    cases.append(parse_rule_program(
        fixture_path("z2_convergent.rules").read_text(encoding="utf-8")))
    for prog in cases:
        text = format_rule_program(prog)
        back = parse_rule_program(text)
        assert back.alphabet.names == prog.alphabet.names
        assert back.rules == prog.rules
        assert back._longest_lhs == prog._longest_lhs
        assert format_rule_program(back) == text


def test_z2_convergent_fixture_program():
    prog = parse_rule_program(fixture_path("z2_convergent.rules").read_text())
    ab = prog.alphabet
    # sorts all x-letters to the front and cancels
    assert prog.normal_form(ab.word("y x y x X Y")) == ab.word("x y")
    rng = random.Random(3)
    for _ in range(100):
        w = tuple(rng.randrange(4) for _ in range(rng.randrange(8)))
        nf = prog.normal_form(w)
        assert prog.normal_form(nf) == nf
        assert program_reduce_random(prog, w, random.Random(7)) == nf


def test_britton_system_shape(hnn_data):
    d = hnn_data
    S = build_britton_system(d.G, d.embA, d.embB, d.phi)
    ab = S.alphabet
    assert all(r.kind is RuleKind.REDUCING for r in S.rules)
    pinches = [r for r in S.reducing if len(r.lhs) == 3]
    got = {(ab.format(r.lhs), ab.format(r.rhs)) for r in pinches}
    assert got == {("T 12 t", "12"), ("t 12 T", "12")}
    assert S.inverse_pairing is not None


def test_britton_agrees_with_program_on_identities(hnn_data):
    d = hnn_data
    S = build_britton_system(d.G, d.embA, d.embB, d.phi)
    prog = build_hnn_system(d.G, d.embA, d.embB, d.phi)
    ab = S.alphabet
    for text in ("t 12 T 12", "12 t 12 T", "t T", "123 132 t T"):
        w = ab.word(text)
        assert reduce_lr(w, S) == ()
        assert prog.normal_form(w) == ()


def test_hnn_pregroup_carrier(hnn_data, hnn_pregroup):
    d = hnn_data
    P = build_hnn_pregroup(d.G, d.embA, d.embB, d.phi)
    assert len(P.elements) == 42
    assert P.elements == hnn_pregroup.elements
    assert P.mult == hnn_pregroup.mult
    assert check_axioms(P).ok
    # group part multiplies as in S3, syllables compose when defined
    assert P.prod("12", "13") == "132"
    assert P.inverse("1.t.1") == "1.T.1"


def _hnn_cases():
    d = builders.example_hnn()
    yield "example_hnn", (d.G, d.embA, d.embB, d.phi)
    for name, (build, *args) in GENERATED.items():
        if build is _cyclic_hnn:
            yield name, _cyclic_hnn_data(*args)


HNN_CASES = dict(_hnn_cases())


def _carrier_word(d, u):
    """The word of the carrier element named g or g.t.y or g.T.x."""
    g, *rest = u.split(".")
    if not rest:
        return d.word(g)
    mark, rep = rest
    return d.word(g) + (d.alphabet.id(mark),) + d.word(rep)


@pytest.mark.parametrize("name", sorted(HNN_CASES))
def test_hnn_carrier_words_are_distinct_normal_forms(name):
    # build_hnn_pregroup names a product by looking its normal form up
    # among the carrier words, and reads inverses off its table
    data = HNN_CASES[name]
    d = builders._StableLetter(*data)
    program = builders._hnn_program(d)
    P = build_hnn_pregroup(*data)
    words = {u: _carrier_word(d, u) for u in P.elements}
    for u, w in words.items():
        assert program.normal_form(w) == w, u
    carrier = {w: u for u, w in words.items()}
    assert len(carrier) == len(words)
    for u, w in words.items():
        rev = tuple(d.inverse[x] for x in reversed(w))
        assert P.inv[u] == carrier[program.normal_form(rev)], u


def test_stable_letter_name_clash():
    G = cyclic_group(2, "t")  # group uses the stable letter name
    from geothue.groups import GroupIso, SubgroupEmbedding
    emb = SubgroupEmbedding(G, G, {"1": "1", "t": "t"})
    iso = GroupIso(G, G, {"1": "1", "t": "t"})
    with pytest.raises(StructureError):
        build_hnn_system(G, emb, emb, iso)


def test_example_data_wellformed(amalgam_data, hnn_data):
    assert amalgam_data.A.mult("r", "r") == "r2"
    assert amalgam_data.embA.map["h"] == "r2"
    assert amalgam_data.embB.map["h"] == "s3"
    assert hnn_data.phi.map["h"] == "h"


def _two_subgroup_hnn():
    """S_3 with a stable letter conjugating (12) onto (13): the subgroups
    differ, so phi and its inverse are not interchangeable."""
    G = symmetric_group(3)
    HA, HB = cyclic_group(2, "a"), cyclic_group(2, "b")
    embA = SubgroupEmbedding(HA, G, {"1": "1", "a": "12"})
    embB = SubgroupEmbedding(HB, G, {"1": "1", "b": "13"})
    return G, embA, embB, GroupIso(HA, HB, {"1": "1", "a": "b"})


def test_stable_letter_constructions_with_two_subgroups():
    G, embA, embB, phi = _two_subgroup_hnn()
    program = build_hnn_system(G, embA, embB, phi)
    britton = build_britton_system(G, embA, embB, phi)
    A = program.alphabet
    assert A.names == britton.alphabet.names
    rng = random.Random(13)
    for _ in range(300):
        w = tuple(rng.randrange(len(A)) for _ in range(rng.randint(0, 8)))
        nf = program.normal_form(w)
        assert program_reduce_random(program, w, rng) == nf, w

    # T a t = phi(a), so T 12 t 13 is trivial; free cancellations and
    # conjugated relators build more trivial words
    inverse = {"t": "T", "T": "t"}
    inverse.update((g, G.inverse(g)) for g in G.elements if g != G.identity)
    names = list(inverse)
    for _ in range(300):
        word = []
        for _ in range(rng.randint(1, 3)):
            conj = [rng.choice(names) for _ in range(rng.randint(0, 2))]
            core = rng.choice((["T", "12", "t", "13"], ["t", "13", "T", "12"],
                               [rng.choice(names)]))
            if len(core) == 1:
                core = core + [inverse[core[0]]]
            chunk = conj + core + [inverse[x] for x in reversed(conj)]
            at = rng.randint(0, len(word))
            word[at:at] = chunk
        w = A.word(" ".join(word))
        assert program.normal_form(w) == (), word
        assert dehn_wp(w, britton), word

    P = build_hnn_pregroup(G, embA, embB, phi)
    assert len(P.elements) == 42
    assert check_axioms(P).ok
    prime = universal_system_prime(P)
    assert table_isomorphic(P, pregroup_from_system(reducing_part(prime)))
    assert check_geodesically_perfect(prime, include_same_rule_overlaps=True).holds
