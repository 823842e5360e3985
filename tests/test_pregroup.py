import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from geothue import builders
from geothue.errors import (FormatError, PreconditionError, ResourceLimitError,
                            StructureError)
from geothue.pregroup import (AxiomCheck, Pregroup, check_axioms,
                              format_pregroup, interleave_equivalent,
                              is_reduced, load_pregroup, p_reduce,
                              parse_pregroup, table_isomorphic,
                              universal_system, universal_system_prime, up_wp)
from geothue.systems import RewriteSystem, Rule, preserving
from geothue.triangular import pregroup_from_system, reducing_part
from tests.conftest import (GENERATED, _cyclic_amalgam, _cyclic_hnn,
                            fixture_path, reduce_random_seq)

Z4_TEXT = """
elements 1 a a2 a3
eps 1
inv a a3
inv a2 a2
mult a a = a2
mult a a2 = a3
mult a2 a = a3
mult a2 a3 = a
mult a3 a2 = a
mult a3 a3 = a2
"""


def z4():
    return parse_pregroup(Z4_TEXT)


def free_pregroup():
    # ranked-free pregroup on one generator: only inverse products defined
    return parse_pregroup("""
    elements 1 x X
    eps 1
    inv x X
    """)


def test_parse_materializes_identity_and_inverses():
    P = z4()
    assert P.prod("1", "a") == "a"
    assert P.prod("a", "a3") == "1"
    assert P.inverse("a2") == "a2"
    assert P.defined("a", "a")
    assert not free_pregroup().defined("x", "x")


def test_prod_undefined_raises():
    with pytest.raises(PreconditionError):
        free_pregroup().prod("x", "x")


def test_conflicting_table_rejected():
    # a * a must be 1 since a is its own inverse
    with pytest.raises(FormatError):
        parse_pregroup("""
        elements 1 a
        eps 1
        inv a a
        mult a a = a
        """)
    with pytest.raises(StructureError):
        Pregroup(("1", "a"), "1", {"a": "a"}, {("a", "a"): "a"})


def test_element_that_cannot_be_a_letter_is_rejected():
    # "." is the empty word, so it cannot name a letter of the universal
    # systems
    with pytest.raises(FormatError, match=r"line 2: element '\.' cannot be"):
        parse_pregroup("# one comment\nelements 1 .\neps 1\ninv . .\n")


@pytest.mark.parametrize("name", ["->", "<->"])
def test_an_arrow_cannot_be_an_element(name):
    # a rule line of the universal systems would split at it
    with pytest.raises(FormatError,
                       match=f"line 1: element '{name}' cannot be"):
        parse_pregroup(f"elements 1 {name} b\neps 1\ninv {name} {name}\n"
                       "inv b b\n")


def test_axioms_pass_on_fixtures(amalgam_pregroup, hnn_pregroup):
    assert check_axioms(z4()).ok
    assert check_axioms(amalgam_pregroup).ok
    assert check_axioms(hnn_pregroup).ok


def test_axiom_p4_failure_detected():
    # c*c defined, (cc)c and c(cc) both undefined: associativity P4 breaks
    P = parse_pregroup("""
    elements 1 c C d
    eps 1
    inv c C
    inv d d
    mult c c = d
    """)
    rep = check_axioms(P)
    assert not rep.ok
    assert not rep.p4.ok


def test_axiom_p3_first_counterexample():
    # x*y = z, but y^-1 * x^-1 is undefined
    P = parse_pregroup("""
    elements 1 x X y Y z Z
    eps 1
    inv x X
    inv y Y
    inv z Z
    mult x y = z
    """)
    assert check_axioms(P).p3 == AxiomCheck(False, ("x", "y"))


def test_axiom_p5_first_counterexample():
    # x y and y x are defined, but no product of three letters of
    # x y x y is
    P = parse_pregroup("""
    elements 1 x X y Y z Z w W
    eps 1
    inv x X
    inv y Y
    inv z Z
    inv w W
    mult x y = z
    mult Y X = Z
    mult y x = w
    mult X Y = W
    """)
    rep = check_axioms(P)
    assert rep.p3.ok
    assert rep.p5 == AxiomCheck(False, ("x", "y", "x", "y"))


# each condition as a predicate on a tuple of elements, true when the
# tuple violates it
def _p1_fails(P, a):
    return P.mult.get((P.eps, a)) != a or P.mult.get((a, P.eps)) != a


def _p2_fails(P, a):
    return (P.mult.get((a, P.inv[a])) != P.eps
            or P.mult.get((P.inv[a], a)) != P.eps)


def _p3_fails(P, a, b):
    ab = P.mult.get((a, b))
    return ab is not None and P.mult.get((P.inv[b], P.inv[a])) != P.inv[ab]


def _p4_fails(P, a, b, c):
    ab, bc = P.mult.get((a, b)), P.mult.get((b, c))
    return (ab is not None and bc is not None
            and P.mult.get((ab, c)) != P.mult.get((a, bc)))


def _p5_fails(P, a, b, c, d):
    ab, bc, cd = P.mult.get((a, b)), P.mult.get((b, c)), P.mult.get((c, d))
    if None in (ab, bc, cd):
        return False
    return not any(key in P.mult
                   for key in ((ab, c), (a, bc), (bc, d), (b, cd)))


AXIOMS = {"p1": (_p1_fails, 1), "p2": (_p2_fails, 1), "p3": (_p3_fails, 2),
          "p4": (_p4_fails, 3), "p5": (_p5_fails, 4)}


def _small_pregroups():
    """Real pregroups of at most 9 elements."""
    yield z4()
    yield free_pregroup()
    for m, n, k in ((2, 2, 1), (2, 3, 1), (3, 3, 1), (2, 4, 2), (4, 4, 2)):
        yield _cyclic_amalgam(m, n, k)
    yield _cyclic_hnn(3, 3, -1)


def _perturbed(P, rng):
    """P with one to three products removed, changed or added (an added
    one may be x*y = eps for y other than x^-1), or with one law
    product, which the constructor supplies, deleted afterwards; None
    when the constructor refuses the table."""
    mult = dict(P.mult)
    how = rng.randrange(5)
    if how == 4:
        Q = Pregroup(P.elements, P.eps, P.inv, mult)
        a, b = rng.choice(sorted(Q.mult))
        del Q.mult[(a, b)]
        Q._right[a] = tuple(x for x in Q._right[a] if x != b)
        return Q
    free = sorted(k for k in mult if P.eps not in k and k[1] != P.inv[k[0]])
    for _ in range(rng.randint(1, 3)):
        if how == 0 and free:
            mult.pop(rng.choice(free), None)
        elif how == 1 and free:
            mult[rng.choice(free)] = rng.choice(P.elements)
        else:
            key = (rng.choice(P.elements), rng.choice(P.elements))
            value = P.eps if how == 3 else rng.choice(P.elements)
            mult.setdefault(key, value)
    try:
        return Pregroup(P.elements, P.eps, P.inv, mult)
    except StructureError:
        return None


def _perturbed_tables(seed, count):
    rng = random.Random(seed)
    bases = list(_small_pregroups())
    tables = []
    while len(tables) < count:
        Q = _perturbed(rng.choice(bases), rng)
        if Q is not None:
            tables.append(Q)
    return tables


@pytest.mark.parametrize("seed", range(4))
def test_check_axioms_matches_the_conditions_on_all_tuples(seed):
    tables = list(_small_pregroups()) + _perturbed_tables(seed, 60)
    failed = set()
    for P in tables:
        report = check_axioms(P)
        for name, (fails, arity) in AXIOMS.items():
            check = getattr(report, name)
            broken = any(fails(P, *t)
                         for t in itertools.product(P.elements, repeat=arity))
            assert check.ok == (not broken), (name, P.mult)
            if not check.ok:
                failed.add(name)
                assert fails(P, *check.counterexample), (name, P.mult)
    # the perturbations break every condition somewhere
    assert failed == set(AXIOMS)


# Z/4 with its identity third, a self-inverse element first, and an
# inverse pair whose later element is declared first
Z4_SHUFFLED_TEXT = """
elements r2 r3 1 r
eps 1
inv r r3
inv r2 r2
mult r r = r2
mult r r2 = r3
mult r2 r = r3
mult r2 r3 = r
mult r3 r2 = r
mult r3 r3 = r2
"""


def test_format_parse_roundtrip():
    shuffled = parse_pregroup(Z4_SHUFFLED_TEXT)
    # one inv line per pair, at the pair's first element
    assert [line for line in format_pregroup(shuffled).splitlines()
            if line.startswith("inv ")] == ["inv r2 r2", "inv r3 r"]
    bases = list(CARRY_PREGROUPS.values())
    bases += [build(*args) for build, *args in GENERATED.values()]
    cases = [z4(), shuffled] + bases
    cases += [pregroup_from_system(reducing_part(universal_system_prime(P)))
              for P in bases]
    for P in cases:
        text = format_pregroup(P)
        Q = parse_pregroup(text)
        for field in ("elements", "eps", "inv", "mult", "index", "_right"):
            assert getattr(Q, field) == getattr(P, field), (text, field)
        assert format_pregroup(Q) == text


def test_universal_system_shapes(amalgam_pregroup):
    S = universal_system(amalgam_pregroup)
    ab = S.alphabet
    assert ab.names == amalgam_pregroup.elements
    eps = amalgam_pregroup.eps
    assert any(r.lhs == (ab.id(eps),) and r.rhs == () for r in S.reducing)
    # every defined product appears as a two letter rule
    for (x, y), z in amalgam_pregroup.mult.items():
        assert any(r.lhs == (ab.id(x), ab.id(y)) for r in S.reducing)


def test_universal_system_prime_excludes_eps(amalgam_pregroup):
    S = universal_system_prime(amalgam_pregroup)
    assert amalgam_pregroup.eps not in S.alphabet.names
    assert S.inverse_pairing is not None
    for r in S.reducing:
        assert len(r.lhs) == 2 and len(r.rhs) <= 1


def test_p_reduce_contracts_to_reduced(amalgam_pregroup):
    P = amalgam_pregroup
    out = p_reduce(["r", "r"], P)
    assert out == ("r2",)
    assert p_reduce(["r", "r3"], P) == ()
    assert is_reduced(out, P)
    # mixed-factor sequences with no defined products stay put
    mixed = ("r", "s")
    assert p_reduce(mixed, P) == mixed


def test_p_reduce_drops_eps_letters(amalgam_pregroup):
    P = amalgam_pregroup
    assert p_reduce(["1", "r", "1"], P) == ("r",)
    assert p_reduce(["1"], P) == ()


def test_p_reduce_cascade(amalgam_pregroup):
    # r * (r3 s) exposes a second contraction after the first one fires
    P = amalgam_pregroup
    assert p_reduce(["r", "r", "r2", "s"], P) == ("s",)


def test_reduce_random_always_maximal(amalgam_pregroup):
    P = amalgam_pregroup
    rng = random.Random(5)
    for _ in range(50):
        seq = [rng.choice(P.elements) for _ in range(rng.randrange(9))]
        out = reduce_random_seq(seq, P, rng)
        assert is_reduced(out, P)


def test_interleave_equivalent_basic(amalgam_pregroup):
    P = amalgam_pregroup
    # r2 lies in both factors, so it slides across the factor boundary
    u = ("s", "r")
    shifted = (P.prod("s", "r2"), P.prod(P.inverse("r2"), "r"))
    assert shifted == ("s4", "r3")
    assert is_reduced(u, P) and is_reduced(shifted, P)
    assert interleave_equivalent(u, shifted, P)
    assert interleave_equivalent(shifted, u, P)
    assert not interleave_equivalent(u, ("s2", "r"), P)


def test_interleave_requires_reduced(amalgam_pregroup):
    with pytest.raises(PreconditionError):
        interleave_equivalent(("r", "r"), ("r2",), amalgam_pregroup)


@pytest.mark.parametrize("u, v", [(("zz",), ("zz",)),
                                  (("zz", "r"), ("r", "zz")),
                                  (("r",), ("zz",))])
def test_interleave_rejects_unknown_elements(amalgam_pregroup, u, v):
    with pytest.raises(PreconditionError, match="unknown element 'zz'"):
        interleave_equivalent(u, v, amalgam_pregroup)


@pytest.mark.parametrize("check", [is_reduced, lambda seq, P: reduce_random_seq(
    seq, P, random.Random(0))], ids=["is_reduced", "reduce_random_seq"])
@pytest.mark.parametrize("seq", [("zz",), ("zz", "r"), ("r", "zz")])
def test_unknown_elements_are_rejected(amalgam_pregroup, check, seq):
    with pytest.raises(PreconditionError, match="unknown element 'zz'"):
        check(seq, amalgam_pregroup)


def _amalgam(d):
    return builders.build_amalgam_pregroup(d.A, d.B, d.embA, d.embB)


def _hnn(d):
    return builders.build_hnn_pregroup(d.G, d.embA, d.embB, d.phi)


PREGROUPS = {
    "amalgam_z4z6.pg": lambda: load_pregroup(fixture_path("amalgam_z4z6.pg")),
    "hnn_s3.pg": lambda: load_pregroup(fixture_path("hnn_s3.pg")),
    "example_amalgam": lambda: _amalgam(builders.example_amalgam()),
    "example_hnn": lambda: _hnn(builders.example_hnn()),
    "z6_z3_z9": lambda: _cyclic_amalgam(6, 9, 3),
    "z2_1_z3": lambda: _cyclic_amalgam(2, 3, 1),
}


@pytest.mark.parametrize("name", sorted(PREGROUPS))
def test_universal_preserving_rules_are_the_mediator_slides(name):
    # a b <-> (a*c)(c^-1*b) for every mediator c, by the naive triple loop
    P = PREGROUPS[name]()
    for build, prime in ((universal_system, False), (universal_system_prime, True)):
        S = build(P)
        letters = [a for a in P.elements if not (prime and a == P.eps)]
        rules = []
        for a in letters:
            for b in letters:
                for c in P.elements:
                    ac = P.mult.get((a, c))
                    cb = P.mult.get((P.inv[c], b))
                    if ac is None or cb is None or (ac, cb) == (a, b):
                        continue
                    if prime and P.eps in (ac, cb):
                        continue
                    rules.append(preserving(S.alphabet.word(f"{a} {b}"),
                                            S.alphabet.word(f"{ac} {cb}")))
        assert S.preserving == RewriteSystem(S.alphabet, rules).preserving


def test_up_wp_accepts_unreduced_inputs(amalgam_pregroup):
    P = amalgam_pregroup
    assert up_wp(("r", "r", "s"), ("r2", "s"), P)
    assert up_wp(("r", "r3"), (), P)
    assert not up_wp(("r",), ("s",), P)


def test_table_isomorphic_invariant_under_renaming(amalgam_pregroup):
    P = amalgam_pregroup
    sub = {"r": "u", "r2": "u2", "r3": "u3",
           "s": "v", "s2": "v2", "s4": "v4", "s5": "v5"}
    lines = []
    for line in format_pregroup(P).splitlines():
        head, *rest = line.split()
        lines.append(" ".join([head] + [sub.get(t, t) for t in rest]))
    renamed = parse_pregroup("\n".join(lines))
    assert table_isomorphic(P, renamed)
    assert table_isomorphic(renamed, P)


def test_table_isomorphic_rejects_different_tables():
    P = z4()
    # Klein four group table over the same carrier size
    Q = parse_pregroup("""
    elements 1 a b c
    eps 1
    inv a a
    inv b b
    inv c c
    mult a b = c
    mult b a = c
    mult a c = b
    mult c a = b
    mult b c = a
    mult c b = a
    """)
    assert check_axioms(Q).ok
    assert not table_isomorphic(P, Q)


def test_table_isomorphic_identity(hnn_pregroup):
    assert table_isomorphic(hnn_pregroup, hnn_pregroup)


def _brute_isomorphic(P, Q):
    """Whether some bijection fixing the identity carries P's inverses
    and table onto Q's, trying every one."""
    if len(P) != len(Q) or len(P.mult) != len(Q.mult):
        return False
    rest = [a for a in P.elements if a != P.eps]
    for images in itertools.permutations(b for b in Q.elements if b != Q.eps):
        f = dict(zip(rest, images), **{P.eps: Q.eps})
        if (all(Q.inv[f[a]] == f[P.inv[a]] for a in P.elements)
                and all(Q.mult.get((f[x], f[y])) == f[z]
                        for (x, y), z in P.mult.items())):
            return True
    return False


def _relabelled(P, rng):
    """P under fresh names, its elements and products in shuffled order."""
    name = {a: f"e{i}" for i, a in enumerate(P.elements)}
    elements = [name[a] for a in P.elements]
    rng.shuffle(elements)
    products = list(P.mult.items())
    rng.shuffle(products)
    return Pregroup(elements, name[P.eps],
                    {name[a]: name[b] for a, b in P.inv.items()},
                    {(name[x], name[y]): name[z] for (x, y), z in products})


def _inverse_decoys():
    """Tables with products x*y = eps for some y other than x^-1, where a
    bijection may match the table yet not the inverses.  The last two
    share one table, which only the identity map preserves, under two
    inverse pairings: they are not isomorphic."""
    texts = ["inv a a\ninv b c\nmult a b = 1",
             "inv a a\ninv b c\nmult a c = 1",
             "inv a a\ninv b c\nmult b a = 1",
             "inv a a\ninv b b\ninv c c\nmult a b = 1",
             "inv a a\ninv b c\nmult b b = 1",
             "inv a a\ninv b c\nmult a b = 1\nmult b a = 1"]
    decoys = [parse_pregroup(f"elements 1 a b c\neps 1\n{t}\n") for t in texts]
    # the products around the cycle a b c d are eps; b b = a and a a = c
    cycle = ("a b", "b c", "c d", "d a")
    for pairs in (cycle[0::2], cycle[1::2]):
        lines = ["elements 1 a b c d", "eps 1", "mult a a = c", "mult b b = a"]
        lines += [f"inv {xy}" for xy in pairs]
        lines += [f"mult {x} {y} = 1\nmult {y} {x} = 1"
                  for x, y in (xy.split() for xy in cycle if xy not in pairs)]
        decoys.append(parse_pregroup("\n".join(lines) + "\n"))
    return decoys


@pytest.mark.parametrize("seed", range(3))
def test_table_isomorphic_matches_every_bijection(seed):
    rng = random.Random(seed)
    small = [P for P in _small_pregroups() if len(P) <= 6]
    tables = small + _inverse_decoys() + [
        Q for Q in _perturbed_tables(seed, 120) if len(Q) <= 6]
    tables += [_relabelled(P, rng) for P in rng.sample(tables, 30)]
    agreed = Counter()
    for P in tables:
        for Q in tables:
            if len(P) == len(Q):
                want = _brute_isomorphic(P, Q)
                assert table_isomorphic(P, Q) == want, (P.mult, Q.mult)
                agreed[want] += 1
    assert agreed[True] >= 30 and agreed[False] >= 30


def test_table_isomorphic_matches_inverses_not_only_the_table():
    P, Q = _inverse_decoys()[-2:]
    assert P.mult == Q.mult and P.inv != Q.inv
    assert not table_isomorphic(P, Q) and not table_isomorphic(Q, P)


# ---------------------------------------------------------------------------
# up_wp's carry pass against interleave_equivalent, its slow twin

CARRY_PREGROUPS = {
    "amalgam_z4z6.pg": load_pregroup(fixture_path("amalgam_z4z6.pg")),
    "hnn_s3.pg": load_pregroup(fixture_path("hnn_s3.pg")),
    "z4_z2_z4": _cyclic_amalgam(4, 4, 2),
    "z6_z3_z6": _cyclic_amalgam(6, 6, 3),
    "hnn_z3_z3_inv": _cyclic_hnn(3, 3, -1),
    "hnn_z2_1": _cyclic_hnn(2, 1, 1),
    "hnn_z4_z2": _cyclic_hnn(4, 2, 1),
}
CARRY_NODES = 10 ** 4  # the slide classes of hnn_s3 at 6 elements have 7,776


def _letters_after(P, prev, nxt=None):
    """Non-identity elements that keep a reduced sequence reduced between
    prev and nxt (None at either end)."""
    return [a for a in P.elements if a != P.eps
            and (prev is None or not P.defined(prev, a))
            and (nxt is None or not P.defined(a, nxt))]


def _random_reduced(P, rng, n):
    """A reduced sequence of n elements; an element that no element may
    follow (one of an amalgamated subgroup) comes only last."""
    followed = {a for a in P.elements if _letters_after(P, a)}
    out = []
    for k in range(n):
        options = _letters_after(P, out[-1] if out else None)
        if k < n - 1:
            options = [a for a in options if a in followed]
        out.append(rng.choice(options))
    return out


def _slid(P, seq, rng, k):
    """seq after k mediator slides at random places: the same element."""
    seq = list(seq)
    for _ in range(k if len(seq) >= 2 else 0):
        i = rng.randrange(len(seq) - 1)
        slides = P._slides.rhs_of.get((seq[i], seq[i + 1]))
        if slides:
            seq[i:i + 2] = rng.choice(slides)
    return seq


def _swapped(P, seq, rng):
    """seq with one element swapped for another that keeps it reduced, or
    None: a different element, as a pregroup embeds in its group."""
    spots = list(range(len(seq)))
    rng.shuffle(spots)
    for i in spots:
        others = [a for a in _letters_after(P, seq[i - 1] if i else None,
                                            seq[i + 1] if i + 1 < len(seq) else None)
                  if a != seq[i]]
        if others:
            return seq[:i] + [rng.choice(others)] + seq[i + 1:]
    return None


@pytest.mark.parametrize("name", sorted(CARRY_PREGROUPS))
def test_carry_pregroups_satisfy_the_axioms(name):
    assert check_axioms(CARRY_PREGROUPS[name]).ok


@pytest.mark.parametrize("name", sorted(CARRY_PREGROUPS))
def test_the_slide_table_is_tabulated_on_first_use(name):
    P = CARRY_PREGROUPS[name]
    fresh = Pregroup(P.elements, P.eps, P.inv, P.mult)
    assert fresh._slide_table is None
    # every pair (a, b) in element order, then its distinct slides
    # (a*c, c^-1*b) by the mediator c in element order
    table = {}
    for a in P.elements:
        for b in P.elements:
            for c in P.elements:
                ac, cb = P.mult.get((a, c)), P.mult.get((P.inv[c], b))
                if ac is not None and cb is not None and (ac, cb) != (a, b):
                    table.setdefault((a, b), {})[(ac, cb)] = None
    assert list(fresh._slides.rhs_of.items()) == \
        [(ab, tuple(slides)) for ab, slides in table.items()]
    assert fresh._slides is fresh._slides


def _universal_twin(P, S):
    """S rebuilt the slow way: its reducing rules, then every distinct
    slide of P._slides.rhs_of between letters of S, each mirrored by
    RewriteSystem."""
    ids = S.alphabet.index
    slides = [preserving((ids[a], ids[b]), (ids[x], ids[y]))
              for (a, b), rhs in P._slides.rhs_of.items()
              if a in ids and b in ids
              for x, y in rhs if x in ids and y in ids]
    return RewriteSystem(S.alphabet, S.reducing + tuple(slides),
                         inverse_pairing=S.inverse_pairing)


@pytest.mark.parametrize("name",
                         sorted(CARRY_PREGROUPS.keys() | GENERATED.keys()))
def test_universal_systems_read_the_slides_without_the_table(name):
    if name in CARRY_PREGROUPS:
        Q = CARRY_PREGROUPS[name]
    else:
        build, *args = GENERATED[name]
        Q = build(*args)
    P = Pregroup(Q.elements, Q.eps, Q.inv, Q.mult)
    systems = (universal_system(P), universal_system_prime(P))
    assert P._slide_table is None
    a = next(a for a in P.elements if a != P.eps)
    assert interleave_equivalent((a,), (a,), P)
    assert P._slide_table is not None
    for S in systems:
        assert S.rules == _universal_twin(P, S).rules


def test_universal_systems_build_each_rule_once(monkeypatch):
    P = load_pregroup(fixture_path("hnn_s3.pg"))
    built = 0
    post_init = Rule.__post_init__

    def counting(rule):
        nonlocal built
        built += 1
        post_init(rule)

    monkeypatch.setattr(Rule, "__post_init__", counting)
    for build, size in ((universal_system, 14_689),
                        (universal_system_prime, 12_201)):
        built = 0
        S = build(P)
        assert len(S.rules) == size == built
    assert P._slide_table is None
    # a table that fails the axioms: the mediators c and d give one slide
    Q = Pregroup("eacdpq", "e",
                 {"a": "a", "c": "c", "d": "d", "p": "q", "q": "p"},
                 {("a", "c"): "p", ("a", "d"): "p",
                  ("c", "a"): "q", ("d", "a"): "q"})
    assert list(Q._each_slide()).count((("a", "a"), ("p", "q"))) == 2
    for build in (universal_system, universal_system_prime):
        built = 0
        S = build(Q)
        assert len(S.rules) == built


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(CARRY_PREGROUPS)), n=st.integers(0, 6),
       slides=st.integers(0, 12), equal=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_up_wp_carry_pass_matches_interleave_equivalent(name, n, slides,
                                                        equal, seed):
    P = CARRY_PREGROUPS[name]
    rng = random.Random(seed)
    u = _random_reduced(P, rng, n)
    v = _slid(P, u, rng, slides)
    if not equal:
        v = _swapped(P, v, rng)
        if v is None:
            return
    u, v = tuple(u), tuple(v)
    assert is_reduced(u, P) and is_reduced(v, P) and len(u) == len(v)
    assert up_wp(u, v, P) is equal
    assert up_wp(v, u, P) is equal
    try:
        slow = interleave_equivalent(u, v, P, max_nodes=CARRY_NODES)
    except ResourceLimitError:
        return
    assert slow is equal


def test_up_wp_decides_long_hnn_s3_pairs(hnn_pregroup):
    # 2,400-element pairs, equal by 10^4 slides and unequal by one swapped
    # element; a slide class of 2,400 elements has about 6^2399 members,
    # so the slide closure settles neither at its default budget
    P = hnn_pregroup
    rng = random.Random(2400)
    for _ in range(3):
        u = _random_reduced(P, rng, 2400)
        v = _slid(P, u, rng, 10 ** 4)
        w = _swapped(P, v, rng)
        assert v != u and is_reduced(v, P) and is_reduced(w, P)
        assert up_wp(u, v, P) and up_wp(v, u, P)
        assert not up_wp(u, w, P) and not up_wp(w, u, P)
        # unreduced spellings of the same elements: a split and a cancelling pair
        a = u[0]
        assert up_wp([P.eps, a, P.inv[a]] + u + [P.eps], v, P)


class _CountedTable(dict):
    """A product table that counts its lookups by get."""

    lookups = 0

    def get(self, *args):
        self.lookups += 1
        return super().get(*args)


@pytest.mark.parametrize("n", [10 ** 3, 10 ** 4])
def test_up_wp_makes_at_most_six_lookups_per_element(n, hnn_pregroup,
                                                     monkeypatch):
    # p_reduce makes at most two per element of each input (one that
    # contracts and one that stops), and the carry pass two per position
    P = hnn_pregroup
    rng = random.Random(n)
    u = _random_reduced(P, rng, n)
    v = _slid(P, u, rng, n)
    w = _swapped(P, v, rng)
    for other, equal in ((v, True), (w, False)):
        table = _CountedTable(P.mult)
        monkeypatch.setattr(P, "mult", table)
        assert up_wp(u, other, P) is equal
        assert table.lookups <= 6 * n
