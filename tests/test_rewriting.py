import random

import pytest
from hypothesis import example, given, settings, strategies as st

from geothue.errors import AlphabetError
from geothue.oracle import class_closure
from geothue.pregroup import (load_pregroup, universal_system,
                              universal_system_prime)
from geothue.rewriting import (apply_rule, dehn_wp, is_irreducible, redexes,
                               reduce_lr, reduce_lr_trace, reduce_random,
                               successors, thue_resolution)
from geothue.systems import RewriteSystem, RuleKind, load_system, reducing
from geothue.words import Alphabet
from tests.conftest import (FIXTURES, counting, overlapping_system,
                            sub_system, transitions, words_of)


def test_apply_rule_at_position():
    r = reducing((0, 0), (1,))
    assert apply_rule((2, 0, 0, 2), 1, r) == (2, 1, 2)


def test_redexes_lists_all_sites(z2z2):
    w = words_of(z2z2.alphabet, "a a b b")[0]
    sites = redexes(w, z2z2)
    assert {(pos, rule.lhs) for pos, rule in sites} == {(0, (0, 0)), (2, (1, 1))}


def test_successors_reducing_and_preserving(tits_d3):
    (w,) = words_of(tits_d3.alphabet, "a b a")
    succ = successors(w, tits_d3)
    assert words_of(tits_d3.alphabet, "b a b")[0] in succ
    succ_red = successors(w, sub_system(tits_d3, tits_d3.reducing))
    assert succ_red == ()
    assert successors(w, sub_system(tits_d3, tits_d3.preserving)) == succ


def test_reduce_lr_leftmost_first_rule(geoper_S):
    # "add" matches both rules; the first declared one wins
    w, expect = words_of(geoper_S.alphabet, "a d d", "a b")
    assert reduce_lr(w, geoper_S) == expect


def test_reduce_lr_cascades_through_new_redexes(z2z2):
    w = words_of(z2z2.alphabet, "a b b a a b b a")[0]
    assert reduce_lr(w, z2z2) == ()


def test_reduce_lr_trace_replays(z2z2_group):
    w = words_of(z2z2_group.alphabet, "a b B A a")[0]
    final, steps = reduce_lr_trace(w, z2z2_group)
    cur = w
    for before, pos, rule in steps:
        assert before == cur
        cur = apply_rule(cur, pos, rule)
    assert cur == final
    assert final == reduce_lr(w, z2z2_group)
    assert is_irreducible(final, z2z2_group)


def _trace_systems():
    """Every .rws fixture, and both systems of every .pg fixture."""
    systems = {path.name: load_system(path)
               for path in sorted(FIXTURES.glob("*.rws"))}
    for path in sorted(FIXTURES.glob("*.pg")):
        P = load_pregroup(path)
        systems[path.stem + ".universal"] = universal_system(P)
        systems[path.stem + ".prime"] = universal_system_prime(P)
    return systems


TRACE_SYSTEMS = _trace_systems()


@st.composite
def _trace_case(draw):
    """A fixture system or a generated one, and a word over its alphabet."""
    S = draw(st.one_of(
        st.sampled_from(sorted(TRACE_SYSTEMS)).map(TRACE_SYSTEMS.get),
        overlapping_system()))
    n = len(S.alphabet)
    return S, draw(st.lists(st.integers(0, n - 1), max_size=14).map(tuple))


def _naive_reduce_lr(w, S):
    """(final, steps) by applying the earliest-ending match of redexes, ties
    to the first rule, until there is none."""
    order = {rule: i for i, rule in enumerate(S.reducing)}
    steps = []
    while True:
        hits = redexes(w, S, RuleKind.REDUCING)
        if not hits:
            return w, steps
        pos, rule = min(
            hits, key=lambda hit: (hit[0] + len(hit[1].lhs), order[hit[1]]))
        steps.append((w, pos, rule))
        w = apply_rule(w, pos, rule)


AB = Alphabet("ab")


@settings(max_examples=500, deadline=None)
@given(_trace_case())
# no rules
@example((RewriteSystem(AB, []), (0, 1, 0)))
# later suffixes of an earlier lhs, one a single letter, and a repeated lhs
@example((RewriteSystem(AB, [reducing((0, 1, 1), (0,)), reducing((1, 1), ()),
                             reducing((1,), ()), reducing((0, 1, 1), (1,))]),
          (0, 1, 1, 0, 1)))
# a single-letter lhs inside both later ones, the last a suffix of the second
@example((RewriteSystem(AB, [reducing((1,), ()), reducing((0, 1, 0), (1,)),
                             reducing((1, 0), ())]),
          (0, 0, 1, 0, 1)))
def test_reduce_lr_trace_steps_are_the_earliest_ending_redexes(case):
    # redexes scans rule by rule, independently of the reducer's automaton
    S, w = case
    final, steps = _naive_reduce_lr(w, S)
    assert reduce_lr_trace(w, S) == (final, steps)
    assert reduce_lr(w, S) == final
    assert is_irreducible(final, S)


@settings(max_examples=300, deadline=None)
@given(_trace_case())
def test_is_irreducible_iff_no_reducing_redex(case):
    S, w = case
    assert is_irreducible(w, S) == (not redexes(w, S, RuleKind.REDUCING))


def test_reduce_random_is_maximal_and_seeded(z2z2):
    w = words_of(z2z2.alphabet, "a a a b b a")[0]
    rng = random.Random(11)
    out = reduce_random(w, z2z2, rng)
    assert is_irreducible(out, z2z2)
    assert reduce_random(w, z2z2, random.Random(11)) == out


def test_thue_resolution_orients_and_drops_trivial():
    ab = Alphabet(["a", "b", "c"])
    pairs = [
        (ab.word("a b"), ab.word("c c")),    # preserving
        (ab.word("c c c"), ab.word("a")),    # reducing as given
        (ab.word("b"), ab.word("b b b")),    # reducing after flip
        (ab.word("a c"), ab.word("a c")),    # trivial, dropped
    ]
    sys_ = thue_resolution(ab, pairs)
    assert {r.lhs for r in sys_.reducing} == {ab.word("c c c"), ab.word("b b b")}
    assert all(r.kind is RuleKind.PRESERVING for r in sys_.preserving)
    assert len(sys_.preserving) == 2


def test_thue_resolution_directed_variant():
    ab = Alphabet(["a", "b"])
    sys_ = thue_resolution(ab, [(ab.word("a b"), ab.word("b a"))],
                           symmetrize=False)
    assert len(sys_.preserving) == 1


def test_dehn_wp_on_free_product(z2z2):
    w, u = words_of(z2z2.alphabet, "a b b a", "a b a b")
    assert dehn_wp(w, z2z2) is True
    assert dehn_wp(u, z2z2) is False
    assert dehn_wp((), z2z2) is True


def test_dehn_wp_needs_reducing_search_not_a_single_pass(z2z2):
    # letters vanish only after inner cancellations expose new pairs
    w = words_of(z2z2.alphabet, "a b a a b a")[0]
    assert dehn_wp(w, z2z2) is True


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=7).map(tuple))
def test_reduce_lr_stays_in_class_z2z2(w):
    from geothue.systems import load_system
    from tests.conftest import fixture_path
    sys_ = load_system(fixture_path("z2z2.rws"))
    out = reduce_lr(w, sys_)
    assert is_irreducible(out, sys_)
    closure = class_closure(w, sys_, max_length=len(w) + 2)
    assert out in closure.members


def test_reduce_rejects_foreign_symbols(z2z2):
    with pytest.raises(AlphabetError):
        reduce_lr((0, 9), z2z2)


def _inverse_letters(system, P=None):
    """Each letter's inverse: the system's pairing, or the pregroup's."""
    if P is None:
        return system.inverse_pairing
    ab = system.alphabet
    return {ab.id(a): ab.id(P.inv[a]) for a in P.elements if a != P.eps}


def _long_words(inverse, n, rng):
    """A random word and a nested cancellation w w^-1, each n letters."""
    letters = sorted(inverse)
    half = rng.choices(letters, k=n // 2)
    return (tuple(rng.choices(letters, k=n)),
            tuple(half) + tuple(inverse[x] for x in reversed(half)))


@pytest.fixture(scope="module")
def counted_systems(hnn_pregroup):
    """free_ab and universal_system(hnn_s3), fresh copies with counting
    automata, each with its letters' inverses."""
    free = load_system(FIXTURES / "free_ab.rws")
    universal = universal_system(hnn_pregroup)
    return [(counting(free), _inverse_letters(free)),
            (counting(universal), _inverse_letters(universal, hnn_pregroup))]


def test_reduce_lr_makes_one_transition_per_letter_read(counted_systems):
    # deterministic companion of the wall-clock gate in test_acceptance's
    # test_11: every letter of the input and every letter a contraction
    # puts back is one transition, and nothing else is
    rng = random.Random(1102)
    for system, inverse in counted_systems:
        for word in _long_words(inverse, 3000, rng):
            final, steps = reduce_lr_trace(word, system)
            expected = len(word) + sum(len(rule.rhs) for _, _, rule in steps)
            assert transitions(reduce_lr, word, system) == (expected, final)
            assert transitions(reduce_lr_trace, word, system)[0] == expected


def test_reduce_lr_transitions_are_linear_on_long_words(counted_systems):
    # a contraction shortens the word, so at most n contractions each put
    # back at most max|rhs| letters
    rng = random.Random(1103)
    for system, inverse in counted_systems:
        longest_rhs = max(len(rule.rhs) for rule in system.reducing)
        for word in _long_words(inverse, 10 ** 5, rng):
            reads, _ = transitions(reduce_lr, word, system)
            assert len(word) <= reads <= (1 + longest_rhs) * len(word)
