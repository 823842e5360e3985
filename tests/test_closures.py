"""The bounded closures behind the word problem, geodesics and the
perfection check: cap boundaries, directed preserving rules, the
per-closure budget, the preserving-class index, symbol validation,
agreement with the rule-scanning successors, and the one kind of budget
every fast search takes: an int, DEFAULT_MAX_NODES by default, at
least 1."""

import inspect

import pytest
from hypothesis import given, settings, strategies as st

from geothue import builders, confluence
from geothue.completion import kb_complete, resolve_pair
from geothue.confluence import (CriticalPair, check_geodesically_perfect,
                                critical_pairs, descendant_closure, geodesics_of,
                                preperfect_wp, sp_equivalent)
from geothue.errors import (DEFAULT_MAX_NODES, AlphabetError,
                            PreconditionError, ResourceLimitError)
from geothue.oracle import class_closure, oracle_geodesics, oracle_wp
from geothue.pregroup import interleave_equivalent, universal_system
from geothue.rewriting import (dehn_wp, is_irreducible, reduce_lr_trace,
                               successors)
from geothue.systems import (RewriteSystem, load_system, preserving,
                             reducing)
from geothue.words import Alphabet
from tests.conftest import fixture_path, sub_system, words_of

FIXTURES = ("free_ab", "geoper_S", "geoper_T", "gpex", "tits_d3",
            "z2_graph", "z2z2", "z2z2_group")


def _directed_amalgam():
    d = builders.example_amalgam()
    return builders.build_amalgam_system(d.A, d.B, d.embA, d.embB,
                                         symmetrize=False)


SYSTEMS = {name: load_system(fixture_path(name + ".rws")) for name in FIXTURES}
SYSTEMS["directed_amalgam"] = _directed_amalgam()


def _passes_at_n_raises_below(run, n):
    run(n)
    with pytest.raises(ResourceLimitError) as info:
        run(n - 1)
    assert info.value.cap == n - 1


def test_descendant_closure_cap_boundary(tits_d3):
    (w,) = words_of(tits_d3.alphabet, "a b a b")
    assert len(descendant_closure(w, tits_d3)) == 4
    _passes_at_n_raises_below(
        lambda m: descendant_closure(w, tits_d3, max_nodes=m), 4)


def test_sp_equivalent_cap_boundary_with_unreachable_target(amalgam_pregroup):
    S = universal_system(amalgam_pregroup)
    u, v = words_of(S.alphabet, "1 1", "1 r")  # u's class has 8 words
    assert not sp_equivalent(u, v, S, max_nodes=8)
    _passes_at_n_raises_below(lambda m: sp_equivalent(u, v, S, max_nodes=m), 8)


def test_sp_equivalent_answers_a_near_target_in_a_class_over_budget(
        amalgam_pregroup):
    # u's class has 8 words, and a search from u that stops at v passes
    # at max_nodes=2; on a fresh system, then with u's class cached
    S = universal_system(amalgam_pregroup)
    u, v = words_of(S.alphabet, "1 1", "r2 r2")
    _passes_at_n_raises_below(lambda m: sp_equivalent(u, v, S, max_nodes=m), 2)
    classes, _overflows = S._sp_memo
    assert u not in classes
    assert sp_equivalent(u, v, S, max_nodes=8)
    assert len(classes[u]) == 8
    _passes_at_n_raises_below(lambda m: sp_equivalent(u, v, S, max_nodes=m), 2)


def test_sp_equivalent_skips_the_closure_of_a_class_known_over_budget(
        amalgam_pregroup, monkeypatch):
    # u's class has 8 words: once it overflows budget 5, a call at a
    # budget up to 5 runs only the search that stops at its target, and
    # every answer is the one a fresh system gives
    S = universal_system(amalgam_pregroup)
    u, near, far = words_of(S.alphabet, "1 1", "r2 r2", "1 r")
    real = confluence._closure
    targets = []

    def counting(*args, **kwargs):
        targets.append(kwargs.get("target", ()))
        return real(*args, **kwargs)

    def fresh(v, m):
        return sp_equivalent(u, v, universal_system(amalgam_pregroup), max_nodes=m)

    expected = {m: fresh(near, m) for m in (3, 5, 8)}
    with pytest.raises(ResourceLimitError):
        fresh(far, 5)
    monkeypatch.setattr(confluence, "_closure", counting)
    assert sp_equivalent(u, near, S, max_nodes=5) is expected[5]
    assert targets == [(), (near,)]
    for m in (5, 5, 3):
        targets.clear()
        assert sp_equivalent(u, near, S, max_nodes=m) is expected[m]
        assert targets == [(near,)]
    targets.clear()
    with pytest.raises(ResourceLimitError) as info:
        sp_equivalent(u, far, S, max_nodes=5)
    assert info.value.cap == 5
    assert targets == [(far,)]
    targets.clear()
    assert sp_equivalent(u, near, S, max_nodes=8) is expected[8]
    assert targets == [()]
    assert len(S._sp_memo[0][u]) == 8


def test_sp_equivalent_answers_equal_words_without_a_search(hnn_pregroup,
                                                            monkeypatch):
    # the class of a reduced 20-letter word has 6^19 members
    S = universal_system(hnn_pregroup)
    w = (S.alphabet.id("1.t.1"),) * 20

    def no_search(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(confluence, "_closure", no_search)
    assert sp_equivalent(w, w, S)
    assert sp_equivalent(w, w, S, max_nodes=1)
    with pytest.raises(AlphabetError):
        sp_equivalent(OUTSIDE, OUTSIDE, S)


@pytest.mark.parametrize("name", ["z2z2", "directed_amalgam"])
def test_with_rules_shares_the_class_memo_while_the_preserving_rules_stay(name):
    S = SYSTEMS[name]
    sp_equivalent((0, 1), (1, 0), S)
    assert S._sp_memo[0]
    longer = S.with_rules([reducing((0, 1, 0), (1,))])
    assert longer.reducing != S.reducing
    assert longer._sp_memo is S._sp_memo
    wider = S.with_rules([preserving((0, 1, 0), (1, 0, 0))])
    assert wider._sp_memo is not S._sp_memo
    assert wider._sp_memo == ({}, {})


def test_completion_closes_each_preserving_class_once(monkeypatch):
    # z2_graph's phases add only reducing rules, so every phase's system
    # reads and fills the input system's classes
    S = load_system(fixture_path("z2_graph.rws"))
    real = confluence._closure
    closures = []

    def counting(*args, **kwargs):
        if not kwargs.get("target"):
            closures.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(confluence, "_closure", counting)
    res = kb_complete(S, max_phases=16)
    assert res.system._sp_memo is S._sp_memo
    classes, overflows = S._sp_memo
    assert not overflows
    distinct = {id(c) for c in classes.values()}
    assert len(closures) == len(distinct) == 236


def test_interleave_equivalent_cap_boundary_with_unreachable_target(
        amalgam_pregroup):
    P = amalgam_pregroup
    u, v = ("r", "s", "r"), ("r", "s2", "r")  # u's slide class has 4 members
    assert not interleave_equivalent(u, v, P, max_nodes=4)
    _passes_at_n_raises_below(
        lambda m: interleave_equivalent(u, v, P, max_nodes=m), 4)


def test_dehn_wp_cap_boundary(free_ab):
    (w,) = words_of(free_ab.alphabet, "a A b B a")  # 4 reducing descendants
    assert not dehn_wp(w, free_ab, max_nodes=4)
    _passes_at_n_raises_below(lambda m: dehn_wp(w, free_ab, max_nodes=m), 4)


def test_preperfect_wp_cap_boundary(tits_d3):
    u, v = words_of(tits_d3.alphabet, "a b a b", "a b")  # closures of 4 and 1
    assert not preperfect_wp(u, v, tits_d3, max_nodes=4)
    _passes_at_n_raises_below(
        lambda m: preperfect_wp(u, v, tits_d3, max_nodes=m), 4)


def test_preperfect_wp_answers_a_pair_that_meets_within_the_budget(tits_d3):
    # u's closure has 3 words and v's 15, but the search from v meets u's
    # closure within 3 words; taken the other way round, the pair needs
    # v's full closure
    u, v = words_of(tits_d3.alphabet, "b a a b", "b a b b a b")
    assert len(descendant_closure(u, tits_d3)) == 3
    assert len(descendant_closure(v, tits_d3)) == 15
    _passes_at_n_raises_below(
        lambda m: preperfect_wp(u, v, tits_d3, max_nodes=m), 3)
    assert preperfect_wp(u, v, tits_d3, max_nodes=3)
    _passes_at_n_raises_below(
        lambda m: preperfect_wp(v, u, tits_d3, max_nodes=m), 15)


def test_check_gp_descendant_closure_cap_boundary():
    # no preserving rules, and the largest reducing-descendant set of a
    # pair side has 3 words
    ab = Alphabet(["a", "b"])
    S = RewriteSystem(ab, [reducing(ab.word("a b b"), ab.word("a a")),
                           reducing(ab.word("a a"), ab.word("a"))])
    verdict = check_geodesically_perfect(S, max_nodes=3)
    assert verdict.holds and verdict.pairs_checked == 2
    _passes_at_n_raises_below(
        lambda m: check_geodesically_perfect(S, max_nodes=m), 3)


def test_check_gp_budget_is_per_preserving_class(amalgam_pregroup):
    # the largest reducing-descendant set has 5 words, the largest
    # preserving class 8; the classes do not share one budget
    S = universal_system(amalgam_pregroup)
    verdict = check_geodesically_perfect(S, max_nodes=8)
    assert verdict.holds and verdict.pairs_checked == 3991
    with pytest.raises(ResourceLimitError) as info:
        check_geodesically_perfect(S, max_nodes=7)
    assert info.value.cap == 7


def test_directed_preserving_rules_connect_both_ways_only_in_classes():
    S = SYSTEMS["directed_amalgam"]
    assert not S.sp_symmetric and len(S.preserving) == 8
    forward = sub_system(S, S.preserving)
    for rule in S.preserving:
        assert sp_equivalent(rule.rhs, rule.lhs, S)
        assert rule.lhs not in descendant_closure(rule.rhs, forward)


def _closure_by_successors(word, system):
    seen = {word}
    todo = [word]
    while todo:
        for child in successors(todo.pop(), system):
            if child not in seen:
                seen.add(child)
                todo.append(child)
    return seen


@st.composite
def _system_and_word(draw):
    name = draw(st.sampled_from(sorted(SYSTEMS)))
    n = len(SYSTEMS[name].alphabet)
    word = draw(st.lists(st.integers(0, n - 1), max_size=5).map(tuple))
    return SYSTEMS[name], word


@settings(max_examples=80, deadline=None)
@given(_system_and_word(), st.sampled_from(["rules", "reducing", "preserving"]))
def test_descendant_closure_matches_successor_closure(system_and_word, which):
    system, word = system_and_word
    system = sub_system(system, getattr(system, which))
    assert descendant_closure(word, system) == \
        _closure_by_successors(word, system)


def _naive_sp_class(word, system):
    """Successor walk over the preserving rules, each taken both ways."""
    both_ways = RewriteSystem(system.alphabet, system.preserving)
    return _closure_by_successors(word, both_ways)


@st.composite
def _equal_length_words(draw, system):
    # u strings letters and sides of preserving rules together, so that
    # its class is seldom a single word; v is a word of u's length or a
    # member of u's class
    letter = st.integers(0, len(system.alphabet) - 1).map(lambda x: (x,))
    pieces = [letter]
    if system.preserving:
        pieces.append(st.sampled_from(
            [side for r in system.preserving for side in (r.lhs, r.rhs)]))
    u = sum(draw(st.lists(st.one_of(pieces), max_size=3)), ())
    word = st.lists(letter, min_size=len(u), max_size=len(u)).map(
        lambda xs: sum(xs, ()))
    v = draw(st.one_of(word, st.sampled_from(sorted(_naive_sp_class(u, system)))))
    return u, v


@pytest.mark.parametrize("name", sorted(SYSTEMS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sp_equivalent_matches_a_successor_walk(name, data):
    # a fresh copy of the system, so the first round computes the
    # classes and the second reads them from its cache; with_rules would
    # hand on the memo of the shared system
    S = SYSTEMS[name]
    system = RewriteSystem(S.alphabet, S.rules, inverse_pairing=S.inverse_pairing,
                           symmetrize=S.sp_symmetric)
    u, v = data.draw(_equal_length_words(S))
    expected = v in _naive_sp_class(u, system)
    for _ in range(2):
        assert sp_equivalent(u, v, system) is expected
        assert sp_equivalent(v, u, system) is expected


@st.composite
def _word_pair(draw):
    """A system, a word u, and a word v that is either any word or u after
    a few rule applications taken either way (equal in the monoid, and
    joinable or not)."""
    name = draw(st.sampled_from(sorted(SYSTEMS)))
    system = SYSTEMS[name]
    n = len(system.alphabet)
    u = draw(st.lists(st.integers(0, n - 1), max_size=5).map(tuple))
    if draw(st.booleans()):
        return system, u, draw(st.lists(st.integers(0, n - 1), max_size=5).map(tuple))
    sides = [(r.lhs, r.rhs) for r in system.rules]
    sides += [(rhs, lhs) for lhs, rhs in sides]
    v = u
    for _ in range(draw(st.integers(0, 4))):
        moves = [(i, old, new) for old, new in sides if len(v) - len(old) + len(new) <= 7
                 for i in range(len(v) - len(old) + 1) if v[i:i + len(old)] == old]
        if not moves:
            break
        i, old, new = draw(st.sampled_from(moves))
        v = v[:i] + new + v[i + len(old):]
    return system, u, v


@settings(max_examples=300, deadline=None)
@given(_word_pair())
def test_preperfect_wp_matches_joinability_of_full_closures(pair):
    system, u, v = pair
    expected = not descendant_closure(u, system).isdisjoint(
        descendant_closure(v, system))
    assert preperfect_wp(u, v, system) is expected
    assert preperfect_wp(v, u, system) is expected


OUTSIDE = (99,)
ENTRY_POINTS = {
    "sp_equivalent": lambda S: sp_equivalent(OUTSIDE, (98,), S),
    "descendant_closure": lambda S: descendant_closure(OUTSIDE, S),
    "preperfect_wp": lambda S: preperfect_wp(OUTSIDE, (98,), S),
    "preperfect_wp of v": lambda S: preperfect_wp((0,), OUTSIDE, S),
    "geodesics_of": lambda S: geodesics_of(OUTSIDE, S),
    "dehn_wp": lambda S: dehn_wp(OUTSIDE, S),
    "is_irreducible": lambda S: is_irreducible(OUTSIDE, S),
    "class_closure": lambda S: class_closure(OUTSIDE, S),
    "oracle_wp": lambda S: oracle_wp(OUTSIDE, (98,), S),
    "oracle_geodesics": lambda S: oracle_geodesics(OUTSIDE, S),
    "reduce_lr_trace": lambda S: reduce_lr_trace(OUTSIDE, S),
    "resolve_pair": lambda S: resolve_pair(
        CriticalPair(OUTSIDE, OUTSIDE, (0,), S.rules[0], S.rules[0], 0, 0), S),
    "resolve_pair of y": lambda S: resolve_pair(
        CriticalPair(OUTSIDE, (0,), OUTSIDE, S.rules[0], S.rules[0], 0, 0), S),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_out_of_alphabet_symbols_are_rejected(entry, free_ab):
    with pytest.raises(AlphabetError):
        ENTRY_POINTS[entry](free_ab)


# Each fast search on z2z2 (a a -> ., b b -> ., no pair unless a rule
# may overlap itself) or amalgam_z4z6, with an input it answers at once
# or by a closure of one word: only the budget check can refuse it.
FAST_SEARCHES = [
    (dehn_wp, lambda m, S, P: dehn_wp((0,), S, max_nodes=m)),
    (descendant_closure, lambda m, S, P: descendant_closure((0,), S, max_nodes=m)),
    (sp_equivalent, lambda m, S, P: sp_equivalent((0,), (0,), S, max_nodes=m)),
    (preperfect_wp, lambda m, S, P: preperfect_wp((0,), (0,), S, max_nodes=m)),
    (geodesics_of, lambda m, S, P: geodesics_of((0,), S, max_nodes=m)),
    (check_geodesically_perfect,
     lambda m, S, P: check_geodesically_perfect(S, max_nodes=m)),
    (resolve_pair, lambda m, S, P: resolve_pair(critical_pairs(S, True)[0], S,
                                                max_nodes=m)),
    (kb_complete, lambda m, S, P: kb_complete(S, max_nodes=m)),
    (interleave_equivalent,
     lambda m, S, P: interleave_equivalent(("r",), (), P, max_nodes=m)),
]
FAST_SEARCH_IDS = [fn.__name__ for fn, _ in FAST_SEARCHES]


@pytest.mark.parametrize("budget", [0, -1])
@pytest.mark.parametrize("fn, run", FAST_SEARCHES, ids=FAST_SEARCH_IDS)
def test_a_budget_below_one_is_refused(fn, run, budget, z2z2, amalgam_pregroup):
    # no closure holds fewer words than its start word
    with pytest.raises(PreconditionError, match="node budget must be at least 1"):
        run(budget, z2z2, amalgam_pregroup)

@pytest.mark.parametrize("fn, run", FAST_SEARCHES, ids=FAST_SEARCH_IDS)
def test_every_fast_search_defaults_to_the_shared_budget(fn, run):
    default = inspect.signature(fn).parameters["max_nodes"].default
    assert type(default) is int and default == DEFAULT_MAX_NODES
