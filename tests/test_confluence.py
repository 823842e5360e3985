import inspect
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from geothue import confluence
from geothue.confluence import (FailedPair, GpVerdict, OverlapKind,
                                check_geodesically_perfect,
                                critical_pairs, descendant_closure,
                                geodesics_of, iter_critical_pairs,
                                preperfect_wp, sp_equivalent)
from geothue.errors import DEFAULT_MAX_NODES, ResourceLimitError
from geothue.oracle import (GeodesicCheckStatus, WpVerdict,
                            geodesic_bounded_check, oracle_wp)
from geothue.pregroup import (check_axioms, table_isomorphic, universal_system,
                              universal_system_prime)
from geothue.rewriting import _closure, successors
from geothue.systems import (RewriteSystem, RuleKind, load_system,
                             parse_system, preserving, reducing)
from geothue.triangular import pregroup_from_system, reducing_part
from geothue.words import Alphabet
from tests.conftest import (GENERATED, fixture_path, overlapping_system,
                            sub_system, words_of)


def test_geoper_S_has_exactly_the_shared_lhs_pairs(geoper_S):
    ps = critical_pairs(geoper_S)
    assert len(ps) == 2
    ab = geoper_S.alphabet
    got = {(ab.format(p.x), ab.format(p.y)) for p in ps}
    assert got == {("a b", "a c"), ("a c", "a b")}
    assert all(p.kind is OverlapKind.INCLUSION for p in ps)


def test_tits_pair_inventory(tits_d3):
    ps = critical_pairs(tits_d3)
    # aa/bb against the braid equation, both overlap families
    zs = {tits_d3.alphabet.format(p.z) for p in ps}
    assert zs == {"a a b a", "a b a a", "b a b b", "b b a b"}


def test_pairs_are_one_step_divergences(z2_graph, tits_d3, geoper_S):
    for sys_ in (z2_graph, tits_d3, geoper_S):
        for p in critical_pairs(sys_):
            succ = successors(p.z, sys_)
            assert p.x in succ and p.y in succ
            assert p.rule1.kind is RuleKind.REDUCING


def _overlap_keys(S, same_rule):
    """(z, x, y, rule1, rule2) for every offset of every rule2 against
    every reducing rule1 at which the two left-hand sides agree."""
    keys = set()
    for r1 in S.reducing:
        l1, L1 = r1.lhs, len(r1.lhs)
        for r2 in S.rules:
            l2, L2 = r2.lhs, len(r2.lhs)
            # d is where rule2's span starts, relative to rule1's
            for d in range(1 - L2, L1):
                if r2 is r1 and (d == 0 or not same_rule):
                    continue
                pos1, pos2 = max(0, -d), max(0, d)
                z = [None] * max(pos1 + L1, pos2 + L2)
                z[pos1:pos1 + L1] = l1
                if any(z[pos2 + i] not in (None, c) for i, c in enumerate(l2)):
                    continue
                z[pos2:pos2 + L2] = l2
                z = tuple(z)
                keys.add((z, z[:pos1] + r1.rhs + z[pos1 + L1:],
                          z[:pos2] + r2.rhs + z[pos2 + L2:], r1, r2))
    return keys


@settings(max_examples=300, deadline=None)
@given(overlapping_system(with_preserving=True), st.booleans())
def test_pairs_are_every_overlap_once(S, same_rule):
    pairs = list(iter_critical_pairs(S, same_rule))
    keys = [(p.z, p.x, p.y, p.rule1, p.rule2) for p in pairs]
    assert len(set(keys)) == len(keys)
    assert set(keys) == _overlap_keys(S, same_rule)
    for p in pairs:
        succ = successors(p.z, S)
        assert p.x in succ and p.y in succ


@settings(max_examples=300, deadline=None)
@given(overlapping_system(with_preserving=True), st.booleans(), st.data())
def test_pairs_of_new_rules_are_the_pairs_that_use_one(S, same_rule, data):
    # completion's enumeration: in the order, and with the placements,
    # of the full enumeration, and sorted as critical_pairs sorts it
    new = set(data.draw(st.lists(st.sampled_from(S.rules), unique=True))
              if S.rules else ())
    using = [p for p in iter_critical_pairs(S, same_rule)
             if p.rule1 in new or p.rule2 in new]
    assert list(confluence._pairs(S, same_rule, new)) == [p[:7] for p in using]
    assert list(critical_pairs(S, same_rule, _new=new)) == \
        [p for p in critical_pairs(S, same_rule) if p.rule1 in new or p.rule2 in new]


def test_equal_pairs_keep_their_first_placement():
    # a -> . at each of the three letters of a a a gives the same pair with
    # a a a -> b: six placements, two pairs
    S = RewriteSystem(Alphabet("ab"), [reducing((0, 0, 0), (1,)), reducing((0,), ())])
    ab = S.alphabet

    def shown(same_rule):
        return [(ab.format(p.z), ab.format(p.x), ab.format(p.y),
                 S.rules.index(p.rule1), S.rules.index(p.rule2),
                 p.pos1, p.pos2, p.kind.value)
                for p in iter_critical_pairs(S, same_rule)]

    assert shown(False) == [("a a a", "b", "a a", 0, 1, 0, 2, "inclusion"),
                            ("a a a", "a a", "b", 1, 0, 0, 0, "inclusion")]
    assert shown(True) == [
        ("a a a a a", "b a a", "a a b", 0, 0, 0, 2, "left-overlap"),
        ("a a a", "b", "a a", 0, 1, 0, 2, "inclusion"),
        ("a a a a", "b a", "a b", 0, 0, 0, 1, "left-overlap"),
        ("a a a a a", "a a b", "b a a", 0, 0, 2, 0, "right-overlap"),
        ("a a a a", "a b", "b a", 0, 0, 1, 0, "right-overlap"),
        ("a a a", "a a", "b", 1, 0, 0, 0, "inclusion")]


def test_same_rule_shifted_overlaps_flagged_only(z2z2):
    strict = critical_pairs(z2z2)
    relaxed = critical_pairs(z2z2, include_same_rule_overlaps=True)
    assert len(strict) == 0
    assert {z2z2.alphabet.format(p.z) for p in relaxed} == {"a a a", "b b b"}


def test_geoper_T_is_geodesically_perfect(geoper_T):
    v = check_geodesically_perfect(geoper_T)
    assert v.holds and v.witness is None
    assert v.pairs_checked == 4


def test_gpex_strict_holds_relaxed_fails(gpex):
    assert check_geodesically_perfect(gpex).holds
    v = check_geodesically_perfect(gpex, include_same_rule_overlaps=True)
    assert not v.holds
    ab = gpex.alphabet
    assert {ab.format(v.witness.pair.x), ab.format(v.witness.pair.y)} == \
        {"f d", "d f"}


def test_graph_group_fails_with_commutator_witness(z2_graph):
    v = check_geodesically_perfect(z2_graph)
    assert not v.holds
    ab = z2_graph.alphabet
    pair = v.witness.pair
    assert {ab.format(pair.x), ab.format(pair.y)} == {"b", "a b A"}
    # the witness is replayable: both sides really descend from z
    assert pair.x in successors(pair.z, z2_graph)
    assert pair.y in successors(pair.z, z2_graph)


def test_free_group_is_geodesically_perfect(free_ab):
    assert check_geodesically_perfect(free_ab).holds


def test_tits_d3_not_geodesic_hence_not_gp(tits_d3):
    v = check_geodesically_perfect(tits_d3)
    assert not v.holds
    ab = tits_d3.alphabet
    assert {ab.format(v.witness.pair.x), ab.format(v.witness.pair.y)} == \
        {"b a", "a b a b"}


def test_descendant_closure_reducing_only(tits_d3):
    (w,) = words_of(tits_d3.alphabet, "a a b a")
    d = descendant_closure(w, sub_system(tits_d3, tits_d3.reducing))
    assert words_of(tits_d3.alphabet, "b a")[0] in d
    assert all(len(m) <= len(w) for m in d)


def test_sp_equivalent_needs_equal_length(geoper_T):
    b, c, bb = words_of(geoper_T.alphabet, "b", "c", "b b")
    assert sp_equivalent(b, c, geoper_T)
    assert not sp_equivalent(b, bb, geoper_T)
    assert sp_equivalent(b, b, geoper_T)


def test_preperfect_wp_tits(tits_d3):
    u, v = words_of(tits_d3.alphabet, "a b a", "b a b")
    assert preperfect_wp(u, v, tits_d3)
    w1, w2 = words_of(tits_d3.alphabet, "a", "b")
    assert not preperfect_wp(w1, w2, tits_d3)


def test_preperfect_wp_matches_oracle_small(tits_d3):
    words = [w for w in tits_d3.alphabet.words_upto(3)]
    for u in words:
        for v in words:
            expected = oracle_wp(u, v, tits_d3)
            assert expected is not WpVerdict.UNKNOWN
            assert preperfect_wp(u, v, tits_d3) == \
                (expected is WpVerdict.EQUAL)


def test_geodesics_of_tits(tits_d3):
    (w,) = words_of(tits_d3.alphabet, "a b a b")
    geos = geodesics_of(w, tits_d3)
    assert set(geos) == set(words_of(tits_d3.alphabet, "b a"))
    assert all(len(g) == 2 for g in geos)


def test_geodesics_of_geoper(geoper_S):
    (w,) = words_of(geoper_S.alphabet, "a d d")
    geos = geodesics_of(w, geoper_S)
    assert set(geos) == set(words_of(geoper_S.alphabet, "a b", "a c"))


def test_geodesic_check_consistent_for_geoper(geoper_S):
    rep = geodesic_bounded_check(geoper_S, max_len=4)
    assert rep.status is GeodesicCheckStatus.CONSISTENT


def test_geodesic_check_refutes_tits(tits_d3):
    rep = geodesic_bounded_check(tits_d3, max_len=4)
    assert rep.status is GeodesicCheckStatus.COUNTEREXAMPLE
    w, shorter = rep.counterexample
    assert len(shorter) < len(w)
    assert oracle_wp(w, shorter, tits_d3) is WpVerdict.EQUAL


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 1), max_size=6).map(tuple),
       st.lists(st.integers(0, 1), max_size=6).map(tuple))
def test_preperfect_wp_symmetric_tits(u, v):
    sys_ = load_system(fixture_path("tits_d3.rws"))
    assert preperfect_wp(u, v, sys_) == preperfect_wp(v, u, sys_)


def test_gp_verdict_on_system_without_preserving_rules(z2z2):
    # no preserving rules and no strict pairs: trivially fine
    assert check_geodesically_perfect(z2z2).holds


def _pairwise_gp(system, include_same_rule_overlaps=False,
                 max_nodes=DEFAULT_MAX_NODES):
    """check_geodesically_perfect decided pair by pair: each (x, y) is
    memoised, and a pair holds when some reducing descendants of equal
    length are the same word or share a preserving class, the classes
    closed lazily until the first match."""
    what = "preserving-class closure"
    rdesc_cache = {}

    def rdesc(w):
        got = rdesc_cache.get(w)
        if got is None:
            got = frozenset(_closure(w, system._reducing_steps, max_nodes,
                                     "descendant closure"))
            rdesc_cache[w] = got
        return got

    verdict_cache = {}
    checked = 0
    for pair in iter_critical_pairs(system, include_same_rule_overlaps):
        checked += 1
        key = (pair.x, pair.y)
        ok = verdict_cache.get(key)
        if ok is None:
            dx = rdesc(pair.x)
            dy = rdesc(pair.y)
            ok = False
            by_len = {}
            for w in dx:
                by_len.setdefault(len(w), set()).add(w)
            for w in dy:
                bucket = by_len.get(len(w))
                if bucket is None:
                    continue
                if w in bucket:
                    ok = True
                    break
                cls = confluence._sp_class(w, system, max_nodes, what)
                if any(confluence._sp_class(c, system, max_nodes, what) is cls
                       for c in bucket):
                    ok = True
                    break
            verdict_cache[key] = ok
            verdict_cache[(pair.y, pair.x)] = ok
        if not ok:
            return GpVerdict(False, checked,
                             FailedPair(pair, rdesc(pair.x), rdesc(pair.y)))
    return GpVerdict(True, checked, None)


def _outcome(check, system, same_rule, max_nodes):
    """The verdict, or the text and cap of the budget error."""
    kwargs = {} if max_nodes is None else {"max_nodes": max_nodes}
    try:
        return check(system, same_rule, **kwargs)
    except ResourceLimitError as err:
        return str(err), err.cap


# a b a -> a b, a b <-> b a, a -> .: at max_nodes=5 every pair is
# decided before a preserving class over the budget is needed, though
# some side has a descendant whose class is over it
CAPPED = RewriteSystem(Alphabet("ab"), [reducing((0, 1, 0), (0, 1)),
                                        preserving((0, 1), (1, 0)),
                                        reducing((0,), ())])
# at max_nodes=2 the side c c has its own class, {c c}, within the budget
# but not that of its reducing child a, {a, b, d}; so c c, and likewise
# e e, gets no signature, and the pair (c c, e e) of g h k is decided by
# the pairwise test, which meets a in both sides
CHILD_CAPPED = parse_system("""alphabet a b d c e g h k
rule g h k -> c c
rule g h k -> e e
rule c c -> a
rule e e -> a
rule a <-> b
rule b <-> d
""")
# d d d has four reducing descendants (itself, d d, d and the empty
# word), but its children d d and d share d, so a sum over children
# counts six; the grouped walk meets d d d as the x of d d d -> d over
# a copy of itself two letters on, in both overlap modes
OVERCOUNTED = parse_system("""alphabet a b c d
rule d d d -> d
rule a -> .
rule d -> .
""")


# a budget of 1000 words, not the default, so that a drawn system with
# long preserving rules (a class of 2^17 words) stops at once in both
# checks rather than closing its classes in full
@settings(max_examples=300, deadline=None)
@given(overlapping_system(with_preserving=True), st.booleans(),
       st.sampled_from((1, 2, 3, 5, 1000)))
@example(CAPPED, False, 5)
@example(CAPPED, True, 5)
@example(CHILD_CAPPED, False, 2)
@example(CHILD_CAPPED, True, 2)
@example(OVERCOUNTED, False, 4)
@example(OVERCOUNTED, True, 4)
# the normal-form test takes a side of n letters over k from a budget
# of 1 + k + ... + k^n: OVERCOUNTED's sides of 1 letter from 5, CAPPED's
# of 1 and 2 letters from 3 and 7
@example(OVERCOUNTED, False, 5)
@example(OVERCOUNTED, True, 5)
@example(CAPPED, False, 2)
@example(CAPPED, True, 2)
@example(CAPPED, False, 3)
@example(CAPPED, True, 3)
@example(CAPPED, False, 6)
@example(CAPPED, True, 6)
@example(CAPPED, False, 7)
@example(CAPPED, True, 7)
def test_gp_check_matches_its_pairwise_twin(S, same_rule, max_nodes):
    # each check on its own copy, so neither reads the other's classes
    twin = RewriteSystem(S.alphabet, S.rules)
    assert _outcome(check_geodesically_perfect, S, same_rule, max_nodes) == \
        _outcome(_pairwise_gp, twin, same_rule, max_nodes)


def _ordinary_gp(system, include_same_rule_overlaps=False,
                 max_nodes=DEFAULT_MAX_NODES):
    """check_geodesically_perfect in the order of the pair stream alone:
    each distinct side is closed and given the classes of its
    descendants as its signature, and a side with a class over the
    budget gets the pairwise test."""
    what = "preserving-class closure"
    desc = {}

    def descendants(w):
        if w not in desc:
            desc[w] = frozenset(_closure(w, system._reducing_steps, max_nodes,
                                         "descendant closure"))
        return desc[w]

    sigs = {}

    def signature(w):
        if w not in sigs:
            dw = descendants(w)
            try:
                sigs[w] = frozenset(confluence._sp_class(d, system, max_nodes, what)
                                    for d in dw)
            except ResourceLimitError:
                sigs[w] = None
        return sigs[w]

    # the pairwise test closes classes by the order of its sides, so a
    # verdict is kept for both orders
    lazy = {}
    checked = 0
    for pair in confluence._pairs(system, include_same_rule_overlaps, None):
        checked += 1
        x, y = pair.x, pair.y
        sx, sy = signature(x), signature(y)
        if sx is not None and sy is not None:
            ok = not sx.isdisjoint(sy)
        elif (x, y) in lazy:
            ok = lazy[(x, y)]
        else:
            ok = lazy[(x, y)] = lazy[(y, x)] = confluence._holds_lazily(
                descendants(x), descendants(y), system, max_nodes)
        if not ok:
            return GpVerdict(False, checked, FailedPair(
                pair, descendants(x), descendants(y)))
    return GpVerdict(True, checked, None)


# the first two groups of a b -> c, by lhs, are b c (b c -> a, then
# b c -> b) and b a (b a -> .): b c -> b and b a -> . fail, so the
# grouped walk stops at b c -> b while the stream's witness is b a -> .
INTERLEAVED = RewriteSystem(Alphabet("abc"), [
    reducing((0, 1), (2,)), reducing((1, 2), (0,)), reducing((1, 0), ()),
    reducing((1, 2), (1,)), reducing((2, 2), ()), reducing((0, 0), ())])
# a a a -> b has three groups (a a a, b, a), one at each letter; the
# three pairs with a -> . are one pair, those with a -> c three
REPEATED = RewriteSystem(Alphabet("abc"), [
    reducing((0, 0, 0), (1,)), reducing((0,), ()), preserving((0,), (2,))])
REPEATED_HOLDS = RewriteSystem(Alphabet("abc"), REPEATED.rules + (
    reducing((1,), ()), reducing((2,), ())))


# a budget of 1000 words, not the default, so that a drawn system with
# long preserving rules (a class of 2^17 words) stops at once in both
# checks rather than closing its classes in full
@settings(max_examples=300, deadline=None)
@given(overlapping_system(with_preserving=True), st.booleans(),
       st.sampled_from((1, 2, 3, 5, 1000)), st.randoms(use_true_random=False))
@example(INTERLEAVED, False, None, random.Random(0))
@example(REPEATED, True, None, random.Random(0))
@example(REPEATED_HOLDS, False, None, random.Random(0))
@example(REPEATED_HOLDS, True, None, random.Random(0))
@example(CAPPED, True, 5, random.Random(0))
@example(CHILD_CAPPED, False, 2, random.Random(0))
@example(CHILD_CAPPED, True, 2, random.Random(0))
@example(OVERCOUNTED, False, 4, random.Random(0))
@example(OVERCOUNTED, True, 4, random.Random(0))
# the normal-form test takes a side of n letters over k from a budget
# of 1 + k + ... + k^n: OVERCOUNTED's sides of 1 letter from 5, CAPPED's
# of 1 and 2 letters from 3 and 7
@example(OVERCOUNTED, False, 5, random.Random(0))
@example(OVERCOUNTED, True, 5, random.Random(0))
@example(CAPPED, False, 2, random.Random(0))
@example(CAPPED, True, 2, random.Random(0))
@example(CAPPED, False, 3, random.Random(0))
@example(CAPPED, True, 3, random.Random(0))
@example(CAPPED, False, 6, random.Random(0))
@example(CAPPED, True, 6, random.Random(0))
@example(CAPPED, False, 7, random.Random(0))
@example(CAPPED, True, 7, random.Random(0))
def test_grouped_gp_check_matches_its_ordinary_order_twin(
        S, same_rule, max_nodes, rng):
    # @example systems keep their order; drawn ones get a seeded one
    rules = list(S.rules)
    if S not in (INTERLEAVED, REPEATED, REPEATED_HOLDS, CAPPED, CHILD_CAPPED,
                 OVERCOUNTED):
        rng.shuffle(rules)
    S = RewriteSystem(S.alphabet, rules)
    twin = RewriteSystem(S.alphabet, S.rules)
    assert _outcome(check_geodesically_perfect, S, same_rule, max_nodes) == \
        _outcome(_ordinary_gp, twin, same_rule, max_nodes)


def test_a_side_with_a_child_class_over_the_budget_has_no_signature():
    S = RewriteSystem(CHILD_CAPPED.alphabet, CHILD_CAPPED.rules)
    assert check_geodesically_perfect(S, max_nodes=2) == \
        GpVerdict(True, 2, None)
    # c c -> a meets itself in c c c, whose sides a c and c a each have a
    # class of three words
    with pytest.raises(ResourceLimitError,
                       match="preserving-class closure") as err:
        check_geodesically_perfect(S, True, max_nodes=2)
    assert err.value.cap == 2


def test_the_witness_is_the_streams_first_failing_pair():
    v = check_geodesically_perfect(INTERLEAVED)
    ab = INTERLEAVED.alphabet
    pair = v.witness.pair
    assert (v.pairs_checked, ab.format(pair.z), ab.format(pair.x),
            ab.format(pair.y)) == (2, "a b a", "c a", "a")
    assert pair.rule2 is INTERLEAVED.rules[2]


def test_repeated_groups_count_each_pair_once():
    # with its shifts, a a a -> b also meets itself in six placements
    for same_rule, pairs in ((False, 4 + 2 + 1), (True, 4 + 2 + 1 + 4)):
        assert check_geodesically_perfect(REPEATED_HOLDS, same_rule) == \
            GpVerdict(True, pairs, None)
        assert len(list(iter_critical_pairs(REPEATED_HOLDS, same_rule))) == pairs


def _counting(monkeypatch, name):
    """Wrap a function of confluence and list the first argument of each
    call, or for a generator (first argument, item) for each item it
    yields."""
    calls = []
    fn = getattr(confluence, name)

    def counted(*args, **kwargs):
        got = fn(*args, **kwargs)
        if inspect.isgenerator(got):
            return (calls.append((args[0], item)) or item for item in got)
        calls.append(args[0])
        return got

    monkeypatch.setattr(confluence, name, counted)
    return calls


def _closing(monkeypatch):
    """List the start word of each descendant closure that confluence
    runs, and of each that _Signatures.descendants runs for a side whose
    closure it does not hold."""
    closed, again = [], []

    def counted(w, steps, max_nodes, what, *args, **kwargs):
        if what == "descendant closure":
            closed.append(w)
        return _closure(w, steps, max_nodes, what, *args, **kwargs)

    descendants = confluence._Signatures.descendants

    def asked(sigs, w):
        if w not in sigs.desc:
            again.append(w)
        return descendants(sigs, w)

    monkeypatch.setattr(confluence, "_closure", counted)
    monkeypatch.setattr(confluence._Signatures, "descendants", asked)
    return closed, again


def _closed_once_per_signature(closed, again, sides):
    """Each closed word is a side, closed once for its signature and at
    most once more for the pairwise test or the witness."""
    assert set(closed) <= sides
    assert len(again) == len(set(again))
    assert set((Counter(closed) - Counter(again)).values()) == {1}


@pytest.mark.parametrize("same_rule, pairs", [(False, 10), (True, 12)])
def test_capped_gp_check_holds_without_the_classes_it_skips(
        same_rule, pairs, monkeypatch):
    S = RewriteSystem(CAPPED.alphabet, CAPPED.rules)
    closed, again = _closing(monkeypatch)
    v = check_geodesically_perfect(S, same_rule, max_nodes=5)
    monkeypatch.undo()
    assert v.holds and v.pairs_checked == pairs
    # every side goes to the signatures, and the pairs of a side whose
    # descendants have a class over the budget close the other side again
    sides = {w for cp in iter_critical_pairs(S, same_rule) for w in (cp.x, cp.y)}
    assert set(closed) == sides and again
    _closed_once_per_signature(closed, again, sides)


@pytest.mark.parametrize("same_rule, pairs", [(False, 3991), (True, 4006)])
def test_gp_check_walks_groups_and_settles_pairs_by_normal_forms(
        same_rule, pairs, amalgam_pregroup, monkeypatch):
    S = universal_system(amalgam_pregroup)
    walked = _counting(monkeypatch, "_placements")
    closed, _ = _closing(monkeypatch)
    reduced = _counting(monkeypatch, "_reduce_lr")
    assert check_geodesically_perfect(S, same_rule) == GpVerdict(True, pairs, None)
    monkeypatch.undo()
    stream = list(iter_critical_pairs(S, same_rule))
    assert len(stream) == pairs
    # 849 groups in both modes, one per distinct lhs placement; every
    # pair is in one of them
    assert len(walked) == 849
    assert {(cp.rule1.lhs, cp.rule2.lhs, cp.pos1, cp.pos2) for cp in stream} <= \
        {(l1, group.lhs, pos1, pos2) for l1, (group, pos1, pos2) in walked}
    # every pair is settled by the normal forms of its sides, each word
    # reduced once: the 536 sides and the x of one group without a pair;
    # no descendant closure is run
    assert closed == []
    sides = {w for cp in stream for w in (cp.x, cp.y)}
    assert len(reduced) == len(set(reduced)) == 537
    assert set(reduced) >= sides


@pytest.mark.parametrize("same_rule, pairs", [(False, 3991), (True, 4006)])
def test_gp_check_lists_descendants_once_where_no_side_fits(
        same_rule, pairs, amalgam_pregroup, monkeypatch):
    # with 8 letters, 1 + 8 words of length at most 1 exceed a budget of
    # 8, so only the empty word has its normal form taken and every side
    # goes to the signatures, as before the normal-form test
    S = universal_system(amalgam_pregroup)
    closed, again = _closing(monkeypatch)
    reduced = _counting(monkeypatch, "_reduce_lr")
    assert check_geodesically_perfect(S, same_rule, max_nodes=8) == \
        GpVerdict(True, pairs, None)
    monkeypatch.undo()
    assert not any(reduced)
    sides = {w for cp in iter_critical_pairs(S, same_rule) for w in (cp.x, cp.y)}
    assert set(closed) == sides
    _closed_once_per_signature(closed, again, sides)


@pytest.mark.parametrize("same_rule, pairs, fits", [(False, 2, 3), (True, 4, 4)])
def test_a_side_is_closed_once_and_raises_where_its_closure_raises(
        same_rule, pairs, fits, monkeypatch):
    closed, again = _closing(monkeypatch)

    def check(max_nodes):
        S = RewriteSystem(OVERCOUNTED.alphabet, OVERCOUNTED.rules)
        return check_geodesically_perfect(S, same_rule, max_nodes=max_nodes)

    # every side that the normal forms leave open has a signature, from
    # one closure of the side
    sides = {w for cp in iter_critical_pairs(OVERCOUNTED, same_rule)
             for w in (cp.x, cp.y)}
    for max_nodes in (4, 5):
        closed.clear()
        assert check(max_nodes) == GpVerdict(True, pairs, None)
        assert closed and again == []
        _closed_once_per_signature(closed, again, sides)
    with pytest.raises(ResourceLimitError,
                       match="descendant closure exceeded its node budget") as err:
        check(fits - 1)
    assert err.value.cap == fits - 1
    assert check(fits) == GpVerdict(True, pairs, None)


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_pregroups_give_gp_systems_that_lead_back(name):
    build, *args = GENERATED[name]
    P = build(*args)
    assert check_axioms(P).ok
    for universal in (universal_system, universal_system_prime):
        for same_rule in (False, True):
            verdict = check_geodesically_perfect(universal(P), same_rule)
            assert verdict.holds
            assert verdict == _pairwise_gp(universal(P), same_rule)
    recovered = pregroup_from_system(reducing_part(universal_system_prime(P)))
    assert table_isomorphic(P, recovered)
