from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from geothue import completion
from geothue.builders import CommutationGraph, build_graph_group
from geothue.completion import (DEFAULT_MAX_PHASES, DEFAULT_MAX_RULES,
                                CompletionResult, CompletionStatus, PhaseStats,
                                Resolution, ResolutionAction, kb_complete,
                                resolve_pair)
from geothue.confluence import (check_geodesically_perfect, critical_pairs,
                                sp_equivalent)
from geothue.errors import (DEFAULT_MAX_NODES, PreconditionError,
                            ResourceLimitError)
from geothue.oracle import class_partition
from geothue.rewriting import (_check_budget, reduce_lr, reduce_lr_trace,
                               successors)
from geothue.systems import (RewriteSystem, RuleKind, load_system,
                             parse_system, preserving, reducing)
from tests.conftest import FIXTURES, overlapping_system


def test_z2z2_group_completes(z2z2_group):
    res = kb_complete(z2z2_group)
    assert res.status is CompletionStatus.COMPLETED
    assert len(res.phases) == 3
    # phase 1 discovers A ~ a and B ~ b, phase 2 the induced AA, BB rules
    assert res.phases[0].added_preserving == 2
    assert res.phases[1].added_reducing == 2
    assert res.phases[2].added_reducing == 0
    assert res.phases[2].added_preserving == 0
    assert check_geodesically_perfect(res.system).holds


def test_completed_system_keeps_the_classes(z2z2_group):
    res = kb_complete(z2z2_group)
    before, capped_b = class_partition(z2z2_group, horizon=7)
    after, capped_a = class_partition(res.system, horizon=7)
    assert not capped_b and not capped_a
    for w in z2z2_group.alphabet.words_upto(4):
        for v in z2z2_group.alphabet.words_upto(4):
            assert (before[w] == before[v]) == (after[w] == after[v])


def test_geoper_S_never_stops(geoper_S):
    res = kb_complete(geoper_S, max_phases=6)
    assert res.status is CompletionStatus.PHASE_LIMIT
    counts = [p.total_rules for p in res.phases]
    assert counts == sorted(counts) and len(set(counts)) == len(counts)


def test_graph_group_never_stops(z2_graph):
    res = kb_complete(z2_graph, max_phases=6)
    assert res.status is CompletionStatus.PHASE_LIMIT
    counts = [p.total_rules for p in res.phases]
    assert all(b > a for a, b in zip(counts, counts[1:]))


def test_rule_budget(z2_graph):
    res = kb_complete(z2_graph, max_phases=50, max_rules=30)
    assert res.status is CompletionStatus.RULE_LIMIT


@pytest.mark.parametrize("max_rules", [0, -5])
def test_rule_budget_below_one_is_refused(z2_graph, max_rules):
    with pytest.raises(PreconditionError, match="at least 1"):
        kb_complete(z2_graph, max_rules=max_rules)


@pytest.mark.parametrize("max_phases", [0, -3])
def test_phase_budget_below_one_is_refused(z2_graph, max_phases):
    with pytest.raises(PreconditionError, match="phase limit must be at least 1"):
        kb_complete(z2_graph, max_phases=max_phases)


def test_rule_budget_is_checked_after_a_phase(z2_graph):
    # z2_graph has 12 rules: a cap of 1 still runs the first phase
    res = kb_complete(z2_graph, max_rules=1)
    assert res.status is CompletionStatus.RULE_LIMIT
    assert len(res.phases) == 1


def test_certificates_replay(z2z2_group, z2_graph, geoper_S):
    for system, phases in ((z2z2_group, DEFAULT_MAX_PHASES), (z2_graph, 6),
                           (geoper_S, 4)):
        res = kb_complete(system, max_phases=phases)
        assert res.certificates
        for cert in res.certificates:
            chain = cert.chain
            assert chain[0] == cert.x_hat and chain[-1] == cert.y_hat
            assert cert.pair.z in chain
            for u, v in zip(chain, chain[1:]):
                assert v in successors(u, res.system) or \
                    u in successors(v, res.system)


def test_resolve_actions(geoper_S, geoper_T):
    pair = critical_pairs(geoper_S)[0]
    res = resolve_pair(pair, geoper_S)
    assert res.action is ResolutionAction.ADD_PRESERVING
    assert res.rule.kind is RuleKind.PRESERVING
    # same divergence under T: already connected by b <-> c
    pair_t = [p for p in critical_pairs(geoper_T)
              if p.z == pair.z and p.rule1 == pair.rule1
              and p.rule2 == pair.rule2][0]
    res_t = resolve_pair(pair_t, geoper_T)
    assert res_t.action is ResolutionAction.SP_EQUIVALENT
    assert res_t.rule is None
    assert res_t.chain == ()  # only a pair that adds a rule is traced


def test_a_longer_normal_form_of_either_side_becomes_the_lhs():
    S = parse_system("alphabet a b c d\nrule a b c -> d d\nrule b c -> .\n")
    fmt = S.alphabet.format
    # both pairs of a b c, x = d d from a b c -> d d first, then x = a
    resolved = [resolve_pair(p, S) for p in critical_pairs(S)]
    assert [r.action for r in resolved] == [ResolutionAction.ADD_REDUCING] * 2
    assert [(fmt(r.rule.lhs), fmt(r.rule.rhs)) for r in resolved] == \
        [("d d", "a")] * 2
    assert [[fmt(w) for w in r.chain] for r in resolved] == \
        [["d d", "a b c", "a"], ["a", "a b c", "d d"]]


def test_geoper_completion_grows_one_equation_per_phase(geoper_S):
    res = kb_complete(geoper_S, max_phases=4)
    assert [p.added_preserving for p in res.phases] == [1, 1, 1, 1]
    ab = res.system.alphabet
    added = {(ab.format(r.lhs), ab.format(r.rhs)) for r in res.system.preserving}
    assert ("a b", "a c") in added
    assert ("a e b", "a e c") in added  # discovered in phase 2


def test_phase_pair_profiles(z2_graph, gpex, z2z2_group):
    # a phase's fresh pairs use at least one rule the system lacked a
    # phase earlier
    def profile(system, **kwargs):
        return [p.new_pairs for p in kb_complete(system, **kwargs).phases]

    assert profile(z2_graph, max_phases=6) == [24, 128, 224, 320, 416, 512]
    deep = kb_complete(z2_graph, max_phases=12).phases
    assert [p.new_pairs for p in deep] == \
        [24, 128, 224, 320, 416, 512, 608, 704, 800, 896, 992, 1088]
    assert [p.total_rules for p in deep] == \
        [20, 28, 36, 44, 52, 60, 68, 76, 84, 92, 100, 108]
    assert profile(gpex, max_phases=6, include_same_rule_overlaps=True) == \
        [2, 2, 10, 14, 18, 22]
    assert profile(z2z2_group) == [16, 12, 12]


def _resolve_every_pair(system, max_phases, include_same_rule_overlaps=False,
                        max_nodes=DEFAULT_MAX_NODES):
    """kb_complete as it was before it classified pairs by key:
    resolve_pair on every fresh pair, the first pair of each rule key and
    mirror key kept, with its Resolution as the certificate."""
    current, new, phases, certificates = system, None, [], []
    for index in range(1, max_phases + 1):
        fresh = critical_pairs(current, include_same_rule_overlaps, _new=new)
        added, added_keys = [], set()
        n_red = n_pres = 0
        for pair in fresh:
            res = completion.resolve_pair(pair, current, max_nodes=max_nodes)
            rule = res.rule
            if rule is None:
                continue
            key = (rule.lhs, rule.rhs)
            mirror_key = ((rule.rhs, rule.lhs)
                          if rule.kind is RuleKind.PRESERVING else None)
            if key in added_keys or mirror_key in added_keys:
                continue
            added_keys.add(key)
            if mirror_key is not None:
                added_keys.add(mirror_key)
                n_pres += 1
            else:
                n_red += 1
            added.append(rule)
            certificates.append(res)
        if added:
            extended = current.with_rules(added)
            new = set(extended.rules).difference(current.rules)
            current = extended
        phases.append(PhaseStats(index, len(fresh), n_red, n_pres,
                                 len(current.rules)))
        status = (CompletionStatus.COMPLETED if not added
                  else CompletionStatus.RULE_LIMIT
                  if len(current.rules) > DEFAULT_MAX_RULES else None)
        if status is not None:
            break
    else:
        status = CompletionStatus.PHASE_LIMIT
    return CompletionResult(current, status, tuple(phases), tuple(certificates))


def _completion(complete, S, same_rule, max_phases, max_nodes):
    """The result's dict and final system, or the text and cap of the
    budget error, on a fresh copy of S."""
    try:
        res = complete(RewriteSystem(S.alphabet, S.rules), max_phases=max_phases,
                       include_same_rule_overlaps=same_rule, max_nodes=max_nodes)
    except ResourceLimitError as err:
        return str(err), err.cap
    return res.to_dict(), res.system


FIXTURE_SYSTEMS = {path.stem: load_system(path)
                   for path in sorted(FIXTURES.glob("*.rws"))}
PATH_ABC = build_graph_group(CommutationGraph(("a", "b", "c"),
                                              (("a", "b"), ("b", "c"))))
SQUARE_ABCD = build_graph_group(CommutationGraph(
    ("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"))))

# the pairs of a a give b <-> a, then its mirror, whose sp_equivalent
# query starts from a and meets a's class {a, c} over a budget of 1: a
# phase that skipped the query for a key it already keeps would not raise
REPEATED_KEY = parse_system("alphabet a b c\nrule a a -> b\nrule a a -> a\n"
                            "rule a <-> c\n")


# budgets are never None, the default: a drawn system with long
# preserving rules can close classes of 2^17 words under it
@settings(max_examples=200, deadline=None)
@given(overlapping_system(with_preserving=True), st.booleans(),
       st.integers(1, 3), st.sampled_from((1, 2, 3, 5, 50)))
@example(FIXTURE_SYSTEMS["free_ab"], False, 3, 50)
@example(FIXTURE_SYSTEMS["geoper_S"], False, 3, 50)
@example(FIXTURE_SYSTEMS["geoper_S"], True, 3, 1)
@example(FIXTURE_SYSTEMS["geoper_T"], False, 3, 50)
@example(FIXTURE_SYSTEMS["geoper_T"], True, 2, 2)
@example(FIXTURE_SYSTEMS["gpex"], True, 3, 50)
@example(FIXTURE_SYSTEMS["tits_d3"], False, 3, 50)
@example(FIXTURE_SYSTEMS["tits_d3"], True, 3, 3)
@example(FIXTURE_SYSTEMS["z2_graph"], False, 3, 50)
@example(FIXTURE_SYSTEMS["z2z2"], True, 3, 50)
@example(FIXTURE_SYSTEMS["z2z2_group"], False, 3, 50)
@example(FIXTURE_SYSTEMS["z2z2_group"], True, 3, 1)
@example(PATH_ABC, False, 3, 50)
@example(SQUARE_ABCD, True, 2, 5)
@example(REPEATED_KEY, False, 1, 1)
def test_completion_matches_its_resolve_every_pair_twin(S, same_rule,
                                                         max_phases, max_nodes):
    assert _completion(kb_complete, S, same_rule, max_phases, max_nodes) == \
        _completion(_resolve_every_pair, S, same_rule, max_phases, max_nodes)


def test_only_the_kept_rules_are_resolved_and_traced(z2_graph, monkeypatch):
    # deterministic companion of the twin: one resolve_pair and two
    # traced reductions per certificate, where the twin resolves, and so
    # traces, every fresh pair
    calls = Counter()

    def count(name):
        fn = getattr(completion, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(completion, name, counted)

    count("resolve_pair")
    count("reduce_lr_trace")
    res = kb_complete(RewriteSystem(z2_graph.alphabet, z2_graph.rules),
                      max_phases=5)
    kept = len(res.certificates)
    assert calls == {"resolve_pair": kept, "reduce_lr_trace": 2 * kept}
    calls.clear()
    twin = _resolve_every_pair(RewriteSystem(z2_graph.alphabet, z2_graph.rules), 5)
    assert twin.to_dict() == res.to_dict()
    # 1,112 fresh pairs, each resolved on both of its sides
    assert (kept, sum(p.new_pairs for p in res.phases)) == (40, 1112)
    assert calls == {"resolve_pair": 1112, "reduce_lr_trace": 2 * 1112}


def test_a_phase_reduces_each_distinct_side_once(z2_graph, monkeypatch):
    reduced, phases = [], []
    reduce_loop = completion._reduce_lr
    enumerate_pairs = completion.critical_pairs

    def recorded_reduce(word, system, steps):
        reduced.append((id(system), word))
        return reduce_loop(word, system, steps)

    def recorded_pairs(system, *args, **kwargs):
        # the system is kept, so no later phase's system can take its id
        pairs = enumerate_pairs(system, *args, **kwargs)
        phases.append((system, pairs))
        return pairs

    monkeypatch.setattr(completion, "_reduce_lr", recorded_reduce)
    monkeypatch.setattr(completion, "critical_pairs", recorded_pairs)
    kb_complete(RewriteSystem(z2_graph.alphabet, z2_graph.rules), max_phases=5)
    assert len(phases) == 5
    assert len(reduced) == len(set(reduced))
    words_of = {id(system): set() for system, _pairs in phases}
    for system_id, word in reduced:
        words_of[system_id].add(word)
    assert words_of == {id(system): {side for pair in pairs
                                     for side in (pair.x, pair.y)}
                        for system, pairs in phases}


def _resolve_pair_twin(pair, system, max_nodes=DEFAULT_MAX_NODES):
    """resolve_pair as it was before it read its normal forms off its
    traces: the symbols checked first, the normal forms from reduce_lr,
    its own branches, and a chain from two more traced reductions."""
    _check_budget(max_nodes)
    system._check_symbols(pair.x)
    system._check_symbols(pair.y)
    x_hat = reduce_lr(pair.x, system)
    y_hat = reduce_lr(pair.y, system)
    if x_hat == y_hat:
        return Resolution(pair, ResolutionAction.JOINED, x_hat, y_hat, None, ())
    if len(x_hat) == len(y_hat):
        if sp_equivalent(x_hat, y_hat, system, max_nodes=max_nodes):
            return Resolution(pair, ResolutionAction.SP_EQUIVALENT, x_hat,
                              y_hat, None, ())
        action, rule = ResolutionAction.ADD_PRESERVING, preserving(x_hat, y_hat)
    elif len(x_hat) > len(y_hat):
        action, rule = ResolutionAction.ADD_REDUCING, reducing(x_hat, y_hat)
    else:
        action, rule = ResolutionAction.ADD_REDUCING, reducing(y_hat, x_hat)
    sides = []
    for side in (pair.x, pair.y):
        final, steps = reduce_lr_trace(side, system)
        sides.append(tuple(before for before, _pos, _rule in steps) + (final,))
    chain = sides[0][::-1] + (pair.z,) + sides[1]
    return Resolution(pair, action, x_hat, y_hat, rule, chain)


def _resolution(resolve, pair, system, max_nodes):
    """The Resolution, or the text and cap of the budget error."""
    try:
        return resolve(pair, system, max_nodes=max_nodes)
    except ResourceLimitError as err:
        return str(err), err.cap


@settings(max_examples=200, deadline=None)
@given(overlapping_system(with_preserving=True), st.booleans(),
       st.sampled_from((1, 2, 3, 5, 50)))
@example(FIXTURE_SYSTEMS["free_ab"], False, 50)
@example(FIXTURE_SYSTEMS["geoper_S"], True, 1)
@example(FIXTURE_SYSTEMS["geoper_T"], False, 1)
@example(FIXTURE_SYSTEMS["geoper_T"], True, 50)
@example(FIXTURE_SYSTEMS["gpex"], True, 50)
@example(FIXTURE_SYSTEMS["tits_d3"], True, 3)
@example(FIXTURE_SYSTEMS["z2_graph"], False, 50)
@example(FIXTURE_SYSTEMS["z2z2"], True, 50)
@example(FIXTURE_SYSTEMS["z2z2_group"], False, 1)
@example(FIXTURE_SYSTEMS["z2z2_group"], True, 50)
@example(REPEATED_KEY, True, 1)
def test_resolve_pair_matches_its_slow_twin(S, same_rule, max_nodes):
    # each side on its own copy, so neither reads the other's classes
    fast = RewriteSystem(S.alphabet, S.rules)
    slow = RewriteSystem(S.alphabet, S.rules)
    for pair in critical_pairs(S, same_rule):
        assert _resolution(resolve_pair, pair, fast, max_nodes) == \
            _resolution(_resolve_pair_twin, pair, slow, max_nodes)
