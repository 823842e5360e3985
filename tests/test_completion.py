import pytest

from geothue.completion import (DEFAULT_MAX_PHASES, CompletionStatus,
                                ResolutionAction, kb_complete, resolve_pair)
from geothue.confluence import check_geodesically_perfect, critical_pairs
from geothue.errors import PreconditionError
from geothue.oracle import class_partition
from geothue.rewriting import successors
from geothue.systems import RuleKind, parse_system


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
