import pytest
from hypothesis import given, settings, strategies as st

from geothue.errors import PreconditionError
from geothue.systems import parse_rule_pairs
from geothue.weights import (WeightStatus, is_weight_reducing,
                             weight_assignment, word_weight)


def pairs(text):
    return parse_rule_pairs(text)


def test_witness_for_ab_to_cc():
    ab, ps = pairs("alphabet a b c\nrule a b -> c c\n")
    res = weight_assignment(ps, alphabet_size=3)
    assert res.status is WeightStatus.FEASIBLE
    assert is_weight_reducing(ps, res.weights)
    assert all(w >= 1 for w in res.weights.values())


def test_infeasible_growth_rule():
    ab, ps = pairs("alphabet a b\nrule a -> a b\n")
    res = weight_assignment(ps, alphabet_size=2)
    assert res.status is WeightStatus.PROVABLY_INFEASIBLE
    assert res.weights is None


def test_infeasible_symmetric_pair():
    # both directions of an equation can never strictly decrease
    ab, ps = pairs("alphabet a b\nrule a a <-> b b\n")
    res = weight_assignment(ps, alphabet_size=2)
    assert res.status is WeightStatus.PROVABLY_INFEASIBLE


def test_length_reducing_system_gets_all_ones(geoper_S):
    ps = [(r.lhs, r.rhs) for r in geoper_S.rules]
    res = weight_assignment(ps, alphabet_size=len(geoper_S.alphabet))
    assert res.status is WeightStatus.FEASIBLE
    assert is_weight_reducing(ps, res.weights)


def test_bound_exhaustion_reported():
    # feasible only with weights beyond the bound: a needs > 3 * b
    ab, ps = pairs("alphabet a b\nrule a -> b b b\n")
    res = weight_assignment(ps, alphabet_size=2, bound=3)
    assert res.status is WeightStatus.BOUND_EXHAUSTED
    res2 = weight_assignment(ps, alphabet_size=2, bound=4)
    assert res2.status is WeightStatus.FEASIBLE


@pytest.mark.parametrize("bound", [0, -1])
def test_bound_below_one_is_refused(bound):
    # the all-ones weighting would already exceed the bound
    ab, ps = pairs("alphabet a b\nrule a b -> a\n")
    with pytest.raises(PreconditionError, match="at least 1"):
        weight_assignment(ps, alphabet_size=2, bound=bound)


def test_word_weight_sums():
    assert word_weight((0, 1, 0), {0: 2, 1: 5}) == 9
    assert word_weight((), {0: 2}) == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple),
              st.lists(st.integers(0, 2), max_size=3).map(tuple)),
    min_size=1, max_size=4))
def test_feasible_implies_strict_drop_everywhere(rule_pairs):
    res = weight_assignment(rule_pairs, alphabet_size=3)
    if res.status is WeightStatus.FEASIBLE:
        for lhs, rhs in rule_pairs:
            assert (word_weight(lhs, res.weights)
                    > word_weight(rhs, res.weights))
