import pytest

from geothue.errors import PreconditionError
from geothue.oracle import (WpVerdict, _step_tables, class_closure,
                            class_partition, enumerate_quotient,
                            geodesic_bounded_check, oracle_geodesics,
                            oracle_wp, replay_path)
from geothue.rewriting import apply_rule
from geothue.systems import load_system
from tests.conftest import fixture_path, words_of


def test_closure_finds_ancestors(z2z2):
    (w,) = words_of(z2z2.alphabet, "a b")
    c = class_closure(w, z2z2, max_length=4)
    assert words_of(z2z2.alphabet, "a a a b")[0] in c.members
    assert c.complete


def test_closure_respects_horizon(z2z2):
    (w,) = words_of(z2z2.alphabet, "a b")
    c = class_closure(w, z2z2, max_length=3)
    assert all(len(m) <= 3 for m in c.members)


def test_closure_node_budget_marks_incomplete(z2_graph):
    (w,) = words_of(z2_graph.alphabet, "a b")
    c = class_closure(w, z2_graph, max_length=8, max_nodes=5)
    assert not c.complete
    assert len(c.members) <= 5


def test_step_tables_are_built_once_per_system(z2z2):
    first = _step_tables(z2z2)
    class_closure((0, 1), z2z2, max_length=4)
    assert _step_tables(z2z2) is first
    assert _step_tables(load_system(fixture_path("z2z2.rws"))) is not first


def test_closure_seed_longer_than_horizon_rejected(z2z2):
    with pytest.raises(PreconditionError):
        class_closure((0, 0, 0), z2z2, max_length=2)


def test_replay_path_reaches_member(tits_d3):
    (w,) = words_of(tits_d3.alphabet, "a b a b")
    c = class_closure(w, tits_d3, max_length=6)
    (target,) = words_of(tits_d3.alphabet, "b a")
    assert target in c.members
    path = replay_path(c, target)
    assert path and path[-1][0] == target
    cur = w
    for word, direction, pos, rule in path:
        if direction == "fwd":
            cur = apply_rule(cur, pos, rule)
        else:
            assert cur[pos:pos + len(rule.rhs)] == rule.rhs
            cur = cur[:pos] + rule.lhs + cur[pos + len(rule.rhs):]
        assert cur == word
    assert cur == target


def test_oracle_wp_three_verdicts(tits_d3, z2_graph):
    u, v = words_of(tits_d3.alphabet, "a b a", "b a b")
    assert oracle_wp(u, v, tits_d3) is WpVerdict.EQUAL
    a, b = words_of(tits_d3.alphabet, "a", "b")
    assert oracle_wp(a, b, tits_d3) is WpVerdict.DISTINCT
    # distinct pair, but the budget is too small to finish either closure
    x, y = words_of(z2_graph.alphabet, "a", "b")
    assert oracle_wp(x, y, z2_graph, max_nodes=3) is WpVerdict.UNKNOWN


def test_oracle_wp_equal_words_trivially_equal(z2z2):
    (w,) = words_of(z2z2.alphabet, "a b")
    assert oracle_wp(w, w, z2z2) is WpVerdict.EQUAL


def test_oracle_geodesics_tits(tits_d3):
    (w,) = words_of(tits_d3.alphabet, "a b a b")
    geos, certified = oracle_geodesics(w, tits_d3)
    assert set(geos) == set(words_of(tits_d3.alphabet, "b a"))
    assert certified


def test_oracle_geodesics_uncertified_under_cap(z2_graph):
    (w,) = words_of(z2_graph.alphabet, "a b A B")
    geos, certified = oracle_geodesics(w, z2_graph, max_nodes=4)
    assert not certified


def test_enumerate_quotient_tits(tits_d3):
    q = enumerate_quotient(tits_d3, max_word_length=5)
    assert q.count == 6 and q.complete


def test_enumerate_quotient_infinite_group_incomplete(z2_graph):
    q = enumerate_quotient(z2_graph, max_word_length=3)
    assert not q.complete or q.count > 6


def test_class_partition_matches_closures(tits_d3):
    rep_of, capped = class_partition(tits_d3, horizon=5)
    assert not capped
    for w in tits_d3.alphabet.words_upto(3):
        c = class_closure(w, tits_d3, max_length=5)
        block = {v for v, r in rep_of.items() if r == rep_of[w]}
        assert c.members == block


def test_partition_reps_are_lenlex_least(z2z2):
    rep_of, _ = class_partition(z2z2, horizon=4)
    for w, r in rep_of.items():
        assert (len(r), r) <= (len(w), w)


# each entry point with an input it would answer at a budget of one word
ORACLE_SEARCHES = [
    (class_closure, lambda m, S: class_closure((0,), S, max_nodes=m)),
    (oracle_wp, lambda m, S: oracle_wp((0,), (0,), S, max_nodes=m)),
    (oracle_geodesics, lambda m, S: oracle_geodesics((0,), S, max_nodes=m)),
    (class_partition, lambda m, S: class_partition(S, 0, max_nodes=m)),
    (enumerate_quotient, lambda m, S: enumerate_quotient(S, 0, max_nodes=m)),
    (geodesic_bounded_check,
     lambda m, S: geodesic_bounded_check(S, 3, max_nodes=m)),
]


@pytest.mark.parametrize("budget", [0, -1])
@pytest.mark.parametrize("fn, run", ORACLE_SEARCHES,
                         ids=[fn.__name__ for fn, _ in ORACLE_SEARCHES])
def test_the_oracle_refuses_a_budget_below_one(fn, run, budget, tits_d3):
    # a budget counts the start word, so no closure fits one below 1
    with pytest.raises(PreconditionError,
                       match=f"^node budget must be at least 1, got {budget}$"):
        run(budget, tits_d3)
    run(1, tits_d3)
