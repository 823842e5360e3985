import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from geothue.errors import AlphabetError, FormatError, StructureError
from geothue.groups import parse_group, parse_map
from geothue.pregroup import parse_pregroup
from geothue.systems import (RewriteSystem, RuleKind, format_system,
                             parse_rule_pairs, parse_system, preserving,
                             reducing)
from geothue.words import Alphabet, _is_letter_name


def test_rule_constructors_enforce_lengths():
    assert reducing((0, 0), ()).kind is RuleKind.REDUCING
    with pytest.raises(StructureError):
        reducing((0,), (0, 0))
    with pytest.raises(StructureError):
        preserving((0, 0), (0,))
    with pytest.raises(StructureError):
        reducing((), ())


def test_system_symmetrizes_preserving_rules():
    ab = Alphabet(["a", "b"])
    sys_ = RewriteSystem(ab, [preserving((0, 1), (1, 0))])
    keys = {(r.lhs, r.rhs) for r in sys_.preserving}
    assert ((0, 1), (1, 0)) in keys and ((1, 0), (0, 1)) in keys
    assert sys_.sp_symmetric


def test_directed_system_keeps_orientation():
    ab = Alphabet(["a", "b"])
    sys_ = RewriteSystem(ab, [preserving((0, 1), (1, 0))], symmetrize=False)
    assert len(sys_.preserving) == 1
    assert not sys_.sp_symmetric


def _constructed_twin(alphabet, rules, symmetrize):
    """The constructor's rule loop without its shortcuts: mirror every
    preserving rule, drop repeated (lhs, rhs) keys, and range-check each
    symbol.  Returns (reducing, preserving, sp_symmetric)."""
    n = len(alphabet)
    red, pres, seen = [], [], set()

    def add(rule):
        key = (rule.lhs, rule.rhs)
        if key in seen:
            return
        for s in rule.lhs + rule.rhs:
            if not 0 <= s < n:
                raise StructureError(f"rule symbol {s} outside alphabet")
        seen.add(key)
        (red if rule.kind is RuleKind.REDUCING else pres).append(rule)

    for rule in rules:
        add(rule)
        if rule.kind is RuleKind.PRESERVING and symmetrize:
            add(rule.mirror())
    return tuple(red), tuple(pres), symmetrize


@st.composite
def _rule_lists(draw):
    """(alphabet size, rules): a few distinct rules, some with a symbol
    out of range, then a list of them with repeats, preserving rules
    taken either way round."""
    n = draw(st.integers(1, 3))
    lo, hi = (-1, n) if draw(st.booleans()) else (0, n - 1)
    symbol = st.integers(lo, hi)
    pool = []
    for _ in range(draw(st.integers(1, 4))):
        lhs = draw(st.lists(symbol, min_size=1, max_size=3))
        if draw(st.booleans()):
            rhs = draw(st.lists(symbol, max_size=len(lhs) - 1))
            pool.append(reducing(lhs, rhs))
        else:
            rhs = draw(st.lists(symbol, min_size=len(lhs), max_size=len(lhs)))
            if rhs != lhs:
                pool.append(preserving(lhs, rhs))
    if not pool:
        return n, []
    picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()),
                          max_size=8))
    return n, [rule.mirror() if flip and rule.kind is RuleKind.PRESERVING
               else rule for rule, flip in picks]


# the examples: repeats and both directions of one preserving rule at
# different places; a symbol equal to the alphabet size; a negative one;
# a bad symbol on the rhs, which is the lhs of the mirror; and two bad
# symbols that the rule and its mirror meet in opposite orders
AB_SWAP = preserving((0, 1), (1, 0))


@settings(max_examples=300, deadline=None)
@given(case=_rule_lists(), symmetrize=st.booleans())
@example(case=(2, [AB_SWAP, reducing((0, 0), ()), AB_SWAP, AB_SWAP.mirror(),
                   reducing((0, 0), ()), preserving((0, 0), (1, 1))]),
         symmetrize=True)
@example(case=(2, [AB_SWAP.mirror(), reducing((1, 1), (0,)), AB_SWAP,
                   AB_SWAP.mirror()]), symmetrize=False)
@example(case=(2, [AB_SWAP, reducing((0, 2), ())]), symmetrize=True)
@example(case=(2, [reducing((1, -1), (0,))]), symmetrize=False)
@example(case=(2, [AB_SWAP, preserving((0, 1), (1, 2))]), symmetrize=True)
@example(case=(2, [preserving((0, 3), (-1, 1))]), symmetrize=True)
def test_system_construction_matches_its_slow_twin(case, symmetrize):
    n, rules = case
    alphabet = Alphabet("abc"[:n])
    try:
        want = _constructed_twin(alphabet, rules, symmetrize)
    except StructureError as exc:
        with pytest.raises(StructureError) as got:
            RewriteSystem(alphabet, rules, symmetrize=symmetrize)
        assert str(got.value) == str(exc)
        return
    S = RewriteSystem(alphabet, rules, symmetrize=symmetrize)
    assert (S.reducing, S.preserving, S.sp_symmetric) == want


def test_parse_system_splits_and_pairs():
    text = """
    # comment
    alphabet a A
    inverse a A
    rule a A -> .
    rule A a -> .
    rule a a <-> A A
    """
    sys_ = parse_system(text)
    assert len(sys_.reducing) == 2
    assert len(sys_.preserving) == 2  # symmetric closure of one equation
    assert sys_.inverse_pairing == {0: 1, 1: 0}


def test_parse_rejects_growing_rule():
    with pytest.raises(FormatError):
        parse_system("alphabet a\nrule a -> a a\n")


def test_parse_rejects_unbalanced_symmetric_rule():
    with pytest.raises(FormatError):
        parse_system("alphabet a\nrule a a <-> a\n")


@pytest.mark.parametrize("arrow", ["->", "<->"])
def test_parse_rejects_a_rule_with_equal_sides_on_its_line(arrow):
    with pytest.raises(FormatError,
                       match="^line 2: preserving rule with lhs = rhs$"):
        parse_system(f"alphabet a b\nrule a b {arrow} a b\n")


# one name of up to three characters, any but surrogates
@given(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
               max_size=3))
@example("a#")
@example("->")
@example("<->")
def test_a_letter_name_is_accepted_only_when_its_file_reads_back(name):
    assume(name != "b")
    if not _is_letter_name(name):
        with pytest.raises(AlphabetError):
            Alphabet([name, "b"])
        return
    S = RewriteSystem(Alphabet([name, "b"]), [reducing((0, 1), ()),
                                              preserving((0, 0), (1, 1))])
    back = parse_system(format_system(S))
    assert back.alphabet == S.alphabet and back.rules == S.rules


def test_parse_rejects_unknown_directive():
    with pytest.raises(FormatError) as exc:
        parse_system("alphabet a\nfoo a\n")
    assert "line 2" in str(exc.value)


def test_parse_rejects_conflicting_inverses():
    text = "alphabet a b c\ninverse a b\ninverse a c\n"
    with pytest.raises(FormatError):
        parse_system(text)


def test_format_parse_roundtrip(geoper_T, z2_graph, tits_d3):
    for sys_ in (geoper_T, z2_graph, tits_d3):
        back = parse_system(format_system(sys_))
        assert back == sys_


def test_with_rules_extends_without_mutation(z2z2):
    extra = preserving((0,), (1,))
    bigger = z2z2.with_rules([extra])
    assert len(bigger.preserving) == 2  # mirror added
    assert len(z2z2.preserving) == 0
    assert bigger.alphabet is z2z2.alphabet


def test_parse_rule_pairs_allows_growth():
    ab, pairs = parse_rule_pairs("alphabet a b\nrule a -> a b\nrule a b <-> b a\n")
    assert ((0,), (0, 1)) in pairs
    # the symmetric line contributes both directions
    assert ((0, 1), (1, 0)) in pairs and ((1, 0), (0, 1)) in pairs


def test_both_rule_readers_reject_a_malformed_inverse_line():
    text = "alphabet a A\ninverse a\nrule a A -> .\n"
    for parse in (parse_system, parse_rule_pairs):
        with pytest.raises(FormatError, match="line 2"):
            parse(text)


MALFORMED_SECOND_LINE = {
    "system": (parse_system, "alphabet a b  # letters\nbogus a\n"),
    "system-repeated-letter": (parse_system, "alphabet a\nalphabet a\nrule a a -> .\n"),
    "system-bad-letter": (parse_system, "alphabet a\nalphabet b .\n"),
    "rules-repeated-letter": (parse_rule_pairs, "alphabet a b\nalphabet b\n"),
    "rules-rule-side": (parse_rule_pairs, "alphabet a\nrule a -> a .\n"),
    "pregroup": (parse_pregroup, "elements 1 a\ninv a\n"),
    "pregroup-repeated-eps": (parse_pregroup, "eps e\neps a\nelements e a\ninv e e\n"),
    "pregroup-empty-elements": (parse_pregroup, "eps e\nelements\n"),
    "pregroup-conflicting-inverse": (parse_pregroup,
                                     "inv a b\ninv b b\nelements e a b\neps e\n"),
    "group": (parse_group, "group\nidentity\n"),
    "group-repeated-identity": (parse_group, "identity 1\nidentity h\nelements 1 h\n"),
    "group-misshapen-mult": (parse_group, "elements 1\nmult 1 1 -> 1\n"),
    "map": (parse_map, "# images\nmap a b\n"),
    "map-unknown-head": (parse_map, "map a -> b\nimage b -> a\n"),
    "map-conflicting-image": (parse_map, "map a -> b\nmap a -> c\n"),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED_SECOND_LINE))
def test_directive_readers_name_the_malformed_line(kind):
    parse, text = MALFORMED_SECOND_LINE[kind]
    with pytest.raises(FormatError, match="line 2"):
        parse(text)


def test_reduction_automaton_names_the_first_rule_ending_here(z2z2_group):
    S = z2z2_group
    delta, first = S._automaton
    # one state per distinct nonempty lhs prefix, plus the empty word
    prefixes = {r.lhs[:i] for r in S.reducing for i in range(1, len(r.lhs) + 1)}
    assert len(delta) == len(first) == len(prefixes) + 1
    assert all(len(row) == len(S.alphabet) for row in delta)
    rng = random.Random(5)
    text, s = (), 0
    for x in rng.choices(range(len(S.alphabet)), k=200):
        text += (x,)
        s = delta[s][x]
        ending = [r for r in S.reducing if text[len(text) - len(r.lhs):] == r.lhs]
        assert first[s] == (ending[0] if ending else None)
