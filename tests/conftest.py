import math
import pathlib

import pytest
from hypothesis import strategies as st

from geothue import builders
from geothue.errors import ResourceLimitError
from geothue.groups import GroupIso, SubgroupEmbedding, cyclic_group
from geothue.pregroup import _check_elements, load_pregroup
from geothue.systems import RewriteSystem, load_system, preserving, reducing
from geothue.words import Alphabet

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def fixture_path(name: str) -> pathlib.Path:
    return FIXTURES / name


def words_of(alphabet, *texts):
    return tuple(alphabet.word(t) for t in texts)


def sub_system(system, rules):
    """A system of some of system's rules (its reducing or preserving
    ones), with its alphabet and its sp_symmetric."""
    return RewriteSystem(system.alphabet, rules,
                         symmetrize=system.sp_symmetric)


def _cyclic_embedding(H, G):
    """The cyclic group H as the subgroup of its order of the cyclic G."""
    step = len(G) // len(H)
    return SubgroupEmbedding(H, G, {h: G.elements[i * step]
                                    for i, h in enumerate(H.elements)})


def _cyclic_amalgam(m, n, k):
    """Z/m *_{Z/k} Z/n, for k dividing m and n."""
    A, B, H = cyclic_group(m, "r"), cyclic_group(n, "s"), cyclic_group(k, "h")
    return builders.build_amalgam_pregroup(A, B, _cyclic_embedding(H, A),
                                           _cyclic_embedding(H, B))


def _cyclic_hnn_data(n, k, e):
    """(G, embA, embB, phi) of the HNN extension of Z/n whose stable
    letter acts on its subgroup Z/k as x -> x**e, for k dividing n and e
    prime to k."""
    G, H = cyclic_group(n, "r"), cyclic_group(k, "h")
    emb = _cyclic_embedding(H, G)
    phi = GroupIso(H, H, {h: H.elements[i * e % k]
                          for i, h in enumerate(H.elements)})
    return G, emb, emb, phi


def _cyclic_hnn(n, k, e):
    """The pregroup of that HNN extension."""
    return builders.build_hnn_pregroup(*_cyclic_hnn_data(n, k, e))


# Generated pregroups: Z/m *_{Z/k} Z/n, free products (k = 1) included,
# and the HNN extensions of Z/3, Z/4 and Z/6 over a subgroup, the stable
# letter acting as the identity or by inversion.  Z/6 over its proper
# subgroups is left out: its twin checks take 7-56 s each.
GENERATED = {
    **{f"z{m}_z{k}_z{n}": (_cyclic_amalgam, m, n, k)
       for m, n, k in ((2, 2, 1), (2, 3, 1), (3, 3, 1), (2, 4, 2), (4, 4, 2),
                       (4, 6, 2), (6, 6, 3), (6, 9, 3))},
    **{f"hnn_z{n}_z{k}" + ("_inv" if e < 0 else ""): (_cyclic_hnn, n, k, e)
       for n, k, e in ((3, 1, 1), (3, 3, 1), (3, 3, -1), (4, 2, 1),
                       (4, 4, 1), (4, 4, -1), (6, 6, 1), (6, 6, -1))},
}


# slow twins, each compared against its fast path by the tests

def reduce_random_seq(seq, P, rng):
    """Contract random defined adjacent pairs until none remain, each
    time a uniform choice among the defined spots."""
    _check_elements(seq, P)
    out = list(seq)
    while True:
        spots = [i for i in range(len(out) - 1) if P.defined(out[i], out[i + 1])]
        if not spots:
            break
        i = rng.choice(spots)
        out[i:i + 2] = [P.prod(out[i], out[i + 1])]
    return tuple(a for a in out if a != P.eps)


def program_is_irreducible(program, word):
    """Whether no rule of the rule program matches word."""
    word = tuple(word)
    return not any(word[i:i + len(l)] == l
                   for i in range(len(word)) for l, _ in program.rules)


def program_reduce_random(program, word, rng, max_steps=10 ** 6):
    """Rewrite at a uniformly chosen match of the rule program until
    none is left; on a convergent program this is its normal_form."""
    w = tuple(word)
    steps = 0
    while True:
        options = [(i, lhs, rhs) for i in range(len(w))
                   for lhs, rhs in program.rules if w[i:i + len(lhs)] == lhs]
        if not options:
            return w
        i, lhs, rhs = options[rng.randrange(len(options))]
        w = w[:i] + rhs + w[i + len(lhs):]
        steps += 1
        if steps > max_steps:
            raise ResourceLimitError(
                "random reduction exceeded the step budget", cap=max_steps)


class CountingRow(list):
    """An automaton row that counts the transitions read from it, and
    fails the test once they pass CountingRow.limit."""

    reads = 0
    limit = math.inf

    def __getitem__(self, x):
        CountingRow.reads += 1
        if CountingRow.reads > CountingRow.limit:
            raise AssertionError(f"more than {CountingRow.limit} transitions")
        return list.__getitem__(self, x)


def counting(system):
    """system with its reducer's automaton rows replaced by counting ones."""
    delta, first = system._automaton
    system._automaton = type(system._automaton)(
        tuple(CountingRow(row) for row in delta), first)
    return system


def transitions(reduce, word, system, limit=math.inf):
    """(automaton transitions read, result) of reduce(word, system), for a
    system with counting rows; a read past limit fails at once, so a
    superlinear reducer is stopped early."""
    CountingRow.reads, CountingRow.limit = 0, limit
    try:
        result = reduce(word, system)
    finally:
        CountingRow.limit = math.inf
    return CountingRow.reads, result


@st.composite
def overlapping_system(draw, with_preserving=False):
    """A small system whose left-hand sides overlap: a rule's lhs may
    repeat an earlier lhs (with another rhs), be a factor of one (suffix,
    infix or prefix), extend one on either side, so that an earlier lhs
    is a suffix or infix of a later one, or repeat one periodically, so
    that it overlaps its own shifts.  Single-letter left sides and the
    empty rule set come up too.  With with_preserving=True a rule may be
    length-preserving (a drawn rhs equal to its lhs drops the rule)."""
    k = draw(st.integers(1, 3))

    def words(lo, hi):
        return st.lists(st.integers(0, k - 1), min_size=lo, max_size=hi).map(tuple)

    rules = []
    for _ in range(draw(st.integers(0, 6))):
        how = draw(st.sampled_from(("new", "same", "factor", "extend", "periodic")))
        base = draw(st.sampled_from(rules)).lhs if rules else ()
        if how == "same" and base:
            lhs = base
        elif how == "factor" and base:
            i = draw(st.integers(0, len(base) - 1))
            lhs = base[i:draw(st.integers(i + 1, len(base)))]
        elif how == "extend" and base:
            lhs = draw(words(0, 2)) + base + draw(words(0, 2))
        elif how == "periodic" and base:
            lhs = (base * 3)[:draw(st.integers(len(base) + 1, 3 * len(base)))]
        else:
            lhs = draw(words(1, 4))
        rhs = draw(words(0, len(lhs) - 1))
        if with_preserving and draw(st.booleans()):
            rhs = draw(words(len(lhs), len(lhs)))
        if len(rhs) < len(lhs):
            rules.append(reducing(lhs, rhs))
        elif rhs != lhs:
            rules.append(preserving(lhs, rhs))
    return RewriteSystem(Alphabet("abc"[:k]), rules)


@pytest.fixture(scope="session")
def geoper_S():
    return load_system(fixture_path("geoper_S.rws"))


@pytest.fixture(scope="session")
def geoper_T():
    return load_system(fixture_path("geoper_T.rws"))


@pytest.fixture(scope="session")
def gpex():
    return load_system(fixture_path("gpex.rws"))


@pytest.fixture(scope="session")
def tits_d3():
    return load_system(fixture_path("tits_d3.rws"))


@pytest.fixture(scope="session")
def free_ab():
    return load_system(fixture_path("free_ab.rws"))


@pytest.fixture(scope="session")
def z2_graph():
    return load_system(fixture_path("z2_graph.rws"))


@pytest.fixture(scope="session")
def z2z2():
    return load_system(fixture_path("z2z2.rws"))


@pytest.fixture(scope="session")
def z2z2_group():
    return load_system(fixture_path("z2z2_group.rws"))


@pytest.fixture(scope="session")
def amalgam_data():
    return builders.example_amalgam()


@pytest.fixture(scope="session")
def hnn_data():
    return builders.example_hnn()


@pytest.fixture(scope="session")
def amalgam_pregroup():
    return load_pregroup(fixture_path("amalgam_z4z6.pg"))


@pytest.fixture(scope="session")
def hnn_pregroup():
    return load_pregroup(fixture_path("hnn_s3.pg"))
