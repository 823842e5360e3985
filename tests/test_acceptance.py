"""End-to-end acceptance checks over the shipped fixtures.

Each test covers one numbered item of the release checklist and prints a
single PASS line once its assertions hold, so `pytest -v -s` reads as a
checklist.  Randomized items use fixed seeds; timing items assert the
budgets they were written against.
"""

import gc
import itertools
import random
import time

from geothue.builders import build_britton_system, build_hnn_system
from geothue.completion import CompletionStatus, kb_complete
from geothue.confluence import (check_geodesically_perfect, descendant_closure,
                                geodesics_of, preperfect_wp)
from geothue.oracle import class_closure, enumerate_quotient
from geothue.pregroup import (check_axioms, interleave_equivalent,
                              table_isomorphic, universal_system,
                              universal_system_prime, up_wp)
from geothue.rewriting import apply_rule, reduce_lr
from geothue.systems import load_system
from geothue.triangular import pregroup_from_system, reducing_part
from geothue.weights import WeightStatus, is_weight_reducing, weight_assignment
from geothue.words import Alphabet
from tests.conftest import (counting, fixture_path, program_reduce_random,
                            reduce_random_seq, transitions)


def _ok(tag: str, detail: str) -> None:
    print(f"[acceptance {tag}] PASS {detail}")


def test_01_gp_check_accepts_the_two_positive_fixtures(geoper_T, gpex):
    for label, system in (("four-rule system plus b<->c", geoper_T),
                          ("six-letter collapse system", gpex)):
        t0 = time.perf_counter()
        verdict = check_geodesically_perfect(system)
        elapsed = time.perf_counter() - t0
        assert verdict.holds, label
        assert elapsed < 5.0, (label, elapsed)
    _ok("01", "gp criterion holds on both positive fixtures, under 5 s each")


def test_02_gp_check_rejects_single_edge_graph_group_with_witness(z2_graph):
    t0 = time.perf_counter()
    verdict = check_geodesically_perfect(z2_graph)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    assert not verdict.holds
    failed = verdict.witness
    assert failed is not None
    pair = failed.pair
    # replay both branches of the witness overlap from scratch
    assert apply_rule(pair.z, pair.pos1, pair.rule1) == pair.x
    assert apply_rule(pair.z, pair.pos2, pair.rule2) == pair.y
    assert pair.x != pair.y
    _ok("02", "single-edge commutation system fails gp with a replayable "
              f"witness over {verdict.pairs_checked} pairs")


def test_03_completion_finishes_on_the_order_two_free_product(z2z2_group):
    result = kb_complete(z2z2_group)
    assert result.status is CompletionStatus.COMPLETED
    assert len(result.phases) <= 3
    assert check_geodesically_perfect(result.system).holds
    _ok("03", f"completion closed in {len(result.phases)} phases and the "
              "result passes the gp check")


def test_04_completion_hits_the_phase_cap_with_growing_rule_counts(
        geoper_S, z2_graph):
    for label, system in (("five-letter collapse system", geoper_S),
                          ("single-edge commutation system", z2_graph)):
        result = kb_complete(system, max_phases=6)
        assert result.status is CompletionStatus.PHASE_LIMIT, label
        totals = [p.total_rules for p in result.phases]
        assert len(totals) == 6, label
        assert all(b > a for a, b in zip(totals, totals[1:])), (label, totals)
    _ok("04", "both diverging inputs stop at the 6-phase cap with strictly "
              "increasing rule counts")


def test_05_fixture_pregroups_are_sound_and_give_gp_systems(
        amalgam_pregroup, hnn_pregroup):
    for label, P in (("amalgam pregroup", amalgam_pregroup),
                     ("stable-letter pregroup", hnn_pregroup)):
        t0 = time.perf_counter()
        report = check_axioms(P)
        assert report.ok, label
        system = universal_system(P)
        verdict = check_geodesically_perfect(system)
        elapsed = time.perf_counter() - t0
        assert verdict.holds, label
        assert elapsed < 30.0, (label, elapsed)
    _ok("05", "axioms hold and both universal-group systems pass the gp "
              "check in under 30 s")


def test_06_randomized_reductions_agree_in_length_and_interleave(
        amalgam_pregroup, hnn_pregroup):
    for label, P, seed in (("amalgam pregroup", amalgam_pregroup, 601),
                           ("stable-letter pregroup", hnn_pregroup, 602)):
        rng = random.Random(seed)
        letters = [a for a in P.elements if a != P.eps]
        for _ in range(1000):
            seq = tuple(rng.choice(letters)
                        for _ in range(rng.randint(0, 8)))
            results = {reduce_random_seq(seq, P, rng) for _ in range(10)}
            assert len({len(r) for r in results}) == 1, (label, seq)
            for u, v in itertools.combinations(sorted(results), 2):
                assert interleave_equivalent(u, v, P), (label, seq, u, v)
    _ok("06", "1000 random sequences per pregroup: every maximal reduction "
              "has the same length and all results interleave")


def test_07_pregroup_survives_the_roundtrip_through_its_system(
        amalgam_pregroup, hnn_pregroup):
    for label, P in (("amalgam pregroup", amalgam_pregroup),
                     ("stable-letter pregroup", hnn_pregroup)):
        recovered = pregroup_from_system(
            reducing_part(universal_system_prime(P)))
        assert table_isomorphic(P, recovered), label
    _ok("07", "pregroup -> primed system -> pregroup reproduces both "
              "fixtures up to table isomorphism")


def test_08_dihedral_braid_system_agrees_with_the_oracle(tits_d3):
    A = tits_d3.alphabet
    assert preperfect_wp(A.word("a b a"), A.word("b a b"), tits_d3)
    geos = geodesics_of(A.word("a b a b"), tits_d3)
    assert geos
    assert all(len(g) == 2 for g in geos)
    for max_len in (4, 5, 6):
        q = enumerate_quotient(tits_d3, max_len)
        assert q.count == 6, max_len
        assert q.complete, max_len
    words = list(A.words_upto(5))
    closures = {w: class_closure(w, tits_d3, max_length=14) for w in words}
    assert all(c.complete for c in closures.values())
    descs = {w: descendant_closure(w, tits_d3) for w in words}
    n_equal = 0
    for u, v in itertools.combinations(words, 2):
        oracle_equal = v in closures[u].members
        assert oracle_equal == (not descs[u].isdisjoint(descs[v])), (u, v)
        n_equal += oracle_equal
    assert n_equal > 0
    _ok("08", f"word problem, geodesics and class count match the oracle on "
              f"all {len(words)} words up to length 5 ({n_equal} equal pairs)")


def test_09_stable_letter_program_and_pinch_system(hnn_data):
    d = hnn_data
    program = build_hnn_system(d.G, d.embA, d.embB, d.phi)
    britton = build_britton_system(d.G, d.embA, d.embB, d.phi)
    A = program.alphabet
    rng = random.Random(901)

    for _ in range(500):
        w = tuple(rng.randrange(len(A)) for _ in range(rng.randint(0, 8)))
        nf = program.normal_form(w)
        for _ in range(3):
            assert program_reduce_random(program, w, rng) == nf, w

    inverse_name = {"t": "T", "T": "t"}
    for name in britton.alphabet.names:
        if name not in inverse_name:
            inverse_name[name] = d.G.inverse(name)
    names = britton.alphabet.names
    for _ in range(500):
        word_names = []
        for _ in range(rng.randint(1, 3)):
            chunk = [rng.choice(names) for _ in range(rng.randint(1, 3))]
            chunk = chunk + [inverse_name[x] for x in reversed(chunk)]
            at = rng.randint(0, len(word_names))
            word_names[at:at] = chunk
        w = britton.alphabet.word(" ".join(word_names))
        assert reduce_lr(w, britton) == (), word_names

    a = next(x for x in d.embA.image if x != d.G.identity)
    conj = f"{a} t {d.G.inverse(a)}"
    w = britton.alphabet.word(conj)
    assert reduce_lr(w, britton) == w  # no pinch applies
    assert program.normal_form(A.word(conj)) == A.word("t")
    _ok("09", "program normal forms are strategy independent on 500 words, "
              "500 built identity words pinch to empty, and the conjugated "
              "stable letter is pinch-irreducible yet equals t")


def _closure_agreement(system, words, horizon, P=None):
    """Compare closure verdicts, descendant-overlap verdicts and, when a
    pregroup is supplied, sequence verdicts on every pair from words.

    Pairs the bounded closure cannot settle are skipped; the caller gets
    (settled, equal) counts to assert the check was not vacuous.
    """
    closures = {w: class_closure(w, system, max_length=horizon)
                for w in words}
    descs = {w: descendant_closure(w, system) for w in words}
    names = system.alphabet.names
    settled = equal = 0
    for u, v in itertools.combinations(sorted(words), 2):
        cu, cv = closures[u], closures[v]
        if v in cu.members or u in cv.members:
            oracle_equal = True
        elif cu.complete and cv.complete and cu.members.isdisjoint(cv.members):
            oracle_equal = False
        else:
            continue
        assert (not descs[u].isdisjoint(descs[v])) == oracle_equal, (u, v)
        if P is not None:
            useq = [names[i] for i in u]
            vseq = [names[i] for i in v]
            assert up_wp(useq, vseq, P) == oracle_equal, (u, v)
        settled += 1
        equal += oracle_equal
    return settled, equal


def _sampled_words(alphabet, rng, n_extra, max_len=4):
    words = set(alphabet.words_upto(1))
    while len(words) < n_extra:
        k = rng.randint(2, max_len)
        words.add(tuple(rng.randrange(len(alphabet)) for _ in range(k)))
    return sorted(words)


def test_10_reference_oracle_cross_validation(
        tits_d3, z2z2, free_ab, z2_graph, geoper_T, gpex,
        amalgam_pregroup, hnn_pregroup):
    rng = random.Random(1001)
    total = total_equal = 0
    # small alphabets: every word up to length 4
    for system, horizon in ((tits_d3, 12), (z2z2, 12),
                            (free_ab, 6), (z2_graph, 6)):
        words = list(system.alphabet.words_upto(4))
        settled, eq = _closure_agreement(system, words, horizon)
        assert settled == len(words) * (len(words) - 1) // 2
        assert eq > 0
        total += settled
        total_equal += eq
    # wider alphabets: all short words plus a fixed random sample
    for system, n_extra in ((geoper_T, 70), (gpex, 70)):
        words = _sampled_words(system.alphabet, rng, n_extra)
        settled, eq = _closure_agreement(system, words, horizon=8)
        assert settled > 0
        total += settled
        total_equal += eq
    for P, n_extra in ((amalgam_pregroup, 60), (hnn_pregroup, 50)):
        system = universal_system(P)
        words = _sampled_words(system.alphabet, rng, n_extra)
        settled, eq = _closure_agreement(system, words, horizon=4, P=P)
        assert settled > 0
        total += settled
        total_equal += eq
    assert total_equal > 0
    _ok("10", f"three word-problem routes agree on {total} settled pairs "
              f"({total_equal} equal) across eight fixtures")


def test_11_leftmost_reducer_scales_linearly(free_ab):
    # first a count, so that a superlinear reducer fails at once rather
    # than after the timed rounds: free_ab's rules all have an empty rhs,
    # so no contraction puts letters back and each letter is read once;
    # a transition past len(word) fails the test
    counted = counting(load_system(fixture_path("free_ab.rws")))
    assert not any(rule.rhs for rule in counted.reducing)
    word = tuple(random.Random(1104).choices(range(len(free_ab.alphabet)),
                                             k=2 * 10 ** 4))
    transitions(reduce_lr, word, counted, limit=len(word))
    # the fastest of five interleaved runs per size: a run is only ever
    # slowed by the rest of the machine, so the minimum is the least noisy
    rng = random.Random(1101)
    sizes = (10 ** 6, 2 * 10 ** 6)
    timings = {n: [] for n in sizes}
    gc.disable()
    try:
        for _ in range(5):
            for n in sizes:
                word = tuple(rng.choices(range(len(free_ab.alphabet)), k=n))
                t0 = time.perf_counter()
                reduce_lr(word, free_ab)
                timings[n].append(time.perf_counter() - t0)
    finally:
        gc.enable()
    fastest = {n: min(timings[n]) for n in sizes}
    ratio = fastest[sizes[1]] / fastest[sizes[0]]
    assert ratio <= 2.5, (fastest, ratio)
    _ok("11", f"doubling the input scales the reducer by {ratio:.2f}x "
              "(limit 2.5x)")


def test_12_weight_search_settles_both_canonical_inputs():
    abc = Alphabet(("a", "b", "c"))
    shrinking = [(abc.word("a b"), abc.word("c c"))]
    found = weight_assignment(shrinking, alphabet_size=len(abc))
    assert found.status is WeightStatus.FEASIBLE
    assert is_weight_reducing(shrinking, found.weights)

    ab = Alphabet(("a", "b"))
    padding = [(ab.word("a"), ab.word("a b"))]
    proved = weight_assignment(padding, alphabet_size=len(ab))
    assert proved.status is WeightStatus.PROVABLY_INFEASIBLE
    assert proved.weights is None
    _ok("12", "weight search produces a checked witness for ab -> cc and "
              "an infeasibility proof for a -> ab")
