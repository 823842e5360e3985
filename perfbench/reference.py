"""Reference answers for the benchmark's checks.

Nothing here calls the code paths the benchmark times.  The references
are the brute-force ``oracle`` module, the expected deterministic counts
of the seed commit, invariants of the groups the fixtures present, and
naive scans written out below.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from geothue.oracle import WpVerdict, oracle_wp

# check_geodesically_perfect(...).pairs_checked; independent of rule order
GP_PAIRS = {
    ("amalgam_z4z6", "universal"): 3991,
    ("amalgam_z4z6", "prime"): 1508,
    ("amalgam_z4z4_h2", "universal"): 1389,
    ("amalgam_z4z4_h2", "prime"): 360,
    ("amalgam_z6z6_h3", "universal"): 6884,
    ("amalgam_z6z6_h3", "prime"): 3010,
    ("hnn_z3_h3_inv", "universal"): 6896,
    ("hnn_z3_h3_inv", "prime"): 3022,
    ("hnn_z2_h1", "universal"): 3777,
    ("hnn_z2_h1", "prime"): 1120,
}

# kb_complete phase profiles: (max_phases, total rules per phase, fresh pairs per phase)
COMPLETION_PROFILES = {
    "z2_graph": (5, (20, 28, 36, 44, 52), (24, 128, 224, 320, 416)),
    "edge_ab_c": (4, (22, 30, 38, 46), (28, 128, 224, 320)),
    "path_abc": (2, (38, 70), (44, 320)),
    "path_abcd": (2, (56, 112), (64, 512)),
    "triangle_abc": (2, (54, 126), (60, 576)),
    "star_abcd": (2, (56, 128), (64, 576)),
    "square_abcd": (2, (72, 168), (80, 768)),
}


def free_reduce(word: Sequence[int], inverse: Dict[int, int]) -> Tuple[int, ...]:
    """Cancel adjacent inverse letters with a stack (free group normal form)."""
    out: List[int] = []
    for x in word:
        if out and inverse[out[-1]] == x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def lhs_index(rules) -> Tuple[frozenset, Tuple[int, ...]]:
    lhs = frozenset(r.lhs for r in rules)
    return lhs, tuple(sorted({len(l) for l in lhs}))


def has_redex(word: Sequence[int], lhs: frozenset, lengths: Iterable[int]) -> bool:
    """Naive scan: does any left-hand side occur anywhere in the word?"""
    w = tuple(word)
    n = len(w)
    return any(w[i:i + L] in lhs for L in lengths for i in range(n - L + 1))


def s3_image(word: Sequence[int], transpositions) -> Tuple[int, int, int]:
    """Image in S3 of a word whose letters act as the given transpositions."""
    p = [0, 1, 2]
    for x in word:
        i, j = transpositions[x]
        p[i], p[j] = p[j], p[i]
    return tuple(p)


def exponent_sums(word: Sequence[int], signs) -> Tuple[int, ...]:
    """Abelianisation: signs[x] = (generator index, +1 or -1)."""
    total = [0] * (1 + max(g for g, _ in signs.values()))
    for x in word:
        g, s = signs[x]
        total[g] += s
    return tuple(total)


def step_table(rules):
    """Each rule side mapped to the sides one step may turn it into, with
    the side lengths that occur."""
    table: Dict[Tuple[int, ...], list] = {}
    for r in rules:
        table.setdefault(r.lhs, []).append(r.rhs)
        table.setdefault(r.rhs, []).append(r.lhs)
    return {k: tuple(v) for k, v in table.items()}, sorted({len(k) for k in table})


def replays_one_step(a: Tuple[int, ...], b: Tuple[int, ...], table) -> bool:
    """True iff b arises from a by one rule applied forwards or backwards."""
    steps, lengths = table
    n = len(a)
    for L in lengths:
        for i in range(n - L + 1):
            for other in steps.get(a[i:i + L], ()):
                if a[:i] + other + a[i + L:] == b:
                    return True
    return False


def random_equal_word(word: Tuple[int, ...], rules, rng: random.Random,
                      steps: int, max_len: int) -> Tuple[int, ...]:
    """Apply random rule steps, forwards or backwards, within max_len.

    The result equals the input in the presented monoid by construction.
    """
    w = tuple(word)
    for _ in range(steps):
        moves = []
        n = len(w)
        for r in rules:
            for src, dst in ((r.lhs, r.rhs), (r.rhs, r.lhs)):
                if n - len(src) + len(dst) > max_len:
                    continue
                L = len(src)
                for i in range(n - L + 1):
                    if w[i:i + L] == src:
                        moves.append((i, L, dst))
        if not moves:
            break
        i, L, dst = moves[rng.randrange(len(moves))]
        w = w[:i] + dst + w[i + L:]
    return w


def random_equal_sequence(seq: Sequence[str], P, rng: random.Random,
                          steps: int, max_len: int) -> Tuple[str, ...]:
    """Random moves valid in the universal group of a pregroup: split an
    element into a defined product, merge a defined product, insert the
    identity or a letter with its inverse, or slide a mediator."""
    s = list(seq)
    splits: Dict[str, list] = {}
    for (a, b), c in P.mult.items():
        splits.setdefault(c, []).append((a, b))
    elements = P.elements
    for _ in range(steps):
        move = rng.randrange(5)
        if move == 0 and s and len(s) < max_len:
            i = rng.randrange(len(s))
            s[i:i + 1] = list(rng.choice(splits[s[i]]))
        elif move == 1 and len(s) >= 2:
            spots = [i for i in range(len(s) - 1) if (s[i], s[i + 1]) in P.mult]
            if spots:
                i = rng.choice(spots)
                s[i:i + 2] = [P.mult[(s[i], s[i + 1])]]
        elif move == 2 and len(s) < max_len:
            s.insert(rng.randrange(len(s) + 1), P.eps)
        elif move == 3 and len(s) + 2 <= max_len:
            a = rng.choice(elements)
            i = rng.randrange(len(s) + 1)
            s[i:i] = [a, P.inv[a]]
        elif move == 4 and len(s) >= 2:
            i = rng.randrange(len(s) - 1)
            a, b = s[i], s[i + 1]
            cands = [c for c in elements
                     if (a, c) in P.mult and (P.inv[c], b) in P.mult]
            c = rng.choice(cands)
            s[i:i + 2] = [P.mult[(a, c)], P.mult[(P.inv[c], b)]]
    return tuple(s)


def oracle_verdict(u, v, system, max_nodes: int) -> Optional[bool]:
    """oracle_wp as True / False, or None where its caps leave it undecided."""
    got = oracle_wp(tuple(u), tuple(v), system, max_nodes=max_nodes)
    if got is WpVerdict.UNKNOWN:
        return None
    return got is WpVerdict.EQUAL
