"""The four workloads.

Each workload builds its systems in ``setup`` (timed as ``setup_s``),
makes its inputs from the seed, runs a fixed ``batch`` of public calls,
and checks every answer against a reference from ``reference``.

Timed calls go through the package namespace ``gt`` (``gt.reduce_lr``
and so on), so the traced run can wrap them from outside the library.
"""

from __future__ import annotations

import pathlib
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import geothue as gt

from . import reference as ref

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


@dataclass
class Op:
    """One timed public call: a key naming its input, its time, its answer."""

    key: Any
    seconds: float
    answer: Any
    error: Optional[str] = None


def timed(key, fn, *args, **kwargs) -> Op:
    t0 = perf_counter()
    try:
        answer = fn(*args, **kwargs)
    except gt.GeothueError as exc:
        return Op(key, perf_counter() - t0, None, f"{type(exc).__name__}: {exc}")
    return Op(key, perf_counter() - t0, answer)


def permuted(system, rng: random.Random):
    """The same system with its rules in a seeded order."""
    rules = list(system.rules)
    rng.shuffle(rules)
    return gt.RewriteSystem(system.alphabet, rules,
                            inverse_pairing=system.inverse_pairing,
                            symmetrize=system.sp_symmetric)


@dataclass
class Checked:
    """Outcome of checking a run's answers, counted per call."""

    failed: int = 0
    undecided: int = 0
    notes: List[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 10:
            self.notes.append(note)


class Answers:
    """The answers of a run's batches.  Each input's first answer is kept
    and checked in full; a later answer equal to it shares its verdict,
    and one that differs fails and is checked on its own.  Only the first
    batch stays in memory."""

    def __init__(self, workload: "Workload"):
        self.workload = workload
        self.first: Dict[Any, Op] = {}
        self.repeats: Dict[Any, int] = {}
        self.differing: List[Op] = []

    def add(self, ops: List[Op]) -> None:
        same = self.workload.same
        for op in ops:
            first = self.first.setdefault(op.key, op)
            if first is op:
                continue
            if op.error == first.error and (op.error or same(first.answer, op.answer)):
                self.repeats[op.key] = self.repeats.get(op.key, 0) + 1
            else:
                self.differing.append(op)

    def check(self, state: Dict[str, Any]) -> Checked:
        out = Checked()
        for op in self.first.values():
            one = Checked()
            self.workload.check(state, [op], one)
            times = 1 + self.repeats.get(op.key, 0)
            out.undecided += one.undecided * times
            if one.failed:
                out.failed += times - 1
                out.fail(one.notes[0])
        for op in self.differing:
            out.fail(f"{op.key}: answer differs from the first batch's")
        return out


class Workload:
    name = ""
    primary = ""  # what one batch is, for the report

    def setup(self, seed: int) -> Dict[str, Any]:
        raise NotImplementedError

    def make_inputs(self, state: Dict[str, Any], seed: int) -> None:
        """Seeded inputs, made outside every timed region."""

    def batch(self, state: Dict[str, Any]) -> List[Op]:
        raise NotImplementedError

    def check(self, state: Dict[str, Any], ops: List[Op], out: Checked) -> None:
        """Check each answer against its reference; one failure per call."""
        raise NotImplementedError

    def same(self, a, b) -> bool:
        """Whether two answers to one input are the same answer."""
        return a == b

    def named_metrics(self, state, fastest, metrics, tail_pct, samples):
        """The workload's own end-to-end figures, named as in the README;
        fastest maps each input to its fastest call's seconds."""
        return {}

    def layer_extras(self, state, ops: List[Op], values) -> Dict[str, float]:
        """Per-layer figures that spans cannot give (replays, counts)."""
        return {}


# ---------------------------------------------------------------------------

def _power(n: int, k: int, gen: str) -> str:
    """The name cyclic_group(n, gen) gives gen**k."""
    k %= n
    return "1" if k == 0 else gen if k == 1 else f"{gen}{k}"


def _cyclic_embedding(h: int, n: int, gen: str):
    """Z/h as the subgroup of order h of Z/n (generated by gen)."""
    H, G = gt.cyclic_group(h, "h"), gt.cyclic_group(n, gen)
    return gt.SubgroupEmbedding(H, G, {_power(h, k, "h"): _power(n, k * n // h, gen)
                                       for k in range(h)})


# Pregroups built from cyclic groups.  ("amalgam", A, B, H) is
# Z/A *_{Z/H} Z/B; ("hnn", N, H, e) is the HNN extension of Z/N whose
# stable letter acts on its subgroup Z/H as x -> x**e.  The bundled hnn_s3
# is the same construction over S3; its checks take 5-9 s per call, too
# long for a steady run.
BUILT = {"amalgam_z4z4_h2": ("amalgam", 4, 4, 2),
         "amalgam_z6z6_h3": ("amalgam", 6, 6, 3),
         "hnn_z3_h3_inv": ("hnn", 3, 3, -1),
         "hnn_z2_h1": ("hnn", 2, 1, 1)}


def pregroup(name: str):
    """The bundled amalgam_z4z6, or one of BUILT."""
    if name not in BUILT:
        return gt.load_pregroup(FIXTURES / f"{name}.pg")
    kind, *orders = BUILT[name]
    if kind == "amalgam":
        a, b, h = orders
        embA, embB = _cyclic_embedding(h, a, "r"), _cyclic_embedding(h, b, "s")
        return gt.build_amalgam_pregroup(embA.into, embB.into, embA, embB)
    n, h, e = orders
    emb = _cyclic_embedding(h, n, "r")
    iso = gt.GroupIso(emb.sub, emb.sub, {_power(h, k, "h"): _power(h, e * k, "h")
                                         for k in range(h)})
    return gt.build_hnn_pregroup(emb.into, emb, emb, iso)


class GpPregroups(Workload):
    """Geodesic perfection of the universal systems of five pregroups,
    and the round trip back to the pregroup from the prime system."""

    name = "gp-pregroups"
    primary = "ten check-gp verdicts plus five round trips"
    PREGROUPS = ("amalgam_z4z6", "amalgam_z4z4_h2", "amalgam_z6z6_h3",
                 "hnn_z3_h3_inv", "hnn_z2_h1")

    def setup(self, seed):
        rng = random.Random(seed)
        pregroups, systems = {}, {}
        for name in self.PREGROUPS:
            P = pregroup(name)
            if not gt.check_axioms(P).ok:
                raise RuntimeError(f"{name}: pregroup axioms fail")
            pregroups[name] = P
            systems[(name, "universal")] = permuted(gt.universal_system(P), rng)
            systems[(name, "prime")] = permuted(gt.universal_system_prime(P), rng)
        gt.check_geodesically_perfect(systems[("amalgam_z4z6", "prime")])
        return {"pregroups": pregroups, "systems": systems}

    def batch(self, state):
        """One call per system: its verdict and, for the prime system (the
        group system), the round trip back to a pregroup."""
        return [timed(key, self.pipeline, key[1], system)
                for key, system in state["systems"].items()]

    @staticmethod
    def pipeline(kind, system):
        verdict = gt.check_geodesically_perfect(system)
        if kind != "prime":
            return verdict, None
        return verdict, gt.pregroup_from_system(gt.reducing_part(system))

    def same(self, a, b):
        tables = [None if P is None else (P.elements, P.eps, P.inv, P.mult)
                  for P in (a[1], b[1])]
        return a[0] == b[0] and tables[0] == tables[1]

    def check(self, state, ops, out):
        for op in ops:
            if op.error:
                out.fail(f"{op.key}: {op.error}")
                continue
            verdict, pregroup = op.answer
            want = ref.GP_PAIRS[op.key]
            if not verdict.holds or verdict.pairs_checked != want:
                out.fail(f"{op.key}: holds={verdict.holds} "
                         f"pairs={verdict.pairs_checked}, want True/{want}")
            elif op.key[1] == "prime" and not gt.table_isomorphic(
                    state["pregroups"][op.key[0]], pregroup):
                out.fail(f"{op.key}: round trip not isomorphic")

    def named_metrics(self, state, fastest, metrics, tail_pct, samples):
        return {"gp_s": metrics["batch_s"]}

    def layer_extras(self, state, ops, values):
        """Replays the two stages private to check_geodesically_perfect:
        pair enumeration alone (timed), and the reducing-descendant
        closures of the distinct pair sides (counted only)."""
        enum_s = 0.0
        pairs = distinct_xy = sides = nodes = 0
        for system in state["systems"].values():
            t0 = perf_counter()
            for _ in gt.iter_critical_pairs(system):
                pairs += 1
            enum_s += perf_counter() - t0
            d, s, n = _gp_side_counts(system)
            distinct_xy += d
            sides += s
            nodes += n
        return {"confluence.iter_critical_pairs.s": enum_s,
                "confluence.iter_critical_pairs.pairs": pairs,
                "confluence.gp.resolve_s": values["confluence.gp.s"] - enum_s,
                "confluence.gp.distinct_xy": distinct_xy,
                "confluence.gp.verdict_reuse":
                    values["confluence.gp.pairs_checked"] / distinct_xy,
                "confluence.gp.distinct_sides": sides,
                "confluence.gp.rdesc_nodes": nodes}


def _gp_side_counts(system) -> Tuple[int, int, int]:
    """(distinct unordered (x, y) sides, distinct side words, total size of
    their reducing-descendant closures) over the system's critical pairs."""
    xy, sides = set(), set()
    distinct = 0
    for p in gt.iter_critical_pairs(system):
        if (p.x, p.y) not in xy:
            distinct += 1
            xy.add((p.x, p.y))
            xy.add((p.y, p.x))
            sides.add(p.x)
            sides.add(p.y)
    rmap: Dict[Tuple[int, ...], list] = {}
    for r in system.reducing:
        rmap.setdefault(r.lhs, []).append(r.rhs)
    lengths = sorted({len(k) for k in rmap})
    nodes = 0
    for w in sides:
        seen = {w}
        frontier = [w]
        while frontier:
            nxt = []
            for v in frontier:
                n = len(v)
                for L in lengths:
                    for i in range(n - L + 1):
                        for rhs in rmap.get(v[i:i + L], ()):
                            c = v[:i] + rhs + v[i + L:]
                            if c not in seen:
                                seen.add(c)
                                nxt.append(c)
            frontier = nxt
        nodes += len(seen)
    return distinct, len(sides), nodes


# ---------------------------------------------------------------------------

class CompleteDiverging(Workload):
    """Capped completion on seven diverging graph groups."""

    name = "complete-diverging"
    primary = ("kb_complete on z2_graph (5 phases), on the graph group of the "
               "edge a-b beside the vertex c (4 phases) and on those of the "
               "paths a-b-c and a-b-c-d, the triangle, the star and the square "
               "(2 phases)")
    GRAPHS = {"edge_ab_c": (("a", "b", "c"), (("a", "b"),)),
              "path_abc": (("a", "b", "c"), (("a", "b"), ("b", "c"))),
              "path_abcd": (("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "d"))),
              "triangle_abc": (("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c"))),
              "star_abcd": (("a", "b", "c", "d"), (("a", "b"), ("a", "c"), ("a", "d"))),
              "square_abcd": (("a", "b", "c", "d"),
                              (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")))}

    def setup(self, seed):
        rng = random.Random(seed)
        systems = {"z2_graph": permuted(gt.load_system(FIXTURES / "z2_graph.rws"), rng)}
        for name, graph in self.GRAPHS.items():
            systems[name] = permuted(gt.build_graph_group(gt.CommutationGraph(*graph)), rng)
        gt.kb_complete(systems["z2_graph"], max_phases=1)
        return {"systems": systems}

    def batch(self, state):
        return [timed(name, gt.kb_complete, system,
                      max_phases=ref.COMPLETION_PROFILES[name][0])
                for name, system in state["systems"].items()]

    def check(self, state, ops, out):
        for op in ops:
            if op.error:
                out.fail(f"{op.key}: {op.error}")
                continue
            _, totals, fresh = ref.COMPLETION_PROFILES[op.key]
            res = op.answer
            got_totals = tuple(p.total_rules for p in res.phases)
            got_fresh = tuple(p.new_pairs for p in res.phases)
            if res.status is not gt.CompletionStatus.PHASE_LIMIT \
                    or got_totals != totals or got_fresh != fresh:
                out.fail(f"{op.key}: {res.status.value} totals={got_totals} "
                         f"fresh={got_fresh}")
                continue
            steps = ref.step_table(res.system.rules)
            final_rules = {(r.lhs, r.rhs) for r in res.system.rules}
            for cert in res.certificates:
                chain = cert.chain
                rule = cert.rule
                if (chain[0] != cert.x_hat or chain[-1] != cert.y_hat
                        or cert.pair.z not in chain
                        or (rule.lhs, rule.rhs) not in final_rules
                        or {rule.lhs, rule.rhs} != {cert.x_hat, cert.y_hat}
                        or not all(ref.replays_one_step(a, b, steps)
                                   for a, b in zip(chain, chain[1:]))):
                    out.fail(f"{op.key}: certificate for {cert.pair.z} does not replay")
                    break

    def named_metrics(self, state, fastest, metrics, tail_pct, samples):
        return {"complete_s": metrics["batch_s"]}


# ---------------------------------------------------------------------------

class ReduceLong(Workload):
    """reduce_lr on long random words over a free group and over the
    universal system of the HNN pregroup (685 reducing rules)."""

    name = "reduce-long"
    primary = "reduce_lr on four free_ab words and four hnn_s3 words"
    LENGTHS = {"free_ab": 1 << 14, "hnn_s3": 1 << 11}
    WORDS = 4  # per system

    def setup(self, seed):
        P = gt.load_pregroup(FIXTURES / "hnn_s3.pg")
        systems = {"free_ab": gt.load_system(FIXTURES / "free_ab.rws"),
                   "hnn_s3": gt.universal_system(P)}
        for system in systems.values():
            gt.reduce_lr((0, 0, 1), system)
        return {"systems": systems, "pregroup": P}

    def make_inputs(self, state, seed):
        rng = random.Random(seed)
        words = {}
        for name, system in state["systems"].items():
            k = len(system.alphabet)
            for i in range(self.WORDS):
                words[(name, i)] = tuple(rng.choices(range(k), k=self.LENGTHS[name]))
        state["words"] = words

    def batch(self, state):
        return [timed(key, gt.reduce_lr, word, state["systems"][key[0]])
                for key, word in state["words"].items()]

    def check(self, state, ops, out):
        for op in ops:
            if op.error:
                out.fail(f"{op.key}: {op.error}")
                continue
            note = check_reduction(state, op.key[0], state["words"][op.key], op.answer)
            if note:
                out.fail(f"{op.key}: {note}")

    def ns_per_letter(self, seconds) -> Dict[str, float]:
        """Per system, its words' time over their letters; seconds maps
        each word's key to a time of its call."""
        per: Dict[str, float] = {}
        for (name, _), sec in seconds.items():
            per[name] = per.get(name, 0.0) + sec * 1e9 / (self.LENGTHS[name] * self.WORDS)
        return per

    def named_metrics(self, state, fastest, metrics, tail_pct, samples):
        return {f"reduce_{name.split('_')[0]}_ns_per_letter": (v, "ns/letter")
                for name, v in self.ns_per_letter(fastest).items()}

    def layer_extras(self, state, ops, values):
        per = self.ns_per_letter({op.key: op.seconds for op in ops})
        return {f"rewriting.reduce_lr.{name.split('_')[0]}_ns_per_letter": v
                for name, v in per.items()}


def check_reduction(state, name: str, word, answer) -> Optional[str]:
    """Free_ab: equal to the stack free reduction.  hnn_s3: irreducible,
    and as long as the pregroup-reduced sequence of the same letters."""
    system = state["systems"][name]
    if name == "free_ab":
        if answer != ref.free_reduce(word, system.inverse_pairing):
            return "differs from the free reduction"
        return None
    index = state.setdefault("lhs_index", {})
    if name not in index:
        index[name] = ref.lhs_index(system.reducing)
    lhs, lengths = index[name]
    if ref.has_redex(answer, lhs, lengths):
        return "output is reducible"
    names = system.alphabet.names
    want = len(gt.p_reduce((names[x] for x in word), state["pregroup"]))
    if len(answer) != want:
        return f"length {len(answer)}, pregroup reduction gives {want}"
    return None


# ---------------------------------------------------------------------------

# (fixture, reference invariant) for the preperfect_wp systems; an
# invariant decides equality exactly where the presented monoid is a
# group it determines (tits_d3 is S3, z2_graph is Z^2).
_S3 = {"a": (0, 1), "b": (1, 2)}
_Z2 = {"a": (0, 1), "A": (0, -1), "b": (1, 1), "B": (1, -1)}


def _invariant(system, table, fn):
    by_id = {system.alphabet.id(n): v for n, v in table.items()}
    return lambda w: fn(w, by_id)


@dataclass
class Query:
    kind: str
    target: str
    args: Tuple
    expected: Optional[bool]  # by construction, where the generator knows


class WpQueries(Workload):
    """A closed-loop stream of short word-problem queries, timed one by one."""

    name = "wp-queries"
    primary = "one pass over the seeded query pool"
    PREPERFECT = ("tits_d3", "geoper_T", "z2_graph")
    DEHN = ("free_ab", "z2z2")
    PREGROUPS = ("hnn_s3", "amalgam_z4z6")
    PER_TARGET = 400
    ORACLE_NODES = 500
    # Lengths cycle through fixed ranges and equal / unequal pairs alternate,
    # so every seed gives the same mix and only the letters change.
    PREPERFECT_LEN = {"tits_d3": (0, 8), "geoper_T": (0, 8), "z2_graph": (0, 6)}
    DEHN_HALF_LEN = (0, 6)
    UP_LEN = {"hnn_s3": (0, 10), "amalgam_z4z6": (0, 8)}
    REDUCE_LEN = (0, 12)
    # The tail: unequal hnn_s3 pairs of one reduced length, where up_wp must
    # exhaust an interleave class (about 5 ms each at length 4, 0.1 s at 5).
    # They come from a fixed seed, so every run has the same ones.
    HEAVY_SEED = 0x9E0
    HEAVY_UP = 60
    HEAVY_LEN = 4

    def setup(self, seed):
        systems = {n: gt.load_system(FIXTURES / f"{n}.rws")
                   for n in self.PREPERFECT + self.DEHN}
        pregroups = {n: gt.load_pregroup(FIXTURES / f"{n}.pg") for n in self.PREGROUPS}
        reducers = {"free_ab": systems["free_ab"],
                    "hnn_s3": gt.universal_system(pregroups["hnn_s3"])}
        for system in reducers.values():
            gt.reduce_lr((0, 0, 1), system)
        return {"systems": systems, "pregroups": pregroups, "reducers": reducers}

    def make_inputs(self, state, seed):
        rng = random.Random(seed)
        systems, pregroups = state["systems"], state["pregroups"]
        pool: List[Query] = []
        for name in self.PREPERFECT:
            s = systems[name]
            k = len(s.alphabet)
            for j in range(self.PER_TARGET):
                u = _random_word(rng, k, _cycle(j, self.PREPERFECT_LEN[name]))
                equal = j % 2 == 0
                v = u if equal else _mutate(rng, u, k)
                v = ref.random_equal_word(v, s.rules, rng, rng.randint(1, 6), len(v) + 4)
                pool.append(Query("preperfect_wp", name, (u, v), True if equal else None))
        for name in self.DEHN:
            s = systems[name]
            k = len(s.alphabet)
            inv = s.inverse_pairing
            for j in range(self.PER_TARGET):
                n = _cycle(j, self.DEHN_HALF_LEN)
                if j % 2 == 0:
                    x = _random_word(rng, k, n)
                    w = x + tuple(inv[c] for c in reversed(x))
                    w = ref.random_equal_word(w, s.rules, rng, rng.randint(1, 4), 2 * n + 4)
                    pool.append(Query("dehn_wp", name, (w,), True))
                else:
                    pool.append(Query("dehn_wp", name, (_random_word(rng, k, 2 * n),), None))
        for name in self.PREGROUPS:
            P = pregroups[name]
            lengths = self.UP_LEN[name]
            for j in range(self.PER_TARGET):
                n = _cycle(j, lengths)
                u = tuple(rng.choice(P.elements) for _ in range(n))
                equal = j % 2 == 0
                # unequal pairs differ in reduced length: the costly ones
                # of equal length are the fixed tail below
                v = u if equal else _replace_one(rng, u, P, same_length=False)
                v = ref.random_equal_sequence(v, P, rng, rng.randint(1, 6), lengths[1] + 2)
                pool.append(Query("up_wp", name, (u, v), equal))
        pool += self.heavy_queries(pregroups["hnn_s3"])
        for name, system in state["reducers"].items():
            k = len(system.alphabet)
            for j in range(self.PER_TARGET):
                w = _random_word(rng, k, _cycle(j, self.REDUCE_LEN))
                pool.append(Query("reduce_lr", name, (w,), None))
        rng.shuffle(pool)
        state["pool"] = pool

    def heavy_queries(self, P) -> List[Query]:
        """HEAVY_UP unequal pairs of HEAVY_LEN elements, both of reduced
        length HEAVY_LEN, made from HEAVY_SEED whatever the run's seed."""
        rng = random.Random(self.HEAVY_SEED)
        out = []
        while len(out) < self.HEAVY_UP:
            u = tuple(rng.choice(P.elements) for _ in range(self.HEAVY_LEN))
            if len(gt.p_reduce(u, P)) != self.HEAVY_LEN:
                continue
            v = _replace_one(rng, u, P, same_length=True)
            v = ref.random_equal_sequence(v, P, rng, rng.randint(1, 6), self.HEAVY_LEN + 2)
            out.append(Query("up_wp", "hnn_s3", (u, v), False))
        return out

    def batch(self, state):
        systems, pregroups, reducers = (state["systems"], state["pregroups"],
                                        state["reducers"])
        ops = []
        for i, q in enumerate(state["pool"]):
            if q.kind == "preperfect_wp":
                ops.append(timed(i, gt.preperfect_wp, *q.args, systems[q.target]))
            elif q.kind == "dehn_wp":
                ops.append(timed(i, gt.dehn_wp, *q.args, systems[q.target]))
            elif q.kind == "up_wp":
                ops.append(timed(i, gt.up_wp, *q.args, pregroups[q.target]))
            else:
                ops.append(timed(i, gt.reduce_lr, *q.args, reducers[q.target]))
        return ops

    def references(self, state) -> List[Callable[[Any], Optional[bool]]]:
        """One checker per pool query: True (right), False (wrong) or None
        (no reference decides).  Built once, outside the timed region."""
        checks = []
        state["oracle_undecided"] = state["unchecked"] = 0
        reducing = {"systems": state["reducers"],
                    "pregroup": state["pregroups"]["hnn_s3"]}
        for q in state["pool"]:
            if q.kind == "reduce_lr":
                checks.append(lambda a, q=q:
                              check_reduction(reducing, q.target, q.args[0], a) is None)
                continue
            oracle, *others = self._verdicts(state, q)
            state["oracle_undecided"] += oracle is None
            decided = {v for v in [q.expected, oracle] + others if v is not None}
            if len(decided) > 1:
                checks.append(lambda a: False)  # the references disagree
            elif decided:
                want = decided.pop()
                checks.append(lambda a, want=want: a == want)
            else:
                state["unchecked"] += 1
                checks.append(lambda a: None)
        return checks

    def _verdicts(self, state, q: Query) -> List[Optional[bool]]:
        if q.kind == "up_wp":
            P = state["pregroups"][q.target]
            built = state.setdefault("up_systems", {})
            if q.target not in built:
                built[q.target] = gt.universal_system(P)
            system = built[q.target]
            ids = system.alphabet.index
            u, v = ([ids[a] for a in seq] for seq in q.args)
            return [ref.oracle_verdict(u, v, system, self.ORACLE_NODES)]
        system = state["systems"][q.target]
        if q.kind == "dehn_wp":
            (w,) = q.args
            return [ref.oracle_verdict(w, (), system, self.ORACLE_NODES),
                    not ref.free_reduce(w, system.inverse_pairing)]
        u, v = q.args
        out = [ref.oracle_verdict(u, v, system, self.ORACLE_NODES)]
        if q.target == "tits_d3":
            inv = _invariant(system, _S3, ref.s3_image)
            out.append(inv(u) == inv(v))
        elif q.target == "z2_graph":
            inv = _invariant(system, _Z2, ref.exponent_sums)
            out.append(inv(u) == inv(v))
        return out

    def check(self, state, ops, out):
        if "checks" not in state:
            state["checks"] = self.references(state)
        checks = state["checks"]
        for op in ops:
            if op.error:
                out.fail(f"query {op.key}: {op.error}")
                continue
            verdict = checks[op.key](op.answer)
            if verdict is None:
                out.undecided += 1
            elif not verdict:
                q = state["pool"][op.key]
                out.fail(f"query {op.key} {q.kind} on {q.target}: {op.answer!r}")

    def named_metrics(self, state, fastest, metrics, tail_pct, samples):
        value, _ = metrics["op_tail_ms"]
        return {"wp_p50_ms": metrics["op_p50_ms"],
                "wp_tail_ms": (value, f"ms(p{tail_pct:g},n={samples})"),
                "wp_per_s": (metrics["ops_per_s"][0], "queries/s"),
                "wp_oracle_undecided": (state["oracle_undecided"], "queries"),
                "wp_unchecked": (state["unchecked"], "queries")}

    def layer_extras(self, state, ops, values):
        return {"wp.oracle_undecided": state["oracle_undecided"],
                "wp.unchecked": state["unchecked"]}


def _cycle(j: int, lengths: Tuple[int, int]) -> int:
    lo, hi = lengths
    return lo + j // 2 % (hi - lo + 1)


def _random_word(rng, k: int, n: int):
    return tuple(rng.randrange(k) for _ in range(n))


def _mutate(rng, u, k: int):
    if not u:
        return _random_word(rng, k, rng.randint(1, 3))
    i = rng.randrange(len(u))
    return u[:i] + (rng.randrange(k),) + u[i + 1:]


def _replace_one(rng, u, P, same_length: bool):
    """u with one element swapped for another: a different group element,
    since a pregroup embeds in its universal group.  Redrawn until the
    reduced lengths of u and the result are equal (same_length) or differ."""
    n = len(gt.p_reduce(u, P))
    while True:
        if u:
            i = rng.randrange(len(u))
            v = u[:i] + (rng.choice([a for a in P.elements if a != u[i]]),) + u[i + 1:]
        else:
            v = (rng.choice([a for a in P.elements if a != P.eps]),)
        if (len(gt.p_reduce(v, P)) == n) == same_length:
            return v


WORKLOADS = {w.name: w for w in (GpPregroups(), CompleteDiverging(),
                                 ReduceLong(), WpQueries())}
