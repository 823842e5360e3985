"""Benchmark the leftmost reducer on random words of growing length.

Reports wall time and nanoseconds per input letter for each size, so a
linear implementation shows a flat right-hand column.  The system is a
.rws file, or a .pg pregroup file whose universal system is used; then
a first line gives the time to build that system and its rule count.

With --up-wp it times the word problem of a pregroup's universal group
instead (up_wp, default fixtures/hnn_s3.pg, 10^3 to 10^5 elements): an
equal pair, a random reduced sequence against the same after one random
mediator slide per element, and an unequal pair, the same with its last
element swapped for another that keeps it reduced, so that the carry
pass runs to the end.  It prints milliseconds per query.

    python scripts/reduce_bench.py --sizes 250000 500000 1000000 2000000
    python scripts/reduce_bench.py --system fixtures/hnn_s3.pg
    python scripts/reduce_bench.py --up-wp
"""

import argparse
import gc
import pathlib
import random
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from geothue.pregroup import load_pregroup, universal_system, up_wp
from geothue.rewriting import reduce_lr
from geothue.systems import load_system

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _reduced_sequence(P, rng, n):
    """n random non-identity elements, no two neighbours with a defined
    product, each but the last one that some element may follow."""
    nonid = [a for a in P.elements if a != P.eps]
    followed = [a for a in nonid if any(not P.defined(a, b) for b in nonid)]
    out = [rng.choice(followed)]
    while len(out) < n:
        a = rng.choice(followed if len(out) < n - 1 else nonid)
        if not P.defined(out[-1], a):
            out.append(a)
    return out


def _slid(P, seq, rng):
    """seq after one mediator slide a b -> (a*c)(c^-1*b) per element, at
    random places: the same element of the universal group."""
    seq = list(seq)
    for _ in range(len(seq)):
        i = rng.randrange(len(seq) - 1)
        a, b = seq[i], seq[i + 1]
        c = rng.choice([c for c in P.right_factors(a)
                        if P.defined(P.inverse(c), b)])
        seq[i:i + 2] = P.prod(a, c), P.prod(P.inverse(c), b)
    return seq


def up_wp_bench(args) -> int:
    P = load_pregroup(args.system)
    rng = random.Random(args.seed)
    print(f"up_wp on {args.system}, {args.runs} runs per size, median reported")
    print(f"{'length':>9} {'equal ms':>9} {'unequal ms':>11}")
    gc.disable()
    try:
        for size in args.sizes:
            u = _reduced_sequence(P, rng, size)
            v = _slid(P, u, rng)
            w = v[:-1] + [next(a for a in P.elements if a not in (P.eps, v[-1])
                               and not P.defined(v[-2], a))]
            row = []
            for other, want in ((v, True), (w, False)):
                times = []
                for _ in range(args.runs):
                    t0 = time.perf_counter()
                    got = up_wp(u, other, P)
                    times.append(time.perf_counter() - t0)
                    if got is not want:
                        raise SystemExit(f"up_wp answered {got} on a "
                                         f"{size}-element pair made {want}")
                row.append(statistics.median(times) * 1e3)
            print(f"{size:>9} {row[0]:>9.2f} {row[1]:>11.2f}")
    finally:
        gc.enable()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--system", type=pathlib.Path)
    parser.add_argument("--sizes", type=int, nargs="+")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--up-wp", action="store_true",
                        help="time up_wp on a .pg file's pregroup instead")
    args = parser.parse_args(argv)

    if args.up_wp:
        args.system = args.system or ROOT / "fixtures" / "hnn_s3.pg"
        args.sizes = args.sizes or [10 ** 3, 10 ** 4, 10 ** 5]
        return up_wp_bench(args)
    args.system = args.system or ROOT / "fixtures" / "free_ab.rws"
    args.sizes = args.sizes or [10 ** 5, 10 ** 6, 2 * 10 ** 6]
    if args.system.suffix == ".pg":
        P = load_pregroup(args.system)
        t0 = time.perf_counter()
        system = universal_system(P)
        print(f"universal system built in "
              f"{(time.perf_counter() - t0) * 1e3:.1f} ms, "
              f"{len(system.rules)} rules")
    else:
        system = load_system(args.system)
    rng = random.Random(args.seed)
    n_letters = len(system.alphabet)

    print(f"system {args.system}, {args.runs} runs per size, "
          f"median reported")
    print(f"{'length':>9} {'median s':>9} {'ns/letter':>10} {'out len':>9}")
    gc.disable()
    try:
        for size in args.sizes:
            times = []
            out_len = 0
            for _ in range(args.runs):
                word = tuple(rng.choices(range(n_letters), k=size))
                t0 = time.perf_counter()
                out = reduce_lr(word, system)
                times.append(time.perf_counter() - t0)
                out_len = len(out)
            med = statistics.median(times)
            print(f"{size:>9} {med:>9.3f} {med / size * 1e9:>10.1f} "
                  f"{out_len:>9}")
    finally:
        gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
