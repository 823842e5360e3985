"""Benchmark the leftmost reducer on random words of growing length.

Reports wall time and nanoseconds per input letter for each size, so a
linear implementation shows a flat right-hand column.  The system is a
.rws file, or a .pg pregroup file whose universal system is used.

    python scripts/reduce_bench.py --sizes 250000 500000 1000000 2000000
    python scripts/reduce_bench.py --system fixtures/hnn_s3.pg
"""

import argparse
import gc
import pathlib
import random
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from geothue.pregroup import load_pregroup, universal_system
from geothue.rewriting import reduce_lr
from geothue.systems import load_system

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--system", type=pathlib.Path,
                        default=ROOT / "fixtures" / "free_ab.rws")
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[10 ** 5, 10 ** 6, 2 * 10 ** 6])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.system.suffix == ".pg":
        system = universal_system(load_pregroup(args.system))
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
