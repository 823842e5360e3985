"""Print the per-phase growth profile of a completion run.

Useful for eyeballing whether a system is heading anywhere: a closing
run shows a zero-add phase at the end, a diverging one keeps climbing
until the phase cap stops it.  The text output ends with the wall time
of the kb_complete call.

    python scripts/kb_growth.py fixtures/z2_graph.rws --max-phases 8
"""

import argparse
import json
import pathlib
import sys
from time import perf_counter

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from geothue.completion import kb_complete
from geothue.systems import load_system


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("system", type=pathlib.Path)
    parser.add_argument("--max-phases", type=int, default=8)
    parser.add_argument("--max-rules", type=int, default=20000)
    parser.add_argument("--classical-overlaps", action="store_true",
                        help="also overlap a rule with its own shifts")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    system = load_system(args.system)
    start = perf_counter()
    result = kb_complete(system, max_phases=args.max_phases,
                         max_rules=args.max_rules,
                         include_same_rule_overlaps=args.classical_overlaps)
    seconds = perf_counter() - start
    if args.json:
        json.dump(result.to_dict(), sys.stdout, indent=2)
        print()
        return 0

    print(f"{args.system}: {result.status.value} "
          f"after {len(result.phases)} phase(s)")
    print(f"{'phase':>5} {'pairs':>7} {'+red':>6} {'+pres':>6} {'total':>7}")
    for p in result.phases:
        print(f"{p.index:>5} {p.new_pairs:>7} {p.added_reducing:>6} "
              f"{p.added_preserving:>6} {p.total_rules:>7}")
    deltas = [b.total_rules - a.total_rules
              for a, b in zip(result.phases, result.phases[1:])]
    if deltas:
        print("growth per phase:", " ".join(str(d) for d in deltas))
    print(f"wall time: {seconds:.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
