"""Run the geodesic-perfection check over every Thue system in fixtures/.

One line per system: verdict, pairs inspected, wall time, and the
witness overlap for failures.  A pregroup file (.pg) gives two systems,
its universal_system and its universal_system_prime.  Handy after
touching the criterion or the fixture generator.

    python scripts/gp_survey.py
    python scripts/gp_survey.py fixtures/tits_d3.rws --classical-overlaps
    python scripts/gp_survey.py fixtures/hnn_s3.pg --classical-overlaps
"""

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from geothue.confluence import check_geodesically_perfect
from geothue.pregroup import load_pregroup, universal_system, universal_system_prime
from geothue.systems import load_system

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=pathlib.Path)
    parser.add_argument("--classical-overlaps", action="store_true",
                        help="also overlap a rule with its own shifts")
    args = parser.parse_args(argv)

    files = args.files or sorted((ROOT / "fixtures").glob("*.rws"))
    systems = []
    for path in files:
        if path.suffix == ".pg":
            P = load_pregroup(path)
            systems.append((f"{path.name} universal", universal_system(P)))
            systems.append((f"{path.name} prime", universal_system_prime(P)))
        else:
            systems.append((path.name, load_system(path)))
    width = max(len(name) for name, _ in systems)
    for name, system in systems:
        t0 = time.perf_counter()
        verdict = check_geodesically_perfect(
            system, include_same_rule_overlaps=args.classical_overlaps)
        elapsed = time.perf_counter() - t0
        line = (f"{name:<{width}}  "
                f"{'gp' if verdict.holds else 'NOT gp':<6} "
                f"{verdict.pairs_checked:>8} pairs  {elapsed:>7.2f}s")
        if verdict.witness is not None:
            pair = verdict.witness.pair
            fmt = system.alphabet.format
            line += f"  witness from {fmt(pair.z)}: ({fmt(pair.x)} | {fmt(pair.y)})"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
