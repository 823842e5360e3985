"""Run workloads over several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its values
as a share of their median, next to the bound in BENCHMARK.json.

    python3 perfbench/sweep.py                      # every workload, seeds 0-9
    python3 perfbench/sweep.py --workloads reduce-long --seeds 5 --first-seed 100
    python3 perfbench/sweep.py --workloads wp-queries --same-seed   # seed 0, ten times
    python3 perfbench/sweep.py --counts perfbench/counts.json --seeds 2

Runs are sequential, one process each.  A spread at or above a third of
its bound is marked; setup_s is exempt from the spread rule.  With
--counts, the traced run is made instead and its deterministic
per-layer counts are written to the given file, each marked with
whether it was the same on every seed, together with the reference
counts the checks compare against.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.reference import COMPLETION_PROFILES, GP_PAIRS  # noqa: E402

# deterministic ratios of counts, recorded with the counts
COUNTED = ("confluence.gp.verdict_reuse", "confluence.sp_equivalent.true_share",
           "completion.useful_share")


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"  {line}")
    return json.loads(lines[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--same-seed", action="store_true",
                        help="run --first-seed every time, to see the machine's share")
    parser.add_argument("--counts", type=pathlib.Path)
    args = parser.parse_args(argv)
    seeds = ([args.first_seed] * args.seeds if args.same_seed
             else range(args.first_seed, args.first_seed + args.seeds))
    if args.counts:
        counted = [m["name"] for m in bench["per_layer"] if m["name"] in COUNTED
                   or m["unit"] in ("count", "letters")]
        table = {}
        for workload in args.workloads:
            runs = []
            for seed in seeds:
                print(f"{workload} seed {seed} traced")
                runs.append(run(workload, seed, args.seconds, 1)["metrics"])
            table[workload] = {
                name: {"value": runs[0][name]["value"], "unit": runs[0][name]["unit"],
                       "same_on_all_seeds": all(r[name]["value"] == runs[0][name]["value"]
                                                for r in runs)}
                for name in counted if runs[0][name]["value"]}
        table["reference"] = {"gp_pairs_checked": {" ".join(k): v for k, v in GP_PAIRS.items()},
                              "completion_profiles": COMPLETION_PROFILES,
                              "seeds": list(seeds)}
        args.counts.write_text(json.dumps(table, indent=1) + "\n")
        return 0

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        failed = 0
        for seed in seeds:
            print(f"{workload} seed {seed}")
            result = run(workload, seed, args.seconds, 0)
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload}: {args.seeds} runs, {failed} failed operations")
        for name, vals in values.items():
            s = spread(vals) if len(vals) > 1 else 0.0
            mark = ""
            if name != "setup_s" and s >= bounds[name] / 3:
                mark = "  <-- at or above a third of its bound"
                worst = max(worst, s / bounds[name])
            print(f"   {name:<12} median {statistics.median(vals):<12.6g} "
                  f"spread {s:.4f} (bound {bounds[name]}){mark}")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
