"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gp-pregroups --seed 0 --seconds 24 --trace 0

With ``--trace 0`` the workload runs closed-loop (one caller, each call
issued after the previous one returns) for ``--seconds`` seconds, at
least two batches, and the last line of output is the JSON result with
the end-to-end metrics.  With ``--trace 1`` it runs pairs of one
untraced and one traced batch for 10 s and reports the per-layer
metrics instead; the spans go to
``perfbench/out/``.  The lines before the JSON line name each figure
with its unit.  Run from the root of a checkout: the library is
imported from ``src/`` and the fixtures are read from ``fixtures/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import pathlib
import resource
import statistics
import sys
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]

from perfbench import calibrate, spans  # noqa: E402
from perfbench.workloads import WORKLOADS, Answers, Checked  # noqa: E402

OUT = HERE / "out"

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

MIN_BATCHES = 2
SETUP_REPS = 3  # before the batches; then one more after a batch while
SETUP_SHARE = 0.1  # set-ups have taken less than this share of the run,
                   # so the set-up times span the run

TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)

TRACE_SECONDS = 10.0


def tail(values):
    """(percentile, value): the highest listed percentile with at least ten
    samples beyond it, or (100, max) when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        idx = max(0, math.ceil(p * n / 100) - 1)
        if n - 1 - idx >= 10:
            return p, ordered[idx]
    return 100.0, ordered[-1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_setup(workload, seed):
    """One set-up: its state, and when it started and ended."""
    gc.collect()
    t0 = perf_counter()
    state = workload.setup(seed)
    return state, t0, perf_counter()


def run_batch(workload, state):
    gc.collect()
    t0 = perf_counter()
    ops = workload.batch(state)
    return perf_counter() - t0, ops


def measure(workload, seed: int, seconds: float):
    """Each input's latency is its fastest call across the run's batches,
    with every batch's and every set-up's times scaled by the calibration
    kernel timed around them (see calibrate.py).  Every batch calls every
    input once; scaling takes out the machine's slow spells, and the
    minimum drops what scaling leaves of them."""
    clock = calibrate.Clock()
    clock.sample()
    setups = []  # (start, end)

    def setup():
        state, t0, t1 = timed_setup(workload, seed)
        setups.append((t0, t1))
        clock.sample()
        return state

    for _ in range(SETUP_REPS):
        state = None  # free the previous set-up's state first
        state = setup()
    workload.make_inputs(state, seed)
    answers = Answers(workload)
    keys, batches = None, []  # batches: (start, end, seconds of each call)
    n_ops = 0
    start = perf_counter()
    while len(batches) < MIN_BATCHES or perf_counter() - start < seconds:
        t0 = perf_counter()
        _, ops = run_batch(workload, state)
        batches.append((t0, perf_counter(), [op.seconds for op in ops]))
        clock.sample()
        n_ops += len(ops)
        if keys is None:
            keys = [op.key for op in ops]
            # later batches repeat the same work
            rss = peak_rss_mb()
        answers.add(ops)
        if sum(t1 - t0 for t0, t1 in setups) < SETUP_SHARE * (perf_counter() - start):
            setup()
    checked = answers.check(state)

    fastest = dict.fromkeys(keys, math.inf)
    raw = dict.fromkeys(keys, math.inf)
    for t0, t1, secs in batches:
        factor = clock.factor(t0, t1)
        for key, sec in zip(keys, secs):
            fastest[key] = min(fastest[key], sec * factor)
            raw[key] = min(raw[key], sec)
    setup_times = [(t1 - t0) * clock.factor(t0, t1, typical=True) for t0, t1 in setups]
    lat = list(fastest.values())
    pct, tail_s = tail(lat)
    best_batch = sum(lat)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss, "MB"),
        "batch_s": (best_batch, "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "ops_per_s": (len(lat) / best_batch, "1/s"),
    }
    kernel = [k for _, k in clock.samples]
    notes = [f"batches {len(batches)}, ops {n_ops}, distinct inputs {len(lat)}, "
             f"setup repeated {len(setups)} times",
             f"op_tail_ms is p{pct:g} of {len(lat)} per-input minima",
             f"calibration kernel: fastest {min(kernel) * 1e3:.4f} ms, median "
             f"{statistics.median(kernel) * 1e3:.4f} ms, reference "
             f"{calibrate.REF_SECONDS * 1e3:g} ms",
             f"unscaled: batch_s {sum(raw.values()):.6g} s, setup_s "
             f"{statistics.median(t1 - t0 for t0, t1 in setups):.6g} s"]
    named = workload.named_metrics(state, fastest, metrics, pct, len(lat))
    named["failed_share"] = (checked.failed / n_ops, "ratio")
    return metrics, named, notes, checked, n_ops


def trace(workload, seed: int):
    """Pairs of one untraced and one traced batch on the same inputs for
    TRACE_SECONDS (at least one pair), and one traced set-up.
    trace_overhead compares the medians of the two kinds of batch; the
    other figures, except the setup.* ones, come from the last traced
    batch."""
    state = workload.setup(seed)
    workload.make_inputs(state, seed)
    with spans.Tracer() as setup_tracer:
        workload.setup(seed)
    untraced, traced = [], []
    untraced_ops = None
    start = perf_counter()
    while not traced or perf_counter() - start < TRACE_SECONDS:
        # alternate which kind of batch runs first
        for with_spans in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if with_spans:
                with spans.Tracer() as tracer:
                    traced_s, traced_ops = run_batch(workload, state)
                traced.append(traced_s)
            else:
                t, ops = run_batch(workload, state)
                untraced_ops = untraced_ops or ops
                untraced.append(t)
    primary_s = statistics.median(untraced)
    checked = Checked()
    workload.check(state, untraced_ops + traced_ops, checked)

    values = dict(tracer.counts)
    for prefix, totals in (("", tracer.totals()), ("setup.", setup_tracer.totals())):
        for stem, (sec, calls) in totals.items():
            values[f"{prefix}{stem}.s"] = sec
            values[f"{prefix}{stem}.calls"] = calls
    sp_calls = values.get("confluence.sp_equivalent.calls")
    if sp_calls:
        values["confluence.sp_equivalent.true_share"] = (
            values["confluence.sp_equivalent.true"] / sp_calls)
    if values.get("completion.fresh_pairs"):
        values["completion.useful_share"] = (
            values["completion.rules_added"] / values["completion.fresh_pairs"])
        values["completion.enumerate_share"] = (
            values["confluence.critical_pairs.s"] / values["completion.kb_complete.s"])
    for module, sec in tracer.self_seconds(traced_s).items():
        values[f"self.{module}.s"] = sec
    values["trace.primary_s"] = primary_s
    values["trace.traced_s"] = traced_s
    values["trace_overhead"] = statistics.median(traced) / primary_s - 1
    values.update(workload.layer_extras(state, untraced_ops, values))

    OUT.mkdir(exist_ok=True)
    setup_tracer.dump(OUT / f"{workload.name}-seed{seed}-setup-spans.json")
    tracer.dump(OUT / f"{workload.name}-seed{seed}-batch-spans.json")
    metrics = {name: (values.get(name, 0), unit) for name, unit in LAYERS}
    self_sum = sum(v for k, (v, _) in metrics.items() if k.startswith("self."))
    notes = [f"{len(traced)} untraced and {len(traced)} traced batches",
             f"self.*.s add up to {self_sum:.6f} s; trace.traced_s is {traced_s:.6f} s"]
    return metrics, notes, checked, len(untraced_ops) + len(traced_ops)


# Per-layer metrics as (name, unit), in BENCHMARK.json's order.  A layer
# the workload never enters reports 0.
LAYERS = tuple((m["name"], m["unit"]) for m in BENCH["per_layer"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.trace:
        metrics, notes, checked, n_ops = trace(workload, args.seed)
        named = {}
    else:
        metrics, named, notes, checked, n_ops = measure(workload, args.seed,
                                                        args.seconds)
    print(f"workload {workload.name} seed {args.seed}: {workload.primary}")
    for note in notes + checked.notes:
        print("#", note)
    if checked.undecided:
        print(f"# {checked.undecided} answers no reference decides (not scored)")
    for name, (value, unit) in {**named, **metrics}.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": checked.failed == 0,
        "attempted": n_ops,
        "failed": checked.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
