"""Show that each workload's reference checks catch wrong answers.

    python3 perfbench/selftest.py

For every workload, genuine answers are checked first (no failures
expected), then each kind of answer is corrupted in turn and fed to the
same check, whose failure count must rise.  Answers go through the run's
own bookkeeping (``Answers``): a case is one or more batches, and a
later batch's answer that differs from the first batch's must fail too.
Inputs are cut down where the check does not depend on their size:
gp-pregroups runs its calls on the bundled amalgam's systems only, and
reduce-long uses short words.  Exits 1 if any check fails.
"""

from __future__ import annotations

import dataclasses
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]

from perfbench.workloads import WORKLOADS, Answers, Op  # noqa: E402


def failures(workload, state, batches) -> int:
    answers = Answers(workload)
    for ops in batches:
        answers.add(ops)
    return answers.check(state).failed


def swap(ops, i, answer):
    ops = list(ops)
    ops[i] = dataclasses.replace(ops[i], answer=answer)
    return ops


def gp_cases(workload):
    state = workload.setup(0)
    state["systems"] = {k: v for k, v in state["systems"].items()
                        if k[0] == "amalgam_z4z6"}
    ops = workload.batch(state)
    i = next(i for i, op in enumerate(ops) if op.key[1] == "prime")
    verdict, pregroup = ops[i].answer
    yield "genuine answers", state, [ops, ops]
    yield "verdict says not gp", state, [swap(
        ops, i, (dataclasses.replace(verdict, holds=False), pregroup))]
    yield "pair count off by one", state, [swap(
        ops, i, (dataclasses.replace(verdict, pairs_checked=verdict.pairs_checked + 1),
                 pregroup))]
    yield "round trip gives another pregroup", state, [swap(
        ops, i, (verdict, state["pregroups"]["hnn_z2_h1"]))]
    yield "a later batch's round trip differs", state, [ops, swap(
        ops, i, (verdict, state["pregroups"]["hnn_z2_h1"]))]
    yield "call raised", state, [ops[:i] + [
        Op(ops[i].key, 0.0, None, "ResourceLimitError: cap")] + ops[i + 1:]]


def complete_cases(workload):
    state = workload.setup(0)
    ops = workload.batch(state)
    res = ops[1].answer
    yield "genuine answers", state, [ops, ops]
    yield "one phase missing", state, [swap(
        ops, 1, dataclasses.replace(res, phases=res.phases[:-1]))]
    yield "a later batch's answer differs", state, [ops, swap(
        ops, 1, dataclasses.replace(res, certificates=res.certificates[:-1]))]
    cert = res.certificates[-1]
    chain = cert.chain[:1] + (cert.chain[0] + cert.chain[0],) + cert.chain[1:]
    bad = dataclasses.replace(cert, chain=chain)
    yield "certificate chain skips a step", state, [swap(
        ops, 1, dataclasses.replace(res, certificates=res.certificates[:-1] + (bad,)))]


def reduce_cases(workload):
    workload.LENGTHS = {"free_ab": 5000, "hnn_s3": 2000}
    state = workload.setup(0)
    workload.make_inputs(state, 0)
    ops = workload.batch(state)
    free = next(i for i, op in enumerate(ops) if op.key[0] == "free_ab")
    hnn = next(i for i, op in enumerate(ops) if op.key[0] == "hnn_s3")
    yield "genuine answers", state, [ops, ops]
    yield "free_ab answer one letter short", state, [swap(ops, free, ops[free].answer[:-1])]
    yield "hnn_s3 answer left reducible", state, [swap(
        ops, hnn, ops[hnn].answer + (state["systems"]["hnn_s3"].alphabet.id("1"),))]
    yield "hnn_s3 answer one letter short", state, [swap(ops, hnn, ops[hnn].answer[:-1])]
    yield "a later batch's free_ab answer differs", state, [
        ops, swap(ops, free, ops[free].answer[:-1])]


def wp_cases(workload):
    state = workload.setup(0)
    workload.make_inputs(state, 0)
    ops = workload.batch(state)
    yield "genuine answers", state, [ops, ops]
    for kind in ("preperfect_wp", "dehn_wp", "up_wp"):
        i = next(i for i, op in enumerate(ops) if state["pool"][op.key].kind == kind)
        yield f"{kind} answer flipped", state, [swap(ops, i, not ops[i].answer)]
    yield "a later batch's up_wp answer flipped", state, [
        ops, swap(ops, i, not ops[i].answer)]
    i = next(i for i, op in enumerate(ops)
             if state["pool"][op.key].kind == "reduce_lr" and op.answer)
    yield "reduce_lr answer truncated", state, [swap(ops, i, ops[i].answer[:-1])]


CASES = {"gp-pregroups": gp_cases, "complete-diverging": complete_cases,
         "reduce-long": reduce_cases, "wp-queries": wp_cases}


def main() -> int:
    ok = True
    for name, cases in CASES.items():
        workload = WORKLOADS[name]
        for label, state, batches in cases(workload):
            n = failures(workload, state, batches)
            good = (n == 0) if label == "genuine answers" else (n > 0)
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {name}: {label}: "
                  f"failed {n} of {sum(len(ops) for ops in batches)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
