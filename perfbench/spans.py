"""Spans around the calls into each module, recorded from outside the
library.

A span is wrapped around a public function where one module calls it
from another: on the ``geothue`` package for the benchmark's own calls,
and in the calling module's globals for calls between modules (for
example ``geothue.completion.resolve_pair``).  Each span records its
name, start, end and parent; the spans stay in memory until the run
ends.  Counters that the per-layer report needs are taken from the
wrapped calls' arguments and results at the same boundaries.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import geothue as gt
import geothue.completion
import geothue.confluence
import geothue.pregroup
import geothue.triangular


def _letters(counts, args, result):
    counts["rewriting.reduce_lr.letters_in"] += len(args[0])
    counts["rewriting.reduce_lr.letters_out"] += len(result)


def _trace_steps(counts, args, result):
    counts["rewriting.reduce_lr_trace.steps"] += len(result[1])


def _pairs(counts, args, result):
    counts["confluence.critical_pairs.pairs"] += len(result)


def _sp_true(counts, args, result):
    counts["confluence.sp_equivalent.true"] += bool(result)


def _closure_nodes(counts, args, result):
    counts["confluence.descendant_closure.nodes"] += len(result)


def _gp_pairs(counts, args, result):
    counts["confluence.gp.pairs_checked"] += result.pairs_checked


def _action(counts, args, result):
    counts["completion.action." + result.action.value] += 1


def _completion(counts, args, result):
    counts["completion.phases"] += len(result.phases)
    counts["completion.fresh_pairs"] += sum(p.new_pairs for p in result.phases)
    counts["completion.rules_added"] += len(result.certificates)


# (owner, attribute, span name, counter); the span name's first part is
# the module the wrapped function lives in.
TARGETS: Tuple[Tuple[Any, str, str, Optional[Callable]], ...] = (
    # called by the benchmark
    (gt, "load_system", "systems.load_system", None),
    (gt, "load_pregroup", "pregroup.load_pregroup", None),
    (gt, "build_graph_group", "builders.build_graph_group", None),
    (gt, "check_axioms", "pregroup.check_axioms", None),
    (gt, "universal_system", "pregroup.universal_system", None),
    (gt, "universal_system_prime", "pregroup.universal_system_prime", None),
    (gt, "check_geodesically_perfect", "confluence.gp", _gp_pairs),
    (gt, "reducing_part", "triangular.reducing_part", None),
    (gt, "pregroup_from_system", "triangular.pregroup_from_system", None),
    (gt, "kb_complete", "completion.kb_complete", _completion),
    (gt, "reduce_lr", "rewriting.reduce_lr", _letters),
    (gt, "dehn_wp", "rewriting.dehn_wp", None),
    (gt, "preperfect_wp", "confluence.preperfect_wp", None),
    (gt, "up_wp", "pregroup.up_wp", None),
    # called by one library module from another
    (gt.RewriteSystem, "__init__", "systems.RewriteSystem", None),
    (geothue.completion, "critical_pairs", "confluence.critical_pairs", _pairs),
    (geothue.completion, "reduce_lr_trace", "rewriting.reduce_lr_trace", _trace_steps),
    (geothue.completion, "sp_equivalent", "confluence.sp_equivalent", _sp_true),
    (geothue.completion, "resolve_pair", "completion.resolve_pair", _action),
    (geothue.confluence, "descendant_closure", "confluence.descendant_closure",
     _closure_nodes),
    (geothue.pregroup, "interleave_equivalent", "pregroup.interleave_equivalent", None),
    (geothue.triangular, "reduce_lr", "rewriting.reduce_lr", _letters),
    (geothue.triangular, "check_axioms", "pregroup.check_axioms", None),
)

MODULES = ("builders", "completion", "confluence", "pregroup", "rewriting",
           "systems", "triangular")


class Tracer:
    """Wraps the TARGETS while active; spans are [name, start, end, parent]."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def __enter__(self):
        for owner, attr, name, count in TARGETS:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, count))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    def totals(self) -> Dict[str, Tuple[float, int]]:
        """Inclusive seconds and calls per span name."""
        out: Dict[str, list] = {}
        for name, t0, t1, _ in self.spans:
            acc = out.setdefault(name, [0.0, 0])
            acc[0] += t1 - t0
            acc[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def self_seconds(self, window: float) -> Dict[str, float]:
        """Self time per module (span time not covered by child spans); the
        time of a window of the given length, which holds every span, that
        no span covers is "bench".  The values add up to the window."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {m: 0.0 for m in MODULES}
        top = 0.0
        for (name, t0, t1, parent), covered in zip(spans, child):
            module = name.split(".", 1)[0]
            out[module] += (t1 - t0) - covered
            if parent < 0:
                top += t1 - t0
        out["bench"] = window - top
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)
