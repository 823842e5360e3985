"""The benchmark's traced run wraps library functions by their module
names, and its workloads call the package by its public names, so a
rename in the library must not leave a target or a call dangling."""

import importlib
import pathlib
import re

import geothue as gt
from perfbench import spans
from tests.conftest import words_of

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _name(owner, attr):
    return f"{getattr(owner, '__name__', owner)}.{attr}"


def test_tracer_targets_resolve_and_are_restored():
    missing = [_name(owner, attr) for owner, attr, _, _ in spans.TARGETS
               if not hasattr(owner, attr)]
    assert not missing
    before = [getattr(owner, attr) for owner, attr, _, _ in spans.TARGETS]
    with spans.Tracer():
        wrapped = [getattr(owner, attr) for owner, attr, _, _ in spans.TARGETS]
    after = [getattr(owner, attr) for owner, attr, _, _ in spans.TARGETS]
    assert all(w is not b for w, b in zip(wrapped, before))
    unrestored = [_name(owner, attr)
                  for (owner, attr, _, _), a, b in zip(spans.TARGETS, after, before)
                  if a is not b]
    assert not unrestored


def test_public_names_the_benchmark_reads_exist():
    # importing the workloads resolves their from-imports of geothue
    importlib.import_module("perfbench.workloads")
    read = {name for path in sorted(PERFBENCH.glob("*.py"))
            for name in re.findall(r"\bgt\.([A-Za-z_]\w*)",
                                   path.read_text(encoding="utf-8"))}
    assert "load_system" in read
    assert sorted(name for name in read if not hasattr(gt, name)) == []


def test_library_to_library_targets_are_reached(z2_graph, amalgam_pregroup):
    # a wrapped call path that a signature change leaves behind would
    # read 0 calls in the per-layer ledger; interleave_equivalent is left
    # out because no library code calls it since up_wp's carry pass (the
    # FOUND line on wp-queries' interleave_equivalent.calls in CHANGES.md)
    between = {name for owner, _, name, _ in spans.TARGETS if owner is not gt}
    between.discard("pregroup.interleave_equivalent")
    u, v = words_of(z2_graph.alphabet, "a b", "b a")
    with spans.Tracer() as tracer:
        gt.preperfect_wp(u, v, z2_graph)
        gt.kb_complete(z2_graph, max_phases=2)
        P = amalgam_pregroup
        Q = gt.pregroup_from_system(gt.reducing_part(gt.universal_system_prime(P)))
        assert gt.table_isomorphic(P, Q)
    calls = {name: n for name, (_, n) in tracer.totals().items()}
    assert {name for name in between if not calls.get(name)} == set()
