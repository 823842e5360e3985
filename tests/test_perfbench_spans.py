"""The benchmark's traced run wraps library functions by their module
names, so a rename in the library must not leave a target dangling."""

from perfbench import spans


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
