"""The package's layering and its exported names, read from the source.

The brute-force oracle is the reference the fast paths are tested
against, so it builds on the data types alone and no fast module leans
on it.  Every exported function is there for a caller outside the
tests; a slow twin that only the tests call lives in the tests.
"""

import ast
import inspect
import io
import pathlib
import tokenize

import geothue

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "geothue"

# exported functions that no code outside the tests calls, and why they stay
UNCALLED = {
    # the replay of a check-gp witness pair, step by step
    "apply_rule",
    # the replay of an oracle closure's path from its seed to a member
    "replay_path",
    # checks a normal form on the reducer's automaton, without reducing it
    "is_irreducible",
    # reads build hnn's output, which the round-trip law keeps honest
    "parse_rule_program",
    # the slide search that up_wp replaced; perfbench times it by name
    # until the benchmark moves off it (ROADMAP item 9)
    "interleave_equivalent",
}


def _imported_modules(path):
    """The package modules that a module of the package imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            # a relative import is one from the package
            module = (".".join(filter(None, ("geothue", node.module)))
                      if node.level else node.module or "")
            if module == "geothue":
                found.update(alias.name for alias in node.names)
            elif module.startswith("geothue."):
                found.add(module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("geothue."))
    return found


def test_the_oracle_builds_on_the_data_types_alone():
    assert _imported_modules(PACKAGE / "oracle.py") <= {"errors", "systems",
                                                        "words"}


def test_only_the_front_ends_import_the_oracle():
    importers = {path.stem for path in PACKAGE.glob("*.py")
                 if "oracle" in _imported_modules(path)}
    assert importers <= {"cli", "__init__"}


def _sources():
    yield from (path for path in sorted(PACKAGE.glob("*.py"))
                if path.name != "__init__.py")
    for folder in ("scripts", "perfbench"):
        yield from sorted((ROOT / folder).rglob("*.py"))


def _used_names(path):
    """The names that a module's code uses: its NAME tokens, so neither
    its strings nor its comments, and no name right after def."""
    tokens = tokenize.generate_tokens(
        io.StringIO(path.read_text(encoding="utf-8")).readline)
    used, previous = set(), None
    for token in tokens:
        if token.type == tokenize.NAME and previous != "def":
            used.add(token.string)
        previous = token.string
    return used


def test_every_exported_function_has_a_caller_outside_the_tests():
    used = set().union(*map(_used_names, _sources()))
    exported = {name for name, obj in vars(geothue).items()
                if not name.startswith("_") and inspect.isfunction(obj)}
    assert sorted(exported - used) == sorted(UNCALLED)
