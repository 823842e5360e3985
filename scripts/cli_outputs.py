"""Print a digest of the CLI's answers on the bundled fixtures, one line per
invocation, so two source trees can be compared byte for byte.

Covers check-gp on every .rws fixture and on the universal systems of
both .pg fixtures, check-gp with --same-rule-overlaps on every .rws
fixture and on the universal systems of amalgam_z4z6.pg, check-gp in
both overlap modes under a node cap that some preserving class exceeds
though no pair needs it, on a system whose descendant counts summed over
children exceed its closures' sizes at caps of 2 to 5 nodes (below and
above the least cap that holds), on both universal systems of
amalgam_z4z6.pg at caps just below and at the least that lets the check
take the normal forms of sides of 1, 2 and 3 letters, on both universal
systems of hnn_s3.pg at a cap of 50000 nodes, under which every side of
3 letters is decided by its signature, and on a copy of each failing
.rws fixture with its rule lines in reverse order (so the witness is
pinned to the order of the pairs whatever order the check walks them
in), 6- and 12-phase completion with certificates (and 16-phase on
z2_graph and geoper_S, and 3-phase on the graph groups of a path and a
square, built by build graph), 6-phase completion with certificates and
--same-rule-overlaps on every .rws fixture, completion under node caps
that one target search meets and one it exceeds, critical pairs with and
without --same-rule-overlaps, seeded samples of wp, geodesics, dehn-wp
and reduce queries, and one long reduce word per fixture, all at default
caps and in JSON; then at least one run of every subcommand in JSON and
in the human format, the build subcommands from the fixture group and
map files and from --example, malformed input files (an unknown
directive in every format; a misshapen line and a conflicting entry in
every format; a repeated letter and a rule with equal sides in a system;
a repeated and a missing single line in a pregroup and a group; pregroup
elements "." and "->" and a group element "->", which cannot be
letters), unusable and unread caps, integer options below their
minimum, a wrong number of names for build coxeter, --example with a
file option, letter names with "#" for build coxeter and build graph, a
closed stdout, and --help for every subcommand.  Each line is the
sha256 of exit code, stdout, stderr and any file written, followed by
the command.

    python scripts/cli_outputs.py > new.txt
    python scripts/cli_outputs.py --src ../other/src > old.txt
    diff old.txt new.txt
"""

import argparse
import hashlib
import os
import pathlib
import random
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
SAMPLES = 4      # words per fixture and query kind
MAX_LEN = 6
LONG_LEN = 2000  # letters of the long reduce word


def _names(path: pathlib.Path, directive: str = "alphabet"):
    for line in path.read_text(encoding="utf-8").splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens and tokens[0] == directive:
            return tokens[1:]
    raise SystemExit(f"{path}: no {directive} line")


def _side_caps(k: int):
    """The node caps just below and at the least cap, 1 + k + ... + k^n,
    at which check-gp takes the normal forms of sides of n = 1, 2 and 3
    letters over k letters."""
    caps, total = [], 1
    for n in range(1, 4):
        total += k ** n
        caps += [total - 1, total]
    return caps


def _word(rng: random.Random, names, n=None) -> str:
    n = rng.randint(1, MAX_LEN) if n is None else n
    return " ".join(rng.choice(names) for _ in range(n))


def _fixture(name: str) -> str:
    return str(FIXTURES / name)


# the subcommands, by their words on the command line
SUBCOMMANDS = (
    ("reduce",), ("successors",), ("resolve",), ("dehn-wp",), ("weights",),
    ("critical-pairs",), ("check-gp",), ("wp",), ("geodesics",),
    ("geodesic-check",), ("complete",), ("pregroup", "check"),
    ("pregroup", "to-system"), ("pregroup", "to-system-prime"),
    ("system", "to-pregroup"), ("build", "graph"), ("build", "coxeter"),
    ("build", "amalgam"), ("build", "amalgam-pregroup"), ("build", "hnn"),
    ("build", "britton"), ("build", "hnn-pregroup"), ("oracle", "class"),
    ("oracle", "wp"), ("oracle", "geodesics"), ("oracle", "count"),
)

AMALGAM_FILES = ["--group-a", _fixture("z4.grp"), "--group-b", _fixture("z6.grp"),
                 "--subgroup", _fixture("z2h.grp"),
                 "--map-a", _fixture("amalgam_a.map"),
                 "--map-b", _fixture("amalgam_b.map")]
HNN_FILES = ["--group", _fixture("s3.grp"), "--subgroup-a", _fixture("z2h.grp"),
             "--subgroup-b", _fixture("z2h.grp"),
             "--map-a", _fixture("hnn_emb.map"), "--map-b", _fixture("hnn_emb.map"),
             "--iso", _fixture("hnn_phi.map")]


def each_subcommand(tmp: pathlib.Path):
    """At least one run of every subcommand, without --format."""
    rules = _fixture("z2_convergent.rules")
    tits, gpex = _fixture("tits_d3.rws"), _fixture("gpex.rws")
    yield ["reduce", tits, "a b a b"]
    yield ["successors", tits, "a b a b"]
    yield ["resolve", rules]
    yield ["resolve", rules, "--directed", "--out", str(tmp / "resolved.rws")]
    yield ["dehn-wp", _fixture("z2z2.rws"), "a b b a"]
    yield ["weights", rules]
    yield ["critical-pairs", tits, "--limit", "2", "--same-rule-overlaps"]
    yield ["check-gp", gpex, "--same-rule-overlaps"]
    yield ["wp", gpex, "d f c", "f d c"]
    yield ["geodesics", tits, "a b a b"]
    yield ["geodesic-check", _fixture("geoper_T.rws"), "--max-len", "4"]
    yield ["geodesic-check", _fixture("z2_graph.rws"), "--max-len", "3",
           "--caps", "nodes=3"]
    yield ["complete", _fixture("z2z2_group.rws"), "--emit-system"]
    yield ["complete", _fixture("z2_graph.rws"), "--max-phases", "2",
           "--caps", "nodes=1"]
    for pg in sorted(FIXTURES.glob("*.pg")):
        yield ["pregroup", "check", str(pg)]
    yield ["pregroup", "to-system", _fixture("amalgam_z4z6.pg")]
    yield ["pregroup", "to-system-prime", _fixture("amalgam_z4z6.pg")]
    prime = str(tmp / "amalgam_z4z6.to-system-prime.rws")
    yield ["system", "to-pregroup", prime, "--reducing-part"]
    yield ["system", "to-pregroup", prime]
    yield ["system", "to-pregroup", _fixture("z2z2.rws")]
    yield ["build", "graph", "--vertices", "a", "b", "c", "--edges", "a-b", "b-c"]
    yield ["build", "coxeter", "--matrix", "1,3;3,1"]
    yield ["build", "coxeter", "--matrix", "1,2;2,1", "--names", "x", "y"]
    yield ["build", "coxeter", "--matrix", "1,3;3,1", "--names", "a", "b", "c"]
    yield ["build", "coxeter", "--matrix", "1,3;3,1", "--names", "a"]
    for name in ("amalgam", "amalgam-pregroup"):
        yield ["build", name, *AMALGAM_FILES]
        yield ["build", name, "--example"]
    yield ["build", "amalgam", *AMALGAM_FILES, "--directed"]
    yield ["build", "amalgam", "--example", "--directed",
           "--out", str(tmp / "amalgam.rws")]
    for name in ("hnn", "britton", "hnn-pregroup"):
        yield ["build", name, *HNN_FILES]
        yield ["build", name, "--example"]
    yield ["oracle", "class", tits, "a b"]
    yield ["oracle", "wp", gpex, "d f c", "f d c"]
    yield ["oracle", "geodesics", tits, "a b a b"]
    yield ["oracle", "count", tits, "--max-word-length", "5"]


CAPPED_GP = "alphabet a b\nrule a b a -> a b\nrule a b <-> b a\nrule a -> .\n"
# d d d has four reducing descendants, but a sum over its children, which
# share d, counts six
OVERCOUNTED_GP = "alphabet a b c d\nrule d d d -> d\nrule a -> .\nrule d -> .\n"

# the .rws fixtures that fail check-gp in at least one overlap mode
FAILING_GP = ("geoper_S", "gpex", "tits_d3", "z2_graph", "z2z2_group")


def _reversed_rules(text: str) -> str:
    """A system file with its rule lines in reverse order, every other
    line in its place."""
    lines = text.splitlines(keepends=True)
    at = [i for i, line in enumerate(lines)
          if line.split("#", 1)[0].split()[:1] == ["rule"]]
    for i, line in zip(at, [lines[j] for j in reversed(at)]):
        lines[i] = line
    return "".join(lines)

MALFORMED = "# the second line is not a directive\nbogus directive\n"

# more malformed files, by suffix: a misshapen line and a conflicting
# entry in every format, a repeated letter and a rule with equal sides
# in a system, a repeated and a missing single line in a pregroup and a
# group, two pregroup elements and a group element that cannot be letters
Z2_GROUP = "elements 1 h\nmult 1 1 = 1\nmult 1 h = h\nmult h 1 = h\nmult h h = 1\n"
MALFORMED_MORE = {
    "rws": {"misshapen": "alphabet a A\ninverse a\nrule a A -> .\n",
            "conflicting": "alphabet a b c\ninverse a b\ninverse a c\n",
            "repeated-letter": "alphabet a\nalphabet a\nrule a a -> .\n",
            "equal-sides": "alphabet a b\nrule a b <-> a b\n"},
    "rules": {"misshapen": "alphabet x\ninverse x\nrule x x -> .\n",
              "conflicting": "alphabet x y\ninverse x x\ninverse x y\n"
                             "rule x x -> .\n"},
    "pg": {"misshapen": "elements 1 a\neps 1\ninv a a\nmult a a 1\n",
           "conflicting": "elements 1 a\neps 1\ninv a a\nmult a a = 1\n"
                          "mult a a = a\n",
           "repeated": "elements e a\neps e\neps a\ninv e e\n",
           "missing": "elements 1 a\ninv a a\n",
           "not-a-letter": "elements 1 .\neps 1\ninv . .\n",
           "arrow-element": "elements 1 -> b\neps 1\ninv -> ->\ninv b b\n"},
    "grp": {"misshapen": "identity\n" + Z2_GROUP,
            "conflicting": "identity 1\n" + Z2_GROUP + "mult h h = h\n",
            "repeated": "identity 1\nidentity h\n" + Z2_GROUP,
            "missing": Z2_GROUP,
            "arrow-element": (FIXTURES / "z6.grp").read_text(
                encoding="utf-8").replace(" s5", " ->")},
    "map": {"misshapen": "map 1 1\n",
            "conflicting": "map 1 -> 1\nmap 1 -> r2\n"},
}


def error_cases(tmp: pathlib.Path):
    """Malformed input files, unusable or unread caps, integer options
    below their minimum, and --example together with a file option."""
    bad = {}
    for suffix in ("pg", "grp", "map", "rules", "rws"):
        bad[suffix] = [tmp / f"bad.{suffix}"]
        bad[suffix][0].write_text(MALFORMED, encoding="utf-8")
        for case, text in MALFORMED_MORE[suffix].items():
            bad[suffix].append(tmp / f"{case}.{suffix}")
            bad[suffix][-1].write_text(text, encoding="utf-8")
    for path in bad["rws"]:
        yield ["check-gp", str(path)]
    for path in bad["pg"]:
        yield ["pregroup", "check", str(path)]
    yield ["weights", str(bad["rules"][0])]
    for path in bad["rules"]:
        yield ["resolve", str(path)]
    for option, suffix in (("--group-b", "grp"), ("--map-b", "map")):
        for path in bad[suffix]:
            files = list(AMALGAM_FILES)
            files[files.index(option) + 1] = str(path)
            yield ["build", "amalgam", *files]
    free = _fixture("free_ab.rws")
    yield ["check-gp", free, "--caps", "nodes=0"]
    yield ["wp", free, "a", "a", "--caps", "nodes=-3"]
    yield ["oracle", "class", free, "a", "--caps", "len=-1"]
    yield ["reduce", free, "a", "--caps", "bogus=3"]
    yield ["wp", free, "a b", "a b", "--caps", "len=0"]
    yield ["oracle", "geodesics", free, "a", "--caps", "len=2"]
    tits = _fixture("tits_d3.rws")
    yield ["weights", _fixture("z2_convergent.rules"), "--bound", "0"]
    yield ["critical-pairs", tits, "--limit", "-1"]
    yield ["geodesic-check", tits, "--max-len", "-2"]
    yield ["geodesic-check", tits, "--max-len", "2", "--slack", "-1"]
    yield ["complete", _fixture("z2_graph.rws"), "--max-phases", "0"]
    yield ["complete", _fixture("z2_graph.rws"), "--max-rules", "0"]
    yield ["complete", _fixture("z2_graph.rws"), "--max-rules", "-5"]
    yield ["oracle", "count", tits, "--max-word-length", "-1"]
    yield ["oracle", "geodesics", tits, "a", "--slack", "-1"]
    yield ["build", "amalgam", "--group-a", _fixture("z4.grp")]
    yield ["build", "amalgam", "--example", "--group-a", _fixture("z4.grp")]
    yield ["build", "hnn", "--example", "--iso", _fixture("hnn_phi.map")]
    # "#" would start a comment in the written system
    yield ["build", "coxeter", "--matrix", "1,3;3,1", "--names", "a#", "b"]
    yield ["build", "graph", "--vertices", "x#", "y", "--edges", "x#-y"]


def invocations(tmp: pathlib.Path, seed: int):
    rws = sorted(FIXTURES.glob("*.rws"))
    systems = list(rws)
    for pg in sorted(FIXTURES.glob("*.pg")):
        for sub in ("to-system", "to-system-prime"):
            out = tmp / f"{pg.stem}.{sub}.rws"
            yield ["pregroup", sub, str(pg), "--out", str(out)]
            systems.append(out)
    for path in systems:
        yield ["check-gp", str(path), "--format", "json"]
    # over hnn_s3's 42 and 41 letters, 1 + k + k^2 + k^3 words exceed a
    # budget of 50000, so every side of three letters goes to the
    # signatures
    for sub in ("to-system", "to-system-prime"):
        yield ["check-gp", str(tmp / f"hnn_s3.{sub}.rws"), "--caps",
               "nodes=50000", "--format", "json"]
    # the classical enumeration; hnn_s3's systems take about 12 s
    for path in rws + [s for s in systems if s.name.startswith("amalgam_z4z6.")]:
        yield ["check-gp", str(path), "--same-rule-overlaps", "--format", "json"]
    # every pair is decided before a preserving class over the budget,
    # which some side's descendant has, is needed
    capped = tmp / "capped.rws"
    capped.write_text(CAPPED_GP, encoding="utf-8")
    for mode in ([], ["--same-rule-overlaps"]):
        yield ["check-gp", str(capped), *mode, "--caps", "nodes=5",
               "--format", "json"]
    overcounted = tmp / "overcounted.rws"
    overcounted.write_text(OVERCOUNTED_GP, encoding="utf-8")
    for mode in ([], ["--same-rule-overlaps"]):
        for nodes in range(2, 6):
            yield ["check-gp", str(overcounted), *mode, "--caps",
                   f"nodes={nodes}", "--format", "json"]
    # the universal systems have one letter per element, the primed ones
    # one fewer
    k = len(_names(FIXTURES / "amalgam_z4z6.pg", "elements"))
    for sub, letters in (("to-system", k), ("to-system-prime", k - 1)):
        path = tmp / f"amalgam_z4z6.{sub}.rws"
        for mode in ([], ["--same-rule-overlaps"]):
            for nodes in _side_caps(letters):
                yield ["check-gp", str(path), *mode, "--caps",
                       f"nodes={nodes}", "--format", "json"]
    for name in FAILING_GP:
        flipped = tmp / f"{name}.reversed.rws"
        flipped.write_text(_reversed_rules(
            (FIXTURES / f"{name}.rws").read_text(encoding="utf-8")),
            encoding="utf-8")
        for mode in ([], ["--same-rule-overlaps"]):
            yield ["check-gp", str(flipped), *mode, "--format", "json"]
    for path in rws:
        for phases in ("6", "12"):
            yield ["complete", str(path), "--certificates", "--format", "json",
                   "--max-phases", phases]
        yield ["complete", str(path), "--same-rule-overlaps", "--certificates",
               "--format", "json", "--max-phases", "6"]
        yield ["critical-pairs", str(path), "--format", "json"]
        yield ["critical-pairs", str(path), "--same-rule-overlaps", "--format", "json"]
    for name in ("z2_graph.rws", "geoper_S.rws"):
        yield ["complete", _fixture(name), "--certificates", "--format", "json",
               "--max-phases", "16"]
    # graph groups whose phases add only reducing rules, as z2_graph's do
    for name, vertices, edges in (("path", "a b c", "a-b b-c"),
                                  ("square", "a b c d", "a-b b-c c-d d-a")):
        out = tmp / f"{name}.rws"
        yield ["build", "graph", "--vertices", *vertices.split(),
               "--edges", *edges.split(), "--out", str(out)]
        yield ["complete", str(out), "--certificates", "--format", "json",
               "--max-phases", "3"]
    # each sp_equivalent target of geoper_T is the first word its search
    # reaches; some search of z2_graph needs a third word
    for name, nodes in (("geoper_T.rws", "1"), ("z2_graph.rws", "2")):
        yield ["complete", _fixture(name), "--max-phases", "6", "--caps",
               f"nodes={nodes}", "--certificates", "--format", "json"]
    rng = random.Random(seed)
    for path in rws:
        names = _names(path)
        for _ in range(SAMPLES):
            yield ["wp", str(path), _word(rng, names), _word(rng, names),
                   "--format", "json"]
            yield ["geodesics", str(path), _word(rng, names), "--format", "json"]
            yield ["dehn-wp", str(path), _word(rng, names), "--format", "json"]
            yield ["reduce", str(path), _word(rng, names), "--format", "json"]
        yield ["reduce", str(path), _word(rng, names, LONG_LEN), "--format", "json"]
    for cmd in each_subcommand(tmp):
        yield cmd
        if "--out" not in cmd:
            yield cmd + ["--format", "json"]
    yield from error_cases(tmp)
    yield ["--help"]
    for words in sorted({words[:1] for words in SUBCOMMANDS if len(words) == 2}):
        yield [*words, "--help"]
    for words in SUBCOMMANDS:
        yield [*words, "--help"]


def run(cmd, env, closed_stdout=False):
    """(exit code, stdout, stderr) of one CLI run."""
    argv = [sys.executable, "-c",
            "import sys; from geothue.cli import main; sys.exit(main())", *cmd]
    if not closed_stdout:
        done = subprocess.run(argv, env=env, capture_output=True)
        return done.returncode, done.stdout, done.stderr
    # the reader is gone before the CLI writes its first byte
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(), b"", err


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=pathlib.Path, default=ROOT / "src",
                        help="source tree whose geothue package is run")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    # help text wraps at the terminal width
    env = dict(os.environ, PYTHONPATH=str(args.src.resolve()), COLUMNS="80")
    closed = ["critical-pairs", _fixture("z2_graph.rws"), "--format", "json"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        runs = [(cmd, False) for cmd in invocations(tmp, args.seed)]
        for cmd, closed_stdout in runs + [(closed, True)]:
            code, out, err = run(cmd, env, closed_stdout)
            written = b""
            if "--out" in cmd and code == 0:
                written = pathlib.Path(cmd[cmd.index("--out") + 1]).read_bytes()
            here = str(tmp).encode()
            digest = hashlib.sha256(b"%d\0%s\0%s\0%s" % (
                code, out.replace(here, b"$TMP"), err.replace(here, b"$TMP"),
                written))
            shown = " ".join(
                c.replace(str(tmp), "$TMP").replace(str(ROOT) + "/", "")
                if len(c) <= 80 else f"<{len(c.split())} letters>" for c in cmd)
            if closed_stdout:
                shown += " | <closed>"
            print(digest.hexdigest()[:16], code, shown, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
