"""Command-line front end.

Every subcommand reads the file formats of this package, prints either a
human-readable or a JSON report, and exits with 0 for a definitive
answer, 2 when a resource cap left the question undecided, and 1 for
usage or data errors.

``main`` is the one front door: it parses ``--caps``, reads every file
argument (``-`` is stdin, and a format error names the file), calls the
subcommand's handler, and writes what the handler returns, a report or
the text of a file, to stdout or ``--out``.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys
import warnings
from typing import Dict, Optional, Tuple

from . import builders, oracle
from .completion import (DEFAULT_MAX_PHASES, DEFAULT_MAX_RULES,
                         CompletionStatus, kb_complete)
from .confluence import (check_geodesically_perfect, critical_pairs,
                         geodesics_of, preperfect_wp)
from .errors import DEFAULT_MAX_NODES, FormatError, GeothueError, ResourceLimitError
from .groups import GroupIso, SubgroupEmbedding, parse_group, parse_map
from .pregroup import (check_axioms, format_pregroup, parse_pregroup,
                       universal_system, universal_system_prime)
from .rewriting import dehn_wp, reduce_lr, reduce_random, successors, thue_resolution
from .systems import format_system, parse_rule_pairs, parse_system
from .triangular import pregroup_from_system, reducing_part
from .weights import DEFAULT_BOUND, weight_assignment

OK, UNDECIDED, ERROR = 0, 2, 1

# the smallest usable value of each cap, and of each integer option
_CAP_MINIMUM = {"nodes": 1, "len": 0}
_OPTION_MINIMUM = {"bound": 1, "max_phases": 1, "max_rules": 1, "limit": 0,
                   "max_len": 0, "max_word_length": 0, "slack": 0}

# the file options of build's amalgam and stable-letter subcommands
_AMALGAM_FILES = ("group_a", "group_b", "subgroup", "map_a", "map_b")
_HNN_FILES = ("group", "subgroup_a", "subgroup_b", "map_a", "map_b", "iso")

# every file argument, by its dest, with the parser of its format, in the
# order they are read
_FILE_ARGS = {"system": parse_system, "rules": parse_rule_pairs,
              "pregroup": parse_pregroup}
_FILE_ARGS.update(dict.fromkeys(("group", "group_a", "group_b", "subgroup",
                                 "subgroup_a", "subgroup_b"), parse_group))
_FILE_ARGS.update(dict.fromkeys(("map_a", "map_b", "iso"), parse_map))


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # capped-but-clean runs
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(ERROR)


def _parse_caps(text: Optional[str]) -> Dict[str, Optional[int]]:
    caps = {"nodes": DEFAULT_MAX_NODES, "len": None}
    for part in (text or "").split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise FormatError(f"bad cap {part!r}, expected name=value")
        name, _, value = part.partition("=")
        if name not in _CAP_MINIMUM:
            raise FormatError(f"unknown cap {name!r}")
        try:
            caps[name] = int(value)
        except ValueError:
            raise FormatError(f"cap {name!r} needs an integer") from None
        if caps[name] < _CAP_MINIMUM[name]:
            raise FormatError(f"cap {name!r} must be at least "
                              f"{_CAP_MINIMUM[name]}")
    return caps


def _read(parse, path: str):
    try:
        if path == "-":
            return parse(sys.stdin.read())
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _render(report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    out = io.StringIO()
    _emit_human(report, 0, out)
    return out.getvalue()


def _emit_human(value, indent, out):
    pad = " " * indent
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                out.write(f"{pad}{k}:\n")
                _emit_human(v, indent + 2, out)
            else:
                out.write(f"{pad}{k}: {_scalar(v)}\n")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                out.write(f"{pad}-\n")
                _emit_human(item, indent + 2, out)
            else:
                out.write(f"{pad}- {_scalar(item)}\n")
    else:
        out.write(f"{pad}{_scalar(value)}\n")


def _scalar(v):
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return "[]"
    if isinstance(v, dict):
        return "{}"
    return str(v)


# --------------------------------------------------------------------------
# subcommand handlers; each gets its arguments, with every file argument
# already read, and the parsed caps, and returns (report or file text,
# exit code)

def _cmd_reduce(args, caps) -> Tuple[dict, int]:
    system = args.system
    w = system.alphabet.word(args.word)
    if args.random:
        rng = random.Random(args.seed)
        result = reduce_random(w, system, rng)
    else:
        result = reduce_lr(w, system)
    fmt = system.alphabet.format
    return {"input": fmt(w), "reduced": fmt(result),
            "lengths": [len(w), len(result)]}, OK


def _cmd_successors(args, caps) -> Tuple[dict, int]:
    system = args.system
    w = system.alphabet.word(args.word)
    fmt = system.alphabet.format
    return {"word": fmt(w),
            "successors": [fmt(v) for v in successors(w, system)]}, OK


def _cmd_resolve(args, caps) -> Tuple[str, int]:
    alphabet, pairs = args.rules
    system = thue_resolution(alphabet, pairs, symmetrize=not args.directed)
    return format_system(system), OK


def _cmd_dehn_wp(args, caps) -> Tuple[dict, int]:
    system = args.system
    w = system.alphabet.word(args.word)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trivial = dehn_wp(w, system, max_nodes=caps["nodes"])
    report = {"word": system.alphabet.format(w), "trivial": trivial}
    if caught:
        report["warnings"] = [str(c.message) for c in caught]
    return report, OK


def _cmd_weights(args, caps) -> Tuple[dict, int]:
    alphabet, pairs = args.rules
    result = weight_assignment(pairs, bound=args.bound,
                               alphabet_size=len(alphabet))
    report = result.to_dict(alphabet)
    code = UNDECIDED if result.status.value == "bound-exhausted" else OK
    return report, code


def _cmd_critical_pairs(args, caps) -> Tuple[dict, int]:
    system = args.system
    pairs = critical_pairs(system, args.same_rule_overlaps)
    shown = pairs if args.limit is None else pairs[:args.limit]
    return {"count": len(pairs),
            "pairs": [p.to_dict(system.alphabet) for p in shown]}, OK


def _cmd_check_gp(args, caps) -> Tuple[dict, int]:
    system = args.system
    verdict = check_geodesically_perfect(
        system, include_same_rule_overlaps=args.same_rule_overlaps,
        max_nodes=caps["nodes"])
    return verdict.to_dict(system.alphabet), OK


def _cmd_wp(args, caps) -> Tuple[dict, int]:
    system = args.system
    u, v = system.alphabet.word(args.u), system.alphabet.word(args.v)
    equal = preperfect_wp(u, v, system, max_nodes=caps["nodes"])
    fmt = system.alphabet.format
    return {"u": fmt(u), "v": fmt(v), "equal": equal}, OK


def _cmd_geodesics(args, caps) -> Tuple[dict, int]:
    system = args.system
    w = system.alphabet.word(args.word)
    geos = geodesics_of(w, system, max_nodes=caps["nodes"])
    fmt = system.alphabet.format
    return {"word": fmt(w),
            "geodesics": sorted(fmt(g) for g in geos),
            "length": min(len(g) for g in geos)}, OK


def _cmd_geodesic_check(args, caps) -> Tuple[dict, int]:
    system = args.system
    check = oracle.geodesic_bounded_check(system, args.max_len, args.slack,
                                          caps["nodes"])
    code = (UNDECIDED if check.status is oracle.GeodesicCheckStatus.UNDECIDED
            else OK)
    return check.to_dict(system.alphabet), code


def _cmd_complete(args, caps) -> Tuple[dict, int]:
    system = args.system
    result = kb_complete(system, max_phases=args.max_phases,
                         max_rules=args.max_rules,
                         include_same_rule_overlaps=args.same_rule_overlaps,
                         max_nodes=caps["nodes"])
    report = result.to_dict()
    if not args.certificates:
        report.pop("certificates")
    if args.emit_system:
        report["system"] = format_system(result.system)
    code = OK if result.status is CompletionStatus.COMPLETED else UNDECIDED
    return report, code


def _cmd_pregroup_check(args, caps) -> Tuple[dict, int]:
    return check_axioms(args.pregroup).to_dict(), OK


def _cmd_pregroup_to_system(args, caps) -> Tuple[str, int]:
    return format_system(universal_system(args.pregroup)), OK


def _cmd_pregroup_to_system_prime(args, caps) -> Tuple[str, int]:
    return format_system(universal_system_prime(args.pregroup)), OK


def _cmd_system_to_pregroup(args, caps) -> Tuple[str, int]:
    system = args.system
    if args.reducing_part:
        system = reducing_part(system)
    P = pregroup_from_system(system)
    return format_pregroup(P), OK


def _cmd_build_graph(args, caps) -> Tuple[str, int]:
    edges = []
    for text in args.edges or ():
        u, _, v = text.partition("-")
        if not u or not v:
            raise FormatError(f"bad edge {text!r}, expected u-v")
        edges.append((u, v))
    graph = builders.CommutationGraph(args.vertices, edges)
    return format_system(builders.build_graph_group(graph)), OK


def _cmd_build_coxeter(args, caps) -> Tuple[str, int]:
    try:
        rows = tuple(tuple(int(cell) for cell in row.split(","))
                     for row in args.matrix.split(";"))
    except ValueError:
        raise FormatError("matrix entries must be integers") from None
    M = builders.CoxeterMatrix(rows)
    system = builders.build_tits_system(M, names=args.names or None)
    return format_system(system), OK


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _use_example(args, dests) -> bool:
    """True for --example, False when every file option in dests is given."""
    given = [dest for dest in dests if getattr(args, dest) is not None]
    if args.example:
        if given:
            raise FormatError(f"--example conflicts with {_flag(given[0])}")
        return True
    if len(given) < len(dests):
        flags = " ".join(_flag(dest) for dest in dests)
        raise FormatError(f"need {flags} (or --example)")
    return False


def _amalgam_data(args) -> builders.AmalgamData:
    if _use_example(args, _AMALGAM_FILES):
        return builders.example_amalgam()
    A, B, H = args.group_a, args.group_b, args.subgroup
    embA = SubgroupEmbedding(H, A, args.map_a)
    embB = SubgroupEmbedding(H, B, args.map_b)
    return builders.AmalgamData(A, B, H, embA, embB)


def _cmd_build_amalgam(args, caps) -> Tuple[str, int]:
    data = _amalgam_data(args)
    system = builders.build_amalgam_system(data.A, data.B, data.embA, data.embB,
                                           symmetrize=not args.directed)
    return format_system(system), OK


def _cmd_build_amalgam_pregroup(args, caps) -> Tuple[str, int]:
    data = _amalgam_data(args)
    P = builders.build_amalgam_pregroup(data.A, data.B, data.embA, data.embB)
    return format_pregroup(P), OK


def _hnn_data(args) -> builders.HnnData:
    if _use_example(args, _HNN_FILES):
        return builders.example_hnn()
    G, HA, HB = args.group, args.subgroup_a, args.subgroup_b
    embA = SubgroupEmbedding(HA, G, args.map_a)
    embB = SubgroupEmbedding(HB, G, args.map_b)
    phi = GroupIso(HA, HB, args.iso)
    return builders.HnnData(G, embA, embB, phi)


def _cmd_build_hnn(args, caps) -> Tuple[str, int]:
    data = _hnn_data(args)
    program = builders.build_hnn_system(data.G, data.embA, data.embB, data.phi)
    return builders.format_rule_program(program), OK


def _cmd_build_britton(args, caps) -> Tuple[str, int]:
    data = _hnn_data(args)
    system = builders.build_britton_system(data.G, data.embA, data.embB, data.phi)
    return format_system(system), OK


def _cmd_build_hnn_pregroup(args, caps) -> Tuple[str, int]:
    data = _hnn_data(args)
    P = builders.build_hnn_pregroup(data.G, data.embA, data.embB, data.phi)
    return format_pregroup(P), OK


def _cmd_oracle_class(args, caps) -> Tuple[dict, int]:
    system = args.system
    w = system.alphabet.word(args.word)
    closure = oracle.class_closure(w, system,
                                   max_length=caps["len"],
                                   max_nodes=caps["nodes"])
    fmt = system.alphabet.format
    report = {"seed": fmt(w), "size": len(closure.members),
              "complete": closure.complete,
              "max_length": closure.max_length,
              "members": sorted((fmt(m) for m in closure.members),
                                key=lambda s: (len(s), s))}
    return report, OK if closure.complete else UNDECIDED


def _cmd_oracle_wp(args, caps) -> Tuple[dict, int]:
    system = args.system
    u, v = system.alphabet.word(args.u), system.alphabet.word(args.v)
    verdict = oracle.oracle_wp(u, v, system,
                               max_length=caps["len"],
                               max_nodes=caps["nodes"])
    fmt = system.alphabet.format
    report = {"u": fmt(u), "v": fmt(v), "verdict": verdict.value}
    return report, UNDECIDED if verdict is oracle.WpVerdict.UNKNOWN else OK


def _cmd_oracle_geodesics(args, caps) -> Tuple[dict, int]:
    system = args.system
    w = system.alphabet.word(args.word)
    geos, certified = oracle.oracle_geodesics(
        w, system, slack=args.slack,
        max_nodes=caps["nodes"])
    fmt = system.alphabet.format
    report = {"word": fmt(w), "geodesics": sorted(fmt(g) for g in geos),
              "certified": certified}
    return report, OK if certified else UNDECIDED


def _cmd_oracle_count(args, caps) -> Tuple[dict, int]:
    system = args.system
    result = oracle.enumerate_quotient(
        system, args.max_word_length,
        max_length=caps["len"],
        max_nodes=caps["nodes"])
    report = {"count": result.count, "complete": result.complete,
              "max_word_length": result.max_word_length}
    return report, OK if result.complete else UNDECIDED


# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geothue",
                     description="String rewriting for monoids and groups: "
                                 "reduction, confluence checks, completion, "
                                 "pregroups, and brute-force oracles.")
    sub = parser.add_subparsers(dest="command", required=True)
    leaves = []

    # a subcommand that runs a handler; the options every subcommand
    # shares are attached below, after its own
    def leaf(group, name, handler, *positionals, writes_file=False,
             reads_len=False, help):
        p = group.add_parser(name, help=help)
        for dest in positionals:
            p.add_argument(dest)
        leaves.append((p, handler, writes_file, reads_len))
        return p

    p = leaf(sub, "reduce", _cmd_reduce, "system", "word",
             help="leftmost reduction to an irreducible word")
    p.add_argument("--random", action="store_true",
                   help="apply random reducing steps instead")
    p.add_argument("--seed", type=int, default=0)

    leaf(sub, "successors", _cmd_successors, "system", "word",
         help="all one-step rewrites of a word")

    p = leaf(sub, "resolve", _cmd_resolve, "rules", writes_file=True,
             help="orient a rule list into a Thue system")
    p.add_argument("--directed", action="store_true",
                   help="keep length-preserving rules one-directional")

    leaf(sub, "dehn-wp", _cmd_dehn_wp, "system", "word",
         help="search reducing descendants for the empty word")

    p = leaf(sub, "weights", _cmd_weights, "rules",
             help="find or refute a strictly decreasing letter weighting")
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)

    p = leaf(sub, "critical-pairs", _cmd_critical_pairs, "system",
             help="enumerate critical pairs")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--same-rule-overlaps", action="store_true",
                   help="include shifted overlaps of a rule with itself")

    p = leaf(sub, "check-gp", _cmd_check_gp, "system",
             help="decide whether the system is geodesically perfect")
    p.add_argument("--same-rule-overlaps", action="store_true")

    leaf(sub, "wp", _cmd_wp, "system", "u", "v",
         help="word problem by descendant closures")

    leaf(sub, "geodesics", _cmd_geodesics, "system", "word",
         help="minimal words in the descendant closure")

    p = leaf(sub, "geodesic-check", _cmd_geodesic_check, "system",
             help="search short irreducible words for shorter equals")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--slack", type=int, default=None)

    p = leaf(sub, "complete", _cmd_complete, "system",
             help="phase-based completion")
    p.add_argument("--max-phases", type=int, default=DEFAULT_MAX_PHASES)
    p.add_argument("--max-rules", type=int, default=DEFAULT_MAX_RULES)
    p.add_argument("--same-rule-overlaps", action="store_true")
    p.add_argument("--certificates", action="store_true",
                   help="include one derivation chain per added rule")
    p.add_argument("--emit-system", action="store_true")

    p = sub.add_parser("pregroup", help="pregroup file operations")
    psub = p.add_subparsers(dest="subcommand", required=True)
    leaf(psub, "check", _cmd_pregroup_check, "pregroup",
         help="verify the five axioms")
    leaf(psub, "to-system", _cmd_pregroup_to_system, "pregroup",
         writes_file=True, help="rewriting system over all elements")
    leaf(psub, "to-system-prime", _cmd_pregroup_to_system_prime, "pregroup",
         writes_file=True, help="rewriting system over non-identity elements")

    p = sub.add_parser("system", help="system conversions")
    psub = p.add_subparsers(dest="subcommand", required=True)
    q = leaf(psub, "to-pregroup", _cmd_system_to_pregroup, "system",
             writes_file=True,
             help="merge letters of a two-letter system into a "
                  "partial multiplication table")
    q.add_argument("--reducing-part", action="store_true",
                   help="drop length-preserving rules first")

    p = sub.add_parser("build", help="generate example families")
    bsub = p.add_subparsers(dest="subcommand", required=True)

    q = leaf(bsub, "graph", _cmd_build_graph, writes_file=True,
             help="commutation system from a graph")
    q.add_argument("--vertices", nargs="+", required=True)
    q.add_argument("--edges", nargs="*", metavar="u-v", default=[])

    q = leaf(bsub, "coxeter", _cmd_build_coxeter, writes_file=True,
             help="braid system from a Coxeter matrix")
    q.add_argument("--matrix", required=True,
                   help="rows separated by ';', entries by ','")
    q.add_argument("--names", nargs="*", default=None)

    def file_options(q, dests, example):
        for dest in dests:
            q.add_argument(_flag(dest), default=None)
        q.add_argument("--example", action="store_true",
                       help=f"use the built-in {example} data")

    q = leaf(bsub, "amalgam", _cmd_build_amalgam, writes_file=True,
             help="system for a glued product")
    file_options(q, _AMALGAM_FILES, "Z/4 and Z/6")
    q.add_argument("--directed", action="store_true")

    q = leaf(bsub, "amalgam-pregroup", _cmd_build_amalgam_pregroup,
             writes_file=True, help="pregroup for a glued product")
    file_options(q, _AMALGAM_FILES, "Z/4 and Z/6")

    for name, handler, text in (
            ("hnn", _cmd_build_hnn, "convergent stable-letter program"),
            ("britton", _cmd_build_britton, "length-reducing pinch system"),
            ("hnn-pregroup", _cmd_build_hnn_pregroup, "stable-letter pregroup")):
        q = leaf(bsub, name, handler, writes_file=True, help=text)
        file_options(q, _HNN_FILES, "S_3")

    p = sub.add_parser("oracle", help="bounded brute-force searches")
    osub = p.add_subparsers(dest="subcommand", required=True)
    leaf(osub, "class", _cmd_oracle_class, "system", "word", reads_len=True,
         help="bounded equivalence class closure")
    leaf(osub, "wp", _cmd_oracle_wp, "system", "u", "v", reads_len=True,
         help="word problem by class closure")
    q = leaf(osub, "geodesics", _cmd_oracle_geodesics, "system", "word",
             help="minimal closure members")
    q.add_argument("--slack", type=int, default=None)
    q = leaf(osub, "count", _cmd_oracle_count, "system", reads_len=True,
             help="count short-word classes")
    q.add_argument("--max-word-length", type=int, required=True)

    for p, handler, writes_file, reads_len in leaves:
        if writes_file:
            p.add_argument("--out", "-o", default=None)
        p.add_argument("--format", choices=("human", "json"), default="human")
        p.add_argument("--caps", metavar="nodes=N,len=L", default=None,
                       help="search caps")
        p.set_defaults(handler=handler, reads_len=reads_len)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # caps are validated up front even for commands that ignore them
        caps = _parse_caps(args.caps)
        if caps["len"] is not None and not args.reads_len:
            raise FormatError("cap 'len' is not read by this subcommand, "
                              "only by oracle class, wp and count")
        for dest, minimum in _OPTION_MINIMUM.items():
            value = getattr(args, dest, None)
            if value is not None and value < minimum:
                raise FormatError(f"{_flag(dest)} must be at least {minimum}")
        for dest, parse in _FILE_ARGS.items():
            path = getattr(args, dest, None)
            if path is not None:
                setattr(args, dest, _read(parse, path))
        result, code = args.handler(args, caps)
        if isinstance(result, str):  # the text of a file
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(result)
                result = {"written": args.out}
            elif args.format == "json":
                result = {"file": result}
        if not isinstance(result, str):
            result = _render(result, args.format)
        sys.stdout.write(result)
        sys.stdout.flush()
    except ResourceLimitError as exc:
        sys.stderr.write(f"geothue: capped: {exc}\n")
        return UNDECIDED
    except (GeothueError, OSError) as exc:
        sys.stderr.write(f"geothue: error: {exc}\n")
        return ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
