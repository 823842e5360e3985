"""Command-line front end.

Every subcommand reads the file formats of this package, prints either a
human-readable or a JSON report, and exits with 0 for a definitive
answer, 2 when a resource cap left the question undecided, and 1 for
usage or data errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import warnings
from typing import Dict, Optional, Tuple

from . import builders, oracle
from .completion import CompletionStatus, kb_complete
from .confluence import (GeodesicCheckStatus, check_geodesically_perfect,
                         critical_pairs, geodesic_bounded_check, geodesics_of,
                         preperfect_wp)
from .errors import FormatError, GeothueError, ResourceLimitError
from .groups import GroupIso, SubgroupEmbedding, load_group, load_map
from .pregroup import (check_axioms, load_pregroup, format_pregroup,
                       universal_system, universal_system_prime)
from .rewriting import dehn_wp, reduce_lr, reduce_random, successors, thue_resolution
from .systems import (RewriteSystem, format_system, load_system,
                      parse_rule_pairs, parse_system)
from .triangular import pregroup_from_system, reducing_part
from .weights import DEFAULT_BOUND, weight_assignment
from .words import Word

OK, UNDECIDED, ERROR = 0, 2, 1


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for
    # capped-but-clean runs
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(ERROR)


def _parse_caps(text: Optional[str]) -> Dict[str, int]:
    out: Dict[str, int] = {}
    if not text:
        return out
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise FormatError(f"bad cap {part!r}, expected name=value")
        name, _, value = part.partition("=")
        if name not in ("nodes", "len"):
            raise FormatError(f"unknown cap {name!r}")
        try:
            out[name] = int(value)
        except ValueError:
            raise FormatError(f"cap {name!r} needs an integer") from None
    return out


def _emit(report, fmt: str, out=None):
    out = out if out is not None else sys.stdout
    if fmt == "json":
        json.dump(report, out, indent=2)
        out.write("\n")
        return
    _emit_human(report, 0, out)


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


def _emit_text(text: str, fmt: str, args):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        _emit({"written": args.out}, fmt)
        return
    if fmt == "json":
        _emit({"file": text}, fmt)
    else:
        sys.stdout.write(text)


def _load(path: str) -> RewriteSystem:
    try:
        if str(path) == "-":
            return parse_system(sys.stdin.read())
        return load_system(path)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _word(system: RewriteSystem, text: str) -> Word:
    return system.alphabet.word(text)


# --------------------------------------------------------------------------
# subcommand handlers; each returns (report, exit_code)

def _cmd_reduce(args) -> Tuple[dict, int]:
    system = _load(args.system)
    w = _word(system, args.word)
    if args.random:
        rng = random.Random(args.seed)
        result = reduce_random(w, system, rng)
    else:
        result = reduce_lr(w, system)
    fmt = system.alphabet.format
    return {"input": fmt(w), "reduced": fmt(result),
            "lengths": [len(w), len(result)]}, OK


def _cmd_successors(args) -> Tuple[dict, int]:
    system = _load(args.system)
    w = _word(system, args.word)
    fmt = system.alphabet.format
    return {"word": fmt(w),
            "successors": [fmt(v) for v in successors(w, system)]}, OK


def _cmd_resolve(args) -> Tuple[Optional[dict], int]:
    with open(args.rules, "r", encoding="utf-8") as fh:
        alphabet, pairs = parse_rule_pairs(fh.read())
    system = thue_resolution(alphabet, pairs, symmetrize=not args.directed)
    _emit_text(format_system(system), args.format, args)
    return None, OK


def _cmd_dehn_wp(args) -> Tuple[dict, int]:
    system = _load(args.system)
    caps = _parse_caps(args.caps)
    w = _word(system, args.word)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trivial = dehn_wp(w, system, max_nodes=caps.get("nodes", 10 ** 6))
    report = {"word": system.alphabet.format(w), "trivial": trivial}
    if caught:
        report["warnings"] = [str(c.message) for c in caught]
    return report, OK


def _cmd_weights(args) -> Tuple[dict, int]:
    with open(args.rules, "r", encoding="utf-8") as fh:
        alphabet, pairs = parse_rule_pairs(fh.read())
    result = weight_assignment(pairs, bound=args.bound,
                               alphabet_size=len(alphabet))
    report = result.to_dict(alphabet)
    code = UNDECIDED if result.status.value == "bound-exhausted" else OK
    return report, code


def _cmd_critical_pairs(args) -> Tuple[dict, int]:
    system = _load(args.system)
    pairs = critical_pairs(system, args.same_rule_overlaps)
    shown = pairs if args.limit is None else pairs[:args.limit]
    return {"count": len(pairs),
            "pairs": [p.to_dict(system.alphabet) for p in shown]}, OK


def _cmd_check_gp(args) -> Tuple[dict, int]:
    system = _load(args.system)
    caps = _parse_caps(args.caps)
    verdict = check_geodesically_perfect(
        system, include_same_rule_overlaps=args.same_rule_overlaps,
        max_nodes=caps.get("nodes", 10 ** 6))
    return verdict.to_dict(system.alphabet), OK


def _cmd_wp(args) -> Tuple[dict, int]:
    system = _load(args.system)
    caps = _parse_caps(args.caps)
    u, v = _word(system, args.u), _word(system, args.v)
    equal = preperfect_wp(u, v, system, max_nodes=caps.get("nodes", 10 ** 6))
    fmt = system.alphabet.format
    return {"u": fmt(u), "v": fmt(v), "equal": equal}, OK


def _cmd_geodesics(args) -> Tuple[dict, int]:
    system = _load(args.system)
    caps = _parse_caps(args.caps)
    w = _word(system, args.word)
    geos = geodesics_of(w, system, max_nodes=caps.get("nodes", 10 ** 6))
    fmt = system.alphabet.format
    return {"word": fmt(w),
            "geodesics": sorted(fmt(g) for g in geos),
            "length": min(len(g) for g in geos)}, OK


def _cmd_geodesic_check(args) -> Tuple[dict, int]:
    system = _load(args.system)
    caps = _parse_caps(args.caps)
    check = geodesic_bounded_check(system, args.max_len, slack=args.slack,
                                   max_nodes=caps.get("nodes", 10 ** 6))
    code = UNDECIDED if check.status is GeodesicCheckStatus.UNDECIDED else OK
    return check.to_dict(system.alphabet), code


def _cmd_complete(args) -> Tuple[dict, int]:
    system = _load(args.system)
    caps = _parse_caps(args.caps)
    result = kb_complete(system, max_phases=args.max_phases,
                         max_rules=args.max_rules,
                         include_same_rule_overlaps=args.same_rule_overlaps,
                         max_nodes=caps.get("nodes", 10 ** 6))
    report = result.to_dict()
    if not args.certificates:
        report.pop("certificates")
    if args.emit_system:
        report["system"] = format_system(result.system)
    code = OK if result.status is CompletionStatus.COMPLETED else UNDECIDED
    return report, code


def _cmd_pregroup_check(args) -> Tuple[dict, int]:
    P = load_pregroup(args.pregroup)
    return check_axioms(P).to_dict(), OK


def _cmd_pregroup_to_system(args) -> Tuple[Optional[dict], int]:
    P = load_pregroup(args.pregroup)
    _emit_text(format_system(universal_system(P)), args.format, args)
    return None, OK


def _cmd_pregroup_to_system_prime(args) -> Tuple[Optional[dict], int]:
    P = load_pregroup(args.pregroup)
    _emit_text(format_system(universal_system_prime(P)), args.format, args)
    return None, OK


def _cmd_system_to_pregroup(args) -> Tuple[Optional[dict], int]:
    system = _load(args.system)
    if args.reducing_part:
        system = reducing_part(system)
    P = pregroup_from_system(system)
    _emit_text(format_pregroup(P), args.format, args)
    return None, OK


def _cmd_build_graph(args) -> Tuple[Optional[dict], int]:
    edges = []
    for text in args.edges or ():
        u, _, v = text.partition("-")
        if not u or not v:
            raise FormatError(f"bad edge {text!r}, expected u-v")
        edges.append((u, v))
    graph = builders.CommutationGraph(args.vertices, edges)
    _emit_text(format_system(builders.build_graph_group(graph)),
               args.format, args)
    return None, OK


def _cmd_build_coxeter(args) -> Tuple[Optional[dict], int]:
    try:
        rows = tuple(tuple(int(cell) for cell in row.split(","))
                     for row in args.matrix.split(";"))
    except ValueError:
        raise FormatError("matrix entries must be integers") from None
    M = builders.CoxeterMatrix(rows)
    system = builders.build_tits_system(M, names=args.names or None)
    _emit_text(format_system(system), args.format, args)
    return None, OK


def _amalgam_data(args) -> builders.AmalgamData:
    if args.example:
        return builders.example_amalgam()
    needed = (args.group_a, args.group_b, args.subgroup, args.map_a, args.map_b)
    if any(p is None for p in needed):
        raise FormatError("need --group-a --group-b --subgroup --map-a --map-b "
                          "(or --example)")
    A, B, H = load_group(args.group_a), load_group(args.group_b), \
        load_group(args.subgroup)
    embA = SubgroupEmbedding(H, A, load_map(args.map_a))
    embB = SubgroupEmbedding(H, B, load_map(args.map_b))
    return builders.AmalgamData(A, B, H, embA, embB)


def _cmd_build_amalgam(args) -> Tuple[Optional[dict], int]:
    data = _amalgam_data(args)
    system = builders.build_amalgam_system(data.A, data.B, data.embA, data.embB,
                                           symmetrize=not args.directed)
    _emit_text(format_system(system), args.format, args)
    return None, OK


def _cmd_build_amalgam_pregroup(args) -> Tuple[Optional[dict], int]:
    data = _amalgam_data(args)
    P = builders.build_amalgam_pregroup(data.A, data.B, data.embA, data.embB)
    _emit_text(format_pregroup(P), args.format, args)
    return None, OK


def _hnn_data(args) -> builders.HnnData:
    if args.example:
        return builders.example_hnn()
    needed = (args.group, args.subgroup_a, args.subgroup_b,
              args.map_a, args.map_b, args.iso)
    if any(p is None for p in needed):
        raise FormatError("need --group --subgroup-a --subgroup-b --map-a "
                          "--map-b --iso (or --example)")
    G = load_group(args.group)
    HA, HB = load_group(args.subgroup_a), load_group(args.subgroup_b)
    embA = SubgroupEmbedding(HA, G, load_map(args.map_a))
    embB = SubgroupEmbedding(HB, G, load_map(args.map_b))
    phi = GroupIso(HA, HB, load_map(args.iso))
    return builders.HnnData(G, HA, embA, embB, phi)


def _cmd_build_hnn(args) -> Tuple[Optional[dict], int]:
    data = _hnn_data(args)
    program = builders.build_hnn_system(data.G, data.embA, data.embB, data.phi)
    _emit_text(builders.format_rule_program(program), args.format, args)
    return None, OK


def _cmd_build_britton(args) -> Tuple[Optional[dict], int]:
    data = _hnn_data(args)
    system = builders.build_britton_system(data.G, data.embA, data.embB, data.phi)
    _emit_text(format_system(system), args.format, args)
    return None, OK


def _cmd_build_hnn_pregroup(args) -> Tuple[Optional[dict], int]:
    data = _hnn_data(args)
    P = builders.build_hnn_pregroup(data.G, data.embA, data.embB, data.phi)
    _emit_text(format_pregroup(P), args.format, args)
    return None, OK


def _cmd_oracle_class(args) -> Tuple[dict, int]:
    system = _load(args.system)
    caps = _parse_caps(args.caps)
    w = _word(system, args.word)
    closure = oracle.class_closure(w, system,
                                   max_length=caps.get("len"),
                                   max_nodes=caps.get("nodes",
                                                      oracle.DEFAULT_MAX_NODES))
    fmt = system.alphabet.format
    report = {"seed": fmt(w), "size": len(closure.members),
              "complete": closure.complete,
              "max_length": closure.max_length,
              "members": sorted((fmt(m) for m in closure.members),
                                key=lambda s: (len(s), s))}
    return report, OK if closure.complete else UNDECIDED


def _cmd_oracle_wp(args) -> Tuple[dict, int]:
    system = _load(args.system)
    caps = _parse_caps(args.caps)
    u, v = _word(system, args.u), _word(system, args.v)
    verdict = oracle.oracle_wp(u, v, system,
                               max_length=caps.get("len"),
                               max_nodes=caps.get("nodes",
                                                  oracle.DEFAULT_MAX_NODES))
    fmt = system.alphabet.format
    report = {"u": fmt(u), "v": fmt(v), "verdict": verdict.value}
    return report, UNDECIDED if verdict is oracle.WpVerdict.UNKNOWN else OK


def _cmd_oracle_geodesics(args) -> Tuple[dict, int]:
    system = _load(args.system)
    caps = _parse_caps(args.caps)
    w = _word(system, args.word)
    geos, certified = oracle.oracle_geodesics(
        w, system, slack=args.slack,
        max_nodes=caps.get("nodes", oracle.DEFAULT_MAX_NODES))
    fmt = system.alphabet.format
    report = {"word": fmt(w), "geodesics": sorted(fmt(g) for g in geos),
              "certified": certified}
    return report, OK if certified else UNDECIDED


def _cmd_oracle_count(args) -> Tuple[dict, int]:
    system = _load(args.system)
    caps = _parse_caps(args.caps)
    result = oracle.enumerate_quotient(
        system, args.max_word_length,
        max_length=caps.get("len"),
        max_nodes=caps.get("nodes", oracle.DEFAULT_MAX_NODES))
    report = {"count": result.count, "complete": result.complete,
              "max_word_length": result.max_word_length}
    return report, OK if result.complete else UNDECIDED


# --------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.add_argument("--caps", metavar="nodes=N,len=L", default=None,
                   help="search caps")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geothue",
                     description="String rewriting for monoids and groups: "
                                 "reduction, confluence checks, completion, "
                                 "pregroups, and brute-force oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="leftmost reduction to an irreducible word")
    p.add_argument("system")
    p.add_argument("word")
    p.add_argument("--random", action="store_true",
                   help="apply random reducing steps instead")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("successors", help="all one-step rewrites of a word")
    p.add_argument("system")
    p.add_argument("word")
    _add_common(p)
    p.set_defaults(handler=_cmd_successors)

    p = sub.add_parser("resolve",
                       help="orient a rule list into a Thue system")
    p.add_argument("rules")
    p.add_argument("--directed", action="store_true",
                   help="keep length-preserving rules one-directional")
    p.add_argument("--out", "-o", default=None)
    _add_common(p)
    p.set_defaults(handler=_cmd_resolve)

    p = sub.add_parser("dehn-wp",
                       help="search reducing descendants for the empty word")
    p.add_argument("system")
    p.add_argument("word")
    _add_common(p)
    p.set_defaults(handler=_cmd_dehn_wp)

    p = sub.add_parser("weights",
                       help="find or refute a strictly decreasing letter weighting")
    p.add_argument("rules")
    p.add_argument("--bound", type=int, default=DEFAULT_BOUND)
    _add_common(p)
    p.set_defaults(handler=_cmd_weights)

    p = sub.add_parser("critical-pairs", help="enumerate critical pairs")
    p.add_argument("system")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--same-rule-overlaps", action="store_true",
                   help="include shifted overlaps of a rule with itself")
    _add_common(p)
    p.set_defaults(handler=_cmd_critical_pairs)

    p = sub.add_parser("check-gp",
                       help="decide whether the system is geodesically perfect")
    p.add_argument("system")
    p.add_argument("--same-rule-overlaps", action="store_true")
    _add_common(p)
    p.set_defaults(handler=_cmd_check_gp)

    p = sub.add_parser("wp", help="word problem by descendant closures")
    p.add_argument("system")
    p.add_argument("u")
    p.add_argument("v")
    _add_common(p)
    p.set_defaults(handler=_cmd_wp)

    p = sub.add_parser("geodesics",
                       help="minimal words in the descendant closure")
    p.add_argument("system")
    p.add_argument("word")
    _add_common(p)
    p.set_defaults(handler=_cmd_geodesics)

    p = sub.add_parser("geodesic-check",
                       help="search short irreducible words for shorter equals")
    p.add_argument("system")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--slack", type=int, default=None)
    _add_common(p)
    p.set_defaults(handler=_cmd_geodesic_check)

    p = sub.add_parser("complete", help="phase-based completion")
    p.add_argument("system")
    p.add_argument("--max-phases", type=int, default=32)
    p.add_argument("--max-rules", type=int, default=10 ** 4)
    p.add_argument("--same-rule-overlaps", action="store_true")
    p.add_argument("--certificates", action="store_true",
                   help="include one derivation chain per added rule")
    p.add_argument("--emit-system", action="store_true")
    _add_common(p)
    p.set_defaults(handler=_cmd_complete)

    p = sub.add_parser("pregroup", help="pregroup file operations")
    psub = p.add_subparsers(dest="subcommand", required=True)
    q = psub.add_parser("check", help="verify the five axioms")
    q.add_argument("pregroup")
    _add_common(q)
    q.set_defaults(handler=_cmd_pregroup_check)
    q = psub.add_parser("to-system",
                        help="rewriting system over all elements")
    q.add_argument("pregroup")
    q.add_argument("--out", "-o", default=None)
    _add_common(q)
    q.set_defaults(handler=_cmd_pregroup_to_system)
    q = psub.add_parser("to-system-prime",
                        help="rewriting system over non-identity elements")
    q.add_argument("pregroup")
    q.add_argument("--out", "-o", default=None)
    _add_common(q)
    q.set_defaults(handler=_cmd_pregroup_to_system_prime)

    p = sub.add_parser("system", help="system conversions")
    psub = p.add_subparsers(dest="subcommand", required=True)
    q = psub.add_parser("to-pregroup",
                        help="merge letters of a two-letter system into a "
                             "partial multiplication table")
    q.add_argument("system")
    q.add_argument("--reducing-part", action="store_true",
                   help="drop length-preserving rules first")
    q.add_argument("--out", "-o", default=None)
    _add_common(q)
    q.set_defaults(handler=_cmd_system_to_pregroup)

    p = sub.add_parser("build", help="generate example families")
    bsub = p.add_subparsers(dest="subcommand", required=True)

    q = bsub.add_parser("graph", help="commutation system from a graph")
    q.add_argument("--vertices", nargs="+", required=True)
    q.add_argument("--edges", nargs="*", metavar="u-v", default=[])
    q.add_argument("--out", "-o", default=None)
    _add_common(q)
    q.set_defaults(handler=_cmd_build_graph)

    q = bsub.add_parser("coxeter", help="braid system from a Coxeter matrix")
    q.add_argument("--matrix", required=True,
                   help="rows separated by ';', entries by ','")
    q.add_argument("--names", nargs="*", default=None)
    q.add_argument("--out", "-o", default=None)
    _add_common(q)
    q.set_defaults(handler=_cmd_build_coxeter)

    def hnn_args(q):
        q.add_argument("--group", default=None)
        q.add_argument("--subgroup-a", default=None)
        q.add_argument("--subgroup-b", default=None)
        q.add_argument("--map-a", default=None)
        q.add_argument("--map-b", default=None)
        q.add_argument("--iso", default=None)
        q.add_argument("--example", action="store_true",
                       help="use the built-in S_3 data")
        q.add_argument("--out", "-o", default=None)
        _add_common(q)

    def amalgam_args(q):
        q.add_argument("--group-a", default=None)
        q.add_argument("--group-b", default=None)
        q.add_argument("--subgroup", default=None)
        q.add_argument("--map-a", default=None)
        q.add_argument("--map-b", default=None)
        q.add_argument("--example", action="store_true",
                       help="use the built-in Z/4 and Z/6 data")
        q.add_argument("--out", "-o", default=None)
        _add_common(q)

    q = bsub.add_parser("amalgam", help="system for a glued product")
    amalgam_args(q)
    q.add_argument("--directed", action="store_true")
    q.set_defaults(handler=_cmd_build_amalgam)

    q = bsub.add_parser("amalgam-pregroup", help="pregroup for a glued product")
    amalgam_args(q)
    q.set_defaults(handler=_cmd_build_amalgam_pregroup)

    q = bsub.add_parser("hnn", help="convergent stable-letter program")
    hnn_args(q)
    q.set_defaults(handler=_cmd_build_hnn)

    q = bsub.add_parser("britton", help="length-reducing pinch system")
    hnn_args(q)
    q.set_defaults(handler=_cmd_build_britton)

    q = bsub.add_parser("hnn-pregroup", help="stable-letter pregroup")
    hnn_args(q)
    q.set_defaults(handler=_cmd_build_hnn_pregroup)

    p = sub.add_parser("oracle", help="bounded brute-force searches")
    osub = p.add_subparsers(dest="subcommand", required=True)
    q = osub.add_parser("class", help="bounded equivalence class closure")
    q.add_argument("system")
    q.add_argument("word")
    _add_common(q)
    q.set_defaults(handler=_cmd_oracle_class)
    q = osub.add_parser("wp", help="word problem by class closure")
    q.add_argument("system")
    q.add_argument("u")
    q.add_argument("v")
    _add_common(q)
    q.set_defaults(handler=_cmd_oracle_wp)
    q = osub.add_parser("geodesics", help="minimal closure members")
    q.add_argument("system")
    q.add_argument("word")
    q.add_argument("--slack", type=int, default=None)
    _add_common(q)
    q.set_defaults(handler=_cmd_oracle_geodesics)
    q = osub.add_parser("count", help="count short-word classes")
    q.add_argument("system")
    q.add_argument("--max-word-length", type=int, required=True)
    _add_common(q)
    q.set_defaults(handler=_cmd_oracle_count)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # caps are validated up front even for commands that ignore them
        _parse_caps(getattr(args, "caps", None))
        report, code = args.handler(args)
    except ResourceLimitError as exc:
        sys.stderr.write(f"geothue: capped: {exc}\n")
        return UNDECIDED
    except GeothueError as exc:
        sys.stderr.write(f"geothue: error: {exc}\n")
        return ERROR
    except OSError as exc:
        sys.stderr.write(f"geothue: error: {exc}\n")
        return ERROR
    if report is not None:
        _emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
