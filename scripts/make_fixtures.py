"""Regenerate everything under fixtures/.

Literal systems are written as text; every other file is the format_*
text of what the builders make, so the files always match the code
(tests/test_fixtures.py checks that they do).  Run from the repository
root:

    python scripts/make_fixtures.py
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from geothue import builders
from geothue.groups import format_group, format_map
from geothue.pregroup import format_pregroup
from geothue.systems import format_system

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIX = ROOT / "fixtures"

GEOPER_S = """\
# Geodesic system with no finite geodesically perfect completion
# over this alphabet.
alphabet a b c d e
rule a d d -> a b
rule a d d -> a c
rule b d d -> e b
rule c d d -> e c
"""

GEOPER_T = GEOPER_S + """\
rule b <-> c
"""

GPEX = """\
# Geodesically perfect under the strict overlap reading only; the
# relaxed reading trips over the self-overlap of dd -> f.
alphabet a b c d e f
rule d d -> f
rule a f <-> a b
rule a f <-> a c
rule b f <-> e b
rule c f <-> e c
"""

Z2Z2 = """\
# Free product of two copies of Z/2; Dehn rules only.
alphabet a b
inverse a a
inverse b b
rule a a -> .
rule b b -> .
"""

Z2Z2_GROUP = """\
# The same free product presented as a group system with formal
# inverse letters.  Completion needs two phases to discover A <-> a
# and B <-> b.
alphabet a A b B
inverse a A
inverse b B
rule a a -> .
rule a A -> .
rule A a -> .
rule b b -> .
rule b B -> .
rule B b -> .
"""

Z2_CONVERGENT = """\
# Convergent (ordered, non-symmetric) program for Z x Z: cancellations
# plus commutations that push x-letters to the left.  Read this with
# parse_rule_program, not parse_system.
alphabet x X y Y
rule x X -> .
rule X x -> .
rule y Y -> .
rule Y y -> .
rule y x -> x y
rule Y x -> x Y
rule y X -> X y
rule Y X -> X Y
"""


def write(path: pathlib.Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")


def main() -> None:
    FIX.mkdir(exist_ok=True)

    write(FIX / "geoper_S.rws", GEOPER_S)
    write(FIX / "geoper_T.rws", GEOPER_T)
    write(FIX / "gpex.rws", GPEX)
    write(FIX / "z2z2.rws", Z2Z2)
    write(FIX / "z2z2_group.rws", Z2Z2_GROUP)
    write(FIX / "z2_convergent.rules", Z2_CONVERGENT)

    write(FIX / "tits_d3.rws", format_system(
        builders.build_tits_system(builders.CoxeterMatrix(((1, 3), (3, 1))))))
    write(FIX / "free_ab.rws", format_system(
        builders.build_graph_group(builders.CommutationGraph(("a", "b"), ()))))
    write(FIX / "z2_graph.rws", format_system(builders.build_graph_group(
        builders.CommutationGraph(("a", "b"), (("a", "b"),)))))

    # Finite groups and gluing data for the amalgam and HNN examples.
    am = builders.example_amalgam()
    hn = builders.example_hnn()
    for name, G in (("z4.grp", am.A), ("z6.grp", am.B), ("z2h.grp", am.H),
                    ("s3.grp", hn.G)):
        write(FIX / name, format_group(G))
    for name, mapping in (("amalgam_a.map", am.embA.map),
                          ("amalgam_b.map", am.embB.map),
                          ("hnn_emb.map", hn.embA.map), ("hnn_phi.map", hn.phi.map)):
        write(FIX / name, format_map(mapping))

    write(FIX / "amalgam_z4z6.pg", format_pregroup(
        builders.build_amalgam_pregroup(am.A, am.B, am.embA, am.embB)))
    write(FIX / "hnn_s3.pg", format_pregroup(
        builders.build_hnn_pregroup(hn.G, hn.embA, hn.embB, hn.phi)))


if __name__ == "__main__":
    main()
