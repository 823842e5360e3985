import re

import pytest

from geothue.errors import FormatError, StructureError
from geothue.groups import (FiniteGroup, GroupIso, SubgroupEmbedding,
                            coset_decompose, cyclic_group, format_group,
                            format_map, parse_group, parse_map,
                            symmetric_group, transversal)


def test_cyclic_group_laws():
    G = cyclic_group(4, "r")
    assert G.elements == ("1", "r", "r2", "r3")
    assert G.mult("r", "r3") == "1"
    assert G.inverse("r2") == "r2"
    assert G.mult("r3", "r2") == "r"


def test_symmetric_group_s3():
    G = symmetric_group(3)
    assert len(G.elements) == 6
    assert G.identity == "1"
    # right factor acts first: (12)(13) maps 3 -> 1 -> 2
    assert G.mult("12", "13") == "132"
    assert G.mult("13", "12") == "123"
    assert G.inverse("123") == "132"


def test_group_table_laws_validated():
    with pytest.raises(StructureError):
        FiniteGroup(("e", "a"), "e", {("e", "e"): "e", ("e", "a"): "a",
                                      ("a", "e"): "a", ("a", "a"): "a"})


def test_parse_format_roundtrip():
    G = symmetric_group(3)
    H = parse_group(format_group(G))
    assert H == G
    assert H.mult("12", "23") == G.mult("12", "23")


@pytest.mark.parametrize("name", [".", "->", "<->"])
def test_element_that_cannot_be_a_letter_is_rejected(name):
    # group elements become letters of the amalgam and stable-letter
    # systems
    text = (f"group\nelements 1 {name}\nidentity 1\nmult 1 1 = 1\n"
            f"mult 1 {name} = {name}\nmult {name} 1 = {name}\n"
            f"mult {name} {name} = 1\n")
    with pytest.raises(FormatError, match=f"line 2: element "
                       f"'{re.escape(name)}' cannot be a letter name"):
        parse_group(text)


def test_parse_map_roundtrip():
    m = {"1": "1", "h": "12"}
    assert parse_map(format_map(m)) == m


def test_embedding_validation():
    H = cyclic_group(2, "h")
    G = symmetric_group(3)
    emb = SubgroupEmbedding(H, G, {"1": "1", "h": "12"})
    assert set(emb.image) == {"1", "12"}
    with pytest.raises(StructureError):
        SubgroupEmbedding(H, G, {"1": "1", "h": "123"})  # not a homomorphism
    with pytest.raises(StructureError):
        SubgroupEmbedding(H, G, {"1": "1", "h": "1"})  # not injective


def test_group_iso_validation():
    H = cyclic_group(2, "h")
    iso = GroupIso(H, H, {"1": "1", "h": "h"})
    assert iso.map["h"] == "h"
    K = cyclic_group(3, "k")
    with pytest.raises(StructureError):
        GroupIso(H, K, {"1": "1", "h": "k"})


def test_transversal_covers_cosets():
    G = symmetric_group(3)
    H = cyclic_group(2, "h")
    emb = SubgroupEmbedding(H, G, {"1": "1", "h": "12"})
    reps = transversal(G, emb)
    assert len(reps) == 3
    assert G.identity in reps
    seen = set()
    for g in G.elements:
        h, y = coset_decompose(G, emb, g, reps)
        assert y in reps and h in emb.image
        assert G.mult(h, y) == g
        seen.add(y)
    assert seen == set(reps)


def test_decomposition_is_unique():
    G = cyclic_group(6, "s")
    H = cyclic_group(2, "h")
    emb = SubgroupEmbedding(H, G, {"1": "1", "h": "s3"})
    reps = transversal(G, emb)
    for g in G.elements:
        h, y = coset_decompose(G, emb, g, reps)
        others = [(hh, yy) for hh in emb.image for yy in reps
                  if G.mult(hh, yy) == g]
        assert others == [(h, y)]
