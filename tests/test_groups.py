import re

import pytest

from geothue.errors import FormatError, StructureError
from geothue.groups import (FiniteGroup, GroupIso, SubgroupEmbedding,
                            coset_decompose, cyclic_group, format_group,
                            format_map, parse_group, parse_map,
                            symmetric_group, transversal)
from tests.conftest import (FIXTURES, GENERATED, _cyclic_amalgam,
                            _cyclic_embedding, _cyclic_hnn_data)


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


def test_symmetric_group_names_each_of_several_cycles_in_parentheses():
    # without them (12)(34) and the 4-cycle 1234 would share a name
    G = symmetric_group(4)
    assert len(G.elements) == 24
    assert G.mult("12", "34") == "(12)(34)"
    assert "1234" in G.elements


def test_group_table_laws_validated():
    with pytest.raises(StructureError):
        FiniteGroup(("e", "a"), "e", {("e", "e"): "e", ("e", "a"): "a",
                                      ("a", "e"): "a", ("a", "a"): "a"})


def _generated_maps():
    """The embedding and iso maps behind the generated pregroups."""
    for build, *args in GENERATED.values():
        if build is _cyclic_amalgam:
            m, n, k = args
            H = cyclic_group(k, "h")
            for G in (cyclic_group(m, "r"), cyclic_group(n, "s")):
                yield _cyclic_embedding(H, G).map
        else:
            _, embA, embB, phi = _cyclic_hnn_data(*args)
            yield from (embA.map, embB.map, phi.map)


def test_parse_format_roundtrip():
    cases = [parse_group(path.read_text(encoding="utf-8"))
             for path in sorted(FIXTURES.glob("*.grp"))]
    cases += [cyclic_group(n) for n in range(1, 9)]
    cases += [symmetric_group(n) for n in range(1, 5)]
    for G in cases:
        text = format_group(G)
        H = parse_group(text)
        for field in FiniteGroup.__slots__:
            assert getattr(H, field) == getattr(G, field), (text, field)
        assert format_group(H) == text


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
    cases = [parse_map(path.read_text(encoding="utf-8"))
             for path in sorted(FIXTURES.glob("*.map"))]
    assert len(cases) == 4
    for m in cases + list(_generated_maps()):
        text = format_map(m)
        back = parse_map(text)
        assert list(back.items()) == list(m.items())
        assert format_map(back) == text


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
    # of equal order, so only injectivity stands between it and onto
    with pytest.raises(StructureError, match="embedding is not injective"):
        GroupIso(K, K, {k: "1" for k in K.elements})


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
