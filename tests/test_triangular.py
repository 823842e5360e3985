import pytest

from geothue.errors import PreconditionError, StructureError
from geothue.pregroup import (check_axioms, table_isomorphic,
                              universal_system_prime)
from geothue.systems import parse_system
from geothue.triangular import (TriangularKind, classify_triangular,
                                letter_classes, pregroup_from_system,
                                reducing_part)


def test_classify_triangular_free_group(free_ab):
    system = reducing_part(free_ab)
    assert classify_triangular(system) is TriangularKind.TRIANGULAR
    assert system.is_group_system


def test_classify_almost_triangular():
    sys_ = parse_system("""
    alphabet a A e
    inverse a A
    rule a A -> .
    rule A a -> .
    rule e -> .
    """)
    assert classify_triangular(sys_) is TriangularKind.ALMOST_TRIANGULAR


def test_classify_neither_for_long_lhs(geoper_S):
    assert classify_triangular(geoper_S) is TriangularKind.NEITHER


def test_sprime_reducing_part_is_triangular(amalgam_pregroup, hnn_pregroup):
    for P in (amalgam_pregroup, hnn_pregroup):
        S = reducing_part(universal_system_prime(P))
        assert classify_triangular(S) is TriangularKind.TRIANGULAR
        assert S.is_group_system


def test_letter_classes_trivial_on_sprime(amalgam_pregroup):
    S = reducing_part(universal_system_prime(amalgam_pregroup))
    lc = letter_classes(S)
    # no two letters of the fixture collapse
    assert all(len(c) == 1 for c in lc.classes[1:])
    assert lc.classes[0] == frozenset()


def test_letter_classes_detect_identified_letters():
    # x cancels against Y as well, so x and y fall into one class
    sys_ = parse_system("""
    alphabet x X y Y
    inverse x X
    inverse y Y
    rule x X -> .
    rule X x -> .
    rule y Y -> .
    rule Y y -> .
    rule x Y -> .
    rule Y x -> .
    rule y X -> .
    rule X y -> .
    """)
    lc = letter_classes(sys_)
    names = {frozenset(sys_.alphabet.name(i) for i in c) for c in lc.classes[1:]}
    assert names == {frozenset({"x", "y"}), frozenset({"X", "Y"})}


def test_letter_classes_require_total_pairing():
    sys_ = parse_system("""
    alphabet x X y
    inverse x X
    rule x X -> .
    rule X x -> .
    """)
    with pytest.raises(PreconditionError):
        letter_classes(sys_)


def test_letter_classes_need_pairing(geoper_S):
    with pytest.raises(PreconditionError):
        letter_classes(geoper_S)


def test_pregroup_from_system_roundtrip(amalgam_pregroup, hnn_pregroup):
    for P in (amalgam_pregroup, hnn_pregroup):
        S = reducing_part(universal_system_prime(P))
        Q = pregroup_from_system(S)
        assert check_axioms(Q).ok
        assert table_isomorphic(P, Q)


def test_pregroup_from_system_free_group(free_ab):
    Q = pregroup_from_system(reducing_part(free_ab))
    assert len(Q.elements) == 5  # fresh identity plus the four letters
    assert check_axioms(Q).ok
    assert Q.prod("a", "A") == Q.eps


def test_pregroup_from_system_rejects_non_triangular(geoper_S):
    with pytest.raises(PreconditionError):
        pregroup_from_system(geoper_S)


def test_pregroup_from_system_rejects_broken_table():
    # ill-defined product: xy maps to two different letters
    sys_ = parse_system("""
    alphabet x X y Y u v
    inverse x X
    inverse y Y
    inverse u v
    rule x X -> .
    rule X x -> .
    rule y Y -> .
    rule Y y -> .
    rule u v -> .
    rule v u -> .
    rule x y -> u
    rule x y -> v
    """)
    with pytest.raises(StructureError):
        pregroup_from_system(sys_)


def test_pregroup_from_system_names_every_failed_axiom():
    # a b = B and b a = A give a well-defined table that breaks p3 and
    # p4; the witness is the first failed axiom's
    sys_ = parse_system("""
    alphabet a A b B
    inverse a A
    inverse b B
    rule a A -> .
    rule A a -> .
    rule b B -> .
    rule B b -> .
    rule a b -> B
    rule b a -> A
    """)
    with pytest.raises(StructureError) as info:
        pregroup_from_system(sys_)
    assert str(info.value) == (
        "derived table violates p3, p4 at ('a', 'b'); "
        "input cannot be a geodesic triangular system")
