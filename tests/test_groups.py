"""Reference constructors and the GroupSpec text syntax."""

import pytest

from conftest import wreath_all_copies_generators
from gategroups import groups
from gategroups.errors import CapacityError
from gategroups.perm import Permutation, PermGroup
from gategroups.structure import center, derived_subgroup


def test_cyclic():
    assert groups.cyclic(1).order() == 1
    assert groups.cyclic(7).order() == 7
    with pytest.raises(ValueError):
        groups.cyclic(0)


def test_symmetric_and_alternating():
    assert groups.symmetric(4).order() == 24
    assert groups.alternating(4).order() == 12
    assert groups.alternating(2).order() == 1
    assert groups.alternating(6).order() == 360


def test_dihedral_named_by_order():
    assert groups.dihedral(12).order() == 12
    assert groups.dihedral(8).order() == 8
    assert center(groups.dihedral(12)).order() == 2
    with pytest.raises(ValueError):
        groups.dihedral(7)


def test_quaternion8():
    q8 = groups.quaternion8()
    assert q8.order() == 8
    table = q8.own_table()
    assert sum(1 for o in table.element_orders() if o == 2) == 1
    assert len(table.center_set()) == 2


def test_sl23_against_gf3_enumeration():
    """Oracle: enumerate 2x2 matrices over the 3-element field with det 1."""
    mats = [
        (a, b, c, d)
        for a in range(3)
        for b in range(3)
        for c in range(3)
        for d in range(3)
        if (a * d - b * c) % 3 == 1
    ]
    assert len(mats) == 24
    involutions = [m for m in mats if _gf3_mul(m, m) == (1, 0, 0, 1) and m != (1, 0, 0, 1)]
    assert len(involutions) == 1  # only -I

    g = groups.sl23()
    assert g.order() == 24
    orders = g.own_table().element_orders()
    assert sum(1 for o in orders if o == 2) == 1


def _gf3_mul(m, g):
    a, b, c, d = m
    e, f, gg, h = g
    return ((a * e + b * gg) % 3, (a * f + b * h) % 3, (c * e + d * gg) % 3, (c * f + d * h) % 3)


def test_direct_product():
    g = groups.direct(groups.cyclic(3), groups.symmetric(3))
    assert g.order() == 18
    assert g.degree == 6


def test_wreath_orders():
    assert groups.wreath(groups.cyclic(2), groups.symmetric(5)).order() == 3840
    assert groups.wreath(groups.cyclic(2), groups.alternating(5)).order() == 1920
    assert groups.wreath(groups.cyclic(3), groups.symmetric(3)).order() == 162


def test_wreath_base_is_normal():
    w = groups.wreath(groups.cyclic(2), groups.symmetric(3))
    base_gens = w.generators[:1]  # copy 0's generator; S3 moves it to the other copies
    from gategroups.structure import normal_closure

    closed = normal_closure(w, base_gens)
    assert closed.order() == 8  # the base Z2^3 is normal


C2 = groups.cyclic(2)


@pytest.mark.parametrize(
    "m, h, ngens",
    [
        (C2, groups.symmetric(3), 3),  # the small corpus's wreaths
        (C2, groups.symmetric(4), 3),
        (C2, groups.symmetric(5), 3),
        (groups.direct(C2, C2), groups.alternating(5), 4),
        (groups.direct(C2, C2), groups.symmetric(4), 4),
        (groups.cyclic(3), groups.symmetric(3), 3),
        (C2, groups.direct(C2, groups.cyclic(3)), 4),  # two orbits of the top group
        (groups.symmetric(3), groups.cyclic(1), 3),  # one copy; cyclic(1) has one generator
    ],
    ids=["C2wrS3", "C2wrS4", "C2wrS5", "V4wrA5", "V4wrS4", "C3wrS3", "C2wr(C2xC3)", "S3wrC1"],
)
def test_wreath_matches_all_copies_generators(m, h, ngens):
    """One base copy per orbit of h generates the group all copies do."""
    w = groups.wreath(m, h)
    assert len(w.generators) == ngens
    old = PermGroup(w.degree, wreath_all_copies_generators(m, h))
    assert w.order() == old.order() == m.order() ** h.degree * h.order()
    assert all(old.contains(p) for p in w.generators)
    assert all(w.contains(p) for p in old.generators)


def test_semidirect_with_inverting_action():
    n = groups.cyclic(5)
    h = groups.cyclic(4)
    act = Permutation.parse("(2,3,5,4)", 5)  # generator of Aut(Z5) on the points
    g = groups.semidirect(n, h, [act])
    assert g.order() == 20
    assert derived_subgroup(g).order() == 5


def test_semidirect_rejects_bad_action():
    n = groups.cyclic(5)
    h = groups.cyclic(2)
    with pytest.raises(ValueError):
        # the 5-cycle itself does not normalize <(1..5)> as an order-2 action
        groups.semidirect(n, h, [Permutation.parse("(1,2)", 5)])


def test_spec_degree_cap_is_a_capacity_error(monkeypatch):
    monkeypatch.setenv("GATEGROUPS_MAX_ENUMERATION", "5")
    with pytest.raises(CapacityError, match=r"^wreath\(\) needs degree 6"):
        groups.parse_spec("wreath(cyclic(2), cyclic(3))")
    with pytest.raises(CapacityError, match=r"^semidirect\(\) needs degree 6"):
        groups.parse_spec("semidirect(cyclic(3), cyclic(3), [(1,2,3)])")


def test_spec_parsing():
    assert groups.construct("cyclic(6)").order() == 6
    assert groups.construct("wreath(cyclic(2), alternating(5))").order() == 1920
    assert groups.construct("direct(cyclic(2), symmetric(3))").order() == 12
    assert groups.construct("quaternion8").order() == 8
    assert groups.construct("sl23").order() == 24
    sd = groups.construct("semidirect(cyclic(5), cyclic(4), [(2,3,5,4)])")
    assert sd.order() == 20
    with pytest.raises(ValueError):
        groups.construct("frobnicate(3)")


def test_spec_realized_order_matches_formula():
    spec = groups.parse_spec("wreath(cyclic(2), symmetric(4))")
    m, h = spec.params
    assert spec.realized.order() == m.realized.order() ** 4 * h.realized.order()
