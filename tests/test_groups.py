"""Reference constructors and the group expressions that name them."""

import pytest

from conftest import wreath_all_copies_generators
from gategroups import groups
from gategroups.claims import Evaluator
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


def test_reference_generators_are_pinned():
    """The element lists keep their order: 1, -1, i, -i, j, -j, k, -k for Q8
    and the lexicographic matrices (a, b, c, d) for SL(2,3)."""
    assert [p.imgs for p in groups.quaternion8().generators] == [
        (2, 3, 1, 0, 7, 6, 4, 5),
        (4, 5, 6, 7, 1, 0, 3, 2),
    ]
    assert [p.imgs for p in groups.sl23().generators] == [
        (2, 0, 1, 4, 5, 3, 9, 10, 11, 12, 13, 14, 6, 7, 8, 21, 22, 23, 15, 16, 17, 18, 19, 20),
        (6, 7, 8, 15, 16, 17, 3, 5, 4, 13, 14, 12, 22, 21, 23, 0, 2, 1, 11, 10, 9, 20, 18, 19),
    ]


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
        Evaluator().group("wreath(cyclic(2), cyclic(3))")
    with pytest.raises(CapacityError, match=r"^semidirect\(\) needs degree 6"):
        Evaluator().group("semidirect(cyclic(3), cyclic(3), [(1,2,3)])")


def test_spec_parsing():
    ev = Evaluator()
    assert ev.group("cyclic(6)").order() == 6
    assert ev.group("wreath(cyclic(2), alternating(5))").order() == 1920
    assert ev.group("direct(cyclic(2), symmetric(3))").order() == 12
    assert ev.group("quaternion8").order() == 8
    assert ev.group("sl23").order() == 24
    sd = ev.group("semidirect(cyclic(5), cyclic(4), [(2,3,5,4)])")
    assert sd.order() == 20
    with pytest.raises(ValueError):
        ev.group("frobnicate(3)")


def test_spec_realized_order_matches_formula():
    ev = Evaluator()
    m, h = ev.group("cyclic(2)"), ev.group("symmetric(4)")
    assert ev.group("wreath(cyclic(2), symmetric(4))").order() == m.order() ** 4 * h.order()


# Each expression and the constructor call it must equal.
_C2, _C3, _S3 = groups.cyclic(2), groups.cyclic(3), groups.symmetric(3)
_SPEC_CORPUS = [
    ("cyclic(5)", lambda: groups.cyclic(5)),
    ("dihedral(12)", lambda: groups.dihedral(12)),
    ("symmetric(4)", lambda: groups.symmetric(4)),
    ("alternating(5)", lambda: groups.alternating(5)),
    ("quaternion8", groups.quaternion8),
    ("sl23()", groups.sl23),
    ("direct(cyclic(2))", lambda: groups.direct(_C2)),
    ("direct(cyclic(2), cyclic(3), symmetric(3))", lambda: groups.direct(_C2, _C3, _S3)),
    ("wreath(cyclic(2), symmetric(3))", lambda: groups.wreath(_C2, _S3)),
    ("semidirect(cyclic(5), cyclic(4), [(2,3,5,4)])", lambda: groups.semidirect(
        groups.cyclic(5), groups.cyclic(4), [Permutation.parse("(2,3,5,4)", 5)])),
    ("wreath(direct(cyclic(2), cyclic(2)), alternating(4))",
     lambda: groups.wreath(groups.direct(_C2, _C2), groups.alternating(4))),
    ("direct(wreath(cyclic(2), cyclic(3)), quaternion8)",
     lambda: groups.direct(groups.wreath(_C2, _C3), groups.quaternion8())),
    ("semidirect(direct(cyclic(3), cyclic(3)), cyclic(2), [(1,2,3)(4,5,6)])",
     lambda: groups.semidirect(groups.direct(_C3, _C3), _C2,
                               [Permutation.parse("(1,2,3)(4,5,6)", 6)])),
    ("wreath(semidirect(cyclic(3), cyclic(2), [(2,3)]), cyclic(2))",
     lambda: groups.wreath(groups.semidirect(_C3, _C2, [Permutation.parse("(2,3)", 3)]), _C2)),
]


@pytest.mark.parametrize("expr, build", _SPEC_CORPUS, ids=[e for e, _ in _SPEC_CORPUS])
def test_spec_equals_the_constructor_call(expr, build):
    """The evaluated expression has the constructor's generators and order."""
    got, want = Evaluator().group(expr), build()
    assert got.generators == want.generators
    assert got.order() == want.order()


def test_recipes_nest_inside_constructors():
    """A ledger recipe is a constructor's argument like any group expression:
    Z(P2) has order 4, so the product with C2 has order 8."""
    ev = Evaluator()
    assert ev.value("order(direct(center(p2), cyclic(2)))") == 8


@pytest.mark.parametrize("expr, message", [
    ("frobnicate(3)", "unknown group spec 'frobnicate(3)'"),
    ("direct(cyclic(2), center(frobnicate))", "unknown group spec 'frobnicate'"),
    ("wreath(cyclic(2))", "wreath() takes 2 argument(s), found 1"),
    ("quaternion8(1)", "quaternion8() takes 0 argument(s), found 1"),
    ("cyclic(x)", "cyclic() needs an integer argument, found 'x'"),
    ("direct()", "direct() needs at least one factor"),
    ("wreath(cyclic(2), symmetric(5)x)", "unbalanced parentheses in 'symmetric(5)x'"),
    ("semidirect(cyclic(5), cyclic(4), (2,3,5,4))",
     "semidirect action must be a [perm; perm; ...] list"),
    # both factors are evaluated before the action is read
    ("semidirect(cyclic(5), frobnicate, (2,3,5,4))", "unknown group spec 'frobnicate'"),
])
def test_spec_error_messages(expr, message):
    with pytest.raises(ValueError) as err:
        Evaluator().group(expr)
    assert str(err.value) == message


def test_spec_capacity_error_of_a_nested_constructor(monkeypatch):
    monkeypatch.setenv("GATEGROUPS_MAX_ENUMERATION", "5")
    with pytest.raises(CapacityError) as err:
        Evaluator().group("direct(cyclic(2), symmetric(6))")
    assert str(err.value) == (
        "symmetric() needs degree 6, above the cap 5 set by GATEGROUPS_MAX_ENUMERATION"
    )
