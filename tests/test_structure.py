"""Centers, derived subgroups, quotients, normal subgroups, fingerprints."""

import pytest

from conftest import brute_force_elements, center_set_oracle, small_corpus
from gategroups import groups
from gategroups.errors import CapacityError
from gategroups.perm import PermGroup, Permutation
from gategroups.structure import (
    abelian_invariants,
    center,
    conjugacy_classes,
    coset_action,
    derived_subgroup,
    fingerprint,
    normal_closure,
    normal_subgroups,
)


def test_center_examples():
    assert center(groups.symmetric(3)).order() == 1
    assert center(groups.quaternion8()).order() == 2
    assert center(groups.dihedral(12)).order() == 2


def test_center_keeps_only_the_generators_its_closure_takes():
    """The center of a cyclic group is the whole group, generated by one element."""
    group = groups.cyclic(600)
    z = center(group)
    assert len(z.generators) == 1
    assert sorted(group.indices_of(z)) == center_set_oracle(group.own_table())


def test_center_elements_commute_with_random_elements():
    import random

    rng = random.Random(5)
    for name, group in small_corpus():
        z = center(group)
        table = group.own_table()
        for zi in group.indices_of(z):
            for _ in range(min(100, table.n)):
                x = rng.randrange(table.n)
                assert table.mult(zi, x) == table.mult(x, zi), name


def test_derived_subgroup_examples():
    assert derived_subgroup(groups.cyclic(12)).order() == 1
    d = derived_subgroup(groups.symmetric(3))
    assert d.order() == 3
    assert derived_subgroup(groups.symmetric(4)).order() == 12


def test_derived_subgroup_is_normal_and_quotient_abelian():
    for name, group in small_corpus():
        d = derived_subgroup(group)
        own = group.own_table()
        members = group.indices_of(d)
        assert own.is_normal_set(members), name
        q = coset_action(group, d)
        qt = q.own_table()
        assert len(qt.center_set()) == qt.n, name  # abelian


def test_normal_closure_examples():
    s4 = groups.symmetric(4)
    v4 = normal_closure(s4, [Permutation.parse("(1,2)(3,4)", 4)])
    assert v4.order() == 4
    triv = normal_closure(s4, [Permutation.identity(4)])
    assert triv.order() == 1
    with pytest.raises(ValueError):
        normal_closure(groups.alternating(4), [Permutation.parse("(1,2)", 4)])


def test_conjugacy_classes():
    sizes = sorted(s for _, s in conjugacy_classes(groups.symmetric(3)))
    assert sizes == [1, 2, 3]
    s4 = sorted(s for _, s in conjugacy_classes(groups.symmetric(4)))
    assert s4 == [1, 3, 6, 6, 8]
    # abelian: all classes singletons
    assert all(s == 1 for _, s in conjugacy_classes(groups.cyclic(8)))


def test_classes_partition_group():
    for name, group in small_corpus():
        total = sum(s for _, s in conjugacy_classes(group))
        assert total == group.order(), name


def test_coset_action_examples():
    s4 = groups.symmetric(4)
    assert coset_action(s4, s4).order() == 1
    a4 = derived_subgroup(s4)
    q = coset_action(s4, a4)
    assert q.order() == 2
    # a non-normal subgroup is rejected
    i = s4.index_of(Permutation.parse("(1,2)", 4))
    sub = s4.subgroup_from_indices([i], s4.own_table().subgroup_closure([i]))
    with pytest.raises(ValueError):
        coset_action(s4, sub)


def test_quotient_order_products():
    for name, group in small_corpus():
        for sub in (derived_subgroup(group), center(group)):
            q = coset_action(group, sub)
            assert q.order() * sub.order() == group.order(), name


def test_normal_subgroups_s4():
    ns = normal_subgroups(groups.symmetric(4))
    assert ns.orders() == [1, 4, 12, 24]
    assert ns.proper_orders() == [4, 12]
    assert ns.trivial.order() == 1
    assert ns.full.order() == 24


def test_normal_subgroups_simple_group():
    ns = normal_subgroups(groups.alternating(5))
    assert ns.proper_orders() == []
    assert ns.orders() == [1, 60]


def test_normal_subgroups_against_brute_force_scan():
    """Full subgroup-lattice normality scan on groups of order <= 200 (oracle)."""
    for name, group in small_corpus():
        if group.order() > 200:
            continue
        table = group.own_table()
        n = table.n
        # every subgroup, grown one extra generator at a time
        all_subs = {frozenset([0]): ()}
        frontier = [frozenset([0])]
        while frontier:
            sub = frontier.pop()
            gens = all_subs[sub]
            for x in range(1, n):
                if x in sub:
                    continue
                bigger = frozenset(table.subgroup_closure(list(gens) + [x]))
                if bigger not in all_subs:
                    all_subs[bigger] = tuple(gens) + (x,)
                    frontier.append(bigger)
        normal_sets = {
            sub
            for sub, gens in all_subs.items()
            if table.is_normal_set(sub)
        }
        found = {frozenset(group.indices_of(s)) for s in normal_subgroups(group).all}
        assert found == normal_sets, (name, sorted(map(len, found ^ normal_sets)))


def test_abelian_invariants_examples():
    assert abelian_invariants(groups.cyclic(6)) == [6]
    assert abelian_invariants(groups.alternating(5)) == []
    assert abelian_invariants(groups.symmetric(4)) == [2]
    v = groups.direct(groups.cyclic(2), groups.cyclic(4))
    assert abelian_invariants(v) == [2, 4]
    big = groups.direct(groups.cyclic(2), groups.cyclic(6), groups.cyclic(6))
    assert abelian_invariants(big) == [2, 6, 6]


def test_abelian_invariants_divisibility_and_product():
    for name, group in small_corpus():
        invs = abelian_invariants(group)
        prod = 1
        for d in invs:
            prod *= d
        d_order = derived_subgroup(group).order()
        assert prod * d_order == group.order(), name
        for a, b in zip(invs, invs[1:]):
            assert b % a == 0, name


def test_fingerprint_detects_nonisomorphic():
    f1 = fingerprint(groups.cyclic(4))
    f2 = fingerprint(groups.direct(groups.cyclic(2), groups.cyclic(2)))
    assert f1 != f2
    assert fingerprint(groups.sl23()) != fingerprint(groups.cyclic(24))
    # s4 fingerprint pinned by enumeration oracle
    fp = fingerprint(groups.symmetric(4))
    assert fp.order == 24
    assert fp.class_sizes == (1, 3, 6, 6, 8)
    assert fp.center_order == 1
    assert fp.derived_series == (24, 12, 4, 1)
    assert fp.abelian_invariants == (2,)


def test_capacity_error_on_huge_enumeration():
    big = groups.symmetric(9)  # order 362880 > default cap
    with pytest.raises(CapacityError):
        center(big)


def _compose(p, q):
    """Apply p, then q."""
    return tuple(q[v] for v in p)


def _inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


@pytest.mark.parametrize(
    "top",
    [groups.symmetric(4), groups.wreath(groups.cyclic(2), groups.symmetric(4))],
    ids=["S4>A4>V4", "Z2wrS4>D>D2"],
)
def test_subgroup_chain_against_brute_force(top):
    """indices_of, normal_closure and coset_action along the derived series,
    for subgroups on the same ambient table and on the table of a second
    copy of the top group, checked against naive closures over permutation
    tuples."""

    def derived_series(group):
        series = [group, derived_subgroup(group)]
        return series + [derived_subgroup(series[1])]

    chain = derived_series(top)
    twin = derived_series(PermGroup(top.degree, top.generators))
    elements = [brute_force_elements(g) for g in chain]
    assert [len(e) for e in elements] == [g.order() for g in chain]
    for hi, lo in ((0, 1), (1, 2), (0, 2)):
        parent, child = chain[hi], chain[lo]
        p_elems, c_elems = elements[hi], elements[lo]
        assert c_elems < p_elems
        for sub in (child, twin[lo]):
            members = parent.indices_of(sub)
            assert {parent.perm_of(i).imgs for i in members} == c_elems
            cosets = {frozenset(_compose(h, x) for h in c_elems) for x in p_elems}
            assert coset_action(parent, sub).order() == len(cosets)
        seed = next(g.imgs for g in child.generators if not g.is_identity)
        conjugates = [_compose(_compose(_inverse(x), seed), x) for x in p_elems]
        oracle = brute_force_elements(PermGroup(top.degree, conjugates))
        closed = normal_closure(parent, [Permutation(seed)])
        assert {closed.perm_of(i).imgs for i in range(closed.order())} == oracle
        assert oracle <= c_elems
