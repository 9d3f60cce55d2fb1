"""Public structural computations on permutation groups.

These are the element-enumeration based operations: centers, derived
subgroups, normal closures, conjugacy classes, quotient actions, normal
subgroup enumeration, abelian invariants and isomorphism-invariant
fingerprints.  Groups above the enumeration cap raise CapacityError.
"""

from __future__ import annotations

from collections import namedtuple

from gategroups.perm import PermGroup

__all__ = [
    "GroupFingerprint",
    "NormalSubgroups",
    "center",
    "derived_subgroup",
    "normal_closure",
    "conjugacy_classes",
    "coset_action",
    "normal_subgroups",
    "abelian_invariants",
    "fingerprint",
]


def center(group):
    """Subgroup of elements commuting with everything; normal in the group."""
    own = group.own_table()
    members = own.center_set()
    return group.subgroup_from_indices(own._extend({0}, [0], [], members), members)


def derived_subgroup(group):
    """Normal closure of the commutators of the generators."""
    members, gens = group.own_table().derived_data()
    return group.subgroup_from_indices(gens, members)


def normal_closure(group, seeds):
    """Smallest normal subgroup containing the seed permutations."""
    seed_idx = [group.index_of(seed) for seed in seeds]
    members, gens = group.own_table().normal_closure_set(seed_idx)
    return group.subgroup_from_indices(gens, members)


def conjugacy_classes(group):
    """Class representatives with their sizes, in deterministic order."""
    _, reps, sizes = group.own_table().class_partition()
    return [(group.perm_of(rep), size) for rep, size in zip(reps, sizes)]


def coset_action(group, normal):
    """Permutation image of the action on right cosets of a normal subgroup.

    The quotient acts regularly on the cosets; its order equals the index.
    """
    own = group.own_table()
    members = group.indices_of(normal)
    if not own.is_normal_set(members):
        raise ValueError("subgroup is not normal; the quotient is undefined")
    quotient, _, _ = own.coset_action(members)
    return PermGroup(quotient.n, quotient._perms, order=quotient.n, table=quotient)


class NormalSubgroups:
    def __init__(self, all, trivial, full, proper_nontrivial):
        self.all = all
        self.trivial = trivial
        self.full = full
        self.proper_nontrivial = proper_nontrivial

    def orders(self):
        return sorted(sub.order() for sub in self.all)

    def proper_orders(self):
        return sorted(sub.order() for sub in self.proper_nontrivial)


def normal_subgroups(group):
    """All normal subgroups (join closure of class normal-closures)."""
    own = group.own_table()
    wrapped = []
    trivial = full = None
    proper = []
    for members, gens in own.normal_subgroup_sets():
        sub = group.subgroup_from_indices(gens, members)
        wrapped.append(sub)
        if len(members) == 1:
            trivial = sub
        elif len(members) == own.n:
            full = sub
        else:
            proper.append(sub)
    return NormalSubgroups(wrapped, trivial, full, proper)


def abelian_invariants(group):
    """Invariant factors d1 | d2 | ... of the abelianization."""
    return group.own_table().abelian_invariants()


# Isomorphism-invariant summary; unequal fingerprints mean non-isomorphic.
# element_orders holds sorted (element order, multiplicity) pairs, and
# derived_series the orders of G, G', G'', ... until stable.
GroupFingerprint = namedtuple(
    "GroupFingerprint",
    "order element_orders class_sizes center_order derived_series abelian_invariants",
)


def fingerprint(group):
    return _fingerprint_of(group.own_table())


def _fingerprint_of(table):
    orders = table.element_orders()
    hist = {}
    for o in orders:
        hist[o] = hist.get(o, 0) + 1
    _, _, sizes = table.class_partition()
    series = [table.n]
    t = table
    while True:
        members, gens = t.derived_data()
        if len(members) == series[-1]:
            break
        series.append(len(members))
        if len(members) == 1:
            break
        t = t.subgroup_table(gens, members)
    return GroupFingerprint(
        order=table.n,
        element_orders=tuple(sorted(hist.items())),
        class_sizes=tuple(sorted(sizes)),
        center_order=len(table.center_set()),
        derived_series=tuple(series),
        abelian_invariants=tuple(table.abelian_invariants()),
    )
