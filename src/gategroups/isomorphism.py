"""Isomorphism testing, automorphism groups, commutator sets, complements.

Isomorphisms and automorphisms are found by backtracking over the images
of a greedily chosen minimal generating sequence, pruning candidates by
element order, conjugacy class size and pairwise product/commutation
relations; every accepted assignment is verified as a bijective
homomorphism on the full element table, so a positive answer is always a
checked witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from gategroups.config import limit
from gategroups.errors import BudgetExceededError, CapacityError
from gategroups.perm import Permutation, PermGroup, StabilizerChain
from gategroups.structure import _fingerprint_of

__all__ = [
    "IsomorphismResult",
    "AutomorphismGroup",
    "CommutatorSet",
    "ComplementResult",
    "isomorphic",
    "automorphism_group",
    "is_perfect",
    "commutator_set",
    "find_complement",
]


def _min_generating_sequence(table):
    """Greedy short generating sequence, deterministic."""
    class_of, _, sizes = table.class_partition()
    orders = table.element_orders()
    ranked = sorted(
        range(1, table.n), key=lambda i: (-orders[i], sizes[class_of[i]], i)
    )
    seq = []
    members = {0}
    for i in ranked:
        if i in members:
            continue
        seq.append(i)
        members = table.subgroup_closure(seq)
        if len(members) == table.n:
            break
    return seq


def _hom_image(gcols, th, images):
    """Full image array if seq -> images extends to a bijective homomorphism.

    ``gcols`` holds the right-multiplication columns of the generating
    sequence seq, which a search computes once for all its leaves, and
    ``images`` the indices in ``th`` that seq should map to.
    """
    n = len(gcols[0])
    hcols = [th.column(y) for y in images]
    img = [-1] * n
    img[0] = 0
    queue = [0]
    for e in queue:
        base = img[e]
        for gcol, hcol in zip(gcols, hcols):
            e2 = gcol[e]
            y2 = hcol[base]
            cur = img[e2]
            if cur < 0:
                img[e2] = y2
                queue.append(e2)
            elif cur != y2:
                return None
    if len(queue) != n:
        return None
    seen = bytearray(th.n)
    for v in img:
        if seen[v]:
            return None
        seen[v] = 1
    return img


class _Search:
    """Shared backtracking state for isomorphism / automorphism searches."""

    def __init__(self, tg, th, node_budget=None):
        self.tg = tg
        self.th = th
        self.g_orders = tg.element_orders()
        self.h_orders = th.element_orders()
        self.g_classes = tg.class_partition()
        self.h_classes = th.class_partition()
        self.nodes = 0
        self.budget = node_budget or limit("SEARCH_NODE_BUDGET")

    def key_g(self, i):
        class_of, _, sizes = self.g_classes
        return (self.g_orders[i], sizes[class_of[i]])

    def key_h(self, j):
        class_of, _, sizes = self.h_classes
        return (self.h_orders[j], sizes[class_of[j]])

    def candidates(self, x):
        key = self.key_g(x)
        return [j for j in range(1, self.th.n) if self.key_h(j) == key]

    def compatible(self, seq, chosen, x, y):
        tg, th = self.tg, self.th
        for xq, yq in zip(seq, chosen):
            if self.g_orders[tg.mult(xq, x)] != self.h_orders[th.mult(yq, y)]:
                return False
            if (tg.commutator(xq, x) == 0) != (th.commutator(yq, y) == 0):
                return False
        return True

    def tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceededError(
                f"backtracking search exceeded {self.budget} nodes"
            )


@dataclass
class IsomorphismResult:
    isomorphic: bool
    generators: list | None = None  # generating sequence of g
    images: list | None = None  # their images in h

    def __bool__(self):
        return self.isomorphic


def _tables_isomorphic(tg, th, node_budget=None):
    """Image array of an isomorphism between two element tables, or None."""
    if tg.n != th.n:
        return None, None, None
    if tg.n == 1:
        return [], [], [0]
    if _fingerprint_of(tg) != _fingerprint_of(th):
        return None, None, None
    seq = _min_generating_sequence(tg)
    search = _Search(tg, th, node_budget)
    cand = []
    for x in seq:
        lst = search.candidates(x)
        if not lst:
            return None, None, None
        cand.append(lst)
    gcols = [tg.column(x) for x in seq]
    chosen = []

    def backtrack(pos):
        if pos == len(seq):
            return _hom_image(gcols, th, chosen)
        for y in cand[pos]:
            search.tick()
            if not search.compatible(seq, chosen, seq[pos], y):
                continue
            chosen.append(y)
            img = backtrack(pos + 1)
            if img is not None:
                return img
            chosen.pop()
        return None

    img = backtrack(0)
    if img is None:
        return None, None, None
    return seq, list(chosen), img


def isomorphic(g, h, node_budget=None):
    """Isomorphism test with a verified generator-image witness."""
    order_g, order_h = g.order(), h.order()
    if order_g != order_h:
        return IsomorphismResult(False)
    cap = limit("MAX_ISO_ORDER")
    if order_g > cap:
        raise CapacityError(f"isomorphism test capped at order {cap}")
    tg = g.own_table()
    th = h.own_table()
    seq, images, img = _tables_isomorphic(tg, th, node_budget)
    if img is None:
        return IsomorphismResult(False)
    gen_perms = [g.perm_of(i) for i in seq]
    img_perms = [h.perm_of(j) for j in images]
    return IsomorphismResult(True, gen_perms, img_perms)


@dataclass
class AutomorphismGroup:
    order: int
    group: PermGroup | None  # action on the element table, when collected
    inner: PermGroup
    inner_order: int
    complete: bool  # True when `group` carries the whole automorphism group

    def outer_order(self):
        return self.order // self.inner_order


def automorphism_group(g, extended=False, node_budget=None, collect_limit=200_000):
    """Full automorphism group as permutations of the element table.

    Counting is factored through the inner automorphisms: at each level
    of the generator-image backtracking, candidates split into orbits
    under conjugation by the pointwise centralizer K of the images chosen
    so far, and every orbit contributes |orbit| times the count at its
    representative (composing with an inner automorphism from K moves
    the next image around its K-orbit without disturbing earlier ones).
    Every accepted leaf is still verified as a bijective homomorphism on
    the whole table, and with the inner automorphisms the collected leaf
    maps generate the full automorphism group.
    """
    n = g.order()
    cap = limit("MAX_AUT_ORDER_EXTENDED") if extended else limit("MAX_AUT_ORDER")
    if n > cap:
        raise CapacityError(f"automorphism computation capped at order {cap}")
    table = g.own_table()
    seq = _min_generating_sequence(table)

    center = table.center_set()
    inner_order = n // len(center)
    inner_perms = []
    for gpos in range(len(table._rmul)):
        inner_perms.append(tuple(table.conj_by_gen(i, gpos) for i in range(n)))

    if not seq:  # trivial group
        ident = Permutation.identity(1)
        triv = PermGroup(1, [ident], order=1)
        return AutomorphismGroup(1, triv, triv, 1, True)

    search = _Search(table, table, node_budget)
    class_of, _, _ = table.class_partition()
    cands = [search.candidates(x) for x in seq]

    def centralizer(y):
        conj = table.conj_column(y)
        return [z for z in range(n) if conj[z] == y]

    gcols = [table.column(x) for x in seq]
    collected = []
    truncated = [False]
    chosen = []

    def count(pos, K):
        if pos == len(seq):
            img = _hom_image(gcols, table, chosen)
            if img is None:
                return 0
            if len(collected) < collect_limit:
                collected.append(tuple(img))
            else:
                truncated[0] = True
            return 1
        surv = []
        for y in cands[pos]:
            search.tick()
            if search.compatible(seq[:pos], chosen, seq[pos], y):
                surv.append(y)
        subtotal = 0
        if pos == 0:
            # the stabilizer is all of Inn: orbits are conjugacy classes
            seen = set()
            for y in surv:
                if class_of[y] in seen:
                    continue
                seen.add(class_of[y])
                orbit_size = sum(1 for u in surv if class_of[u] == class_of[y])
                chosen.append(y)
                subtotal += orbit_size * count(1, centralizer(y))
                chosen.pop()
            return subtotal
        unseen = set(surv)
        while unseen:
            rep = min(unseen)
            orbit = {table.conjugate(rep, z) for z in K} & unseen
            chosen.append(rep)
            k_next = [z for z in K if table.conjugate(rep, z) == rep]
            subtotal += len(orbit) * count(pos + 1, k_next)
            chosen.pop()
            unseen -= orbit
        return subtotal

    total = count(0, None)

    inner = PermGroup(n, _reduce_perm_generators(inner_perms, n, inner_order), order=inner_order)
    group = None
    complete = False
    if not truncated[0]:
        gens = _reduce_perm_generators(inner_perms + collected, n, total)
        group = PermGroup(n, gens, order=total)
        complete = True
    return AutomorphismGroup(total, group, inner, inner_order, complete)


def _reduce_perm_generators(perms, degree, order):
    """Greedy small generating subset of a permutation list.

    Membership goes through a stabilizer chain, so nothing is ever
    materialised even when the generated group is large.
    """
    gens = []
    chain = None
    for p in perms:
        perm = Permutation(p)
        if perm.is_identity:
            continue
        if chain is not None:
            if chain.order() == order:
                break
            if chain.contains(perm):
                continue
        gens.append(perm)
        chain = StabilizerChain(degree, gens, known_order=order)
    if not gens:
        gens = [Permutation.identity(degree)]
    return gens


def is_perfect(g):
    """True iff the group equals its derived subgroup."""
    table = g.own_table()
    members, _ = table.derived_data()
    return len(members) == table.n


@dataclass
class CommutatorSet:
    indices: frozenset  # element indices of K(G) in the group's own table
    derived_order: int
    equals_derived: bool
    deficiency: int  # |G'| - |K(G)|


def commutator_set(g, extended=False, method="all-pairs"):
    """K(G) = all commutators; a subset of G' that can be proper.

    ``method`` is either "all-pairs" (brute force over |G|^2 ordered
    pairs) or "class-reps" (first arguments restricted to conjugacy class
    representatives, completed by closing under conjugacy).
    """
    n = g.order()
    cap = (
        limit("MAX_COMMUTATOR_ORDER_EXTENDED")
        if extended
        else limit("MAX_COMMUTATOR_ORDER")
    )
    if n > cap:
        raise CapacityError(f"commutator set enumeration capped at order {cap}")
    table = g.own_table()
    if method == "all-pairs":
        k = table.commutator_set_all_pairs()
    elif method == "class-reps":
        k = table.commutator_set_by_classes()
    else:
        raise ValueError(f"unknown commutator enumeration method {method!r}")
    derived, _ = table.derived_data()
    if not k <= derived:
        raise AssertionError("commutator set escaped the derived subgroup")
    return CommutatorSet(
        indices=frozenset(k),
        derived_order=len(derived),
        equals_derived=k == derived,
        deficiency=len(derived) - len(k),
    )


@dataclass
class ComplementResult:
    status: str  # "found", "not-found" or "inconclusive"
    complement: PermGroup | None
    exhaustive: bool

    def __bool__(self):
        return self.status == "found"


def find_complement(g, n, budget=200_000):
    """Search for a complement of the normal subgroup n inside g.

    A complement witnesses that the extension splits.  Every complement is
    generated by lifts of a fixed generating sequence of the quotient, one
    lift per coset, so scanning all |n|^k lift tuples is a complete
    search: "not-found" with ``exhaustive`` set is a definitive answer,
    otherwise the search is inconclusive.
    """
    own = g.own_table()
    members = g.indices_of(n)
    sub_gens = [i for i in members if i != 0]
    if not own.is_normal_set(members, sub_gens):
        raise ValueError("can only search complements of a normal subgroup")

    quotient, _, reps = own.coset_action(members)
    index = quotient.n
    if index == 1:
        return ComplementResult("found", g.subgroup_from_indices([], {0}), True)

    qseq = _min_generating_sequence(quotient)
    nlist = sorted(members)
    lifts = []
    for q in qseq:
        lrow = own.lcolumn(reps[q])
        lifts.append([lrow[u] for u in nlist])

    tried = 0
    exhaustive = True
    for combo in itertools.product(*lifts):
        tried += 1
        if tried > budget:
            exhaustive = False
            break
        sub = own.subgroup_closure(combo, cap=index + 1)
        if sub is None or len(sub) != index:
            continue
        if any(x in members for x in sub if x != 0):
            continue
        return ComplementResult("found", g.subgroup_from_indices(combo, sub), True)
    if exhaustive:
        return ComplementResult("not-found", None, True)
    return ComplementResult("inconclusive", None, False)
