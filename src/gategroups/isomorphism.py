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
from functools import cached_property

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


def _hom_image(gcols, hcols):
    """Full image array if seq -> images extends to a bijective homomorphism.

    ``gcols`` holds the right-multiplication columns of the generating
    sequence seq in g, which a search computes once for all its leaves,
    and ``hcols`` those of the images in a table of the same order.
    """
    n = len(gcols[0])
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
    seen = bytearray(n)
    for v in img:
        if seen[v]:
            return None
        seen[v] = 1
    return img


class _Search:
    """Shared backtracking state for isomorphism / automorphism searches.

    The images chosen so far sit on a stack, ``chosen``, next to the
    columns of each image that later steps read: its right-multiplication
    column (for the homomorphism check at a leaf), its conjugation column
    (y_q commutes with y iff ``conj[y] == y_q``) and, below the last level,
    its left-multiplication column (y_q * y).  The matching relations of
    the generating sequence in g are fixed, so they are read once from its
    columns.
    """

    def __init__(self, tg, th, seq, node_budget=None):
        self.tg = tg
        self.th = th
        self.seq = seq
        self.g_orders = tg.element_orders()
        self.h_orders = th.element_orders()
        self.g_classes = tg.class_partition()
        self.h_classes = th.class_partition()
        self.nodes = 0
        self.budget = node_budget or limit("SEARCH_NODE_BUDGET")
        # g_rel[pos][q]: (order of x_q * x_pos, whether x_q and x_pos commute)
        self.g_rel = [[] for _ in seq]
        for q, xq in enumerate(seq[:-1]):
            lcol, conj = tg.lcolumn(xq), tg.conj_column(xq)
            for pos in range(q + 1, len(seq)):
                x = seq[pos]
                self.g_rel[pos].append((self.g_orders[lcol[x]], conj[x] == xq))
        self.chosen = []
        self.h_rcols = []
        self.h_conj = []
        self.h_lcols = []

    def key_g(self, i):
        class_of, _, sizes = self.g_classes
        return (self.g_orders[i], sizes[class_of[i]])

    def key_h(self, j):
        class_of, _, sizes = self.h_classes
        return (self.h_orders[j], sizes[class_of[j]])

    def candidates(self, x):
        key = self.key_g(x)
        return [j for j in range(1, self.th.n) if self.key_h(j) == key]

    def compatible(self, pos, y):
        """Whether y may follow ``chosen`` as the image of ``seq[pos]``."""
        h_orders = self.h_orders
        for q, (order, commutes) in enumerate(self.g_rel[pos]):
            if h_orders[self.h_lcols[q][y]] != order:
                return False
            if (self.h_conj[q][y] == self.chosen[q]) != commutes:
                return False
        return True

    def push(self, y):
        """Choose y as the image of the next sequence element."""
        self.chosen.append(y)
        self.h_rcols.append(self.th.column(y))
        self.h_conj.append(self.th.conj_column(y))
        deeper = len(self.chosen) < len(self.seq)
        self.h_lcols.append(self.th.lcolumn(y) if deeper else None)

    def pop(self):
        self.chosen.pop()
        self.h_rcols.pop()
        self.h_conj.pop()
        self.h_lcols.pop()

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
    search = _Search(tg, th, seq, node_budget)
    cand = []
    for x in seq:
        lst = search.candidates(x)
        if not lst:
            return None, None, None
        cand.append(lst)
    gcols = [tg.column(x) for x in seq]

    def backtrack(pos):
        if pos == len(seq):
            return _hom_image(gcols, search.h_rcols)
        for y in cand[pos]:
            search.tick()
            if not search.compatible(pos, y):
                continue
            search.push(y)
            img = backtrack(pos + 1)
            if img is not None:
                return img
            search.pop()
        return None

    img = backtrack(0)
    if img is None:
        return None, None, None
    return seq, list(search.chosen), img


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
    """|Aut(G)| and |Inn(G)| of a group, counted by ``automorphism_group``.

    ``group``, the automorphism group acting on the element table, is built
    on first access from the inner automorphisms and the images of the
    generating sequence at the accepted search leaves.
    """

    order: int
    inner_order: int
    table: object  # the group's own element table
    gcols: list  # right-multiplication columns of the generating sequence
    leaves: list  # its images, one tuple per accepted leaf

    def outer_order(self):
        return self.order // self.inner_order

    @cached_property
    def group(self):
        table = self.table
        n = table.n

        def leaf_maps():
            for images in self.leaves:
                img = _hom_image(self.gcols, [table.column(y) for y in images])
                if img is None:
                    raise AssertionError(f"leaf {images} is not an automorphism")
                yield img

        inner = (
            [table.conj_by_gen(i, gpos) for i in range(n)]
            for gpos in range(len(table.gen_indices))
        )
        gens = _reduce_perm_generators(itertools.chain(inner, leaf_maps()), n, self.order)
        return PermGroup(n, gens, order=self.order)


def automorphism_group(g, extended=False, node_budget=None):
    """Automorphism group of g: its order is counted, the group built on demand.

    Counting is factored through the inner automorphisms: at each level
    of the generator-image backtracking, candidates split into orbits
    under conjugation by the pointwise centralizer K of the images chosen
    so far, and every orbit contributes |orbit| times the count at its
    representative (composing with an inner automorphism from K moves
    the next image around its K-orbit without disturbing earlier ones).
    Every accepted leaf is verified as a bijective homomorphism on the
    whole table; with the inner automorphisms the accepted leaves
    generate the full automorphism group, which ``group`` builds on
    demand.
    """
    n = g.order()
    cap = limit("MAX_AUT_ORDER_EXTENDED") if extended else limit("MAX_AUT_ORDER")
    if n > cap:
        raise CapacityError(f"automorphism computation capped at order {cap}")
    table = g.own_table()
    seq = _min_generating_sequence(table)
    inner_order = n // len(table.center_set())
    leaves = []
    gcols = [table.column(x) for x in seq]
    if not seq:  # trivial group
        return AutomorphismGroup(1, 1, table, gcols, leaves)

    search = _Search(table, table, seq, node_budget)
    cands = [search.candidates(x) for x in seq]

    def count(pos, K):
        if pos == len(seq):
            if _hom_image(gcols, search.h_rcols) is None:
                return 0
            leaves.append(tuple(search.chosen))
            return 1
        surv = []
        for y in cands[pos]:
            search.tick()
            if search.compatible(pos, y):
                surv.append(y)
        subtotal = 0
        unseen = set(surv)
        while unseen:
            rep = min(unseen)
            search.push(rep)
            conj = search.h_conj[-1]
            orbit = {conj[z] for z in K} & unseen
            k_next = [z for z in K if conj[z] == rep]
            subtotal += len(orbit) * count(pos + 1, k_next)
            search.pop()
            unseen -= orbit
        return subtotal

    # at the first level K is all of G: the orbits are conjugacy classes
    return AutomorphismGroup(count(0, range(n)), inner_order, table, gcols, leaves)


def _reduce_perm_generators(perms, degree, order):
    """Greedy small generating subset of an iterable of permutations.

    Membership goes through a stabilizer chain, so nothing is ever
    materialised even when the generated group is large.  ``perms`` is
    read only until the chain reaches ``order``.
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


def commutator_set(g, extended=False):
    """K(G) = all commutators; a subset of G' that can be proper.

    K(G) is a union of conjugacy classes, so the first arguments run over
    class representatives only.
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
    k = table.commutator_set_by_classes()
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
