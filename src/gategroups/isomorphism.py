"""Isomorphism testing, automorphism groups, commutator sets, complements.

Isomorphisms and automorphisms are found by backtracking over the images
of a greedily chosen minimal generating sequence, pruning candidates by
element order, conjugacy class size and pairwise product/commutation
relations; every accepted assignment is verified as a bijective
homomorphism on the full element table, so a positive answer is always a
checked witness.  Candidates for one image that are conjugate under the
centralizer of the images already chosen stand or fall together, so one
of each class is searched.  The last image is never pushed with its
columns: its right column is a ``lazy_column`` that the leaf check fills
only as far as it reads, which for a refuted leaf is up to its first
contradiction.  Automorphisms are counted level by level along the
generating sequence: the orbit of each element under the automorphisms
that fix the earlier ones is grown from inner automorphisms and from
automorphisms already found, and only candidates outside it are searched.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from gategroups.config import limit
from gategroups.errors import BudgetExceededError, CapacityError
from gategroups.perm import Permutation, PermGroup
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
    seq, members, elems = [], {0}, [0]
    for i in ranked:
        if i in members:
            continue
        seq = table._extend(members, elems, seq, [i])
        if len(members) == table.n:
            break
    return seq


def _hom_image(gcols, hcols):
    """Full image array if seq -> images extends to a bijective homomorphism.

    ``gcols`` holds the right-multiplication columns of the generating
    sequence seq in g, which a search computes once for all its leaves,
    and ``hcols`` those of the images in a table of the same order (any
    of them may be a ``lazy_column``).  The map is grown along g from the
    identity and refuted at its first contradiction: two images for one
    element, or one image for two.
    """
    n = len(gcols[0])
    img = [-1] * n
    img[0] = 0
    used = bytearray(n)
    used[0] = 1
    queue = [0]
    for e in queue:
        base = img[e]
        for gcol, hcol in zip(gcols, hcols):
            e2 = gcol[e]
            y2 = hcol[base]
            cur = img[e2]
            if cur < 0:
                if used[y2]:
                    return None
                used[y2] = 1
                img[e2] = y2
                queue.append(e2)
            elif cur != y2:
                return None
    return img if len(queue) == n else None


class _Search:
    """Shared backtracking state for isomorphism / automorphism searches.

    The images chosen so far sit on a stack, ``chosen``, next to the
    columns of each image that later steps read: its right-multiplication
    column (for the homomorphism check at a leaf), its conjugation column
    (y_q commutes with y iff ``conj[y] == y_q``) and its
    left-multiplication column (y_q * y).  The image of the last sequence
    element is never pushed: ``leaf`` checks it on a lazily filled column.
    The matching relations of the generating sequence in g are fixed, so
    they are read once from its columns.
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
        """Choose y as the image of the next sequence element but the last."""
        self.chosen.append(y)
        self.h_rcols.append(self.th.column(y))
        self.h_conj.append(self.th.conj_column(y))
        self.h_lcols.append(self.th.lcolumn(y))

    def pop(self):
        self.chosen.pop()
        self.h_rcols.pop()
        self.h_conj.pop()
        self.h_lcols.pop()

    def leaf(self, gcols, y):
        """Image array if ``chosen`` and then y, the image of the last
        sequence element, extend to a bijective homomorphism, else None.

        y's right column is a ``lazy_column``, so a refuted leaf fills only
        the entries ``_hom_image`` reads before its first contradiction.
        """
        return _hom_image(gcols, self.h_rcols + [self.th.lazy_column(y)])

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
    cands = [search.candidates(x) for x in seq]
    if not all(cands):
        return None, None, None
    # an isomorphism followed by conjugation in h is another one, so K is all of h
    img = _first_leaf(search, cands, [tg.column(x) for x in seq], range(th.n))
    if img is None:
        return None, None, None
    return seq, [img[x] for x in seq], img


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

    ``generators`` are image arrays on the element table: conjugations by
    generators of the centralizers met on the identity path, then the
    automorphisms the search found and verified.  Together they generate
    Aut(G); ``group`` is built from them on first access.
    """

    order: int
    inner_order: int
    table: object  # the group's own element table
    generators: list  # image arrays of automorphisms generating Aut(G)

    def outer_order(self):
        return self.order // self.inner_order

    @cached_property
    def group(self):
        gens = [p for p in map(Permutation, self.generators) if not p.is_identity]
        n = self.table.n
        return PermGroup(n, gens or [Permutation.identity(n)], order=self.order)


def _orbit(points, gens):
    """Orbit of a set of element indices under image arrays."""
    orbit = set(points)
    queue = list(orbit)
    for x in queue:
        for img in gens:
            y = img[x]
            if y not in orbit:
                orbit.add(y)
                queue.append(y)
    return orbit


def _first_leaf(search, cands, gcols, K):
    """Image array of the first verified leaf below ``search.chosen``, or None.

    ``K`` lists elements of h that centralize every image chosen so far.
    Conjugation by them fixes those images, so the candidates of the next
    level split into K-orbits and one representative of each is searched,
    in ascending order, each checked for compatibility only when its turn
    comes; below it K shrinks to the centralizer of the representative
    too.  The last level pushes nothing: ``leaf`` checks a representative
    on a lazily filled column, and a refuted one drops its K-orbit read
    off a lazy conjugation column, entry by entry.  A None answer is
    exhaustive: no choice of the remaining images extends
    ``search.chosen`` to an isomorphism (an automorphism when g and h are
    one table).
    """
    pos = len(search.chosen)
    refuted = set()
    for rep in cands[pos]:  # ascending: the least candidate of each K-orbit
        if rep in refuted:
            continue
        search.tick()
        if not search.compatible(pos, rep):
            continue
        if pos == len(search.seq) - 1:
            img = search.leaf(gcols, rep)
            conj = search.th.lazy_conj_column(rep)  # z -> z^-1 rep z
        else:
            search.push(rep)
            conj = search.h_conj[-1]
            img = _first_leaf(search, cands, gcols, [z for z in K if conj[z] == rep])
            search.pop()
        if img is not None:
            return img
        refuted.update(conj[z] for z in K)
    return None


def automorphism_group(g, extended=False, node_budget=None):
    """Automorphism group of g, counted along a stabilizer chain.

    An automorphism is fixed by the images of the generating sequence
    x_0, ..., x_{m-1}.  Level k counts the orbit of x_k under A_k, the
    automorphisms fixing x_0, ..., x_{k-1}, and |Aut(G)| is the product
    of the orbit lengths.  The levels run deepest first.  A_k starts
    from conjugation by generators of the centralizer K_k of
    x_0, ..., x_{k-1} and from the automorphisms found at deeper levels.
    Each compatible candidate image y of x_k outside the orbit and not
    yet refuted is tried: its subtree is searched, with candidates split
    into orbits under the centralizer of the images chosen so far, until
    ``_hom_image`` verifies a leaf; at k = m-1, y is the leaf and ``leaf``
    checks it without pushing.  That automorphism joins A_k and the
    orbit grows; if no leaf verifies, the search was exhaustive and the
    whole orbit of y under A_k is refuted.  The count is exact: every
    orbit point is reached by verified automorphisms and every other
    candidate is refuted.  The generators of every A_k together generate
    Aut(G), from which ``group`` is built on demand.
    """
    n = g.order()
    cap = limit("MAX_AUT_ORDER_EXTENDED") if extended else limit("MAX_AUT_ORDER")
    if n > cap:
        raise CapacityError(f"automorphism computation capped at order {cap}")
    table = g.own_table()
    seq = _min_generating_sequence(table)
    inner_order = n // len(table.center_set())
    if not seq:  # trivial group
        return AutomorphismGroup(1, 1, table, [])

    search = _Search(table, table, seq, node_budget)
    cands = [search.candidates(x) for x in seq]
    gcols = [table.column(x) for x in seq]

    # the identity path: K_k is the centralizer of x_0, ..., x_{k-1}
    centralizers = [range(n)]
    for x in seq[:-1]:
        search.push(x)
        conj = search.h_conj[-1]
        centralizers.append([z for z in centralizers[-1] if conj[z] == x])

    inv = table.inverses()
    gens = []  # image arrays; all of them fix x_0, ..., x_{k-1} at level k
    kgens = []  # elements generating the current centralizer
    members, elems = {0}, [0]
    order = 1
    for k in reversed(range(len(seq))):
        K = centralizers[k]
        for z in K:
            if z not in members:
                kgens = table._extend(members, elems, kgens, [z])
                # conjugation by z: x_i -> z^-1 x_i z
                gens.append(list(map(table.lcolumn(inv[z]).__getitem__, table.column(z))))
        orbit = _orbit([seq[k]], gens)
        refuted = set()
        for y in cands[k]:
            if y in orbit or y in refuted:
                continue
            search.tick()
            if not search.compatible(k, y):
                continue
            if k == len(seq) - 1:
                img = search.leaf(gcols, y)
            else:
                search.push(y)
                conj = search.h_conj[-1]
                img = _first_leaf(search, cands, gcols, [z for z in K if conj[z] == y])
                search.pop()
            if img is None:
                refuted |= _orbit([y], gens)
            else:
                gens.append(img)
                orbit = _orbit(orbit, gens)
        order *= len(orbit)
        if k:
            search.pop()
    return AutomorphismGroup(order, inner_order, table, gens)


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
