"""Isomorphism testing, automorphism groups, commutator sets, complements.

Isomorphisms, automorphisms and complements are found by one backtracking
search over the images of a greedily chosen minimal generating sequence.
A candidate is pruned by its order, and against each image already chosen
by whether the two commute and by the order of their product; between
groups of one order, class sizes of the candidate and of the product must
match too.  Every accepted assignment is verified as an injective
homomorphism on the full element table, so a positive answer is always a
checked witness.  A complement of N in G is the image of a section of
G -> G/N, so it is searched as an injective homomorphism from G/N whose
generator images lie in their cosets; class sizes in G/N and in G differ,
so that search compares orders alone.  Every search runs under
``SEARCH_NODE_BUDGET`` and raises ``BudgetExceededError`` when it runs
out, so a negative answer is always exhaustive.  Each image chosen is pushed with its right and left
multiplication columns, which give both its products and whether it
commutes with a later image or a centralizer candidate.  Candidates for
one image that are conjugate under the centralizer of the images already
chosen stand or fall together, so one of each class is searched, and a
refuted one drops its class off a lazy conjugation column.  The last
image is never pushed with its columns: its right column is a
``lazy_column`` that the leaf check fills only as far as it reads, which
for a refuted leaf is up to its first contradiction.  Automorphisms are
counted level by level along the generating sequence: the orbit of each
element under the automorphisms that fix the earlier ones is grown from
inner automorphisms and from automorphisms already found, and only
candidates outside it are searched.
"""

from __future__ import annotations

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


def _hom_image(gcols, hcols, target_order=None):
    """Full image array if seq -> images extends to an injective homomorphism.

    ``gcols`` holds the right-multiplication columns of the generating
    sequence seq in g, which a search computes once for all its leaves,
    and ``hcols`` those of the images in a table of ``target_order``
    elements, by default the order of g (any column may be a
    ``lazy_column``).  The map is grown along g from the identity and
    refuted at its first contradiction: two images for one element, or
    one image for two.
    """
    n = len(gcols[0])
    img = [-1] * n
    img[0] = 0
    used = bytearray(target_order or n)
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


def _class_keys(table):
    """(order, class size) of every element of a table."""
    class_of, _, sizes = table.class_partition()
    return list(zip(table.element_orders(), map(sizes.__getitem__, class_of)))


class _Search:
    """Shared backtracking state for isomorphism, automorphism and section
    searches: injective homomorphisms from the table ``tg`` into ``th``.

    The images chosen so far sit on a stack, ``chosen``, next to two
    columns of each image y_q: its right-multiplication column (y * y_q,
    for the homomorphism check at a leaf) and its left-multiplication
    column (y_q * y).  y_q commutes with y iff the two agree at y.  The
    image of the last sequence element is never pushed: ``leaf`` checks it
    on a lazily filled column.  The matching relations of the generating
    sequence in g are fixed, so they are read once, by ``mult``, and so
    are the right columns ``gcols`` of the sequence that every leaf reads.
    """

    def __init__(self, tg, th, seq):
        self.tg = tg
        self.th = th
        self.seq = seq
        self.g_orders = tg.element_orders()
        self.h_orders = th.element_orders()
        self.nodes = 0
        self.budget = limit("SEARCH_NODE_BUDGET")
        # a section of G -> G/N need not keep class sizes, an isomorphism does
        if tg.n == th.n:
            self.g_keys, self.h_keys = _class_keys(tg), _class_keys(th)
        else:
            self.g_keys, self.h_keys = self.g_orders, self.h_orders
        # g_rel[pos][q]: (key of x_q * x_pos, whether x_q and x_pos commute)
        self.g_rel = [[] for _ in seq]
        for pos, x in enumerate(seq):
            for xq in seq[:pos]:
                xq_x = tg.mult(xq, x)
                self.g_rel[pos].append((self.g_keys[xq_x], xq_x == tg.mult(x, xq)))
        self.gcols = [tg.column(x) for x in seq]
        self.chosen = []
        self.h_rcols = []
        self.h_lcols = []

    def candidates(self, x):
        """The elements of h with the order and class size of x in g (tables
        of one order)."""
        key, h_keys = self.g_keys[x], self.h_keys
        return [j for j in range(1, self.th.n) if h_keys[j] == key]

    def compatible(self, pos, y):
        """Whether y may follow ``chosen`` as the image of ``seq[pos]``: for
        each chosen y_q, y_q * y has the key of x_q * x (its order and,
        between tables of one order, its class size) and y_q commutes with
        y iff x_q commutes with x."""
        h_keys = self.h_keys
        for (key, commutes), rcol, lcol in zip(self.g_rel[pos], self.h_rcols, self.h_lcols):
            yq_y = lcol[y]
            if h_keys[yq_y] != key or (yq_y == rcol[y]) != commutes:
                return False
        return True

    def centralizing(self, K):
        """The members of K that commute with the image pushed last."""
        rcol, lcol = self.h_rcols[-1], self.h_lcols[-1]
        return [z for z in K if rcol[z] == lcol[z]]

    def push(self, y, rcol):
        """Choose y, whose right column is ``rcol``, as the image of the next
        sequence element but the last."""
        self.chosen.append(y)
        self.h_rcols.append(rcol)
        self.h_lcols.append(self.th.lcolumn(y))

    def pop(self):
        self.chosen.pop()
        self.h_rcols.pop()
        self.h_lcols.pop()

    def leaf(self, y):
        """Image array if ``chosen`` and then y, the image of the last
        sequence element, extend to an injective homomorphism, else None.

        y's right column is a ``lazy_column``, so a refuted leaf fills only
        the entries ``_hom_image`` reads before its first contradiction.
        """
        return _hom_image(self.gcols, self.h_rcols + [self.th.lazy_column(y)], self.th.n)

    def tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceededError(
                f"backtracking search exceeded {self.budget} nodes"
            )


class IsomorphismResult:
    def __init__(self, isomorphic, generators=None, images=None):
        self.isomorphic = isomorphic
        self.generators = generators  # generating sequence of g, or None
        self.images = images  # their images in h

    def __bool__(self):
        return self.isomorphic


def _tables_isomorphic(tg, th):
    """Image array of an isomorphism between two element tables, or None."""
    if tg.n != th.n:
        return None, None, None
    if tg.n == 1:
        return [], [], [0]
    if _fingerprint_of(tg) != _fingerprint_of(th):
        return None, None, None
    seq = _min_generating_sequence(tg)
    search = _Search(tg, th, seq)
    cands = [search.candidates(x) for x in seq]
    if not all(cands):
        return None, None, None
    # an isomorphism followed by conjugation in h is another one, so K is all of h
    img = _first_leaf(search, cands, range(th.n))
    if img is None:
        return None, None, None
    return seq, [img[x] for x in seq], img


def isomorphic(g, h):
    """Isomorphism test with a verified generator-image witness."""
    order_g, order_h = g.order(), h.order()
    if order_g != order_h:
        return IsomorphismResult(False)
    tg = g.own_table()
    th = h.own_table()
    seq, images, img = _tables_isomorphic(tg, th)
    if img is None:
        return IsomorphismResult(False)
    gen_perms = [g.perm_of(i) for i in seq]
    img_perms = [h.perm_of(j) for j in images]
    return IsomorphismResult(True, gen_perms, img_perms)


class AutomorphismGroup:
    """|Aut(G)| and |Inn(G)| of a group, counted by ``automorphism_group``.

    ``generators`` are image arrays on the element table: conjugations by
    generators of the centralizers met on the identity path, then the
    automorphisms the search found and verified.  Together they generate
    Aut(G); ``group`` is built from them on first access.
    """

    def __init__(self, order, inner_order, table, generators):
        self.order = order
        self.inner_order = inner_order
        self.table = table  # the group's own element table
        self.generators = generators  # image arrays of automorphisms generating Aut(G)

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


def _first_leaf(search, cands, K):
    """Image array of the first verified leaf below ``search.chosen``, or None.

    ``K`` lists elements of h that centralize every image chosen so far and
    whose conjugation maps the candidates of each level onto themselves
    (all of h for isomorphisms, N for sections of G -> G/N).  Conjugation
    by them fixes those images, so the candidates of the next level split
    into K-orbits and one representative of each is searched,
    in ascending order, each checked for compatibility only when its turn
    comes.  A refuted representative drops its K-orbit, read off a lazy
    conjugation column entry by entry.  A None answer is exhaustive: no
    choice of the remaining images extends ``search.chosen`` to an
    injective homomorphism (an isomorphism when g and h have one order, an
    automorphism when they are one table, a section when the candidates
    are lifts).
    """
    pos = len(search.chosen)
    refuted = set()
    for rep in cands[pos]:  # ascending: the least candidate of each K-orbit
        if rep in refuted:
            continue
        search.tick()
        if not search.compatible(pos, rep):
            continue
        img = _subtree(search, cands, K, rep)
        if img is not None:
            return img
        conj = search.th.lazy_conj_column(rep)  # z -> z^-1 rep z
        refuted.update(conj[z] for z in K)
    return None


def _subtree(search, cands, K, y):
    """Image array of the first verified leaf with y as the next image, or None.

    The last image is checked by ``leaf`` without a push; any other is
    pushed, and the search below it runs on the members of K that
    centralize it too.
    """
    if len(search.chosen) == len(search.seq) - 1:
        return search.leaf(y)
    search.push(y, search.th.column(y))
    img = _first_leaf(search, cands, search.centralizing(K))
    search.pop()
    return img


def automorphism_group(g):
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
    cap = limit("MAX_AUT_ORDER")
    if n > cap:
        raise CapacityError(f"automorphism computation capped at order {cap}")
    table = g.own_table()
    seq = _min_generating_sequence(table)
    inner_order = n // len(table.center_set())
    if not seq:  # trivial group
        return AutomorphismGroup(1, 1, table, [])

    search = _Search(table, table, seq)
    cands = [search.candidates(x) for x in seq]

    # the identity path: K_k is the centralizer of x_0, ..., x_{k-1}
    centralizers = [range(n)]
    for x, col in zip(seq[:-1], search.gcols):  # x maps to itself: its column is in gcols
        search.push(x, col)
        centralizers.append(search.centralizing(centralizers[-1]))

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
            img = _subtree(search, cands, K, y)
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


class CommutatorSet:
    def __init__(self, indices, derived_order):
        self.indices = indices  # frozenset of the indices of K(G) in the group's own table
        self.derived_order = derived_order
        self.equals_derived = len(indices) == derived_order
        self.deficiency = derived_order - len(indices)  # |G'| - |K(G)|


def commutator_set(g):
    """K(G) = all commutators; a subset of G' that can be proper.

    K(G) is a union of conjugacy classes, so the first arguments run over
    class representatives only: n products in all.
    """
    table = g.own_table()
    k = table.commutator_set_by_classes()
    derived, _ = table.derived_data()
    if not k <= derived:
        raise AssertionError("commutator set escaped the derived subgroup")
    return CommutatorSet(frozenset(k), len(derived))


class ComplementResult:
    def __init__(self, status, complement):
        self.status = status  # "found" or "not-found"; a search out of nodes raises instead
        self.complement = complement  # a PermGroup, or None

    def __bool__(self):
        return self.status == "found"


def find_complement(g, n):
    """Search for a complement of the normal subgroup n inside g.

    A complement witnesses that the extension splits.  It is the image of
    a section Q = g/n -> g, an injective homomorphism that sends each
    coset into itself, so the search looks for the images of Q's
    generating sequence: the image of q is a member of the coset q with
    the order of q.  Conjugation by n maps sections to sections, so K
    starts as n.  The search is complete: "not-found" is a definitive
    answer, and a search that runs out of ``SEARCH_NODE_BUDGET`` nodes
    raises ``BudgetExceededError``.
    """
    own = g.own_table()
    members = g.indices_of(n)
    if not own.is_normal_set(members):
        raise ValueError("can only search complements of a normal subgroup")

    quotient, coset_of, _ = own.coset_action(members)
    if quotient.n == 1:
        return ComplementResult("found", g.subgroup_from_indices([], {0}))

    qseq = _min_generating_sequence(quotient)
    search = _Search(quotient, own, qseq)
    q_orders, orders = search.g_orders, search.h_orders
    cands = [
        [y for y in range(own.n) if coset_of[y] == q and orders[y] == q_orders[q]]
        for q in qseq
    ]
    img = _first_leaf(search, cands, sorted(members)) if all(cands) else None
    if img is None:
        return ComplementResult("not-found", None)
    return ComplementResult(
        "found", g.subgroup_from_indices([img[q] for q in qseq], set(img))
    )
