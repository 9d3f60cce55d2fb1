"""Index-level multiplication engine for enumerated finite groups.

An ElementTable names the elements of a finite group 0..n-1 (0 is the
identity) and stores, for every generator, the permutation induced by
right multiplication.  Everything else (left multiplication, inverses,
words, general products) is derived from those columns, so structural
computations on groups of order up to ~2*10^5 stay cheap even when the
elements themselves are large objects such as 4x4 cyclotomic matrices.

Every group is enumerated by ``from_permutations``: one breadth-first
``orbit`` that names each element by its images of a base of points and
fills the columns in the same pass.  Permutation groups act on their
points, matrix groups on the orbit of their rows, and quotients on their
cosets.  ``orbit`` asks for the images of a point under all generators in
one call, so a key of two or more base points is mapped by one
``itemgetter`` call per generator, in C, rather than a Python frame per
(element, generator) pair.

A whole column (multiplication by one element on either side, or
conjugation) is filled in one O(n) pass along a spanning tree from the
identity, a Python step per element.  It pays when the reads spread over
the whole table, as in a search.  When a search may stop at its first
few reads, ``lazy_column(j)`` and ``lazy_conj_column(j)`` fill the same
columns entry by entry, only where they are read.  When the reads are
confined to a few conjugacy classes or to a subgroup, ``products(j, xs)``
pays instead: it replays the word of j over the list xs, one ``map`` over
a generator column per letter, so |xs|·|word(j)| lookups run in C.  A single product ``mult(i, j)`` replays the word of j
and costs O(|word(j)|).

Subgroups and normal closures need no whole column either: ``_extend``
grows a subgroup one right coset at a time (Dimino), replaying the word
of a generator over a whole coset, and a normal closure forms each
conjugate g^-1 s g from the inverse of the table generator g.
"""

from __future__ import annotations

from itertools import islice
from operator import itemgetter

from gategroups.errors import ClosureOverflowError

__all__ = ["ElementTable", "orbit"]


def orbit(seeds, images, ngens, cap, limit_name):
    """Breadth-first orbit of the seed points under ``ngens`` generators.

    ``images(x)`` gives the images of the point x under all the
    generators, in generator order.  Returns ``(index, columns)``: the
    points mapped to their positions in discovery order, seeds first, and
    for every generator the column ``i -> position of the image of point
    i``.  Raises ClosureOverflowError once more than ``cap`` points appear.
    """
    points = list(seeds)
    index = {p: i for i, p in enumerate(points)}
    columns = [[] for _ in range(ngens)]
    for x in points:
        for y, col in zip(images(x), columns):
            j = index.get(y)
            if j is None:
                if len(points) >= cap:
                    raise ClosureOverflowError(
                        f"enumeration exceeded {cap}, the cap set by GATEGROUPS_{limit_name}"
                    )
                j = index[y] = len(points)
                points.append(y)
            col.append(j)
    return index, columns


class ElementTable:
    def __init__(self, n, gen_indices, rmul):
        self.n = n
        self.gen_indices = list(gen_indices)
        self._rmul = [list(col) for col in rmul]
        self._lmul = None
        self._conj = None  # conjugation column of every generator
        self._inv = None
        self._bfs = None  # (order, prev, genpos): right spanning tree from e
        self._lbfs = None  # the same along the left multiplications
        self._classes = None
        self._derived = None
        self._orders = None
        self._perms = None  # generator image tuples
        self._base = None  # base points whose images name an element
        self.key_index = None  # base images -> element index, in index order
        self.rows = None  # row vector -> point, when the points are matrix rows

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_permutations(cls, perms, base, cap, limit_name="MAX_ENUMERATION"):
        """Enumerate the group generated by permutation tuples by base images.

        Element i is named by its key, the tuple of its images of the base
        points, and a generator acts on a key entrywise.  The generator
        tuples are kept so ``perm_of`` can replay an element's word.  Raises
        ClosureOverflowError once more than ``cap`` elements appear.
        """
        perms = [tuple(p) for p in perms]
        base = tuple(base)
        if len(base) > 1:
            images = lambda key: map(itemgetter(*key), perms)
        else:  # itemgetter of one point gives a bare int, and of none fails
            images = lambda key: [tuple(map(p.__getitem__, key)) for p in perms]
        index, rmul = orbit([base], images, len(perms), cap, limit_name)
        table = cls(len(index), [col[0] for col in rmul], rmul)
        table._perms, table._base, table.key_index = perms, base, index
        return table

    # -- element access ------------------------------------------------------

    def perm_of(self, i):
        """Element i as a permutation of the points, replayed from its word."""
        x = tuple(range(len(self._perms[0])))
        # words are empty on fewer than two points, where itemgetter gives no tuple
        for g in self.word(i):
            x = itemgetter(*x)(self._perms[g])
        return x

    def index_of(self, imgs):
        """Index of the element acting as the permutation ``imgs``.

        Raises ValueError if no element of the table acts that way.
        """
        imgs = tuple(imgs)
        if len(imgs) == len(self._perms[0]):
            i = self.key_index.get(tuple(imgs[b] for b in self._base))
            if i is not None and self.perm_of(i) == imgs:
                return i
        raise ValueError("permutation is not an element of the group")

    def indices_of(self, other, members):
        """Indices here of the elements ``members`` of the table ``other``.

        Tables of matrix groups compare rows, since a matrix is determined
        by its rows; other tables compare permutations of the same points.
        Raises ValueError if an element is missing here, or if only one of
        the tables acts on rows.
        """
        if (self.rows is None) != (other.rows is None):
            raise ValueError("a matrix group and a permutation group share no elements")
        if self.rows is None:
            return {self.index_of(other.perm_of(a)) for a in members}
        keys, rows = list(other.key_index), list(other.rows)
        try:
            return {self.key_index[tuple(self.rows[rows[k]] for k in keys[a])] for a in members}
        except KeyError:
            raise ValueError("matrix is not an element of the group") from None

    def _ensure_tree(self):
        """Spanning tree along the right multiplications: x_i = x_prev * s."""
        if self._bfs is None:
            self._bfs = _spanning_tree(self._rmul)
        return self._bfs

    def _ensure_left_tree(self):
        """Spanning tree along the left multiplications: x_i = t * x_prev."""
        if self._lbfs is None:
            self._lbfs = _spanning_tree(self._ensure_lmul())
        return self._lbfs

    def word(self, i):
        """Generator positions whose left-to-right product is element i."""
        _, prev, genpos = self._ensure_tree()
        w = []
        while i != 0:
            w.append(genpos[i])
            i = prev[i]
        w.reverse()
        return w

    def _ensure_lmul(self):
        if self._lmul is None:
            self._lmul = [self.lcolumn(g) for g in self.gen_indices]
        return self._lmul

    def _lmul_inv(self):
        """Left multiplication by every generator's inverse, not kept: only
        ``inverses`` and ``_ensure_conj`` read it, once each."""
        return [_invert(col) for col in self._ensure_lmul()]

    def _ensure_conj(self):
        """Conjugation column of every generator g: x -> g^-1 x g."""
        if self._conj is None:
            self._conj = [
                list(map(rmul.__getitem__, linv))
                for rmul, linv in zip(self._rmul, self._lmul_inv())
            ]
        return self._conj

    def inverses(self):
        if self._inv is None:
            # (x * s)^-1 = s^-1 * x^-1
            self._inv = _fill(self._ensure_tree(), 0, self._lmul_inv())
        return self._inv

    def mult(self, i, j):
        for g in self.word(j):
            i = self._rmul[g][i]
        return i

    def products(self, j, xs, left=False):
        """[x * x_j for x in xs], or [x_j * x for x in xs] when ``left``.

        Replays the word of j over the whole list, one ``map`` over a
        generator column per letter: right columns in word order, or left
        columns in reverse word order.
        """
        xs = list(xs)
        word = self.word(j)
        if left:
            cols, word = self._ensure_lmul(), reversed(word)
        else:
            cols = self._rmul
        for g in word:
            xs = list(map(cols[g].__getitem__, xs))
        return xs

    def column(self, j):
        """Right-multiplication column: i -> x_i * x_j."""
        # x_i = t * x_prev  =>  x_i * x_j = t * (x_prev * x_j)
        return _fill(self._ensure_left_tree(), j, self._ensure_lmul())

    def lazy_column(self, j):
        """``column(j)`` as a dict whose entries are filled when first read."""
        return _LazyFill(self._ensure_left_tree(), j, self._ensure_lmul())

    def lcolumn(self, j):
        """Left-multiplication column: i -> x_j * x_i."""
        # x_i = x_prev * s  =>  x_j * x_i = (x_j * x_prev) * s
        return _fill(self._ensure_tree(), j, self._rmul)

    def conj_column(self, j):
        """Conjugation column: i -> x_i^-1 * x_j * x_i."""
        # x_i = x_prev * s  =>  x_i^-1 x_j x_i = s^-1 (x_prev^-1 x_j x_prev) s
        return _fill(self._ensure_tree(), j, self._ensure_conj())

    def lazy_conj_column(self, j):
        """``conj_column(j)`` as a dict whose entries are filled when first read."""
        return _LazyFill(self._ensure_tree(), j, self._ensure_conj())

    def order_of(self, i):
        if i == 0:
            return 1
        col = None
        k = i
        m = 1
        while k != 0:
            if col is None and m >= 4:
                col = self.column(i)
            k = col[k] if col is not None else self.mult(k, i)
            m += 1
        return m

    def element_orders(self):
        """Orders for all elements (computed per conjugacy class)."""
        if self._orders is None:
            class_of, reps, _ = self.class_partition()
            rep_orders = [self.order_of(r) for r in reps]
            self._orders = [rep_orders[c] for c in class_of]
        return self._orders

    # -- structure -----------------------------------------------------------

    def center_set(self):
        lmul = self._ensure_lmul()
        ngen = range(len(self._rmul))
        return [
            i
            for i in range(self.n)
            if all(self._rmul[g][i] == lmul[g][i] for g in ngen)
        ]

    def class_partition(self):
        """Conjugacy classes: (class_of array, representative list, sizes)."""
        if self._classes is None:
            n = self.n
            class_of = [-1] * n
            reps = []
            sizes = []
            conj = self._ensure_conj()
            for i in range(n):
                if class_of[i] >= 0:
                    continue
                c = len(reps)
                reps.append(i)
                class_of[i] = c
                queue = [i]
                count = 1
                while queue:
                    x = queue.pop()
                    for col in conj:
                        y = col[x]
                        if class_of[y] < 0:
                            class_of[y] = c
                            count += 1
                            queue.append(y)
                sizes.append(count)
            self._classes = (class_of, reps, sizes)
        return self._classes

    def class_members(self):
        """The members of each conjugacy class, ascending, by class id."""
        class_of, _, sizes = self.class_partition()
        flat = iter(sorted(range(self.n), key=class_of.__getitem__))
        return [list(islice(flat, size)) for size in sizes]

    def subgroup_closure(self, gens, cap=None):
        """Member set of the subgroup generated by the given element indices,
        or None if it has more than ``cap`` members."""
        members = {0}
        return members if self._extend(members, [0], [], gens, cap) is not None else None

    def normal_closure_set(self, seeds):
        """Smallest normal subgroup containing the seed elements.

        Returns (member set, subgroup generator indices): the seeds, then
        each conjugate g^-1 s g of a generator s by a table generator g that
        the group so far lacks.
        """
        gens = [s for s in dict.fromkeys(seeds) if s != 0]
        members, elems = {0}, [0]
        used = self._extend(members, elems, [], gens)
        pending = list(gens)
        pairs = list(zip(self._rmul, self._gen_inverses()))
        while pending:
            s = pending.pop()
            for col, g_inv in pairs:
                y = col[self.mult(g_inv, s)]
                if y not in members:
                    gens.append(y)
                    pending.append(y)
                    used = self._extend(members, elems, used, [y])
        return members, gens

    def _gen_inverses(self):
        """Index of every generator's inverse, walked along its own column."""
        out = []
        for col in self._rmul:
            x, y = 0, col[0]
            while y != 0:  # y = x * g
                x, y = y, col[y]
            out.append(x)
        return out

    def _extend(self, members, elems, used, new, cap=None):
        """Grow the subgroup H = <used>, held in ``elems`` (identity first)
        and in ``members``, to <H, new>, one right coset at a time (Dimino).

        A new generator already in the group costs one lookup.  Adding s
        closes the group K so far under every generator t used: the cosets
        of K follow it in ``elems`` as blocks, Krt lies in their union once
        rt does, so each (coset, generator) pair costs one membership test,
        and a new coset is its parent block mapped by the word of t, one
        ``map`` per letter.  Returns the generators of the grown group,
        ``used`` then the new ones it took, or None once the group would
        pass ``cap`` members.
        """
        rmul = self._rmul
        used, words = list(used), None
        for s in new:
            if s in members:
                continue
            if words is None:
                words = [self.word(t) for t in used]
            used.append(s)
            words.append(self.word(s))
            size, start = len(elems), 0
            while start < len(elems):
                block = elems[start : start + size]
                start += size
                for word in words:
                    y = block[0]
                    for g in word:
                        y = rmul[g][y]
                    if y in members:
                        continue
                    if cap is not None and len(elems) + size > cap:
                        return None
                    image = block
                    for g in word:
                        image = list(map(rmul[g].__getitem__, image))
                    members.update(image)
                    elems += image
        return used

    def derived_data(self):
        """Derived subgroup: (frozenset of members, tuple of generator indices), cached."""
        if self._derived is None:
            gens, rmul = self.gen_indices, self._rmul
            inv = self._gen_inverses()
            # [a, b] = (a b) a^-1 b^-1
            seeds = [
                c
                for p, a in enumerate(gens)
                for q in range(len(gens))
                if (c := self.mult(self.mult(rmul[q][a], inv[p]), inv[q]))
            ]
            members, sub_gens = self.normal_closure_set(seeds) if seeds else ({0}, [])
            self._derived = frozenset(members), tuple(sub_gens)
        return self._derived

    def is_normal_set(self, members, sub_gens):
        conj = self._ensure_conj()
        return all(col[s] in members for s in sub_gens for col in conj)

    def coset_action(self, members):
        """Quotient by a normal subgroup given as a member set.

        Returns (quotient ElementTable, coset_of array, coset representative
        list); cosets are numbered in discovery order, coset 0 is the
        subgroup itself, representatives are the minimal member indices.
        """
        n = self.n
        coset_of = [-1] * n
        first = sorted(members)
        for m in first:
            coset_of[m] = 0
        coset_members = [first]
        reps = [0]
        pos = 0
        while pos < len(coset_members):
            block = coset_members[pos]
            for col in self._rmul:
                if coset_of[col[block[0]]] < 0:
                    image = [col[m] for m in block]
                    c = len(coset_members)
                    for m in image:
                        coset_of[m] = c
                    coset_members.append(image)
                    reps.append(min(image))
            pos += 1
        qperms = [
            [coset_of[col[block[0]]] for block in coset_members]
            for col in self._rmul
        ]
        quotient = ElementTable.from_permutations(qperms, [0], len(coset_members))
        return quotient, coset_of, reps

    def abelian_invariants(self):
        """Invariant factors d1 | d2 | ... of the abelianisation."""
        members, _ = self.derived_data()
        if len(members) == self.n:
            return []
        table, _, _ = self.coset_action(members)
        invs = []
        while table.n > 1:
            orders = [table.order_of(i) for i in range(table.n)]
            m = max(orders)
            x = orders.index(m)
            invs.append(m)
            cyc = table.subgroup_closure([x])
            table, _, _ = table.coset_action(cyc)
        invs.reverse()
        return invs

    def class_hits(self):
        """hits[c][a]: bit mask of the classes of r_c * x for x in class a.

        hits[c][a] equals hits[a][c], as r_c (g^-1 r_a g) is conjugate to
        (g r_c g^-1) r_a, so each pair of classes is read over the smaller
        one: with the classes ranked largest first, row c reads the members
        of the classes ranked at or after c and copies its entries into the
        rows of those classes.
        """
        class_of, reps, sizes = self.class_partition()
        k = len(reps)
        members_of = self.class_members()
        ranked = sorted(range(k), key=lambda c: -sizes[c])
        flat, codes, starts = [], [], []  # the pair (a, b) is coded as the int a*k + b
        for c in ranked:
            starts.append(len(flat))
            flat += members_of[c]
            codes += [c * k] * sizes[c]
        hits = [[0] * k for _ in range(k)]
        for p, c in enumerate(ranked):
            ys = self.products(reps[c], flat[starts[p] :], left=True)
            row = hits[c]
            for code in set(map(int.__add__, codes[starts[p] :], map(class_of.__getitem__, ys))):
                a, b = divmod(code, k)
                row[a] |= 1 << b
            for a in ranked[p + 1 :]:
                hits[a][c] = row[a]
        return hits

    def normal_subgroup_sets(self):
        """All normal subgroups as (member set, generators), smallest first.

        A normal subgroup is a union of conjugacy classes, so the lattice is
        found on bit masks of class ids: the class closures first, then the
        joins of pool members until no new one appears.  A union S of classes
        holding e is a normal subgroup iff r_c * A lies in S for every two
        classes c, A in S (s = g^-1 r_c g gives s x = g^-1 r_c (g x g^-1) g),
        so the rows of ``class_hits`` decide every closure.  The join of
        normal A and B is AB, of order |A||B|/|A & B|, so a pool member of
        that order holding A and B is the join and needs no closure.
        """
        class_of, reps, sizes = self.class_partition()
        hits = self.class_hits()

        def close(mask, extra):
            """Smallest normal mask holding ``mask`` (already closed) and ``extra``."""
            done = _bits(mask)
            todo = _bits(extra & ~mask)
            mask |= extra
            while todo:
                c = todo.pop()
                hc = hits[c]
                done.append(c)
                new = 0
                for a in done:
                    new |= hc[a]
                new &= ~mask
                if new:
                    mask |= new
                    todo.extend(_bits(new))
            return mask

        def size(mask):
            return sum(sizes[c] for c in _bits(mask))

        pool = {}  # mask -> (order, generators)
        by_order = {}

        def add(mask, gens):
            if mask in pool:
                return False
            order = size(mask)
            pool[mask] = (order, gens)
            by_order.setdefault(order, []).append(mask)
            return True

        def known_join(ka, kb):
            order = pool[ka][0] * pool[kb][0] // size(ka & kb)
            u = ka | kb
            return any(k & u == u for k in by_order.get(order, ()))

        add(1, [])  # class 0 is {e}
        for c, r in enumerate(reps):
            if r == 0:
                continue
            mask = close(1, 1 << c)
            if mask not in pool:
                add(mask, self.normal_closure_set([r])[1])
        new_keys = list(pool)
        while new_keys:
            fresh = []
            keys = list(pool)
            for ka in new_keys:
                for kb in keys:
                    u = ka | kb
                    if u == ka or u == kb or known_join(ka, kb):
                        continue
                    gens_a, gens_b = pool[ka][1], pool[kb][1]
                    gens = gens_a + [g for g in gens_b if not ka >> class_of[g] & 1]
                    key = close(ka, kb)
                    if add(key, gens):
                        fresh.append(key)
            new_keys = fresh
        members_of = self.class_members()
        return [
            ({i for c in _bits(key) for i in members_of[c]}, pool[key][1])
            for key in sorted(pool, key=lambda key: pool[key][0])
        ]

    def subgroup_table(self, gen_indices, members=None):
        """Standalone table for a subgroup; element p is sorted(members)[p]."""
        if members is None:
            members = self.subgroup_closure(gen_indices)
        elems = sorted(members)
        pos = {e: p for p, e in enumerate(elems)}
        cols = [list(map(pos.__getitem__, self.products(g, elems))) for g in gen_indices]
        return ElementTable(len(elems), [pos[g] for g in gen_indices], cols)

    # -- commutator sets -------------------------------------------------------

    def commutator_set_by_classes(self):
        """K(G) via class representatives: K is a union of conjugacy classes.

        [a, b] = a (b a^-1 b^-1) runs over a times the class of a^-1, and
        commutators of conjugate elements are conjugate, so the classes of
        r z for each class representative r and z in the class of r^-1 make
        up K: n products in all.
        """
        class_of, reps, _ = self.class_partition()
        members_of = self.class_members()
        inv = self.inverses()
        hit_classes = set()
        for r in reps:
            commutators = self.products(r, members_of[class_of[inv[r]]], left=True)
            hit_classes.update(map(class_of.__getitem__, commutators))
        return {i for i in range(self.n) if class_of[i] in hit_classes}


def _spanning_tree(cols):
    """Breadth-first tree from element 0 along the columns.

    Returns ``(order, prev, genpos)``: the elements in discovery order, and
    for every element but 0 the element it was reached from and the
    position of the column that reached it.
    """
    n = len(cols[0])
    prev = [-1] * n
    genpos = [-1] * n
    order = [0]
    prev[0] = 0
    for i in order:
        for g, col in enumerate(cols):
            j = col[i]
            if prev[j] < 0:
                prev[j] = i
                genpos[j] = g
                order.append(j)
    if len(order) != n:
        raise ValueError("generator columns do not span the table")
    return order, prev, genpos


def _fill(tree, start, cols):
    """The column with ``out[0] = start`` and, along the tree,
    ``out[i] = cols[genpos[i]][out[prev[i]]]``, filled in one pass."""
    order, prev, genpos = tree
    out = [0] * len(order)
    out[0] = start
    for i in islice(order, 1, None):
        out[i] = cols[genpos[i]][out[prev[i]]]
    return out


class _LazyFill(dict):
    """The column ``_fill(tree, start, cols)`` as a dict whose entries are
    computed when first read and then kept.

    A read walks up the tree to the nearest entry already known and fills
    the path back down, so a few reads cost a few short walks and reading
    every entry costs one pass, as ``_fill`` does.
    """

    def __init__(self, tree, start, cols):
        super().__init__({0: start})
        _, self._prev, self._genpos = tree
        self._cols = cols

    def __missing__(self, i):
        prev, genpos, cols = self._prev, self._genpos, self._cols
        path = []
        while i not in self:
            path.append(i)
            i = prev[i]
        x = self[i]
        for i in reversed(path):
            x = self[i] = cols[genpos[i]][x]
        return x


def _bits(mask):
    """Positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _invert(col):
    out = [0] * len(col)
    for i, j in enumerate(col):
        out[j] = i
    return out
