"""Index-level multiplication engine for enumerated finite groups.

An ElementTable names the elements of a finite group 0..n-1 (0 is the
identity) and stores, for every generator, the permutation induced by
right multiplication.  Everything else (left multiplication, inverses,
words, general products) is derived from those columns, so structural
computations on groups of order up to ~2*10^5 stay cheap even when the
elements themselves are large objects such as 4x4 cyclotomic matrices.

Every group is enumerated by ``from_permutations``: one breadth-first
``orbit`` that names each element by its images of a base of points and
fills the columns and the right spanning tree in the same pass.
Permutation groups act on their points, matrix groups on the orbit of
their rows, and quotients on their cosets.  The key of an element is
encoded by the degree alone, and only the table reads it: up to 256
points it is the ``bytes`` of the base images, which a generator maps
with ``bytes.translate`` through a 256-byte table in one C call and the
cyclic garbage collector does not track; above 256 points it is the
tuple of the base images.  ``key_of`` encodes base images and
``base_images`` decodes the keys.

A whole column (multiplication by one element on either side) is filled
in one O(n) pass along a spanning tree from the identity, a Python step
per element.  It pays when the reads spread over the whole table, as in a
search.  When a search may stop at its first few reads, ``lazy_column(j)``
fills the same column entry by entry, only where it is read, and
``lazy_conj_column(j)`` fills a conjugation column that way.  When the
reads are confined to a few conjugacy classes or to a subgroup,
``products(j, xs)`` pays instead: it replays the word of j over the list
xs, one ``map`` over a generator column per letter, so |xs|·|word(j)|
lookups run in C.  A single product ``mult(i, j)`` replays the word of j
and costs O(|word(j)|), and ``order_of(i)`` replays the word of i until
the identity comes back.

Subgroups and normal closures need no whole column either: ``_extend``
grows a subgroup one right coset at a time (Dimino), replaying the word
of a generator over a whole coset, and a normal closure forms each
conjugate g^-1 s g from the inverse of the table generator g.

Normal subgroups are found on bit masks of conjugacy classes from class
products that are only sampled: a class representative times the first
``_SAMPLE`` members of the other class of a pair.  A closure grown under
them is a lower bound, which ``normal_subgroup_sets`` certifies (by the
pool of normal subgroups found, by the order |A||B|/|A & B| of a join,
or by a Dimino closure) before it keeps it, so no full table of class
products is built.

Facts about the whole table are computed once and in C where they can
be: the center is cached, filtered one generator at a time by comparing
the right and left columns with ``compress``; normality compares the
right and left cosets of each generator as sets.  A quotient's table is
the breadth-first search over its cosets itself, which finds them in the
order ``orbit`` would, so it is not enumerated a second time.
"""

from __future__ import annotations

from itertools import compress, islice
from operator import eq

from gategroups.errors import ClosureOverflowError
from gategroups.perm import _compose, _invert

__all__ = ["ElementTable", "orbit"]

_SAMPLE = 16  # class members read per pair of classes by the sampled hits
_BYTE_DEGREE = 256  # keys of permutations of at most this many points are bytes


def orbit(seeds, gens, act, cap):
    """Breadth-first orbit of the seed points under the generators ``gens``.

    ``act(x, g)`` is the image of the point x under the generator g.
    Returns ``(index, columns, tree)``: the points mapped to their
    positions in discovery order, seeds first; for every generator the
    column ``i -> position of the image of point i``; and the spanning
    tree ``(range(n), prev, genpos)`` of ``_spanning_tree``, where point i
    past the seeds was first reached as the image of point prev[i] under
    generator genpos[i] (a seed is its own prev, with genpos -1).  Raises
    ClosureOverflowError once more than ``cap`` points appear.
    """
    points = list(seeds)
    index = {p: i for i, p in enumerate(points)}
    columns = [[] for _ in gens]
    prev = list(range(len(points)))
    genpos = [-1] * len(points)
    steps = list(zip(range(len(gens)), gens, columns))
    for x in points:
        i = index[x]  # the int the columns hold, which prev then shares
        for g, t, col in steps:
            y = act(x, t)
            j = index.get(y)
            if j is None:
                if len(points) >= cap:
                    raise ClosureOverflowError(
                        f"enumeration exceeded {cap}, the cap set by GATEGROUPS_MAX_ENUMERATION"
                    )
                j = index[y] = len(points)
                points.append(y)
                prev.append(i)
                genpos.append(g)
            col.append(j)
    return index, columns, (range(len(points)), prev, genpos)


class ElementTable:
    def __init__(self, rmul):
        """``rmul`` holds the right multiplication column of each generator,
        which the table keeps, not copies.  Element 0 is the identity, so
        the column of generator g heads with g's own index; no generators
        generate the trivial group."""
        self._rmul = list(rmul)
        self.n = len(self._rmul[0]) if self._rmul else 1
        self.gen_indices = [col[0] for col in self._rmul]
        self._lmul = None
        self._conj = None  # conjugation column of every generator
        self._inv = None
        self._bfs = None  # (order, prev, genpos): right spanning tree from e
        self._lbfs = None  # the same along the left multiplications
        self._classes = None
        self._center = None
        self._derived = None
        self._orders = None
        self._perms = None  # generator image tuples
        self._base = None  # base points whose images name an element
        self._encode = None  # base images -> key: bytes or tuple, by the degree
        self.key_index = None  # key -> element index, in index order
        self.rows = None  # row vector -> point, when the points are matrix rows

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_permutations(cls, perms, base, cap):
        """Enumerate the group generated by permutation tuples by base images.

        Element i is named by its key, its images of the base points, and
        a generator acts on a key entrywise: a ``bytes`` key through the
        generator as a 256-byte ``translate`` table, a tuple key (above 256
        points) point by point.  The orbit's spanning tree is kept as the
        right tree.  The generator tuples are kept so ``perm_of`` can replay
        an element's word, and so a permutation group can wrap the table
        with no word at all.  Raises ClosureOverflowError once more than
        ``cap`` elements appear.
        """
        perms = [tuple(p) for p in perms]
        base = tuple(base)
        encode = _encoding(len(perms[0]))
        if encode is bytes:
            gens, act = [bytes(p).ljust(256, b"\0") for p in perms], bytes.translate
        else:
            gens, act = perms, _compose
        index, rmul, tree = orbit([encode(base)], gens, act, cap)
        table = cls(rmul)
        table._perms, table._base, table._encode = perms, base, encode
        table.key_index, table._bfs = index, tree
        return table

    # -- element access ------------------------------------------------------

    def perm_of(self, i):
        """Element i as a permutation of the points, replayed from its word."""
        x = tuple(range(len(self._perms[0])))
        for g in self.word(i):
            x = _compose(x, self._perms[g])
        return x

    def key_of(self, points):
        """The key of the base images ``points``, or None when a point is
        None or does not fit the encoding: then no element has the key."""
        points = tuple(points)
        if None in points:
            return None
        try:
            return self._encode(points)
        except ValueError:  # a byte key holds points 0..255 only
            return None

    def base_images(self):
        """The base images of every element, as tuples, in index order."""
        return map(tuple, self.key_index)

    def index_of(self, imgs):
        """Index of the element acting as the permutation ``imgs``.

        Raises ValueError if no element of the table acts that way.
        """
        imgs = tuple(imgs)
        if len(imgs) == len(self._perms[0]):
            i = self.key_index.get(self.key_of(imgs[b] for b in self._base))
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
        # row positions there -> here, None for a row this group never reaches
        here = list(map(self.rows.get, other.rows))
        keys = list(other.key_index)  # a key of either encoding iterates over its base images
        try:
            return {self.key_index[self.key_of(map(here.__getitem__, keys[a]))] for a in members}
        except KeyError:
            raise ValueError("matrix is not an element of the group") from None

    def _ensure_tree(self):
        """Spanning tree along the right multiplications: x_i = x_prev * s.
        A table built by ``from_permutations`` or ``coset_action`` has it
        from its enumeration."""
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

    def lazy_conj_column(self, j):
        """Conjugation column i -> x_i^-1 * x_j * x_i, as a dict whose
        entries are filled when first read."""
        # x_i = x_prev * s  =>  x_i^-1 x_j x_i = s^-1 (x_prev^-1 x_j x_prev) s
        return _LazyFill(self._ensure_tree(), j, self._ensure_conj())

    def order_of(self, i):
        """Order of element i, by replaying its word until the identity."""
        rmul, word = self._rmul, self.word(i)
        k, m = i, 1
        while k != 0:
            for g in word:
                k = rmul[g][k]
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
        """Ascending members of the center (cached): the elements that every
        generator's right and left columns send to the same place, filtered
        one generator at a time by ``compress``, in C."""
        if self._center is None:
            cands = range(self.n)
            for rcol, lcol in zip(self._rmul, self._ensure_lmul()):
                hits = map(eq, map(rcol.__getitem__, cands), map(lcol.__getitem__, cands))
                cands = list(compress(cands, hits))
            self._center = tuple(cands)
        return self._center

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

    def is_normal_set(self, members):
        """Whether the subgroup with these members is normal: Ng = gN for
        every generator g, compared as sets over one right and one left
        column per generator, in C."""
        return all(
            set(map(rcol.__getitem__, members)).issuperset(map(lcol.__getitem__, members))
            for rcol, lcol in zip(self._rmul, self._ensure_lmul())
        )

    def coset_action(self, members):
        """Quotient by a normal subgroup given as a member set.

        Returns (quotient ElementTable, coset_of array, coset representative
        list); cosets are numbered in discovery order, coset 0 is the
        subgroup itself, representatives are the minimal member indices.
        The breadth-first search finds the cosets in the order ``orbit``
        would, generator by generator from coset 0, and records the action
        of each generator on them and its spanning tree as it goes: that is
        already the quotient's table, keyed by the coset alone.
        """
        coset_of = [-1] * self.n
        first = sorted(members)
        for m in first:
            coset_of[m] = 0
        blocks, reps, prev, genpos = [first], [0], [0], [-1]
        qperms = [[] for _ in self._rmul]
        for b, block in enumerate(blocks):
            x = block[0]
            for g, (col, qcol) in enumerate(zip(self._rmul, qperms)):
                c = coset_of[col[x]]
                if c < 0:
                    c = len(blocks)
                    image = list(map(col.__getitem__, block))
                    for m in image:
                        coset_of[m] = c
                    blocks.append(image)
                    reps.append(min(image))
                    prev.append(b)
                    genpos.append(g)
                qcol.append(c)
        n = len(blocks)
        quotient = ElementTable(qperms)
        quotient._perms, quotient._base = list(map(tuple, qperms)), (0,)
        quotient._encode = encode = _encoding(n)
        quotient.key_index = dict(zip(map(encode, zip(range(n))), range(n)))
        quotient._bfs = (range(n), prev, genpos)
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

    def _sampled_hits(self, members_of):
        """hit(c, a): a mask of classes of products r_c * x with x in class a,
        read over the first ``_SAMPLE`` members (``members_of``, ascending)
        of the smaller class of the pair and memoised per unordered pair.

        The full mask is symmetric, as r_c (g^-1 r_a g) is conjugate to
        (g r_c g^-1) r_a, so a pair may be read over either class.  Every
        class in hit(c, a) holds a genuine product of the two classes: the
        sampled mask is a subset of the full one, never more.
        """
        class_of, reps, sizes = self.class_partition()
        k = len(reps)
        memo = {}

        def hit(c, a):
            if (sizes[c], c) < (sizes[a], a):
                c, a = a, c  # a is the smaller class
            code = c * k + a
            mask = memo.get(code)
            if mask is None:
                ys = self.products(reps[c], members_of[a][:_SAMPLE], left=True)
                mask = memo[code] = _mask(map(class_of.__getitem__, ys))
            return mask

        return hit

    def normal_subgroup_sets(self):
        """All normal subgroups as (member set, generators), smallest first.

        A normal subgroup is a union of conjugacy classes, so the lattice is
        found on bit masks of class ids: the class closures first, then the
        joins of pool members until no new one appears.  A union S of classes
        holding e is a normal subgroup iff r_c * A lies in S for every two
        classes c, A in S (s = g^-1 r_c g gives s x = g^-1 r_c (g x g^-1) g).

        A closure grown under the sampled hits (``_sampled_hits``) is a lower
        bound L of the true one, and each L is certified before it is kept:
        the closure of class c is L when L is already a pool member (a normal
        subgroup holding r_c), and otherwise the classes of
        ``normal_closure_set([r_c])``, whose generators the pool keeps.  The
        join of normal A and B is AB, of order |A||B|/|A & B|: a pool member
        of that order holding A and B is the join and needs no closure, an L
        of that order is AB, and otherwise AB is the subgroup closure of the
        generators of A and B.  So every mask is exact, and the pool is found
        in the order the full hit table would find it.  Growth stops once the
        answer is settled: for a class closure when L is a pool member or
        lies in none (the closure is then new), for a join when L reaches
        the order of AB.
        """
        class_of, reps, sizes = self.class_partition()
        members_of = self.class_members()
        hit = self._sampled_hits(members_of)

        def grow(mask, extra, stop):
            """Grow ``mask`` (already closed) and ``extra`` under the sampled
            hits until ``stop(mask)`` or a fixpoint: a lower bound of the
            smallest normal mask holding both."""
            done = _bits(mask)
            todo = _bits(extra & ~mask)
            mask |= extra
            while todo and not stop(mask):
                c = todo.pop()
                done.append(c)
                new = 0
                for a in done:
                    new |= hit(c, a)
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

        def known_or_new(mask):
            """Whether ``mask`` is a pool member or lies in none: either way
            the closure of a mask below it is settled."""
            return mask in pool or not any(mask & k == mask for k in pool)

        add(1, [])  # class 0 is {e}
        for c, r in enumerate(reps):
            if r == 0 or grow(1, 1 << c, known_or_new) in pool:
                continue
            members, gens = self.normal_closure_set([r])
            add(_mask(map(class_of.__getitem__, members)), gens)
        new_keys = list(pool)
        while new_keys:
            fresh = []
            keys = list(pool)
            for ka in new_keys:
                for kb in keys:
                    u = ka | kb
                    if u == ka or u == kb:
                        continue
                    order = pool[ka][0] * pool[kb][0] // size(ka & kb)
                    if any(k & u == u for k in by_order.get(order, ())):
                        continue
                    gens_a, gens_b = pool[ka][1], pool[kb][1]
                    gens = gens_a + [g for g in gens_b if not ka >> class_of[g] & 1]
                    key = grow(ka, kb, lambda mask: size(mask) == order)
                    if size(key) != order:
                        key = _mask(map(class_of.__getitem__, self.subgroup_closure(gens)))
                    if add(key, gens):
                        fresh.append(key)
            new_keys = fresh
        return [
            ({i for c in _bits(key) for i in members_of[c]}, pool[key][1])
            for key in sorted(pool, key=lambda key: pool[key][0])
        ]

    def subgroup_table(self, gen_indices, members):
        """Standalone table for a subgroup; element p is sorted(members)[p]."""
        elems = sorted(members)
        pos = {e: p for p, e in enumerate(elems)}
        cols = [list(map(pos.__getitem__, self.products(g, elems))) for g in gen_indices]
        return ElementTable(cols)

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


def _encoding(degree):
    """The key encoding of permutations of ``degree`` points."""
    return bytes if degree <= _BYTE_DEGREE else tuple


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


def _mask(classes):
    """Bit mask of the distinct class ids in ``classes``."""
    return sum(1 << c for c in set(classes))


def _bits(mask):
    """Positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
