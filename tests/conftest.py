"""Shared fixtures, the small-group corpus, and independent oracles.

The oracles here are deliberately primitive (plain breadth-first set
closures over permutation tuples, Dimino closure over matrices with an
entrywise product) so they share no code path with the stabilizer chain,
the base-image enumeration or the element-table engine they cross-check.
The normal-subgroup oracle closes every join with ``subgroup_closure`` on
member sets, so it checks the class-mask closures of
``ElementTable.normal_subgroup_sets`` and the joins it skips.  The
class-hit oracle reads one whole left column per class where the engine
samples each pair of classes over a prefix of the smaller one, and the subgroup-column
oracle reads whole parent columns where the engine replays a word over
the members.  The commutator-set oracle visits all ordered pairs where
the engine visits class representatives.  The search-compatibility oracle replays words
where the search reads columns, and it closes a class under conjugation
by words where the search reads the class partition.  The leaf-count
automorphism oracle prunes by the orders of products alone and visits one
search leaf per class of automorphisms modulo the inner ones, where the
engine also prunes by the class sizes of products and grows orbits of the
automorphisms it has found.  The independent-set oracle runs the engine's
branch and bound on Python sets where the engine runs it on bit masks.  The
key-orbit oracle maps a base-image key by one action per generator where
``cayley.orbit`` takes all the images of a key in one call, and the
class-partition oracle conjugates through the multiplication columns one
step at a time where the engine reads precomputed conjugation columns.
The all-copies wreath oracle puts m's generators on every copy of m where
``groups.wreath`` puts them on one copy per orbit of the top group.  The
subgroup and normal-closure oracles close breadth first under whole left
columns, and conjugate through conjugation columns, where the engine
closes coset by coset on replayed words and fills no column.
The center oracle scans every element with ``all()`` where the engine
filters candidates one generator at a time in C; the quotient oracle
enumerates the coset action again with ``from_permutations`` where the
engine keeps the table its coset search built; the normality oracle
conjugates through conjugation columns where the engine compares the
right and left cosets of each generator; the matrix-membership oracle looks
each row up where the engine maps the row positions of the other table
once; the dense row product sums over every entry where the matrix keeps
the nonzero ones; and the inverse oracle multiplies all the Galois
conjugates of a cyclotomic number where ``cyclo._inv`` takes its norm one
cyclic factor of the Galois group at a time.  The complement-scan oracle
closes every lift tuple of the quotient's generating sequence, one lift
per coset, where ``find_complement`` backtracks over sections.
``embed``, the complex value of a cyclotomic number, is the one
floating-point routine, and it lives here so that ``src/`` stays exact.
"""

import cmath
import itertools
import math
import os
import weakref

import pytest

from gategroups import groups
from gategroups.cayley import ElementTable
from gategroups.cyclo import ONE, ZERO, _mul, rational
from gategroups.isomorphism import _hom_image, _min_generating_sequence, _Search
from gategroups.matrix import UnitaryMatrix, identity_matrix
from gategroups.perm import PermGroup, Permutation


def pytest_collection_modifyitems(config, items):
    if os.environ.get("GATEGROUPS_LONG", "") not in ("", "0"):
        return
    skip = pytest.mark.skip(reason="long tier; enable with GATEGROUPS_LONG=1")
    for item in items:
        if "long" in item.keywords:
            item.add_marker(skip)


def embed(x):
    """Floating-point complex value of a Cyclotomic (oracle; ``src/`` stays exact)."""
    n = x.conductor
    return sum(
        (complex(c) * cmath.exp(2j * cmath.pi * k / n) for k, c in x.coefficients().items()),
        complex(0),
    )


def brute_force_elements(group: PermGroup):
    """All elements as image tuples, by naive closure (oracle)."""
    gens = [g.imgs for g in group.generators]
    ident = tuple(range(group.degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(g[v] for v in x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def matrix_product(a, b):
    """Exact product entry by entry, each a sum over the nonzero entries of
    its row of ``a`` (oracle; independent of ``matmul`` and ``row_times``)."""
    d = a.dim
    columns = [b.entries[j::d] for j in range(d)]
    entries = []
    for row in a.rows():
        nonzero = [(k, x) for k, x in enumerate(row) if x != ZERO]
        for column in columns:
            total = ZERO
            for k, x in nonzero:
                total = total + x * column[k]
            entries.append(total)
    return UnitaryMatrix(d, tuple(entries))


def dimino_closure(generators):
    """Elements and index map of a matrix group by Dimino's closure (oracle).

    Element 0 is the identity; the cyclic group of the first generator
    comes next, and each further generator adds whole cosets of the group
    generated so far.
    """
    gens = list(generators)
    ident = identity_matrix(gens[0].dim)
    elements = [ident]
    index = {ident: 0}

    def grow(m):
        index[m] = len(elements)
        elements.append(m)

    x = gens[0]
    while x not in index:
        grow(x)
        x = matrix_product(x, gens[0])
    for level in range(1, len(gens)):
        s = gens[level]
        if s in index:
            continue
        sub = elements[:]
        grow(s)
        for e in sub[1:]:
            grow(matrix_product(e, s))
        rep_pos = len(sub)
        while rep_pos < len(elements):
            rep = elements[rep_pos]
            for t in gens[: level + 1]:
                x = matrix_product(rep, t)
                if x not in index:
                    grow(x)
                    for e in sub[1:]:
                        grow(matrix_product(e, x))
            rep_pos += len(sub)
    return elements, index


def subgroup_closure_oracle(table, gens, cap=None):
    """Member set of the subgroup generated by ``gens``, or None past ``cap``,
    by breadth-first closure under whole left columns (oracle)."""
    cols = [table.lcolumn(g) for g in dict.fromkeys(gens) if g != 0]
    members = {0}
    queue = [0]
    while queue:
        x = queue.pop()
        for col in cols:
            y = col[x]
            if y not in members:
                if cap is not None and len(members) >= cap:
                    return None
                members.add(y)
                queue.append(y)
    return members


def normal_closure_set_oracle(table, seeds):
    """(member set, generators) of the normal closure of the seeds, closing
    under one whole left column per generator and adding each conjugate by
    a conjugation column of the table's generators (oracle)."""
    gens = [s for s in dict.fromkeys(seeds) if s != 0]
    cols = [table.lcolumn(g) for g in gens]
    members = {0}
    queue = [0]

    def close():
        while queue:
            x = queue.pop()
            for col in cols:
                y = col[x]
                if y not in members:
                    members.add(y)
                    queue.append(y)

    close()
    pending = list(gens)
    while pending:
        s = pending.pop()
        for gconj in table._ensure_conj():
            y = gconj[s]
            if y not in members:
                gens.append(y)
                pending.append(y)
                col = table.lcolumn(y)
                cols.append(col)
                for m in [m for m in members if col[m] not in members]:
                    z = col[m]
                    if z not in members:
                        members.add(z)
                        queue.append(z)
                close()
    return members, gens


def commutator(table, i, j):
    """[x_i, x_j] = x_i x_j x_i^-1 x_j^-1, by word-replayed products."""
    inv = table.inverses()
    return table.mult(table.mult(i, j), table.mult(inv[i], inv[j]))


def normal_subgroup_sets_oracle(table):
    """Normal subgroups as (member set, generators), closing every join (oracle)."""
    _, reps, _ = table.class_partition()
    pool = {}
    gens_of = {}

    def add(members, gens):
        key = frozenset(members)
        if key not in pool:
            pool[key] = members
            gens_of[key] = gens
            return key
        return None

    add({0}, [])
    for r in reps:
        if r != 0:
            add(*table.normal_closure_set([r]))
    new_keys = list(pool)
    while new_keys:
        fresh = []
        keys = list(pool)
        for ka in new_keys:
            for kb in keys:
                if ka == kb or ka <= kb or kb <= ka:
                    continue
                gens = gens_of[ka] + [g for g in gens_of[kb] if g not in ka]
                key = add(table.subgroup_closure(gens), gens)
                if key is not None:
                    fresh.append(key)
        new_keys = fresh
    return [(pool[k], gens_of[k]) for k in sorted(pool, key=len)]


def class_hits_oracle(table):
    """hits[c][a], the mask of the classes of r_c * x for x in class a, read
    off one whole left column per class (oracle that bounds the sampled hits
    of ``normal_subgroup_sets``)."""
    class_of, reps, _ = table.class_partition()
    hits = []
    for r in reps:
        row = [0] * len(reps)
        for a, b in set(zip(class_of, map(class_of.__getitem__, table.lcolumn(r)))):
            row[a] |= 1 << b
        hits.append(row)
    return hits


def subgroup_columns_oracle(table, gen_indices, members):
    """Generator columns of ``subgroup_table``, read off whole parent columns (oracle)."""
    elems = sorted(members)
    pos = {e: p for p, e in enumerate(elems)}
    return [[pos[col[e]] for e in elems] for col in map(table.column, gen_indices)]


def conj_by_gen(table, i, g):
    """g^-1 * x_i * g for the g-th generator of the table."""
    return table._rmul[g][table._lmul_inv()[g][i]]


def commutator_set_all_pairs(table):
    """K(G) by brute force over all ordered pairs (oracle)."""
    # [a, b] = a * (b a^-1 b^-1) = lcolumn(a)[conj(a^-1)[b^-1]], and
    # b^-1 runs over the whole table as b does
    inv = table.inverses()
    out = set()
    for a in range(table.n):
        conj = table.lazy_conj_column(inv[a])
        lcol = table.lcolumn(a)  # one O(n) fill per a, not per pair
        out.update(lcol[conj[b]] for b in range(table.n))
    return out


_CLASS_SIZES = weakref.WeakKeyDictionary()  # table -> {element: class size}


def class_size_by_words(table, e):
    """Size of the conjugacy class of x_e: {x_e} closed under conjugation by
    the table's generators, with word-replayed products (oracle)."""
    sizes = _CLASS_SIZES.setdefault(table, {})
    if e not in sizes:
        inv = table.inverses()
        orbit = {e}
        queue = [e]
        for x in queue:
            for g in table.gen_indices:
                y = table.mult(table.mult(inv[g], x), g)
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        sizes.update(dict.fromkeys(orbit, len(orbit)))
    return sizes[e]


def order_commute_oracle(tg, th, seq_prefix, chosen, x, y):
    """Whether, for each x_q and its chosen image y_q, x_q * x and y_q * y
    have one order and x_q commutes with x iff y_q commutes with y, by
    word-replayed products and commutators (oracle)."""
    g_orders, h_orders = tg.element_orders(), th.element_orders()
    for xq, yq in zip(seq_prefix, chosen):
        if g_orders[tg.mult(xq, x)] != h_orders[th.mult(yq, y)]:
            return False
        if (commutator(tg, xq, x) == 0) != (commutator(th, yq, y) == 0):
            return False
    return True


def products_share_class_sizes(tg, th, seq_prefix, chosen, x, y):
    """Whether, for each x_q and its chosen image y_q, x_q * x and y_q * y
    have one class size, by ``class_size_by_words`` (oracle)."""
    return all(
        class_size_by_words(tg, tg.mult(xq, x)) == class_size_by_words(th, th.mult(yq, y))
        for xq, yq in zip(seq_prefix, chosen)
    )


def search_compatible_oracle(tg, th, seq_prefix, chosen, x, y):
    """Whether y may follow ``chosen`` as the image of x in an isomorphism,
    automorphism or section search (oracle for the column form of
    ``_Search.compatible``): the order-and-commute rule, and, between tables
    of one order, one class size for x_q * x and y_q * y."""
    args = (tg, th, seq_prefix, chosen, x, y)
    return order_commute_oracle(*args) and (
        tg.n != th.n or products_share_class_sizes(*args)
    )


def leaf_count_automorphisms(table):
    """(|Aut|, |Inn|) of the group of an element table (oracle).

    |Aut| is counted through the inner automorphisms: at each level of
    the generator-image backtracking, candidates split into orbits under
    conjugation by the centralizer K of the images chosen so far, and an
    orbit contributes |orbit| times the count at its representative.  Every
    leaf is verified with ``_hom_image``.  Candidates are pruned by
    ``order_commute_oracle`` alone, never by the class sizes of products.
    |Inn| is the number of distinct conjugation maps, told apart by the
    images of the generating sequence.
    """
    seq = _min_generating_sequence(table)
    if not seq:
        return 1, 1
    search = _Search(table, table, seq)
    cands = [search.candidates(x) for x in seq]
    gcols = [table.column(x) for x in seq]

    def count(pos, K):
        if pos == len(seq):
            return int(_hom_image(gcols, search.h_rcols) is not None)
        unseen = {
            y
            for y in cands[pos]
            if order_commute_oracle(table, table, seq[:pos], search.chosen, seq[pos], y)
        }
        subtotal = 0
        while unseen:
            rep = min(unseen)
            search.push(rep, search.th.column(rep))
            conj = table.lazy_conj_column(rep)
            orbit = {conj[z] for z in K} & unseen
            subtotal += len(orbit) * count(pos + 1, [z for z in K if conj[z] == rep])
            search.pop()
            unseen -= orbit
        return subtotal

    conj_cols = [table.lazy_conj_column(x) for x in seq]
    inner = {tuple(col[z] for col in conj_cols) for z in range(table.n)}
    return count(0, range(table.n)), len(inner)


def complement_scan_oracle(table, members):
    """Member set of a complement of the normal subgroup ``members``, or None
    (oracle).

    Every complement is generated by lifts of a fixed generating sequence
    of the quotient, one lift per coset, so closing all |N|^k lift tuples
    decides whether one exists.
    """
    quotient, _, reps = table.coset_action(members)
    index = quotient.n
    nlist = sorted(members)
    qseq = _min_generating_sequence(quotient)
    lifts = [table.products(reps[q], nlist, left=True) for q in qseq]
    for combo in itertools.product(*lifts):
        sub = table.subgroup_closure(combo, cap=index)
        if sub is not None and len(sub) == index and not (sub & members) - {0}:
            return sub
    return None


def key_orbit_oracle(perms, base, cap):
    """(key index, columns) of the base-image enumeration, one action per generator (oracle)."""
    actions = [lambda key, p=tuple(p): tuple(map(p.__getitem__, key)) for p in perms]
    points = [tuple(base)]
    index = {points[0]: 0}
    columns = [[] for _ in actions]
    for x in points:
        for act, col in zip(actions, columns):
            y = act(x)
            if y not in index:
                assert len(points) < cap, "enumeration exceeded its cap"
                index[y] = len(points)
                points.append(y)
            col.append(index[y])
    return index, columns


def class_partition_oracle(table):
    """(class_of, reps, sizes) by conjugating g^-1 x g through two columns per step (oracle)."""
    n = table.n
    class_of = [-1] * n
    reps = []
    sizes = []
    rmul, lmul_inv = table._rmul, table._lmul_inv()
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
            for g in range(len(rmul)):
                y = rmul[g][lmul_inv[g][x]]
                if class_of[y] < 0:
                    class_of[y] = c
                    count += 1
                    queue.append(y)
        sizes.append(count)
    return class_of, reps, sizes


def center_set_oracle(table):
    """Members of the center, each checked against every generator with ``all()`` (oracle)."""
    lmul, rmul = table._ensure_lmul(), table._rmul
    ngen = range(len(rmul))
    return [i for i in range(table.n) if all(rmul[g][i] == lmul[g][i] for g in ngen)]


def coset_quotient_oracle(table, members):
    """(quotient, coset_of, reps): the coset search, then the quotient enumerated
    again by ``from_permutations`` on the cosets (oracle)."""
    coset_of = [-1] * table.n
    first = sorted(members)
    for m in first:
        coset_of[m] = 0
    coset_members, reps, pos = [first], [0], 0
    while pos < len(coset_members):
        block = coset_members[pos]
        for col in table._rmul:
            if coset_of[col[block[0]]] < 0:
                image = [col[m] for m in block]
                for m in image:
                    coset_of[m] = len(coset_members)
                coset_members.append(image)
                reps.append(min(image))
        pos += 1
    qperms = [[coset_of[col[block[0]]] for block in coset_members] for col in table._rmul]
    quotient = ElementTable.from_permutations(qperms, [0], len(coset_members))
    return quotient, coset_of, reps


def is_normal_set_oracle(table, members, sub_gens):
    """Whether every conjugate of a subgroup generator by a table generator
    stays in ``members``, read from conjugation columns (oracle)."""
    return all(col[s] in members for s in sub_gens for col in table._ensure_conj())


def indices_of_oracle(table, other, members):
    """Indices in the matrix table ``table`` of the members of the matrix table
    ``other``, looking each row vector up (oracle); ValueError for a non-member."""
    keys, rows = list(other.base_images()), list(other.rows)
    index = {points: i for i, points in enumerate(table.base_images())}
    try:
        return {index[tuple(table.rows[rows[k]] for k in keys[a])] for a in members}
    except KeyError:
        raise ValueError("matrix is not an element of the group") from None


def row_times_dense(matrix, row):
    """The row vector ``row`` times ``matrix``, summed over every entry (oracle)."""
    d = matrix.dim
    return tuple(sum((row[k] * matrix[k, j] for k in range(d)), ZERO) for j in range(d))


def inverse_oracle(a):
    """1/a as the product of the nontrivial Galois conjugates of a over its rational norm (oracle)."""
    n = a.conductor
    prod = ONE
    for u in range(2, n):
        if math.gcd(u, n) == 1:
            prod = _mul(prod, a.galois(u))
    return _mul(prod, rational(1 / _mul(a, prod).as_rational()))


def wreath_all_copies_generators(m, h):
    """Generators of m wr h: m's generators on every copy, then h's (oracle)."""
    k, dm = h.degree, m.degree
    gens = []
    for copy in range(k):
        for p in m.generators:
            imgs = list(range(k * dm))
            imgs[copy * dm : (copy + 1) * dm] = [copy * dm + i for i in p.imgs]
            gens.append(Permutation(imgs))
    for p in h.generators:
        gens.append(Permutation([p.imgs[c] * dm + i for c in range(k) for i in range(dm)]))
    return gens


def _clique_cover_bound_on_sets(cands, neighbors):
    """Greedy clique partition of the candidate list; each clique holds <= 1 pick."""
    bound = 0
    taken = set()
    for v in cands:
        if v in taken:
            continue
        bound += 1
        clique = [v]
        taken.add(v)
        for u in cands:
            if u not in taken and all(u in neighbors[c] for c in clique):
                clique.append(u)
                taken.add(u)
    return bound


def _best_set_on_sets(cands, neighbors, chosen, best):
    if not cands:
        return chosen if len(chosen) > len(best) else best
    if len(chosen) + _clique_cover_bound_on_sets(cands, neighbors) <= len(best):
        return best
    v = cands[0]
    rest = [u for u in cands[1:] if u not in neighbors[v]]
    best = _best_set_on_sets(rest, neighbors, chosen + [v], best)
    return _best_set_on_sets(cands[1:], neighbors, chosen, best)


def independent_set_on_sets(neighbors):
    """The lexicographically least maximum independent set, by the branch
    and bound of ``maximum_independent_set`` on candidate lists and
    adjacency sets in place of bit masks (oracle)."""
    return _best_set_on_sets(list(range(len(neighbors))), neighbors, [], [])


def small_corpus():
    """Groups used by the always-on property suites (orders <= 5000)."""
    return [
        ("Z12", groups.cyclic(12)),
        ("V4", groups.direct(groups.cyclic(2), groups.cyclic(2))),
        ("S3", groups.symmetric(3)),
        ("S4", groups.symmetric(4)),
        ("S5", groups.symmetric(5)),
        ("S6", groups.symmetric(6)),
        ("A4", groups.alternating(4)),
        ("A5", groups.alternating(5)),
        ("A6", groups.alternating(6)),
        ("D8", groups.dihedral(8)),
        ("D12", groups.dihedral(12)),
        ("Q8", groups.quaternion8()),
        ("SL23", groups.sl23()),
        ("Z2wrS3", groups.wreath(groups.cyclic(2), groups.symmetric(3))),
        ("Z2wrS4", groups.wreath(groups.cyclic(2), groups.symmetric(4))),
        ("Z3xS4", groups.direct(groups.cyclic(3), groups.symmetric(4))),
    ]
