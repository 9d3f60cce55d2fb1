"""Reference group constructors.

Every constructor realizes the group as permutations and checks the order
against the formula for its kind.  Dihedral groups are named by ORDER:
``dihedral(12)`` is the symmetry group of the hexagon.  Text such as
``wreath(cyclic(2), symmetric(5))`` is parsed by the claims ``Evaluator``,
which calls these constructors by name.
"""

from __future__ import annotations

from gategroups.config import limit
from gategroups.errors import CapacityError
from gategroups.perm import Permutation, PermGroup

__all__ = [
    "cyclic",
    "dihedral",
    "symmetric",
    "alternating",
    "quaternion8",
    "sl23",
    "direct",
    "semidirect",
    "wreath",
]


def _check_degree(name, degree):
    """Refuse a degree above GATEGROUPS_MAX_ENUMERATION before any
    permutation of that degree is built."""
    cap = limit("MAX_ENUMERATION")
    if degree > cap:
        raise CapacityError(
            f"{name}() needs degree {degree}, above the cap {cap} set by GATEGROUPS_MAX_ENUMERATION"
        )


def cyclic(n):
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    _check_degree("cyclic", n)
    if n == 1:
        return PermGroup(1, [Permutation.identity(1)], order=1)
    return PermGroup(n, [Permutation(tuple(range(1, n)) + (0,))], order=n)


def symmetric(n):
    if n < 1:
        raise ValueError("symmetric group degree must be positive")
    _check_degree("symmetric", n)
    if n == 1:
        return PermGroup(1, [Permutation.identity(1)], order=1)
    cycle = Permutation(tuple(range(1, n)) + (0,))
    swap = Permutation((1, 0) + tuple(range(2, n)))
    order = 1
    for k in range(2, n + 1):
        order *= k
    return PermGroup(n, [swap, cycle], order=order)


def alternating(n):
    if n < 1:
        raise ValueError("alternating group degree must be positive")
    _check_degree("alternating", n)
    if n <= 2:
        return PermGroup(max(n, 1), [Permutation.identity(max(n, 1))], order=1)
    three = Permutation.from_cycles([(1, 2, 3)], n)
    if n == 3:
        gens = [three]
    elif n % 2 == 1:
        gens = [three, Permutation.from_cycles([tuple(range(1, n + 1))], n)]
    else:
        gens = [three, Permutation.from_cycles([tuple(range(2, n + 1))], n)]
    order = 1
    for k in range(3, n + 1):
        order *= k
    return PermGroup(n, gens, order=order)


def dihedral(order):
    """Dihedral group of the given ORDER (which must be even)."""
    if order < 2 or order % 2:
        raise ValueError("dihedral groups are named by their even order")
    n = order // 2
    _check_degree("dihedral", n)
    if n == 1:
        return cyclic(2)
    if n == 2:
        return direct(cyclic(2), cyclic(2))
    rot = Permutation(tuple(range(1, n)) + (0,))
    ref = Permutation(tuple((n - i) % n for i in range(n)))
    return PermGroup(n, [rot, ref], order=order)


_QUNITS = ("1", "i", "j", "k")
_QMUL = {
    ("i", "i"): (-1, "1"),
    ("j", "j"): (-1, "1"),
    ("k", "k"): (-1, "1"),
    ("i", "j"): (1, "k"),
    ("j", "k"): (1, "i"),
    ("k", "i"): (1, "j"),
    ("j", "i"): (-1, "k"),
    ("k", "j"): (-1, "i"),
    ("i", "k"): (-1, "j"),
}


def _qmul(a, b):
    sa, ua = a
    sb, ub = b
    if ua == "1":
        return (sa * sb, ub)
    if ub == "1":
        return (sa * sb, ua)
    s, u = _QMUL[(ua, ub)]
    return (sa * sb * s, u)


def quaternion8():
    """Q8 in its right-regular representation on the eight unit quaternions."""
    elements = [(s, u) for u in _QUNITS for s in (1, -1)]
    index = {e: p for p, e in enumerate(elements)}
    gens = []
    for unit in ("i", "j"):
        g = (1, unit)
        gens.append(Permutation([index[_qmul(e, g)] for e in elements]))
    return PermGroup(8, gens, order=8)


def sl23():
    """SL(2,3) in its right-regular representation on its 24 elements."""
    elements = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    if (a * d - b * c) % 3 == 1:
                        elements.append((a, b, c, d))
    index = {m: p for p, m in enumerate(elements)}

    def mul(m, g):
        a, b, c, d = m
        e, f, gg, h = g
        return (
            (a * e + b * gg) % 3,
            (a * f + b * h) % 3,
            (c * e + d * gg) % 3,
            (c * f + d * h) % 3,
        )

    gens = []
    for g in ((1, 1, 0, 1), (0, 2, 1, 0)):
        gens.append(Permutation([index[mul(m, g)] for m in elements]))
    group = PermGroup(24, gens)
    if group.order() != 24:
        raise AssertionError("SL(2,3) construction is broken")
    return group


def _shift(perm, offset, degree):
    imgs = list(range(degree))
    for i, j in enumerate(perm.imgs):
        imgs[offset + i] = offset + j
    return Permutation(imgs)


def direct(*groups):
    """Direct product acting on the disjoint union of the factors' points."""
    degree = sum(g.degree for g in groups)
    _check_degree("direct", degree)
    gens = []
    offset = 0
    order = 1
    for g in groups:
        for p in g.generators:
            gens.append(_shift(p, offset, degree))
        offset += g.degree
        order *= g.order()
    return PermGroup(degree, gens, order=order)


def wreath(m, h):
    """Wreath product: |h.degree| copies of m permuted by h.

    The generators are m's generators on the least copy of each orbit of
    h, then h's generators.  A top element carrying copy i to copy j
    conjugates copy i's generators onto copy j's, so these generate every
    copy of m and the whole group (Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005): C2 wr S5 has 3 generators, not 7.
    """
    k = h.degree
    dm = m.degree
    degree = k * dm
    _check_degree("wreath", degree)
    gens = []
    reached = set()
    for copy in range(k):
        if copy in reached:
            continue
        reached.add(copy)
        queue = [copy]
        for c in queue:
            for p in h.generators:
                d = p.imgs[c]
                if d not in reached:
                    reached.add(d)
                    queue.append(d)
        for p in m.generators:
            gens.append(_shift(p, copy * dm, degree))
    for p in h.generators:
        imgs = [0] * degree
        for copy in range(k):
            target = p.imgs[copy]
            for i in range(dm):
                imgs[copy * dm + i] = target * dm + i
        gens.append(Permutation(imgs))
    order = m.order() ** k * h.order()
    group = PermGroup(degree, gens)
    if group.order() != order:
        raise AssertionError("wreath product order check failed")
    return group


def semidirect(n, h, action):
    """Semidirect product n : h.

    ``action`` gives, for each generator of h, a permutation of n's points
    that normalizes n (conjugation by it must map n into itself); the
    realized group acts on n's points plus h's points and its order is
    verified to be |n|*|h|.
    """
    if len(action) != len(h.generators):
        raise ValueError("need one action permutation per generator of h")
    for a in action:
        if a.degree != n.degree:
            raise ValueError("action permutations must act on the points of n")
        for g in n.generators:
            if not n.contains(a.inverse() * g * a):
                raise ValueError("action does not normalize the normal factor")
    degree = n.degree + h.degree
    _check_degree("semidirect", degree)
    gens = [_shift(p, 0, degree) for p in n.generators]
    for a, p in zip(action, h.generators):
        imgs = list(a.imgs) + [n.degree + x for x in p.imgs]
        gens.append(Permutation(imgs))
    group = PermGroup(degree, gens)
    expected = n.order() * h.order()
    if group.order() != expected:
        raise ValueError(
            f"ill-defined action: realized order {group.order()} != {expected}"
        )
    return group
