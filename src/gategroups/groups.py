"""Reference group constructors.

Every constructor realizes the group as permutations and refuses a degree
above GATEGROUPS_MAX_ENUMERATION before it builds any permutation.  The
families (``cyclic``, ``dihedral``, ``symmetric``, ``alternating``,
``direct``) state the closed form of their order; the constructions
(``quaternion8``, ``sl23``, ``wreath``, ``semidirect``) check the order they
realise.  ``quaternion8`` and ``sl23`` are the action of their generators on
a list of points (``_action``).  Dihedral groups are named by ORDER:
``dihedral(12)`` is the symmetry group of the hexagon.  Text such as
``wreath(cyclic(2), symmetric(5))`` is parsed by the claims ``Evaluator``,
which calls these constructors by name.
"""

from __future__ import annotations

from itertools import product
from math import factorial

from gategroups.config import limit
from gategroups.errors import CapacityError
from gategroups.perm import Permutation, PermGroup, _bfs, orbit

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


def _checked(name, group, order):
    """``group``, once its realised order is checked to be ``order``."""
    if group.order() != order:
        raise AssertionError(f"{name}() realised order {group.order()}, not {order}")
    return group


def _action(name, points, act, gens, order):
    """The group of order ``order`` that ``gens`` induce on ``points``, each
    point p carried to ``act(p, g)``; the degree is capped before any
    permutation is built."""
    _check_degree(name, len(points))
    _, perms, _ = orbit(points, gens, act, len(points))
    return _checked(name, PermGroup(len(points), perms), order)


def cyclic(n):
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    _check_degree("cyclic", n)
    return PermGroup(n, [Permutation(tuple(range(1, n)) + (0,))], order=n)


def symmetric(n):
    if n < 1:
        raise ValueError("symmetric group degree must be positive")
    _check_degree("symmetric", n)
    if n == 1:
        return PermGroup(1, [Permutation.identity(1)], order=1)
    cycle = Permutation(tuple(range(1, n)) + (0,))
    swap = Permutation((1, 0) + tuple(range(2, n)))
    return PermGroup(n, [swap, cycle], order=factorial(n))


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
    return PermGroup(n, gens, order=factorial(n) // 2)


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


def _hamilton(p, q):
    """The Hamilton product of two quaternions, as coefficients on 1, i, j, k."""
    a, b, c, d = p
    e, f, g, h = q
    return (
        a * e - b * f - c * g - d * h,
        a * f + b * e + c * h - d * g,
        a * g - b * h + c * e + d * f,
        a * h + b * g - c * f + d * e,
    )


def quaternion8():
    """Q8 in its right-regular action on the unit quaternions 1, -1, i, -i,
    j, -j, k, -k, generated by i and j."""
    units = [tuple(s * (u == c) for c in range(4)) for u in range(4) for s in (1, -1)]
    return _action("quaternion8", units, _hamilton, [units[2], units[4]], 8)


def _gf3_product(m, g):
    """The product of two 2x2 matrices (a, b, c, d) over GF(3)."""
    a, b, c, d = m
    e, f, gg, h = g
    return tuple(x % 3 for x in (a * e + b * gg, a * f + b * h, c * e + d * gg, c * f + d * h))


def sl23():
    """SL(2,3) in its right-regular action on its 24 matrices (a, b, c, d),
    in lexicographic order."""
    mats = [m for m in product(range(3), repeat=4) if (m[0] * m[3] - m[1] * m[2]) % 3 == 1]
    return _action("sl23", mats, _gf3_product, [(1, 1, 0, 1), (0, 2, 1, 0)], 24)


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
    tops = [p.imgs for p in h.generators]
    for copy in range(k):
        if copy not in reached:
            reached.update(_bfs([copy], tops, k)[0])
            gens += [_shift(p, copy * dm, degree) for p in m.generators]
    for p in h.generators:
        imgs = [0] * degree
        for copy in range(k):
            target = p.imgs[copy]
            for i in range(dm):
                imgs[copy * dm + i] = target * dm + i
        gens.append(Permutation(imgs))
    return _checked("wreath", PermGroup(degree, gens), m.order() ** k * h.order())


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
