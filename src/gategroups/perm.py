"""Permutations on 1..n and permutation groups with a deterministic BSGS.

Internally points are 0-based; the textual cycle notation ``(1,2)(3,4,5)``
is 1-based.  Products compose left-to-right: ``(p * q)`` applies p first.
The stabilizer chain uses the deterministic Schreier-Sims procedure with
the smallest-moved-point base rule, and stops early when the group order
is already known (groups enumerated by base images, such as matrix groups
acting on their rows).
"""

from __future__ import annotations

import re
from operator import itemgetter

from gategroups.config import limit
from gategroups.errors import CapacityError, GroupFileError

__all__ = ["Permutation", "PermGroup", "StabilizerChain", "write_perm_group", "read_perm_group"]


class Permutation:
    __slots__ = ("imgs",)

    def __init__(self, images):
        imgs = tuple(images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError("images must be a bijection on 0..n-1")
        object.__setattr__(self, "imgs", imgs)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, degree):
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, cycles, degree):
        """Build from 1-based cycles, e.g. [(1, 2), (3, 4, 5)]."""
        imgs = list(range(degree))
        for cycle in cycles:
            pts = [c - 1 for c in cycle]
            if any(not 0 <= p < degree for p in pts) or len(set(pts)) != len(pts):
                raise ValueError(f"bad cycle {cycle!r} for degree {degree}")
            for a, b in zip(pts, pts[1:] + pts[:1]):
                imgs[a] = b
        return cls(imgs)

    @classmethod
    def parse(cls, text, degree=None):
        """Parse cycle notation like ``(1,2)(3,4,5)``; ``()`` is the identity."""
        cycles = []
        highest = 0
        for chunk in re.findall(r"\(([^()]*)\)", text):
            pts = [int(tok) for tok in re.split(r"[,\s]+", chunk.strip()) if tok]
            if pts:
                cycles.append(tuple(pts))
                highest = max(highest, max(pts))
        leftover = re.sub(r"\([^()]*\)|\s", "", text)
        if leftover:
            raise ValueError(f"cannot parse permutation {text!r}")
        if degree is None:
            degree = highest
        return cls.from_cycles(cycles, degree)

    @property
    def degree(self):
        return len(self.imgs)

    def image(self, point):
        return self.imgs[point]

    def __mul__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        o = other.imgs
        return Permutation(o[x] for x in self.imgs)

    def inverse(self):
        return Permutation(_invert(self.imgs))

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    @property
    def is_identity(self):
        return all(i == j for i, j in enumerate(self.imgs))

    def order(self):
        n = 1
        p = self
        while not p.is_identity:
            p = p * self
            n += 1
        return n

    def cycles(self):
        """Nontrivial cycles as 1-based tuples, lexicographically ordered."""
        seen = set()
        out = []
        for start in range(len(self.imgs)):
            if start in seen or self.imgs[start] == start:
                continue
            cycle = [start]
            seen.add(start)
            x = self.imgs[start]
            while x != start:
                cycle.append(x)
                seen.add(x)
                x = self.imgs[x]
            out.append(tuple(c + 1 for c in cycle))
        return out

    def __str__(self):
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)

    def __repr__(self):
        return f"Permutation.parse({str(self)!r}, {self.degree})"

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.imgs == other.imgs

    def __hash__(self):
        return hash(self.imgs)


def _compose(p, q):
    """p then q, for a tuple p of any length: itemgetter of one point gives
    a bare int and of none fails, so fewer than two points keep the tuple."""
    return itemgetter(*p)(q) if len(p) > 1 else tuple(q[x] for x in p)


def _invert(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


class _Done(Exception):
    pass


class _Level:
    __slots__ = ("base", "gens", "orbit")

    def __init__(self, base):
        self.base = base
        self.gens = []  # (perm, inverse) pairs first placed at this level
        self.orbit = {base: None}  # point -> (perm, inverse, previous point)


class StabilizerChain:
    """Deterministic Schreier-Sims with Schreier-vector transversals.

    The group at level i is generated by the strong generators of levels
    i and deeper (those all fix the base points above i).
    """

    def __init__(self, degree, generators, known_order=None):
        self.degree = degree
        self.levels = []
        self._ident = tuple(range(degree))
        try:
            for g in generators:
                self._insert(tuple(g.imgs if isinstance(g, Permutation) else g), 0, known_order)
            changed = True
            while changed:
                changed = False
                for i in range(len(self.levels)):
                    if self._process_level(i, known_order):
                        changed = True
        except _Done:
            pass

    def order(self):
        total = 1
        for level in self.levels:
            total *= len(level.orbit)
        return total

    def base(self):
        return [level.base for level in self.levels]

    def contains(self, perm):
        if isinstance(perm, Permutation):
            perm = perm.imgs
        if len(perm) != self.degree:
            return False
        residue, _ = self._sift(tuple(perm), 0)
        return residue is None

    def _gens_at(self, i):
        out = []
        for level in self.levels[i:]:
            out.extend(level.gens)
        return out

    def _transversal(self, level, point):
        """An element u with u(base) = point, from the Schreier vector."""
        steps = []
        while point != level.base:
            g, _, prev = level.orbit[point]
            steps.append(g)
            point = prev
        u = self._ident
        for g in reversed(steps):
            u = _compose(u, g)
        return u

    def _rebuild_orbit(self, i):
        level = self.levels[i]
        gens = self._gens_at(i)
        level.orbit = {level.base: None}
        queue = [level.base]
        for a in queue:
            for g, ginv in gens:
                b = g[a]
                if b not in level.orbit:
                    level.orbit[b] = (g, ginv, a)
                    queue.append(b)
                b = ginv[a]
                if b not in level.orbit:
                    level.orbit[b] = (ginv, g, a)
                    queue.append(b)

    def _sift(self, p, lvl):
        for i in range(lvl, len(self.levels)):
            level = self.levels[i]
            beta = p[level.base]
            if beta == level.base:
                continue
            if beta not in level.orbit:
                return p, i
            u = self._transversal(level, beta)
            p = _compose(p, _invert(u))
        return (None, len(self.levels)) if p == self._ident else (p, len(self.levels))

    def _insert(self, p, lvl, known_order):
        residue, where = self._sift(p, lvl)
        if residue is None:
            return False
        if where == len(self.levels):
            base = min(i for i, j in enumerate(residue) if i != j)
            self.levels.append(_Level(base))
        self.levels[where].gens.append((residue, _invert(residue)))
        for i in range(where + 1):
            self._rebuild_orbit(i)
        if known_order is not None and self.order() == known_order:
            raise _Done
        return True

    def _process_level(self, i, known_order):
        """Sift all Schreier generators of level i; returns True on growth."""
        level = self.levels[i]
        changed = False
        for beta in sorted(level.orbit):
            u = self._transversal(level, beta)
            for g, _ in self._gens_at(i):
                gamma = g[beta]
                u2 = self._transversal(level, gamma)
                schreier = _compose(_compose(u, g), _invert(u2))
                if schreier != self._ident:
                    if self._insert(schreier, i + 1, known_order):
                        changed = True
        return changed


class PermGroup:
    """A permutation group given by generators.

    ``order`` may be passed when already known (enumerated groups);
    ``table`` attaches an ElementTable so structural computations reuse it.

    Elements are also named by index.  A group enumerated on its own uses
    the indices of its ambient table.  A subgroup made by
    ``subgroup_from_indices`` shares its parent's ambient table and keeps
    the sorted ambient indices of its members: its own index ``p`` names
    the ambient element ``members[p]``, which is also element ``p`` of
    ``own_table()``.  This class is the only code that knows the encoding;
    callers speak own indices through ``index_of``, ``indices_of``,
    ``perm_of`` and ``subgroup_from_indices``.  Such a subgroup builds its
    generator permutations only when ``generators`` is first read.
    """

    def __init__(self, degree, generators, order=None, table=None):
        self.degree = degree
        self._generators = [
            g if isinstance(g, Permutation) else Permutation(g) for g in generators
        ]
        for g in self._generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
        self._order = order
        self._chain = None
        self._table = table  # ElementTable of the ambient enumeration
        self._members = None  # sorted ambient indices of a subgroup, None = whole
        self._gen_idx = None  # ambient indices of a subgroup's generators
        self._own = None  # standalone ElementTable of this very group
        self._pos = None  # ambient index -> own index of a subgroup

    @property
    def generators(self):
        if self._generators is None:  # a subgroup's, replayed from its ambient table
            self._generators = [Permutation(self._table.perm_of(i)) for i in self._gen_idx]
        return self._generators

    def stabilizer_chain(self):
        if self._chain is None:
            self._chain = StabilizerChain(self.degree, self.generators, self._order)
        return self._chain

    def order(self):
        if self._order is None:
            self._order = self.stabilizer_chain().order()
        return self._order

    def __len__(self):
        return self.order()

    def contains(self, perm):
        return self.stabilizer_chain().contains(perm)

    def __contains__(self, perm):
        return self.contains(perm)

    # -- element indices ----------------------------------------------------

    def _ambient_table(self):
        """ElementTable of the enumeration this group lives in (cached)."""
        if self._table is None:
            if not self.generators:
                raise ValueError("cannot enumerate an empty generator list")
            from gategroups.cayley import ElementTable

            cap = limit("MAX_ENUMERATION")
            if self.order() > cap:
                raise CapacityError(
                    f"group of order {self._order} exceeds the enumeration cap {cap}"
                    " (GATEGROUPS_MAX_ENUMERATION)"
                )
            self._table = ElementTable.from_permutations(
                [g.imgs for g in self.generators], self.stabilizer_chain().base(), cap
            )
        return self._table

    def _ambient_members(self):
        table = self._ambient_table()
        return range(table.n) if self._members is None else self._members

    def own_table(self):
        """Standalone ElementTable of this group, indexed by own indices."""
        if self._own is None:
            table = self._ambient_table()
            if self._members is None:
                self._own = table
            else:
                self._own = table.subgroup_table(self._gen_idx, self._members)
        return self._own

    def perm_of(self, i):
        """The element with own index ``i`` as a permutation."""
        table = self._ambient_table()
        return Permutation(table.perm_of(i if self._members is None else self._members[i]))

    def index_of(self, perm):
        """Own index of a permutation; ValueError if it lies outside the group."""
        imgs = perm.imgs if isinstance(perm, Permutation) else tuple(perm)
        (i,) = self._own_indices([self._ambient_table().index_of(imgs)])
        return i

    def indices_of(self, sub):
        """Own indices of the members of ``sub``; ValueError unless a subgroup."""
        table = self._ambient_table()
        sub_table = sub._ambient_table()
        members = sub._ambient_members()
        if sub_table is not table:
            members = table.indices_of(sub_table, members)
        return self._own_indices(members)

    def _own_indices(self, ambient):
        """Own indices of ambient indices; ValueError if one lies outside."""
        if self._members is None:
            return set(ambient)
        if self._pos is None:
            self._pos = {a: p for p, a in enumerate(self._members)}
        try:
            return {self._pos[a] for a in ambient}
        except KeyError:
            raise ValueError("permutation is not an element of the group") from None

    def subgroup_from_indices(self, gen_indices, members):
        """The subgroup with the given generators and members (own indices)."""
        table = self._ambient_table()
        if self._members is not None:
            gen_indices = [self._members[i] for i in gen_indices]
            members = [self._members[i] for i in members]
        sub = PermGroup(self.degree, (), order=len(members), table=table)
        sub._generators = None
        sub._members = tuple(sorted(members))
        sub._gen_idx = list(gen_indices) or [0]  # [0] gives the identity
        return sub

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, generators={len(self.generators)})"


def write_perm_group(group, path):
    """Group file: a degree line, then one generator per line in cycle notation."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"degree {group.degree}\n")
        for g in group.generators:
            fh.write(str(g) + "\n")


def group_file_lines(path):
    """The nonblank lines of a group file as stripped (line number, text) pairs.

    Group files are ASCII; a byte outside ASCII raises GroupFileError naming
    its line.
    """
    lines = []
    with open(path, encoding="ascii", errors="surrogateescape") as fh:
        for n, ln in enumerate(fh, 1):
            if not ln.isascii():
                col, ch = next((c, ch) for c, ch in enumerate(ln, 1) if not ch.isascii())
                raise GroupFileError(f"non-ASCII byte 0x{ord(ch) - 0xDC00:02x} in column {col}", n)
            if ln.strip():
                lines.append((n, ln.strip()))
    return lines


def positive_count(text):
    """The positive int written in the digits ``text``, else None (also past int's digit limit)."""
    try:
        n = int(text) if text.isdigit() else 0
    except ValueError:
        return None
    return n if n >= 1 else None


def read_perm_group(path):
    """Read a group file written by write_perm_group.

    A malformed file, or a degree above GATEGROUPS_MAX_ENUMERATION, raises
    GroupFileError naming the line.
    """
    lines = group_file_lines(path)
    head = lines[0][1].split() if lines else []
    degree = positive_count(head[1]) if len(head) == 2 and head[0] == "degree" else None
    if degree is None:
        raise GroupFileError(
            "group file must start with 'degree <positive n>'", lines[0][0] if lines else 1
        )
    cap = limit("MAX_ENUMERATION")
    if degree > cap:
        raise GroupFileError(
            f"degree {degree} exceeds the cap {cap} set by GATEGROUPS_MAX_ENUMERATION",
            lines[0][0],
        )
    gens = []
    for lineno, text in lines[1:]:
        try:
            gens.append(Permutation.parse(text, degree))
        except ValueError as exc:
            raise GroupFileError(str(exc), lineno) from None
    if not gens:
        gens = [Permutation.identity(degree)]
    return PermGroup(degree, gens)
