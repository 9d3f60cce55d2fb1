"""Exact unitary matrices over cyclotomics and finite matrix groups.

A matrix is determined by its rows, and a finite matrix group permutes the
finite orbit of row vectors ``e_i^T * x``.  ``closure`` computes that orbit,
then enumerates the group by base images: element i is named by the orbit
positions of its d rows, and right multiplication by a generator permutes
those names.  Identity is element 0.  The permutation machinery sees a
matrix group as the faithful permutation group on its row orbit.  Each
matrix keeps the nonzero entries of its rows, so a row times a matrix
sums over those alone.
"""

from __future__ import annotations

import re

from gategroups import cyclo
from gategroups.config import limit
from gategroups.errors import GroupFileError
from gategroups.perm import PermGroup, group_file_lines, positive_count

__all__ = [
    "UnitaryMatrix",
    "MatrixGroup",
    "matmul",
    "kron",
    "dagger",
    "closure",
    "identity_matrix",
    "diagonal_matrix",
    "matrix_from_rows",
    "write_group",
    "read_group",
]

_ZERO = cyclo.ZERO
_ONE = cyclo.ONE


class UnitaryMatrix:
    """Immutable square matrix with exact cyclotomic entries.

    Each row also keeps its nonzero ``(column, entry)`` pairs, built once,
    so a product reads only the nonzero entries: gate matrices are sparse.
    """

    __slots__ = ("dim", "entries", "_hash", "_sparse")

    def __init__(self, dim, entries, check_unitary=False):
        entries = tuple(cyclo.Cyclotomic(e) for e in entries)
        if len(entries) != dim * dim:
            raise ValueError(f"need {dim * dim} entries for a {dim}x{dim} matrix")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_hash", hash((dim, entries)))
        sparse = tuple(
            tuple((j, x) for j, x in enumerate(entries[i * dim : (i + 1) * dim]) if x is not _ZERO)
            for i in range(dim)
        )
        object.__setattr__(self, "_sparse", sparse)
        if check_unitary and not self.is_unitary():
            raise ValueError("matrix is not unitary")

    def __setattr__(self, name, value):
        raise AttributeError("UnitaryMatrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.dim + j]

    def rows(self):
        d = self.dim
        return [self.entries[i * d : (i + 1) * d] for i in range(d)]

    def row_times(self, row):
        """The row vector ``row`` times this matrix, as a tuple, summed over
        the nonzero entries of ``row`` and of this matrix's rows only."""
        out = [_ZERO] * self.dim
        for x, pairs in zip(row, self._sparse):
            if x is not _ZERO:
                for j, y in pairs:
                    out[j] += x * y
        return tuple(out)

    def __mul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return UnitaryMatrix(self.dim, tuple(-e for e in self.entries))

    def scaled(self, scalar):
        s = cyclo.Cyclotomic(scalar)
        return UnitaryMatrix(self.dim, tuple(s * e for e in self.entries))

    def dagger(self):
        return dagger(self)

    def is_unitary(self):
        return matmul(self, dagger(self)) == identity_matrix(self.dim)

    def __eq__(self, other):
        if not isinstance(other, UnitaryMatrix):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"UnitaryMatrix({self.dim}, {self.entries!r})"

    def __str__(self):
        rows = ("[" + ", ".join(map(str, row)) + "]" for row in self.rows())
        return "[" + ", ".join(rows) + "]"


def identity_matrix(dim):
    entries = [_ZERO] * (dim * dim)
    for i in range(dim):
        entries[i * dim + i] = _ONE
    return UnitaryMatrix(dim, tuple(entries))


def diagonal_matrix(values):
    values = [cyclo.Cyclotomic(v) for v in values]
    dim = len(values)
    entries = [_ZERO] * (dim * dim)
    for i, v in enumerate(values):
        entries[i * dim + i] = v
    return UnitaryMatrix(dim, tuple(entries))


def matrix_from_rows(rows):
    dim = len(rows)
    flat = []
    for row in rows:
        if len(row) != dim:
            raise ValueError("matrix rows must form a square array")
        flat.extend(row)
    return UnitaryMatrix(dim, tuple(flat))


def matmul(a, b):
    """Exact matrix product."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return UnitaryMatrix(a.dim, tuple(e for row in a.rows() for e in b.row_times(row)))


def kron(a, b):
    """Kronecker product; the left factor is the most significant qubit."""
    da, db = a.dim, b.dim
    d = da * db
    out = [_ZERO] * (d * d)
    for i in range(da):
        for j in range(da):
            x = a.entries[i * da + j]
            if x is _ZERO:
                continue
            for k in range(db):
                for l in range(db):
                    y = b.entries[k * db + l]
                    if y is _ZERO:
                        continue
                    out[(i * db + k) * d + (j * db + l)] = x * y
    return UnitaryMatrix(d, tuple(out))


def dagger(a):
    """Conjugate transpose; equals the inverse for unitary matrices."""
    d = a.dim
    out = [None] * (d * d)
    for i in range(d):
        for j in range(d):
            out[j * d + i] = a.entries[i * d + j].conjugate()
    return UnitaryMatrix(d, tuple(out))


class MatrixGroup:
    """A finite matrix group, enumerated by the base images of its elements.

    The rows of every element lie in the orbit of the standard row vectors,
    and element i is keyed by the orbit positions of its rows; element 0 is
    the identity and the indexing is deterministic for a fixed generator
    order.  The element matrices are built on first access to ``elements``.
    """

    def __init__(self, generators, table):
        self.generators = list(generators)
        self.dim = self.generators[0].dim
        self._table = table  # its rows map each row vector to its orbit position
        self._elements = None
        self._perm_group = None

    def order(self):
        return self._table.n

    def __len__(self):
        return self._table.n

    def _key(self, m):
        return self._table.key_of(map(self._table.rows.get, m.rows()))

    def __contains__(self, m):
        return self._key(m) in self._table.key_index

    def index_of(self, m):
        """Index of the matrix m; KeyError if it is not an element."""
        return self._table.key_index[self._key(m)]

    @property
    def elements(self):
        """Element matrices in index order (built on first access)."""
        if self._elements is None:
            rows = list(self._table.rows)
            self._elements = [
                matrix_from_rows([rows[k] for k in points]) for points in self._table.base_images()
            ]
        return self._elements

    def element_table(self):
        """ElementTable of the enumeration, acting on the row orbit: the
        table of ``perm_group()``, named here for the benchmark tracer."""
        return self._table

    def perm_group(self):
        """The permutation group on the row orbit, on the same table (cached)."""
        if self._perm_group is None:
            table = self._table
            self._perm_group = PermGroup(len(table.rows), table._perms, order=table.n, table=table)
        return self._perm_group


def closure(generators, budget=None):
    """Enumerate the group generated by unitary matrices by base images.

    Raises ClosureOverflowError if more than ``budget`` elements (or dim *
    budget rows) appear, which signals wrong generators or a non-finite group.
    """
    from gategroups.cayley import ElementTable, orbit

    if budget is None:
        budget = limit("MAX_CLOSURE")
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    dims = {g.dim for g in gens}
    if len(dims) != 1:
        raise ValueError("generators must share one dimension")
    for g in gens:
        if not g.is_unitary():
            raise ValueError("generators must be unitary")
    d = gens[0].dim
    row_index, row_perms, _ = orbit(
        identity_matrix(d).rows(), gens, lambda v, g: g.row_times(v), d * budget, "MAX_CLOSURE"
    )
    table = ElementTable.from_permutations(row_perms, range(d), budget, "MAX_CLOSURE")
    table.rows = row_index
    return MatrixGroup(gens, table)


# -- textual import/export -------------------------------------------------


def write_group(group, path, include_elements=False):
    """Write a matrix group file: dim, generators, optional element list."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"dim {group.dim}\n")
        fh.write(f"generators {len(group.generators)}\n")
        for g in group.generators:
            fh.write(str(g) + "\n")
        if include_elements:
            fh.write(f"elements {len(group.elements)}\n")
            for m in group.elements:
                fh.write(str(m) + "\n")


def parse_matrix(text, dim=None):
    """Parse a matrix literal [[...], [...]] with cyclotomic entries.

    The rows are wrapped in one pair of brackets each, with commas between
    them, inside one outer pair; other text raises ValueError.
    """
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError("matrix literal must be wrapped in [ ]")
    body = body[1:-1].strip()
    rows = re.split(r"\]\s*,\s*\[", body[1:-1])
    if body[:1] != "[" or body[-1:] != "]" or any("[" in r or "]" in r for r in rows):
        raise ValueError("matrix literal must be [[row], [row], ...]")
    m = matrix_from_rows([[cyclo.parse(cell) for cell in row.split(",")] for row in rows])
    if dim is not None and m.dim != dim:
        raise ValueError(f"expected a {dim}x{dim} matrix, found {m.dim}x{m.dim}")
    return m


def _count_line(lines, pos, keyword):
    """The positive count of the ``keyword N`` line at ``lines[pos]``."""
    if pos >= len(lines):
        raise GroupFileError(f"file ends before the '{keyword}' line", lines[-1][0] + 1)
    lineno, text = lines[pos]
    parts = text.split()
    count = positive_count(parts[1]) if len(parts) == 2 and parts[0] == keyword else None
    if count is None:
        raise GroupFileError(f"expected '{keyword} <positive count>', found {text!r}", lineno)
    return count


def _matrix_lines(lines, pos, count, dim):
    """Parse the ``count`` matrix lines after the count line ``lines[pos - 1]``."""
    if pos + count > len(lines):
        raise GroupFileError(
            f"{count} matrix lines declared, {len(lines) - pos} found", lines[pos - 1][0]
        )
    out = []
    for lineno, text in lines[pos : pos + count]:
        try:
            out.append(parse_matrix(text, dim))
        except ValueError as exc:
            raise GroupFileError(str(exc), lineno) from None
    return out


def read_group(path):
    """Read a matrix group file written by write_group; bit-exact round trip.

    A malformed or truncated file raises GroupFileError naming the line.
    """
    lines = group_file_lines(path)
    if not lines:
        raise GroupFileError("group file is empty", 1)
    dim = _count_line(lines, 0, "dim")
    count = _count_line(lines, 1, "generators")
    gens = _matrix_lines(lines, 2, count, dim)
    for (lineno, _), g in zip(lines[2:], gens):
        if not g.is_unitary():
            raise GroupFileError("generator is not unitary", lineno)
    group = closure(gens)
    pos = 2 + count
    if pos < len(lines):
        declared = _count_line(lines, pos, "elements")
        listed = _matrix_lines(lines, pos + 1, declared, dim)
        exact = declared == len(set(listed)) == group.order()
        if not (exact and all(m in group for m in listed)):
            raise GroupFileError("element list does not match the generated group", lines[pos][0])
        if pos + 1 + declared < len(lines):
            lineno, text = lines[pos + 1 + declared]
            raise GroupFileError(f"unexpected text after the element list: {text!r}", lineno)
    return group
