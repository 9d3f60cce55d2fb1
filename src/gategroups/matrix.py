"""Exact unitary matrices over cyclotomics and finite matrix groups.

A ``MatrixGroup`` is an enumerated element table built by Dimino-style
inductive closure from its generators; the table gives every element a
stable index (identity is element 0) so matrix groups can be handed over
to the permutation machinery through their right-regular action.
"""

from __future__ import annotations

from gategroups import cyclo
from gategroups.config import limit
from gategroups.errors import ClosureOverflowError

__all__ = [
    "UnitaryMatrix",
    "MatrixGroup",
    "matmul",
    "kron",
    "dagger",
    "closure",
    "regular_perm_rep",
    "identity_matrix",
    "diagonal_matrix",
    "matrix_from_rows",
    "write_group",
    "read_group",
]

_ZERO = cyclo.ZERO
_ONE = cyclo.ONE


class UnitaryMatrix:
    """Immutable square matrix with exact cyclotomic entries."""

    __slots__ = ("dim", "entries", "_hash")

    def __init__(self, dim, entries, check_unitary=False):
        entries = tuple(cyclo.Cyclotomic(e) for e in entries)
        if len(entries) != dim * dim:
            raise ValueError(f"need {dim * dim} entries for a {dim}x{dim} matrix")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_hash", hash((dim, entries)))
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
        return "[" + ", ".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.rows()) + "]"


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
    d = a.dim
    ae = a.entries
    be = b.entries
    out = []
    for i in range(d):
        arow = ae[i * d : (i + 1) * d]
        for j in range(d):
            acc = _ZERO
            for k in range(d):
                x = arow[k]
                if x is _ZERO:
                    continue
                y = be[k * d + j]
                if y is _ZERO:
                    continue
                acc = acc + x * y
            out.append(acc)
    return UnitaryMatrix(d, tuple(out))


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
    """A finite matrix group with a fully enumerated element table.

    ``elements[0]`` is the identity and the indexing is deterministic for a
    fixed generator order.  The index-level table and the regular
    permutation group are built on first use and cached.
    """

    def __init__(self, generators, elements, index):
        self.generators = list(generators)
        self.dim = generators[0].dim
        self.elements = elements
        self.index = index
        self._table = None
        self._perm_group = None

    def order(self):
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, m):
        return m in self.index

    def index_of(self, m):
        return self.index[m]

    def element_table(self):
        """Index-level multiplication engine for this group (cached)."""
        from gategroups.cayley import ElementTable

        if self._table is None:
            gen_idx = []
            rmul = []
            for g in self.generators:
                gen_idx.append(self.index[g])
                rmul.append([self.index[matmul(x, g)] for x in self.elements])
            self._table = ElementTable(len(self.elements), gen_idx, rmul)
        return self._table

    def perm_group(self):
        """The right-regular permutation group (cached)."""
        if self._perm_group is None:
            self._perm_group = regular_perm_rep(self)
        return self._perm_group


def closure(generators, budget=None):
    """Enumerate the group generated by unitary matrices (Dimino closure).

    Raises ClosureOverflowError if more than ``budget`` elements appear,
    which signals wrong generators or a non-finite group.
    """
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

    ident = identity_matrix(gens[0].dim)
    elements = [ident]
    index = {ident: 0}

    def grow(m):
        if len(elements) >= budget:
            raise ClosureOverflowError(
                f"closure exceeded the budget of {budget} elements"
            )
        index[m] = len(elements)
        elements.append(m)

    # cyclic group of the first generator
    g = gens[0]
    x = g
    while x not in index:
        grow(x)
        x = matmul(x, g)

    # inductively add the remaining generators; each round walks the coset
    # space of the previous subgroup
    for level in range(1, len(gens)):
        s = gens[level]
        if s in index:
            continue
        sub_order = len(elements)
        sub = elements[:sub_order]
        level_gens = gens[: level + 1]
        grow(s)
        for e in sub[1:]:
            grow(matmul(e, s))
        rep_pos = sub_order
        while rep_pos < len(elements):
            rep = elements[rep_pos]
            for t in level_gens:
                x = matmul(rep, t)
                if x not in index:
                    grow(x)
                    for e in sub[1:]:
                        grow(matmul(e, x))
            rep_pos += sub_order
    return MatrixGroup(gens, elements, index)


def regular_perm_rep(group):
    """Faithful permutation representation by right multiplication.

    The image acts on the |G| element indices; perm(a)*perm(b) = perm(a*b).
    """
    from gategroups.perm import PermGroup, Permutation

    table = group.element_table()
    gens = [Permutation(col) for col in table.rmul_columns()]
    return PermGroup(len(group.elements), gens, order=len(group.elements), table=table)


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
    """Parse a matrix literal [[...], [...]] with cyclotomic entries."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError("matrix literal must be wrapped in [ ]")
    rows = []
    depth = 0
    row_start = None
    for pos, ch in enumerate(text):
        if ch == "[":
            depth += 1
            if depth == 2:
                row_start = pos + 1
        elif ch == "]":
            if depth == 2:
                rows.append(text[row_start:pos])
            depth -= 1
    entries = []
    for row in rows:
        cells = [cyclo.parse(cell) for cell in row.split(",")]
        entries.append(cells)
    m = matrix_from_rows(entries)
    if dim is not None and m.dim != dim:
        raise ValueError(f"expected a {dim}x{dim} matrix, found {m.dim}x{m.dim}")
    return m


def read_group(path):
    """Read a matrix group file written by write_group; bit-exact round trip."""
    with open(path, encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("dim "):
        raise ValueError("group file must start with a 'dim' line")
    dim = int(lines[0].split()[1])
    if not lines[1].startswith("generators "):
        raise ValueError("group file must declare its generator count")
    count = int(lines[1].split()[1])
    gens = [parse_matrix(lines[2 + i], dim) for i in range(count)]
    group = closure(gens)
    pos = 2 + count
    if pos < len(lines) and lines[pos].startswith("elements "):
        declared = int(lines[pos].split()[1])
        listed = [parse_matrix(ln, dim) for ln in lines[pos + 1 : pos + 1 + declared]]
        if len(listed) != declared or set(listed) != set(group.elements):
            raise ValueError("element list does not match the generated group")
    return group
