"""Exact matrices, base-image enumeration, the action on the row orbit, group files."""

import random
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import dimino_closure, indices_of_oracle, matrix_product, row_times_dense
from gategroups.claims import Evaluator
from gategroups.cyclo import ONE, ZERO, rational, root_of_unity, sqrt2
from gategroups.errors import CapacityError, ClosureOverflowError, GroupFileError
from gategroups.gates import (
    bell_group,
    catalog,
    clifford_group,
    pauli2_pair_generators,
    pauli_group,
)
from gategroups.matrix import (
    closure,
    dagger,
    diagonal_matrix,
    identity_matrix,
    kron,
    matmul,
    matrix_from_rows,
    read_group,
    write_group,
)
from gategroups.structure import center


def test_matmul_examples():
    c = catalog()
    assert matmul(c.hadamard, c.hadamard) == identity_matrix(2)
    assert matmul(c.sigma_x, c.sigma_z) == matmul(c.sigma_z, c.sigma_x).scaled(-1)
    assert matmul(c.phase, c.phase) == c.sigma_z
    with pytest.raises(ValueError):
        matmul(c.phase, c.cz)


def test_kron_examples():
    c = catalog()
    assert kron(identity_matrix(2), identity_matrix(2)) == identity_matrix(4)
    assert kron(c.sigma_z, c.sigma_z) == diagonal_matrix([1, -1, -1, 1])
    xy = kron(c.sigma_x, c.sigma_y)
    assert matmul(xy, xy) == identity_matrix(4)  # order 2 as a group element


def test_kron_ordering_left_most_significant():
    c = catalog()
    zi = kron(c.sigma_z, c.sigma0)
    iz = kron(c.sigma0, c.sigma_z)
    assert zi == diagonal_matrix([1, 1, -1, -1])
    assert iz == diagonal_matrix([1, -1, 1, -1])


def test_dagger():
    c = catalog()
    i = root_of_unity(4)
    assert dagger(identity_matrix(2)) == identity_matrix(2)
    assert dagger(c.phase) == diagonal_matrix([ONE, -i])
    assert matmul(dagger(c.bell), c.bell) == identity_matrix(4)


def test_closure_small():
    c = catalog()
    assert closure([c.sigma_x]).order() == 2
    assert closure([c.hadamard, c.phase]).order() == 192


def test_closure_rejects_nonunitary():
    bad = matrix_from_rows([[ONE, ONE], [ZERO, ONE]])
    with pytest.raises(ValueError):
        closure([bad])


def test_closure_budget_overflow():
    c = catalog()
    assert issubclass(ClosureOverflowError, CapacityError)
    with pytest.raises(ClosureOverflowError, match="GATEGROUPS_MAX_CLOSURE"):
        closure([c.hadamard, c.phase], budget=64)
    # a rotation of infinite order overflows its row orbit
    three, four = rational(3, 5), rational(4, 5)
    rotation = matrix_from_rows([[three, -four], [four, three]])
    with pytest.raises(ClosureOverflowError, match="GATEGROUPS_MAX_CLOSURE"):
        closure([rotation], budget=50)


def test_environment_capacity_override(monkeypatch):
    monkeypatch.setenv("GATEGROUPS_MAX_CLOSURE", "100")
    from gategroups.config import limit

    assert limit("MAX_CLOSURE") == 100
    c = catalog()
    with pytest.raises(ClosureOverflowError):
        closure([c.hadamard, c.phase])  # order 192 > overridden budget


@pytest.mark.parametrize(
    "value, message",
    [("abc", "not an integer"), ("0", "must be positive"), ("-5", "must be positive")],
)
def test_limit_rejects_bad_values(monkeypatch, value, message):
    from gategroups.config import limit

    monkeypatch.setenv("GATEGROUPS_MAX_ENUMERATION", value)
    with pytest.raises(ValueError, match=f"GATEGROUPS_MAX_ENUMERATION.*{message}"):
        limit("MAX_ENUMERATION")


def _oracle_group(name):
    if name.startswith("mub"):
        return Evaluator()._mub_group(2, int(name[-1]))
    return {
        "p1": lambda: pauli_group(1),
        "p2": lambda: pauli_group(2),
        "c1": lambda: clifford_group(1),
        "c2": lambda: clifford_group(2),
        "b2": bell_group,
        "p2pairs": lambda: closure(pauli2_pair_generators()),
    }[name]()


def _check_against_dimino(group):
    elements, index = dimino_closure(group.generators)
    assert group.order() == len(elements)
    assert set(group.elements) == set(elements)
    assert [group.index_of(m) for m in group.elements] == list(range(group.order()))
    relabel = [group.index_of(m) for m in elements]
    table = group.perm_group().own_table()
    assert table.gen_indices == [group.index_of(g) for g in group.generators]
    for gen, col in zip(group.generators, map(table.column, table.gen_indices)):
        for i, m in enumerate(elements):
            assert col[relabel[i]] == relabel[index[matrix_product(m, gen)]]


@pytest.mark.parametrize("name", ["p1", "p2", "c1", "b2", "p2pairs", "mub2", "mub3", "mub4"])
def test_enumeration_matches_dimino_oracle(name):
    """Same element set and, after relabelling, the same generator columns."""
    _check_against_dimino(_oracle_group(name))


@pytest.mark.long
def test_c2_enumeration_matches_dimino_oracle():
    _check_against_dimino(clifford_group(2))


MEMBERSHIP_GROUPS = ["p1", "c1", "p2", "p2pairs", "b2", "mub2", "mub3", "mub4"]
MEMBERSHIP_PAIRS = [
    (parent, child) for parent in MEMBERSHIP_GROUPS + ["c2"] for child in MEMBERSHIP_GROUPS
    if parent != child
]


@pytest.mark.parametrize("parent_name, child_name", MEMBERSHIP_PAIRS)
def test_membership_across_matrix_groups_matches_generators(parent_name, child_name):
    """Indices across two row tables agree with matrix lookups in the parent."""
    parent, child = _oracle_group(parent_name), _oracle_group(child_name)
    if all(g in parent for g in child.generators):
        expected = {parent.index_of(m) for m in child.elements}
        assert parent.perm_group().indices_of(child.perm_group()) == expected
    else:
        with pytest.raises(ValueError):
            parent.perm_group().indices_of(child.perm_group())


def test_matrix_and_point_groups_share_no_elements():
    from gategroups.groups import symmetric

    s4, c1 = symmetric(4), clifford_group(1).perm_group()
    with pytest.raises(ValueError):
        c1.indices_of(s4)
    with pytest.raises(ValueError):
        s4.indices_of(c1)


def test_t_gate_is_not_in_c1():
    """Every row of T is a row of some element of C1, yet T is not in C1."""
    c1 = clifford_group(1)
    t = diagonal_matrix([1, root_of_unity(8)])
    rows = {r for m in c1.elements for r in m.rows()}
    assert all(r in rows for r in t.rows())
    assert t not in c1
    with pytest.raises(KeyError):
        c1.index_of(t)


@pytest.mark.parametrize("qubits, rows", [(1, 48), (2, 480)])
def test_a_row_outside_the_orbit_is_no_member(qubits, rows):
    """C1 (48 rows) keys its elements by bytes and C2 (480 rows) by tuples; on both, a
    unitary with a row outside the row orbit is not a member and has no index."""
    group = clifford_group(qubits)
    table = group.element_table()
    assert len(table.rows) == rows
    assert type(next(iter(table.key_index))) is (bytes if rows <= 256 else tuple)
    m = diagonal_matrix([1] * (2**qubits - 1) + [root_of_unity(16)])
    assert m.rows()[-1] not in table.rows
    assert m not in group
    with pytest.raises(KeyError):
        group.index_of(m)


def test_closure_order_independent():
    c = catalog()
    a = closure([c.hadamard, c.phase])
    b = closure([c.phase, c.hadamard])
    assert set(a.elements) == set(b.elements)


def test_identity_is_element_zero():
    c = catalog()
    g = closure([c.hadamard, c.phase])
    assert g.elements[0] == identity_matrix(2)
    assert g.index_of(identity_matrix(2)) == 0


def test_elements_unitary_spot_check():
    g = pauli_group(2)
    rng = random.Random(7)
    for _ in range(100):
        m = g.elements[rng.randrange(g.order())]
        assert m.is_unitary()


def test_perm_group_acts_on_the_row_orbit():
    c = catalog()
    g = closure([c.sigma_x])
    pg = g.perm_group()
    assert pg.order() == 2
    assert pg.degree == 2

    c1 = closure([c.hadamard, c.phase])
    pg1 = c1.perm_group()
    assert pg1.order() == 192
    assert pg1.degree == 48
    table = c1.perm_group().own_table()
    rng = random.Random(11)
    for _ in range(25):
        a = rng.randrange(192)
        b = rng.randrange(192)
        pa = table.perm_of(a)
        pb = table.perm_of(b)
        composed = tuple(pb[x] for x in pa)  # apply a then b
        assert composed == tuple(table.perm_of(table.mult(a, b)))
    assert all(table.index_of(table.perm_of(i)) == i for i in range(192))

    c2 = clifford_group(2)
    assert c2.perm_group().degree == 480
    table = c2.perm_group().own_table()
    for i in rng.sample(range(92160), 25):
        assert table.index_of(table.perm_of(i)) == i


def test_pauli_orders_match_formula():
    assert pauli_group(1).order() == 16
    assert pauli_group(2).order() == 64


@pytest.mark.long
def test_pauli3_order():
    assert pauli_group(3).order() == 4**4


def test_group_file_round_trip(tmp_path):
    c = catalog()
    g = closure([c.hadamard, c.phase])
    path = tmp_path / "c1.group"
    write_group(g, path, include_elements=False)
    back = read_group(path)
    assert back.order() == g.order()
    assert back.generators == g.generators
    assert set(back.elements) == set(g.elements)


def test_group_file_with_elements(tmp_path):
    c = catalog()
    g = closure([c.sigma_x, c.sigma_z])
    path = tmp_path / "d8.group"
    write_group(g, path, include_elements=True)
    back = read_group(path)
    assert set(back.elements) == set(g.elements)


@pytest.mark.parametrize(
    "text, line",
    [
        ("", 1),
        ("dim 2\n", 2),
        ("dim two\ngenerators 1\n[[0, 1], [1, 0]]\n", 1),
        ("dim 2\ngenerators 2\n[[0, 1], [1, 0]]\n", 2),
        ("dim 2\n\ngenerators 1\n[[0, 1], [1, 0, 0]]\n", 4),
        ("dim 2\ngenerators 1\n[[0, 1], [1, 0]]\nelements 3\n[[1, 0], [0, 1]]\n", 4),
        ("dim 2\ngenerators 1\n[[0, 1], [1, 0]]\u00a0\n", 3),
        ("dim " + "1" * 5000 + "\ngenerators 1\n[[1]]\n", 1),  # beyond the digit limit of int()
        ("dim 1\ngenerators " + "1" * 5000 + "\n[[1]]\n", 2),
        ("dim 1\ngenerators 1\n[[2]]\n", 3),  # not unitary
        ("dim 1\ngenerators 2\n[[1]]\n\n[[-2]]\n", 5),
        ("dim 1\ngenerators 1\n[[2^99999999999]]\n", 3),  # a power too large to hold
        ("dim 1\ngenerators 1\n[[E(99999999999)^2]]\n", 3),  # a conductor too large
        ("dim 1\ngenerators 1\n[[" + "(" * 3000 + "1" + ")" * 3000 + "]]\n", 3),  # too deep
    ],
)
def test_group_file_errors_name_the_line(tmp_path, text, line):
    path = tmp_path / "bad.group"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(GroupFileError) as err:
        read_group(path)
    assert err.value.line_number == line
    assert str(err.value).startswith(f"line {line}: ")


@pytest.mark.parametrize(
    "text",
    ["[[0, 1] x [1, 0]]", "[[0, 1], [1, 0]", "[[0, 1], [1, 0]]]", "[x[0, 1], [1, 0]]",
     "[[0, 1]][[1, 0]]", "[[[0, 1], [1, 0]]]", "[]"],
)
def test_malformed_matrix_literals_are_refused(tmp_path, text):
    """Stray text or brackets around the rows once loaded as the bare rows."""
    path = tmp_path / "bad.group"
    path.write_text(f"dim 2\ngenerators 1\n{text}\n", encoding="ascii")
    with pytest.raises(GroupFileError) as err:
        read_group(path)
    assert str(err.value) == "line 3: matrix literal must be [[row], [row], ...]"


def test_an_element_list_with_a_repeat_is_refused(tmp_path):
    """Three listed elements of a group of order 2 once loaded, one of them twice."""
    path = tmp_path / "repeat.group"
    x, one = "[[0, 1], [1, 0]]", "[[1, 0], [0, 1]]"
    path.write_text(f"dim 2\ngenerators 1\n{x}\nelements 3\n{one}\n{x}\n{x}\n", encoding="ascii")
    with pytest.raises(GroupFileError) as err:
        read_group(path)
    assert str(err.value) == "line 4: element list does not match the generated group"


# -- fuzz: matrix group files ------------------------------------------------------

_CELLS = ["0", "1", "-1", "E(4)", "-E(4)", "E(8)", "ER(2)/2", "-ER(2)/2", "1/2", "2", "E(",
          "x", "", "1/0", "E(0)", "E(99999999999)", "2^99999999999"]


def _gates():
    """Unitary matrices written as ``write_group`` writes them, by dimension."""
    c = catalog()
    return {
        1: ["[[1]]", "[[-1]]", "[[E(4)]]", "[[E(8)]]"],
        2: [str(m) for m in (c.sigma0, c.sigma_x, c.sigma_z, c.hadamard, c.phase)],
        4: [str(m) for m in (c.cz, c.bell)],
    }


@st.composite
def _matrix_lines(draw, dim):
    """Mostly a gate of dimension ``dim``; else a grid of cells of any shape, a gate
    of another dimension, or one of these with a character cut."""
    kind = draw(st.integers(0, 5))
    if kind < 3:
        text = draw(st.sampled_from(_gates().get(dim, ["[[1]]"])))
    elif kind == 3:
        text = draw(st.sampled_from(sum(_gates().values(), [])))
    else:
        rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        cells = st.sampled_from(_CELLS)
        grid = [[draw(cells) for _ in range(cols)] for _ in range(rows)]
        text = "[" + ", ".join("[" + ", ".join(row) + "]" for row in grid) + "]"
    if text and draw(st.integers(0, 5)) == 0:
        i = draw(st.integers(0, len(text) - 1))
        text = text[:i] + text[i + 1:]
    return text


# one bracket pair around the rows and one around each row, commas between
_MATRIX_LITERAL = re.compile(r"\[\s*\[[^][]*\](\s*,\s*\[[^][]*\])*\s*\]")
_BAD_COUNTS = st.sampled_from(["0", "-1", "x", "", "1 2", "99999999999"])


def _count(draw, keyword, n):
    """``keyword n``, or now and then a count that is wrong or malformed."""
    count = str(n) if draw(st.integers(0, 4)) else draw(st.one_of(_BAD_COUNTS, st.just(str(n + 1))))
    return f"{keyword} {count}"


@st.composite
def _group_files(draw):
    """Header, generators and an optional element list, each count mostly right; then
    sometimes an extra line and sometimes cut short."""
    dim = draw(st.sampled_from([1, 2, 4]))
    gens = draw(st.lists(_matrix_lines(dim), min_size=1, max_size=3))
    lines = [_count(draw, "dim", dim), _count(draw, "generators", len(gens)), *gens]
    if draw(st.booleans()):
        elements = draw(st.lists(_matrix_lines(dim), max_size=4))
        lines += [_count(draw, "elements", len(elements)), *elements]
    if draw(st.integers(0, 3)) == 0:
        extra = st.one_of(_matrix_lines(dim), _BAD_COUNTS, st.text(st.characters(max_codepoint=127), max_size=8))
        lines.insert(draw(st.integers(0, len(lines))), draw(extra))
    if draw(st.integers(0, 3)) == 0:
        lines = lines[: draw(st.integers(0, len(lines)))]
    return "\n".join(lines)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_group_files())
def test_any_matrix_group_file_loads_or_names_its_line(tmp_path, monkeypatch, text):
    monkeypatch.setenv("GATEGROUPS_MAX_CLOSURE", "64")
    path = tmp_path / "any.group"
    path.write_text(text, encoding="ascii")
    try:
        group = read_group(path)
    except GroupFileError as exc:
        assert 1 <= exc.line_number <= text.count("\n") + 2
        assert str(exc).startswith(f"line {exc.line_number}: ")
    except CapacityError:
        pass
    else:
        assert all(g.dim == group.dim and g.is_unitary() for g in group.generators)
        assert group.order() <= 64
        lines = [line.strip() for line in text.split("\n") if line.strip()]
        assert all(_MATRIX_LITERAL.fullmatch(line) for line in lines[2:] if line[0] == "[")
        counts = [line.split()[1] for line in lines if line.startswith("elements")]
        assert counts in ([], [str(group.order())])


def test_sqrt2_entries_survive_round_trip(tmp_path):
    c = catalog()
    g = closure([c.bell])
    path = tmp_path / "bell.group"
    write_group(g, path)
    back = read_group(path)
    assert back.generators[0] == c.bell


def test_perm_group_is_cached():
    g = pauli_group(1)
    assert g.perm_group() is g.perm_group()
    assert g.perm_group().own_table() is g.element_table()


def test_matrix_indices_of_matches_the_row_lookup_oracle():
    """B2, P2 and Z(C2) in C2, and the members of P2 in C2 back in P2, whose
    row orbit lacks most of C2's rows, against looking each row up; a
    non-member is a ValueError."""
    c2t, b2t, p2t = (g.perm_group().own_table() for g in (clifford_group(2), bell_group(), pauli_group(2)))
    z = center(clifford_group(2).perm_group())
    p2_in_c2 = c2t.indices_of(p2t, range(p2t.n))
    cases = [
        (c2t, b2t, range(b2t.n)),
        (c2t, p2t, range(p2t.n)),
        (c2t, c2t, clifford_group(2).perm_group().indices_of(z)),
        (p2t, c2t, p2_in_c2),
    ]
    for table, other, members in cases:
        got = table.indices_of(other, members)
        assert got == indices_of_oracle(table, other, members)
        assert len(got) == len(members)
    assert len(p2t.rows) < len(c2t.rows)
    for indices_of in (b2t.indices_of, lambda *a: indices_of_oracle(b2t, *a)):
        with pytest.raises(ValueError):
            indices_of(c2t, range(c2t.n))


@pytest.mark.parametrize("build", [clifford_group.__name__, bell_group.__name__])
def test_sparse_row_times_matches_the_dense_product(build):
    """Every row of the row orbit times every generator, and 200 elements times two rows."""
    group = clifford_group(2) if build == "clifford_group" else bell_group()
    table = group.perm_group().own_table()
    rows = list(table.rows)
    assert len(rows) == 480
    for g in group.generators:
        assert [g.row_times(r) for r in rows] == [row_times_dense(g, r) for r in rows]
    for points in list(table.base_images())[:: table.n // 200]:
        m = matrix_from_rows([rows[k] for k in points])
        for r in rows[:: len(rows) // 2]:
            assert m.row_times(r) == row_times_dense(m, r)
