"""Exact matrices, base-image enumeration, the action on the row orbit, group files."""

import random

import pytest

from conftest import dimino_closure, matrix_product
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
from gategroups.pauligraph import mub_chain


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
        return mub_chain(2, with_aut=False)[int(name[-1]) - 2].group
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
