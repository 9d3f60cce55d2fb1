"""Exact matrices, Dimino closure, the regular representation, group files."""

import random

import pytest

from gategroups.cyclo import ONE, ZERO, root_of_unity, sqrt2
from gategroups.errors import ClosureOverflowError
from gategroups.gates import catalog, pauli_group
from gategroups.matrix import (
    closure,
    dagger,
    diagonal_matrix,
    identity_matrix,
    kron,
    matmul,
    matrix_from_rows,
    read_group,
    regular_perm_rep,
    write_group,
)


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
    with pytest.raises(ClosureOverflowError):
        closure([c.hadamard, c.phase], budget=64)


def test_environment_capacity_override(monkeypatch):
    monkeypatch.setenv("GATEGROUPS_MAX_CLOSURE", "100")
    from gategroups.config import limit

    assert limit("MAX_CLOSURE") == 100
    c = catalog()
    with pytest.raises(ClosureOverflowError):
        closure([c.hadamard, c.phase])  # order 192 > overridden budget


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


def test_regular_perm_rep_is_homomorphism():
    c = catalog()
    g = closure([c.sigma_x])
    pg = regular_perm_rep(g)
    assert pg.order() == 2
    assert pg.degree == 2

    c1 = closure([c.hadamard, c.phase])
    pg1 = regular_perm_rep(c1)
    assert pg1.order() == 192
    table = c1.element_table()
    rng = random.Random(11)
    for _ in range(25):
        a = rng.randrange(192)
        b = rng.randrange(192)
        pa = table.perm_of(a)
        pb = table.perm_of(b)
        composed = tuple(pb[x] for x in pa)  # apply a then b
        assert composed == tuple(table.perm_of(table.mult(a, b)))


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
