"""Gate catalog identities, gate-group orders, Yang-Baxter, normalizer checks."""

import random

import pytest

from gategroups.claims import Evaluator
from gategroups.cyclo import root_of_unity
from gategroups.gates import (
    bell_group,
    catalog,
    clifford_group,
    pauli2_pair_generators,
    pauli_group,
    pauli_operator,
    yang_baxter_check,
)
from gategroups.matrix import closure, dagger, diagonal_matrix, identity_matrix, kron, matmul


def test_catalog_identities():
    c = catalog()
    i = root_of_unity(4)
    assert c.sigma_y == matmul(c.sigma_x, c.sigma_z).scaled(i)
    assert matmul(c.hadamard, c.hadamard) == identity_matrix(2)
    assert matmul(matmul(c.phase, c.phase), matmul(c.phase, c.phase)) == identity_matrix(2)
    assert c.cz == diagonal_matrix([1, 1, 1, -1])
    assert c.bell.is_unitary()
    # every nonzero Bell entry is +-1/sqrt(2)
    from gategroups.cyclo import sqrt2

    s = sqrt2().inverse()
    assert {e for e in c.bell.entries if not e.is_zero} <= {s, -s}


def test_pauli_group_orders_and_centers():
    assert pauli_group(1).order() == 16
    assert pauli_group(2).order() == 64
    p1 = pauli_group(1)
    z = p1.perm_group().own_table().center_set()
    assert len(z) == 4
    z2 = pauli_group(2).perm_group().own_table().center_set()
    assert len(z2) == 4


def test_pauli_operator_is_the_tensor_of_its_letters():
    c = catalog()
    assert pauli_operator("Y") == c.sigma_y
    assert pauli_operator("XZ") == kron(c.sigma_x, c.sigma_z)
    i2 = identity_matrix(2)
    assert pauli_operator("IYI") == kron(kron(i2, c.sigma_y), i2)
    assert pauli_group(2).generators == [
        kron(c.sigma_x, i2), kron(c.sigma_y, i2), kron(c.sigma_z, i2),
        kron(i2, c.sigma_x), kron(i2, c.sigma_y), kron(i2, c.sigma_z),
    ]
    for bad in ("", "XA", "xz"):
        with pytest.raises(ValueError, match="IXYZ"):
            pauli_operator(bad)


def test_pauli_pair_generators_are_an_index2_subgroup():
    g = closure(pauli2_pair_generators())
    assert g.order() == 32
    p2 = pauli_group(2)
    assert all(m in p2 for m in g.elements)


def test_pauli_group_bounds():
    with pytest.raises(ValueError):
        pauli_group(0)
    with pytest.raises(ValueError):
        pauli_group(4)


def test_clifford_orders():
    assert clifford_group(1).order() == 192
    assert clifford_group(2).order() == 92160


def test_clifford_contains_and_normalizes_pauli():
    c1 = clifford_group(1)
    p1 = pauli_group(1)
    assert all(m in c1 for m in p1.elements)
    rng = random.Random(13)
    for _ in range(50):
        u = c1.elements[rng.randrange(c1.order())]
        g = p1.elements[rng.randrange(p1.order())]
        assert matmul(matmul(u, g), dagger(u)) in p1


def test_clifford2_normalizes_pauli2():
    c2 = clifford_group(2)
    p2 = pauli_group(2)
    rng = random.Random(17)
    for _ in range(50):
        u = c2.elements[rng.randrange(c2.order())]
        g = p2.elements[rng.randrange(p2.order())]
        assert matmul(matmul(u, g), dagger(u)) in p2


def test_bell_group():
    b2 = bell_group()
    assert b2.order() == 15360
    c2 = clifford_group(2)
    assert all(g in c2 for g in b2.generators)
    assert len(b2.perm_group().own_table().center_set()) == 8


def test_order_formula():
    formula = Evaluator().value
    assert formula("clifford_formula(1)") == 192
    assert formula("clifford_formula(2)") == 92160
    # independent big-integer evaluation for n=3
    expected = (2**18) * 3 * 15 * 63
    assert expected == 743178240
    assert formula("clifford_formula(3)") == expected
    with pytest.raises(ValueError):
        formula("clifford_formula(0)")


def test_yang_baxter():
    c = catalog()
    assert yang_baxter_check(c.bell) is True
    # direct-evaluation oracle values for two other 4x4 operators:
    # diagonal CZ gives (I x CZ) on the left and (CZ x I) on the right,
    # and H x I reduces factorwise; both sides differ in each case.
    assert yang_baxter_check(c.cz) is False
    assert yang_baxter_check(kron(c.hadamard, c.sigma0)) is False
    with pytest.raises(ValueError):
        yang_baxter_check(c.hadamard)
