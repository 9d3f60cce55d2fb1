"""Exact gate catalog and the Pauli / Clifford / Bell group builders."""

from __future__ import annotations

from collections import namedtuple

from gategroups import cyclo
from gategroups.config import limit
from gategroups.matrix import (
    closure,
    diagonal_matrix,
    identity_matrix,
    kron,
    matmul,
    matrix_from_rows,
)

__all__ = [
    "GateCatalog",
    "catalog",
    "pauli_operator",
    "pauli_group",
    "pauli2_pair_generators",
    "clifford_group",
    "bell_group",
    "yang_baxter_check",
]


# The exact gate matrices everything else is generated from.
GateCatalog = namedtuple("GateCatalog", "sigma0 sigma_x sigma_y sigma_z hadamard phase cz bell")


_CATALOG = None


def catalog():
    global _CATALOG
    if _CATALOG is None:
        i = cyclo.root_of_unity(4)
        s = cyclo.sqrt2().inverse()  # 1/sqrt(2)
        zero, one = cyclo.ZERO, cyclo.ONE
        sigma_x = matrix_from_rows([[zero, one], [one, zero]])
        sigma_z = diagonal_matrix([1, -1])
        sigma_y = matmul(sigma_x, sigma_z).scaled(i)
        hadamard = matrix_from_rows([[s, s], [s, -s]])
        phase = diagonal_matrix([one, i])
        cz = diagonal_matrix([1, 1, 1, -1])
        bell = matrix_from_rows(
            [
                [s, zero, zero, s],
                [zero, s, -s, zero],
                [zero, s, s, zero],
                [-s, zero, zero, s],
            ]
        )
        _CATALOG = GateCatalog(
            sigma0=identity_matrix(2),
            sigma_x=sigma_x,
            sigma_y=sigma_y,
            sigma_z=sigma_z,
            hadamard=hadamard,
            phase=phase,
            cz=cz,
            bell=bell,
        )
    return _CATALOG


def pauli_operator(label):
    """The tensor product of the Pauli matrices a label names over IXYZ, one
    letter per wire (the leftmost wire most significant): ``"XZ"`` is ``kron(X, Z)``."""
    c = catalog()
    ops = {"I": c.sigma0, "X": c.sigma_x, "Y": c.sigma_y, "Z": c.sigma_z}
    if not label or not set(label) <= set(ops):
        raise ValueError(f"a Pauli label is a nonempty word over IXYZ, found {label!r}")
    m = ops[label[0]]
    for ch in label[1:]:
        m = kron(m, ops[ch])
    return m


_GROUPS = {}


def _cached(key, generators):
    """The closure of ``generators()``, kept for the life of the process
    under ``key`` and the enumeration cap in effect: a lower cap builds
    afresh and fails as a first build does."""
    key += (limit("MAX_ENUMERATION"),)
    if key not in _GROUPS:
        _GROUPS[key] = closure(generators())
    return _GROUPS[key]


def pauli_group(n):
    """The n-qubit Pauli group, generated by the single-wire Pauli matrices.

    Order 4^(n+1): the 4^n sign-free tensor patterns times the scalar
    phases {1, -1, i, -i}.
    """
    if not 1 <= n <= 3:
        raise ValueError("pauli_group supports 1..3 qubits")
    single_wire = ["I" * wire + ch + "I" * (n - 1 - wire) for wire in range(n) for ch in "XYZ"]
    return _cached(("pauli", n), lambda: map(pauli_operator, single_wire))


def pauli2_pair_generators():
    """The five two-qubit tensor pairs XX, ZZ, XY, YZ, ZX.

    Their product relation (XY)(YZ)(ZX) = -1 keeps every phase real, so
    they generate an index-2 subgroup (order 32) of the two-qubit Pauli
    group rather than the full 64-element group.
    """
    return [pauli_operator(label) for label in ("XX", "ZZ", "XY", "YZ", "ZX")]


def clifford_group(n):
    """The n-qubit Clifford group (n = 1 or 2), via its standard generators."""
    if n not in (1, 2):
        raise ValueError("clifford_group supports 1 or 2 qubits")
    c = catalog()
    if n == 1:
        return _cached(("clifford", 1), lambda: [c.hadamard, c.phase])
    return _cached(
        ("clifford", 2), lambda: [kron(c.hadamard, c.hadamard), kron(c.hadamard, c.phase), c.cz]
    )


def bell_group():
    """Subgroup of the two-qubit Clifford group with the Bell matrix as third generator."""
    c = catalog()
    return _cached(
        ("bell",), lambda: [kron(c.hadamard, c.hadamard), kron(c.hadamard, c.phase), c.bell]
    )


def yang_baxter_check(r):
    """Exact check of (R x I)(I x R)(R x I) = (I x R)(R x I)(I x R)."""
    if r.dim != 4:
        raise ValueError("the braid-relation check expects a 4x4 operator")
    i2 = identity_matrix(2)
    a = kron(r, i2)
    b = kron(i2, r)
    return matmul(matmul(a, b), a) == matmul(matmul(b, a), b)
