"""Exact group-structure engine for quantum gate groups.

Gate matrices live over exact cyclotomic numbers, generated groups are
enumerated element-by-element, and all structural questions (centers,
derived subgroups, quotients, automorphisms, commutator sets...) are
answered exactly.  The ``gategroups`` CLI runs a ledger of structural
claims and reports each one as pass/fail/disputed.
"""

from gategroups.cyclo import (
    Cyclotomic,
    arith,
    conj,
    parse as parse_cyclotomic,
    rational,
    root_of_unity,
    sqrt2,
)
from gategroups.matrix import (
    MatrixGroup,
    UnitaryMatrix,
    closure,
    dagger,
    kron,
    matmul,
)
from gategroups.perm import PermGroup, Permutation, StabilizerChain
from gategroups.groups import construct, parse_spec
from gategroups.structure import (
    GroupFingerprint,
    abelian_invariants,
    center,
    conjugacy_classes,
    coset_action,
    derived_subgroup,
    fingerprint,
    normal_closure,
    normal_subgroups,
)
from gategroups.isomorphism import (
    automorphism_group,
    commutator_set,
    find_complement,
    is_perfect,
    isomorphic,
)
from gategroups.gates import (
    bell_group,
    catalog,
    clifford_group,
    clifford_order_formula,
    pauli_group,
    yang_baxter_check,
)
from gategroups.pauligraph import (
    maximum_independent_set,
    mub_chain,
    pauli_graph,
    quadrangle_checks,
)
from gategroups.claims import run_claims

__version__ = "0.1.0"
