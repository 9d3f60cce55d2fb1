"""Exact group-structure engine for quantum gate groups.

Gate matrices live over exact cyclotomic numbers, generated groups are
enumerated element-by-element, and all structural questions (centers,
derived subgroups, quotients, automorphisms, commutator sets...) are
answered exactly.  The ``gategroups`` CLI runs a ledger of structural
claims and reports each one as pass/fail/disputed.

The package re-exports nothing: import the API from its module
(``from gategroups.matrix import closure``).  Importing the package
loads no engine module.
"""

__version__ = "0.1.0"
