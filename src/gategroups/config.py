"""Capacity limits, overridable through GATEGROUPS_* environment variables.

Limits exist to fail fast with a clear error instead of thrashing; they are
not correctness knobs.  Every value can be raised for bigger experiments,
e.g. ``GATEGROUPS_MAX_ENUMERATION=500000``.
"""

from __future__ import annotations

import os

_DEFAULTS = {
    # element budget for every element table: matrix closures, permutation
    # groups and quotients
    "MAX_ENUMERATION": 200_000,
    # largest order whose automorphism group is searched
    "MAX_AUT_ORDER": 8_192,
    # node budget for backtracking searches (isomorphisms, automorphisms,
    # complements)
    "SEARCH_NODE_BUDGET": 50_000_000,
}

def limit(name: str) -> int:
    """Return the configured value for one of the capacity limits.

    Raises ValueError, naming the variable, for a value that is not a
    positive integer.
    """
    if name not in _DEFAULTS:
        raise KeyError(f"unknown limit {name!r}")
    var = f"GATEGROUPS_{name}"
    raw = os.environ.get(var)
    if raw is None:
        return _DEFAULTS[name]
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{var}={raw!r} is not an integer") from None
    if value <= 0:
        raise ValueError(f"{var}={raw!r} must be positive")
    return value


def limits() -> dict:
    """Every limit's value as ``limit`` reads it, keyed by its variable name."""
    return {f"GATEGROUPS_{name}": limit(name) for name in _DEFAULTS}
