"""Outside-in tracer for the gategroups package.

The package itself carries no instrumentation.  This module wraps public
functions and methods of its modules from outside, in the process that runs
the CLI, and writes what it recorded to a JSON file when the CLI returns.

Two kinds of wrapper exist:

* a *span* is stored for every call, with an id, the id of the enclosing
  span (0 at top level), its start and end, and the time covered by its
  child spans and leaf calls, so self time is ``end - start - child``;
* a *leaf* is a hot call (``matmul``, ``_Search.tick``, ``_hom_image``) that
  is only aggregated as a call count and a total time.  Its time still
  counts as child time of the span it runs under.

Every binding of a wrapped function in a loaded ``gategroups`` module is
replaced, so ``matrix.closure`` is also traced where it was imported by name
(``claims.closure``, ``gates.closure``, ``pauligraph.closure``, the package
namespace).  A target the package no longer has is recorded as absent.

Run as a script, it traces one CLI invocation::

    python3 perfbench/tracer.py OUT.json RUN_ID -- claims run --ledger L ...
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (span or leaf name, module, attribute path, kind).  A kind of "span" stores
# one span per call; "leaf" aggregates count and time.
TARGETS = (
    ("matrix.matmul", "matrix", "matmul", "leaf"),
    ("matrix.closure", "matrix", "closure", "span"),
    ("matrix.element_table", "matrix", "MatrixGroup.element_table", "span"),
    ("cayley.from_permutations", "cayley", "ElementTable.from_permutations", "span"),
    ("cayley.subgroup_closure", "cayley", "ElementTable.subgroup_closure", "span"),
    ("cayley.normal_closure", "cayley", "ElementTable.normal_closure_set", "span"),
    ("cayley.class_partition", "cayley", "ElementTable.class_partition", "span"),
    ("cayley.subgroup_table", "cayley", "ElementTable.subgroup_table", "span"),
    ("perm.stabilizer_chain", "perm", "StabilizerChain.__init__", "span"),
    ("structure.normal_subgroups", "structure", "normal_subgroups", "span"),
    ("structure.center", "structure", "center", "span"),
    ("structure.derived_subgroup", "structure", "derived_subgroup", "span"),
    ("structure.coset_action", "structure", "coset_action", "span"),
    ("isomorphism.automorphism_group", "isomorphism", "automorphism_group", "span"),
    ("isomorphism.isomorphic", "isomorphism", "isomorphic", "span"),
    ("isomorphism.commutator_set", "isomorphism", "commutator_set", "span"),
    ("isomorphism.find_complement", "isomorphism", "find_complement", "span"),
    ("isomorphism.search_tick", "isomorphism", "_Search.tick", "leaf"),
    ("isomorphism.hom_image", "isomorphism", "_hom_image", "leaf"),
    ("pauligraph.pauli_graph", "pauligraph", "pauli_graph", "span"),
    ("pauligraph.independent_set", "pauligraph", "maximum_independent_set", "span"),
    ("gates.group_build", "gates", "pauli_group", "span"),
    ("gates.group_build", "gates", "clifford_group", "span"),
    ("gates.group_build", "gates", "bell_group", "span"),
    ("claims.value", "claims", "Evaluator.value", "span"),
)

# Memo tables read at the end of the run: counter name -> (module, attribute).
MEMO_TABLES = {
    "cyclo.values_interned": ("cyclo", "_INTERN"),
    "cyclo.products_memoised": ("cyclo", "_MUL"),
}


class Tracer:
    """In-memory span and counter registry for one traced run."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # (id, parent id, name, start, end, child seconds)
        self.leaves = {}  # name -> {"calls", "seconds", "accepted", "under"}
        self.counters = {}  # name -> int
        self.absent = []  # names of targets and memo tables the package lacks
        self._stack = []  # open spans: [id, name, child seconds]
        self._next_id = 1

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][2] += end - start
                spans.append((sid, parent, name, start, end, frame[2]))
            self._after(name, result)
            return result

        return wrapper

    def leaf(self, name, fn):
        stack = self._stack
        agg = self.leaves.setdefault(
            name, {"calls": 0, "seconds": 0.0, "accepted": 0, "under": {}}
        )
        under = agg["under"]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                agg["calls"] += 1
                agg["seconds"] += dt
                if stack:
                    top = stack[-1]
                    top[2] += dt
                    under[top[1]] = under.get(top[1], 0) + 1
            if result is not None:
                agg["accepted"] += 1
            return result

        return wrapper

    def _after(self, name, result):
        """Counters read off a span's return value."""
        if name == "matrix.closure":
            self._count("matrix.elements_closed", result.order())
        elif name == "cayley.from_permutations":
            self._count("cayley.elements_enumerated", result.n)
        elif name == "structure.normal_subgroups":
            self._count("structure.normal_subgroups_found", len(result.all))

    def _count(self, name, k):
        self.counters[name] = self.counters.get(name, 0) + k

    # -- installation --------------------------------------------------------

    def install(self, package="gategroups"):
        """Wrap every target and rebind it wherever the package imported it."""
        for modname in sorted({t[1] for t in TARGETS}):
            try:
                importlib.import_module(f"{package}.{modname}")
            except ImportError:
                pass
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == package or key.startswith(package + "."))
        ]
        for name, modname, path, kind in TARGETS:
            module = sys.modules.get(f"{package}.{modname}")
            owner, attr = _resolve_owner(module, path)
            if owner is None or attr not in vars(owner):
                self.absent.append(name)
                continue
            raw = vars(owner)[attr]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapped = self.span(name, fn) if kind == "span" else self.leaf(name, fn)
            setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
            if owner is module:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)

    def read_memo_tables(self, package="gategroups"):
        for counter, (modname, attr) in MEMO_TABLES.items():
            table = getattr(sys.modules.get(f"{package}.{modname}"), attr, None)
            if table is None:
                self.absent.append(counter)
            else:
                self.counters[counter] = len(table)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "spans": self.spans,
                    "leaves": self.leaves,
                    "counters": self.counters,
                    "absent": self.absent,
                },
                fh,
            )


def _resolve_owner(module, path):
    """(object holding the last attribute, last attribute name), or (None, _)."""
    parts = path.split(".")
    owner = module
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    return owner, parts[-1]


def main(argv):
    out_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json RUN_ID -- CLI ARGS...")
    from gategroups import cli

    tracer = Tracer(run_id)
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.read_memo_tables()
        tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
