"""Command-line interface.

Commands:
    gategroups build NAME [--export FILE] [--elements]
    gategroups analyze EXPR
    gategroups claims run [--suite core|long|extended] [--ledger FILE] [--report FILE]
    gategroups graph pauli -n N [--dot FILE]
    gategroups mub-chain -n N

Capacity limits honour GATEGROUPS_* environment variables (see config).
Errors the package raises (``GategroupsError``), other bad input
(``ValueError``) and a path that cannot be opened or written (``OSError``)
print ``error: ...`` and exit with code 2.

Only ``claims`` and ``errors`` are imported at start-up; each ``_cmd_*``
function imports the engine modules it calls, so a command loads only
what it uses.
"""

from __future__ import annotations

import sys

from gategroups import claims as claims_mod
from gategroups.claims import Evaluator, run_claims
from gategroups.errors import BudgetExceededError, CapacityError, GategroupsError, LedgerParseError


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="gategroups",
        description="Exact structure engine for quantum gate groups and its claims ledger.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a named gate group or a group spec")
    b.add_argument(
        "name", help="p1, p2, p3, c1, c2, b2, or a spec like wreath(cyclic(2), symmetric(5))"
    )
    b.add_argument("--export", metavar="FILE", help="write the group to a file")
    b.add_argument(
        "--elements", action="store_true", help="include the full element list in the export"
    )

    a = sub.add_parser("analyze", help="print a structure report for a group expression")
    a.add_argument(
        "expr",
        help="group expression (c1, derived(central_quotient(c2)), ...) or a group file path",
    )

    c = sub.add_parser("claims", help="claims ledger operations")
    csub = c.add_subparsers(dest="claims_command", required=True)
    crun = csub.add_parser("run", help="execute the ledger")
    crun.add_argument("--suite", choices=list(claims_mod.TIERS), default="core")
    crun.add_argument(
        "--ledger", metavar="FILE", help="ledger file (defaults to the built-in ledger)"
    )
    crun.add_argument("--report", metavar="FILE", help="write a machine-readable JSONL report")

    g = sub.add_parser("graph", help="commutation graph exports")
    gsub = g.add_subparsers(dest="graph_kind", required=True)
    gp = gsub.add_parser("pauli", help="the n-qubit Pauli commutation graph")
    gp.add_argument("-n", type=int, required=True)
    gp.add_argument("--dot", metavar="FILE", help="write a DOT file")

    m = sub.add_parser("mub-chain", help="groups generated by the canonical independent set")
    m.add_argument("-n", type=int, required=True)

    return parser


def _cmd_build(args):
    ev = Evaluator()
    name = args.name.strip()
    if name in ev.GATE_NAMES:
        group = ev.matrix_group(name)
        print(f"{name}: matrix group of dimension {group.dim}, order {group.order()}")
        if args.export:
            from gategroups.matrix import write_group

            write_group(group, args.export, include_elements=args.elements)
            print(f"written to {args.export}")
    else:
        group = ev.group(name)
        print(f"{name}: permutation group of degree {group.degree}, order {group.order()}")
        if args.export:
            from gategroups.perm import write_perm_group

            write_perm_group(group, args.export)
            print(f"written to {args.export}")
    return 0


def _load_group_file(path):
    """Group file -> PermGroup; a matrix group acts on the orbit of its rows."""
    from gategroups.perm import group_file_lines, read_perm_group

    lines = group_file_lines(path)
    if lines and lines[0][1].split()[0] == "dim":
        from gategroups.matrix import read_group

        return read_group(path).perm_group()
    return read_perm_group(path)


def _cmd_analyze(args):
    import os

    from gategroups import isomorphism, structure

    if os.path.exists(args.expr):
        group = _load_group_file(args.expr)
    else:
        group = Evaluator().group(args.expr)
    print(f"group:              {args.expr}")
    print(f"order:              {group.order()}")

    def report(label, fn):
        try:
            print(f"{label:20}{fn()}")
        except (CapacityError, BudgetExceededError) as exc:
            print(f"{label:20}skipped ({exc})")

    report("center order:", lambda: structure.center(group).order())
    report("derived order:", lambda: structure.derived_subgroup(group).order())
    report("abelian invariants:", lambda: structure.abelian_invariants(group))
    report("perfect:", lambda: isomorphism.is_perfect(group))
    report("fingerprint:", lambda: _fingerprint_text(structure.fingerprint(group)))
    report("automorphisms:", lambda: isomorphism.automorphism_group(group).order)
    return 0


def _fingerprint_text(fp):
    return (
        f"order {fp.order}; center {fp.center_order}; "
        f"derived series {list(fp.derived_series)}; "
        f"abelianization {list(fp.abelian_invariants)}; "
        f"element orders {dict(fp.element_orders)}; "
        f"class sizes {list(fp.class_sizes)}"
    )


def _cmd_claims_run(args):
    ledger_text = None
    if args.ledger:
        with open(args.ledger, encoding="utf-8") as fh:
            ledger_text = fh.read()
    try:
        reports, exit_code = run_claims(
            suite=args.suite,
            ledger_text=ledger_text,
            report_path=args.report,
            echo=print,
        )
    except LedgerParseError as exc:
        print(f"ledger parse error: {exc}", file=sys.stderr)
        return 2
    counts = {}
    for r in reports:
        counts[r.status] = counts.get(r.status, 0) + 1
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    print(f"-- {len(reports)} claims ({summary})")
    if args.report:
        print(f"report written to {args.report}")
    return exit_code


def _cmd_graph(args):
    from gategroups import pauligraph

    ev = Evaluator()
    graph = ev._graph(args.n)
    degrees = sorted(set(graph.degree_sequence()))
    print(f"pauli graph n={args.n}: {graph.vertex_count} vertices, degrees {degrees}")
    mis = ev._independent_set(args.n)
    print(f"maximum independent set ({len(mis)}): {[graph.labels[v] for v in mis]}")
    if args.n == 2:
        print(
            f"lines: {ev.value('pg_lines(2)')} (size [{ev.value('pg_line_size(2)')}]), "
            f"lines per point [{ev.value('pg_lines_per_point(2)')}], "
            f"complement is Petersen: {ev.value('pg_complement_petersen(2)')}, "
            f"graph automorphisms: {ev.value('pg_aut_count(2)')}"
        )
    if args.dot:
        pauligraph.write_dot(graph, args.dot)
        print(f"DOT written to {args.dot}")
    return 0


def _cmd_mub_chain(args):
    ev, n = Evaluator(), args.n
    for k in range(2, ev.value(f"pg_max_independent({n})") + 1):
        order = ev.value(f"mub_order({n}, {k})")
        try:
            aut = ev.value(f"mub_aut_order({n}, {k})")
        except CapacityError:
            aut = "(skipped)"
        except BudgetExceededError:
            aut = "(inconclusive)"
        note = "  (= previous)" if ev.value(f"mub_same({n}, {k})") else ""
        print(f"g{k}: order {order:6}  aut {aut}{note}")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "build":
            return _cmd_build(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "claims":
            return _cmd_claims_run(args)
        if args.command == "graph":
            return _cmd_graph(args)
        if args.command == "mub-chain":
            return _cmd_mub_chain(args)
    except (GategroupsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
