"""The claims ledger: parse structural assertions, compute them, report.

A ledger is line-oriented and diff-friendly:

    id | tier | recipe | expected | provenance | citation

with ``#`` comments.  Tiers are core < long < extended.  Provenance is
``paper`` (asserted by the source text, citation required), ``derived``
(computed independently and frozen) or ``disputed`` (the source text and
the computation disagree; such rows report both values and never affect
the exit code).

A recipe is ``name(arg, ...)``; each name is one entry of ``_GROUP_RECIPES``
(group expressions) or ``_VALUE_RECIPES`` (ledger values) that holds its
argument kinds and its code.  Bad text raises ValueError before any group
argument of the recipe is evaluated.  The ``Evaluator`` memoises every result.

The ``pg_*`` and ``mub_*`` recipes compute every Pauli-graph and MUB-chain
fact, from one independent set, one set of quadrangle lines and one group
per prefix, each memoised; the ``graph`` and ``mub-chain`` commands print
them, and only the ledger states what they should be.

Parsing a ledger and writing a report need no engine module.  A recipe
imports the engine modules it calls when it runs and calls through the
module (``isomorphism.commutator_set(...)``), so a wrapper or a test
double installed on a module attribute is honoured.
"""

from __future__ import annotations

import re
import time
from collections import namedtuple
from importlib import import_module, resources

from gategroups import config
from gategroups.errors import BudgetExceededError, CapacityError, LedgerParseError

TIERS = ("core", "long", "extended")
PROVENANCES = ("paper", "derived", "disputed")

__all__ = [
    "Claim", "ClaimReport", "parse_ledger", "default_ledger_text", "run_claims", "Evaluator"
]


Claim = namedtuple("Claim", "id tier recipe expected provenance citation")

# status: pass, fail, error, inconclusive, disputed-match, disputed-mismatch;
# error: the recipe's ValueError message when status is "error";
# inconclusive_reason: the capacity or budget message when "inconclusive".
ClaimReport = namedtuple(
    "ClaimReport",
    "claim status computed seconds error inconclusive_reason",
    defaults=("", ""),
)


def _parse_literal(text):
    text = text.strip()
    if text == "true":
        return True
    if text == "false":
        return False
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [int(tok) for tok in inner.split(",")]
    return int(text)


def format_value(value):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(str(v) for v in value) + "]"
    return str(value)


def parse_ledger(text):
    claims = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 6:
            raise LedgerParseError(
                f"expected 6 |-separated fields, found {len(parts)}", lineno
            )
        cid, tier, recipe, expected, provenance, citation = parts
        if not cid:
            raise LedgerParseError("empty claim id", lineno)
        if cid in seen:
            raise LedgerParseError(f"duplicate claim id {cid!r}", lineno)
        seen.add(cid)
        if tier not in TIERS:
            raise LedgerParseError(f"unknown tier {tier!r}", lineno)
        if provenance not in PROVENANCES:
            raise LedgerParseError(f"unknown provenance {provenance!r}", lineno)
        if provenance == "paper" and citation in ("", "-"):
            raise LedgerParseError(
                "claims with provenance 'paper' must carry a citation", lineno
            )
        try:
            expected_value = _parse_literal(expected)
        except ValueError as exc:
            raise LedgerParseError(f"bad expected value {expected!r}: {exc}", lineno)
        claims.append(Claim(cid, tier, recipe, expected_value, provenance, citation))
    return claims


def default_ledger_text():
    return resources.files("gategroups").joinpath("data/claims.ledger").read_text()


def _normalize(expr):
    return re.sub(r"\s+", "", expr)


# The deepest bracket nesting of a recipe (``derived(c1)`` nests one level);
# each level costs a few frames of the recursive evaluation.
_MAX_NESTING = 64


def _split_recipe(expr):
    """``name(a, b)`` -> (name, [a, b]); a bare name has no arguments.

    Raises ValueError for unbalanced parentheses, an empty argument or a
    nesting deeper than ``_MAX_NESTING``.
    """
    if "(" not in expr:
        return expr, []
    if not expr.endswith(")"):
        raise ValueError(f"unbalanced parentheses in {expr!r}")
    name, args = expr[:-1].split("(", 1)
    if not args:
        return name, []
    parts = []
    depth = start = 0
    for i, ch in enumerate(args):  # split at the commas of bracket depth zero
        if ch in "([":
            depth += 1
            if depth == _MAX_NESTING:
                raise ValueError(f"{name}(...) nests deeper than {_MAX_NESTING} levels")
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(args[start:i])
            start = i + 1
    parts.append(args[start:])
    if "" in parts:
        raise ValueError(f"empty argument in {expr!r}")
    return name, parts


def _engine(name):
    """The engine module ``gategroups.<name>``, imported on first use."""
    return import_module(f"gategroups.{name}")


def _graph(n):
    return _engine("pauligraph").pauli_graph(n)


def _uniform(values, what):
    """The one value of ``values``; ValueError listing them if they differ."""
    values = set(values)
    if len(values) != 1:
        raise ValueError(f"{what} {sorted(values)}")
    return values.pop()


def _semidirect(ev, n, h, action_text):
    if not (action_text.startswith("[") and action_text.endswith("]")):
        raise ValueError("semidirect action must be a [perm; perm; ...] list")
    parse = _engine("perm").Permutation.parse
    action = [parse(p, n.degree) for p in action_text[1:-1].split(";") if p]
    return _engine("groups").semidirect(n, h, action)


def _central_quotient(ev, g):
    structure = _engine("structure")
    return structure.coset_action(g, structure.center(g))


def _normal_subgroup(ev, g, order):
    matches = [s for s in ev._normal_subgroups(g).proper_nontrivial if s.order() == order]
    if len(matches) != 1:
        raise ValueError(
            f"expected one proper normal subgroup of order {order}, found {len(matches)}"
        )
    return matches[0]


def _is_subgroup(ev, sub_expr, parent_expr):
    parent, sub = ev.group(parent_expr), ev.group(sub_expr)
    try:
        parent.indices_of(sub)
    except ValueError:  # a member of sub outside parent
        return False
    return True


def _yang_baxter(ev, atom):
    gates = _engine("gates")
    catalog = gates.catalog()
    matrices = {"bellR": catalog.bell, "cz": catalog.cz}
    if atom not in matrices:
        raise ValueError(f"unknown matrix atom {atom!r}")
    return gates.yang_baxter_check(matrices[atom])


def _quadrangle(n):
    """The two-qubit graph; the recipes of its lines refuse any other n."""
    graph = _graph(n)
    if n != 2:
        raise ValueError("the quadrangle report is defined for the two-qubit graph")
    return graph


def _lines_per_point(ev, n):
    lines = ev._lines(n)
    counts = [sum(v in line for line in lines) for v in range(_graph(n).vertex_count)]
    return _uniform(counts, "incidence is not uniform:")


def _complement_petersen(ev, n):
    neighbors = _quadrangle(n).neighbors
    return _engine("pauligraph").complement_is_petersen(neighbors, ev._independent_set(n))


# Each recipe is one entry: (argument kinds, code).  The kinds are "e" a group
# expression, "i" an integer, "a" raw text the code reads itself (a
# semidirect action, a matrix atom, a group evaluated out of order) and "+"
# one or more group expressions.  The code takes the Evaluator and the
# arguments, group expressions evaluated, and reaches each engine module
# through ``_engine`` when it runs: start-up imports none, and a wrapper or a
# test double installed on a module attribute is honoured.
_GROUP_RECIPES = {
    "cyclic": ("i", lambda ev, n: _engine("groups").cyclic(n)),
    "dihedral": ("i", lambda ev, n: _engine("groups").dihedral(n)),
    "symmetric": ("i", lambda ev, n: _engine("groups").symmetric(n)),
    "alternating": ("i", lambda ev, n: _engine("groups").alternating(n)),
    "quaternion8": ("", lambda ev: _engine("groups").quaternion8()),
    "sl23": ("", lambda ev: _engine("groups").sl23()),
    "direct": ("+", lambda ev, *factors: _engine("groups").direct(*factors)),
    "wreath": ("ee", lambda ev, m, h: _engine("groups").wreath(m, h)),
    "semidirect": ("eea", _semidirect),
    "mub": ("ii", lambda ev, n, k: ev._mub_group(n, k).perm_group()),
    "derived": ("e", lambda ev, g: _engine("structure").derived_subgroup(g)),
    "center": ("e", lambda ev, g: _engine("structure").center(g)),
    "central_quotient": ("e", _central_quotient),
    "quotient": ("ee", lambda ev, g, n: _engine("structure").coset_action(g, n)),
    "normal_subgroup": ("ei", _normal_subgroup),
    "aut": ("e", lambda ev, g: ev._aut(g).group),
}
_VALUE_RECIPES = {
    "order": ("e", lambda ev, g: g.order()),
    "center_order": ("e", lambda ev, g: _engine("structure").center(g).order()),
    "derived_order": ("e", lambda ev, g: _engine("structure").derived_subgroup(g).order()),
    "abelianization": ("e", lambda ev, g: _engine("structure").abelian_invariants(g)),
    "is_perfect": ("e", lambda ev, g: _engine("isomorphism").is_perfect(g)),
    "iso": ("ee", lambda ev, g, h: bool(_engine("isomorphism").isomorphic(g, h))),
    "aut_order": ("e", lambda ev, g: ev._aut(g).order),
    "out_order": ("e", lambda ev, g: ev._aut(g).outer_order()),
    "normal_subgroup_orders": ("e", lambda ev, g: ev._normal_subgroups(g).proper_orders()),
    "splits": ("ee", lambda ev, g, n: bool(_engine("isomorphism").find_complement(g, n))),
    "commutators_equal_derived": ("e", lambda ev, g: ev._commutators(g).equals_derived),
    "commutator_deficiency": ("e", lambda ev, g: ev._commutators(g).deficiency),
    "yang_baxter": ("a", _yang_baxter),
    "clifford_formula": ("i", lambda ev, n: _engine("gates").clifford_order_formula(n)),
    "subgroup_index": ("ee", lambda ev, g, h: g.order() // len(g.indices_of(h))),
    "is_subgroup": ("aa", _is_subgroup),  # the parent group is evaluated first
    "is_normal": ("ee", lambda ev, g, h: g.own_table().is_normal_set(g.indices_of(h))),
    "mub_order": ("ii", lambda ev, n, k: ev._mub_group(n, k).order()),
    "mub_aut_order": ("ii", lambda ev, n, k: ev._aut(ev._mub_group(n, k).perm_group()).order),
    "mub_same": (  # the prefix groups nest, so equal orders mean equal groups
        "ii", lambda ev, n, k: ev._mub_group(n, k).order() == ev._mub_group(n, k - 1).order()
    ),
    "pg_vertices": ("i", lambda ev, n: _graph(n).vertex_count),
    "pg_uniform_degree": (
        "i", lambda ev, n: _uniform(_graph(n).degree_sequence(), "graph is not regular: degrees")
    ),
    "pg_max_independent": ("i", lambda ev, n: len(ev._independent_set(n))),
    "pg_aut_count": (
        "i", lambda ev, n: _engine("pauligraph").graph_automorphism_count(_graph(n).neighbors)
    ),
    "pg_lines": ("i", lambda ev, n: len(ev._lines(n))),
    "pg_line_size": (
        "i", lambda ev, n: _uniform(map(len, ev._lines(n)), "lines are not uniform: sizes")
    ),
    "pg_lines_per_point": ("i", _lines_per_point),
    "pg_complement_petersen": ("i", _complement_petersen),
}

_GATE_BUILDERS = {
    "p1": lambda: _engine("gates").pauli_group(1),
    "p2": lambda: _engine("gates").pauli_group(2),
    "p3": lambda: _engine("gates").pauli_group(3),
    "c1": lambda: _engine("gates").clifford_group(1),
    "c2": lambda: _engine("gates").clifford_group(2),
    "b2": lambda: _engine("gates").bell_group(),
    "p2pairs": lambda: _engine("matrix").closure(_engine("gates").pauli2_pair_generators()),
}


class Evaluator:
    """Executes claim recipes; every result is memoised across claims."""

    GATE_NAMES = tuple(_GATE_BUILDERS)

    def __init__(self):
        # (kind, key...) -> result.  Results derived from a group are keyed
        # by the group object, which ``group`` returns once per expression.
        self._memo = {}
        self.allow_extended = False

    def _cached(self, key, compute, *args):
        if key not in self._memo:
            self._memo[key] = compute(*args)
        return self._memo[key]

    def _apply(self, expr, table, unknown):
        """The value of ``name(args)`` by the entry of ``name`` in ``table``.

        The arity and the integers are checked before any group argument is
        evaluated; group arguments are evaluated in order.
        """
        name, parts = _split_recipe(expr)
        if name not in table:
            raise ValueError(f"unknown {unknown} {expr!r}")
        kinds, compute = table[name]
        if kinds == "+":
            if not parts:
                raise ValueError(f"{name}() needs at least one factor")
            kinds = "e" * len(parts)
        if len(parts) != len(kinds):
            raise ValueError(f"{name}() takes {len(kinds)} argument(s), found {len(parts)}")
        for i, kind in enumerate(kinds):
            if kind == "i":
                try:
                    parts[i] = int(parts[i])
                except ValueError:
                    raise ValueError(
                        f"{name}() needs an integer argument, found {parts[i]!r}"
                    ) from None
        args = [self.group(part) if kind == "e" else part for kind, part in zip(kinds, parts)]
        return compute(self, *args)

    def matrix_group(self, name):
        if name not in _GATE_BUILDERS:
            raise ValueError(f"unknown gate group {name!r}")
        return self._cached(("matrix", name), _GATE_BUILDERS[name])

    def group(self, expr):
        expr = _normalize(expr)
        if expr in _GATE_BUILDERS:
            return self.matrix_group(expr).perm_group()
        # only aut(...) depends on the tier, through its capacity limit
        key = ("group", expr, self.allow_extended and "aut(" in expr)
        return self._cached(key, self._apply, expr, _GROUP_RECIPES, "group spec")

    def value(self, recipe, tier="core"):
        self.allow_extended = tier in ("long", "extended")
        expr = _normalize(recipe)
        key = ("value", expr, self.allow_extended)
        return self._cached(key, self._apply, expr, _VALUE_RECIPES, "recipe")

    def _aut(self, group):
        return _engine("isomorphism").automorphism_group(group, extended=self.allow_extended)

    def _normal_subgroups(self, group):
        return self._cached(("normals", group), _engine("structure").normal_subgroups, group)

    def _commutators(self, group):
        key = ("commutators", group, self.allow_extended)
        commutator_set = _engine("isomorphism").commutator_set
        return self._cached(key, lambda: commutator_set(group, extended=self.allow_extended))

    def _independent_set(self, n):
        mis = _engine("pauligraph").maximum_independent_set
        return self._cached(("independent_set", n), mis, _graph(n).neighbors)

    def _lines(self, n):
        """The lines of the two-qubit quadrangle: the maximal cliques of its graph."""
        neighbors = _quadrangle(n).neighbors
        return self._cached(("lines", n), _engine("pauligraph").maximal_cliques, neighbors)

    def _mub_group(self, n, k):
        """The matrix group of the first ``k`` operators of the n-qubit independent set."""
        mis = self._independent_set(n)
        if k < 0:
            raise ValueError(f"the number of operators must not be negative, found {k}")
        if k > len(mis):
            raise ValueError(f"the {n}-qubit independent set has only {len(mis)} operators")
        operators = [_graph(n).representatives[v] for v in mis[:k]]
        return self._cached(("mub_group", n, k), _engine("matrix").closure, operators)


def _status_for(claim, computed, failed):
    if claim.provenance == "disputed":
        if failed:
            return "inconclusive"
        return "disputed-match" if computed == claim.expected else "disputed-mismatch"
    if failed:
        return "inconclusive"
    return "pass" if computed == claim.expected else "fail"


def run_claims(suite="core", ledger_text=None, report_path=None, echo=None, evaluator=None):
    """Execute every ledger claim in the suite; returns (reports, exit_code).

    A recipe that raises ValueError gets the status ``error`` and the
    remaining claims still run; one that hits a capacity limit or a search
    budget is ``inconclusive`` and keeps the message as its reason.  The
    exit code is nonzero iff a claim has status ``error`` or a non-disputed
    claim fails.  The machine report is JSON-lines: one volatile header
    line (timestamps, wall times and the capacity limits in effect), then
    one deterministic line per claim.  The limits are read first, so a bad
    one fails before any claim runs.
    """
    if suite not in TIERS:
        raise ValueError(f"unknown suite {suite!r}")
    limits = config.limits() if report_path else None
    allowed = TIERS[: TIERS.index(suite) + 1]
    if ledger_text is None:
        ledger_text = default_ledger_text()
    claims = [c for c in parse_ledger(ledger_text) if c.tier in allowed]
    ev = evaluator if evaluator is not None else Evaluator()
    reports = []
    started = time.time()
    for claim in claims:
        t0 = time.time()
        computed = None
        failed = False
        error = reason = ""
        try:
            computed = ev.value(claim.recipe, claim.tier)
        except (CapacityError, BudgetExceededError) as exc:
            failed = True
            reason = str(exc) or type(exc).__name__
        except ValueError as exc:
            error = str(exc) or type(exc).__name__
        status = "error" if error else _status_for(claim, computed, failed)
        report = ClaimReport(claim, status, computed, time.time() - t0, error, reason)
        reports.append(report)
        if echo:
            echo(_human_line(report))
    exit_code = 1 if any(r.status in ("fail", "error") for r in reports) else 0
    if report_path:
        _write_report(reports, report_path, suite, time.time() - started, limits)
    return reports, exit_code


def _human_line(report):
    c = report.claim
    line = (
        f"{c.id:32} {c.tier:8} {report.status:18} "
        f"expected {format_value(c.expected):>14}  computed {format_value(report.computed):>14}  "
        f"{report.seconds:7.2f}s"
    )
    note = report.error or report.inconclusive_reason
    return f"{line}  ({note})" if note else line


def _write_report(reports, path, suite, elapsed, limits):
    import json

    with open(path, "w", encoding="ascii") as fh:
        header = {
            "suite": suite,
            "generated": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "elapsed_seconds": round(elapsed, 3),
            "claim_seconds": {r.claim.id: round(r.seconds, 3) for r in reports},
            "limits": limits,
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for r in reports:
            body = {
                "id": r.claim.id,
                "tier": r.claim.tier,
                "recipe": r.claim.recipe,
                "expected": format_value(r.claim.expected),
                "computed": format_value(r.computed),
                "status": r.status,
                "provenance": r.claim.provenance,
                "citation": r.claim.citation,
            }
            if r.error:
                body["error"] = r.error
            if r.inconclusive_reason:
                body["inconclusive_reason"] = r.inconclusive_reason
            fh.write(json.dumps(body, sort_keys=True) + "\n")
