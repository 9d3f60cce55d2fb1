"""The claims ledger: parse structural assertions, compute them, report.

A ledger is line-oriented and diff-friendly:

    id | tier | recipe | expected | provenance | citation

with ``#`` comments.  Tiers are core < long < extended.  Provenance is
``paper`` (asserted by the source text, citation required), ``derived``
(computed independently and frozen) or ``disputed`` (the source text and
the computation disagree; such rows report both values and never affect
the exit code).

Parsing a ledger and writing a report need no engine module.  The
``Evaluator`` imports each engine module in the method that first needs it
and calls through the module (``isomorphism.commutator_set(...)``), so a
wrapper or a test double installed on a module attribute is honoured.
"""

from __future__ import annotations

import re
import time
from collections import namedtuple
from importlib import resources

from gategroups import config
from gategroups.errors import BudgetExceededError, CapacityError, LedgerParseError

TIERS = ("core", "long", "extended")
PROVENANCES = ("paper", "derived", "disputed")

__all__ = ["Claim", "ClaimReport", "parse_ledger", "default_ledger_text", "run_claims", "Evaluator"]


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


# The arguments of each recipe: "e" a group expression or name, "i" an
# integer, "a" a raw argument (semidirect's ``[perm; perm; ...]`` action).
# direct() takes one or more group expressions and is checked on its own.
_GROUP_RECIPES = {
    "cyclic": "i",
    "dihedral": "i",
    "symmetric": "i",
    "alternating": "i",
    "quaternion8": "",
    "sl23": "",
    "wreath": "ee",
    "semidirect": "eea",
    "mub": "ii",
    "derived": "e",
    "center": "e",
    "central_quotient": "e",
    "quotient": "ee",
    "normal_subgroup": "ei",
    "aut": "e",
}
# the recipes that call the reference constructor of the same name in groups
_CONSTRUCTORS = ("cyclic", "dihedral", "symmetric", "alternating", "quaternion8", "sl23",
                 "direct", "wreath")
_VALUE_RECIPES = {
    "order": "e",
    "center_order": "e",
    "derived_order": "e",
    "abelianization": "e",
    "is_perfect": "e",
    "iso": "ee",
    "aut_order": "e",
    "out_order": "e",
    "normal_subgroup_orders": "e",
    "splits": "ee",
    "commutators_equal_derived": "e",
    "commutator_deficiency": "e",
    "yang_baxter": "e",
    "clifford_formula": "i",
    "subgroup_index": "ee",
    "is_subgroup": "ee",
    "is_normal": "ee",
    "mub_order": "ii",
    "mub_aut_order": "ii",
    "mub_same": "ii",
}


def _split_recipe(expr):
    """``name(a, b)`` -> (name, [a, b]); a bare name has no arguments."""
    if "(" not in expr:
        return expr, []
    if not expr.endswith(")"):
        raise ValueError(f"unbalanced parentheses in {expr!r}")
    name, args = expr[:-1].split("(", 1)
    parts = []
    depth = start = 0
    for i, ch in enumerate(args):  # split at the commas of bracket depth zero
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(args[start:i])
            start = i + 1
    if args[start:]:
        parts.append(args[start:])
    return name, parts


def _recipe_args(name, parts, kinds):
    """The arguments checked against ``kinds``, integers converted.

    Raises ValueError naming the recipe and the argument.
    """
    if len(parts) != len(kinds):
        raise ValueError(f"{name}() takes {len(kinds)} argument(s), found {len(parts)}")
    out = []
    for kind, part in zip(kinds, parts):
        if kind == "i":
            try:
                part = int(part)
            except ValueError:
                raise ValueError(f"{name}() needs an integer argument, found {part!r}") from None
        out.append(part)
    return out


# Each builder takes the gates and matrix modules, which
# ``Evaluator.matrix_group`` imports when it first builds a gate group, and
# looks its constructor up on them when called, so a module attribute that
# is rebound later (a wrapper or a test double) is honoured.
_GATE_BUILDERS = {
    "p1": lambda gates, matrix: gates.pauli_group(1),
    "p2": lambda gates, matrix: gates.pauli_group(2),
    "p3": lambda gates, matrix: gates.pauli_group(3),
    "c1": lambda gates, matrix: gates.clifford_group(1),
    "c2": lambda gates, matrix: gates.clifford_group(2),
    "b2": lambda gates, matrix: gates.bell_group(),
    "p2pairs": lambda gates, matrix: matrix.closure(gates.pauli2_pair_generators()),
}


class Evaluator:
    """Executes claim recipes; group construction is cached across claims."""

    GATE_NAMES = tuple(_GATE_BUILDERS)

    def __init__(self):
        self._groups = {}
        self._matrix = {}
        self._values = {}
        self._normals = {}
        self._quadrangles = {}  # n -> the quadrangle report of the n-qubit graph
        self._commutator_sets = {}
        self._mub = {}
        self.allow_extended = False

    # -- gate-level groups -------------------------------------------------

    def matrix_group(self, name):
        if name not in self._matrix:
            if name not in _GATE_BUILDERS:
                raise ValueError(f"unknown gate group {name!r}")
            from gategroups import gates, matrix

            self._matrix[name] = _GATE_BUILDERS[name](gates, matrix)
        return self._matrix[name]

    def _mub_group(self, n, k):
        key = (n, k)
        if key not in self._mub:
            from gategroups import matrix, pauligraph

            graph = pauligraph.pauli_graph(n)
            mis = pauligraph.maximum_independent_set(graph.neighbors)
            if k > len(mis):
                raise ValueError(f"the {n}-qubit independent set has only {len(mis)} operators")
            mats = [graph.representatives[v] for v in mis[:k]]
            self._mub[key] = matrix.closure(mats)
        return self._mub[key]

    # -- group expressions ---------------------------------------------------

    def group(self, expr):
        expr = _normalize(expr)
        # only aut(...) depends on the tier, through its capacity limit
        key = (expr, self.allow_extended and "aut(" in expr)
        if key not in self._groups:
            self._groups[key] = self._eval_group(expr)
        return self._groups[key]

    def _eval_group(self, expr):
        if expr in self.GATE_NAMES:
            return self.matrix_group(expr).perm_group()
        name, parts = _split_recipe(expr)
        if name == "direct":  # one or more factors
            if not parts:
                raise ValueError("direct() needs at least one factor")
        elif name in _GROUP_RECIPES:
            parts = _recipe_args(name, parts, _GROUP_RECIPES[name])
        else:
            raise ValueError(f"unknown group spec {expr!r}")
        if name == "mub":
            return self._mub_group(*parts).perm_group()
        if name == "semidirect":
            return self._semidirect(*parts)
        if name in _CONSTRUCTORS:
            from gategroups import groups

            if name in ("direct", "wreath"):
                parts = map(self.group, parts)
            return getattr(groups, name)(*parts)
        from gategroups import structure

        if name == "derived":
            return structure.derived_subgroup(self.group(parts[0]))
        if name == "center":
            return structure.center(self.group(parts[0]))
        if name == "central_quotient":
            g = self.group(parts[0])
            return structure.coset_action(g, structure.center(g))
        if name == "quotient":
            return structure.coset_action(self.group(parts[0]), self.group(parts[1]))
        if name == "normal_subgroup":
            return self._normal_subgroup(*parts)
        return self._aut(self.group(parts[0])).group  # aut

    def _semidirect(self, n_expr, h_expr, action_text):
        from gategroups import groups
        from gategroups.perm import Permutation

        n, h = self.group(n_expr), self.group(h_expr)
        if not (action_text.startswith("[") and action_text.endswith("]")):
            raise ValueError("semidirect action must be a [perm; perm; ...] list")
        action = [Permutation.parse(p, n.degree) for p in action_text[1:-1].split(";") if p]
        return groups.semidirect(n, h, action)

    def _aut(self, group):
        from gategroups import isomorphism

        return isomorphism.automorphism_group(group, extended=self.allow_extended)

    def _normal_subgroups(self, expr):
        key = _normalize(expr)
        if key not in self._normals:
            from gategroups import structure

            self._normals[key] = structure.normal_subgroups(self.group(key))
        return self._normals[key]

    def _normal_subgroup(self, parent_expr, order):
        normals = self._normal_subgroups(parent_expr).proper_nontrivial
        matches = [s for s in normals if s.order() == order]
        if len(matches) != 1:
            raise ValueError(
                f"expected one proper normal subgroup of order {order}, found {len(matches)}"
            )
        return matches[0]

    # -- value recipes ----------------------------------------------------------

    def value(self, recipe, tier="core"):
        self.allow_extended = tier in ("long", "extended")
        key = (_normalize(recipe), self.allow_extended)
        if key not in self._values:
            self._values[key] = self._eval_value(_normalize(recipe))
        return self._values[key]

    def _eval_value(self, expr):
        name, parts = _split_recipe(expr)
        if name.startswith("pg_"):
            return self._pauli_graph_value(name, *_recipe_args(name, parts, "i"))
        if name not in _VALUE_RECIPES:
            raise ValueError(f"unknown recipe {expr!r}")
        parts = _recipe_args(name, parts, _VALUE_RECIPES[name])
        if name == "order":
            return self.group(parts[0]).order()
        if name in ("center_order", "derived_order", "abelianization"):
            from gategroups import structure

            g = self.group(parts[0])
            if name == "center_order":
                return structure.center(g).order()
            if name == "derived_order":
                return structure.derived_subgroup(g).order()
            return structure.abelian_invariants(g)
        if name in ("is_perfect", "iso", "splits"):
            from gategroups import isomorphism

            g = self.group(parts[0])
            if name == "is_perfect":
                return isomorphism.is_perfect(g)
            if name == "iso":
                return bool(isomorphism.isomorphic(g, self.group(parts[1])))
            return bool(isomorphism.find_complement(g, self.group(parts[1])))
        if name == "aut_order":
            return self._aut(self.group(parts[0])).order
        if name == "out_order":
            return self._aut(self.group(parts[0])).outer_order()
        if name == "normal_subgroup_orders":
            return self._normal_subgroups(parts[0]).proper_orders()
        if name == "commutators_equal_derived":
            return self._commutators(parts[0]).equals_derived
        if name == "commutator_deficiency":
            return self._commutators(parts[0]).deficiency
        if name == "yang_baxter":
            from gategroups import gates

            return gates.yang_baxter_check(self._matrix_atom(parts[0]))
        if name == "clifford_formula":
            from gategroups import gates

            return gates.clifford_order_formula(parts[0])
        if name == "subgroup_index":
            parent = self.group(parts[0])
            return parent.order() // len(parent.indices_of(self.group(parts[1])))
        if name == "is_subgroup":
            try:
                self.group(parts[1]).indices_of(self.group(parts[0]))
            except ValueError:
                return False
            return True
        if name == "is_normal":
            parent = self.group(parts[0])
            members = parent.indices_of(self.group(parts[1]))
            return parent.own_table().is_normal_set(members)
        if name == "mub_order":
            return self._mub_group(*parts).order()
        if name == "mub_aut_order":
            return self._aut(self._mub_group(*parts).perm_group()).order
        n, k = parts  # mub_same
        # the prefix groups nest, so equal orders mean equal groups
        return self._mub_group(n, k).order() == self._mub_group(n, k - 1).order()

    def _commutators(self, group_expr):
        key = (_normalize(group_expr), self.allow_extended)
        if key not in self._commutator_sets:
            from gategroups import isomorphism

            self._commutator_sets[key] = isomorphism.commutator_set(
                self.group(group_expr), extended=self.allow_extended
            )
        return self._commutator_sets[key]

    def _matrix_atom(self, name):
        from gategroups import gates

        c = gates.catalog()
        if name == "bellR":
            return c.bell
        if name == "cz":
            return c.cz
        raise ValueError(f"unknown matrix atom {name!r}")

    def _pauli_graph_value(self, name, n):
        from gategroups import pauligraph

        graph = pauligraph.pauli_graph(n)
        if name == "pg_vertices":
            return graph.vertex_count
        if name == "pg_uniform_degree":
            degrees = set(graph.degree_sequence())
            if len(degrees) != 1:
                raise ValueError(f"graph is not regular: degrees {sorted(degrees)}")
            return degrees.pop()
        if name == "pg_max_independent":
            return len(pauligraph.maximum_independent_set(graph.neighbors))
        if name == "pg_aut_count" and n != 2:
            return pauligraph.graph_automorphism_count(graph.neighbors)
        if n not in self._quadrangles:
            self._quadrangles[n] = pauligraph.quadrangle_checks(graph)
        report = self._quadrangles[n]
        if name == "pg_aut_count":
            return report.automorphism_count
        if name == "pg_lines":
            return report.line_count
        if name == "pg_line_size":
            sizes = set(report.line_sizes)
            if len(sizes) != 1:
                raise ValueError(f"lines are not uniform: sizes {sorted(sizes)}")
            return sizes.pop()
        if name == "pg_lines_per_point":
            counts = set(report.lines_per_point)
            if len(counts) != 1:
                raise ValueError(f"incidence is not uniform: {sorted(counts)}")
            return counts.pop()
        if name == "pg_complement_petersen":
            return report.complement_is_petersen
        raise ValueError(f"unknown graph recipe {name!r}")


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
    budget is ``inconclusive`` and keeps the message as its reason.  The exit code is nonzero iff a claim has
    status ``error`` or a non-disputed claim fails.  The machine
    report is JSON-lines: one volatile header line (timestamps, wall
    times and the capacity limits in effect), then one deterministic line
    per claim.  The limits are read first, so a bad one fails before any
    claim runs.
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
