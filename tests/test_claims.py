"""Ledger parsing, claim execution, the exit-code contract, report determinism."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from gategroups import claims, config, isomorphism
from gategroups.claims import (
    Evaluator,
    default_ledger_text,
    format_value,
    parse_ledger,
    run_claims,
)
from gategroups.cli import main
from gategroups.errors import GategroupsError, LedgerParseError
from gategroups.perm import PermGroup


def test_default_ledger_parses():
    claims = parse_ledger(default_ledger_text())
    assert len(claims) > 50
    ids = [c.id for c in claims]
    assert len(ids) == len(set(ids))
    for claim in claims:
        if claim.provenance == "paper":
            assert claim.citation not in ("", "-")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(LedgerParseError) as err:
        parse_ledger("a | core | order(c1) | 1 | paper | Sec 1\nbroken line")
    assert err.value.line_number == 2
    with pytest.raises(LedgerParseError):
        parse_ledger("a | mystery | order(c1) | 1 | paper | Sec 1")
    with pytest.raises(LedgerParseError):
        parse_ledger("a | core | order(c1) | 1 | paper | -")  # missing citation
    with pytest.raises(LedgerParseError):
        parse_ledger("a | core | order(c1) | 1 | nobody | x")
    with pytest.raises(LedgerParseError):
        # duplicate ids
        parse_ledger(
            "a | core | order(c1) | 192 | derived | -\n"
            "a | core | order(c1) | 192 | derived | -"
        )


def test_an_empty_claim_id_is_refused():
    with pytest.raises(LedgerParseError) as err:
        parse_ledger("a | core | order(c1) | 192 | derived | -\n | core | order(c1) | 16 | derived | -")
    assert str(err.value) == "line 2: empty claim id"
    assert err.value.line_number == 2


def test_small_suite_passes():
    ledger = (
        "a | core | order(c1) | 192 | paper | Sec 3.1\n"
        "b | core | clifford_formula(1) | 192 | paper | Sec 3\n"
        "c | core | iso(quotient(c1, p1), dihedral(12)) | true | paper | Sec 3.1\n"
    )
    reports, exit_code = run_claims(suite="core", ledger_text=ledger)
    assert exit_code == 0
    assert [r.status for r in reports] == ["pass", "pass", "pass"]


def test_recipe_value_error_is_a_per_claim_error():
    ledger = (
        "a | core | subgroup_index(symmetric(4), cyclic(5)) | 1 | derived | -\n"
        "b | core | order(c1) | 192 | derived | -\n"
    )
    reports, exit_code = run_claims(suite="core", ledger_text=ledger)
    assert exit_code == 1
    assert [r.status for r in reports] == ["error", "pass"]
    assert reports[0].computed is None
    assert "not an element" in reports[0].error


def test_wrong_expected_value_fails_with_computed_shown():
    ledger = "wrong | core | order(c2) | 1234 | derived | -\n"
    reports, exit_code = run_claims(suite="core", ledger_text=ledger)
    assert exit_code == 1
    assert reports[0].status == "fail"
    assert reports[0].computed == 92160


def test_disputed_claims_never_affect_exit_code():
    ledger = (
        "d1 | core | order(c1) | 999 | disputed | Sec 3.1\n"
        "d2 | core | order(c1) | 192 | disputed | Sec 3.1\n"
    )
    reports, exit_code = run_claims(suite="core", ledger_text=ledger)
    assert exit_code == 0
    assert reports[0].status == "disputed-mismatch"
    assert reports[1].status == "disputed-match"


def test_capacity_marks_inconclusive():
    ledger = "big | core | aut_order(wreath(cyclic(2), symmetric(5))) | 1 | derived | -\n"
    reports, exit_code = run_claims(suite="core", ledger_text=ledger)
    assert reports[0].status == "inconclusive"
    assert exit_code == 0


def test_inconclusive_rows_carry_their_reason(monkeypatch, tmp_path):
    monkeypatch.setenv("GATEGROUPS_MAX_COMMUTATOR_ORDER", "10")
    ledger = (
        "small | core | commutator_deficiency(symmetric(3)) | 0 | derived | -\n"
        "big | core | commutator_deficiency(symmetric(4)) | 0 | derived | -\n"
    )
    report = tmp_path / "report.jsonl"
    reports, exit_code = run_claims(suite="core", ledger_text=ledger, report_path=str(report))
    assert [r.status for r in reports] == ["pass", "inconclusive"]
    assert exit_code == 0
    rows = [json.loads(line) for line in report.read_text().splitlines()[1:]]
    assert "inconclusive_reason" not in rows[0]
    assert rows[1]["inconclusive_reason"] == "commutator set enumeration capped at order 10"


def test_group_cache_keeps_the_tier_of_aut():
    ledger = (
        "a | extended | order(aut(c1)) | 192 | derived | -\n"
        "b | core | order(aut(c1)) | 192 | derived | -\n"
    )
    reports, _ = run_claims(suite="extended", ledger_text=ledger)
    assert [r.status for r in reports] == ["pass", "inconclusive"]
    alone, _ = run_claims(suite="core", ledger_text=ledger)
    assert [r.status for r in alone] == ["inconclusive"]


def test_suite_tier_filtering():
    ledger = (
        "a | core | clifford_formula(1) | 192 | derived | -\n"
        "b | long | clifford_formula(2) | 92160 | derived | -\n"
        "c | extended | clifford_formula(3) | 743178240 | derived | -\n"
    )
    core, _ = run_claims(suite="core", ledger_text=ledger)
    assert [r.claim.id for r in core] == ["a"]
    long_, _ = run_claims(suite="long", ledger_text=ledger)
    assert [r.claim.id for r in long_] == ["a", "b"]
    ext, _ = run_claims(suite="extended", ledger_text=ledger)
    assert [r.claim.id for r in ext] == ["a", "b", "c"]


def test_report_body_is_deterministic(tmp_path):
    ledger = (
        "a | core | order(c1) | 192 | paper | Sec 3.1\n"
        "b | core | yang_baxter(bellR) | true | paper | Sec 3.3\n"
    )
    p1 = tmp_path / "r1.jsonl"
    p2 = tmp_path / "r2.jsonl"
    ev = Evaluator()
    run_claims(suite="core", ledger_text=ledger, report_path=str(p1), evaluator=ev)
    run_claims(suite="core", ledger_text=ledger, report_path=str(p2), evaluator=ev)
    body1 = p1.read_text().splitlines()[1:]
    body2 = p2.read_text().splitlines()[1:]
    assert body1 == body2
    header = json.loads(p1.read_text().splitlines()[0])
    assert "generated" in header and "claim_seconds" in header
    assert header["limits"]["GATEGROUPS_MAX_ENUMERATION"] == 200_000
    row = json.loads(body1[0])
    assert row["id"] == "a" and row["status"] == "pass" and row["computed"] == "192"


def test_report_header_records_the_limits(monkeypatch, tmp_path):
    monkeypatch.setenv("GATEGROUPS_MAX_ISO_ORDER", "100")
    report = tmp_path / "r.jsonl"
    ledger = "a | core | order(p1) | 16 | derived | -\n"
    run_claims(suite="core", ledger_text=ledger, report_path=str(report))
    header = json.loads(report.read_text().splitlines()[0])
    assert header["limits"]["GATEGROUPS_MAX_ISO_ORDER"] == 100
    assert set(header["limits"]) == {f"GATEGROUPS_{name}" for name in config._DEFAULTS}


def test_core_report_body_matches_the_golden_file(tmp_path):
    """Every body line of the built-in core suite, byte for byte by claim id."""
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "core-suite.jsonl"
    expected = {json.loads(line)["id"]: line for line in golden.read_text().splitlines()}
    report = tmp_path / "core.jsonl"
    run_claims(suite="core", report_path=str(report))
    body = report.read_text().splitlines()[1:]
    assert {json.loads(line)["id"]: line for line in body} == expected
    assert len(body) == len(expected) == 64


def test_recipe_evaluator_caches_groups():
    ev = Evaluator()
    g1 = ev.group("derived(wreath(cyclic(2), symmetric(5)))")
    g2 = ev.group("derived(wreath(cyclic(2),  symmetric(5)))")
    assert g1 is g2


def test_commutator_set_is_enumerated_once_per_group(monkeypatch):
    calls = []

    def counting(group, **kwargs):
        calls.append(kwargs)
        return real(group, **kwargs)

    real = isomorphism.commutator_set
    monkeypatch.setattr(isomorphism, "commutator_set", counting)
    ev = Evaluator()
    m20 = "derived(wreath(cyclic(2), symmetric(5)))"
    assert ev.value(f"commutator_deficiency({m20})") == 120
    assert ev.value("commutators_equal_derived(derived(wreath(cyclic(2),symmetric(5))))") is False
    assert calls == [{"extended": False}]
    # the capacity tier is part of the key
    assert ev.value(f"commutator_deficiency({m20})", tier="extended") == 120
    assert calls[1:] == [{"extended": True}]


def test_graph_searches_run_once_per_qubit_count(monkeypatch):
    """Every pg_* and mub_* recipe reads one memoised independent set and one set
    of lines per n, and each automorphism count runs once."""
    from gategroups import pauligraph

    calls = []

    def counting(name):
        real = getattr(pauligraph, name)

        def wrapper(neighbors):
            calls.append((name, len(neighbors)))
            return real(neighbors)

        monkeypatch.setattr(pauligraph, name, wrapper)

    for name in ("maximal_cliques", "maximum_independent_set", "graph_automorphism_count"):
        counting(name)
    ev = Evaluator()
    graph_recipes = [
        "pg_vertices", "pg_uniform_degree", "pg_max_independent", "pg_aut_count",
        "pg_lines", "pg_line_size", "pg_lines_per_point", "pg_complement_petersen",
    ]
    for _ in range(2):
        assert [ev.value(f"{r}(2)") for r in graph_recipes] == [15, 6, 5, 720, 15, 3, 3, True]
        for n, size in ((1, 3), (2, 5)):
            assert ev.value(f"pg_max_independent({n})") == size
            for k in range(1, size + 1):
                ev.value(f"mub_order({n}, {k})")
                ev.group(f"mub({n}, {k})")
                if k > 1:
                    ev.value(f"mub_same({n}, {k})")
            ev.value(f"mub_aut_order({n}, 2)")
        assert ev.value("pg_aut_count(1)") == 6
    assert sorted(calls) == [
        ("graph_automorphism_count", 3),
        ("graph_automorphism_count", 15),
        ("maximal_cliques", 15),
        ("maximum_independent_set", 3),
        ("maximum_independent_set", 15),
    ]
    with pytest.raises(ValueError, match="defined for the two-qubit graph"):
        ev.value("pg_lines(1)")


def test_unknown_recipe_raises():
    ev = Evaluator()
    with pytest.raises(ValueError):
        ev.value("frobnicate(c1)")
    with pytest.raises(ValueError):
        ev.group("nonsense(1)")


def test_gate_subgroup_shares_the_parent_perm_group():
    ev = Evaluator()
    parent, child = ev.group("c1"), ev.group("p1")
    assert parent is ev.matrix_group("c1").perm_group()
    assert len(parent.indices_of(child)) == 16
    assert ev.value("is_subgroup(p1, c1)") is True
    assert ev.value("subgroup_index(c1, p1)") == 12


def test_membership_across_matrix_groups_in_the_ledger():
    ev = Evaluator()
    assert ev.value("is_subgroup(mub(2, 3), mub(2, 4))") is True
    assert ev.value("subgroup_index(c2, mub(2, 4))") == 2880
    assert ev.value("is_subgroup(mub(2, 4), mub(2, 3))") is False


def test_c2_questions_share_one_spanning_tree(monkeypatch):
    """Wrapping subgroups of C2 fills no column of its 92160-element table, and the
    right spanning tree is the one its enumeration walked: none is built again."""
    from gategroups import cayley, gates

    monkeypatch.setattr(gates, "_GROUPS", {})  # a fresh C2 with no tree built
    trees = []
    real = cayley._spanning_tree

    def counting(cols):
        trees.append(len(cols[0]))
        return real(cols)

    monkeypatch.setattr(cayley, "_spanning_tree", counting)
    ev = Evaluator()
    assert ev.value("center_order(c2)") == 8
    assert ev.value("is_subgroup(b2, c2)") is True
    assert ev.value("is_normal(c2, p2)") is True
    assert trees.count(92160) == 0


def test_wrapping_c2_as_a_permutation_group_builds_no_spanning_tree(monkeypatch):
    """perm_group() takes the generator permutations the table already holds."""
    from gategroups import cayley, gates

    monkeypatch.setattr(gates, "_GROUPS", {})  # a fresh C2 with no tree built
    trees = []
    real = cayley._spanning_tree

    def counting(cols):
        trees.append(len(cols[0]))
        return real(cols)

    monkeypatch.setattr(cayley, "_spanning_tree", counting)
    group = gates.clifford_group(2).perm_group()
    assert group.order() == 92160
    assert 92160 not in trees


def test_is_normal_with_a_subgroup_parent():
    ev = Evaluator()
    assert ev.value("is_normal(derived(symmetric(4)), derived(derived(symmetric(4))))") is True
    assert ev.value("subgroup_index(derived(symmetric(4)), derived(derived(symmetric(4))))") == 3
    assert ev.value("is_subgroup(derived(symmetric(4)), symmetric(4))") is True
    assert ev.value("is_subgroup(symmetric(4), derived(symmetric(4)))") is False


def test_is_subgroup_refuses_a_bad_group():
    """Only "not a member" means false; a group that fails to evaluate is an error,
    and the parent group is evaluated first."""
    ev = Evaluator()
    with pytest.raises(ValueError, match=r"^unknown group spec 'bogus\(1\)'$"):
        ev.value("is_subgroup(bogus(1), c1)")
    with pytest.raises(ValueError, match=r"^unknown group spec 'bogus\(1\)'$"):
        ev.value("is_subgroup(p1, bogus(1))")
    with pytest.raises(ValueError, match=r"^unknown group spec 'nonsense\(2\)'$"):
        ev.value("is_subgroup(bogus(1), nonsense(2))")
    with pytest.raises(ValueError, match=r"^cyclic\(\) needs an integer argument, found 'x'$"):
        ev.value("is_subgroup(cyclic(x), c1)")
    assert ev.value("is_subgroup(c1, p1)") is False
    reports, exit_code = run_claims(
        ledger_text="typo | core | is_subgroup(bogus(1), c1) | false | derived | -\n"
    )
    assert [r.status for r in reports] == ["error"] and exit_code == 1


@pytest.mark.parametrize(
    "call, expr, inner",
    [
        ("group", "cyclic(2,)", "cyclic(2,)"),
        ("group", "cyclic(,2)", "cyclic(,2)"),
        ("group", "direct(,)", "direct(,)"),
        ("group", "direct(cyclic(2),,cyclic(3))", "direct(cyclic(2),,cyclic(3))"),
        ("group", "wreath(cyclic(2),symmetric(3),)", "wreath(cyclic(2),symmetric(3),)"),
        ("group", "wreath(,symmetric(3))", "wreath(,symmetric(3))"),
        ("group", "semidirect(cyclic(3),cyclic(2),)", "semidirect(cyclic(3),cyclic(2),)"),
        ("group", "derived(direct(cyclic(2),))", "direct(cyclic(2),)"),
        ("value", "order(c1,)", "order(c1,)"),
        ("value", "is_subgroup(,c1)", "is_subgroup(,c1)"),
        ("value", "mub_order(2,)", "mub_order(2,)"),
        ("value", "iso(cyclic(2), direct(,cyclic(2)))", "direct(,cyclic(2))"),
    ],
)
def test_empty_arguments_are_refused(call, expr, inner):
    with pytest.raises(ValueError) as err:
        getattr(Evaluator(), call)(expr)
    assert str(err.value) == f"empty argument in {inner!r}"


def test_an_empty_argument_list_is_no_argument():
    ev = Evaluator()
    assert ev.group("quaternion8()").order() == 8
    assert ev.value("order(quaternion8())") == 8
    with pytest.raises(ValueError, match=r"^cyclic\(\) takes 1 argument\(s\), found 0$"):
        ev.group("cyclic()")


@pytest.mark.parametrize(
    "recipe, message",
    [
        ("pg_bogus(2)", "unknown recipe 'pg_bogus(2)'"),
        ("pg_bogus(x)", "unknown recipe 'pg_bogus(x)'"),
        ("pg_lines(1)", "the quadrangle report is defined for the two-qubit graph"),
        ("pg_vertices(5)", "pauli_graph supports 1..3 qubits"),
        ("yang_baxter(xx)", "unknown matrix atom 'xx'"),
        ("order(direct())", "direct() needs at least one factor"),
        ("mub_order(2,-1)", "the number of operators must not be negative, found -1"),
        ("order(mub(2,-3))", "the number of operators must not be negative, found -3"),
        ("mub_order(2,6)", "the 2-qubit independent set has only 5 operators"),
        ("frobnicate(c1)", "unknown recipe 'frobnicate(c1)'"),
        ("order(order(c1))", "unknown group spec 'order(c1)'"),
    ],
)
def test_recipe_error_messages(recipe, message):
    with pytest.raises(ValueError) as err:
        Evaluator().value(recipe)
    assert str(err.value) == message


def _nested(levels):
    """``order(derived(...(c1)...))`` nesting ``levels`` levels deep."""
    return "order(" + "derived(" * (levels - 1) + "c1" + ")" * levels


def test_nesting_bound_through_run_claims():
    bound = claims._MAX_NESTING
    ledger = (
        f"at-bound | core | {_nested(bound)} | 1 | derived | -\n"
        f"past-bound | core | {_nested(bound + 1)} | 1 | derived | -\n"
    )
    reports, exit_code = run_claims(ledger_text=ledger)
    assert [r.status for r in reports] == ["pass", "error"] and exit_code == 1
    assert reports[1].error == f"order(...) nests deeper than {bound} levels"


def test_nesting_bound_through_the_cli(tmp_path, capsys):
    bound = claims._MAX_NESTING
    at_bound = "derived(" * bound + "c1" + ")" * bound
    assert main(["analyze", at_bound]) == 0
    assert "order:              1" in capsys.readouterr().out
    assert main(["analyze", f"derived({at_bound})"]) == 2
    assert capsys.readouterr().err == f"error: derived(...) nests deeper than {bound} levels\n"
    ledger = tmp_path / "deep.ledger"
    ledger.write_text(f"deep | core | {_nested(600)} | 1 | derived | -\n")
    assert main(["claims", "run", "--ledger", str(ledger)]) == 1
    assert f"(order(...) nests deeper than {bound} levels)" in capsys.readouterr().out


def test_extended_report_body_matches_the_golden_file(tmp_path):
    """Every body line of the built-in ledger, all tiers, byte for byte by claim id."""
    golden = Path(__file__).resolve().parent / "data" / "extended-suite.jsonl"
    expected = {json.loads(line)["id"]: line for line in golden.read_text().splitlines()}
    report = tmp_path / "extended.jsonl"
    assert main(["claims", "run", "--suite", "extended", "--report", str(report)]) == 0
    body = report.read_text().splitlines()[1:]
    assert {json.loads(line)["id"]: line for line in body} == expected
    assert len(body) == len(expected) == len(parse_ledger(default_ledger_text()))


# -- fuzz: ledger lines and recipe text -----------------------------------------

_FIELDS = st.sampled_from(["", "-", "a", "#x", "Sec 3", " c1 ", "[", "]", "(", ","])


@st.composite
def _ledger_lines(draw):
    fields = [
        draw(st.one_of(_FIELDS, st.text(alphabet="ab-_ ", max_size=4))),
        draw(st.sampled_from(claims.TIERS + ("", "Core", "tier"))),
        draw(_recipes()),
        draw(st.sampled_from(["true", "false", "0", "-3", "07", "1_0", "[]", "[1, 2]", "[ 4 ]",
                              "[1,,2]", "[1", "x", "", "True", "2.0"])),
        draw(st.sampled_from(claims.PROVENANCES + ("", "nobody"))),
        draw(_FIELDS),
    ]
    if draw(st.booleans()):  # a field short
        del fields[draw(st.integers(0, 5))]
    return " | ".join(fields + draw(st.lists(_FIELDS, max_size=1)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_ledger_lines(), st.sampled_from(["", "# note", "  "]),
                          st.text(max_size=12)), max_size=5))
def test_generated_ledger_lines_parse_or_raise(lines):
    text = "\n".join(lines)
    try:
        parsed = parse_ledger(text)
    except LedgerParseError as exc:
        assert 1 <= exc.line_number <= len(text.splitlines())
        assert str(exc).startswith(f"line {exc.line_number}: ")
        return
    again = "\n".join(
        " | ".join([c.id, c.tier, c.recipe, format_value(c.expected), c.provenance, c.citation])
        for c in parsed
    )
    assert parse_ledger(again) == parsed


_INTS = ["0", "1", "2", "3", "4", "-1", "+2", "07", "1_0", "x"]
_RAW = ["[(1,2)]", "[(1,2,3)]", "[]", "bellR", "cz", "p1", "c1", "x"]


def _calls(table, groups):
    """``name(args)`` for every recipe of ``table``, its arguments of the kinds it takes."""
    def args(kinds):
        if kinds == "+":
            return st.lists(groups, max_size=3)
        pick = {"e": groups, "i": st.sampled_from(_INTS), "a": st.sampled_from(_RAW)}
        return st.tuples(*(pick[k] for k in kinds)).map(list)

    return st.sampled_from(sorted(table)).flatmap(
        lambda name: args(table[name][0]).map(lambda parts: f"{name}({','.join(parts)})")
    )


_GROUPS = st.recursive(
    st.sampled_from(["p1", "p2", "c1"]), lambda inner: _calls(claims._GROUP_RECIPES, inner),
    max_leaves=4,
)


@st.composite
def _recipes(draw):
    """Well-formed recipes with up to two stray, missing or extra characters, and some
    nested past the bound."""
    text = draw(st.one_of(_calls(claims._VALUE_RECIPES, _GROUPS), _GROUPS))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        text = draw(st.sampled_from([text[:i] + c + text[i:] for c in "(),[]"]
                                    + [text[:i] + text[i + 1:], text[:i] + "x" + text[i:]]))
    if draw(st.integers(0, 9)) == 0:
        k = draw(st.integers(claims._MAX_NESTING - 4, claims._MAX_NESTING + 2))
        text = "order(" + "center(" * k + text + ")" * (k + 1)
    return text


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["value", "group"]), _recipes(), st.sampled_from(claims.TIERS))
def test_generated_recipes_return_or_raise_typed_errors(monkeypatch, call, text, tier):
    monkeypatch.setenv("GATEGROUPS_MAX_ENUMERATION", "200")
    monkeypatch.setenv("GATEGROUPS_MAX_CLOSURE", "200")
    monkeypatch.setenv("GATEGROUPS_SEARCH_NODE_BUDGET", "2000")
    ev = Evaluator()
    try:
        ev.value(text, tier) if call == "value" else ev.group(text)
    except (ValueError, GategroupsError):
        pass


# -- fuzz: constructor orders against their closed forms --------------------------
# Each node is (expression, order, degree of its permutation action).

_CONSTRUCTORS = st.one_of(
    st.integers(1, 6).map(lambda n: (f"cyclic({n})", n, n)),
    st.integers(1, 6).map(lambda n: (f"dihedral({2 * n})", 2 * n, {1: 2, 2: 4}.get(n, n))),
    st.integers(1, 4).map(lambda n: (f"symmetric({n})", math.factorial(n), n)),
    st.integers(1, 5).map(lambda n: (f"alternating({n})", max(math.factorial(n) // 2, 1), n)),
)


def _direct(factors):
    texts, orders, degrees = zip(*factors)
    return f"direct({', '.join(texts)})", math.prod(orders), sum(degrees)


def _wreath(pair):
    (m, m_order, m_degree), (h, h_order, h_degree) = pair
    return f"wreath({m}, {h})", m_order**h_degree * h_order, m_degree * h_degree


def _products(inner):
    return st.one_of(
        st.lists(inner, min_size=1, max_size=3).map(_direct), st.tuples(inner, inner).map(_wreath)
    )


@settings(max_examples=150, deadline=None)
@given(st.recursive(_CONSTRUCTORS, _products, max_leaves=3).filter(lambda node: node[2] <= 60))
def test_generated_constructor_orders_match_their_closed_forms(node):
    """|cyclic(n)| = n, |dihedral(2n)| = 2n, |symmetric(n)| = n!, |alternating(n)| = n!/2,
    a direct product multiplies orders and |wreath(m, h)| = |m|^deg(h) |h|; the order
    of a fresh chain on the generators agrees."""
    text, order, degree = node
    ev = Evaluator()
    assert ev.value(f"order({text})") == order
    group = ev.group(text)
    assert group.degree == degree
    assert PermGroup(degree, group.generators).order() == order
