"""End-to-end runs of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gategroups import cli
from gategroups.cli import main
from gategroups.errors import (
    BudgetExceededError,
    CapacityError,
    ClosureOverflowError,
    GategroupsError,
    GroupFileError,
    LedgerParseError,
    ParseError,
)
from gategroups.matrix import read_group
from gategroups.perm import read_perm_group


def test_build_gate_group_and_export(tmp_path, capsys):
    path = tmp_path / "c1.group"
    assert main(["build", "c1", "--export", str(path)]) == 0
    out = capsys.readouterr().out
    assert "order 192" in out
    assert read_group(path).order() == 192


def test_build_spec_group(tmp_path, capsys):
    path = tmp_path / "w.permgroup"
    assert main(["build", "wreath(cyclic(2), symmetric(5))", "--export", str(path)]) == 0
    out = capsys.readouterr().out
    assert "order 3840" in out
    assert read_perm_group(path).order() == 3840
    assert len(read_perm_group(path).generators) == 3  # one C2 copy and S5's two


def test_analyze_c1(capsys):
    assert main(["analyze", "c1"]) == 0
    out = capsys.readouterr().out
    assert "order:              192" in out
    assert "center order:       8" in out
    assert "derived order:      24" in out
    assert "[2, 4]" in out


def test_analyze_wreath(capsys):
    assert main(["analyze", "wreath(cyclic(2), alternating(5))"]) == 0
    out = capsys.readouterr().out
    assert "order:              1920" in out
    assert "derived order:      960" in out


def test_analyze_p1(capsys):
    assert main(["analyze", "p1"]) == 0
    out = capsys.readouterr().out
    assert "order:              16" in out
    assert "center order:       4" in out


def test_claims_run_custom_ledger(tmp_path, capsys):
    ledger = tmp_path / "mini.ledger"
    ledger.write_text(
        "a | core | order(c1) | 192 | paper | Sec 3.1\n"
        "b | core | order(c1) | 191 | derived | -\n"
    )
    report = tmp_path / "report.jsonl"
    code = main(["claims", "run", "--ledger", str(ledger), "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 1  # the failing derived claim drives the exit code
    assert "pass" in out and "fail" in out
    lines = report.read_text().splitlines()
    assert json.loads(lines[1])["status"] == "pass"
    assert json.loads(lines[2])["computed"] == "192"


def test_claims_run_bad_ledger(tmp_path, capsys):
    ledger = tmp_path / "bad.ledger"
    ledger.write_text("not a ledger line\n")
    code = main(["claims", "run", "--ledger", str(ledger)])
    assert code == 2
    assert "parse error" in capsys.readouterr().err


def test_graph_pauli_dot(tmp_path, capsys):
    dot = tmp_path / "g.dot"
    assert main(["graph", "pauli", "-n", "2", "--dot", str(dot)]) == 0
    out = capsys.readouterr().out
    assert "15 vertices" in out
    assert "Petersen: True" in out
    assert dot.read_text().startswith("graph pauli2")


def test_graph_pauli_prints_the_quadrangle_recipes(capsys):
    assert main(["graph", "pauli", "-n", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[2] == (
        "lines: 15 (size [3]), lines per point [3], complement is Petersen: True, "
        "graph automorphisms: 720"
    )


def test_mub_chain_command(capsys):
    assert main(["mub-chain", "-n", "2"]) == 0
    out = capsys.readouterr().out
    assert "aut 1920" in out
    assert "(= previous)" in out


def test_mub_chain_without_aut(capsys):
    assert main(["mub-chain", "-n", "2", "--no-aut"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "g2: order      8  aut (skipped)",
        "g3: order     16  aut (skipped)",
        "g4: order     32  aut (skipped)",
        "g5: order     32  aut (skipped)  (= previous)",
    ]


def test_mub_chain_capacity_and_budget(monkeypatch, capsys):
    """A group past the core capacity is skipped; a search out of nodes is inconclusive."""
    assert main(["mub-chain", "-n", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "g7: order    256  aut (skipped)"
    assert main(["mub-chain", "-n", "3", "--extended"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "g7: order    256  aut 185794560"
    monkeypatch.setenv("GATEGROUPS_SEARCH_NODE_BUDGET", "5")
    assert main(["mub-chain", "-n", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "g3: order     16  aut (inconclusive)",
        "g4: order     32  aut (inconclusive)",
        "g5: order     32  aut (inconclusive)  (= previous)",
    ]


def test_analyze_group_file(tmp_path, capsys):
    perm_file = tmp_path / "s4.permgroup"
    perm_file.write_text("degree 4\n(1,2)\n(1,2,3,4)\n")
    assert main(["analyze", str(perm_file)]) == 0
    out = capsys.readouterr().out
    assert "order:              24" in out

    matrix_file = tmp_path / "p1.group"
    assert main(["build", "p1", "--export", str(matrix_file)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(matrix_file)]) == 0
    assert "order:              16" in capsys.readouterr().out


@pytest.mark.parametrize("first", [b"degree 3", b"dim 2"])
def test_non_ascii_group_file_is_a_clean_error(tmp_path, capsys, first):
    path = tmp_path / "accent.group"
    path.write_bytes(first + "\n(1,2)\u00e9\n".encode("utf-8"))
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 2: non-ASCII byte 0xc3 in column 6\n"


def test_huge_degree_group_file_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "huge.permgroup"
    path.write_text("degree 100000000000\n", encoding="ascii")
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: line 1: degree 100000000000 exceeds the cap 200000"
        " set by GATEGROUPS_MAX_ENUMERATION\n"
    )


def test_huge_degree_spec_is_a_clean_error(capsys):
    assert main(["analyze", "cyclic(1000000000)"]) == 2
    assert capsys.readouterr().err == (
        "error: cyclic() needs degree 1000000000, above the cap 200000"
        " set by GATEGROUPS_MAX_ENUMERATION\n"
    )


def test_spec_degrees_are_capped_before_any_permutation_is_built(monkeypatch, capsys):
    """Each constructor names itself; a direct product is capped on its
    summed degree, though every factor fits."""
    monkeypatch.setenv("GATEGROUPS_MAX_ENUMERATION", "5")
    assert main(["analyze", "direct(cyclic(5), cyclic(5))"]) == 2
    assert capsys.readouterr().err == (
        "error: direct() needs degree 10, above the cap 5 set by GATEGROUPS_MAX_ENUMERATION\n"
    )
    for spec, name in [
        ("cyclic(6)", "cyclic"),
        ("symmetric(6)", "symmetric"),
        ("alternating(6)", "alternating"),
        ("dihedral(12)", "dihedral"),
        ("wreath(cyclic(2), cyclic(3))", "wreath"),
    ]:
        assert main(["analyze", spec]) == 2
        assert capsys.readouterr().err.startswith(f"error: {name}() needs degree 6, above the cap 5")
    assert main(["analyze", "cyclic(5)"]) == 0


def test_group_file_reader_skips_leading_blank_lines(tmp_path, capsys):
    matrix_file = tmp_path / "x.group"
    matrix_file.write_text("\ndim 2\ngenerators 1\n[[0, 1], [1, 0]]\n")
    assert main(["analyze", str(matrix_file)]) == 0
    assert "order:              2" in capsys.readouterr().out
    perm_file = tmp_path / "s3.permgroup"
    perm_file.write_text("\n  \ndegree 3\n(1,2)\n(1,2,3)\n")
    assert main(["analyze", str(perm_file)]) == 0
    assert "order:              6" in capsys.readouterr().out


def test_error_reporting(capsys):
    assert main(["analyze", "frobnicate(2)"]) == 2
    assert "error:" in capsys.readouterr().err


def test_closure_overflow_is_a_clean_error(monkeypatch, tmp_path, capsys):
    from gategroups import gates

    monkeypatch.setattr(gates, "_GROUPS", {})  # build c1 afresh under the small cap
    monkeypatch.setenv("GATEGROUPS_MAX_CLOSURE", "100")
    assert main(["build", "c1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "GATEGROUPS_MAX_CLOSURE" in err

    ledger = tmp_path / "c1.ledger"
    ledger.write_text("a | core | order(c1) | 192 | derived | -\n")
    assert main(["claims", "run", "--ledger", str(ledger)]) == 0
    assert "inconclusive" in capsys.readouterr().out


def test_bad_limit_is_a_clean_error(monkeypatch, capsys):
    monkeypatch.setenv("GATEGROUPS_MAX_ENUMERATION", "abc")
    assert main(["analyze", "symmetric(3)"]) == 2
    assert "GATEGROUPS_MAX_ENUMERATION='abc' is not an integer" in capsys.readouterr().err


def test_search_budget_is_a_clean_error(monkeypatch, capsys):
    monkeypatch.setenv("GATEGROUPS_SEARCH_NODE_BUDGET", "5")
    assert main(["build", "aut(p1)"]) == 2
    assert capsys.readouterr().err == "error: backtracking search exceeded 5 nodes\n"


@pytest.mark.parametrize(
    "error",
    [
        GategroupsError("unnamed failure"),
        CapacityError("group too large"),
        ClosureOverflowError("closure overflow"),
        BudgetExceededError("search budget exhausted"),
        ParseError("bad text", 3),
        LedgerParseError("bad ledger row", 4),
        GroupFileError("bad group file", 5),
    ],
    ids=lambda e: type(e).__name__,
)
def test_every_package_error_is_a_clean_error(monkeypatch, capsys, error):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_analyze", fail)
    assert main(["analyze", "cyclic(2)"]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_package_errors_keep_their_builtin_bases():
    assert issubclass(CapacityError, RuntimeError)
    assert issubclass(BudgetExceededError, RuntimeError)
    assert issubclass(ParseError, ValueError)
    for cls in (CapacityError, ClosureOverflowError, BudgetExceededError, ParseError,
                LedgerParseError, GroupFileError):
        assert issubclass(cls, GategroupsError)


def test_truncated_group_files_are_clean_errors(tmp_path, capsys):
    only_dim = tmp_path / "dim.group"
    only_dim.write_text("dim 2\n")
    assert main(["analyze", str(only_dim)]) == 2
    assert "error: line 2:" in capsys.readouterr().err

    short = tmp_path / "short.group"
    short.write_text("dim 2\ngenerators 2\n[[0, 1], [1, 0]]\n")
    assert main(["analyze", str(short)]) == 2
    assert "error: line 2: 2 matrix lines declared, 1 found" in capsys.readouterr().err


def test_bad_cyclotomic_entry_in_group_file_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "zero.group"
    path.write_text("dim 2\ngenerators 1\n[[1/0, 0], [0, 1]]\n")
    with pytest.raises(GroupFileError) as err:
        read_group(path)
    assert err.value.line_number == 3
    assert main(["analyze", str(path)]) == 2
    assert "error: line 3: division by zero in cyclotomic expression '1/0'" in capsys.readouterr().err


def test_spec_errors_name_the_constructor_and_argument(capsys):
    assert main(["analyze", "cyclic(x)"]) == 2
    assert "error: cyclic() needs an integer argument, found 'x'" in capsys.readouterr().err
    assert main(["analyze", "cyclic()"]) == 2
    assert "error: cyclic() takes 1 argument(s), found 0" in capsys.readouterr().err


def test_empty_direct_product_fails_before_any_report(capsys):
    assert main(["analyze", "direct()"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: direct() needs at least one factor" in captured.err


def test_recipe_error_does_not_stop_the_run(tmp_path, capsys):
    ledger = tmp_path / "two.ledger"
    ledger.write_text(
        "a | core | subgroup_index(symmetric(4), cyclic(5)) | 1 | derived | -\n"
        "b | core | order(c1) | 192 | derived | -\n"
    )
    report = tmp_path / "report.jsonl"
    assert main(["claims", "run", "--ledger", str(ledger), "--report", str(report)]) == 1
    out = capsys.readouterr().out
    assert "error: 1, pass: 1" in out
    rows = [json.loads(line) for line in report.read_text().splitlines()[1:]]
    assert [r["status"] for r in rows] == ["error", "pass"]
    assert rows[0]["error"] == "permutation is not an element of the group"


def test_recipe_with_missing_argument_is_a_per_claim_error(tmp_path, capsys):
    ledger = tmp_path / "two.ledger"
    ledger.write_text(
        "bad | core | order(derived()) | 1 | derived | -\n"
        "good | core | order(cyclic(3)) | 3 | derived | -\n"
    )
    report = tmp_path / "report.jsonl"
    assert main(["claims", "run", "--ledger", str(ledger), "--report", str(report)]) == 1
    assert "error: 1, pass: 1" in capsys.readouterr().out
    rows = [json.loads(line) for line in report.read_text().splitlines()[1:]]
    assert [r["status"] for r in rows] == ["error", "pass"]
    assert rows[0]["error"] == "derived() takes 1 argument(s), found 0"


def test_recipe_with_non_integer_argument_is_a_clean_error(capsys):
    assert main(["analyze", "mub(x, 2)"]) == 2
    assert "error: mub() needs an integer argument, found 'x'" in capsys.readouterr().err


ENGINE_MODULES = ["cyclo", "matrix", "perm", "groups", "structure", "isomorphism", "gates",
                  "pauligraph", "cayley"]


def modules_loaded_by(code, *argv):
    """Modules that ``code`` loads in a fresh interpreter, beyond those loaded at start."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return set(done.stdout.splitlines()[-1].split())


def test_start_up_loads_no_engine_module():
    loaded = modules_loaded_by(
        "import gategroups.cli\n"
        "from gategroups.claims import default_ledger_text, parse_ledger\n"
        "parse_ledger(default_ledger_text())"
    )
    assert {"gategroups.cli", "gategroups.claims"} <= loaded
    assert loaded.isdisjoint({f"gategroups.{m}" for m in ENGINE_MODULES} | {"dataclasses"})


def test_graph_and_formula_rows_load_no_group_engine_module(tmp_path):
    ledger = tmp_path / "graph.ledger"
    ledger.write_text(
        "a | core | pg_vertices(2) | 15 | derived | -\n"
        "b | core | clifford_formula(2) | 92160 | derived | -\n"
    )
    loaded = modules_loaded_by(
        "from gategroups.cli import main\n"
        "assert main(['claims', 'run', '--ledger', sys.argv[1]]) == 0",
        str(ledger),
    )
    assert "gategroups.pauligraph" in loaded
    assert loaded.isdisjoint({"gategroups.groups", "gategroups.structure",
                              "gategroups.isomorphism"})


def test_permutation_rows_load_no_matrix_module(tmp_path):
    ledger = tmp_path / "perm.ledger"
    ledger.write_text(
        "a | core | order(symmetric(4)) | 24 | derived | -\n"
        "b | core | derived_order(wreath(cyclic(2), symmetric(4))) | 96 | derived | -\n"
        "c | core | aut_order(symmetric(4)) | 24 | derived | -\n"
        "d | core | normal_subgroup_orders(symmetric(4)) | [4, 12] | derived | -\n"
        "e | core | iso(quotient(symmetric(4), derived(derived(symmetric(4)))), symmetric(3))"
        " | true | derived | -\n"
        "f | core | commutators_equal_derived(symmetric(4)) | true | derived | -\n"
        "g | core | splits(symmetric(4), derived(derived(symmetric(4)))) | true | derived | -\n"
        "h | core | center_order(central_quotient(dihedral(8))) | 4 | derived | -\n"
    )
    loaded = modules_loaded_by(
        "from gategroups.cli import main\n"
        "assert main(['claims', 'run', '--ledger', sys.argv[1]]) == 0",
        str(ledger),
    )
    assert {"gategroups.structure", "gategroups.isomorphism", "gategroups.groups"} <= loaded
    assert loaded.isdisjoint({"gategroups.cyclo", "gategroups.matrix", "gategroups.gates",
                              "gategroups.pauligraph"})
