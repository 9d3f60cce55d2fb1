"""Commutation graphs, the quadrangle lines, independent sets, MUB chains."""

import random
from itertools import combinations

import pytest

from conftest import independent_set_on_sets
from gategroups.claims import Evaluator, run_claims
from gategroups.errors import BudgetExceededError
from gategroups.gates import pauli_operator
from gategroups.matrix import matmul
from gategroups.pauligraph import (
    complement_is_petersen,
    graph_automorphism_count,
    graphs_isomorphic,
    maximal_cliques,
    maximum_independent_set,
    pauli_graph,
    petersen_graph,
    write_dot,
)


def test_one_qubit_graph_is_empty():
    g = pauli_graph(1)
    assert g.vertex_count == 3
    assert g.degree_sequence() == [0, 0, 0]
    # sorted by symplectic label (X-part, Z-part): Z=(0,1), X=(1,0), Y=(1,1)
    assert g.labels == ["Z", "X", "Y"]


def _label_code(label):
    """(x bits, z bits) read off the letters of an operator name, leftmost
    wire most significant: X and Y carry an x bit, Z and Y a z bit."""
    x = z = 0
    for ch in label:
        x = (x << 1) | (ch in "XY")
        z = (z << 1) | (ch in "ZY")
    return x, z


def test_two_qubit_graph():
    g = pauli_graph(2)
    assert g.vertex_count == 15
    assert set(g.degree_sequence()) == {6}
    # symplectic cross-check on every supported n: commuting iff the
    # symplectic form of the codes read off the labels vanishes
    for n in (1, 2, 3):
        g = pauli_graph(n)
        codes = [_label_code(lb) for lb in g.labels]
        for a, (xa, za) in enumerate(codes):
            for b in range(a + 1, g.vertex_count):
                xb, zb = codes[b]
                sympl = (bin(xa & zb).count("1") + bin(xb & za).count("1")) % 2
                assert (b in g.neighbors[a]) == (sympl == 0)


def test_vertex_order_is_symplectic_label_order():
    for n in (1, 2, 3):
        g = pauli_graph(n)
        keys = [_label_code(lb) for lb in g.labels]
        assert keys == sorted(keys)
        assert len(set(keys)) == 4**n - 1 and (0, 0) not in keys


@pytest.mark.parametrize("n", [2, 3])
def test_pauli_operators_commute_iff_edges(n):
    """Exact-product oracle for the symplectic edge rule."""
    g = pauli_graph(n)
    ops = [pauli_operator(lb) for lb in g.labels]
    for a in range(g.vertex_count):
        for b in range(a + 1, g.vertex_count):
            lhs = matmul(ops[a], ops[b])
            rhs = matmul(ops[b], ops[a])
            assert (lhs == rhs) == (b in g.neighbors[a])


def test_max_independent_set_generic_graphs():
    # K3: any single vertex
    k3 = [{1, 2}, {0, 2}, {0, 1}]
    assert maximum_independent_set(k3) == [0]
    # path on 4 vertices: endpoints and one middle alternate
    path = [{1}, {0, 2}, {1, 3}, {2}]
    assert maximum_independent_set(path) == [0, 2]
    # empty graph
    assert maximum_independent_set([set(), set(), set()]) == [0, 1, 2]


def _least_maximum_independent_set(neighbors):
    """Brute force: the first independent subset, scanning sizes downward
    and each size in lexicographic order."""
    n = len(neighbors)
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            if all(b not in neighbors[a] for a, b in combinations(subset, 2)):
                return list(subset)


def test_max_independent_set_matches_a_subset_scan():
    """The MUB rows take the first k operators of this set, so the set
    itself, not only its size, must be the lexicographically least."""
    rng = random.Random(2008)
    for _ in range(150):
        n = rng.randint(0, 12)
        density = rng.random()
        neighbors = [set() for _ in range(n)]
        for a, b in combinations(range(n), 2):
            if rng.random() < density:
                neighbors[a].add(b)
                neighbors[b].add(a)
        assert maximum_independent_set(neighbors) == _least_maximum_independent_set(neighbors)


def test_bit_mask_independent_set_matches_the_set_search():
    """Graphs past the reach of the subset scan, against the same branch
    and bound run on sets: one search tree, so one answer."""
    rng = random.Random(34)
    for _ in range(100):
        n = rng.randint(13, 40)
        density = rng.uniform(0.1, 0.9)
        neighbors = [set() for _ in range(n)]
        for a, b in combinations(range(n), 2):
            if rng.random() < density:
                neighbors[a].add(b)
                neighbors[b].add(a)
        assert maximum_independent_set(neighbors) == independent_set_on_sets(neighbors)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pauli_graph_independent_sets_match_the_set_search(n):
    neighbors = pauli_graph(n).neighbors
    assert maximum_independent_set(neighbors) == independent_set_on_sets(neighbors)


def test_three_qubit_independent_set_is_pinned():
    """``mub(3, k)`` takes the first k operators of this set."""
    assert maximum_independent_set(pauli_graph(3).neighbors) == [0, 7, 10, 24, 30, 58, 62]


def test_max_independent_sets_of_pauli_graphs():
    assert len(maximum_independent_set(pauli_graph(2).neighbors)) == 5
    assert maximum_independent_set(pauli_graph(1).neighbors) == [0, 1, 2]
    assert maximum_independent_set(pauli_graph(2).neighbors) == [0, 3, 6, 12, 14]


@pytest.mark.long
def test_three_qubit_independent_set():
    assert len(maximum_independent_set(pauli_graph(3).neighbors)) == 7


def test_independent_set_is_independent_and_deterministic():
    g = pauli_graph(2)
    mis = maximum_independent_set(g.neighbors)
    for a in mis:
        for b in mis:
            if a != b:
                assert b not in g.neighbors[a]
    assert mis == maximum_independent_set(g.neighbors)  # deterministic


def test_petersen_graph_shape():
    p = petersen_graph()
    assert len(p) == 10
    assert all(len(nb) == 3 for nb in p)
    assert graph_automorphism_count(p) == 120


def test_graph_automorphism_count_stops_at_the_node_budget(monkeypatch):
    """Counting the 1451520 automorphisms of the three-qubit graph would take hours;
    the search stops at the node budget and the ledger row is inconclusive."""
    monkeypatch.setenv("GATEGROUPS_SEARCH_NODE_BUDGET", "100")
    with pytest.raises(BudgetExceededError, match="exceeded 100 nodes"):
        graph_automorphism_count(petersen_graph())
    monkeypatch.setenv("GATEGROUPS_SEARCH_NODE_BUDGET", "1000")
    reports, exit_code = run_claims(ledger_text="a | core | pg_aut_count(3) | 1 | derived | -\n")
    assert reports[0].status == "inconclusive" and exit_code == 0
    assert reports[0].inconclusive_reason == "backtracking search exceeded 1000 nodes"


def test_graphs_isomorphic_sanity():
    p = petersen_graph()
    assert graphs_isomorphic(p, p)
    k3 = [{1, 2}, {0, 2}, {0, 1}]
    tri = [{1, 2}, {0, 2}, {0, 1}]
    assert graphs_isomorphic(k3, tri)
    path = [{1}, {0, 2}, {1}]
    assert not graphs_isomorphic(k3, path)


def test_quadrangle_lines_and_ovoid():
    g = pauli_graph(2)
    lines = maximal_cliques(g.neighbors)
    assert len(lines) == 15
    assert {len(line) for line in lines} == {3}
    assert {sum(v in line for line in lines) for v in range(15)} == {3}
    ovoid = maximum_independent_set(g.neighbors)
    assert len(ovoid) == 5
    assert complement_is_petersen(g.neighbors, ovoid)
    assert not complement_is_petersen(g.neighbors, ovoid[:4] + [13])  # 13 is joined to 3
    assert graph_automorphism_count(g.neighbors) == 720


def test_quadrangle_report():
    """The eight values of the two-qubit geometry, as the pg2-* ledger rows read them."""
    ev = Evaluator()
    assert ev.value("pg_vertices(2)") == 15
    assert ev.value("pg_uniform_degree(2)") == 6
    assert ev.value("pg_lines(2)") == 15
    assert ev.value("pg_line_size(2)") == 3
    assert ev.value("pg_lines_per_point(2)") == 3
    assert ev.value("pg_max_independent(2)") == 5
    assert ev.value("pg_complement_petersen(2)") is True
    assert ev.value("pg_aut_count(2)") == 720


def test_quadrangle_requires_two_qubits():
    for recipe in ("pg_lines", "pg_line_size", "pg_lines_per_point", "pg_complement_petersen"):
        for n in (1, 3):
            with pytest.raises(ValueError) as err:
                Evaluator().value(f"{recipe}({n})")
            assert str(err.value) == "the quadrangle report is defined for the two-qubit graph"


def test_mub_chain_two_qubits():
    ev = Evaluator()
    assert [ev.value(f"mub_order(2, {k})") for k in range(2, 6)] == [8, 16, 32, 32]
    assert [ev.value(f"mub_aut_order(2, {k})") for k in range(2, 6)] == [8, 48, 1920, 1920]
    assert [ev.value(f"mub_same(2, {k})") for k in range(2, 6)] == [False, False, False, True]
    # nested and non-decreasing
    for k in range(3, 6):
        prev, cur = ev._mub_group(2, k - 1), ev._mub_group(2, k)
        assert set(prev.elements) <= set(cur.elements)
        assert prev.order() <= cur.order()


@pytest.mark.long
def test_mub_chain_three_qubits_orders():
    ev = Evaluator()
    orders = [ev.value(f"mub_order(3, {k})") for k in range(2, 8)]
    assert orders == [8, 16, 32, 64, 128, 256]


def test_dot_export(tmp_path):
    g = pauli_graph(2)
    path = tmp_path / "pauli2.dot"
    write_dot(g, path)
    text = path.read_text()
    assert text.startswith("graph pauli2 {")
    assert '"IZ" -- ' in text or '-- "IZ"' in text
    assert text.count("--") == sum(g.degree_sequence()) // 2
