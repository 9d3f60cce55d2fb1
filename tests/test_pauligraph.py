"""Commutation graphs, the quadrangle report, independent sets, MUB chains."""

import random
from itertools import combinations

import pytest

from gategroups.claims import run_claims
from gategroups.errors import BudgetExceededError
from gategroups.matrix import matmul
from gategroups.pauligraph import (
    graph_automorphism_count,
    graphs_isomorphic,
    maximum_independent_set,
    mub_chain,
    pauli_graph,
    petersen_graph,
    quadrangle_checks,
    write_dot,
)


def test_one_qubit_graph_is_empty():
    g = pauli_graph(1)
    assert g.vertex_count == 3
    assert g.degree_sequence() == [0, 0, 0]
    # sorted by symplectic label (X-part, Z-part): Z=(0,1), X=(1,0), Y=(1,1)
    assert g.labels == ["Z", "X", "Y"]


def test_two_qubit_graph():
    g = pauli_graph(2)
    assert g.vertex_count == 15
    assert set(g.degree_sequence()) == {6}
    # symplectic cross-check: commuting iff the symplectic form vanishes
    from gategroups.pauligraph import _label_bits

    def sympl(a, b):
        xa, za = _label_bits(g.labels[a])
        xb, zb = _label_bits(g.labels[b])
        return (bin(xa & zb).count("1") + bin(xb & za).count("1")) % 2

    for a in range(15):
        for b in range(a + 1, 15):
            commuting = b in g.neighbors[a]
            assert commuting == (sympl(a, b) == 0)


def test_vertex_order_is_symplectic_label_order():
    g = pauli_graph(2)
    from gategroups.pauligraph import _label_bits

    keys = [_label_bits(lb) for lb in g.labels]
    assert keys == sorted(keys)


@pytest.mark.parametrize("n", [2, 3])
def test_representatives_commute_iff_edges(n):
    """Exact-product oracle for the symplectic edge rule."""
    g = pauli_graph(n)
    for a in range(g.vertex_count):
        for b in range(a + 1, g.vertex_count):
            lhs = matmul(g.representatives[a], g.representatives[b])
            rhs = matmul(g.representatives[b], g.representatives[a])
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


def test_quadrangle_report():
    rep = quadrangle_checks(pauli_graph(2))
    assert rep.ok, rep.failures
    assert rep.vertex_count == 15
    assert set(rep.degrees) == {6}
    assert rep.line_count == 15
    assert set(rep.line_sizes) == {3}
    assert set(rep.lines_per_point) == {3}
    assert len(rep.independent_set) == 5
    assert rep.complement_is_petersen
    assert rep.automorphism_count == 720


def test_quadrangle_requires_two_qubits():
    with pytest.raises(ValueError):
        quadrangle_checks(pauli_graph(1))


def test_mub_chain_two_qubits():
    links = mub_chain(2)
    assert [l.order for l in links] == [8, 16, 32, 32]
    assert [l.aut_order for l in links] == [8, 48, 1920, 1920]
    assert links[-1].same_as_previous  # g5 = g4
    # nested and non-decreasing
    for prev, cur in zip(links, links[1:]):
        assert set(prev.group.elements) <= set(cur.group.elements)
        assert prev.order <= cur.order


def test_mub_chain_without_aut():
    links = mub_chain(2, with_aut=False)
    assert all(l.aut_status == "skipped" for l in links)


@pytest.mark.long
def test_mub_chain_three_qubits_orders():
    links = mub_chain(3, with_aut=False)
    assert [l.order for l in links] == [8, 16, 32, 64, 128, 256]


def test_dot_export(tmp_path):
    g = pauli_graph(2)
    path = tmp_path / "pauli2.dot"
    write_dot(g, path)
    text = path.read_text()
    assert text.startswith("graph pauli2 {")
    assert '"IZ" -- ' in text or '-- "IZ"' in text
    assert text.count("--") == sum(g.degree_sequence()) // 2
