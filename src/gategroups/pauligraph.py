"""Pauli commutation graphs and the graph searches run on them.

Vertices are the 4^n - 1 nonidentity Pauli tensor operators modulo phase,
ordered by their symplectic label (X-part then Z-part, leftmost wire most
significant); two vertices are joined iff representatives commute, which
is independent of the chosen phases.

The searches are the maximum independent set, the maximal cliques (the
lines of the two-qubit quadrangle), automorphism counts and the Petersen
test; the claims ``Evaluator`` memoises them and builds the MUB prefix
groups, and only the ledger states their expected values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from gategroups.config import limit
from gategroups.errors import BudgetExceededError
from gategroups.gates import catalog
from gategroups.matrix import kron

__all__ = [
    "PauliGraph",
    "pauli_graph",
    "maximum_independent_set",
    "maximal_cliques",
    "complement_is_petersen",
    "graph_automorphism_count",
    "graphs_isomorphic",
    "petersen_graph",
    "write_dot",
]


@dataclass
class PauliGraph:
    n: int
    labels: list  # operator names over {I, X, Y, Z}^n
    representatives: list  # canonical phase-class representative matrices
    neighbors: list = field(repr=False)  # adjacency as sets of vertex ids

    @property
    def vertex_count(self):
        return len(self.labels)

    def degree_sequence(self):
        return [len(nb) for nb in self.neighbors]

    def edges(self):
        return [
            (a, b)
            for a in range(len(self.neighbors))
            for b in self.neighbors[a]
            if a < b
        ]


_CHARS = "IXYZ"


def _label_bits(label):
    """Symplectic label of an operator name: (x bits, z bits) as integers."""
    x = z = 0
    for ch in label:
        x = (x << 1) | (ch in "XY")
        z = (z << 1) | (ch in "ZY")
    return x, z


def _label_matrix(label):
    c = catalog()
    ops = {"I": c.sigma0, "X": c.sigma_x, "Y": c.sigma_y, "Z": c.sigma_z}
    m = None
    for ch in label:
        m = ops[ch] if m is None else kron(m, ops[ch])
    return m


_GRAPHS = {}


def pauli_graph(n):
    if not 1 <= n <= 3:
        raise ValueError("pauli_graph supports 1..3 qubits")
    if n in _GRAPHS:
        return _GRAPHS[n]
    labels = []
    for code in range(4**n):
        label = "".join(_CHARS[(code >> (2 * (n - 1 - w))) & 3] for w in range(n))
        if set(label) != {"I"}:
            labels.append(label)
    labels.sort(key=_label_bits)
    # The plain tensor products are the Hermitian lifts with phase +1: they
    # square to the identity, which pins the extraspecial type of the chain
    # groups of the independent set (the +-i lifts square to -1 and
    # generate the other type, whose automorphism group is smaller).
    reps = [_label_matrix(lb) for lb in labels]
    bits = [_label_bits(lb) for lb in labels]
    neighbors = [set() for _ in labels]
    for a, (xa, za) in enumerate(bits):
        for b in range(a + 1, len(labels)):
            xb, zb = bits[b]
            # operators commute iff their symplectic form vanishes
            if not bin((xa & zb) ^ (xb & za)).count("1") % 2:
                neighbors[a].add(b)
                neighbors[b].add(a)
    graph = PauliGraph(n, labels, reps, neighbors)
    _GRAPHS[n] = graph
    return graph


# -- exact maximum independent set ----------------------------------------


def _clique_cover_bound(cands, neighbors):
    """Greedy clique partition of the candidates; each clique holds <= 1 pick."""
    remaining = list(cands)
    bound = 0
    taken = set()
    for v in remaining:
        if v in taken:
            continue
        bound += 1
        clique = [v]
        taken.add(v)
        for u in remaining:
            if u in taken:
                continue
            if all(u in neighbors[c] for c in clique):
                clique.append(u)
                taken.add(u)
    return bound


def _best_set(cands, neighbors, chosen, best):
    """The largest independent set extending ``chosen`` within ``cands``
    if it beats ``best``, else ``best``.  Including a vertex is tried
    before excluding it, so among sets of one size the lexicographically
    least is found first, and a later one replaces it only when larger."""
    if not cands:
        return chosen if len(chosen) > len(best) else best
    if len(chosen) + _clique_cover_bound(cands, neighbors) <= len(best):
        return best
    v = cands[0]
    rest = [u for u in cands[1:] if u not in neighbors[v]]
    best = _best_set(rest, neighbors, chosen + [v], best)
    return _best_set(cands[1:], neighbors, chosen, best)


def maximum_independent_set(neighbors):
    """The lexicographically least maximum independent set of a graph.

    ``neighbors`` is a list of adjacency sets; vertices are 0..n-1 in
    their canonical order, which pins the returned set deterministically.
    """
    return _best_set(list(range(len(neighbors))), neighbors, [], [])


# -- graph isomorphism / automorphisms -------------------------------------


def _graph_maps(nb1, nb2, count_all):
    """Backtracking embeddings of graph 1 onto graph 2 (same size, bijective).

    Raises BudgetExceededError after ``SEARCH_NODE_BUDGET`` nodes.
    """
    n = len(nb1)
    if len(nb2) != n:
        return 0
    deg1 = [len(s) for s in nb1]
    deg2 = [len(s) for s in nb2]
    if sorted(deg1) != sorted(deg2):
        return 0
    img = [-1] * n
    used = [False] * n
    found = nodes = 0
    budget = limit("SEARCH_NODE_BUDGET")

    def backtrack(v):
        nonlocal found, nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"backtracking search exceeded {budget} nodes")
        if v == n:
            found += 1
            return not count_all
        for w in range(n):
            if used[w] or deg1[v] != deg2[w]:
                continue
            ok = True
            for u in range(v):
                if (u in nb1[v]) != (img[u] in nb2[w]):
                    ok = False
                    break
            if ok:
                img[v] = w
                used[w] = True
                if backtrack(v + 1):
                    return True
                used[w] = False
                img[v] = -1
        return False

    backtrack(0)
    return found


def graphs_isomorphic(nb1, nb2):
    return _graph_maps([set(s) for s in nb1], [set(s) for s in nb2], False) > 0


def graph_automorphism_count(neighbors):
    nb = [set(s) for s in neighbors]
    return _graph_maps(nb, nb, True)


def petersen_graph():
    """Petersen graph as the Kneser graph K(5,2): disjoint pairs are adjacent."""
    from itertools import combinations

    pairs = list(combinations(range(5), 2))
    return [
        {j for j, q in enumerate(pairs) if not set(p) & set(q)} for p in pairs
    ]


# -- the two-qubit quadrangle -------------------------------------------------


def maximal_cliques(neighbors):
    """Bron-Kerbosch, deterministic order."""
    n = len(neighbors)
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(sorted(r))
            return
        for v in sorted(p):
            expand(r | {v}, p & neighbors[v], x & neighbors[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(n)), set())
    return out


def complement_is_petersen(neighbors, independent):
    """Whether the graph induced off the vertex set ``independent`` is the Petersen graph."""
    rest = [v for v in range(len(neighbors)) if v not in independent]
    pos = {v: i for i, v in enumerate(rest)}
    induced = [{pos[u] for u in neighbors[v] if u in pos} for v in rest]
    return graphs_isomorphic(induced, petersen_graph())


def write_dot(graph, path):
    """DOT export with operator labels."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"graph pauli{graph.n} {{\n")
        for label in graph.labels:
            fh.write(f'  "{label}";\n')
        for a, b in graph.edges():
            fh.write(f'  "{graph.labels[a]}" -- "{graph.labels[b]}";\n')
        fh.write("}\n")
