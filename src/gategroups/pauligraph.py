"""Pauli commutation graphs and the graph searches run on them.

The n-qubit graph is the symplectic polar space W(2n - 1, 2), built from
the codes of its vertices alone: the nonidentity Pauli operators modulo
phase, each named by its symplectic code x * 2^n + z (X-part then Z-part,
leftmost wire most significant), are joined iff the symplectic form of
their codes vanishes, that is iff they commute.  No operator matrix is
built.

The searches are the maximum independent set, the maximal cliques (the
lines of the two-qubit quadrangle), automorphism counts and the Petersen
test; the claims ``Evaluator`` memoises them and builds the MUB prefix
groups, and only the ledger states their expected values.
"""

from __future__ import annotations

from gategroups.config import limit
from gategroups.errors import BudgetExceededError

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


class PauliGraph:
    def __init__(self, n, labels, neighbors):
        self.n = n
        self.labels = labels  # operator names over {I, X, Y, Z}^n
        self.neighbors = neighbors  # adjacency as sets of vertex ids

    @property
    def vertex_count(self):
        return len(self.labels)

    def degree_sequence(self):
        return [len(nb) for nb in self.neighbors]


def pauli_graph(n):
    """The n-qubit commutation graph.  Vertex v - 1 is the operator of code
    v = x * 2^n + z for v = 1 .. 4^n - 1, named one letter per wire by
    ``"IZXY"[2 * xbit + zbit]``."""
    if not 1 <= n <= 3:
        raise ValueError("pauli_graph supports 1..3 qubits")
    codes = [(v >> n, v & ((1 << n) - 1)) for v in range(1, 4**n)]
    labels = [
        "".join("IZXY"[2 * (x >> w & 1) + (z >> w & 1)] for w in reversed(range(n)))
        for x, z in codes
    ]
    neighbors = [set() for _ in codes]
    for a, (xa, za) in enumerate(codes):
        for b in range(a + 1, len(codes)):
            xb, zb = codes[b]
            # operators commute iff their symplectic form vanishes
            if not bin((xa & zb) ^ (xb & za)).count("1") % 2:
                neighbors[a].add(b)
                neighbors[b].add(a)
    return PauliGraph(n, labels, neighbors)


# -- exact maximum independent set ----------------------------------------
# Branch and bound on int bit masks: bit v of a vertex set stands for
# vertex v, and nbm[v] is the mask of v's neighbours.


def _clique_cover_bound(cands, nbm):
    """Greedy clique partition of the candidate mask, each clique grown in
    ascending vertex order; each clique holds <= 1 pick."""
    bound = 0
    while cands:
        bound += 1
        low = cands & -cands
        cands ^= low
        common = cands & nbm[low.bit_length() - 1]  # joined to the whole clique
        while common:
            low = common & -common
            cands ^= low
            common &= nbm[low.bit_length() - 1]
    return bound


def _best_set(cands, nbm, chosen, best):
    """The largest independent set extending ``chosen`` within the mask
    ``cands`` if it beats ``best``, else ``best``.  Including the least
    candidate is tried before excluding it, so among sets of one size the
    lexicographically least is found first, and a later one replaces it
    only when larger."""
    if not cands:
        return chosen if len(chosen) > len(best) else best
    if len(chosen) + _clique_cover_bound(cands, nbm) <= len(best):
        return best
    low = cands & -cands
    v = low.bit_length() - 1
    best = _best_set(cands & ~low & ~nbm[v], nbm, chosen + [v], best)
    return _best_set(cands ^ low, nbm, chosen, best)


def maximum_independent_set(neighbors):
    """The lexicographically least maximum independent set of a graph.

    ``neighbors`` is a list of adjacency sets; vertices are 0..n-1 in
    their canonical order, which pins the returned set deterministically.
    The search runs on bit masks of the vertex sets.
    """
    nbm = [sum(1 << u for u in nb) for nb in neighbors]
    return _best_set((1 << len(neighbors)) - 1, nbm, [], [])


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
        for a, nb in enumerate(graph.neighbors):
            for b in nb:
                if a < b:
                    fh.write(f'  "{graph.labels[a]}" -- "{graph.labels[b]}";\n')
        fh.write("}\n")
