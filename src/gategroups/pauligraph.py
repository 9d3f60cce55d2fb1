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
    if not 1 <= n <= 4:
        raise ValueError("pauli_graph supports 1..4 qubits")
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


def _first_map(nb1, nb2, prefix, nodes):
    """The first bijection of graph 1 onto graph 2 that keeps degrees, edges
    and non-edges and maps each vertex i < len(prefix) to prefix[i], or None.
    A prefix image is the only candidate of its vertex, so a returned map was
    checked on every pair.  Each candidate tried counts in ``nodes[0]``
    against ``SEARCH_NODE_BUDGET``, so the budget bounds the work."""
    n, img, used = len(nb1), [-1] * len(nb1), [False] * len(nb1)
    budget = limit("SEARCH_NODE_BUDGET")

    def place(v):
        if v == n:
            return True
        for w in prefix[v : v + 1] or range(n):
            nodes[0] += 1
            if nodes[0] > budget:
                raise BudgetExceededError(f"backtracking search exceeded {budget} nodes")
            if used[w] or len(nb1[v]) != len(nb2[w]) or any(
                (u in nb1[v]) != (img[u] in nb2[w]) for u in range(v)
            ):
                continue
            img[v], used[w] = w, True
            if place(v + 1):
                return True
            used[w] = False
        return False

    return img if len(nb2) == n and place(0) else None


def graphs_isomorphic(nb1, nb2):
    nb1, nb2 = [set(s) for s in nb1], [set(s) for s in nb2]
    same_degrees = sorted(map(len, nb1)) == sorted(map(len, nb2))
    return same_degrees and _first_map(nb1, nb2, [], [0]) is not None


def graph_automorphism_count(neighbors):
    """|Aut| as the product of the orbit lengths along the base 0, 1, ..., n-1,
    walked from its end, so that every map found so far fixes 0..k-1 at base
    point k.  A vertex w > k outside the orbit of k is searched as its image
    with 0..k-1 fixed: a map found grows the orbit, else the search refutes w."""
    from gategroups.perm import _bfs

    nb = [set(s) for s in neighbors]
    n, nodes, maps, count = len(nb), [0], [], 1
    for k in reversed(range(n)):
        orbit = _bfs([k], maps, n)[0]
        for w in range(k + 1, n):
            if w not in orbit and (g := _first_map(nb, nb, [*range(k), w], nodes)):
                maps.append(g)
                orbit = _bfs([k], maps, n)[0]
        count *= len(orbit)
    return count


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
