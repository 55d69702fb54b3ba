"""Embedding graphs into hypercube graphs.

The graphs and `bfs_forest`, the one graph traversal, live in `graph`;
the bipartition, the labelling check and the embedding search here read
that traversal.  Of the commands, only `embed` loads this module.

A labelling of the edges by coordinates {1..n} certifies an embedding
when every cycle uses each label an even number of times and every path
uses some label an odd number of times.  Both conditions reduce to XOR
codes along a spanning tree: fundamental cycles must close with even
parity, and vertex codes must be pairwise distinct.

Deciding embeddability is NP-complete, so `find_graph_embedding`
backtracks, but only after `embedding_obstruction` has tried four
necessary conditions, each O(V·Δ²) at most: bipartiteness, degree at
most n, at most 2^n vertices, and no two vertices with three common
neighbours.  Most graphs that do not embed fail one of them, and the
failed one says why.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, count, takewhile

from .errors import ContractError, ContradictionError, StructuralError, _Record
from .graph import SimpleGraph, _normalize_edge, bfs_forest
from .words import _number

__all__ = [
    "HypercubeEmbedding",
    "bipartition_or_odd_cycle",
    "verify_labelling",
    "embedding_obstruction",
    "find_graph_embedding",
    "labelling_from_embedding",
]


class HypercubeEmbedding(_Record):
    """Injective map into {0,1}^n; codes[i] is the image of vertex i as a bit mask."""

    _fields = ("n", "codes")

    def __init__(self, n: int, codes: tuple[int, ...]):
        if n < 0:
            raise StructuralError("hypercube dimension must be nonnegative")
        for c in codes:
            if not 0 <= c < (1 << n):
                raise StructuralError(f"code {c} outside {{0,1}}^{n}")
        if len(set(codes)) != len(codes):
            raise StructuralError("embedding is not injective")
        self.__dict__.update(n=n, codes=codes)

    def is_valid_for(self, g: SimpleGraph) -> bool:
        if len(self.codes) != g.num_vertices:
            return False
        return all((self.codes[u] ^ self.codes[v]).bit_count() == 1 for u, v in g.edges)


def bipartition_or_odd_cycle(g: SimpleGraph):
    """Return (colors, None) for bipartite g, else (None, odd cycle vertex list)."""
    adj = g.adjacency()
    order, parent = bfs_forest(adj)
    color = [0] * g.num_vertices
    for v in order:
        color[v] = 0 if parent[v] < 0 else color[parent[v]] ^ 1
    for u in order:
        for v in adj[u]:
            if color[v] == color[u]:
                return None, _close_cycle(u, v, parent)
    return color, None


def _close_cycle(u: int, v: int, parent: list[int]) -> list[int]:
    # an edge joins equal colours only at equal depth, so both tree paths
    # reach the common ancestor after the same number of steps
    up, down = [u], [v]
    while u != v:
        u, v = parent[u], parent[v]
        up.append(u)
        down.append(v)
    return up + down[-2::-1]


def verify_labelling(g: SimpleGraph, labels: dict[tuple[int, int], int]) -> bool:
    """Check the two parity conditions for an edge labelling.

    Labels are positive coordinate indices.  XOR codes are propagated
    from vertex 0 along a BFS tree; every non-tree edge must close its
    fundamental cycle evenly, and codes must be pairwise distinct.
    Fundamental cycles span the cycle space and path parities equal code
    differences, so this decides both conditions exactly.
    """
    order, parent = bfs_forest(g.adjacency())
    if parent.count(-1) > 1:
        raise StructuralError("labelling verification needs a connected graph")
    for e in g.edges:
        if e not in labels:
            raise StructuralError(f"edge {e} has no label")
        if labels[e] < 1:
            raise StructuralError(f"edge {e} has non-positive label {labels[e]}")
    code = [0] * g.num_vertices
    for v in order[1:]:
        u = parent[v]
        code[v] = code[u] ^ (1 << (labels[_normalize_edge(u, v)] - 1))
    # tree edges hold by construction; the others close fundamental cycles
    closed = all(code[u] ^ code[v] == 1 << (labels[(u, v)] - 1) for u, v in g.edges)
    return closed and len(set(code)) == g.num_vertices


def embedding_obstruction(g: SimpleGraph, n_max: int) -> tuple[str, tuple[int, ...]] | None:
    """The first necessary condition for embedding into some I^n, n <= n_max, that g fails.

    Returns (reason, witness), or None when g passes all four checks:

    - "odd-cycle": g is not bipartite; the witness is an odd cycle;
    - "degree": some vertex has more than n_max neighbours;
    - "size": g has more than 2^n_max vertices;
    - "k23": vertices u < v share three neighbours a < b < c.  Two
      vertices of a hypercube share 0 or 2 neighbours, so this K_{2,3}
      rules out every n.  (u, v) is the smallest such pair and a, b, c
      are its smallest common neighbours; the witness is (u, v, a, b, c).
    """
    _, odd = bipartition_or_odd_cycle(g)
    if odd is not None:
        return "odd-cycle", tuple(odd)
    adj = g.adjacency()
    if max((len(a) for a in adj), default=0) > n_max:
        return "degree", ()
    # |V| > 2^n_max, tested without building 2^n_max
    if g.num_vertices > 1 and (g.num_vertices - 1).bit_length() > n_max:
        return "size", ()
    for u, near in enumerate(adj):
        if len(near) < 3:  # u shares three neighbours with no vertex
            continue
        # walks u - w - v count the neighbours u and v share
        shared = Counter(chain.from_iterable(adj[w] for w in near))
        over = [v for v, k in shared.items() if k >= 3 and v > u]
        if over:
            v = min(over)
            return "k23", (u, v, *sorted(set(near).intersection(adj[v]))[:3])
    return None


def find_graph_embedding(g: SimpleGraph, n_max: int) -> HypercubeEmbedding | None:
    """Search for an embedding into some I^n with n <= n_max.

    Four checks run first, in `embedding_obstruction`: g must be
    bipartite, have degree at most n_max, have at most 2^n_max vertices
    and have no two vertices with three common neighbours.  A graph that
    fails one gets None at once.  Backtracking then assigns vertices in
    BFS order.  Symmetry is broken by sending the first vertex to the
    all-zeros code and introducing fresh coordinates in increasing
    order, which loses no embeddings because cube symmetries can always
    relabel an embedding into this shape.  None is therefore a
    certificate for every n up to n_max, and for all n at once when the
    obstruction is "odd-cycle" or "k23".  A graph with several
    components is first searched one component at a time, so a component
    that cannot embed is refuted without placing the others.
    """
    if n_max < 0:
        raise ContractError(f"n_max >= 0 required, got {_number(n_max)}")
    if g.num_vertices == 0:
        return HypercubeEmbedding(0, ())
    if embedding_obstruction(g, n_max) is not None:
        return None
    adj = g.adjacency()

    order, parent = bfs_forest(adj)
    starts = [i for i, v in enumerate(order) if parent[v] < 0]
    if len(starts) > 1:
        # a graph embeds only if every component does; refuting one alone
        # spares trying every code at the roots of the others, and a lone
        # vertex always embeds
        for lo, hi in zip(starts, starts[1:] + [len(order)]):
            if hi - lo > 1 and _search(order[lo:hi], adj, n_max) is None:
                return None
    found = _search(order, adj, n_max)
    return None if found is None else HypercubeEmbedding(found[0], tuple(map(found[1].__getitem__, range(len(adj)))))


def _search(order: list[int], adj: list[list[int]], n_max: int) -> tuple[int, dict[int, int]] | None:
    """Backtrack codes for the vertices in `order`, each after a neighbour unless it starts a component.

    order must hold every neighbour of its vertices.  Returns the width
    used and a dict from each vertex of order to its code, or None.
    """
    pos = {v: i for i, v in enumerate(order)}
    earlier = [[u for u in adj[v] if pos[u] < i] for i, v in enumerate(order)]
    code: dict[int, int] = {}
    used_codes: set[int] = set()

    def candidates(i: int, used_coords: int, floor: int):
        if not earlier[i]:
            # roots of later components float freely over the free codes
            # below 2^n_max, counted from the floor without building
            # 2^n_max itself
            return iter([0]) if i == 0 else takewhile(lambda x: x.bit_length() <= n_max, count(floor))
        base = code[earlier[i][0]]
        return (base ^ (1 << b) for b in range(min(used_coords + 1, n_max)))

    # one frame per level placed so far: its candidate iterator, the
    # coordinates used before it and its floor, below which every code is
    # held by the vertices placed before it; a loop, not recursion, since
    # a long path would otherwise exceed the interpreter's recursion limit
    stack = [(candidates(0, 0, 0), 0, 0)]
    while stack:
        i = len(stack) - 1
        v = order[i]
        cands, used_coords, floor = stack[-1]
        used_codes.discard(code.pop(v, -1))
        for cand in cands:
            if cand in used_codes:
                continue
            if any((cand ^ code[u]).bit_count() != 1 for u in earlier[i]):
                continue
            code[v] = cand
            used_codes.add(cand)
            grown = max(used_coords, cand.bit_length())
            if i + 1 == len(order):
                return grown, code
            if not earlier[i + 1]:
                while floor in used_codes:
                    floor += 1
            stack.append((candidates(i + 1, grown, floor), grown, floor))
            break
        else:
            stack.pop()
    return None


def labelling_from_embedding(emb: HypercubeEmbedding, g: SimpleGraph) -> dict[tuple[int, int], int]:
    """Label every edge with the coordinate its endpoints differ in (1-based)."""
    if len(emb.codes) != g.num_vertices:
        raise ContradictionError("embedding and graph disagree on the vertex count")
    out: dict[tuple[int, int], int] = {}
    for e in g.edges:
        u, v = e
        x = emb.codes[u] ^ emb.codes[v]
        if x.bit_count() != 1:
            raise ContradictionError(f"edge {e} maps to codes differing in {x.bit_count()} coordinates")
        out[e] = x.bit_length()
    return out
