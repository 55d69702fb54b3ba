"""Simple graphs, the one graph traversal and the 1-skeleton of a complex.

`bfs_forest` is the one graph traversal: a breadth-first forest with
roots in index order.  Connectivity, the connected `components` of a
complex (through its 1-skeleton, `graph_of`) and, in `embedding`, the
bipartition, the labelling check and the embedding search all read it.

This module is apart from the embedding search so that the complex
commands, which read `components` alone, do not load the search.
"""

from __future__ import annotations

# `complex` loads in `components` alone; annotations naming CubicalComplex are never evaluated
from .errors import StructuralError, _Record
from .words import ONE, STAR, ZERO, sort_words, word_dim

__all__ = ["SimpleGraph", "graph_of", "components", "bfs_forest"]


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class SimpleGraph(_Record):
    _fields = ("num_vertices", "edges")

    def __init__(self, num_vertices: int, edges: frozenset[tuple[int, int]]):
        if num_vertices < 0:
            raise StructuralError("vertex count must be nonnegative")
        edges = frozenset(edges)
        for e in edges:
            u, v = e
            if u == v:
                raise StructuralError(f"loop at vertex {u}")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise StructuralError(f"edge {e} out of range")
            if u > v:
                raise StructuralError(f"edge {e} not normalized (expected min first)")
        self.__dict__.update(num_vertices=num_vertices, edges=edges)

    @classmethod
    def from_edges(cls, num_vertices: int, pairs) -> "SimpleGraph":
        return cls(num_vertices, frozenset(_normalize_edge(u, v) for u, v in pairs))

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for u, v in sorted(self.edges):
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def is_connected(self) -> bool:
        _, parent = bfs_forest(self.adjacency())
        return parent.count(-1) <= 1


def graph_of(c: CubicalComplex) -> SimpleGraph:
    """The 1-skeleton as a graph; vertices are numbered in canonical word order.

    An edge's two ends are its two corners, its star set to 0 and to 1,
    which are vertices of c once it has passed `validate`.
    """
    c.validate()
    verts = sort_words(c.vertices())
    index = {v: i for i, v in enumerate(verts)}
    edges = set()
    for w in c.faces:
        if word_dim(w) == 1:
            edges.add(_normalize_edge(index[w.replace(STAR, ZERO)], index[w.replace(STAR, ONE)]))
    return SimpleGraph(len(verts), frozenset(edges))


def components(c: CubicalComplex) -> list[CubicalComplex]:
    """Connected components, ordered by their smallest vertex; each face goes with its low corner."""
    from .complex import _derived

    index = {v: i for i, v in enumerate(sort_words(c.vertices()))}
    order, parent = bfs_forest(graph_of(c).adjacency())
    root = [-1] * len(order)
    for v in order:
        root[v] = v if parent[v] < 0 else root[parent[v]]
    buckets: list[set[str]] = [set() for _ in order]
    for w in c.faces:
        buckets[root[index[w.replace(STAR, ZERO)]]].add(w)
    parts = [b for b in buckets if b]
    # graph_of has validated c, so each part is closed; a connected c is its own, its faces not copied
    return [c] if len(parts) == 1 else [_derived(c.ambient_dim, frozenset(b), closed=True) for b in parts]


def bfs_forest(adj: list[list[int]]) -> tuple[list[int], list[int]]:
    """Breadth-first order of all vertices, roots taken in index order.

    parent[v] is the vertex that discovered v, -1 at a root; a root is
    the smallest vertex of its component.
    """
    order: list[int] = []
    parent = [-1] * len(adj)
    seen = [False] * len(adj)
    for root in range(len(adj)):
        if seen[root]:
            continue
        seen[root] = True
        head = len(order)
        order.append(root)
        while head < len(order):
            u = order[head]
            head += 1
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    order.append(v)
    return order, parent
