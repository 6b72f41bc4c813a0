"""Defining graphs: parsing, validation, and clique statistics.

A graph product assigns a group to every vertex of a finite simple graph;
adjacent vertex groups commute elementwise.  Everything downstream depends
on the graph only through three numbers: the vertex count, the maximum
clique size, and the largest closed 1-neighbourhood of a clique.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

MAX_VERTICES = 10**7
"""The most vertices a graph built from a vertex count may have: the
families and plain-text edge lists.  A larger count raises ``ValueError``
before anything is allocated, where building it would exhaust memory.
Graphs near the limit still need several GB."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with labelled vertices.

    ``neighbors[i]`` holds the vertices adjacent to ``i``: the sets are
    symmetric, hold no self-loops and index only ``0 .. D-1``.  They are
    the graph's one representation; ``edges`` and ``nonneighbors`` derive
    from them.  :func:`make_graph` and :func:`parse_graph` validate outside
    input, and the family constructors (:func:`cycle_graph`,
    :func:`complete_graph`, :func:`edgeless_graph`) build valid sets
    directly.  Build instances through one of them.
    """

    labels: tuple[str, ...]
    neighbors: tuple[frozenset[int], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Each edge once as ``(i, j)`` with ``i < j``, sorted."""
        return tuple(
            (i, j) for i, nbrs in enumerate(self.neighbors) for j in sorted(nbrs) if i < j
        )

    @cached_property
    def nonneighbors(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex: the other vertices it does not commute past.

        Lazy because it is quadratic in the vertex count; only ``Piling``
        operations need it.  The walk kernel, strong choices and pivot
        replacement, word parsing and clique statistics read ``neighbors``
        instead.  Every row draws its indices from one tuple, so the rows
        share int objects instead of each holding its own copies of those
        above 256.
        """
        indices = tuple(range(self.vertex_count))
        return tuple(
            tuple(j for j in indices if j != i and j not in nbrs)
            for i, nbrs in enumerate(self.neighbors)
        )

    def adjacent(self, i: int, j: int) -> bool:
        return j in self.neighbors[i]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        edge_count = sum(map(len, self.neighbors)) // 2
        return f"Graph({self.vertex_count} vertices, {edge_count} edges)"


@dataclass(frozen=True)
class GraphStats:
    """The constants controlling the drift bound, all computed exactly."""

    vertex_count: int
    max_clique: int
    max_neighbourhood: int

    @property
    def small_cliques(self) -> bool:
        """The small-cliques condition ``D > 3B + 2C``."""
        return self.vertex_count > 3 * self.max_neighbourhood + 2 * self.max_clique


def make_graph(labels: Iterable[str], edges: Iterable) -> Graph:
    """Validate a vertex/edge description and build its neighbour sets.

    Duplicate edges are dropped with a warning; repeated labels, self-loops
    and out-of-range indices raise ``ValueError``.
    """
    labels = tuple(str(x) for x in labels)
    if not labels:
        raise ValueError("graph needs at least one vertex")
    d = len(labels)
    if len(set(labels)) != d:
        raise ValueError("vertex labels must be distinct")
    adj: list[set[int]] = [set() for _ in labels]
    for e in edges:
        try:
            i, j = e
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed edge {e!r}: expected a pair of vertex indices") from exc
        if type(i) is not int or type(j) is not int:  # bools are rejected too
            raise ValueError(f"malformed edge {e!r}: vertex indices must be integers")
        if not (0 <= i < d and 0 <= j < d):
            raise ValueError(f"edge {(i, j)} references a vertex outside 0..{d - 1}")
        if i == j:
            raise ValueError(f"self-loop at vertex {i} is not allowed")
        if j in adj[i]:
            warnings.warn(f"duplicate edge {(min(i, j), max(i, j))} ignored", stacklevel=2)
            continue
        adj[i].add(j)
        adj[j].add(i)
    return Graph(labels, tuple(map(frozenset, adj)))


def parse_graph(text: str) -> Graph:
    """Parse a graph file.

    Two formats are accepted:

    * JSON: ``{"vertices": ["a", "b", ...], "edges": [[0, 1], ...]}`` where
      edge entries index into the vertices array.
    * Plain text: one ``i j`` pair per line (``#`` comments and blank lines
      ignored); the vertex count is inferred as ``max index + 1``, at most
      :data:`MAX_VERTICES`, and vertices are labelled ``v0, v1, ...``.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
            raise ValueError(f"invalid graph JSON: {exc}") from exc
        if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
            raise ValueError('graph JSON must be an object with "vertices" and "edges"')
        vertices, edges = doc["vertices"], doc["edges"]
        if not (isinstance(vertices, list) and vertices and all(isinstance(x, str) for x in vertices)):
            raise ValueError('"vertices" must be a non-empty list of string labels')
        if not isinstance(edges, list):
            raise ValueError('"edges" must be a list of vertex index pairs')
        return make_graph(vertices, edges)

    edges = []
    top = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected two vertex indices, got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: expected integers, got {line!r}") from exc
        if i < 0 or j < 0:
            raise ValueError(f"line {lineno}: vertex indices must be non-negative")
        top = max(top, i, j)
        edges.append((i, j))
    if top < 0:
        raise ValueError("empty edge list; use the JSON form for edgeless graphs")
    return make_graph(_labels(top + 1), edges)


def _check_vertex_count(d: int) -> None:
    if d > MAX_VERTICES:
        raise ValueError(f"a graph of {d} vertices is too large; the limit is {MAX_VERTICES}")


def _labels(d: int) -> tuple[str, ...]:
    """``v0 .. v{d-1}``; raises ``ValueError`` if ``d < 1`` or past :data:`MAX_VERTICES`."""
    if d < 1:
        raise ValueError("graph needs at least one vertex")
    _check_vertex_count(d)
    return tuple([f"v{i}" for i in range(d)])


def cycle_stats(d: int) -> GraphStats:
    """``graph_stats(cycle_graph(d))`` in closed form, building nothing:
    ``(B, C) = (3, 3)`` for the triangle, one clique of every vertex, and
    ``(4, 2)`` for longer cycles, whose maximal cliques are the edges
    ``{u, v}``, with ``N(u)`` and ``N(v)`` two disjoint pairs.  A length
    below 3 or past :data:`MAX_VERTICES` raises ``ValueError``."""
    if d < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    _check_vertex_count(d)
    b, c = (3, 3) if d == 3 else (4, 2)
    return GraphStats(d, c, b)


def cycle_graph(d: int) -> Graph:
    """The cycle on ``d >= 3`` vertices ``v0 .. v{d-1}``, ``vi`` adjacent to
    ``v(i+1 mod d)``.  Its neighbour sets are cut from one tuple of ints."""
    cycle_stats(d)  # checks d before anything is allocated
    ints = tuple(range(d))
    return Graph(_labels(d), (
        frozenset((1, ints[-1])),
        *map(frozenset, zip(ints, ints[2:])),  # the neighbours of i + 1
        frozenset((0, ints[-2])),
    ))


def edgeless_graph(d: int) -> Graph:
    return Graph(_labels(d), (frozenset(),) * d)


def complete_graph(d: int) -> Graph:
    labels = _labels(d)  # checks d before the sets are built
    everyone = frozenset(range(d))
    return Graph(labels, tuple([everyone - {i} for i in range(d)]))


def _cliques(neighbors, vertices: Iterable[int]) -> Iterator[frozenset[int]]:
    """Pivoted Bron-Kerbosch on ``vertices`` with neighbour sets ``neighbors``.

    Branches wait on an explicit stack, so a clique may have more vertices
    than the recursion limit allows frames.  A branch leaves the stack when
    its last child starts, since nothing of it is read again: the chain of
    single-child branches of a large complete graph holds one frame, not
    one per clique vertex.  The pivot is the first candidate with the most
    candidate neighbours; the scan stops at a candidate adjacent to all the
    others, which no candidate can beat.
    """
    stack = []
    clique, candidates, excluded = frozenset(), set(vertices), set()
    while True:
        if candidates:
            best, pivot, covers_all = -1, None, len(candidates) - 1
            for u in candidates:
                k = len(candidates & neighbors[u])
                if k > best:
                    best, pivot = k, u
                    if k == covers_all:
                        break
            todo = list(candidates - neighbors[pivot])
            todo.reverse()  # pop() then takes the branches in set order
            stack.append((clique, candidates, excluded, todo))
        elif not excluded:
            yield clique
        if not stack:
            return
        parent, p, x, todo = stack[-1]
        v = todo.pop()
        nv = neighbors[v]
        clique, candidates, excluded = parent | {v}, p & nv, x & nv
        if todo:
            p.discard(v)
            x.add(v)
        else:
            stack.pop()


def maximal_cliques(g: Graph) -> Iterator[frozenset[int]]:
    """Bron-Kerbosch enumeration of maximal cliques, with pivoting."""
    return _cliques(g.neighbors, range(g.vertex_count))


def graph_stats(g: Graph) -> GraphStats:
    """D, the maximum clique size C, and B, the largest closed
    1-neighbourhood over all (nonempty) cliques.

    Both maps are monotone under clique inclusion, so maximal cliques
    suffice, and besides isolated vertices (C = B = 1) they come in two
    kinds.  An edge ``{u, v}`` whose ends share no neighbour is a maximal
    2-clique with ``|N[K]| = deg u + deg v``.  Every other edge lies in a
    triangle; let T be the vertices of such edges.  The maximal cliques of
    3 or more vertices are exactly those of the subgraph induced on T: a
    vertex extending one lies on triangle edges itself.  The other maximal
    cliques of that subgraph are edges whose ends share no neighbour, which
    give the same ``deg u + deg v``.  So Bron-Kerbosch runs on T alone.
    """
    neighbors = g.neighbors
    c = b = 1
    t: set[int] = set()
    for u, nu in enumerate(neighbors):
        for v in nu:
            if u < v:  # each edge once
                nv = neighbors[v]
                if nu.isdisjoint(nv):
                    c = 2
                    if len(nu) + len(nv) > b:
                        b = len(nu) + len(nv)
                else:
                    t.add(u)
                    t.add(v)
    for clique in _cliques(neighbors, t) if t else ():
        c = max(c, len(clique))
        b = max(b, len(clique.union(*(neighbors[v] for v in clique))))
    return GraphStats(g.vertex_count, c, b)
