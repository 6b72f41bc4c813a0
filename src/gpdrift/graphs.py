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

    ``edges`` is normalized: each pair stored once as ``(i, j)`` with
    ``i < j``, sorted, with no self-loops and every index in range.  The
    family constructors (:func:`cycle_graph`, :func:`complete_graph`,
    :func:`edgeless_graph`) produce normalized edges by construction;
    :func:`make_graph` and :func:`parse_graph` validate and normalize
    outside input.  Build instances through one of them.
    """

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @cached_property
    def neighbors(self) -> tuple[frozenset[int], ...]:
        """Per vertex: its adjacent vertices.

        Built in one pass over ``edges``, appending both ends to per-vertex
        lists that are frozen at the end; normalized edges hold no
        duplicates, so the lists need no set semantics while they grow.
        The cycle constructors (:func:`cycle_graphs`, :func:`cycle_graph`)
        supply these sets themselves and skip the pass.
        """
        adj: list[list[int]] = [[] for _ in self.labels]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return tuple(map(frozenset, adj))

    @cached_property
    def nonneighbors(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex: the other vertices it does not commute past.

        Lazy because it is quadratic in the vertex count; only ``Piling``
        operations need it.  The walk kernel, strong choices and pivot
        replacement, word parsing and clique statistics read ``neighbors``
        instead.  Every row
        draws its indices from one tuple, so the rows share int objects
        instead of each holding its own copies of those above 256.
        """
        indices = tuple(range(self.vertex_count))
        return tuple(
            tuple(j for j in indices if j != i and j not in nbrs)
            for i, nbrs in enumerate(self.neighbors)
        )

    def adjacent(self, i: int, j: int) -> bool:
        return j in self.neighbors[i]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Graph({self.vertex_count} vertices, {len(self.edges)} edges)"


@dataclass(frozen=True)
class GraphStats:
    """The constants controlling the drift bound, all computed exactly."""

    vertex_count: int
    max_clique: int
    max_neighbourhood: int
    small_cliques: bool


def make_graph(labels: Iterable[str], edges: Iterable) -> Graph:
    """Validate and normalize a vertex/edge description.

    Duplicate edges are dropped with a warning; repeated labels, self-loops
    and out-of-range indices raise ``ValueError``.
    """
    labels = tuple(str(x) for x in labels)
    if not labels:
        raise ValueError("graph needs at least one vertex")
    d = len(labels)
    if len(set(labels)) != d:
        raise ValueError("vertex labels must be distinct")
    seen: set[tuple[int, int]] = set()
    normalized = []
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
        key = (i, j) if i < j else (j, i)
        if key in seen:
            warnings.warn(f"duplicate edge {key} ignored", stacklevel=2)
            continue
        seen.add(key)
        normalized.append(key)
    return Graph(labels, tuple(sorted(normalized)))


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


def _labels(d: int) -> tuple[str, ...]:
    """``v0 .. v{d-1}``; raises ``ValueError`` past :data:`MAX_VERTICES`."""
    if d > MAX_VERTICES:
        raise ValueError(f"a graph of {d} vertices is too large; the limit is {MAX_VERTICES}")
    return tuple([f"v{i}" for i in range(d)])


def cycle_graphs(d_values: Iterable[int]) -> Iterator[Graph]:
    """The cycle of each length in ``d_values``, in order, repeats included.

    All of them are cut from one path built for the longest: its labels,
    its edges ``(i, i + 1)`` and the neighbour sets ``{i, i + 2}`` of its
    inner vertices are made once, from one tuple of int objects, and each
    cycle holds references to them.  A cycle of length d adds only its
    closing edge ``(0, d - 1)`` and the neighbour sets of its two ends.
    Nothing is kept between calls.
    """
    d_values = tuple(d_values)
    if not d_values:
        return
    if min(d_values) < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    top = max(d_values)
    labels = _labels(top)  # checks top before anything else is allocated
    ints = tuple(range(top))
    path = tuple(zip(ints, ints[1:]))  # path[i] = (i, i + 1)
    inner = tuple(map(frozenset, zip(ints, ints[2:])))  # the neighbours of i + 1
    for d in d_values:
        last = ints[d - 1]
        # sorted normalized edges: (0, 1), (0, d-1), (1, 2), ..., (d-2, d-1)
        g = Graph(labels[:d], (path[0], (0, last), *path[1 : d - 1]))
        # what the ``neighbors`` cached property would compute, in its
        # insertion order, under the name it caches to
        g.__dict__["neighbors"] = (
            frozenset((1, last)),
            *inner[: d - 2],
            frozenset((0, ints[d - 2])),
        )
        yield g


def cycle_graph(d: int) -> Graph:
    """The cycle on ``d >= 3`` vertices ``v0 .. v{d-1}``, with ``vi``
    adjacent to ``v(i+1 mod d)``; built by :func:`cycle_graphs`."""
    return next(cycle_graphs((d,)))


def edgeless_graph(d: int) -> Graph:
    if d < 1:
        raise ValueError("graph needs at least one vertex")
    return Graph(_labels(d), ())


def complete_graph(d: int) -> Graph:
    if d < 1:
        raise ValueError("graph needs at least one vertex")
    return Graph(_labels(d), tuple([(i, j) for i in range(d) for j in range(i + 1, d)]))


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
    for u, v in g.edges:
        nu, nv = neighbors[u], neighbors[v]
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
    d = g.vertex_count
    return GraphStats(d, c, b, d > 3 * b + 2 * c)
