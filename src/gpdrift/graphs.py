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


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with labelled vertices.

    ``edges`` is normalized: each pair stored once as ``(i, j)`` with
    ``i < j``, sorted.  Build instances with :func:`make_graph`,
    :func:`parse_graph`, or one of the family constructors so the
    invariants (no self-loops, indices in range) are enforced.
    """

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.labels)

    @cached_property
    def neighbors(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in self.labels]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return tuple(frozenset(s) for s in adj)

    @cached_property
    def nonneighbors(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex: the other vertices it does not commute past.

        Lazy because it is quadratic in the vertex count; only walk and
        piling construction need it, clique statistics do not.  Every row
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
      ignored); the vertex count is inferred as ``max index + 1`` and
      vertices are labelled ``v0, v1, ...``.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
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
    return make_graph([f"v{i}" for i in range(top + 1)], edges)


def cycle_graph(d: int) -> Graph:
    if d < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return make_graph([f"v{i}" for i in range(d)], [(i, (i + 1) % d) for i in range(d)])


def edgeless_graph(d: int) -> Graph:
    if d < 1:
        raise ValueError("graph needs at least one vertex")
    return make_graph([f"v{i}" for i in range(d)], [])


def complete_graph(d: int) -> Graph:
    if d < 1:
        raise ValueError("graph needs at least one vertex")
    return make_graph(
        [f"v{i}" for i in range(d)],
        [(i, j) for i in range(d) for j in range(i + 1, d)],
    )


def maximal_cliques(g: Graph) -> Iterator[frozenset[int]]:
    """Bron-Kerbosch enumeration of maximal cliques, with pivoting.

    Exact and fast enough for the intended inputs: either small dense
    graphs or large sparse ones (cycles), where the branch factor stays
    tiny.
    """
    neighbors = g.neighbors

    def expand(clique: frozenset[int], candidates: set[int], excluded: set[int]):
        if not candidates and not excluded:
            yield clique
            return
        pivot = max(candidates or excluded, key=lambda u: len(candidates & neighbors[u]))
        for v in list(candidates - neighbors[pivot]):
            yield from expand(
                clique | {v}, candidates & neighbors[v], excluded & neighbors[v]
            )
            candidates.discard(v)
            excluded.add(v)

    yield from expand(frozenset(), set(range(g.vertex_count)), set())


def graph_stats(g: Graph) -> GraphStats:
    """D, the maximum clique size C, and B, the largest closed
    1-neighbourhood over all (nonempty) cliques, from one enumeration.

    The closed neighbourhood of a clique contains the clique itself, so a
    single edge in a 5-cycle already reaches 4 vertices.  Both maps are
    monotone under clique inclusion, so maximal cliques suffice.
    """
    c = b = 0
    for clique in maximal_cliques(g):
        closed = set(clique)
        for v in clique:
            closed |= g.neighbors[v]
        c = max(c, len(clique))
        b = max(b, len(closed))
    d = g.vertex_count
    return GraphStats(d, c, b, d > 3 * b + 2 * c)
