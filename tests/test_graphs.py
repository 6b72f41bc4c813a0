import json
import sys
import tracemalloc
import warnings
from random import Random

import pytest

import gpdrift.graphs as graphs
from gpdrift.cli import main
from gpdrift.experiments import sweep_cycles
from gpdrift.graphs import (
    complete_graph,
    cycle_graph,
    cycle_stats,
    edgeless_graph,
    graph_stats,
    make_graph,
    maximal_cliques,
    parse_graph,
)

from oracles import max_clique_bruteforce, max_neighbourhood_bruteforce, random_graph


def test_parse_json_cycle():
    text = json.dumps(
        {"vertices": ["a", "b", "c", "d", "e"], "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}
    )
    g = parse_graph(text)
    assert g.vertex_count == 5
    assert g.labels == ("a", "b", "c", "d", "e")
    assert g.adjacent(0, 4) and not g.adjacent(0, 2)


def test_parse_edge_list():
    g = parse_graph("0 1\n1 2\n\n# comment\n2 0\n")
    assert g.vertex_count == 3
    assert len(g.edges) == 3


def test_parse_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        parse_graph('{"vertices": ["a"], "edges": [[0, 0]]}')


def test_parse_out_of_range_rejected():
    with pytest.raises(ValueError, match="outside"):
        parse_graph('{"vertices": ["a", "b"], "edges": [[0, 2]]}')


def test_parse_garbage_rejected():
    with pytest.raises(ValueError):
        parse_graph("{not json")
    with pytest.raises(ValueError):
        parse_graph("0 1 2\n")
    with pytest.raises(ValueError):
        parse_graph('{"vertices": ["a", "b"]}')


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"vertices": ["a", "b"], "edges": 5}, '"edges" must be a list'),
        ({"vertices": ["a", "b"], "edges": [[0, 1.5]]}, "must be integers"),
        ({"vertices": ["a", "b"], "edges": [[0, "1"]]}, "must be integers"),
        ({"vertices": ["a", "b"], "edges": [[True, 1]]}, "must be integers"),
        ({"vertices": ["a", "b"], "edges": [[0, 1, 1]]}, "pair of vertex indices"),
        ({"vertices": ["a", 2], "edges": []}, "string labels"),
    ],
)
def test_parse_json_field_types_rejected(doc, message):
    with pytest.raises(ValueError, match=message):
        parse_graph(json.dumps(doc))


def test_duplicate_edge_warns_and_dedups():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        g = make_graph(["a", "b"], [(0, 1), (1, 0)])
    assert len(g.edges) == 1
    assert any("duplicate" in str(w.message) for w in caught)


def test_edgeless_json_form():
    g = parse_graph('{"vertices": ["x", "y", "z"], "edges": []}')
    assert g.vertex_count == 3 and not g.edges


def test_clique_size_examples():
    assert graph_stats(cycle_graph(5)).max_clique == 2
    assert graph_stats(complete_graph(4)).max_clique == 4
    assert graph_stats(edgeless_graph(7)).max_clique == 1


def test_neighbourhood_examples():
    assert graph_stats(cycle_graph(5)).max_neighbourhood == 4
    assert graph_stats(complete_graph(4)).max_neighbourhood == 4
    assert graph_stats(edgeless_graph(7)).max_neighbourhood == 1
    for d in (5, 6, 9, 20, 101):
        assert graph_stats(cycle_graph(d)).max_neighbourhood == 4


def test_stats_cycles():
    s17 = graph_stats(cycle_graph(17))
    assert (s17.vertex_count, s17.max_clique, s17.max_neighbourhood) == (17, 2, 4)
    assert s17.small_cliques
    assert not graph_stats(cycle_graph(16)).small_cliques
    s5 = graph_stats(cycle_graph(5))
    assert (s5.max_clique, s5.max_neighbourhood) == (2, 4)
    assert not s5.small_cliques


def test_cycle_family_stats():
    for d in range(5, 41):
        s = graph_stats(cycle_graph(d))
        assert (s.vertex_count, s.max_clique, s.max_neighbourhood) == (d, 2, 4)
        assert s.small_cliques == (d > 16)


def _assert_same_graph(g, h):
    assert (g.labels, g.edges, g.neighbors) == (h.labels, h.edges, h.neighbors)


def _make_cycle(d):
    return make_graph([f"v{i}" for i in range(d)], [(i, (i + 1) % d) for i in range(d)])


def test_family_constructors_match_make_graph():
    # the family constructors skip make_graph's validation, so their
    # neighbour sets must come out exactly as make_graph would build them
    for d in range(3, 201):
        _assert_same_graph(cycle_graph(d), _make_cycle(d))
    for d in range(1, 31):
        labels = [f"v{i}" for i in range(d)]
        edges = [(j, i) for i in range(d) for j in range(i)]
        _assert_same_graph(complete_graph(d), make_graph(labels, edges))
    for d in range(1, 51):
        _assert_same_graph(edgeless_graph(d), make_graph([f"v{i}" for i in range(d)], []))


def test_cycle_graphs_match_make_graph():
    # unsorted, with repeats, and up to 12000 vertices
    d_values = [12000, 3, 17, 4, 17, 5, *range(3, 201)]
    for d in d_values:
        _assert_same_graph(cycle_graph(d), _make_cycle(d))


def test_cycle_graphs_empty_and_short():
    assert sweep_cycles([]) == []
    for build in (lambda: cycle_graph(2), lambda: cycle_stats(2), lambda: sweep_cycles([5, 2])):
        with pytest.raises(ValueError, match="at least 3 vertices"):
            build()


def test_cycle_stats_match_graph_stats():
    # the clique search vouches for the closed form the sweep reads
    for d in [*range(3, 1001), 12000]:
        assert cycle_stats(d) == graph_stats(cycle_graph(d)), d


def test_vertex_limit_is_checked_before_allocation():
    over = graphs.MAX_VERTICES + 1
    builds = [
        lambda: sweep_cycles([3, over]),
        lambda: cycle_stats(over),
        lambda: cycle_graph(over),
        lambda: edgeless_graph(over),
        lambda: complete_graph(over),
        lambda: parse_graph(f"0 {over - 1}\n"),
    ]
    tracemalloc.start()
    try:
        for build in builds:
            with pytest.raises(ValueError, match=f"the limit is {graphs.MAX_VERTICES}"):
                build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_vertex_limit_is_inclusive(monkeypatch):
    # a small stand-in limit, so that no graph near the real one is built
    monkeypatch.setattr(graphs, "MAX_VERTICES", 5)
    assert cycle_graph(5).vertex_count == 5
    assert edgeless_graph(5).vertex_count == 5
    assert parse_graph("0 4\n").vertex_count == 5
    for build in (lambda: cycle_graph(6), lambda: edgeless_graph(6), lambda: parse_graph("0 5\n")):
        with pytest.raises(ValueError, match="a graph of 6 vertices is too large; the limit is 5"):
            build()


def test_sweep_builds_no_graph(tmp_path, monkeypatch, capsys):
    # the sweep reads the closed form, so its cost does not grow with D
    calls = []
    real = graphs.Graph.__init__

    def counting(self, *args, **kwargs):
        calls.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(graphs.Graph, "__init__", counting)
    for argv in ([], ["--D-list", "1000000"]):
        assert main(["sweep", *argv, "--output", str(tmp_path / "sweep.csv")]) == 0
        capsys.readouterr()
        assert calls == [], argv
    assert cycle_graph(5).vertex_count == 5
    assert len(calls) == 1  # the counter sees a graph being built


def test_neighbors_match_adjacency_scan():
    assert make_graph(["a", "b"], [(0, 1)]).neighbors == (frozenset({1}), frozenset({0}))
    rng = Random(31)
    for _ in range(50):
        d, p = rng.randrange(1, 25), rng.random()
        pairs = [(j, i) if rng.random() < 0.5 else (i, j)
                 for i in range(d) for j in range(i + 1, d) if rng.random() < p]
        rng.shuffle(pairs)
        g = make_graph([f"v{i}" for i in range(d)], pairs)
        edges = {(min(e), max(e)) for e in pairs}
        assert g.neighbors == tuple(
            frozenset(j for j in range(d) if (min(i, j), max(i, j)) in edges)
            for i in range(d)
        )
        assert g.edges == tuple(sorted(edges))  # derived: sorted, each once as i < j


def test_sweep_builds_no_graph_through_make_graph(tmp_path, monkeypatch, capsys):
    calls = []
    real = graphs.make_graph

    def counting(labels, edges):
        calls.append(1)
        return real(labels, edges)

    monkeypatch.setattr(graphs, "make_graph", counting)
    assert main(["sweep", "--from", "17", "--to", "12000", "--points", "50",
                 "--output", str(tmp_path / "sweep.csv")]) == 0
    capsys.readouterr()
    assert calls == []


def test_maximal_cliques_are_maximal_cliques():
    rng = Random(7)
    for _ in range(20):
        g = random_graph(rng.randrange(1, 9), rng.random(), rng)
        for clique in maximal_cliques(g):
            assert clique
            for i in clique:
                for j in clique:
                    assert i == j or g.adjacent(i, j)
            # maximality: no vertex extends it
            for v in range(g.vertex_count):
                if v not in clique:
                    assert not all(g.adjacent(v, u) for u in clique)


def test_clique_size_against_bruteforce():
    rng = Random(123)
    for _ in range(40):
        g = random_graph(rng.randrange(1, 11), rng.random(), rng)
        assert graph_stats(g).max_clique == max_clique_bruteforce(g)
    # a few larger sparse instances, up to twenty vertices
    for d in (15, 18, 20):
        g = random_graph(d, 0.25, rng)
        assert graph_stats(g).max_clique == max_clique_bruteforce(g)


def test_neighbourhood_against_bruteforce():
    # also certifies that maximizing over maximal cliques only is enough
    rng = Random(456)
    for _ in range(40):
        g = random_graph(rng.randrange(1, 10), rng.random(), rng)
        assert graph_stats(g).max_neighbourhood == max_neighbourhood_bruteforce(g)
    for d in (11, 12):
        g = random_graph(d, 0.35, rng)
        assert graph_stats(g).max_neighbourhood == max_neighbourhood_bruteforce(g)


def _permuted(g, rng):
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return make_graph(g.labels, [(perm[i], perm[j]) for i, j in g.edges])


def _assert_stats_match_bruteforce(g):
    s = graph_stats(g)
    assert (s.max_clique, s.max_neighbourhood) == (
        max_clique_bruteforce(g),
        max_neighbourhood_bruteforce(g),
    ), g.edges


def test_edge_pass_stats_against_bruteforce():
    # densities spread evenly over [0, 1]; the edge pass visits edges in
    # index order, so each graph is also checked under a random relabelling
    rng = Random(2027)
    for k in range(120):
        g = random_graph(rng.randrange(1, 13), k / 119, rng)
        _assert_stats_match_bruteforce(g)
        _assert_stats_match_bruteforce(_permuted(g, rng))


def _hubs_and_k4():
    # hubs 0 and 1 with five leaves each share no neighbour; K4 on 12..15
    edges = [(0, 1)] + [(0, j) for j in range(2, 7)] + [(1, j) for j in range(7, 12)]
    return 16, edges + [(i, j) for i in range(12, 16) for j in range(i + 1, 16)]


@pytest.mark.parametrize(
    "name, shape, expected",
    [
        # B from the lone hub edge (6 + 6), C from the K4
        ("hubs_and_k4", _hubs_and_k4(), (4, 12)),
        ("cycle_with_chord", (8, [(i, (i + 1) % 8) for i in range(8)] + [(0, 2)]), (3, 5)),
        ("triangle_with_paths", (9, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (4, 5), (1, 6), (6, 7), (2, 8)]), (3, 6)),
        (
            "k4_sharing_star_centre",
            (10, [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(0, j) for j in range(4, 10)]),
            (4, 10),
        ),
    ],
)
def test_mixed_graph_stats(name, shape, expected):
    d, edges = shape
    g = make_graph([f"v{i}" for i in range(d)], edges)
    rng = Random(name)
    for h in (g, _permuted(g, rng), _permuted(g, rng)):
        s = graph_stats(h)
        assert (s.max_clique, s.max_neighbourhood) == expected
        _assert_stats_match_bruteforce(h)


def _count_clique_searches(monkeypatch):
    searched = []
    real = graphs._cliques

    def counting(neighbors, vertices):
        searched.append((neighbors, set(vertices)))
        return real(neighbors, vertices)

    monkeypatch.setattr(graphs, "_cliques", counting)
    return searched


def test_triangle_free_graphs_skip_the_clique_search(monkeypatch):
    searched = _count_clique_searches(monkeypatch)
    stats = graph_stats(cycle_graph(12000))
    assert stats == graphs.GraphStats(12000, 2, 4) and stats.small_cliques
    rng = Random(5)
    d, edges = 300, []
    nbrs = [set() for _ in range(300)]
    for _ in range(900):
        i, j = rng.sample(range(d), 2)
        if nbrs[i].isdisjoint(nbrs[j]) and j not in nbrs[i]:
            edges.append((i, j))
            nbrs[i].add(j)
            nbrs[j].add(i)
    g = make_graph([f"v{i}" for i in range(d)], edges)
    s = graph_stats(g)
    assert s.max_clique == 2
    assert s.max_neighbourhood == max(len(nbrs[i]) + len(nbrs[j]) for i, j in edges)
    assert searched == []


def test_graph_stats_never_reads_edges(monkeypatch):
    # the statistics walk the neighbour sets; the derived edge tuple is
    # built only for readers outside the library
    built = [
        cycle_graph(40),
        complete_graph(7),
        parse_graph("0 1\n1 2\n2 0\n2 3\n3 4\n"),
        parse_graph(json.dumps({"vertices": list("abcde"), "edges": [[0, 1], [1, 2], [0, 2], [3, 4]]})),
    ]
    expected = [graph_stats(g) for g in built]

    def refuse(g):
        raise AssertionError("graph_stats read Graph.edges")

    monkeypatch.setattr(graphs.Graph, "edges", property(refuse))
    assert [graph_stats(g) for g in built] == expected
    assert [(s.max_clique, s.max_neighbourhood) for s in expected] == [(2, 4), (7, 7), (3, 5), (3, 3)]


def test_one_triangle_searches_only_its_vertices(monkeypatch):
    searched = _count_clique_searches(monkeypatch)
    g = make_graph([f"v{i}" for i in range(40)], [(i, i + 1) for i in range(39)] + [(10, 12)])
    s = graph_stats(g)
    assert (s.max_clique, s.max_neighbourhood) == (3, 5)
    [(neighbors, vertices)] = searched
    assert vertices == {10, 11, 12}
    assert neighbors is g.neighbors  # the search reads the graph's own sets


def test_clique_search_needs_no_frame_per_clique_vertex():
    g = complete_graph(300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        cliques = list(graphs._cliques(g.neighbors, range(g.vertex_count)))
    finally:
        sys.setrecursionlimit(limit)
    assert cliques == [frozenset(range(300))]


def test_stats_ordering_invariant():
    rng = Random(99)
    for _ in range(30):
        g = random_graph(rng.randrange(1, 12), rng.random(), rng)
        s = graph_stats(g)
        assert 1 <= s.max_clique <= s.max_neighbourhood <= s.vertex_count


def test_single_vertex():
    s = graph_stats(edgeless_graph(1))
    assert (s.vertex_count, s.max_clique, s.max_neighbourhood, s.small_cliques) == (
        1,
        1,
        1,
        False,
    )


def test_nonneighbors_rows_share_index_objects():
    # one int object per vertex index, however many rows hold it
    g = cycle_graph(600)
    assert len({id(j) for row in g.nonneighbors for j in row}) <= g.vertex_count
    assert g.nonneighbors[0] == tuple(range(2, 599))
