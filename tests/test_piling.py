from random import Random

import pytest

from gpdrift.graphs import cycle_graph, graph_stats, make_graph
from gpdrift.groups import CyclicGroup, IntegerGroup, uniform_groups
from gpdrift.piling import (
    CorruptPilingError,
    append,
    concat,
    empty_piling,
    from_strings,
    init,
    invert,
    is_prefix,
    linearize,
    piling_of_word,
    render,
    replay_pilings,
    term,
    validate,
)
from gpdrift.walk import WalkTrace

from oracles import (
    S3,
    invert_word,
    min_syllable_bfs,
    naive_append,
    random_graph,
    random_word,
    tuple_is_prefix,
)

# the three-vertex graph with one commuting pair: <a, b, c | [a, b]>
G3 = make_graph(["a", "b", "c"], [(0, 1)])
Z3 = uniform_groups(3)
S3x3 = (S3,) * 3  # non-abelian: a product taken in the wrong order shows
A, B, C = 0, 1, 2


def pil(word, graph=G3, groups=Z3):
    return piling_of_word(word, graph, groups)


def test_empty_piling():
    p = empty_piling(3)
    assert p.strings() == ((), (), ())
    assert p.syllables == 0
    assert term(p) == frozenset() and init(p) == frozenset()
    with pytest.raises(ValueError):
        empty_piling(0)


def test_known_pilings_one_edge_graph():
    assert pil([(A, 1)]).strings() == (((A, 1),), (), (None,))
    assert pil([(A, 1), (C, 1)]).strings() == (
        ((A, 1), None),
        (None,),
        (None, (C, 1)),
    )
    assert pil([(A, 1), (C, 1), (B, 1)]).strings() == (
        ((A, 1), None),
        (None, (B, 1)),
        (None, (C, 1), None),
    )


def test_render_forms():
    assert render(pil([(A, 1)]), G3.labels) == "a^1, ε, 0"
    assert render(pil([(A, 1), (C, 1), (B, 1)]), G3.labels) == "a^1 0, 0 b^1, 0 c^1 0"


def test_append_rejects_identity_letter():
    with pytest.raises(ValueError):
        append(empty_piling(3), A, 0, G3, Z3)


def test_append_cancellation_to_identity():
    p = pil([(A, 1), (A, -1)])
    assert p == empty_piling(3)
    assert p.strings() == ((), (), ())


def test_append_merge_keeps_zero_accounting():
    p = pil([(A, 1), (A, 1)])
    assert p.strings() == (((A, 2),), (), (None,))
    validate(p, G3)


def test_commutation_of_adjacent_letters():
    assert pil([(A, 1), (B, 1)]) == pil([(B, 1), (A, 1)])


def test_term_and_init_examples():
    p = pil([(A, 1), (C, 1), (B, 1)])
    assert term(p) == frozenset({B})
    assert init(p) == frozenset({A})
    assert term(pil([(A, 1)])) == frozenset({A})


def test_invert_examples():
    groups = Z3
    p = pil([(A, 1)])
    assert invert(p, groups).strings() == (((A, -1),), (), (None,))
    assert invert(empty_piling(3), groups) == empty_piling(3)


def test_invert_is_involution():
    rng = Random(11)
    for groups in (Z3, S3x3):
        for _ in range(200):
            w = random_word(G3, groups, rng.randrange(0, 12), rng)
            p = pil(w, groups=groups)
            assert invert(invert(p, groups), groups) == p


def test_inverse_law_matches_inverted_word():
    rng = Random(12)
    for groups in (Z3, S3x3):
        for _ in range(300):
            w = random_word(G3, groups, rng.randrange(0, 12), rng)
            assert pil(invert_word(w, groups), groups=groups) == invert(pil(w, groups=groups), groups)


def test_init_equals_term_of_inverse():
    rng = Random(13)
    for groups in (Z3, S3x3):
        for _ in range(300):
            w = random_word(G3, groups, rng.randrange(0, 12), rng)
            p = pil(w, groups=groups)
            assert init(p) == term(invert(p, groups))


def test_concat_examples():
    assert concat(pil([(A, 1)]), pil([(C, 1)])) == pil([(A, 1), (C, 1)])
    p = pil([(A, 1), (C, 1), (B, 1)])
    assert concat(p, empty_piling(3)) == p
    assert concat(empty_piling(3), p) == p
    with pytest.raises(ValueError, match="terminal and initial"):
        concat(pil([(A, 1)]), pil([(A, 1)]))


def test_concat_matches_word_concatenation():
    rng = Random(14)
    done = 0
    while done < 200:
        u = random_word(G3, Z3, rng.randrange(0, 10), rng)
        v = random_word(G3, Z3, rng.randrange(0, 10), rng)
        pu, pv = pil(u), pil(v)
        if term(pu) & init(pv):
            continue
        assert concat(pu, pv) == pil(list(u) + list(v))
        done += 1


def test_is_prefix_examples():
    pa = pil([(A, 1)])
    pac = pil([(A, 1), (C, 1)])
    assert is_prefix(pa, pac)
    assert is_prefix(pa, pa)
    assert not is_prefix(pac, pa)
    # exact element equality matters: a^2 is not prefixed by a^1
    assert not is_prefix(pa, pil([(A, 2), (C, 1)]))


def test_is_prefix_matches_tuple_definition():
    def agree(x, y):
        assert is_prefix(x, y) == tuple_is_prefix(x.strings(), y.strings())
        assert (x == y) == (x.strings() == y.strings())

    rng = Random(15)
    graphs = [G3, cycle_graph(6), random_graph(5, 0.4, Random(2))]
    for graph in graphs:
        groups = uniform_groups(graph.vertex_count, CyclicGroup(4))
        for _ in range(400):
            w = random_word(graph, groups, rng.randrange(0, 10), rng)
            u = random_word(graph, groups, rng.randrange(0, 10), rng)
            p = piling_of_word(w, graph, groups)
            q = piling_of_word(list(w) + list(u), graph, groups)
            r = piling_of_word(u, graph, groups)
            for x, y in [(p, q), (p, r), (q, p), (r, p)]:
                agree(x, y)
        # half and full steps of one walk share the string tuples a step left
        # alone, so both the identity shortcut and the entry comparison are
        # reached
        for _ in range(20):
            trace = WalkTrace(graph, groups)
            while trace.n < 12:
                w = random_word(graph, groups, rng.randrange(1, 4), rng)
                if piling_of_word(w, graph, groups).syllables:
                    s = rng.randrange(graph.vertex_count)
                    trace.extend((s, groups[s].sample_nontrivial(rng)), w)
            half, full = replay_pilings(trace)
            for x in half + full:
                for y in half + full:
                    agree(x, y)


def test_syllable_length_examples():
    assert pil([(A, 1), (C, 1), (B, 1)]).syllables == 3
    assert empty_piling(3).syllables == 0


def test_syllable_length_never_exceeds_word_length():
    rng = Random(16)
    for _ in range(300):
        w = random_word(G3, Z3, rng.randrange(0, 14), rng)
        assert pil(w).syllables <= len(w)


def test_matches_naive_fold_on_random_graphs():
    rng = Random(17)
    for trial in range(60):
        d = rng.randrange(1, 7)
        graph = random_graph(d, rng.random(), rng)
        groups = uniform_groups(
            d, CyclicGroup(rng.randrange(2, 5)) if trial % 2 else IntegerGroup()
        )
        strings = tuple(() for _ in range(d))
        p = empty_piling(d)
        for v, g in random_word(graph, groups, 30, rng):
            strings = naive_append(strings, v, g, graph, groups)
            p = append(p, v, g, graph, groups)
            assert p.strings() == strings
            validate(p, graph)


def test_cancellation_invariance():
    rng = Random(18)
    for _ in range(300):
        h = random_word(G3, Z3, rng.randrange(0, 10), rng)
        v = rng.randrange(3)
        g = Z3[v].sample_nontrivial(rng)
        assert pil(list(h) + [(v, g), (v, Z3[v].invert(g))]) == pil(h)


def test_commutation_invariance_random():
    rng = Random(19)
    for _ in range(300):
        h = random_word(G3, Z3, rng.randrange(0, 10), rng)
        si = (A, Z3[A].sample_nontrivial(rng))
        sj = (B, Z3[B].sample_nontrivial(rng))
        assert pil(list(h) + [si, sj]) == pil(list(h) + [sj, si])


def test_terminal_clique_is_clique_and_small():
    rng = Random(20)
    for _ in range(100):
        d = rng.randrange(1, 8)
        graph = random_graph(d, rng.random(), rng)
        groups = uniform_groups(d)
        p = piling_of_word(random_word(graph, groups, 25, rng), graph, groups)
        c = graph_stats(graph).max_clique
        for cl in (term(p), init(p)):
            assert len(cl) <= c
            for i in cl:
                for j in cl:
                    assert i == j or graph.adjacent(i, j)


def test_linearize_round_trips():
    assert linearize(empty_piling(3), G3) == []
    rng = Random(21)
    graphs = [G3, cycle_graph(6), random_graph(5, 0.5, Random(3))]
    for groups_of in (uniform_groups, lambda d: (S3,) * d):
        for graph in graphs:
            groups = groups_of(graph.vertex_count)
            for _ in range(200):
                w = random_word(graph, groups, rng.randrange(0, 15), rng)
                p = piling_of_word(w, graph, groups)
                again = piling_of_word(linearize(p, graph), graph, groups)
                assert again == p


def test_linearize_is_syllable_reduced():
    rng = Random(22)
    for _ in range(100):
        w = random_word(G3, Z3, rng.randrange(0, 10), rng)
        p = pil(w)
        assert len(linearize(p, G3)) == p.syllables


def test_from_strings_validation():
    with pytest.raises(ValueError, match="vertex"):
        from_strings([((1, 1),), (), ()])
    with pytest.raises(ValueError, match="adjacent elements"):
        from_strings([((0, 1), (0, 1)), (), ()])
    p = from_strings(pil([(A, 1), (C, 1)]).strings())
    assert p == pil([(A, 1), (C, 1)])


def test_validate_catches_zero_corruption():
    bad = from_strings([((A, 1),), (), ()])  # missing the zero on string c
    with pytest.raises(CorruptPilingError):
        validate(bad, G3)


def test_cancellation_rejects_a_missing_trailing_zero():
    bad = from_strings([((A, 1),), (), ()])  # string c lacks a's zero
    with pytest.raises(CorruptPilingError, match="no trailing zero on string 2"):
        append(bad, A, -1, G3, Z3)


def test_linearize_rejects_corrupt_piling():
    bad = from_strings([((A, 1),), (), ((C, 1),)])
    with pytest.raises(CorruptPilingError):
        linearize(bad, G3)


def test_normal_form_is_minimal_bfs_small():
    # exhaustive over short words on the one-edge graph: Z/3 factors up to
    # four letters, S3 factors up to three
    z3 = uniform_groups(3, CyclicGroup(3))
    s3_values = [x for x in S3.elements if not S3.is_identity(x)]
    for groups, values, length in ((z3, (1, 2), 4), (S3x3, s3_values, 3)):
        letters = [(v, g) for v in range(3) for g in values]

        def walk(word, depth):
            p = piling_of_word(word, G3, groups)
            assert p.syllables == min_syllable_bfs(word, G3, groups)
            if depth == 0:
                return
            for letter in letters:
                walk(word + [letter], depth - 1)

        walk([], length)
