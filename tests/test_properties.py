"""Property tests for the pivotal stack, over random graphs, mixed groups
and multi-letter words: the walk kernel against the definition scan on
replayed pilings and against the naive strings of ``oracles``.

Settings are fixed and derandomized so every run draws the same examples,
and no example database is written.
"""

from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gpdrift.graphs import edgeless_graph, make_graph
from gpdrift.groups import CyclicGroup, IntegerGroup
from gpdrift.piling import (
    append,
    init,
    is_prefix,
    piling_of_word,
    pivotal_times_bruteforce,
    replay_pilings,
)
from gpdrift.walk import FixedWord, WalkTrace, WordChoice, run_walk

from oracles import MIXED6, S3, destroy_and_rebuild, naive_walk, random_graph, random_word

PROPERTY_SETTINGS = dict(
    derandomize=True,
    database=None,
    deadline=None,
    # timing-based checks would make a slow or busy machine fail the run
    suppress_health_check=[HealthCheck.too_slow],
)

GROUP_CHOICES = (IntegerGroup(), CyclicGroup(2), CyclicGroup(3))


@st.composite
def graphs_and_groups(draw):
    d = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    edges = [pair for pair in pairs if draw(st.booleans())]
    graph = make_graph([f"v{i}" for i in range(d)], edges)
    groups = tuple(draw(st.sampled_from(GROUP_CHOICES)) for _ in range(d))
    return graph, groups


def letters(graph, groups):
    """Nontrivial letters: a vertex and a small exponent in its group."""
    return st.tuples(
        st.integers(0, graph.vertex_count - 1), st.sampled_from((-2, -1, 1, 2, 3))
    ).map(lambda vk: (vk[0], groups[vk[0]].from_int(vk[1]))).filter(
        lambda letter: not groups[letter[0]].is_identity(letter[1])
    )


def inverse(word, groups):
    return [(v, groups[v].invert(x)) for v, x in reversed(word)]


def words(draw, graph, groups, before):
    """Up to 7 letters; sometimes u⁻¹·u·x, where u is drawn fresh or is the
    tail of the letters ``before`` it, so the word destroys letters it
    then rebuilds."""
    letter = letters(graph, groups)
    if draw(st.booleans()):
        return draw(st.lists(letter, min_size=1, max_size=7))
    if before and draw(st.booleans()):
        u = before[-draw(st.integers(1, min(3, len(before)))):]
    else:
        u = draw(st.lists(letter, min_size=1, max_size=3))
    return inverse(u, groups) + u + [draw(letter)]


@st.composite
def steps_on_a_graph(draw, max_steps):
    """A graph, its groups and walk steps whose words are not the identity."""
    graph, groups = draw(graphs_and_groups())
    letter = letters(graph, groups)
    history, steps = [], []
    for _ in range(draw(st.integers(1, max_steps))):
        s = draw(letter)
        w = words(draw, graph, groups, history + [s])
        if piling_of_word(w, graph, groups).syllables == 0:
            continue
        steps.append((s, tuple(w)))
        history += [s] + w
    return graph, groups, steps


@settings(max_examples=300, **PROPERTY_SETTINGS)
@given(st.data())
def test_word_clause_iff_half_is_prefix_of_full(data):
    # init(w) misses term(half) exactly when half is a prefix of half·w
    graph, groups = data.draw(graphs_and_groups())
    before = data.draw(st.lists(letters(graph, groups), max_size=8))
    s = data.draw(letters(graph, groups))
    w = words(data.draw, graph, groups, before + [s])
    w_piling = piling_of_word(w, graph, groups)
    if w_piling.syllables == 0:
        return
    half = piling_of_word(before + [s], graph, groups)
    full = half
    for v, x in w:
        full = append(full, v, x, graph, groups)
    clause = not any(half.ends_nontrivial(u) for u in init(w_piling))
    assert clause == is_prefix(half, full)


def assert_three_way(graph, groups, steps) -> WalkTrace:
    """Fold the steps one by one: after each, the kernel's pivotal times
    equal the definition scan on replayed pilings and the naive strings,
    and so do its syllable and active counts."""
    syllables, active, pivotal = naive_walk(steps, graph, groups)
    trace = WalkTrace(graph, groups)
    for (s, w), expected in zip(steps, pivotal):
        trace.extend(s, w)
        assert list(trace.pivotal_times()) == pivotal_times_bruteforce(trace) == expected
    assert trace.syllable_counts == syllables
    assert trace.active_counts == active
    return trace


@settings(max_examples=100, **PROPERTY_SETTINGS)
@given(steps_on_a_graph(max_steps=20))
def test_incremental_stack_matches_bruteforce_at_every_horizon(case):
    graph, groups, steps = case
    trace = assert_three_way(graph, groups, steps)
    # the replayed pilings are the normal forms of the flattened step
    # prefixes and carry the stored counts
    half, full = replay_pilings(trace)
    assert trace.syllable_counts == [p.syllables for p in full]
    letters_so_far = []
    for (s, w), h, f in zip(steps, half, full):
        letters_so_far.append(s)
        assert h == piling_of_word(letters_so_far, graph, groups)
        letters_so_far.extend(w)
        assert f == piling_of_word(letters_so_far, graph, groups)


@pytest.mark.parametrize(
    "nu",
    [
        FixedWord(destroy_and_rebuild(MIXED6)),
        WordChoice([destroy_and_rebuild(MIXED6), ((4, 1),), ((5, 2), (0, 1))]),
    ],
)
def test_destroy_and_rebuild_word(nu):
    # the letterwise stamp test alone would pop the older anchors this
    # word rebuilds
    graph = edgeless_graph(6)
    for seed in range(30):
        trace = run_walk(graph, MIXED6, nu, 25, seed)
        assert_three_way(graph, MIXED6, list(zip(trace.s_letters, trace.nu_words)))


@pytest.mark.parametrize(
    "labels, edges, steps",
    [
        # step 2 draws v with the word v⁻¹·v·u, u ~ v: v's entry is rebuilt
        # and time 2 survives; step 3's v merges with the rebuilt entry
        ("vux", [(0, 1)], [(2, 1, ((2, 1),)), (0, 1, ((0, -1), (0, 1), (1, 1))),
                           (1, -1, ((0, 1),)), (2, 1, ((2, 1),))]),
        # the same with an entry below s: step 2's word rebuilds step 1's
        # b, which step 3's b merges with
        ("abcd", [(1, 2)], [(0, 1, ((1, 1),)), (2, 1, ((1, -1), (1, 1), (3, 1))),
                            (3, -1, ((1, 1),)), (0, 1, ((3, 1),))]),
    ],
)
def test_rebuilt_entries_keep_the_anchor_stamp(labels, edges, steps):
    graph = make_graph(list(labels), edges)
    groups = (IntegerGroup(),) * len(labels)
    trace = assert_three_way(graph, groups, [((v, x), w) for v, x, w in steps])
    assert 2 not in trace.pivotal_times()


def test_nonabelian_walks_match_the_definition_scan():
    # S3 at every vertex, so a merge in the wrong order changes the
    # strings; half the words take the walk's last letters off and put
    # them back, u⁻¹·u·x
    rng = Random(43)
    for _ in range(60):
        d = rng.randrange(2, 6)
        graph = random_graph(d, rng.random(), rng)
        groups = (S3,) * d
        history, steps = [], []
        for _ in range(rng.randrange(1, 16)):
            (s,) = random_word(graph, groups, 1, rng)
            if rng.random() < 0.5:
                w = random_word(graph, groups, rng.randrange(1, 5), rng)
            else:
                u = (history + [s])[-rng.randrange(1, 4):]
                w = inverse(u, groups) + u + random_word(graph, groups, 1, rng)
            if piling_of_word(w, graph, groups).syllables == 0:
                continue
            steps.append((s, tuple(w)))
            history += [s] + w
        assert_three_way(graph, groups, steps)
