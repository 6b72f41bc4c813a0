import importlib.util
import json
import math
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import gpdrift
from gpdrift import piling, walk
from gpdrift.experiments import TrialMetrics
from gpdrift.graphs import Graph, complete_graph, cycle_graph, edgeless_graph, graph_stats, make_graph
from gpdrift.groups import CyclicGroup, IntegerGroup, uniform_groups
from gpdrift.piling import (
    append,
    init,
    is_local_geodesic,
    is_prefix,
    piling_of_word,
    pivotal_times_bruteforce,
    render,
    replay_pilings,
    term,
)
from gpdrift.walk import (
    FixedWord,
    ParetoLetter,
    WalkTrace,
    WordChoice,
    fold,
    pivot_replace,
    run_walk,
    strong_choice_vertices,
    walk_record,
)

from oracles import MIXED6, S3, destroy_and_rebuild, random_graph, random_word

G3 = make_graph(["a", "b", "c"], [(0, 1)])
Z3 = uniform_groups(3)


def small_walk(steps=20, seed=1, graph=None, groups=None, nu=None):
    graph = graph or cycle_graph(6)
    groups = groups or uniform_groups(graph.vertex_count)
    nu = nu or FixedWord(((0, 1),))
    return run_walk(graph, groups, nu, steps, seed)


def test_zero_step_walk():
    trace = small_walk(steps=0)
    assert trace.n == 0
    assert trace.pivotal_times() == ()
    assert trace.live == 0 and trace.syllable_counts == []


def test_determinism():
    t1, t2 = (small_walk(steps=50, seed=987, nu=ParetoLetter(1.3)) for _ in range(2))
    assert t1.s_letters == t2.s_letters
    assert t1.nu_words == t2.nu_words
    assert t1.pivotal_times() == t2.pivotal_times()
    assert replay_pilings(t1) == replay_pilings(t2)


def test_free_product_no_cancellation_walk():
    # everything lands on distinct non-adjacent vertices: nothing shortens
    graph = edgeless_graph(4)
    groups = uniform_groups(4)
    n = 15
    steps = [((k % 3, 1), ((3, 1),)) for k in range(n)]
    trace = WalkTrace.run(graph, groups, steps)
    assert trace.syllable_counts[-1] == 2 * n
    assert trace.pivotal_times() == tuple(range(1, n))
    assert pivotal_times_bruteforce(trace) == list(range(1, n))
    assert trace.active_counts == list(range(1, n + 1))


def test_pivot_popped_after_exact_inversion():
    # s1 w1 s2 w2 = a b b^-1 a^-1 = identity: time 1 must fall off
    graph = edgeless_graph(2)
    groups = uniform_groups(2)
    steps = [((0, 1), ((1, 1),)), ((1, -1), ((0, -1),))]
    trace = WalkTrace.run(graph, groups, steps)
    assert trace.syllable_counts[-1] == 0
    assert trace.pivotal_times() == ()
    assert trace.active_counts == [1, 0]
    assert pivotal_times_bruteforce(trace) == []


def test_multi_letter_word_eating_s_leaves_time_off_the_stack():
    # G3: a and b commute.  At step 2, w = b a^-1 reduces to a^-1 b, whose
    # initial clique {a, b} meets the half step's terminal clique: a^-1
    # cancels s = a, so time 2 is pushed and popped while time 1 stays.
    steps = [((2, 1), ((1, 1),)), ((0, 1), ((1, 1), (0, -1)))]
    trace = WalkTrace.run(G3, Z3, steps)
    assert not is_local_geodesic(replay_pilings(trace)[1][0], *steps[1], G3, Z3)
    assert trace.syllable_counts[-1] == 2
    assert [t for t, _ in trace.stack] == [1]
    assert trace.active_counts == [1, 1]
    assert trace.pivotal_times() == (1,)
    assert pivotal_times_bruteforce(trace) == [1]
    # the same word after s = a^2 merges into it instead of cancelling
    trace = WalkTrace.run(G3, Z3, [steps[0], ((0, 2), steps[1][1])])
    assert replay_pilings(trace)[0][1].syllables == 3 and trace.syllable_counts[-1] == 3
    assert [t for t, _ in trace.stack] == [1]


def test_is_local_geodesic_cases():
    f0 = piling_of_word([], G3, Z3)
    # fresh letter at a, word at the non-adjacent c
    assert is_local_geodesic(f0, (0, 1), ((2, 1),), G3, Z3)
    # word at the same vertex as s: the half-step terminal clique meets it
    assert not is_local_geodesic(f0, (0, 1), ((0, 1),), G3, Z3)
    # s inside the previous terminal clique
    f_prev = piling_of_word([(0, 1)], G3, Z3)
    assert not is_local_geodesic(f_prev, (0, 1), ((2, 1),), G3, Z3)


def test_local_geodesic_growth():
    rng = Random(31)
    grown = 0
    for _ in range(400):
        graph = random_graph(rng.randrange(2, 7), rng.random(), rng)
        groups = uniform_groups(graph.vertex_count)
        prefix = random_word(graph, groups, 8, rng)
        f_prev = piling_of_word(prefix, graph, groups)
        s = random_word(graph, groups, 1, rng)[0]
        w = tuple(random_word(graph, groups, rng.randrange(1, 4), rng))
        if piling_of_word(w, graph, groups).syllables == 0:
            continue
        if not is_local_geodesic(f_prev, s, w, graph, groups):
            continue
        half = piling_of_word([*prefix, s], graph, groups)
        full = piling_of_word([*prefix, s, *w], graph, groups)
        assert f_prev.syllables < half.syllables < full.syllables
        grown += 1
    assert grown > 50


def test_pilings_replay_only_the_first_k_steps(monkeypatch):
    trace = small_walk(steps=12, seed=3, nu=WordChoice([((0, 1),), ((2, 1), (4, 1))]))
    half, full = replay_pilings(trace)
    calls = 0

    def counting_append(*args):
        nonlocal calls
        calls += 1
        return append(*args)

    monkeypatch.setattr(piling, "append", counting_append)
    for k in range(trace.n + 1):
        calls = 0
        replayed = replay_pilings(trace, k)
        assert calls == sum(1 + len(w) for w in trace.nu_words[:k])
        assert replayed == (half[:k], full[:k])


def test_stack_nesting_invariant():
    for seed in range(30):
        trace = small_walk(steps=40, seed=seed, nu=WordChoice([((0, 1),), ((2, 1), (4, 1))]))
        half = replay_pilings(trace)[0]
        for (lower, lower_clock), (upper, upper_clock) in zip(trace.stack, trace.stack[1:]):
            assert lower < upper and lower_clock < upper_clock
            assert is_prefix(half[lower - 1], half[upper - 1])


@pytest.mark.parametrize(
    "nu",
    [
        FixedWord(((0, 1),)),
        WordChoice([((0, 1), (1, -1)), ((3, 2),)]),
        ParetoLetter(1.1),
    ],
)
def test_incremental_matches_bruteforce(nu):
    graph = cycle_graph(6)
    groups = uniform_groups(6)
    for seed in range(60):
        n = 5 + (seed * 7) % 36
        trace = run_walk(graph, groups, nu, n, seed)
        assert list(trace.pivotal_times()) == pivotal_times_bruteforce(trace)


def test_incremental_matches_bruteforce_random_graphs():
    rng = Random(33)
    for _ in range(40):
        d = rng.randrange(2, 7)
        graph = random_graph(d, rng.random(), rng)
        groups = uniform_groups(d, CyclicGroup(3) if rng.random() < 0.5 else IntegerGroup())
        nu = FixedWord(tuple(random_word(graph, groups, rng.randrange(1, 3), rng)))
        try:
            trace = run_walk(graph, groups, nu, 30, rng.randrange(10**6))
        except ValueError:
            continue  # nu word happened to be an identity word; not this test's concern
        assert list(trace.pivotal_times()) == pivotal_times_bruteforce(trace)
        # intermediate horizons agree with the stack of the walk cut there
        steps = list(zip(trace.s_letters, trace.nu_words))
        for m in (1, 7, 19, trace.n):
            prefix = WalkTrace.run(graph, groups, steps[:m])
            assert list(prefix.pivotal_times()) == pivotal_times_bruteforce(trace, m)
        with pytest.raises(ValueError, match="^horizon exceeds the trace length$"):
            pivotal_times_bruteforce(trace, trace.n + 1)


def test_identity_nu_word_rejected():
    message = "^nu sampler produced a word equal to the identity$"
    # the second word is the identity only because a and b commute
    for word in (((2, 1), (2, -1)), ((0, 1), (1, 1), (0, -1), (1, -1))):
        with pytest.raises(ValueError, match=message):
            small_walk(graph=G3, groups=Z3, nu=FixedWord(word), steps=3)
    # the word takes s off and puts it back
    with pytest.raises(ValueError, match=message):
        WalkTrace.run(G3, Z3, [((2, 1), ((2, -1), (2, 1)))])


def _record_of(trace: WalkTrace) -> tuple:
    """The record of a traced walk, read off its per-step counts: a step
    gains when its candidate count rises (the step check's definition)."""
    syllables = [0] + trace.syllable_counts
    active = [0] + trace.active_counts
    gains = [0]
    for k in range(1, len(active)):
        gains.append(gains[-1] + (active[k] >= active[k - 1] + 1))
    pair = lambda xs: (xs[-2] if len(xs) > 1 else 0, xs[-1])
    return pair(syllables), pair(active), pair(gains)


def _outcome(walk_fn, *args):
    try:
        return walk_fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


RECORD_GROUPS = (IntegerGroup(), CyclicGroup(2), CyclicGroup(3))


def test_walk_record_matches_the_trace():
    # one seed, one walk: the record equals what run_walk's trace gives,
    # or both raise the same error
    rng = Random(2024)
    errors = 0
    for _ in range(60):
        d = rng.randrange(1, 9)
        graph = random_graph(d, rng.random(), rng)
        groups = tuple(rng.choice(RECORD_GROUPS) for _ in range(d))
        word = lambda: tuple(random_word(graph, groups, rng.randrange(1, 5), rng))
        samplers = [
            FixedWord(word()),
            WordChoice([word() for _ in range(rng.randrange(1, 4))]),
            ParetoLetter(rng.choice((0.5, 1.1, 2.0))),
        ]
        if d >= 4:
            samplers.append(FixedWord(destroy_and_rebuild(groups)))
            samplers.append(WordChoice([destroy_and_rebuild(groups), word()]))
        for nu in samplers:
            for steps in (0, 1, 2, 3, rng.randrange(4, 40)):
                seed = rng.randrange(10**6)
                traced = _outcome(run_walk, graph, groups, nu, steps, seed)
                expected = traced if isinstance(traced, str) else _record_of(traced)
                assert _outcome(walk_record, graph, groups, nu, steps, seed) == expected
                if isinstance(traced, str):
                    errors += 1
                else:  # the CSV's A_n, read off the pairs, is the trace's count
                    pivotal = TrialMetrics(0, steps, *expected).pivotal_count
                    assert pivotal == len(traced.pivotal_times())
    assert errors  # some random words are the identity


def test_walk_record_draws_like_run_walk():
    # the documented order: randrange(D), the group's sampler, nu.sample
    graph, groups = cycle_graph(6), MIXED6
    draws = {}
    for name, fn in (("trace", run_walk), ("record", walk_record)):
        nu = WordChoice([((0, 1),), destroy_and_rebuild(groups)])
        calls = []
        real = nu.sample

        def sample(rng, g, gr, real=real, calls=calls):
            calls.append(rng.getstate())
            return real(rng, g, gr)

        nu.sample = sample
        fn(graph, groups, nu, 50, 9)
        draws[name] = calls
    assert draws["trace"] == draws["record"] and len(draws["trace"]) == 50


def test_empty_nu_word_rejected():
    with pytest.raises(ValueError):
        FixedWord(())
    with pytest.raises(ValueError):
        WordChoice([])
    with pytest.raises(ValueError, match="^nu words must be nonempty$"):
        WordChoice([((0, 1),), ()])
    with pytest.raises(ValueError, match="^nu sampler produced an empty word$"):
        WalkTrace(cycle_graph(5), uniform_groups(5)).extend((0, 1), ())
    with pytest.raises(ValueError):
        ParetoLetter(0.0)


def test_pareto_letter_magnitudes():
    graph = cycle_graph(5)
    groups = uniform_groups(5)
    rng = Random(77)
    nu = ParetoLetter(1.5)
    sizes = []
    for _ in range(5000):
        ((v, val),) = nu.sample(rng, graph, groups)
        assert not groups[v].is_identity(val)
        sizes.append(abs(val))
    assert min(sizes) == 1
    assert max(sizes) > 50  # the tail is genuinely heavy
    # finite groups: magnitudes wrap but never hit the identity
    zgroups = uniform_groups(5, CyclicGroup(3))
    for _ in range(500):
        ((v, val),) = nu.sample(rng, graph, zgroups)
        assert val in (1, 2)


def test_strong_choice_implies_local_geodesic():
    rng = Random(34)
    strong_seen = 0
    for _ in range(2000):
        d = rng.randrange(2, 8)
        graph = random_graph(d, rng.random(), rng)
        groups = uniform_groups(d)
        prefix = random_word(graph, groups, 6, rng)
        f_prev = piling_of_word(prefix, graph, groups)
        s = random_word(graph, groups, 1, rng)[0]
        w = tuple(random_word(graph, groups, rng.randrange(1, 3), rng))
        if piling_of_word(w, graph, groups).syllables == 0:
            continue
        if s[0] in strong_choice_vertices(fold(prefix, graph, groups), w, graph, groups):
            strong_seen += 1
            assert is_local_geodesic(f_prev, s, w, graph, groups)
    assert strong_seen > 100


def test_strong_choice_vertex_count_bound():
    graph = cycle_graph(10)
    groups = uniform_groups(10)
    stats = graph_stats(graph)
    lower = stats.vertex_count - stats.max_neighbourhood - stats.max_clique
    rng = Random(35)
    for _ in range(100):
        f_prev = fold(random_word(graph, groups, 12, rng), graph, groups)
        w = tuple(random_word(graph, groups, 1, rng))
        assert len(strong_choice_vertices(f_prev, w, graph, groups)) >= lower


def test_strong_choice_rejects_neighbour_of_init():
    f0 = fold([], G3, Z3)
    # word starts at b; a is adjacent to b, so a is not a strong choice
    assert 0 not in strong_choice_vertices(f0, ((1, 1),), G3, Z3)
    assert 2 in strong_choice_vertices(f0, ((1, 1),), G3, Z3)
    with pytest.raises(ValueError, match="nontrivial"):
        strong_choice_vertices(f0, ((1, 1), (2, 0)), G3, Z3)


def test_strong_choice_always_gains():
    # a letter that is a strong choice for its step pushes its time, and
    # the word after it leaves that time on top of the stack
    rng = Random(3)
    for _ in range(3000):
        d = rng.randrange(3, 12)
        graph = random_graph(d, rng.random(), rng)
        groups = tuple(rng.choice(RECORD_GROUPS) for _ in range(d))
        trace = WalkTrace(graph, groups)
        for _ in range(rng.randrange(1, 15)):
            s = random_word(graph, groups, 1, rng)[0]
            w = tuple(random_word(graph, groups, rng.randrange(1, 4), rng))
            if not fold(w, graph, groups).live:
                continue  # an identity word is no step
            strong = s[0] in strong_choice_vertices(trace, w, graph, groups)
            trace.extend(s, w)
            if strong:
                assert trace.stack and trace.stack[-1][0] == trace.n


def test_kernel_cliques_match_the_piling():
    rng = Random(37)
    for _ in range(10_000):
        d = rng.randrange(1, 9)
        graph = random_graph(d, rng.random(), rng)
        groups = tuple(rng.choice(RECORD_GROUPS) for _ in range(d))
        word = random_word(graph, groups, rng.randrange(0, 12), rng)
        kernel, piling = fold(word, graph, groups), piling_of_word(word, graph, groups)
        assert kernel.term() == term(piling)
        assert kernel.init() == init(piling)
        assert kernel.render(graph.labels) == render(piling, graph.labels)


def test_kernel_merges_in_order_in_a_nonabelian_group():
    # with S3 at every vertex, a letter merged as value·top instead of
    # top·value leaves a different string
    rng = Random(41)
    for _ in range(2_000):
        d = rng.randrange(2, 6)
        graph = random_graph(d, rng.random(), rng)
        groups = (S3,) * d
        word = random_word(graph, groups, rng.randrange(1, 12), rng)
        kernel, piling = fold(word, graph, groups), piling_of_word(word, graph, groups)
        assert kernel.render(graph.labels) == render(piling, graph.labels)


def test_kernel_on_a_direct_product_holds_each_coordinate():
    # on a complete graph letters at different vertices commute, so string v
    # holds v's letters multiplied in order, or nothing when they multiply to
    # the identity: an oracle that does not read the piling module
    rng = Random(43)
    for _ in range(1_000):
        d = rng.randrange(1, 5)
        graph, groups = complete_graph(d), (S3,) * d
        word = random_word(graph, groups, rng.randrange(1, 16), rng)
        product = {}
        for v, value in word:
            product[v] = S3.multiply(product[v], value) if v in product else value
        want = {v: [[x, 0]] for v, x in product.items() if not S3.is_identity(x)}
        kernel = fold(word, graph, groups)
        got = {v: [entry[:2] for entry in string] for v, string in kernel.strings.items() if string}
        assert got == want
        assert kernel.live == len(want)


def test_pivot_replace_identity():
    graph = cycle_graph(8)
    groups = uniform_groups(8)
    for seed in range(40):
        trace = run_walk(graph, groups, FixedWord(((0, 1),)), 25, seed)
        steps = list(zip(trace.s_letters, trace.nu_words))
        for k in trace.pivotal_times():
            s = trace.s_letters[k - 1]
            f_prev = WalkTrace.run(graph, groups, steps[: k - 1])
            if s[0] not in strong_choice_vertices(f_prev, trace.nu_words[k - 1], graph, groups):
                continue
            again = pivot_replace(trace, k, s)
            assert again.pivotal_times() == trace.pivotal_times()
            assert replay_pilings(again) == replay_pilings(trace)
            break


def test_pivot_replace_preserves_pivotal_times():
    rng = Random(36)
    graph = cycle_graph(9)
    groups = uniform_groups(9)
    replaced = 0
    seed = 0
    while replaced < 60:
        seed += 1
        trace = run_walk(graph, groups, WordChoice([((0, 1),), ((4, -1),)]), 20, seed)
        steps = list(zip(trace.s_letters, trace.nu_words))
        options = []
        for k in trace.pivotal_times():
            f_prev = WalkTrace.run(graph, groups, steps[: k - 1])
            vs = strong_choice_vertices(f_prev, trace.nu_words[k - 1], graph, groups)
            if vs:
                options.append((k, vs))
        if not options:
            continue
        k, vs = options[rng.randrange(len(options))]
        v = sorted(vs)[rng.randrange(len(vs))]
        s_new = (v, groups[v].sample_nontrivial(rng))
        swapped = pivot_replace(trace, k, s_new)
        assert swapped.pivotal_times() == trace.pivotal_times()
        assert pivotal_times_bruteforce(swapped) == list(trace.pivotal_times())
        # non-pivotal letters kept verbatim
        for j in range(1, trace.n + 1):
            if j != k:
                assert swapped.s_letters[j - 1] == trace.s_letters[j - 1]
        replaced += 1


def test_pivot_replace_rejects_bad_inputs():
    graph = cycle_graph(8)
    groups = uniform_groups(8)
    trace = run_walk(graph, groups, FixedWord(((0, 1),)), 15, 5)
    times = trace.pivotal_times()
    non_pivotal = next(k for k in range(1, trace.n) if k not in times)
    with pytest.raises(ValueError, match="not pivotal"):
        pivot_replace(trace, non_pivotal, (3, 1))
    k = times[0]
    w_init = init(piling_of_word(trace.nu_words[k - 1], graph, groups))
    u = next(iter(w_init))
    neighbour = sorted(graph.neighbors[u])[0]
    # adjacent to the word's initial clique: local-geodesic at best, not strong
    with pytest.raises(ValueError, match="strong"):
        pivot_replace(trace, k, (neighbour, 1))


def test_chain_inequality_and_pivot_growth():
    graph = cycle_graph(7)
    groups = uniform_groups(7)
    for seed in range(30):
        trace = run_walk(graph, groups, ParetoLetter(1.2), 30, seed)
        n = trace.n
        syl = trace.syllable_counts[-1]
        assert len(trace.pivotal_times()) <= syl
        assert trace.active_counts[-1] <= syl
        # the strict chain along pivotal times
        prev = 0
        half, full = replay_pilings(trace)
        for k in trace.pivotal_times():
            f_before = full[k - 2].syllables if k > 1 else 0
            h = half[k - 1].syllables
            assert prev <= f_before < h
            prev = h
        assert prev <= syl


def test_debug_json_shape():
    trace = small_walk(steps=3, seed=2)
    doc = trace.to_debug_json()
    assert len(doc["steps"]) == 3
    assert set(doc["steps"][0]) == {"s", "w", "half", "full"}
    assert doc["pivotal_times"] == list(trace.pivotal_times())


def test_debug_json_golden():
    # step 2's s and w merge into the terminal c; step 3's word cancels
    # s = b and the c^3 it had built, leaving the half step of time 1
    steps = [((0, 1), ((2, 1),)), ((2, 1), ((2, 1), (1, 1))), ((1, 1), ((1, -2), (2, -3)))]
    doc = WalkTrace.run(G3, Z3, steps).to_debug_json()
    assert doc == {
        "steps": [
            {"s": "a^1", "w": ["c^1"], "half": "a^1, ε, 0", "full": "a^1 0, 0, 0 c^1"},
            {
                "s": "c^1",
                "w": ["c^1", "b^1"],
                "half": "a^1 0, 0, 0 c^2",
                "full": "a^1 0, 0 b^1, 0 c^3 0",
            },
            {
                "s": "b^1",
                "w": ["b^-2", "c^-3"],
                "half": "a^1 0, 0 b^2, 0 c^3 0",
                "full": "a^1, ε, 0",
            },
        ],
        "pivotal_times": [1],
    }


def test_debug_json_never_builds_the_quadratic_table():
    # the dump renders from a kernel replay, so a long cycle never gets
    # the O(D^2) table that Piling operations cache on the graph
    graph = cycle_graph(2000)
    groups = uniform_groups(2000)
    trace = run_walk(graph, groups, ParetoLetter(1.1), 20, 7)
    doc = trace.to_debug_json()
    assert len(doc["steps"]) == 20
    assert "nonneighbors" not in graph.__dict__
    half, full = replay_pilings(trace)
    assert [(step["half"], step["full"]) for step in doc["steps"]] == [
        (render(h, graph.labels), render(f, graph.labels)) for h, f in zip(half, full)
    ]
    # the replay's appends read the rows of the vertices they placed a
    # letter on, and no other row is built
    appended = {v for s, w in zip(trace.s_letters, trace.nu_words) for v, _ in (s, *w)}
    filled = set(graph.nonneighbors._rows)
    assert filled and filled <= appended and len(appended) < 100


def test_debug_json_renders_the_largest_pareto_value():
    # u = 1 - random() is at least 2**-53, so at the smallest alpha the
    # largest draw is 2**5300: 1,596 digits, under the 4,300-digit limit of
    # int -> str, so the dump must render it whole.
    big = ParetoLetter(0.01).magnitude(2.0**-53)
    assert big == 2**5300 and len(str(big)) == 1596
    steps = [((0, big), ((2, -big),)), ((1, big), ((2, -big),))]
    doc = WalkTrace.run(G3, Z3, steps).to_debug_json()
    m = str(big)
    assert json.loads(json.dumps(doc)) == {
        "steps": [
            {
                "s": f"a^{m}",
                "w": [f"c^-{m}"],
                "half": f"a^{m}, ε, 0",
                "full": f"a^{m} 0, 0, 0 c^-{m}",
            },
            {
                "s": f"b^{m}",
                "w": [f"c^-{m}"],
                "half": f"a^{m} 0, 0 b^{m}, 0 c^-{m} 0",
                "full": f"a^{m} 0 0, 0 b^{m} 0, 0 c^-{m} 0 c^-{m}",
            },
        ],
        "pivotal_times": [1],
    }


def _floor_power_reference(u, alpha):
    """floor(u ** (-1/alpha)): floats where they suffice, else exact."""
    try:
        return int(u ** (-1.0 / alpha))
    except OverflowError:
        return math.floor(Fraction(u) ** int(-1.0 / alpha))


def test_pareto_letter_draws_past_the_float_range():
    # at alpha = 0.01 a draw overflows a float for u < 8.3e-4; 5000 draws
    # include some, and every magnitude must be the exact floor
    graph = cycle_graph(5)
    groups = uniform_groups(5)
    rng, replay = Random(77), Random(77)
    nu = ParetoLetter(0.01)
    huge = 0
    for _ in range(5000):
        ((v, val),) = nu.sample(rng, graph, groups)
        assert v == replay.randrange(5)
        u = 1.0 - replay.random()
        sign = 1 if replay.random() < 0.5 else -1
        assert val == sign * _floor_power_reference(u, 0.01)
        huge += abs(val) >= 2**1024
    assert huge >= 1


def test_pareto_magnitude_non_whole_exponent():
    # 1/alpha = 81/2, so the exact floor is isqrt(floor(u ** -81))
    alpha = 1 / 40.5
    assert 1.0 / alpha == 40.5
    nu = ParetoLetter(alpha)
    for u in (2.0**-53, 1e-12, 5e-10, 2e-8):
        with pytest.raises(OverflowError):
            u ** -40.5
        assert nu.magnitude(u) == math.isqrt(math.floor(Fraction(u) ** -81))
    assert nu.magnitude(0.5) == int(0.5 ** -40.5)


def test_pareto_alpha_must_be_finite_and_not_tiny():
    for alpha in (math.nan, math.inf, -1.0, 0.0, 0.005):
        with pytest.raises(ValueError, match="finite number of at least"):
            ParetoLetter(alpha)


@pytest.mark.parametrize(
    "graph, groups, nu, steps, seeds",
    [
        (cycle_graph(50), uniform_groups(50), FixedWord(((0, 1),)), 200, 20),
        (cycle_graph(50), uniform_groups(50), ParetoLetter(1.1), 200, 20),
        (edgeless_graph(6), MIXED6, FixedWord(destroy_and_rebuild(MIXED6)), 25, 30),
        (
            edgeless_graph(6),
            MIXED6,
            WordChoice([destroy_and_rebuild(MIXED6), ((4, 1),), ((5, 2), (0, 1))]),
            25,
            30,
        ),
    ],
    ids=["one-letter-fixed", "one-letter-pareto", "rebuild-fixed", "rebuild-choice"],
)
def test_walks_never_replay_pilings(graph, groups, nu, steps, seeds, monkeypatch):
    # every word, also one that takes letters off and puts them back, is
    # decided by the stamps alone: no piling is built and no prefix is
    # checked while the walk runs, neither through the names walk imports
    # nor through those the piling module calls itself
    calls = {"append": 0, "is_prefix": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for module in (walk, piling):
        monkeypatch.setattr(module, "append", counting("append", append))
        monkeypatch.setattr(module, "is_prefix", counting("is_prefix", is_prefix))
    for seed in range(seeds):
        trace = run_walk(graph, groups, nu, steps, seed)
        assert trace.active_counts[-1] > 0
    assert calls == {"append": 0, "is_prefix": 0}


def test_tracer_pins_install_and_restore():
    # bench/tracer.py wraps names that production code no longer calls
    # (walk's append, is_prefix and piling_of_word); installing fails if one
    # is gone, and uninstalling must put every original back
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    cached = Graph.__dict__["nonneighbors"]
    t = tracer.Tracer()
    try:
        t.install(gpdrift)
        assert walk.append is not piling.append
    finally:
        t.uninstall()
    assert walk.append is piling.append
    assert walk.is_prefix is piling.is_prefix
    assert walk.piling_of_word is piling.piling_of_word
    assert Graph.__dict__["nonneighbors"] is cached


def test_pivot_replacement_never_builds_the_quadratic_table():
    # the strong choice is read off kernels, so a long cycle never gets
    # the O(D^2) table that Piling operations cache on the graph
    graph = cycle_graph(2000)
    groups = uniform_groups(2000)
    trace = run_walk(graph, groups, ParetoLetter(1.1), 200, 7)
    steps = list(zip(trace.s_letters, trace.nu_words))
    k = trace.pivotal_times()[len(trace.pivotal_times()) // 2]
    f_prev = WalkTrace.run(graph, groups, steps[: k - 1])
    v = min(strong_choice_vertices(f_prev, trace.nu_words[k - 1], graph, groups))
    swapped = pivot_replace(trace, k, (v, 1))
    assert swapped.pivotal_times() == trace.pivotal_times()
    assert "nonneighbors" not in graph.__dict__
