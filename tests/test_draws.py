"""The built-in samplers draw straight from ``rng.getrandbits``, with the
loop CPython's ``randrange``/``choice`` run inside.  Each inlined site must
return what the stdlib call returns on a twin generator and leave the
generator in the same state.  The walk loop ``walk._sample`` is the one
draw of mu's letter: its vertex and value are checked on walks whose nu
draws nothing."""

import random
from random import Random
from types import SimpleNamespace

import pytest

from gpdrift.graphs import edgeless_graph
from gpdrift.groups import CyclicGroup, IntegerGroup, VertexGroup, uniform_groups
from gpdrift.walk import FixedWord, ParetoLetter, WordChoice, run_walk, walk_record

SEEDS = (0, 1, 7, 2024)
SIZES = (*range(1, 301), 2**31 - 1, 2**31 + 1, 10**6, 2**64 + 1)
DRAWS = 5


class _EveryVertex:
    """A group sequence as long as any vertex count: one group throughout."""

    def __init__(self, group):
        self.group = group

    def __getitem__(self, v):
        return self.group


def _twins(seed):
    return Random(seed), Random(seed)


def test_stdlib_draws_below_n_with_getrandbits():
    assert random.Random._randbelow is random.Random._randbelow_with_getrandbits, (
        "random.Random no longer draws randrange/choice through "
        "_randbelow_with_getrandbits; the inlined getrandbits loops in "
        "walk._sample (the letter vertex of both walks), "
        "WordChoice.sample, ParetoLetter.sample (the vertex), "
        "IntegerGroup.sample_nontrivial and CyclicGroup.sample_nontrivial "
        "must be rewritten to match it"
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d", [1, 2, 50, 2000])
def test_walk_letters_draw_like_randrange_and_choice(seed, d):
    # a fixed word draws nothing, so the walk's draws are its letters'
    trace = run_walk(edgeless_graph(d), uniform_groups(d), FixedWord(((0, 1),)), 200, seed)
    twin = Random(seed)
    assert trace.s_letters == [(twin.randrange(d), twin.choice((1, -1))) for _ in range(200)]


@pytest.mark.parametrize("seed", SEEDS)
def test_pareto_vertex_draws_like_randrange(seed):
    rng, twin = _twins(seed)
    nu = ParetoLetter(1.1)
    groups = _EveryVertex(IntegerGroup())
    for n in SIZES:
        graph = SimpleNamespace(vertex_count=n)
        for _ in range(DRAWS):
            v = twin.randrange(n)
            magnitude = nu.magnitude(1.0 - twin.random())
            sign = 1 if twin.random() < 0.5 else -1
            assert nu.sample(rng, graph, groups) == ((v, sign * magnitude),)
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_word_choice_draws_like_randrange(seed):
    rng, twin = _twins(seed)
    for n in (*range(1, 301), 10**6):
        words = [((0, 1),)] * n
        words[-1] = ((0, 2),)
        nu = WordChoice(words)
        for _ in range(DRAWS):
            assert nu.sample(rng, None, None) == words[twin.randrange(n)]
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_integer_group_draws_like_choice(seed):
    rng, twin = _twins(seed)
    group = IntegerGroup()
    for _ in range(1000):
        assert group.sample_nontrivial(rng) == twin.choice((1, -1))
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_cyclic_group_draws_like_randrange(seed):
    rng, twin = _twins(seed)
    for m in (*range(2, 301), 2**31, 2**31 + 2, 10**6, 2**64 + 2, 10**40 + 7):
        group = CyclicGroup(m)
        for _ in range(DRAWS):
            assert group.sample_nontrivial(rng) == twin.randrange(1, m)
    assert rng.getstate() == twin.getstate()


class _Tagged(VertexGroup):
    """The integers, logging the vertex and the generator state whenever
    the walk draws this vertex's letter value."""

    def __init__(self, vertex, log):
        self.vertex, self.log = vertex, log

    def multiply(self, x, y):
        return x + y

    def is_identity(self, x):
        return x == 0

    def sample_nontrivial(self, rng):
        self.log.append((self.vertex, rng.getstate()))
        return 1


@pytest.mark.parametrize("seed", SEEDS)
def test_walk_record_letter_vertex_draws_like_randrange(seed):
    # every value is +1 and the word is (0, +1), so nothing cancels and the
    # only draw of a step is its letter's vertex
    for d in range(1, 301):
        log = []
        groups = [_Tagged(v, log) for v in range(d)]
        walk_record(edgeless_graph(d), groups, FixedWord(((0, 1),)), DRAWS, seed)
        twin = Random(seed)
        expected = []
        for _ in range(DRAWS):
            v = twin.randrange(d)
            expected.append((v, twin.getstate()))
        assert log == expected


def test_no_vertex_to_draw_raises_instead_of_looping():
    # getrandbits(0) is always 0, so the loop below an empty range would
    # never end; randrange(0) raised, and so do the inlined sites
    empty = SimpleNamespace(vertex_count=0, neighbors=())
    with pytest.raises(ValueError, match="at least one vertex"):
        ParetoLetter(1.1).sample(Random(0), empty, ())
    with pytest.raises(ValueError, match="at least one vertex"):
        walk_record(empty, (), FixedWord(((0, 1),)), 1, 0)
    assert walk_record(empty, (), FixedWord(((0, 1),)), 0, 0) == ((0, 0), (0, 0), (0, 0))
