"""Alternating random walks with incremental pivotal-time tracking.

A walk of n steps multiplies alternately by a letter s_k drawn uniformly
over the vertex groups and a word w_k from an arbitrary sampler that never
produces the identity.  The trace stores the letters and words, the
current piling, the syllable length and candidate count after each step,
and the stack of candidate pivotal times: a time k stays on the stack
while its half-step piling remains a prefix of every later half-step and
full-step piling.  A time that falls off the stack never returns, because
the prefix requirement quantifies over all intermediate pilings.  Those
intermediate pilings are not kept; the definition scan and the debug dump
replay them from the letters and words.

Time k is pushed when s_k leaves the terminal clique of the previous
piling; the other half of the local geodesic condition, that the initial
clique of w_k misses the terminal clique of the half step, is left to
the prefix check against the full step.  That check is exact: when
term(half) misses init(w) the piling of half·w is each string of half
followed by the same string of w, so half is a prefix; otherwise a letter
of w meets a terminal letter of half and merges with it or cancels it, so
half is not.

Anchors on the stack are nested (each is a prefix of the next), so pruning
inspects only the most recent anchor until one survives.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from random import Random
from typing import Sequence

from .graphs import Graph
from .groups import VertexGroup
from .piling import (
    Piling,
    Word,
    append,
    empty_piling,
    init,
    is_prefix,
    piling_of_word,
    render,
    term,
)

MuLetter = tuple[int, object]  # (vertex, nontrivial element)

# A Pareto draw can reach 2**(53/alpha), and its exact integer costs time
# and memory that grow with that size, so smaller exponents are refused.
_MIN_ALPHA = 0.01


def sample_mu(graph: Graph, groups: Sequence[VertexGroup], rng: Random) -> MuLetter:
    """Uniform vertex, then that group's nontrivial-element sampler."""
    vertex = rng.randrange(graph.vertex_count)
    return vertex, groups[vertex].sample_nontrivial(rng)


class FixedWord:
    """Nu sampler that always returns the same word."""

    def __init__(self, word: Word):
        word = tuple(word)
        if not word:
            raise ValueError("nu words must be nonempty")
        self.word = word

    def sample(self, rng: Random, graph: Graph, groups: Sequence[VertexGroup]) -> Word:
        return self.word


class WordChoice:
    """Nu sampler drawing uniformly from a finite list of words."""

    def __init__(self, words: Sequence[Word]):
        if not words:
            raise ValueError("need at least one word")
        self.words = tuple(tuple(w) for w in words)
        if any(not w for w in self.words):
            raise ValueError("nu words must be nonempty")

    def sample(self, rng: Random, graph: Graph, groups: Sequence[VertexGroup]) -> Word:
        return self.words[rng.randrange(len(self.words))]


class ParetoLetter:
    """Nu sampler: one letter with a heavy-tailed integer magnitude.

    The magnitude M satisfies P(M >= m) = m**-alpha, so small alpha has no
    finite mean; the drift bound must not care.  The vertex is uniform
    unless pinned, the sign uniform, and the magnitude is pushed through
    the group's ``from_int`` (re-drawing in finite groups when the residue
    is the identity).
    """

    def __init__(self, alpha: float, vertex: int | None = None):
        if not (math.isfinite(alpha) and alpha >= _MIN_ALPHA):
            raise ValueError(f"alpha must be a finite number of at least {_MIN_ALPHA}, got {alpha!r}")
        self.alpha = alpha
        self.vertex = vertex

    def magnitude(self, u: float) -> int:
        """floor(u ** (-1/alpha)) for u in (0, 1]: in floats while the power
        fits in one; past that exactly for a whole 1/alpha, and otherwise in
        decimal arithmetic carried 30 digits past the integer part."""
        e = 1.0 / self.alpha
        try:
            return int(u ** -e)
        except OverflowError:
            if e.is_integer():
                return math.floor(Fraction(u) ** -int(e))
            with localcontext() as ctx:
                ctx.prec = int(e * -math.log10(u)) + 30
                return int(Decimal(u) ** Decimal(-e))

    def sample(self, rng: Random, graph: Graph, groups: Sequence[VertexGroup]) -> Word:
        v = self.vertex if self.vertex is not None else rng.randrange(graph.vertex_count)
        group = groups[v]
        while True:
            magnitude = self.magnitude(1.0 - rng.random())  # u in (0, 1]
            sign = 1 if rng.random() < 0.5 else -1
            value = group.from_int(sign * magnitude)
            if not group.is_identity(value):
                return ((v, value),)


class _Candidate:
    __slots__ = ("time", "anchor")

    def __init__(self, time: int, anchor: Piling):
        self.time = time
        self.anchor = anchor


def _fold(
    f_prev: Piling, s: MuLetter, w: Word, graph: Graph, groups: Sequence[VertexGroup]
) -> tuple[Piling, Piling]:
    """The half step f_prev·s and the full step f_prev·s·w."""
    half = append(f_prev, s[0], s[1], graph, groups)
    full = half
    for wv, wval in w:
        full = append(full, wv, wval, graph, groups)
    return half, full


class WalkTrace:
    """One walk's letters and words, its counts, and the live pivotal stack.

    Stored: ``s_letters`` and ``nu_words``; ``stack``, the surviving
    candidates with their half-step anchors; ``piling``, the full-step
    piling after the last step; and per step k, ``syllable_counts[k-1]``,
    its syllable length, and ``active_counts[k-1]``, the surviving
    candidates among times 1..k (the inclusive count the step-increment
    experiments use).  The other half-step and full-step pilings are
    replayed on demand by :meth:`pilings`.
    """

    def __init__(self, graph: Graph, groups: Sequence[VertexGroup]):
        self.graph = graph
        self.groups = tuple(groups)
        self.s_letters: list[MuLetter] = []
        self.nu_words: list[tuple] = []
        self.stack: list[_Candidate] = []
        self.piling = empty_piling(graph.vertex_count)
        self.syllable_counts: list[int] = []
        self.active_counts: list[int] = []

    @classmethod
    def run(
        cls,
        graph: Graph,
        groups: Sequence[VertexGroup],
        steps: Sequence[tuple[MuLetter, Word]],
    ) -> "WalkTrace":
        trace = cls(graph, groups)
        for s, w in steps:
            trace.extend(s, w)
        return trace

    @property
    def n(self) -> int:
        return len(self.s_letters)

    def pilings(self) -> tuple[list[Piling], list[Piling]]:
        """Replay the half-step and the full-step piling of every step."""
        half: list[Piling] = []
        full: list[Piling] = []
        f = empty_piling(self.graph.vertex_count)
        for s, w in zip(self.s_letters, self.nu_words):
            h, f = _fold(f, s, w, self.graph, self.groups)
            half.append(h)
            full.append(f)
        return half, full

    def piling_after(self, k: int) -> Piling:
        """The full-step piling after k steps (k = 0 gives the identity);
        replayed unless k is the walk length."""
        if k == self.n:
            return self.piling
        return self.pilings()[1][k - 1] if k > 0 else empty_piling(self.graph.vertex_count)

    def extend(self, s: MuLetter, w: Word) -> None:
        """Fold one (letter, word) step in and update the pivotal stack."""
        w = tuple(w)
        if not w:
            raise ValueError("nu sampler produced an empty word")
        k = self.n + 1
        f_prev = self.piling
        half, full = _fold(f_prev, s, w, self.graph, self.groups)
        if full.syllables == half.syllables and full == half:
            raise ValueError("nu sampler produced a word equal to the identity")
        self._prune(half)
        # Push k when s leaves the terminal clique; the prefix check against
        # the full step then pops it exactly when w eats s (module docstring).
        if not f_prev.ends_nontrivial(s[0]):
            self.stack.append(_Candidate(k, half))
        self._prune(full)
        self.s_letters.append(s)
        self.nu_words.append(w)
        self.piling = full
        self.syllable_counts.append(full.syllables)
        self.active_counts.append(len(self.stack))

    def _prune(self, piling: Piling) -> None:
        stack = self.stack
        while stack and not is_prefix(stack[-1].anchor, piling):
            stack.pop()

    def pivotal_times(self) -> tuple[int, ...]:
        """Times pivotal with respect to the walk length (strictly before it)."""
        n = self.n
        return tuple(c.time for c in self.stack if c.time < n)

    def to_debug_json(self) -> dict:
        labels = self.graph.labels
        return {
            "steps": [
                {
                    "s": f"{labels[v]}^{val}",
                    "w": [f"{labels[wv]}^{wval}" for wv, wval in word],
                    "half": render(h, labels),
                    "full": render(f, labels),
                }
                for (v, val), word, h, f in zip(
                    self.s_letters, self.nu_words, *self.pilings()
                )
            ],
            "pivotal_times": list(self.pivotal_times()),
        }


def is_local_geodesic(
    f_prev: Piling,
    s: MuLetter,
    w: Word,
    graph: Graph,
    groups: Sequence[VertexGroup],
) -> bool:
    """The letter leaves the terminal clique and the word cannot eat it.

    Both syllable-length increases are strict under this condition: the
    half step grows past the previous full step, and the following word
    grows past the half step.
    """
    vertex, value = s
    if f_prev.ends_nontrivial(vertex):
        return False
    half = append(f_prev, vertex, value, graph, groups)
    w_init = init(piling_of_word(w, graph, groups))
    return not any(half.ends_nontrivial(u) for u in w_init)


def is_strong_pivot_choice(
    f_prev: Piling,
    s: MuLetter,
    w: Word,
    graph: Graph,
    groups: Sequence[VertexGroup],
) -> bool:
    """Stronger than local geodesic: the vertex also avoids the closed
    neighbourhood of the word's initial clique, so swapping it in cannot
    disturb any other pivotal time."""
    return s[0] in strong_choice_vertices(f_prev, w, graph, groups)


def strong_choice_vertices(
    f_prev: Piling, w: Word, graph: Graph, groups: Sequence[VertexGroup]
) -> frozenset[int]:
    """All vertices whose letters qualify under the strong pivot condition."""
    w_init = init(piling_of_word(w, graph, groups))
    blocked = set(term(f_prev)) | set(w_init)
    for u in w_init:
        blocked |= graph.neighbors[u]
    return frozenset(range(graph.vertex_count)) - blocked


def pivotal_times_bruteforce(trace: WalkTrace, n: int | None = None) -> list[int]:
    """Direct check of the pivotal-time definition against replayed pilings.

    Quadratic; this is the oracle the incremental stack is tested against.
    """
    if n is None:
        n = trace.n
    if n > trace.n:
        raise ValueError("horizon exceeds the trace length")
    half, full = trace.pilings()
    before = [empty_piling(trace.graph.vertex_count)] + full
    out = []
    for k in range(1, n):
        if not is_local_geodesic(
            before[k - 1], trace.s_letters[k - 1], trace.nu_words[k - 1], trace.graph, trace.groups
        ):
            continue
        anchor = half[k - 1]
        if is_prefix(anchor, full[k - 1]) and all(
            is_prefix(anchor, half[j]) and is_prefix(anchor, full[j])
            for j in range(k, n)
        ):
            out.append(k)
    return out


def pivot_replace(trace: WalkTrace, k: int, s_new: MuLetter) -> WalkTrace:
    """Rebuild the walk with the letter at pivotal time ``k`` swapped out.

    Requires ``k`` pivotal and the replacement to satisfy the strong
    choice condition; the rebuilt walk then has the same pivotal times.
    """
    if k not in trace.pivotal_times():
        raise ValueError(f"time {k} is not pivotal for this trace")
    if not is_strong_pivot_choice(
        trace.piling_after(k - 1),
        s_new,
        trace.nu_words[k - 1],
        trace.graph,
        trace.groups,
    ):
        raise ValueError("replacement letter fails the strong pivot condition")
    steps = list(zip(trace.s_letters, trace.nu_words))
    steps[k - 1] = (s_new, trace.nu_words[k - 1])
    return WalkTrace.run(trace.graph, trace.groups, steps)


def run_walk(graph: Graph, groups: Sequence[VertexGroup], nu, steps: int, seed: int) -> WalkTrace:
    """Sample and fold a walk; deterministic in the seed.

    ``nu`` is any object with ``.sample(rng, graph, groups) -> Word``.  Per
    step the generator is consumed in a fixed order: the uniform letter
    first, then the nu word.
    """
    rng = Random(seed)
    trace = WalkTrace(graph, groups)
    for _ in range(steps):
        s = sample_mu(graph, trace.groups, rng)
        trace.extend(s, nu.sample(rng, graph, trace.groups))
    return trace
