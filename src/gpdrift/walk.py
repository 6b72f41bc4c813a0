"""Alternating random walks with incremental pivotal-time tracking.

A walk of n steps multiplies alternately by a letter s_k drawn uniformly
over the vertex groups and a word w_k from an arbitrary sampler that never
produces the identity.  The trace stores the letters and words, the
syllable length and candidate count after each step, and the stack of
candidate pivotal times: a time k stays on the stack while its half-step
piling remains a prefix of every later half-step and full-step piling.  A
time that falls off the stack never returns, because the prefix
requirement quantifies over all intermediate pilings.  No piling is kept;
the definition scan, the debug dump and pivot replacement replay them
from the letters and words.  A batch keeps less: :func:`walk_record`
samples the same walk but keeps only a fixed-size record of it.

Both walks fold their letters into a :class:`Kernel`, a mutable piling
whose trailing zero runs are computed from counts, so a letter costs
O(deg); ``Kernel.step`` holds the stack rule below.
Every letter on a string carries a clock stamp, handed out at its birth,
and the stack holds ``(time, clock)`` pairs: the clock of time k is the
stamp of s_k, so the half step of k (its anchor) holds exactly the
entries stamped at or below that clock.  An anchor stays a prefix through one
letter unless that letter merges with or cancels an entry the anchor
holds, so a letter that touches an entry pops every anchor whose clock is
at or above the entry's stamp.  The half step and a one-letter word are
exact this way: a single letter cannot put back what it took.

Time k is pushed when s_k leaves the terminal clique of the previous
piling.  A word of several letters may take letters off an anchor and put
the same letters back (c⁻¹b⁻¹a⁻¹·abcd), so its letters pop nothing while
they fold.  The first time a letter of w touches an entry of the half
step, the entry's position, value and zero run are recorded.  An entry
that is back at its position with the same value and zero run after w
gets its old stamp back; every other recorded entry is broken, and w pops
every anchor whose clock reaches the lowest broken stamp.  The word is
the identity exactly when nothing is broken and the syllable length is
back to the half step's.

The rule is exact.  An anchor A reached by no broken stamp leaves each
string of the full step Q starting with A's entries, with the same values
and the same zero runs before them, and then A is a letterwise prefix of
Q: a zero run counts the letters below an entry at non-adjacent vertices,
so two matched letters in inverted order would force another inverted
pair strictly lower in A, which cannot go on forever, and an unmatched
letter below a matched one would add a zero.  An anchor holding a broken
entry has a string that Q does not start with, so it is no prefix.
Anchors on the stack are nested (each is a prefix of the next), so the
survivors are always a bottom part of the stack.
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
    finite mean; the drift bound must not care.  The vertex and the sign
    are uniform, and the magnitude is pushed through the group's
    ``from_int`` (re-drawing in finite groups when the residue is the
    identity).
    """

    def __init__(self, alpha: float):
        if not (math.isfinite(alpha) and alpha >= _MIN_ALPHA):
            raise ValueError(f"alpha must be a finite number of at least {_MIN_ALPHA}, got {alpha!r}")
        self.alpha = alpha

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
        v = rng.randrange(graph.vertex_count)
        group = groups[v]
        while True:
            magnitude = self.magnitude(1.0 - rng.random())  # u in (0, 1]
            sign = 1 if rng.random() < 0.5 else -1
            value = group.from_int(sign * magnitude)
            if not group.is_identity(value):
                return ((v, value),)


class Kernel:
    """A mutable piling: one walk's letters, folded in place.

    String v holds its nontrivial letters bottom to top as entries
    ``[value, zeros before it, birth stamp]``.  ``cnt[v]`` counts them and
    ``zsum[v]`` sums their zero runs.  String v holds one zero for every
    letter at a vertex that is neither v nor adjacent to it, so its
    trailing run is ``live - cnt[v] - sum(cnt[u] for u ~ v) - zsum[v]``
    and is never stored; a letter touches only its own string and reads
    its neighbours' counts.  ``clock`` is the last stamp handed out.
    """

    __slots__ = ("neighbors", "groups", "strings", "cnt", "zsum", "live", "clock")

    def __init__(self, graph: Graph, groups: Sequence[VertexGroup]):
        self.neighbors = graph.neighbors
        self.groups = groups
        self.strings: dict[int, list[list]] = {}
        self.cnt = [0] * graph.vertex_count
        self.zsum = [0] * graph.vertex_count
        self.live = 0  # letters on all strings: the syllable length
        self.clock = 0

    def append(self, v: int, value) -> int:
        """Multiply on the right by one nontrivial letter.  Returns the
        stamp of the entry the letter merged with or cancelled, or of the
        entry it started (a stamp above every earlier one)."""
        cnt = self.cnt
        c = cnt[v]
        run = self.live - c - self.zsum[v]  # the trailing zero run of string v
        for u in self.neighbors[v]:
            run -= cnt[u]
        if c and not run:
            string = self.strings[v]
            top = string[-1]
            group = self.groups[v]
            merged = group.multiply(top[0], value)
            if group.is_identity(merged):
                string.pop()
                cnt[v] = c - 1
                self.zsum[v] -= top[1]
                self.live -= 1
            else:
                top[0] = merged
            return top[2]
        self.clock += 1
        entry = [value, run, self.clock]
        if c:
            self.strings[v].append(entry)
        else:
            self.strings[v] = [entry]
        cnt[v] = c + 1
        self.zsum[v] += run
        self.live += 1
        return self.clock

    def fold_word(self, w: tuple) -> int:
        """Fold a word of several letters; returns the lowest stamp it
        broke, or a stamp above every anchor (module docstring)."""
        cnt, strings = self.cnt, self.strings
        clock, live = self.clock, self.live
        touched: dict[tuple[int, int], tuple] = {}  # (v, position) -> (value, entry)
        for v, value in w:
            c = cnt[v]
            entry = strings[v][-1] if c else None
            old = entry[0] if c else None
            if self.append(v, value) <= clock and (v, c - 1) not in touched:
                touched[v, c - 1] = (old, entry)
        sigma = clock + 1
        for (v, pos), (value, entry) in touched.items():
            string = strings[v]
            if pos < len(string) and string[pos][0] == value and string[pos][1] == entry[1]:
                string[pos][2] = entry[2]
            elif entry[2] < sigma:
                sigma = entry[2]
        if sigma > clock and self.live == live:
            raise ValueError("nu sampler produced a word equal to the identity")
        return sigma

    def step(self, stack: list[tuple[int, int]], k: int, v: int, value, w: tuple) -> None:
        """Fold step k, the letter (v, value) and then the word w, and
        update the pivotal stack of ``(time, clock)`` pairs: push k when
        the letter leaves the terminal clique, and pop every anchor that a
        letter or the word broke (module docstring)."""
        before = self.clock
        stamp = self.append(v, value)
        if stamp > before:
            stack.append((k, stamp))
        else:
            while stack and stack[-1][1] >= stamp:
                stack.pop()
        stamp = self.append(*w[0]) if len(w) == 1 else self.fold_word(w)
        while stack and stack[-1][1] >= stamp:
            stack.pop()


def fold(word: Word, graph: Graph, groups: Sequence[VertexGroup]) -> Kernel:
    """The kernel of a word of nontrivial letters; ``live`` is its
    syllable length, so 0 exactly for the identity."""
    kernel = Kernel(graph, groups)
    for v, value in word:
        kernel.append(v, value)
    return kernel


def _require_nontrivial(letters, groups: Sequence[VertexGroup]) -> None:
    for v, value in letters:
        if groups[v].is_identity(value):
            raise ValueError("letters must be nontrivial vertex-group elements")


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
    candidates as ``(time, clock)`` pairs; and per step k,
    ``syllable_counts[k-1]``, its syllable length, and
    ``active_counts[k-1]``, the surviving candidates among times 1..k (the
    inclusive count the step-increment experiments use).  The pilings are
    replayed on demand by :meth:`pilings` and ``piling``.
    """

    def __init__(self, graph: Graph, groups: Sequence[VertexGroup]):
        self.graph = graph
        self.groups = tuple(groups)
        self.s_letters: list[MuLetter] = []
        self.nu_words: list[tuple] = []
        self.stack: list[tuple[int, int]] = []
        self.syllable_counts: list[int] = []
        self.active_counts: list[int] = []
        self._kernel = Kernel(graph, self.groups)

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

    @property
    def piling(self) -> Piling:
        """The full-step piling after the last step, replayed."""
        return self.piling_after(self.n)

    def pilings(self, k: int | None = None) -> tuple[list[Piling], list[Piling]]:
        """Replay the half-step and the full-step piling of each of the
        first k steps (of every step when k is None)."""
        half: list[Piling] = []
        full: list[Piling] = []
        f = empty_piling(self.graph.vertex_count)
        for s, w in zip(self.s_letters[:k], self.nu_words[:k]):
            h, f = _fold(f, s, w, self.graph, self.groups)
            half.append(h)
            full.append(f)
        return half, full

    def piling_after(self, k: int) -> Piling:
        """The full-step piling after k steps (k = 0 gives the identity),
        replayed from the first k steps."""
        return self.pilings(k)[1][k - 1] if k > 0 else empty_piling(self.graph.vertex_count)

    def extend(self, s: MuLetter, w: Word) -> None:
        """Fold one (letter, word) step in and update the pivotal stack.

        Raises ``ValueError`` for an empty word, an identity letter or a
        word equal to the identity.  The identity word is found only after
        it is folded, so a trace whose ``extend`` raised is left mid-step
        and must be discarded.
        """
        w = tuple(w)
        if not w:
            raise ValueError("nu sampler produced an empty word")
        _require_nontrivial((s, *w), self.groups)
        self.s_letters.append(s)
        self.nu_words.append(w)
        self._kernel.step(self.stack, self.n, *s, w)
        self.syllable_counts.append(self._kernel.live)
        self.active_counts.append(len(self.stack))

    def pivotal_times(self) -> tuple[int, ...]:
        """Times pivotal with respect to the walk length (strictly before it)."""
        n = self.n
        return tuple(t for t, _ in self.stack if t < n)

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


def strong_choice_vertices(
    f_prev: Piling, w: Word, graph: Graph, groups: Sequence[VertexGroup]
) -> frozenset[int]:
    """All vertices whose letters qualify under the strong pivot condition:
    stronger than local geodesic, the vertex also avoids the closed
    neighbourhood of the word's initial clique, so swapping it in cannot
    disturb any other pivotal time."""
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
    steps = list(zip(trace.s_letters, trace.nu_words))
    rebuilt = WalkTrace.run(trace.graph, trace.groups, steps[: k - 1])
    w = steps[k - 1][1]
    if s_new[0] not in strong_choice_vertices(rebuilt.piling, w, trace.graph, trace.groups):
        raise ValueError("replacement letter fails the strong pivot condition")
    for s, word in [(s_new, w)] + steps[k:]:
        rebuilt.extend(s, word)
    return rebuilt


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


def walk_record(
    graph: Graph, groups: Sequence[VertexGroup], nu, steps: int, seed: int
) -> tuple[int, tuple[int, int], tuple[int, int], tuple[int, int]]:
    """The walk :func:`run_walk` samples, reduced as it runs to what a
    batch keeps of it: the same draws in the same order and the same
    errors, but no letters, words or per-step counts are kept.  A word
    tuple the sampler returns again is not checked again.

    Returns ``(pivotal_count, syllable_pair, active_pair, gain_pair)``:
    the candidates strictly before the horizon still on the stack, then
    the syllable length, the surviving candidates among times 1..k and the
    steps among 1..k whose time survived its step, each as a pair of the
    values after step k = steps - 1 and k = steps (step 0 reads 0)."""
    rng = Random(seed)
    groups = tuple(groups)
    randrange, d, sample = rng.randrange, graph.vertex_count, nu.sample
    kernel = Kernel(graph, groups)
    step = kernel.step
    stack: list[tuple[int, int]] = []
    checked = None
    gains = 0
    before = (0, 0, 0)
    for k in range(1, steps + 1):
        if k == steps:
            before = (kernel.live, len(stack), gains)
        v = randrange(d)
        group = groups[v]
        value = group.sample_nontrivial(rng)
        w = sample(rng, graph, groups)
        if w is not checked:
            w = tuple(w)
            if not w:
                raise ValueError("nu sampler produced an empty word")
            _require_nontrivial(((v, value), *w), groups)
            checked = w
        elif group.is_identity(value):
            raise ValueError("letters must be nontrivial vertex-group elements")
        step(stack, k, v, value, w)
        if stack and stack[-1][0] == k:
            gains += 1
    last = 1 if stack and stack[-1][0] == steps else 0
    return (
        len(stack) - last,
        (before[0], kernel.live),
        (before[1], len(stack)),
        (before[2], gains),
    )
