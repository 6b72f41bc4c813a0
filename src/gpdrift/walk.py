"""Alternating random walks with incremental pivotal-time tracking.

A walk of n steps multiplies alternately by a letter s_k drawn uniformly
over the vertex groups and a word w_k from an arbitrary sampler that never
produces the identity.  One walk's state is a :class:`Kernel`: a mutable
piling whose trailing zero runs are computed from counts, so a letter
costs O(deg), and the stack of candidate pivotal times.  A time k stays on
the stack while its half-step piling remains a prefix of every later
half-step and full-step piling.  A time that falls off the stack never
returns, because the prefix requirement quantifies over all intermediate
pilings; ``Kernel.step`` holds the stack rule below.

A :class:`WalkTrace` is a kernel that logs: it also keeps the letters and
words and the syllable length and candidate count after each step.  No
piling is kept: :func:`piling.replay_pilings` replays them from the
letters and words for the definition scan, and the debug dump renders
each step from a kernel replay.  A batch keeps less: :func:`walk_record`
runs the same sampling loop on a bare kernel and keeps only a fixed-size
record of the walk.  Pivot replacement reads the strong choice off the
kernels of the prefix and of the word, through their terminal and initial
cliques, and builds no piling.
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
from random import Random
from typing import Sequence

from .graphs import Graph
from .groups import VertexGroup
from .piling import Word, append, is_prefix, piling_of_word  # all but Word: bench/tracer.py wraps them

MuLetter = tuple[int, object]  # (vertex, nontrivial element)

# A Pareto draw can reach 2**(53/alpha), and its exact integer costs time
# and memory that grow with that size, so smaller exponents are refused.
_MIN_ALPHA = 0.01


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
        self._bits = len(self.words).bit_length()

    def sample(self, rng: Random, graph: Graph, groups: Sequence[VertexGroup]) -> Word:
        # rng.randrange(len(words))
        words, k = self.words, self._bits
        r = rng.getrandbits(k)
        while r >= len(words):
            r = rng.getrandbits(k)
        return words[r]


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
        except OverflowError:  # rare, so the exact modules are imported only here
            if e.is_integer():
                from fractions import Fraction

                return math.floor(Fraction(u) ** -int(e))
            from decimal import Decimal, localcontext

            with localcontext() as ctx:
                ctx.prec = int(e * -math.log10(u)) + 30
                return int(Decimal(u) ** Decimal(-e))

    def sample(self, rng: Random, graph: Graph, groups: Sequence[VertexGroup]) -> Word:
        d = graph.vertex_count
        k = d.bit_length()
        if not k:
            raise ValueError("graph needs at least one vertex")
        # rng.randrange(d)
        v = rng.getrandbits(k)
        while v >= d:
            v = rng.getrandbits(k)
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
    its neighbours' counts.  ``clock`` is the last stamp handed out, and
    ``stack`` holds the pivotal candidates as ``(time, clock)`` pairs.
    """

    __slots__ = ("neighbors", "groups", "strings", "cnt", "zsum", "live", "clock", "stack")

    def __init__(self, graph: Graph, groups: Sequence[VertexGroup]):
        self.neighbors = graph.neighbors
        self.groups = groups
        self.strings: dict[int, list[list]] = {}
        self.cnt = [0] * graph.vertex_count
        self.zsum = [0] * graph.vertex_count
        self.live = 0  # letters on all strings: the syllable length
        self.clock = 0
        self.stack: list[tuple[int, int]] = []

    def append(self, v: int, value) -> int:
        """Multiply on the right by one nontrivial letter.  Returns the
        stamp of the entry the letter merged with or cancelled, or of the
        entry it started (a stamp above every earlier one)."""
        cnt, zsum = self.cnt, self.zsum
        c = cnt[v]
        run = self.live - c - zsum[v]  # the trailing zero run of string v
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
                zsum[v] -= top[1]
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
        zsum[v] += run
        self.live += 1
        return self.clock

    def _trailing_zeros(self, v: int) -> int:
        """The trailing zero run of string v; ``append``, which is hot, inlines it."""
        cnt = self.cnt
        return self.live - cnt[v] - self.zsum[v] - sum(cnt[u] for u in self.neighbors[v])

    def term(self) -> frozenset[int]:
        """Vertices whose string ends in a nontrivial element (a clique):
        non-empty, with a trailing zero run of 0."""
        return frozenset(
            v for v, string in self.strings.items() if string and not self._trailing_zeros(v)
        )

    def init(self) -> frozenset[int]:
        """Vertices whose string starts with a nontrivial element (a clique)."""
        return frozenset(v for v, string in self.strings.items() if string and string[0][1] == 0)

    def render(self, labels: Sequence[str]) -> str:
        """What ``piling.render`` prints for this piling: per string, each
        entry's zero run and ``label^value``, then the trailing run, or
        ``ε`` for an empty string."""
        out = []
        for v, label in enumerate(labels):
            parts = []
            for value, zeros, _ in self.strings.get(v, ()):
                parts += ["0"] * zeros
                parts.append(f"{label}^{value}")
            parts += ["0"] * self._trailing_zeros(v)
            out.append(" ".join(parts) or "ε")
        return ", ".join(out)

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

    def step(self, k: int, v: int, value, w: tuple) -> None:
        """Fold step k, the letter (v, value) and then the word w, and
        update the pivotal stack: push k when the letter leaves the
        terminal clique, and pop every anchor that a letter or the word
        broke (module docstring)."""
        stack = self.stack
        before = self.clock
        stamp = self.append(v, value)
        if stamp > before:
            stack.append((k, stamp))
        else:
            while stack and stack[-1][1] >= stamp:
                stack.pop()
        if len(w) == 1:
            ((u, x),) = w
            stamp = self.append(u, x)
        else:
            stamp = self.fold_word(w)
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


class WalkTrace(Kernel):
    """A kernel that logs: one walk's letters and words, and its counts.

    ``s_letters`` and ``nu_words`` hold the steps, and per step k
    ``syllable_counts[k-1]`` holds its syllable length and
    ``active_counts[k-1]`` the surviving candidates among times 1..k (the
    inclusive count the step-increment experiments use).  The folded walk
    and its ``stack`` are the kernel's own; the pilings are replayed on
    demand by :func:`piling.replay_pilings`.
    """

    def __init__(self, graph: Graph, groups: Sequence[VertexGroup]):
        super().__init__(graph, tuple(groups))
        self.graph = graph
        self.s_letters: list[MuLetter] = []
        self.nu_words: list[tuple] = []
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
        self.step(self.n + 1, *s, w)

    def step(self, k: int, v: int, value, w: tuple) -> None:
        """``Kernel.step`` on a checked step, logging its letter, word and counts."""
        self.s_letters.append((v, value))
        self.nu_words.append(w)
        Kernel.step(self, k, v, value, w)
        self.syllable_counts.append(self.live)
        self.active_counts.append(len(self.stack))

    def pivotal_times(self) -> tuple[int, ...]:
        """Times pivotal with respect to the walk length (strictly before it)."""
        n = self.n
        return tuple(t for t, _ in self.stack if t < n)

    def to_debug_json(self) -> dict:
        """Each step's letter, word and rendered half-step and full-step
        pilings, replayed through one fresh kernel, and the pivotal times."""
        labels = self.graph.labels
        kernel = Kernel(self.graph, self.groups)
        steps = []
        for (v, val), word in zip(self.s_letters, self.nu_words):
            kernel.append(v, val)
            half = kernel.render(labels)
            for letter in word:
                kernel.append(*letter)
            steps.append({
                "s": f"{labels[v]}^{val}",
                "w": [f"{labels[wv]}^{wval}" for wv, wval in word],
                "half": half,
                "full": kernel.render(labels),
            })
        return {"steps": steps, "pivotal_times": list(self.pivotal_times())}


def strong_choice_vertices(
    f_prev: Kernel, w: Word, graph: Graph, groups: Sequence[VertexGroup]
) -> frozenset[int]:
    """All vertices whose letters qualify under the strong pivot condition
    after the walk folded into ``f_prev``: stronger than local geodesic,
    the vertex also avoids the closed neighbourhood of the word's initial
    clique, so swapping it in cannot disturb any other pivotal time."""
    _require_nontrivial(w, groups)
    w_init = fold(w, graph, groups).init()
    blocked = set(f_prev.term()) | w_init
    for u in w_init:
        blocked |= graph.neighbors[u]
    return frozenset(range(graph.vertex_count)) - blocked


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
    if s_new[0] not in strong_choice_vertices(rebuilt, w, trace.graph, trace.groups):
        raise ValueError("replacement letter fails the strong pivot condition")
    for s, word in [(s_new, w)] + steps[k:]:
        rebuilt.extend(s, word)
    return rebuilt


def _sample(graph: Graph, nu, steps: int, seed: int, walk: Kernel) -> tuple:
    """Both walks' loop: draw steps 1..steps in a fixed order (the vertex
    as ``randrange(D)``, its value, the nu word), check each (a word tuple
    returned again is not checked again) and fold it by ``walk.step``.  Returns
    ``(live, depth, gains)`` before the last step, and ``gains`` after it."""
    rng = Random(seed)
    groups, stack, step = walk.groups, walk.stack, walk.step
    getrandbits, d, sample = rng.getrandbits, graph.vertex_count, nu.sample
    bits = d.bit_length()
    if steps > 0 and not bits:
        raise ValueError("graph needs at least one vertex")
    checked = None
    gains = 0
    before = (0, 0, 0)
    for k in range(1, steps + 1):
        if k == steps:
            before = (walk.live, len(stack), gains)
        # rng.randrange(d)
        v = getrandbits(bits)
        while v >= d:
            v = getrandbits(bits)
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
        step(k, v, value, w)
        if stack and stack[-1][0] == k:
            gains += 1
    return before, gains


def run_walk(graph: Graph, groups: Sequence[VertexGroup], nu, steps: int, seed: int) -> WalkTrace:
    """Sample and fold a walk through :func:`_sample`; deterministic in the
    seed.  ``nu`` is any object with ``.sample(rng, graph, groups) -> Word``."""
    trace = WalkTrace(graph, groups)
    _sample(graph, nu, steps, seed, trace)
    return trace


def walk_record(
    graph: Graph, groups: Sequence[VertexGroup], nu, steps: int, seed: int
) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """The walk :func:`run_walk` samples, through the same loop, reduced
    as it runs to what a batch keeps of it: no letters, words or per-step
    counts are kept.

    Returns ``(syllable_pair, active_pair, gain_pair)``: the syllable
    length, the surviving candidates among times 1..k and the steps among
    1..k whose time survived its step, each as a pair of the values after
    step k = steps - 1 and k = steps (step 0 reads 0)."""
    kernel = Kernel(graph, tuple(groups))
    before, gains = _sample(graph, nu, steps, seed, kernel)
    return (before[0], kernel.live), (before[1], len(kernel.stack)), (before[2], gains)
