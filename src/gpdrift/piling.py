"""The piling normal form for elements of a graph product.

A piling assigns to each vertex a string over a two-sorted alphabet: the
vertex's own nontrivial group elements, and a zero marker contributed by
every letter placed at a non-adjacent vertex.  Appending a letter either
starts a new element on its own string (when that string is empty or ends
in a zero) or merges with the trailing element, possibly cancelling it;
cancellation also retracts one trailing zero from every non-adjacent
string.  The number of nontrivial letters is exactly the syllable length
of the group element.

Representation: each string is a tuple of ``(value, zeros_before)``
entries, bottom to top, one per nontrivial letter, where ``zeros_before``
counts the zero markers just below that letter; the trailing run of each
string is kept apart in ``_tails``.  An append rebuilds only the string
it touches, so pilings replayed from one walk share every other string
tuple, and ``is_prefix`` settles those on identity.  The walk, pivot
replacement and the debug dump fold their letters into the mutable
kernel of ``walk``.  Pilings serve the tests and the definition scan,
which is here too: :func:`replay_pilings` replays a walk's pilings and
:func:`pivotal_times_bruteforce` checks the pivotal-time definition on
them.  ``string()`` materializes the conventional letter sequence
(``None`` is the zero marker, ``(vertex, value)`` a nontrivial letter)
for rendering, linearization, and invariant checks.

Pilings are immutable values: every operation returns a new piling and
never mutates its inputs, so they are safe to share across threads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from .graphs import Graph
from .groups import VertexGroup

if TYPE_CHECKING:
    from .walk import MuLetter, WalkTrace

# A materialized letter: None is the zero marker, otherwise (vertex, value).
Letter = Optional[tuple[int, object]]
# A word: nontrivial vertex-group elements tagged with their vertex.
Word = Sequence[tuple[int, object]]


class CorruptPilingError(RuntimeError):
    """An internal structural invariant failed (forged input or a bug)."""


def _replace(items: tuple, index: int, value) -> tuple:
    return items[:index] + (value,) + items[index + 1 :]


class Piling:
    """Immutable normal form for a graph-product element."""

    __slots__ = ("_strings", "_tails", "_syllables")

    def __init__(
        self, strings: tuple[tuple, ...], tails: tuple[int, ...], syllables: int
    ):
        self._strings = strings
        self._tails = tails
        self._syllables = syllables

    @property
    def d(self) -> int:
        return len(self._strings)

    @property
    def syllables(self) -> int:
        return self._syllables

    def string(self, i: int) -> tuple[Letter, ...]:
        """Materialize string ``i`` as explicit letters."""
        out: list[Letter] = []
        for value, zeros in self._strings[i]:
            out.extend([None] * zeros)
            out.append((i, value))
        out.extend([None] * self._tails[i])
        return tuple(out)

    def strings(self) -> tuple[tuple[Letter, ...], ...]:
        return tuple(self.string(i) for i in range(self.d))

    def ends_nontrivial(self, i: int) -> bool:
        return bool(self._strings[i]) and self._tails[i] == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Piling):
            return NotImplemented
        return (
            self._syllables == other._syllables
            and self._tails == other._tails
            and self._strings == other._strings
        )

    __hash__ = None  # mutable-feeling value type; not meant for dict keys

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Piling d={self.d} syllables={self._syllables}>"


def empty_piling(d: int) -> Piling:
    if d < 1:
        raise ValueError("a piling needs at least one string")
    return Piling(((),) * d, (0,) * d, 0)


def append(
    p: Piling, vertex: int, value, graph: Graph, groups: Sequence[VertexGroup]
) -> Piling:
    """Multiply on the right by one nontrivial vertex-group element."""
    group = groups[vertex]
    if group.is_identity(value):
        raise ValueError("letters must be nontrivial vertex-group elements")
    s = p._strings[vertex]
    if s and p._tails[vertex] == 0:
        # String ends in an element of the same group: merge or cancel.
        top, zeros = s[-1]
        merged = group.multiply(top, value)
        if not group.is_identity(merged):
            s = s[:-1] + ((merged, zeros),)
            return Piling(_replace(p._strings, vertex, s), p._tails, p._syllables)
        # Cancellation retracts one trailing zero from every non-adjacent
        # string, and the element's own zero run becomes the trailing run.
        tails = list(p._tails)
        for j in graph.nonneighbors[vertex]:
            if tails[j] <= 0:
                raise CorruptPilingError(
                    f"cancellation at vertex {vertex} found no trailing zero "
                    f"on string {j}"
                )
            tails[j] -= 1
        tails[vertex] = zeros
        return Piling(_replace(p._strings, vertex, s[:-1]), tuple(tails), p._syllables - 1)
    # Fresh letter: it closes the zero run on its own string and drops a
    # zero marker on every non-adjacent string.
    s += ((value, p._tails[vertex]),)
    tails = list(p._tails)
    for j in graph.nonneighbors[vertex]:
        tails[j] += 1
    tails[vertex] = 0
    return Piling(_replace(p._strings, vertex, s), tuple(tails), p._syllables + 1)


def piling_of_word(word: Word, graph: Graph, groups: Sequence[VertexGroup]) -> Piling:
    p = empty_piling(graph.vertex_count)
    for vertex, value in word:
        p = append(p, vertex, value, graph, groups)
    return p


def term(p: Piling) -> frozenset[int]:
    """Vertices whose string ends in a nontrivial element (a clique)."""
    return frozenset(i for i in range(p.d) if p.ends_nontrivial(i))


def init(p: Piling) -> frozenset[int]:
    """Vertices whose string starts with a nontrivial element (a clique)."""
    return frozenset(i for i, s in enumerate(p._strings) if s and s[0][1] == 0)


def invert(p: Piling, groups: Sequence[VertexGroup]) -> Piling:
    """Reverse every string and invert every element; zeros stay put."""
    new_strings = []
    for i in range(p.d):
        rev: list[Letter] = []
        for letter in reversed(p.string(i)):
            rev.append(None if letter is None else (i, groups[i].invert(letter[1])))
        new_strings.append(rev)
    return from_strings(new_strings)


def concat(p: Piling, q: Piling) -> Piling:
    """Coordinatewise concatenation; valid when term(p) misses init(q)."""
    if p.d != q.d:
        raise ValueError("pilings have different string counts")
    overlap = term(p) & init(q)
    if overlap:
        raise ValueError(
            f"cannot concatenate: terminal and initial cliques share {sorted(overlap)}"
        )
    return from_strings([p.string(i) + q.string(i) for i in range(p.d)])


def is_prefix(p: Piling, q: Piling) -> bool:
    """True when every string of ``p`` is a letterwise prefix in ``q``.

    Nontrivial letters compare by exact group-element equality.  The
    entries of each string of ``p`` must start the matching string of
    ``q``, and the trailing run of ``p`` must be no longer than the zero
    run that follows them in ``q``: the ``zeros_before`` of ``q``'s next
    entry, or ``q``'s trailing run when there is none.  Pilings replayed
    from one walk share the strings a step left alone, so most strings
    are settled by identity.
    """
    if p.d != q.d:
        raise ValueError("pilings have different string counts")
    for a, pz, b, qz in zip(p._strings, p._tails, q._strings, q._tails):
        if a is not b:
            n = len(a)
            if b[:n] != a:
                return False
            if len(b) > n:
                qz = b[n][1]
        if pz > qz:
            return False
    return True


def linearize(p: Piling, graph: Graph) -> list[tuple[int, object]]:
    """Pop the piling back into a word whose piling is ``p``.

    Greedy rule: take the lowest-indexed vertex whose string starts with an
    element while every non-adjacent string starts with a zero; emit the
    element and retract the leading zeros it accounts for.  Any valid
    piling empties out; anything else is corrupt.
    """
    strs = [list(p.string(i))[::-1] for i in range(p.d)]  # reversed: pop from end
    total = sum(len(s) for s in strs)
    word: list[tuple[int, object]] = []
    nonneighbors = graph.nonneighbors
    while total > 0:
        for i in range(p.d):
            s = strs[i]
            if not s or s[-1] is None:
                continue
            if all(strs[j] and strs[j][-1] is None for j in nonneighbors[i]):
                word.append((i, s.pop()[1]))
                total -= 1
                for j in nonneighbors[i]:
                    strs[j].pop()
                    total -= 1
                break
        else:
            raise CorruptPilingError("no poppable vertex but letters remain")
    return word


def from_strings(strings: Sequence[Iterable[Letter]]) -> Piling:
    """Build a piling from explicit letter strings, validating structure.

    Zero-accounting against a graph is a separate check (``validate``);
    this only enforces per-string shape: letters live on their own string
    and two elements are never adjacent (they would have merged).
    """
    if not strings:
        raise ValueError("a piling needs at least one string")
    entries: list[tuple] = []
    tails: list[int] = []
    for i, letters in enumerate(strings):
        string: list[tuple[object, int]] = []
        run = 0
        for letter in letters:
            if letter is None:
                run += 1
                continue
            vertex, value = letter
            if vertex != i:
                raise ValueError(f"string {i} holds a letter for vertex {vertex}")
            if string and run == 0:
                raise ValueError(
                    f"string {i} has two adjacent elements; they should have merged"
                )
            string.append((value, run))
            run = 0
        entries.append(tuple(string))
        tails.append(run)
    return Piling(tuple(entries), tuple(tails), sum(map(len, entries)))


def validate(p: Piling, graph: Graph) -> None:
    """Check the zero-accounting invariant against a graph; raise if broken.

    The number of zero markers on string j must equal the number of
    nontrivial letters sitting at vertices not adjacent to j.
    """
    if p.d != graph.vertex_count:
        raise ValueError("piling and graph disagree on the vertex count")
    strings = p.strings()
    elem_counts = [sum(1 for x in s if x is not None) for s in strings]
    for j in range(p.d):
        zeros = sum(1 for x in strings[j] if x is None)
        expected = sum(elem_counts[v] for v in graph.nonneighbors[j])
        if zeros != expected:
            raise CorruptPilingError(
                f"string {j} holds {zeros} zeros but non-adjacent strings hold "
                f"{expected} elements"
            )
    if sum(elem_counts) != p._syllables:
        raise CorruptPilingError("cached syllable count is stale")


def render(p: Piling, labels: Sequence[str] | None = None) -> str:
    """Debug form: strings comma-separated, zeros as ``0``, elements as
    ``label^value``; the empty string renders as ``ε``."""
    if labels is None:
        labels = [str(i) for i in range(p.d)]
    return ", ".join(
        " ".join("0" if x is None else f"{labels[i]}^{x[1]}" for x in p.string(i))
        or "ε"
        for i in range(p.d)
    )


def replay_pilings(trace: WalkTrace, k: int | None = None) -> tuple[list[Piling], list[Piling]]:
    """Replay the half-step and the full-step piling of each of the
    first k steps of a walk trace (of every step when k is None)."""
    half: list[Piling] = []
    full: list[Piling] = []
    graph, groups = trace.graph, trace.groups
    f = empty_piling(graph.vertex_count)
    for s, w in zip(trace.s_letters[:k], trace.nu_words[:k]):
        f = append(f, *s, graph, groups)
        half.append(f)
        for letter in w:
            f = append(f, *letter, graph, groups)
        full.append(f)
    return half, full


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


def pivotal_times_bruteforce(trace: WalkTrace, n: int | None = None) -> list[int]:
    """Direct check of the pivotal-time definition against replayed pilings.

    Quadratic; this is the oracle the incremental stack is tested against.
    """
    if n is None:
        n = trace.n
    if n > trace.n:
        raise ValueError("horizon exceeds the trace length")
    half, full = replay_pilings(trace)
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
