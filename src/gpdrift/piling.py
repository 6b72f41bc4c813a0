"""The piling normal form for elements of a graph product.

A piling assigns to each vertex a string over a two-sorted alphabet: the
vertex's own nontrivial group elements, and a zero marker contributed by
every letter placed at a non-adjacent vertex.  Appending a letter either
starts a new element on its own string (when that string is empty or ends
in a zero) or merges with the trailing element, possibly cancelling it;
cancellation also retracts one trailing zero from every non-adjacent
string.  The number of nontrivial letters is exactly the syllable length
of the group element.

Representation: strings are persistent stacks with one node per
nontrivial letter; the zero markers between elements are stored as
run-length counts on the nodes, and the trailing run of each string is
kept on the piling itself.  There is no cache of leading runs: the rare
reader that needs one (``init``, and ``is_prefix`` against an empty
string) walks down to the bottom node of the string.  Appends are O(1)
per affected string, and the walk machinery can hold thousands of
snapshots that share structure.
``string()`` materializes the conventional letter sequence (``None`` is
the zero marker, ``(vertex, value)`` a nontrivial letter) for rendering,
linearization, and invariant checks.

Pilings are immutable values: every operation returns a new piling and
never mutates its inputs, so they are safe to share across threads.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .graphs import Graph
from .groups import VertexGroup

# A materialized letter: None is the zero marker, otherwise (vertex, value).
Letter = Optional[tuple[int, object]]
# A word: nontrivial vertex-group elements tagged with their vertex.
Word = Sequence[tuple[int, object]]


class CorruptPilingError(RuntimeError):
    """An internal structural invariant failed (forged input or a bug)."""


class _Entry:
    """One nontrivial letter on a string, with the zero run preceding it."""

    __slots__ = ("value", "zeros_before", "depth", "parent")

    def __init__(self, value, zeros_before: int, depth: int, parent: "_Entry | None"):
        self.value = value
        self.zeros_before = zeros_before
        self.depth = depth
        self.parent = parent


def _replace(items: tuple, index: int, value) -> tuple:
    return items[:index] + (value,) + items[index + 1 :]


def _bottom(entry: _Entry) -> _Entry:
    # The first letter of a string; its zeros_before is the leading run.
    while entry.parent is not None:
        entry = entry.parent
    return entry


def _stack_equal(a: _Entry | None, b: _Entry | None) -> bool:
    # Structural equality with an identity fast path: snapshots from one
    # walk share tails, so the loop usually exits on ``a is b`` immediately.
    while a is not b:
        if a is None or b is None:
            return False
        if a.zeros_before != b.zeros_before or a.value != b.value:
            return False
        a = a.parent
        b = b.parent
    return True


class Piling:
    """Immutable normal form for a graph-product element."""

    __slots__ = ("_tops", "_tails", "_syllables")

    def __init__(
        self, tops: tuple[_Entry | None, ...], tails: tuple[int, ...], syllables: int
    ):
        self._tops = tops
        self._tails = tails
        self._syllables = syllables

    @property
    def d(self) -> int:
        return len(self._tops)

    @property
    def syllables(self) -> int:
        return self._syllables

    def string(self, i: int) -> tuple[Letter, ...]:
        """Materialize string ``i`` as explicit letters."""
        chain = []
        entry = self._tops[i]
        while entry is not None:
            chain.append(entry)
            entry = entry.parent
        out: list[Letter] = []
        for entry in reversed(chain):
            out.extend([None] * entry.zeros_before)
            out.append((i, entry.value))
        out.extend([None] * self._tails[i])
        return tuple(out)

    def strings(self) -> tuple[tuple[Letter, ...], ...]:
        return tuple(self.string(i) for i in range(self.d))

    def ends_nontrivial(self, i: int) -> bool:
        return self._tops[i] is not None and self._tails[i] == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Piling):
            return NotImplemented
        return (
            self._syllables == other._syllables
            and self._tails == other._tails
            and all(map(_stack_equal, self._tops, other._tops))
        )

    __hash__ = None  # mutable-feeling value type; not meant for dict keys

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Piling d={self.d} syllables={self._syllables}>"


def empty_piling(d: int) -> Piling:
    if d < 1:
        raise ValueError("a piling needs at least one string")
    return Piling((None,) * d, (0,) * d, 0)


def append(
    p: Piling, vertex: int, value, graph: Graph, groups: Sequence[VertexGroup]
) -> Piling:
    """Multiply on the right by one nontrivial vertex-group element."""
    group = groups[vertex]
    if group.is_identity(value):
        raise ValueError("letters must be nontrivial vertex-group elements")
    top = p._tops[vertex]
    if top is not None and p._tails[vertex] == 0:
        # String ends in an element of the same group: merge or cancel.
        merged = group.multiply(top.value, value)
        if group.is_identity(merged):
            return _cancel(p, vertex, graph, top)
        new_top = _Entry(merged, top.zeros_before, top.depth, top.parent)
        return Piling(_replace(p._tops, vertex, new_top), p._tails, p._syllables)
    # Fresh letter: it closes the zero run on its own string and drops a
    # zero marker on every non-adjacent string.
    entry = _Entry(value, p._tails[vertex], (top.depth + 1) if top else 1, top)
    tails = list(p._tails)
    for j in graph.nonneighbors[vertex]:
        tails[j] += 1
    tails[vertex] = 0
    return Piling(_replace(p._tops, vertex, entry), tuple(tails), p._syllables + 1)


def _cancel(p: Piling, vertex: int, graph: Graph, top: _Entry) -> Piling:
    tails = list(p._tails)
    for j in graph.nonneighbors[vertex]:
        if tails[j] <= 0:
            raise CorruptPilingError(
                f"cancellation at vertex {vertex} found no trailing zero on string {j}"
            )
        tails[j] -= 1
    tails[vertex] = top.zeros_before
    return Piling(_replace(p._tops, vertex, top.parent), tuple(tails), p._syllables - 1)


def piling_of_word(word: Word, graph: Graph, groups: Sequence[VertexGroup]) -> Piling:
    p = empty_piling(graph.vertex_count)
    for vertex, value in word:
        p = append(p, vertex, value, graph, groups)
    return p


def term(p: Piling) -> frozenset[int]:
    """Vertices whose string ends in a nontrivial element (a clique)."""
    tails = p._tails
    return frozenset(
        i for i, top in enumerate(p._tops) if top is not None and tails[i] == 0
    )


def init(p: Piling) -> frozenset[int]:
    """Vertices whose string starts with a nontrivial element (a clique)."""
    return frozenset(
        i
        for i, top in enumerate(p._tops)
        if top is not None and _bottom(top).zeros_before == 0
    )


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

    Nontrivial letters compare by exact group-element equality.  Each
    string of ``q`` is walked down to the depth of the matching string of
    ``p`` (an empty string has depth 0), keeping the zero run that follows
    the node reached; the two stacks must then be equal and the trailing
    run of ``p`` no longer than that run.  Hot path for the walk
    machinery: when the strings share their top node (the usual case
    across snapshots of one walk) the check is a couple of comparisons.
    """
    if p.d != q.d:
        raise ValueError("pilings have different string counts")
    for a, pz, b, qz in zip(p._tops, p._tails, q._tops, q._tails):
        if a is not b:
            depth = a.depth if a is not None else 0
            while b is not None and b.depth > depth:
                qz = b.zeros_before
                b = b.parent
            if not (a is b or _stack_equal(a, b)):
                return False
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
    d = len(strings)
    if d < 1:
        raise ValueError("a piling needs at least one string")
    tops: list[_Entry | None] = [None] * d
    tails = [0] * d
    syllables = 0
    for i, letters in enumerate(strings):
        run = 0
        for letter in letters:
            if letter is None:
                run += 1
                continue
            vertex, value = letter
            if vertex != i:
                raise ValueError(f"string {i} holds a letter for vertex {vertex}")
            if tops[i] is not None and run == 0:
                raise ValueError(
                    f"string {i} has two adjacent elements; they should have merged"
                )
            tops[i] = _Entry(value, run, (tops[i].depth + 1) if tops[i] else 1, tops[i])
            syllables += 1
            run = 0
        tails[i] = run
    return Piling(tuple(tops), tuple(tails), syllables)


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
    parts = []
    for i in range(p.d):
        s = p.string(i)
        if not s:
            parts.append("ε")
        else:
            parts.append(
                " ".join("0" if x is None else f"{labels[i]}^{x[1]}" for x in s)
            )
    return ", ".join(parts)
