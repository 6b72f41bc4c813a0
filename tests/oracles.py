"""Independent brute-force oracles the test suite checks the library against.

Everything here is deliberately dumb: materialized letter tuples, exhaustive
subset scans, truncated series.  None of it shares code with the structures
under test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations
from random import Random

from gpdrift.graphs import Graph, make_graph
from gpdrift.groups import VertexGroup, groups_from_spec


# --- naive piling: the inductive letter-append rule on materialized tuples ---

def naive_empty(d):
    return tuple(() for _ in range(d))


def naive_append(strings, vertex, value, graph: Graph, groups):
    """One letter, by cases on how the vertex's string ends."""
    group = groups[vertex]
    assert not group.is_identity(value)
    out = [list(s) for s in strings]
    s = out[vertex]
    if s and s[-1] is not None:
        merged = group.multiply(s[-1][1], value)
        if group.is_identity(merged):
            s.pop()
            for j in graph.nonneighbors[vertex]:
                assert out[j] and out[j][-1] is None, "missing trailing zero"
                out[j].pop()
        else:
            s[-1] = (vertex, merged)
    else:
        s.append((vertex, value))
        for j in graph.nonneighbors[vertex]:
            out[j].append(None)
    return tuple(tuple(x) for x in out)


def naive_piling(word, graph: Graph, groups):
    strings = naive_empty(graph.vertex_count)
    for vertex, value in word:
        strings = naive_append(strings, vertex, value, graph, groups)
    return strings


def tuple_is_prefix(p_strings, q_strings) -> bool:
    return all(q[: len(p)] == p for p, q in zip(p_strings, q_strings))


def naive_walk(steps, graph: Graph, groups):
    """Syllable counts, active counts and pivotal times after each step of
    a walk, straight from the definitions on materialized strings.

    Time i is a candidate after step k >= i when it is a local geodesic
    (s_i leaves the terminal clique of the previous full step and the
    initial clique of w_i misses the terminal clique of the half step) and
    the half step of i is a prefix of every half and full step from i to k.
    """
    def term(strings):
        return {v for v, s in enumerate(strings) if s and s[-1] is not None}

    f = naive_empty(graph.vertex_count)
    halves, fulls, geodesic = [], [], []
    for (v, value), w in steps:
        h = naive_append(f, v, value, graph, groups)
        w_strings = naive_piling(w, graph, groups)
        w_init = {u for u, s in enumerate(w_strings) if s and s[0] is not None}
        geodesic.append(v not in term(f) and not (w_init & term(h)))
        f = h
        for wv, wval in w:
            f = naive_append(f, wv, wval, graph, groups)
        halves.append(h)
        fulls.append(f)

    def candidate(i, k):
        anchor = halves[i - 1]
        return geodesic[i - 1] and all(
            tuple_is_prefix(anchor, p) for j in range(i - 1, k) for p in (halves[j], fulls[j])
        )

    horizons = range(1, len(steps) + 1)
    syllables = [sum(x is not None for s in p for x in s) for p in fulls]
    active = [sum(candidate(i, k) for i in range(1, k + 1)) for k in horizons]
    pivotal = [[i for i in range(1, k) if candidate(i, k)] for k in horizons]
    return syllables, active, pivotal


# --- word-level rewriting: BFS over swaps, merges, cancellations ---

def min_syllable_bfs(word, graph: Graph, groups) -> int:
    """Shortest word reachable by commuting swaps and same-vertex merges."""
    start = tuple(word)
    seen = {start}
    frontier = [start]
    best = len(start)
    while frontier:
        nxt = []
        for w in frontier:
            if len(w) < best:
                best = len(w)
            for i in range(len(w) - 1):
                (v1, g1), (v2, g2) = w[i], w[i + 1]
                if v1 == v2:
                    merged = groups[v1].multiply(g1, g2)
                    if groups[v1].is_identity(merged):
                        w2 = w[:i] + w[i + 2 :]
                    else:
                        w2 = w[:i] + ((v1, merged),) + w[i + 2 :]
                elif graph.adjacent(v1, v2):
                    w2 = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
                else:
                    continue
                if w2 not in seen:
                    seen.add(w2)
                    nxt.append(w2)
        frontier = nxt
    return best


# --- exhaustive rewriting closure over all short words ---

def minimal_lengths_by_rewriting(graph: Graph, modulus: int, max_len: int):
    """Minimal reachable word length for every word up to ``max_len``.

    Same move set as ``min_syllable_bfs`` (commuting swaps, same-vertex
    merges and cancellations), computed for all words at once, level by
    level: shrink moves consult the already-converged shorter levels, and
    swap moves iterate to a fixpoint within a level.  Words are coded in
    base ``k*(modulus-1)`` with digit = (modulus-1)*vertex + (value-1), the
    letter at position p in digit p.

    Returns a list of numpy arrays, one per length, indexed by word code.
    """
    import numpy as np

    k = graph.vertex_count
    vals = modulus - 1
    base = k * vals
    adj = np.zeros((k, k), dtype=bool)
    for i, j in graph.edges:
        adj[i, j] = adj[j, i] = True

    levels = [np.zeros(1, dtype=np.int8)]
    for length in range(1, max_len + 1):
        codes = np.arange(base**length, dtype=np.int64)
        m = np.full(base**length, length, dtype=np.int8)
        swap_edges = []
        for p in range(length - 1):
            d1 = (codes // base**p) % base
            d2 = (codes // base ** (p + 1)) % base
            v1, v2 = d1 // vals, d2 // vals
            g1, g2 = d1 % vals + 1, d2 % vals + 1
            same = v1 == v2
            total = (g1 + g2) % modulus
            cancel = same & (total == 0)
            if cancel.any():
                low = codes[cancel] % base**p
                high = codes[cancel] // base ** (p + 2)
                target = low + high * base**p
                np.minimum.at(m, codes[cancel], levels[length - 2][target])
            merge = same & (total != 0)
            if merge.any():
                low = codes[merge] % base**p
                high = codes[merge] // base ** (p + 2)
                digit = v1[merge] * vals + (total[merge] - 1)
                target = low + digit * base**p + high * base ** (p + 1)
                np.minimum.at(m, codes[merge], levels[length - 1][target])
            swap = adj[v1, v2]
            if swap.any():
                delta = (d2[swap] - d1[swap]) * (base**p - base ** (p + 1))
                swap_edges.append((codes[swap], codes[swap] + delta))
        for _ in range(max_len * max_len + 2):
            changed = False
            for src, dst in swap_edges:
                better = np.minimum(m[src], m[dst])
                if not np.array_equal(better, m[src]):
                    m[src] = better
                    changed = True
            if not changed:
                break
        else:
            raise AssertionError("swap propagation did not converge")
        levels.append(m)
    return levels


# --- clique statistics by exhaustive subset scan ---

def _is_clique(g: Graph, subset) -> bool:
    return all(g.adjacent(i, j) for i, j in combinations(subset, 2))


def max_clique_bruteforce(g: Graph) -> int:
    best = 1
    for size in range(2, g.vertex_count + 1):
        if not any(
            _is_clique(g, subset)
            for subset in combinations(range(g.vertex_count), size)
        ):
            break
        best = size
    return best


def max_neighbourhood_bruteforce(g: Graph) -> int:
    """|closed neighbourhood| maximized over every nonempty clique."""
    best = 0
    for size in range(1, g.vertex_count + 1):
        found = False
        for subset in combinations(range(g.vertex_count), size):
            if not _is_clique(g, subset):
                continue
            found = True
            closed = set(subset)
            for v in subset:
                closed |= g.neighbors[v]
            best = max(best, len(closed))
        if not found:
            break
    return best


# --- truncated series for the increment distribution ---

def mgf_series(t: float, b: int, c: int, d: int, tol: float = 1e-16) -> float:
    p = (d - b - c) / d
    q = (b + c) / d
    r = b / (d - b - c)
    total = math.exp(-t) * p
    j = 1
    while True:
        mass = q * (r ** (j - 1)) * (1 - r)
        term = math.exp(t * j) * mass
        total += term
        if term < tol and mass < tol:
            return total
        j += 1
        assert j < 10_000_000, "series did not converge"


def mean_series(b: int, c: int, d: int, tol: float = 1e-15) -> float:
    p = (d - b - c) / d
    q = (b + c) / d
    r = b / (d - b - c)
    total = p
    j = 1
    while True:
        mass = q * (r ** (j - 1)) * (1 - r)
        total -= j * mass
        if j * mass < tol and (r ** j) < tol:
            return total
        j += 1
        assert j < 10_000_000, "series did not converge"


# --- the kappa optimizer as it stood before it searched through mgf_function ---
#
# ``mgf``, ``_golden_max``, ``drift_lower_bound`` and the three-Fraction
# ``mean`` of ``gpdrift.drift``, copied with the law's properties inlined.
# The library must reproduce every float of these bit for bit.

_REF_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def reference_mean(b: int, c: int, d: int):
    return Fraction(d - b - c, d) - Fraction(b + c, d) * Fraction(d - b - c, d - 2 * b - c)


def reference_mgf(t: float, b: int, c: int, d: int) -> float:
    if t < 0:
        raise ValueError("t must be nonnegative")
    x = math.exp(t)
    p, q, r = (d - b - c) / d, (b + c) / d, b / (d - b - c)
    if r * x >= 1.0:
        raise ValueError(f"t={t} is at or beyond the series pole ln((d-b-c)/b)")
    return p / x + q * (1.0 - r) * x / (1.0 - r * x)


def reference_t_max(b: int, c: int, d: int) -> float:
    if b > 0:
        return math.log((d - b - c) / b)
    p = (d - b - c) / d
    q = c / d
    x_hi = (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * p * q))) / (2.0 * q)
    return math.log(x_hi) + 1.0


def reference_golden_max(f, lo: float, hi: float, tol: float) -> float:
    x1 = hi - _REF_GOLDEN * (hi - lo)
    x2 = lo + _REF_GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _REF_GOLDEN * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _REF_GOLDEN * (hi - lo)
            f1 = f(x1)
    return (lo + hi) / 2.0


def reference_drift_bound(b: int, c: int, d: int) -> tuple[float, float, float]:
    """(kappa, t_star, mgf_at_t_star) for d > 3b + 2c."""
    assert d > 3 * b + 2 * c

    def rate(t: float) -> float:
        m = reference_mgf(t, b, c, d)
        return -math.inf if m >= 1.0 else -math.log(m) / (1.0 + t)

    t_max = reference_t_max(b, c, d)
    eps = 1e-12 * t_max
    t_star = reference_golden_max(rate, eps, t_max - eps, 1e-9)
    mgf_star = reference_mgf(t_star, b, c, d)
    assert mgf_star < 1.0
    return -math.log(mgf_star) / (1.0 + t_star), t_star, mgf_star


# --- seeded generators shared by randomized tests ---

def random_graph(d: int, p: float, rng: Random) -> Graph:
    edges = [
        (i, j)
        for i in range(d)
        for j in range(i + 1, d)
        if rng.random() < p
    ]
    return make_graph([f"v{i}" for i in range(d)], edges)


def random_word(graph: Graph, groups, length: int, rng: Random):
    word = []
    for _ in range(length):
        v = rng.randrange(graph.vertex_count)
        word.append((v, groups[v].sample_nontrivial(rng)))
    return word


def invert_word(word, groups):
    return [(v, groups[v].invert(val)) for v, val in reversed(word)]


class SymmetricGroup3(VertexGroup):
    """The permutations of three points, as tuples, composed right to left.
    Every built-in group is abelian; this one is not, so a product taken
    in the wrong order shows in the strings."""

    elements = tuple(permutations(range(3)))  # the identity first

    def multiply(self, x, y):
        return tuple(x[y[i]] for i in range(3))

    def invert(self, x):
        return tuple(x.index(i) for i in range(3))

    def is_identity(self, x) -> bool:
        return x == (0, 1, 2)

    def sample_nontrivial(self, rng: Random):
        return rng.choice(self.elements[1:])


S3 = SymmetricGroup3()


MIXED6 = groups_from_spec("z,zmod:2,zmod:3,z,zmod:2,zmod:3", 6)


def destroy_and_rebuild(groups):
    """c⁻¹b⁻¹a⁻¹·abcd on a, b, c, d = 0, 1, 2, 3: it takes letters off
    the walk and puts the same letters back."""
    return tuple((v, groups[v].from_int(k)) for v, k in ((2, -1), (1, -1), (0, -1), (0, 1), (1, 1), (2, 1), (3, 1)))
