"""Reference computations for checking gpdrift outputs.

Nothing here imports gpdrift.  Each quantity is recomputed from its
definition: the walk from the documented draw order of the seeded
generator, the normal form by folding letters into plain Python lists, the
pivotal times by scanning the definition, the clique constants by
enumerating every clique, and the drift bound by maximising the rate
function evaluated from its series.  A fault in the program therefore
cannot hide in a helper the check shares with it.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from random import Random

_MASK64 = (1 << 64) - 1


def trial_seed(base_seed: int, index: int) -> int:
    """The documented per-trial stream: splitmix64 of base + index * gamma."""
    z = (base_seed + index * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


# --- vertex groups ---------------------------------------------------------


class IntegerGroup:
    def sample(self, rng: Random) -> int:
        return rng.choice((1, -1))

    def from_int(self, k: int) -> int:
        return k

    def mul(self, x: int, y: int) -> int:
        return x + y

    def is_id(self, x: int) -> bool:
        return x == 0


class ModGroup:
    def __init__(self, m: int):
        self.m = m

    def sample(self, rng: Random) -> int:
        return rng.randrange(1, self.m)

    def from_int(self, k: int) -> int:
        return k % self.m

    def mul(self, x: int, y: int) -> int:
        return (x + y) % self.m

    def is_id(self, x: int) -> bool:
        return x % self.m == 0


def groups_of_spec(spec: str, d: int) -> list:
    parts = spec.split(",")
    if len(parts) == 1:
        parts = parts * d
    return [IntegerGroup() if p == "z" else ModGroup(int(p[5:])) for p in parts]


# --- nu samplers: the draws each sampler makes, in order --------------------


class Fixed:
    def __init__(self, word):
        self.word = tuple(word)

    def draw(self, rng, d, groups):
        return self.word


class Choice:
    def __init__(self, words):
        self.words = [tuple(w) for w in words]

    def draw(self, rng, d, groups):
        return self.words[rng.randrange(len(self.words))]


class Pareto:
    """P(M >= m) = m**-alpha through u**(-1/alpha) with u in (0, 1]."""

    def __init__(self, alpha: float):
        self.alpha = alpha

    def draw(self, rng, d, groups):
        v = rng.randrange(d)
        g = groups[v]
        while True:
            u = 1.0 - rng.random()
            try:
                magnitude = max(1, int(u ** (-1.0 / self.alpha)))
            except OverflowError:
                # Past the float range the exact floor of u**(-1/alpha),
                # for the whole-number 1/alpha of pareto:0.01.
                magnitude = math.floor(Fraction(u) ** int(-1.0 / self.alpha))
            sign = 1 if rng.random() < 0.5 else -1
            value = g.from_int(sign * magnitude)
            if not g.is_id(value):
                return ((v, value),)


def draw_walk(seed: int, d: int, groups, nu, n: int) -> list:
    """The (s, w) pairs of one walk: per step the letter, then the word."""
    rng = Random(seed)
    steps = []
    for _ in range(n):
        v = rng.randrange(d)
        s = (v, groups[v].sample(rng))
        steps.append((s, nu.draw(rng, d, groups)))
    return steps


# --- the normal form, folded naively ----------------------------------------


class Graph:
    def __init__(self, d: int, edges):
        self.d = d
        self.adj = [set() for _ in range(d)]
        for i, j in edges:
            self.adj[i].add(j)
            self.adj[j].add(i)
        self._nonadj: dict[int, list[int]] = {}

    def nonadj(self, v: int) -> list[int]:
        out = self._nonadj.get(v)
        if out is None:
            adj = self.adj[v]
            out = [j for j in range(self.d) if j != v and j not in adj]
            self._nonadj[v] = out
        return out


def cycle(d: int) -> Graph:
    return Graph(d, [(i, (i + 1) % d) for i in range(d)])


class Fold:
    """One list per vertex: its own elements, and None for each zero marker
    a letter at a non-adjacent vertex contributed.  A letter merges with
    the last entry of its string when that entry is an element, and a
    merge to the identity takes the element and one trailing zero of every
    non-adjacent string away again."""

    def __init__(self, graph: Graph, groups):
        self.graph = graph
        self.groups = groups
        self.strings = [[] for _ in range(graph.d)]
        self.syllables = 0
        self.dirty: set[int] = set()

    def push(self, v: int, x) -> None:
        g = self.groups[v]
        if g.is_id(x):
            raise AssertionError("identity letter")
        s = self.strings[v]
        self.dirty.add(v)
        if s and s[-1] is not None:
            merged = g.mul(s[-1], x)
            if not g.is_id(merged):
                s[-1] = merged
                return
            s.pop()
            self.syllables -= 1
            for j in self.graph.nonadj(v):
                t = self.strings[j]
                if not t or t[-1] is not None:
                    raise AssertionError(f"cancel at {v}: string {j} has no trailing zero")
                t.pop()
                self.dirty.add(j)
            return
        s.append(x)
        self.syllables += 1
        for j in self.graph.nonadj(v):
            self.strings[j].append(None)
            self.dirty.add(j)

    def ends_with_element(self, v: int) -> bool:
        s = self.strings[v]
        return bool(s) and s[-1] is not None

    def initial(self) -> set[int]:
        """Vertices whose string starts with an element."""
        return {i for i, s in enumerate(self.strings) if s and s[0] is not None}


def fold_word(word, graph: Graph, groups) -> Fold:
    f = Fold(graph, groups)
    for v, x in word:
        f.push(v, x)
    return f


def _lcp(a: list, b: list) -> int:
    if len(a) > len(b):
        a, b = b, a
    m = len(a)
    if b[:m] == a:
        return m
    lo, hi = 0, m - 1  # the common prefix is shorter than m
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def fold_syllables(steps, graph: Graph, groups) -> int:
    f = Fold(graph, groups)
    for (v, x), w in steps:
        f.push(v, x)
        for wv, wx in w:
            f.push(wv, wx)
    return f.syllables


class WalkScan:
    """Syllable length and pivotal times of one walk, from the definition.

    Time k is pivotal for horizon m when the step is a local geodesic
    (the letter does not land on an element ending its string, and the
    word's initial vertices do not end in an element after it) and the
    half-step piling H_k is a letterwise prefix of every later half- and
    full-step piling up to step m.

    The pilings after each half and full step form one sequence
    S_0 = F_0, S_1 = H_1, S_2 = F_1, ...  H_k = S_{2k-1} is a prefix of all
    of S_{2k-1} .. S_{2m} exactly when, string by string, its length is at
    most the common prefix of every neighbouring pair in that range (by
    induction along the sequence).  So the scan stores the common-prefix
    lengths of neighbouring snapshots, computed by comparing the
    materialised strings, not by trusting how they were built.
    """

    def __init__(self, steps, graph: Graph, groups):
        f = Fold(graph, groups)
        d = graph.d
        prev = [[] for _ in range(d)]
        lcps: list[list[int]] = []  # lcps[t][i] = lcp(S_t[i], S_{t+1}[i])
        lengths: list[list[int]] = []  # lengths[k-1][i] = len(H_k[i])
        geodesic: list[bool] = []
        self.syllables_after: list[int] = []

        def snapshot() -> None:
            row = [len(p) for p in prev]
            for i in f.dirty:
                cur = f.strings[i]
                row[i] = _lcp(prev[i], cur)
                prev[i] = cur[:]
            f.dirty.clear()
            lcps.append(row)

        for (v, x), w in steps:
            lands_on_element = f.ends_with_element(v)
            f.push(v, x)
            init = fold_word(w, graph, groups).initial()
            geodesic.append(
                not lands_on_element and not any(f.ends_with_element(u) for u in init)
            )
            snapshot()
            lengths.append([len(s) for s in f.strings])
            for wv, wx in w:
                f.push(wv, wx)
            snapshot()
            self.syllables_after.append(f.syllables)
        self.n = len(steps)
        self.syllables = f.syllables
        self._lcps = lcps
        self._lengths = lengths
        self._geodesic = geodesic
        self.death = self._deaths()

    def _deaths(self) -> list[int]:
        """Per time k: the first snapshot index u > 2k-1 that H_k is not a
        prefix of (2n+1 when it survives), or 2k-1 when k is no local
        geodesic.  One heap per string holds the live anchors by the length
        they need, so each anchor leaves once."""
        n = self.n
        alive = 2 * n + 1
        death = [2 * k - 1 for k in range(1, n + 1)]
        heaps: list[list[tuple[int, int]]] = [[] for _ in self._lengths[0]] if n else []
        for t in range(2 * n):
            k = (t + 1) // 2  # S_t is H_k when t is odd
            if t % 2 == 1 and self._geodesic[k - 1]:
                death[k - 1] = alive
                for i, need in enumerate(self._lengths[k - 1]):
                    if need:
                        heapq.heappush(heaps[i], (-need, k))
            row = self._lcps[t]
            for i, h in enumerate(heaps):
                while h and -h[0][0] > row[i]:
                    gone = heapq.heappop(h)[1]
                    if death[gone - 1] == alive:
                        death[gone - 1] = t + 1
        return death

    def pivotal_times(self) -> list[int]:
        """Times in 1..n-1 pivotal for the horizon n."""
        return [k for k in range(1, self.n) if self.death[k - 1] > 2 * self.n]

    def active_counts(self) -> list[int]:
        """After each step m, how many of the times 1..m are still alive."""
        births = [0] * (self.n + 2)
        deaths = [0] * (self.n + 2)
        for k in range(1, self.n + 1):
            u = self.death[k - 1]
            if u <= 2 * k - 1:
                continue
            births[k] += 1
            # alive at horizon m while every snapshot up to S_2m is extended
            last = min(self.n, (u - 1) // 2)
            deaths[last + 1] += 1
        out, alive = [], 0
        for m in range(1, self.n + 1):
            alive += births[m] - deaths[m]
            out.append(alive)
        return out


# --- clique constants -------------------------------------------------------


def clique_constants(d: int, edges) -> tuple[int, int]:
    """(B, C) by listing every clique, grown in increasing vertex order."""
    adj = [set() for _ in range(d)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    best_b = best_c = 0
    frontier = [((v,), {u for u in adj[v] if u > v}) for v in range(d)]
    while frontier:
        nxt = []
        for clique, ext in frontier:
            closed = set(clique)
            for v in clique:
                closed |= adj[v]
            best_b = max(best_b, len(closed))
            best_c = max(best_c, len(clique))
            for u in ext:
                nxt.append((clique + (u,), {x for x in ext & adj[u] if x > u}))
        frontier = nxt
    return best_b, best_c


def family_constants(family: str, d: int) -> tuple[int, int]:
    """Closed forms of (B, C) for the built-in families."""
    if family == "complete":
        return d, d
    if family == "edgeless":
        return 1, 1
    if family == "cycle":
        return (3, 3) if d == 3 else (4, 2)
    raise ValueError(family)


# --- the drift bound ---------------------------------------------------------


def mean_increment(b: int, c: int, d: int) -> Fraction:
    """E[U] for U = +1 w.p. (d-b-c)/d and P(U <= -j) = (b+c)/d * r**(j-1):
    the negative part has mean (b+c)/d / (1 - r), with r = b/(d-b-c)."""
    p = Fraction(d - b - c, d)
    q = Fraction(b + c, d)
    r = Fraction(b, d - b - c)
    return p - q / (1 - r)


def mgf_series(t: float, b: int, c: int, d: int) -> float:
    """E[exp(-t U)] summed term by term until the terms stop mattering."""
    p = (d - b - c) / d
    q = (b + c) / d
    total = p * math.exp(-t)
    if b == 0:
        return total + q * math.exp(t)
    r = b / (d - b - c)
    x = r * math.exp(t)
    if x >= 1.0:
        return math.inf
    term = q * (1.0 - r) * math.exp(t)  # P(U = -1) e^t
    j = 1
    while term > 1e-18 * total and j < 1_000_000:
        total += term
        term *= x
        j += 1
    return total


def rate(t: float, b: int, c: int, d: int) -> float:
    m = mgf_series(t, b, c, d)
    return -math.inf if m >= 1.0 else -math.log(m) / (1.0 + t)


def max_rate(b: int, c: int, d: int) -> tuple[float, float]:
    """(kappa, t) maximising the rate over the window where the moment is
    finite and below one: a 64-point grid, then golden-section search
    between the grid neighbours of the best point."""
    if b > 0:
        hi = math.log((d - b - c) / b)
    else:
        hi = math.log(d / c)
    points = [hi * i / 64 for i in range(1, 64)]
    values = [rate(t, b, c, d) for t in points]
    best = max(range(len(points)), key=values.__getitem__)
    lo = points[best - 1] if best > 0 else 0.0
    up = points[best + 1] if best + 1 < len(points) else hi
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = up - g * (up - lo), lo + g * (up - lo)
    f1, f2 = rate(x1, b, c, d), rate(x2, b, c, d)
    while up - lo > 1e-12 * max(1.0, hi):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (up - lo)
            f2 = rate(x2, b, c, d)
        else:
            up, x2, f2 = x2, x1, f1
            x1 = up - g * (up - lo)
            f1 = rate(x1, b, c, d)
    t = (lo + up) / 2.0
    return rate(t, b, c, d), t


def wilson_upper(successes: int, n: int, z: float = 2.3263478740408408) -> float:
    """One-sided 99% Wilson score upper limit of a binomial proportion."""
    phat = successes / n
    centre = phat + z * z / (2 * n)
    radius = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return min(1.0, (centre + radius) / (1 + z * z / n))
