"""Vertex groups: the operations the normal form needs from each factor.

Elements are opaque to the rest of the library; a group object supplies
multiplication, inversion, an identity test, and a sampler that never
returns the identity (the letter alphabet excludes it).
"""

from __future__ import annotations

from random import Random

from ._frozen import Frozen


class VertexGroup:
    """Interface for one vertex group."""

    __slots__ = ()

    def multiply(self, x, y):
        raise NotImplementedError

    def invert(self, x):
        raise NotImplementedError

    def is_identity(self, x) -> bool:
        raise NotImplementedError

    def sample_nontrivial(self, rng: Random):
        """A random non-identity element.  The built-in groups consume
        ``rng`` exactly as ``choice``/``randrange`` would (the same values
        and the same state afterwards); a custom group may draw any way it
        likes."""
        raise NotImplementedError

    def from_int(self, k: int):
        """Map an integer onto a group element; magnitude samplers use this."""
        raise NotImplementedError


class IntegerGroup(Frozen, VertexGroup):
    """Infinite cyclic group written additively; elements are nonzero ints.

    Immutable, and every instance is equal to every other."""

    __slots__ = ()  # no instance attributes, so none can be set

    def multiply(self, x, y):
        return x + y

    def invert(self, x):
        return -x

    def is_identity(self, x) -> bool:
        return x == 0

    def sample_nontrivial(self, rng: Random):
        # rng.choice((1, -1)): 1 for r = 0, -1 for r = 1
        r = rng.getrandbits(2)
        while r >= 2:
            r = rng.getrandbits(2)
        return -1 if r else 1

    def from_int(self, k: int):
        return int(k)


class CyclicGroup(Frozen, VertexGroup):
    """Integers mod ``modulus`` under addition; elements are 0..modulus-1.

    Immutable; equal and hashed by ``modulus``."""

    _fields = ("modulus",)
    modulus: int

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        Frozen.__init__(self, modulus)

    def multiply(self, x, y):
        return (x + y) % self.modulus

    def invert(self, x):
        return (-x) % self.modulus

    def is_identity(self, x) -> bool:
        return x % self.modulus == 0

    def sample_nontrivial(self, rng: Random):
        # rng.randrange(1, modulus)
        n = self.modulus - 1
        k = n.bit_length()
        r = rng.getrandbits(k)
        while r >= n:
            r = rng.getrandbits(k)
        return 1 + r

    def from_int(self, k: int):
        return k % self.modulus


def uniform_groups(count: int, group: VertexGroup | None = None) -> tuple[VertexGroup, ...]:
    """One shared group object for every vertex (default: the integers)."""
    return tuple([group if group is not None else IntegerGroup()] * count)


def _parse_group(entry: str) -> VertexGroup:
    if entry == "z":
        return IntegerGroup()
    if entry.startswith("zmod:"):
        try:
            return CyclicGroup(int(entry[5:]))
        except ValueError as exc:
            raise ValueError(f"bad modulus in group spec {entry!r}") from exc
    raise ValueError(f"unknown group spec {entry!r} (expected 'z' or 'zmod:<m>')")


def groups_from_spec(spec: str, count: int) -> tuple[VertexGroup, ...]:
    """Parse ``"z"``, ``"zmod:5"``, or a comma list with one entry per
    vertex.  Each distinct entry is parsed once, in list order, and the
    vertices it names share that one group object."""
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) == 1:
        return uniform_groups(count, _parse_group(parts[0]))
    if len(parts) != count:
        raise ValueError(f"group spec lists {len(parts)} entries for {count} vertices")
    parsed: dict[str, VertexGroup] = {}
    for p in parts:
        if p not in parsed:
            parsed[p] = _parse_group(p)
    return tuple(parsed[p] for p in parts)
