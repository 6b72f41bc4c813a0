"""Value semantics for the package's small immutable classes."""

from __future__ import annotations


class Frozen:
    """An immutable value named by the attributes in ``_fields``.

    ``__init__`` sets the fields in order, and nothing can set or delete
    an attribute afterwards.  Two instances are equal when they are of the
    same class and their fields are equal; an instance is never equal to a
    plain tuple of its fields.  Hashing and ``repr`` read the same fields.
    A subclass with a validating constructor checks its arguments, then
    calls ``Frozen.__init__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(self._fields)} values, got {len(values)}"
            )
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
