"""Immutable value nodes: expression and formula trees and the run's
frozen records.

A Node subclass names its fields in ``__slots__``, in constructor
order.  Nodes compare equal when they have the same class and equal
fields, hash consistently with that (the hash of the field tuple,
computed once), print as ``Name(field=value, ...)`` and reject
assignment.  A subclass with defaults or checks writes its own
``__init__`` and hands the field values to ``Node.__init__``.
"""

__all__ = ["Node"]


class Node:
    __slots__ = ("_hash",)

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(
                f"{type(self).__name__} takes {len(names)} fields {names}, got {len(values)}"
            )
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        # cached on first use: atoms key the enclosure's program caches
        try:
            return self._hash
        except AttributeError:
            h = hash(self._values())
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not by assignment
        return type(self), self._values()
