"""Immutable ``__slots__`` records for the layers that run without numpy,
which ``dataclasses`` would make import ``inspect``.

A constructor passes its fields, in slot order, to ``Record.__init__``, which
sets each once; assigning or deleting one then raises AttributeError.  A
record compares by identity, a ``ValueRecord`` by its field tuple.  Pickling
and copying call the constructor again.
"""


class Record:
    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class ValueRecord(Record):
    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())
