"""Immutable ``__slots__`` records, the one record base of the package.

A record's fields are its ``__slots__`` less a ``"__dict__"`` slot, which
holds ``functools.cached_property`` caches only.  ``Record.__init__`` takes
the fields by position or by name and sets each once; a missing, unknown or
extra field raises TypeError, and assigning or deleting one AttributeError.
A class that validates its input defines ``__init__`` and passes the fields
on.  A record compares by identity, a ``ValueRecord`` by its field tuple.
Pickling and copying call the constructor again and drop the caches.
"""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        # the slots' own setters, which bypass __setattr__ and its lookup
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *values, **named):
        fields = self._fields
        if named:  # the fields after the positional ones, in slot order
            values += tuple(named.pop(name) for name in fields[len(values):] if name in named)
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {', '.join(fields)}; "
                            f"got {len(values)} of them and the extra names {list(named)}")
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self._fields, self._values()))
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
