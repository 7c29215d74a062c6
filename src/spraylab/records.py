"""Plain record types: the fields are a class's `__slots__`.

`Record` compares by value and prints like a dataclass; `Frozen` adds a hash
and refuses assignment once built.  A subclass lists its fields in
`__slots__` and sets them in its own `__init__` (a `Frozen` one through
`_init`).  Unlike `dataclasses`, nothing here generates code at import.
"""


class Record:
    __slots__ = ()
    __hash__ = None         # mutable: equal by value, so not hashable

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Frozen(Record):
    __slots__ = ()

    def _init(self, *values):
        """Set the fields, in `__slots__` order."""
        for f, v in zip(self.__slots__, values):
            object.__setattr__(self, f, v)

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):       # copy and pickle through the constructor
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen "
                             f"{type(self).__name__}")
