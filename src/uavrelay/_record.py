"""Immutable value records, the base of the package's data types.

A record lists its fields in ``__slots__``, in repr order, and its own
``__init__`` checks the arguments, then sets every field in one
``_fill`` call, derived fields included, in slot order.  ``replace``
builds a changed copy through that constructor, so every check runs
again.
"""


class Record:
    """Repr, equality and hashing over the shown fields; no assignment or deletion."""

    __slots__ = ()
    # fields that __init__ computes from the others: not arguments, so replace refuses them
    _derived: tuple[str, ...] = ()
    # derived fields left out of repr, == and hash
    _hidden: tuple[str, ...] = ()

    # each slot's descriptor __set__, in slot order; a subclass that
    # declares no slots keeps its base's
    _setters: tuple = ()

    def __init_subclass__(cls):
        if cls.__slots__:
            cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        cls._shown = tuple(name for name in cls.__slots__ if name not in cls._hidden)
        cls._arguments = tuple(name for name in cls.__slots__ if name not in cls._derived)

    def _fill(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._shown)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor too
        return type(self), tuple(getattr(self, name) for name in self._arguments)


def replace(record: Record, /, **changes) -> Record:
    """A copy of record with the given fields changed, built and checked by its constructor."""
    for name in changes:
        if name in record._derived:
            raise ValueError(f"field {name!r} is derived at construction; replace() cannot set it")
    return type(record)(**{name: getattr(record, name) for name in record._arguments} | changes)
