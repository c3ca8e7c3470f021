"""The base of the library's immutable records that are not tuples."""

__all__ = ["Record"]


class Record:
    """A record whose fields, named in ``_fields``, are its slots.

    It equals a record of its own class whose fields are equal, hashes
    as the tuple of its fields, prints as ``Name(field=value, ...)`` and
    refuses assignment, as a frozen dataclass does.  A subclass's
    ``__init__`` hands its field values, in order, to ``_set``.  A
    ``cached_property`` needs ``__dict__`` among the subclass's slots.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
