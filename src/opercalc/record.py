"""Immutable records compared, hashed and shown by their fields.

A subclass lists its two or more fields in ``__slots__`` and stores them
with ``object.__setattr__`` in ``__init__``.  Equality (same class, equal
field tuples), hashing (of the field tuple) and ``Name(field=value, ...)``
reprs follow the field order, as a frozen dataclass would give them, without
loading ``dataclasses`` into every process.  A slot whose name starts with
``_`` is a cache of something the fields determine, not a field: it stays
out of equality, hashing and the repr.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        # the field tuple of an instance; attrgetter binds no self, so call _key(self)
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({body})"
