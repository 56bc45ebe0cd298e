"""The base of iwkit's record types: immutable values compared by field.

A subclass declares its fields once, in order, as ``__slots__`` (with
``"__dict__"`` last when an instance keeps derived data beside them).  It is
built positionally or by field name, each field exactly once, by the base
``__init__``.  A record without checks defines no ``__init__`` of its own;
one with checks calls the base's after them, or before the checks that read
its own fields (``RankLedger``, ``ElementaryModule``).  The base
gives the field-wise ``==``, ``hash`` and ``Name(field=value, ...)`` repr,
refuses assignment and deletion with ``AttributeError``, and copies and
pickles an instance by calling its class on its fields.  It stands in for
frozen dataclasses, whose import (it pulls in ``inspect``) and per-class code
generation cost about 18 ms of every start-up of the command line.
"""

from __future__ import annotations


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")

    def __init__(self, *args, **kwargs):
        name, fields = self.__class__.__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for f in kwargs:
            if f not in fields or f in values:
                raise TypeError(f"{name} got an unknown or repeated field {f!r}")
        values.update(kwargs)
        for f in fields:
            if f not in values:
                raise TypeError(f"{name} is missing field {f!r}")
            object.__setattr__(self, f, values[f])

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"

    def __reduce__(self):
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
