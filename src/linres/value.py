"""The base of linres's immutable value types.

A value type names its fields in ``_fields``, in constructor order, and
sets each once, in ``__init__``, through ``object.__setattr__``; after
that, assigning or deleting an attribute raises AttributeError.  Two
values are equal when they are of the same class and their fields are
equal, a value hashes as the tuple of its fields, and its repr reads
``Name(field=value, ...)``.  Plain classes rather than generated ones keep
code generation out of ``import linres``.
"""

from __future__ import annotations


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # copies and pickles are rebuilt through the constructor, since
        # the default restores slots by assignment, which is refused
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {self.__class__.__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {self.__class__.__qualname__}")
