"""Value classes: equality, hash and repr over the fields named in ``__slots__``.

A value class lists its fields in ``__slots__`` and assigns each of them in
its ``__init__``, after validating the arguments; nothing sets them later.
Two instances of the same class are equal when their fields are, in slot
order, and equal instances hash alike.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)   # the field, or a tuple of several

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
