"""The base of the package's immutable value classes."""

from operator import attrgetter

_set = object.__setattr__
_tuple = tuple  # a field named `tuple` shadows the builtin in its __init__


class Frozen:
    """A slotted value whose `__slots__` name its fields in constructor order.

    It compares and hashes by its fields, prints as `Name(field=value, ...)`
    and refuses assignment and deletion.  Each subclass's `__init__` names
    its fields and passes them to `Frozen.__init__`, or, on a hot path,
    sets each through `_set`.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild the value through __init__
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
