"""The immutable base of the validated value types: Surd, MatM, TripleS,
MutationPath and M1Representative."""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Value"]


class Value:
    """An immutable record over __slots__, compared, hashed and shown by its fields.

    A subclass validates in __init__ and sets its slots there with
    object.__setattr__; any later assignment raises AttributeError.
    _fields, the inherited fields plus every slot the subclass adds unless
    it names its own, are what repr reads; copying and pickling pass them,
    in order, back to the validating constructor. _key, a getter of
    _fields unless the subclass names its own, is what equality and the
    hash read. Instances of distinct classes never compare equal.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        if "_fields" not in vars(cls):
            cls._fields = cls._fields + vars(cls).get("__slots__", ())
        if "_key" not in vars(cls):
            cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)
