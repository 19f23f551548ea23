"""The base class of the syntax and formula trees, field checks for the
`typing.NamedTuple` records, which may not define `__new__`, and the
quoting of user text in error messages."""


class Node:
    """A tree node whose fields are its `__slots__`, given in order or by name.

    A node equals only nodes of its own class with equal fields.  Fields
    whose names end in `loc` are source locations, which `==` and `hash`
    ignore, so a re-printed program parses equal to its source.  Nodes are
    not changed once built.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        if len(args) + len(kwargs) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
        for name, value in zip(self.__slots__, args):
            setattr(self, name, value)
        for name, value in kwargs.items():
            setattr(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__ if not f.endswith("loc"))

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


def validated(cls):
    """Class decorator: `cls(...)` calls `_validate()` on the new record."""
    new = cls.__new__

    def __new__(c, *args, **kwargs):
        record = new(c, *args, **kwargs)
        record._validate()
        return record

    cls.__new__ = __new__
    return cls


def shown(text: str) -> str:
    """`text` quoted for an error line; past 40 characters, its start and length."""
    return repr(text) if len(text) <= 40 else f"{text[:20]!r}... ({len(text)} characters)"
