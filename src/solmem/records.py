"""Records: classes whose `__slots__` and `__init__` are written out.

The syntax tree, the IR, the programs, the interpreters' values and the
reports are records: named fields and nothing else. Each record class
lists its own fields in `__slots__` and writes an `__init__` that sets
one slot per argument, in field order. Importing a module then runs only
its bytecode; a `@dataclass` would generate and compile that code again
at every import (about 0.35 ms per class on Python 3.11).

`Record` supplies the rest:

  * `_fields`: every field in order, a base class's fields first;
  * `==`: the same class and equal fields, except the fields a class
    names in its `uncompared` class keyword (annotations and memos);
  * `repr`: `Class(field=value, ...)`, except the fields a class names in
    its `unprinted` class keyword;
  * no hash, because the records are mutable.

`Value` records are immutable instead, and hash by their fields. The
types are interned (`interning`) and use `fields_repr` as their repr.
"""

from __future__ import annotations


def fields_repr(self) -> str:
    """`Class(field=value, ...)` over the class's `_printed` fields."""
    args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._printed)
    return f"{self.__class__.__qualname__}({args})"


def frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def reduce_by_fields(self):
    """How copies and pickles rebuild an immutable record: by calling
    its class with its fields."""
    return self.__class__, tuple(getattr(self, name) for name in self._fields)


class Record:
    """Base of the mutable records: value equality, no hash."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()
    _printed: tuple[str, ...] = ()

    def __init_subclass__(cls, uncompared=(), unprinted=(), **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__slots__", ())
        cls._fields += own
        cls._compared += tuple(name for name in own if name not in uncompared)
        cls._printed += tuple(name for name in own if name not in unprinted)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = self._compared
        return [getattr(self, n) for n in names] == [getattr(other, n) for n in names]

    __hash__ = None
    __repr__ = fields_repr


class Value(Record):
    """An immutable record that hashes by its fields. `__init__` sets the
    slots through `object.__setattr__`."""

    __slots__ = ()
    __setattr__ = frozen_setattr
    __delattr__ = frozen_delattr
    __reduce__ = reduce_by_fields

    def __hash__(self):
        return hash(tuple(getattr(self, n) for n in self._compared))
