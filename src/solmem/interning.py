"""Types as interned values: one object per class and constructor arguments.

The Solidity types of `sol_ast`, the IR types of `ir` and the IR's
datatype definitions are immutable values that the pipeline looks up
all the time: the translator maps each (type, location) pair it meets
to an SMT type through a dict, and the resolver, interpreter and
generator compare types at every expression. A frozen dataclass hashes
and compares field by field in Python code. A class whose metaclass is
`Interned` instead returns one canonical object per (class, arguments),
so the classes are declared `@dataclass(frozen=True, eq=False)` and
`==` and `hash` are the identity ones of `object`, which run in C.

What the classes keep to for that:

  * They are built only by calling the class with positional arguments;
    keyword arguments are rejected. Every field is a constructor
    argument and every argument is hashable, so the arguments are the
    whole key: `int[2]` and `int[3]` are two objects.
  * `copy.copy`, `copy.deepcopy` and pickling return the canonical
    object: each rebuilds the object by calling its class.
  * A concrete type class is never subclassed, so a class test is
    `type(t) is C` (`tests/test_hygiene.py` checks both rules).
"""

from __future__ import annotations

from dataclasses import fields


def _reduce(self):
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


class Interned(type):
    """Metaclass of the type classes: calling a class returns the one
    instance built for these arguments, building it on first use."""

    def __new__(mcs, name, bases, namespace):
        namespace["__reduce__"] = _reduce
        cls = super().__new__(mcs, name, bases, namespace)
        cls._instances = {}
        return cls

    def __call__(cls, *args, **kwargs):
        if kwargs:
            raise TypeError(f"{cls.__name__} takes positional arguments only")
        # `setdefault` is one step under the interpreter lock, so two
        # threads building the same type both get the one stored first
        instance = cls._instances.get(args)
        if instance is None:
            instance = cls._instances.setdefault(args, super().__call__(*args))
        return instance
