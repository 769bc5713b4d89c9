"""Types as interned values: one object per class and constructor arguments.

The Solidity types of `sol_ast`, the IR types of `ir` and the IR's
datatype definitions are immutable values that the pipeline looks up
all the time: the translator maps each (type, location) pair it meets
to an SMT type through a dict, and the resolver, interpreter and
generator compare types at every expression. A class whose metaclass is
`Interned` returns one canonical object per (class, arguments), so its
`==` and `hash` are the identity ones of `object`, which run in C.

What the classes keep to for that:

  * Each class lists its own fields in `__slots__` and has no
    `__init__`: the metaclass builds an instance by setting its slots
    from the positional arguments, in field order, and the instance
    cannot be changed afterwards. Keyword arguments are rejected. Every
    field is a constructor argument and every argument is hashable, so
    the arguments are the whole key: `int[2]` and `int[3]` are two
    objects.
  * `copy.copy`, `copy.deepcopy` and pickling return the canonical
    object: each rebuilds the object by calling its class.
  * A concrete type class is never subclassed, so a class test is
    `type(t) is C` (`tests/test_hygiene.py` checks both rules).
"""

from __future__ import annotations

from .records import fields_repr, frozen_delattr, frozen_setattr, reduce_by_fields


def _build(cls, args: tuple):
    """A new instance of `cls` with its fields set to `args`."""
    if len(args) != len(cls._fields):
        raise TypeError(f"{cls.__name__} takes {len(cls._fields)} arguments, got {len(args)}")
    instance = object.__new__(cls)
    for name, value in zip(cls._fields, args):
        object.__setattr__(instance, name, value)
    return instance


class Interned(type):
    """Metaclass of the type classes: calling a class returns the one
    instance built for these arguments, building it on first use."""

    def __new__(mcs, name, bases, namespace):
        namespace.update(
            __reduce__=reduce_by_fields, __repr__=fields_repr, __setattr__=frozen_setattr, __delattr__=frozen_delattr
        )
        cls = super().__new__(mcs, name, bases, namespace)
        cls._fields = cls._printed = tuple(n for c in reversed(cls.__mro__) for n in c.__dict__.get("__slots__", ()))
        cls._instances = {}
        return cls

    def __call__(cls, *args, **kwargs):
        if kwargs:
            raise TypeError(f"{cls.__name__} takes positional arguments only")
        # `setdefault` is one step under the interpreter lock, so two
        # threads building the same type both get the one stored first
        instance = cls._instances.get(args)
        if instance is None:
            instance = cls._instances.setdefault(args, _build(cls, args))
        return instance
