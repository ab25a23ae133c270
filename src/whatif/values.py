"""Value semantics for the package's small data classes.

They are plain classes with ``__slots__`` and an explicit ``__init__``, which
cost far less to create at import than generated ones. A class that compares
by value subclasses ``Value``: two instances are equal when they are of the
same class and their fields are equal, and ``repr`` shows every field. A
``FrozenValue`` also hashes by its fields; nothing assigns to its fields
after ``__init__``. The fields are the ``__slots__`` of the class and its
bases, in declaration order; names listed in ``_uncompared`` are left out
of equality and hashing, and a field whose name starts with an underscore,
a memo, is also left out of ``repr``.
"""

from __future__ import annotations


class Value:
    __slots__ = ()
    _fields: tuple = ()
    _compared: tuple = ()
    _uncompared: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = [name for klass in reversed(cls.__mro__) for name in klass.__dict__.get("__slots__", ())]
        cls._fields = tuple(name for name in fields if not name.startswith("_"))
        cls._compared = tuple(name for name in fields if name not in cls._uncompared)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenValue(Value):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key())
