"""Exact tools for ratio complexes on configuration points, braid-word
equality and symmetric-group image classification, binary-form
discriminants, and the explicit morphism gallery.

Importing the package loads none of its layers; import the one you use
(``from confspace import braid``)."""

from operator import attrgetter

__all__ = ["CapacityError", "braid", "homology", "identities", "morphisms",
           "polyring", "ratios"]


class CapacityError(RuntimeError):
    """Raised when an exhaustive search would exceed its supported range."""


class _Value:
    """Base of the layers' immutable value types: plain ``__slots__``
    classes, since `dataclasses` alone would add about 16 ms to the start-up
    of each CLI call.

    A subclass lists its fields in ``__slots__``, in the order its
    constructor takes them, and sets them with ``object.__setattr__``.  It
    then refuses assignment and deletion, equals only instances of its own
    class with equal fields, hashes as the tuple of its fields, pickles and
    copies through its constructor, and reprs as ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        if len(names) == 1:
            get = attrgetter(*names)
            cls._key = staticmethod(lambda value: (get(value),))
        else:
            cls._key = attrgetter(*names)  # a tuple already
        cls._format = "%s(%s)" % (cls.__name__, ", ".join(
            "%s=%%r" % name for name in names))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __reduce__(self):
        return self.__class__, self._key(self)

    def __repr__(self):
        return self._format % self._key(self)
