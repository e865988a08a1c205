"""Exact tools for ratio complexes on configuration points, braid-word
equality and symmetric-group image classification, binary-form
discriminants, and the explicit morphism gallery.

Importing the package loads none of its layers; import the one you use
(``from confspace import braid``)."""

__all__ = ["CapacityError", "braid", "homology", "morphisms", "polyring",
           "ratios"]


class CapacityError(RuntimeError):
    """Raised when an exhaustive search would exceed its supported range."""


# __setattr__ and __delattr__ of the layers' immutable value types: plain
# __slots__ classes, since `dataclasses` alone would add about 16 ms to the
# start-up of each CLI call


def _frozen(self, name, value):
    raise AttributeError("cannot assign to field %r" % name)


def _undeletable(self, name):
    raise AttributeError("cannot delete field %r" % name)
