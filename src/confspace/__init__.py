"""Exact tools for ratio complexes on configuration points, braid-word
equality and symmetric-group image classification, binary-form
discriminants, and the explicit morphism gallery.

Importing the package loads none of its layers; import the one you use
(``from confspace import braid``)."""

__all__ = ["CapacityError", "braid", "homology", "morphisms", "polyring",
           "ratios"]


class CapacityError(RuntimeError):
    """Raised when an exhaustive search would exceed its supported range."""
