"""Shared exception types, and the refusal every read-only class uses."""

from dataclasses import FrozenInstanceError


class SpecError(ValueError):
    """Malformed or inconsistent input data."""


class QuiverError(ValueError):
    """Structurally invalid quiver or quiver operation."""


class FalsificationError(AssertionError):
    """A mathematical identity that the package treats as a theorem failed.

    Raised only when a cross-check that should hold for every valid input
    comes out false; it signals a bug or a genuine counterexample, never a
    user error.
    """


def read_only(obj, name, value=None):
    """The ``__setattr__`` and ``__delattr__`` of the package's immutable
    classes: every assignment or deletion raises FrozenInstanceError,
    an AttributeError."""
    raise FrozenInstanceError(f"{type(obj).__name__} is read-only: cannot change {name!r}")
