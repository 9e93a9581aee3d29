"""Shared exception types, the read-only refusal, and the exact readers."""

from dataclasses import FrozenInstanceError
from fractions import Fraction


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


def read_only_slots(cls):
    """Class decorator over ``@dataclass(frozen=True, slots=True)``: make
    ``read_only`` the class's ``__setattr__`` and ``__delattr__``.
    slots=True replaces the class that frozen=True wrote them for, so on
    CPython 3.11 setting a name that is not a field raised TypeError."""
    cls.__setattr__ = cls.__delattr__ = read_only
    return cls


def exact_ints(values, message: str, types=(int,), **where) -> tuple[int, ...]:
    """``values`` as a tuple, each of type exactly ``int`` (or one of
    ``types``).  Anything else, even a bool or a whole float, or a
    ``values`` that is a dict (never its keys) or not iterable, raises
    SpecError: ``message`` formatted with the refused ``value``, its
    ``index`` and ``where``."""
    items = (values if type(values) is tuple else
             None if isinstance(values, dict) else _items(values))
    if items is None:
        raise SpecError(message.format(value=values, index=None, **where))
    for value in items:
        if type(value) not in types:
            index = [v is value for v in items].index(True)
            raise SpecError(message.format(value=value, index=index, **where))
    return items


def exact_items(value, message: str, size=None, error=SpecError, **where) -> tuple:
    """``value``'s items as a tuple, ``size`` of them if given.  A str,
    bytes or dict (never its characters or keys), a non-iterable or
    another count raises ``error(message.format(value=value, **where))``."""
    items = (value if type(value) is tuple else
             None if isinstance(value, (str, bytes, dict)) else _items(value))
    if items is None or size is not None and len(items) != size:
        raise error(message.format(value=value, **where))
    return items


def _items(value) -> tuple | None:
    """``value``'s items as a tuple, or None when it is not iterable.  An
    error raised while iterating, a TypeError too, is the iterable's own
    and propagates."""
    try:
        iter(value)
    except TypeError:
        return None
    return tuple(value)


def exact_scalars(values, message: str, **where) -> tuple[int | Fraction, ...]:
    """``exact_ints`` for rationals: each exactly an int or a Fraction."""
    return exact_ints(values, message, (int, Fraction), **where)
