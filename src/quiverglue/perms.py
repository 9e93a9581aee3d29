"""Permutations of {0, ..., r-1} with the handful of operations the rest
of the package leans on: composition, commutators, the rotation tau, and
the twist permutations x |-> -k*x used to encode gluing data.

Conventions. A permutation is stored by its image tuple, so ``p.image[x]``
is p(x).  Composition is function composition: ``(p * q)(x) = p(q(x))``.
The commutator is ``[p, q] = p q p^-1 q^-1``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .errors import SpecError, exact_ints


@dataclass(frozen=True)
class CycleDecomposition:
    """Cycles of a permutation, each rotated to start at its minimum and
    sorted by that minimum."""

    cycles: tuple[tuple[int, ...], ...]

    @property
    def lengths(self) -> tuple[int, ...]:
        """Cycle lengths in decreasing order."""
        return tuple(sorted((len(c) for c in self.cycles), reverse=True))

    def __len__(self) -> int:
        return len(self.cycles)


@dataclass(frozen=True)
class Permutation:
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        image = exact_ints(self.image, "permutation images must be integers, "
                           "got {value!r}")
        if image is not self.image:  # a tuple is kept as it came
            object.__setattr__(self, "image", image)
        n = len(image)
        if sorted(image) != list(range(n)):
            raise SpecError(f"not a permutation of 0..{n - 1}: {image}")

    @property
    def degree(self) -> int:
        return len(self.image)

    def __call__(self, x: int) -> int:
        return self.image[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Function composition: (self * other)(x) = self(other(x))."""
        if other.degree != self.degree:
            raise SpecError("degree mismatch")
        return Permutation(tuple(self.image[y] for y in other.image))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for x, y in enumerate(self.image):
            inv[y] = x
        return Permutation(tuple(inv))

    def commutator(self, other: "Permutation") -> "Permutation":
        """[self, other] = self * other * self^-1 * other^-1."""
        return self * other * self.inverse() * other.inverse()

    def __pow__(self, n: int) -> "Permutation":
        (n,) = exact_ints((n,), "power must be an integer, got {value!r}")
        if n < 0:
            return self.inverse() ** (-n)
        result = identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def cycle_decomposition(self) -> CycleDecomposition:
        seen = [False] * self.degree
        cycles = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cycle = []
            x = start
            while not seen[x]:
                seen[x] = True
                cycle.append(x)
                x = self.image[x]
            cycles.append(tuple(cycle))
        return CycleDecomposition(tuple(cycles))

    def is_identity(self) -> bool:
        return all(self.image[x] == x for x in range(self.degree))

    def __repr__(self) -> str:
        return f"Permutation({list(self.image)})"


def _degree(r) -> int:
    (r,) = exact_ints((r,), "degree must be an integer, got {value!r}")
    if r < 1:
        raise SpecError("degree must be positive")
    return r


def identity(r: int) -> Permutation:
    return Permutation(tuple(range(_degree(r))))


def tau(r: int) -> Permutation:
    """The rotation x |-> x - 1 mod r."""
    r = _degree(r)
    return Permutation(tuple((x - 1) % r for x in range(r)))


def swap(i: int, j: int, r: int) -> Permutation:
    image = list(range(_degree(r)))
    i, j = exact_ints((i, j), "swap indices must be integers, got {value!r}")
    if not (0 <= i < r and 0 <= j < r):
        raise SpecError(f"swap indices {i}, {j} are not in 0..{r - 1}")
    image[i], image[j] = image[j], image[i]
    return Permutation(tuple(image))


def from_twist(k: int, r: int) -> Permutation:
    """The permutation x |-> -k*x mod r attached to a twist parameter k.

    Bijectivity needs gcd(k, r) = 1, which is exactly the condition the
    curve-side data imposes on its twists.
    """
    (k,), r = exact_ints((k,), "twist must be an integer, got {value!r}"), _degree(r)
    if math.gcd(k, r) != 1:
        raise SpecError(f"twist {k} is not a unit mod {r}")
    return Permutation(tuple((-k * x) % r for x in range(r)))


def random_permutation(r: int, rng: random.Random) -> Permutation:
    image = list(range(_degree(r)))
    rng.shuffle(image)
    return Permutation(tuple(image))


def all_permutations(r: int):
    """All r! permutations of degree r.  Keep r small."""
    for image in itertools.permutations(range(_degree(r))):
        yield Permutation(image)
