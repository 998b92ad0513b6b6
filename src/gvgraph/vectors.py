"""Vectors over the integers mod q.

``FqVector`` is a checked digit tuple with no arithmetic: every digit lies
in [0, q).  It names a character index, a pivot and a parity-check row;
the arithmetic on them runs on packed words (``modq._Slots``) or on plain
digit tuples.  The ordering convention used everywhere in the package
reads a vector as a base-q number with digit 1 (the leftmost) most
significant, which coincides with lexicographic order on the digit tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FqVector"]


@dataclass(frozen=True)
class FqVector:
    """A length-n digit vector over the integers mod q."""

    q: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError(f"q must be at least 2, got {self.q}")
        if not self.digits:
            raise ValueError("digits must be nonempty")
        if not isinstance(self.digits, tuple):
            object.__setattr__(self, "digits", tuple(self.digits))
        if min(self.digits) < 0 or max(self.digits) >= self.q:
            x = next(x for x in self.digits if not 0 <= x < self.q)
            raise ValueError(f"digit {x} out of range [0, {self.q})")

    @property
    def n(self) -> int:
        return len(self.digits)

    @property
    def is_zero(self) -> bool:
        return not any(self.digits)

    def __str__(self) -> str:
        if self.q <= 10:
            return "".join(map(str, self.digits))
        return " ".join(map(str, self.digits))
