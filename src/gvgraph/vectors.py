"""Vectors over the integers mod q.

One type serves three roles: group element of (F_q^n, +), character index,
and parity-check row.  The ordering convention used everywhere in the
package reads a vector as a base-q number with digit 1 (the leftmost)
most significant, which coincides with lexicographic order on the digit
tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

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

    @classmethod
    def zero(cls, q: int, n: int) -> "FqVector":
        return cls(q, (0,) * n)

    @property
    def n(self) -> int:
        return len(self.digits)

    @property
    def weight(self) -> int:
        return sum(1 for x in self.digits if x != 0)

    @property
    def is_zero(self) -> bool:
        return not any(self.digits)

    def _check_compatible(self, other: "FqVector") -> None:
        if self.q != other.q or self.n != other.n:
            raise ValueError(
                f"mismatched parameters: (q={self.q}, n={self.n}) vs (q={other.q}, n={other.n})"
            )

    def dot(self, other: "FqVector") -> int:
        """Standard inner product mod q, a residue in [0, q)."""
        self._check_compatible(other)
        return sum(map(mul, self.digits, other.digits)) % self.q

    def add(self, other: "FqVector") -> "FqVector":
        self._check_compatible(other)
        return FqVector(self.q, tuple((a + b) % self.q for a, b in zip(self.digits, other.digits)))

    def scale(self, c: int) -> "FqVector":
        return FqVector(self.q, tuple((c * a) % self.q for a in self.digits))

    def __lt__(self, other: "FqVector") -> bool:
        self._check_compatible(other)
        return self.digits < other.digits

    def __str__(self) -> str:
        if self.q <= 10:
            return "".join(map(str, self.digits))
        return " ".join(map(str, self.digits))
