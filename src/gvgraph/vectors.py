"""Vectors over the integers mod q.

One type serves three roles: group element of (F_q^n, +), character index,
and parity-check row.  The ordering convention used everywhere in the
package reads a vector as a base-q number with digit 1 (the leftmost)
most significant, which coincides with lexicographic order on the digit
tuples and with natural integer order on ``rank``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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
        for x in self.digits:
            if not 0 <= x < self.q:
                raise ValueError(f"digit {x} out of range [0, {self.q})")

    @classmethod
    def zero(cls, q: int, n: int) -> "FqVector":
        return cls(q, (0,) * n)

    @classmethod
    def from_rank(cls, q: int, n: int, rank: int) -> "FqVector":
        """Inverse of ``rank``: digits of ``rank`` base q, digit 1 most significant."""
        if not 0 <= rank < q**n:
            raise ValueError(f"rank {rank} out of range for q={q}, n={n}")
        digits = [0] * n
        for i in range(n - 1, -1, -1):
            rank, digits[i] = divmod(rank, q)
        return cls(q, tuple(digits))

    @property
    def n(self) -> int:
        return len(self.digits)

    @property
    def weight(self) -> int:
        return sum(1 for x in self.digits if x != 0)

    @property
    def is_zero(self) -> bool:
        return not any(self.digits)

    @property
    def rank(self) -> int:
        """The vector read as a base-q number, digit 1 most significant."""
        r = 0
        for x in self.digits:
            r = r * self.q + x
        return r

    @property
    def support(self) -> frozenset[int]:
        """1-based positions of the nonzero digits."""
        return frozenset(i + 1 for i, x in enumerate(self.digits) if x != 0)

    def _check_compatible(self, other: "FqVector") -> None:
        if self.q != other.q or self.n != other.n:
            raise ValueError(
                f"mismatched parameters: (q={self.q}, n={self.n}) vs (q={other.q}, n={other.n})"
            )

    def dot(self, other: "FqVector") -> int:
        """Standard inner product mod q, a residue in [0, q)."""
        self._check_compatible(other)
        return sum(a * b for a, b in zip(self.digits, other.digits)) % self.q

    def add(self, other: "FqVector") -> "FqVector":
        self._check_compatible(other)
        return FqVector(self.q, tuple((a + b) % self.q for a, b in zip(self.digits, other.digits)))

    def scale(self, c: int) -> "FqVector":
        return FqVector(self.q, tuple((c * a) % self.q for a in self.digits))

    def hamming_distance(self, other: "FqVector") -> int:
        self._check_compatible(other)
        return sum(1 for a, b in zip(self.digits, other.digits) if a != b)

    def __lt__(self, other: "FqVector") -> bool:
        self._check_compatible(other)
        return self.digits < other.digits

    def __le__(self, other: "FqVector") -> bool:
        self._check_compatible(other)
        return self.digits <= other.digits

    def __str__(self) -> str:
        if self.q <= 10:
            return "".join(map(str, self.digits))
        return " ".join(map(str, self.digits))

    @staticmethod
    def enumerate_all(q: int, n: int) -> Iterator["FqVector"]:
        """All q**n vectors in increasing rank order."""
        for r in range(q**n):
            yield FqVector.from_rank(q, n, r)
