"""Exact combinatorial primitives.

Krawtchouk rows and columns, each computed by a three-term recurrence,
Hamming-ball volumes and an exact primality test, plus the parameter
triple (q, n, d) shared by the whole package.  Everything here is
arbitrary-precision integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator

__all__ = [
    "GraphParams",
    "ball_volume",
    "is_prime",
    "krawtchouk_column",
    "krawtchouk_row",
]


class _cached:
    """A computed attribute, kept in the instance ``__dict__`` on first read.

    It is ``functools.cached_property`` without the lock that Python 3.11
    takes on every first read.  Like it, it is a non-data descriptor (a
    kept value is read straight from the instance) that writes the
    ``__dict__`` directly, so it works on frozen dataclasses.  Every owner
    is immutable and its values deterministic, so two threads that race on
    a first read compute the same value twice, which is harmless.
    """

    def __init__(self, func) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner: type | None = None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Miller-Rabin with every base in _SMALL_PRIMES has no strong pseudoprime
# below this bound (Sorenson and Webster, 2015), so the test is exact there.
_MILLER_RABIN_EXACT_BELOW = 3317044064679887385961981


def is_prime(m: int) -> bool:
    """Exact primality test: trial division by the primes up to 41, then
    deterministic Miller-Rabin with those 13 primes as bases.

    Raises ValueError when m >= 3.317 * 10^24 and no small prime divides
    it: the bases are proven exact only below that bound, and a
    probabilistic answer is never returned.
    """
    if m < 2:
        return False
    for p in _SMALL_PRIMES:
        if m % p == 0:
            return m == p
    if m < 43 * 43:  # no prime factor up to 41, so no factor at all
        return True
    if m >= _MILLER_RABIN_EXACT_BELOW:
        raise ValueError(f"cannot decide primality of {m}: at or above {_MILLER_RABIN_EXACT_BELOW}")
    odd, twos = m - 1, 0
    while odd % 2 == 0:
        odd //= 2
        twos += 1
    for a in _SMALL_PRIMES:
        x = pow(a, odd, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _check_field(q: int, n: int) -> None:
    """Refuse a q that is not prime and an n below 1: the checks that
    ``GraphParams`` and ``codes.LinearCode`` share."""
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")


@dataclass(frozen=True)
class GraphParams:
    """Parameters (q, n, d) of a Gilbert graph.

    Vertices are the q**n vectors over the integers mod q (q prime); two
    vertices are adjacent when their Hamming distance lies in [1, d-1].
    d = 1 gives the edgeless graph and d = n + 1 the complete graph; both
    are allowed and flagged as degenerate by the reporting layer.
    """

    q: int
    n: int
    d: int

    def __post_init__(self) -> None:
        _check_field(self.q, self.n)
        if not 1 <= self.d <= self.n + 1:
            raise ValueError(f"d must satisfy 1 <= d <= n + 1, got d={self.d} with n={self.n}")

    @property
    def num_vertices(self) -> int:
        return self.q**self.n

    @property
    def is_edgeless(self) -> bool:
        return self.d == 1

    @property
    def is_complete(self) -> bool:
        return self.d == self.n + 1

    # Computed on first use, so a refusal of a huge n stays cheap.
    @_cached
    def degree(self) -> int:
        """Regular degree of the graph: one less than the ball volume at d-1."""
        return ball_volume(self, self.d - 1) - 1


def krawtchouk_row(k: int, n: int, q: int) -> list[int]:
    """[K_k(x; n, q) for x in 0..n] by the three-term recurrence in x,

        (q-1)(n-x) K_k(x+1) = (x + (q-1)(n-x) - qk) K_k(x) - x K_k(x-1),

    from K_k(0) = C(n,k)(q-1)^k.  Every division is checked to be exact.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    row = [comb(n, k) * (q - 1) ** k]
    prev = 0
    for x in range(n):
        total = (x + (q - 1) * (n - x) - q * k) * row[x] - x * prev
        value, rem = divmod(total, (q - 1) * (n - x))
        if rem:
            raise ArithmeticError(f"Krawtchouk recurrence: {total} is not divisible by {(q - 1) * (n - x)}")
        prev = row[x]
        row.append(value)
    return row


def krawtchouk_column(x: int, n: int, q: int) -> Iterator[int]:
    """K_0(x; n, q), K_1(x; n, q), ..., K_n(x; n, q), lazily, by the
    three-term recurrence in k,

        (k+1) K_{k+1}(x) = ((n-k)(q-1) + k - qx) K_k(x) - (q-1)(n-k+1) K_{k-1}(x),

    from K_0(x) = 1.  Every division is checked to be exact.  Being a
    generator, it checks x on the first ``next``.
    """
    if not 0 <= x <= n:
        raise ValueError(f"x must lie in [0, n], got x={x}, n={n}")
    prev, value = 0, 1
    for k in range(n):
        yield value
        total = ((n - k) * (q - 1) + k - q * x) * value - (q - 1) * (n - k + 1) * prev
        prev, (value, rem) = value, divmod(total, k + 1)
        if rem:
            raise ArithmeticError(f"Krawtchouk recurrence: {total} is not divisible by {k + 1}")
    yield value


def ball_volume(params: GraphParams, radius: int) -> int:
    """Number of vectors of Hamming weight <= radius: sum of C(n,i)(q-1)^i."""
    if not 0 <= radius <= params.n:
        raise ValueError(f"radius must lie in [0, n], got {radius} with n={params.n}")
    q, n = params.q, params.n
    term = total = 1
    for i in range(radius):
        # C(n,i+1)(q-1)^(i+1) = C(n,i)(q-1)^i (n-i)(q-1) / (i+1), exactly.
        term = term * (n - i) * (q - 1) // (i + 1)
        total += term
    return total
